"""Newton interpolation bases over line covers and their evaluation matrices.

For a row cover with points u_ij (i-th point on row j, rows ordered by the
cover) the basis element indexed by (i, j) is

    phi_ij = c * prod_{t<j} (y - y_0t) * prod_{s<i} (x - x_sj)

with c normalizing phi_ij(u_ij) to 1; evaluations against the cover-ordered
points form an upper unitriangular matrix.  The column-cover construction
mirrors this with the roles of x and y swapped.  The basis is indexed by
the cover's lower set as points.lower_set_of lists it: phi_ij is the r-th
row exactly when (i, j) is the r-th exponent of that list.

One recurrence builds every product, one linear factor at a time, as a row
of values at a list of points and as a row of coefficients over the index
order.  A factor (v - c) multiplies the values point by point and maps the
coefficients to their shift by one in v minus c times themselves.  Over
F_p rows are int64 arrays reduced mod p.  Over Q the points are first
scaled to integers, X = B x and Y = C y with B and C the lcms of their x-
and y-denominators, so every product is a row of Python integers; element
r is row r over its entry at its own point, with coefficient column (i, j)
multiplied by B^i C^j.  Fractions are built only when asked for.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import Field
from .points import (EmptySetError, LineCover, coordinate_scale,
                     lower_set_of, scale_points)
from .poly import Polynomial


def _zeros(field: Field, shape) -> np.ndarray:
    """int64 zeros over F_p, Python integer zeros over Q."""
    return np.zeros(shape, dtype=np.int64 if field.char else object)


def _mod(field: Field, a: np.ndarray) -> np.ndarray:
    """a reduced mod p in place over F_p, a itself over Q."""
    if field.char:
        a %= field.char
    return a


class NewtonBasis:
    """A Newton basis over a line cover, kept as rows: row r holds element
    r's values at point_order and then its coefficients over index_order,
    both divided by its value at its own point, rows[r, r].

    Over F_p that value is one.  Over Q the rows are Python integers and
    rows[r, r] is positive; values, coeffs and polys build the Fractions
    once, on first use.  values is upper unitriangular."""

    __slots__ = ("field", "cover", "index_order", "point_order", "rows",
                 "_normalized", "_polys")

    def __init__(self, cover: LineCover, index_order: list, rows):
        self.field = cover.field
        self.cover = cover
        self.index_order = index_order
        self.point_order = cover.flatten()
        self.rows = rows
        self._normalized = None
        self._polys = None

    def __len__(self):
        return len(self.index_order)

    def _normalized_rows(self) -> np.ndarray:
        """rows divided by their diagonal entries, as field elements."""
        if self._normalized is None:
            rows = self.rows
            if not self.field.char:
                rows = np.frompyfunc(Fraction, 2, 1)(
                    rows, rows.diagonal()[:, None])
            self._normalized = rows
        return self._normalized

    @property
    def values(self) -> np.ndarray:
        """values[r, m]: element r at point m of point_order."""
        return self._normalized_rows()[:, :len(self)]

    @property
    def coeffs(self) -> np.ndarray:
        """coeffs[r, s]: element r's coefficient of index_order[s]."""
        return self._normalized_rows()[:, len(self):]

    @property
    def polys(self) -> list:
        """The basis elements as polynomials, built once from coeffs."""
        if self._polys is None:
            self._polys = [Polynomial(self.field, {
                e: c for e, c in zip(self.index_order, row) if c})
                for row in self.coeffs.tolist()]
        return self._polys


def _variable(field: Field, points: list, index_order: list,
              var: int) -> tuple:
    """Multiplication by variable var (0 for x, 1 for y) on a row of values
    at points followed by coefficients over index_order: the row maps to
    row[gather] * weight.  dead lists the coefficients whose exponent times
    the variable has no slot."""
    m, k = len(points), len(index_order)
    col = {e: m + s for s, e in enumerate(index_order)}
    up = [col.get((i + 1, j) if var == 0 else (i, j + 1))
          for i, j in index_order]
    gather = np.arange(m + k)
    weight = _zeros(field, m + k)
    weight[:m] = [pt[var] for pt in points]
    for s, t in enumerate(up):
        if t is not None:
            gather[t], weight[t] = m + s, 1
    dead = [m + s for s, t in enumerate(up) if t is None]
    return gather, weight, np.array(dead, dtype=np.intp)


def _times_linear(field: Field, row: np.ndarray, variable: tuple, c):
    """The product in row times (v - c), v the variable of _variable."""
    gather, weight, dead = variable
    if row[dead].any():
        raise RuntimeError("a Newton product shifted a live coefficient out "
                           "of the lower set")
    return _mod(field, row[gather] * weight - c * row)


def _products(cover: LineCover, points: list, scale, index_order=()):
    """Each basis element's product before normalization, in cover order,
    as one row: its values at points, then its coefficients over
    index_order.  The product is taken in the integer coordinates
    (B x, C y) of the scale, which must clear every denominator of the
    cover and of points; over F_p the scale is (1, 1)."""
    field = cover.field
    inner = 0 if cover.axis == "rows" else 1
    points = scale_points(points, scale)
    var_in = _variable(field, points, index_order, inner)
    var_out = _variable(field, points, index_order, 1 - inner)
    head = _zeros(field, len(points) + len(index_order))
    head[:len(points)] = 1
    if index_order:
        head[len(points)] = 1  # slot 0 is the exponent (0, 0)
    lines = [scale_points(grp, scale) for _, grp in cover.groups]
    for gidx, grp in enumerate(lines):
        if gidx:
            head = _times_linear(field, head, var_out,
                                 lines[gidx - 1][0][1 - inner])
        cur = head
        for pidx in range(len(grp)):
            if pidx:
                cur = _times_linear(field, cur, var_in, grp[pidx - 1][inner])
            yield cur


def _build(cover: LineCover, axis: str) -> NewtonBasis:
    if cover.axis != axis:
        raise ValueError(f"expected a {axis} cover, got {cover.axis}")
    if not cover.groups:
        raise EmptySetError("empty cover")
    field = cover.field
    index_order = lower_set_of(cover)
    k = len(index_order)
    points = cover.flatten()
    scale = coordinate_scale(points)
    rows = _zeros(field, (k, 2 * k))
    for r, row in enumerate(_products(cover, points, scale, index_order)):
        rows[r] = row
    if field.char:
        rows *= np.array([[field.inv(field.convert(rows[r, r]))]
                          for r in range(k)], dtype=rows.dtype)
        return NewtonBasis(cover, index_order, _mod(field, rows))
    b, c = scale
    rows[:, k:] *= np.array([b**i * c**j for i, j in index_order],
                            dtype=object)
    rows *= np.array([[1 if d > 0 else -1] for d in rows.diagonal()],
                     dtype=object)
    return NewtonBasis(cover, index_order, rows)


def newton_basis_rows(cover: LineCover) -> NewtonBasis:
    """Basis over a row cover, indexed by S_x, listed row-major (inlex)."""
    return _build(cover, "rows")


def newton_basis_cols(cover: LineCover) -> NewtonBasis:
    """Basis over a column cover, indexed by S_y, listed column-major (lex)."""
    return _build(cover, "columns")


def evaluation_matrix(basis: NewtonBasis, all_points, out=None) -> np.ndarray:
    """Rows = basis evaluations at all points, written into out if given.

    As in basis.rows, row r holds element r's values times a positive
    factor, its entry at point r: over F_p the factor is one and the rows
    are the values, over Q the rows are integers.  all_points must start
    with the basis points, whose values the basis holds (a unitriangular
    block); the recurrence runs only after them.
    """
    pts = list(all_points)
    n = len(basis)
    if pts[:n] != basis.point_order:
        raise ValueError("point list does not start with the basis points")
    f = basis.field
    if out is None:
        out = _zeros(f, (n, len(pts)))
    out[:, :n] = basis.rows[:, :n]
    if len(pts) > n:
        scale = coordinate_scale(pts)
        for r, row in enumerate(_products(basis.cover, pts[n:], scale)):
            # a product is monic at its own index, so the basis row's entry
            # there normalizes it: the inverse of its value over F_p, the
            # sign _build gave it over Q
            lead = basis.rows[r, n + r]
            out[r, n:] = (_mod(f, row * lead) if f.char
                          else row if lead > 0 else -row)
        if not f.char:
            # element r's product in the scale of all points is its product
            # in the scale of the basis points times (B'/B)^i (C'/C)^j
            b, c = coordinate_scale(basis.point_order)
            grow = [(scale[0] // b)**i * (scale[1] // c)**j
                    for i, j in basis.index_order]
            out[:, :n] *= np.array(grow, dtype=object)[:, None]
    return out


def interpolate(basis: NewtonBasis, values) -> Polynomial:
    """The unique combination of the basis matching the values on its points.

    Forward substitution against the triangular evaluation rows.
    """
    f = basis.field
    resid = np.array([f.convert(v) for v in values], dtype=basis.values.dtype)
    if len(resid) != len(basis):
        raise ValueError(f"expected {len(basis)} values, got {len(resid)}")
    total = _zeros(f, len(basis))
    for k in range(len(basis)):
        if c := resid[k]:
            resid = _mod(f, resid - c * basis.values[k])
            total = _mod(f, total + c * basis.coeffs[k])
    return Polynomial(f, {e: c for e, c in zip(basis.index_order,
                                               total.tolist()) if c})
