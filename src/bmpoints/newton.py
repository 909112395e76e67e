"""Newton interpolation bases over line covers and their evaluation matrices.

For a row cover with points u_ij (i-th point on row j, rows ordered by the
cover) the basis element indexed by (i, j) is

    phi_ij = c * prod_{t<j} (y - y_0t) * prod_{s<i} (x - x_sj)

with c normalizing phi_ij(u_ij) to 1; evaluations against the cover-ordered
points form an upper unitriangular matrix.  The column-cover construction
mirrors this with the roles of x and y swapped.

One recurrence builds every product, one linear factor at a time, as a row
of values at a list of points and as a row of coefficients over the index
order.  A factor (v - c) multiplies the values point by point and maps the
coefficients to their shift by one in v minus c times themselves.  Rows are
int64 arrays reduced mod p over F_p and object arrays of Fraction over Q.
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .points import EmptySetError, LineCover
from .poly import Polynomial


def _full(field: Field, shape, value) -> np.ndarray:
    return np.full(shape, value, dtype=np.int64 if field.char else object)


def _mod(field: Field, a: np.ndarray) -> np.ndarray:
    """a reduced mod p in place over F_p, a itself over Q."""
    if field.char:
        a %= field.char
    return a


class NewtonBasis:
    """A Newton basis over a line cover, kept as rows: values[r] holds
    element r's values at point_order (upper unitriangular), coeffs[r] its
    coefficients over index_order."""

    __slots__ = ("field", "cover", "index_order", "point_order", "values",
                 "coeffs", "_polys")

    def __init__(self, cover: LineCover, index_order: list, rows):
        self.field = cover.field
        self.cover = cover
        self.index_order = index_order
        self.point_order = cover.flatten()
        self.values, self.coeffs = np.hsplit(rows, 2)
        self._polys = None

    def __len__(self):
        return len(self.index_order)

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
    weight = _full(field, m + k, field.zero)
    weight[:m] = [pt[var] for pt in points]
    for s, t in enumerate(up):
        if t is not None:
            gather[t], weight[t] = m + s, field.one
    dead = [m + s for s, t in enumerate(up) if t is None]
    return gather, weight, np.array(dead, dtype=np.intp)


def _times_linear(field: Field, row: np.ndarray, variable: tuple, c):
    """The product in row times (v - c), v the variable of _variable."""
    gather, weight, dead = variable
    if row[dead].any():
        raise RuntimeError("a Newton product shifted a live coefficient out "
                           "of the lower set")
    return _mod(field, row[gather] * weight - c * row)


def _products(cover: LineCover, points: list, index_order=()):
    """Each basis element's product before normalization, in cover order,
    as one row: its values at points, then its coefficients over
    index_order."""
    field = cover.field
    inner = 0 if cover.axis == "rows" else 1
    var_in = _variable(field, points, index_order, inner)
    var_out = _variable(field, points, index_order, 1 - inner)
    head = _full(field, len(points) + len(index_order), field.zero)
    head[:len(points)] = field.one
    if index_order:
        head[len(points)] = field.one  # slot 0 is the exponent (0, 0)
    groups = cover.groups
    for gidx, (_, grp) in enumerate(groups):
        if gidx:
            head = _times_linear(field, head, var_out, groups[gidx - 1][0])
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
    index_order = [(pidx, gidx) if axis == "rows" else (gidx, pidx)
                   for gidx, (_, grp) in enumerate(cover.groups)
                   for pidx in range(len(grp))]
    k = len(index_order)
    rows = _full(field, (k, 2 * k), field.zero)
    for r, row in enumerate(_products(cover, cover.flatten(), index_order)):
        rows[r] = row
    rows *= np.array([[field.inv(field.convert(rows[r, r]))]
                      for r in range(k)], dtype=rows.dtype)
    return NewtonBasis(cover, index_order, _mod(field, rows))


def newton_basis_rows(cover: LineCover) -> NewtonBasis:
    """Basis over a row cover, indexed by S_x, listed row-major (inlex)."""
    return _build(cover, "rows")


def newton_basis_cols(cover: LineCover) -> NewtonBasis:
    """Basis over a column cover, indexed by S_y, listed column-major (lex)."""
    return _build(cover, "columns")


def evaluation_matrix(basis: NewtonBasis, all_points, out=None) -> np.ndarray:
    """Rows = basis evaluations at all points, written into out if given.

    all_points must start with the basis points, whose values the basis
    holds (a unitriangular block); the recurrence runs only after them.
    """
    pts = list(all_points)
    n = len(basis)
    if pts[:n] != basis.point_order:
        raise ValueError("point list does not start with the basis points")
    f = basis.field
    if out is None:
        out = _full(f, (n, len(pts)), f.zero)
    out[:, :n] = basis.values
    if len(pts) > n:
        # a product is monic at its own index, so coeffs[r, r] normalizes it
        for r, row in enumerate(_products(basis.cover, pts[n:])):
            out[r, n:] = _mod(f, row * basis.coeffs[r, r])
    return out


def interpolate(basis: NewtonBasis, values) -> Polynomial:
    """The unique combination of the basis matching the values on its points.

    Forward substitution against the triangular evaluation rows.
    """
    f = basis.field
    resid = np.array([f.convert(v) for v in values], dtype=basis.values.dtype)
    if len(resid) != len(basis):
        raise ValueError(f"expected {len(basis)} values, got {len(resid)}")
    total = _full(f, len(basis), f.zero)
    for k in range(len(basis)):
        if c := resid[k]:
            resid = _mod(f, resid - c * basis.values[k])
            total = _mod(f, total + c * basis.coeffs[k])
    return Polynomial(f, {e: c for e, c in zip(basis.index_order,
                                               total.tolist()) if c})
