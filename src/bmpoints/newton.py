"""Newton interpolation bases over line covers and their evaluation matrices.

For a row cover with points u_ij (i-th point on row j, rows ordered by the
cover) the basis element indexed by (i, j) is

    phi_ij = c * prod_{t<j} (y - y_0t) * prod_{s<i} (x - x_sj)

with c normalizing phi_ij(u_ij) to 1; evaluations against the cover-ordered
points form an upper unitriangular matrix.  The column-cover construction
mirrors this with the roles of x and y swapped.  The basis is indexed by
the cover's lower set as points.lower_set_of lists it: phi_ij is the r-th
row exactly when (i, j) is the r-th exponent of that list.

evaluation_matrix is the one builder of Newton rows, at any points that
start with the basis points.  One recurrence, the one for Newton
interpolation on lower sets (Gasca and Sauer, Adv. Comput. Math. 12, 2000),
builds every product one linear factor at a time, as a row of values at the
points followed by a row of coefficients over the index order.  A factor
(v - c) multiplies the values point by point and maps the coefficients to
their shift by one in v minus c times themselves.  Over F_p rows are int64
arrays reduced mod p, each divided by its value at its own point.  Over Q
the points are first scaled to integers, X = B x and Y = C y with B and C
the lcms of their x- and y-denominators, so every product is a row of
Python integers; coefficient column (i, j) is multiplied by B^i C^j, and
each row is signed so that its entry at its own point is positive.
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .points import (EmptySetError, LineCover, coordinate_scale,
                     lower_set_of, scale_points)


def _zeros(field: Field, shape) -> np.ndarray:
    """int64 zeros over F_p, Python integer zeros over Q."""
    return np.zeros(shape, dtype=np.int64 if field.char else object)


def _mod(field: Field, a: np.ndarray) -> np.ndarray:
    """a reduced mod p in place over F_p, a itself over Q."""
    if field.char:
        a %= field.char
    return a


class NewtonBasis:
    """A Newton basis over a line cover: element r has index_order[r] and
    is normalized at point_order[r].  evaluation_matrix builds its rows."""

    def __init__(self, cover: LineCover, index_order: list):
        self.field = cover.field
        self.cover = cover
        self.index_order = index_order
        self.point_order = cover.flatten()

    def __len__(self):
        return len(self.index_order)


def _variable(field: Field, points: list, index_order: list,
              var: int) -> tuple:
    """Multiplication by variable var (0 for x, 1 for y) on a row of values
    at points followed by coefficients over index_order: the row maps to
    row[gather] * weight.  A coefficient whose exponent times the variable
    has no slot is dropped; over a cover whose line sizes descend, no
    product has one."""
    m = len(points)
    col = {e: m + s for s, e in enumerate(index_order)}
    gather = np.arange(m + len(index_order))
    weight = _zeros(field, len(gather))
    weight[:m] = [pt[var] for pt in points]
    for s, (i, j) in enumerate(index_order):
        t = col.get((i + 1, j) if var == 0 else (i, j + 1))
        if t is not None:
            gather[t], weight[t] = m + s, 1
    return gather, weight


def _times_linear(field: Field, row: np.ndarray, variable: tuple, c):
    """The product in row times (v - c), v the variable of _variable."""
    gather, weight = variable
    return _mod(field, row[gather] * weight - c * row)


def _products(basis: NewtonBasis, points: list) -> np.ndarray:
    """Each basis element's product before normalization, in cover order,
    as one row: its values at points, then its coefficients over
    basis.index_order.  points are integer points that start with the
    basis points."""
    field = basis.field
    inner = 0 if basis.cover.axis == "rows" else 1
    var_in = _variable(field, points, basis.index_order, inner)
    var_out = _variable(field, points, basis.index_order, 1 - inner)
    m, k = len(points), len(basis)
    rows = _zeros(field, (k, m + k))
    head = _zeros(field, m + k)
    head[:m + 1] = 1  # column m is the slot of the exponent (0, 0)
    first = 0
    for size in basis.cover.sizes():
        if first:
            head = _times_linear(field, head, var_out,
                                 points[prev][1 - inner])
        cur = head
        for r in range(first, first + size):
            if r > first:
                cur = _times_linear(field, cur, var_in, points[r - 1][inner])
            rows[r] = cur
        prev, first = first, first + size
    return rows


def _build(cover: LineCover, axis: str) -> NewtonBasis:
    if cover.axis != axis:
        raise ValueError(f"expected a {axis} cover, got {cover.axis}")
    if not cover.groups:
        raise EmptySetError("empty cover")
    sizes = cover.sizes()
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise RuntimeError("the cover's line sizes grow, so its products "
                           "leave its lower set")
    return NewtonBasis(cover, lower_set_of(cover))


def newton_basis_rows(cover: LineCover) -> NewtonBasis:
    """Basis over a row cover, indexed by S_x, listed row-major (inlex)."""
    return _build(cover, "rows")


def newton_basis_cols(cover: LineCover) -> NewtonBasis:
    """Basis over a column cover, indexed by S_y, listed column-major (lex)."""
    return _build(cover, "columns")


def evaluation_matrix(basis: NewtonBasis, points) -> np.ndarray:
    """The basis's Newton rows at points, which must start with the basis
    points: row r holds element r's values at points, then its coefficients
    over index_order, all over its entry at point r.  Over F_p that entry
    is one; over Q the rows are integers and it is positive.  The first
    len(basis) columns are an upper triangular block."""
    pts = list(points)
    k = len(basis)
    if pts[:k] != basis.point_order:
        raise ValueError("point list does not start with the basis points")
    field = basis.field
    scale = coordinate_scale(pts)
    rows = _products(basis, scale_points(pts, scale))
    diag = rows.diagonal()
    if field.char:
        rows *= np.array([[field.inv(int(d))] for d in diag], dtype=np.int64)
        return _mod(field, rows)
    b, c = scale
    rows[:, len(pts):] *= np.array([b**i * c**j for i, j in basis.index_order],
                                   dtype=object)
    rows *= np.array([[1 if d > 0 else -1] for d in diag], dtype=object)
    return rows
