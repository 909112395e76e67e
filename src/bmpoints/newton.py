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
their shift in v minus c times themselves.  The slots are the lower set
line by line, so the shift along a line moves every coefficient one slot
up, and the shift across lines moves the slot of each line's start to the
next line's.  Row r lives in its window, columns r..m + r for m points,
and the recurrence touches nothing else: each line's head steps from the
previous head, and then each in-line position takes one stacked step over
the lines long enough to reach it.  Over F_p rows are int64 arrays reduced
mod p, each divided by its value at its own point as it is built.  Over Q
the points are first scaled to integers, X = B x and Y = C y with B and C
the lcms of their x- and y-denominators, so every product is a row of
Python integers; coefficient column (i, j) is multiplied by B^i C^j, and
each row is signed so that its entry at its own point is positive.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .fields import Field
from .points import (EmptySetError, LineCover, coordinate_scale,
                     lower_set_of, scale_points)


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


def _normalize(field: Field, rows: np.ndarray) -> None:
    """Each row of rows, in place, over its entry in column 0: made one
    over F_p (the row is reduced mod p), made positive over Q."""
    first = rows[:, 0].tolist()
    if field.char:
        p = field.char
        if p**3 >= 2**63:  # entries below p^2 + p: keep the product exact
            rows %= p
        rows *= np.array([pow(d, -1, p) for d in first])[:, None]
        rows %= p
    elif min(first) < 0:
        rows[[d < 0 for d in first]] *= -1


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
    field, p, m = basis.field, basis.field.char, len(pts)
    dtype = np.int64 if p else object
    if not p:
        scale = coordinate_scale(pts)
        pts = scale_points(pts, scale)
    # each coordinate at the points, then zero at the coefficient columns,
    # so that a factor (v - c) scales every coefficient by -c
    inner = 0 if basis.cover.axis == "rows" else 1
    sizes = basis.cover.sizes()
    starts = [0, *accumulate(sizes[:-1])]
    vin, vout = (np.array([pt[var] for pt in pts] + [0] * (k + sizes[0]),
                          dtype=dtype) for var in (inner, 1 - inner))
    # row r is zero outside columns r..m + r, its values from point r on
    # and its coefficients up to slot r: win[r, t] views row r at column
    # r + t, where a factor along a line maps every row alike
    buf = np.zeros(k * (m + k + 1), dtype=dtype)
    rows = buf[:k * (m + k)].reshape(k, m + k)
    win = buf.reshape(k, m + k + 1)[:, :m + 1]
    # line j's head is line j - 1's times (v_out - c), c the coordinate of
    # line j - 1.  A head's coefficients lie at the slots of the line
    # starts; the steps keep the coefficient of start u in column m + u,
    # where v_out shifts them by one column, and then move them to their
    # slots.
    rows[0, :m + 1] = 1
    for j in range(1, len(sizes)):
        a, b = starts[j - 1], starts[j]
        rows[b, b:m + j + 1] = rows[a, b:m + j + 1] * (vout[b:m + j + 1]
                                                       - vout[a])
        rows[b, m + 1:m + j + 1] += rows[a, m:m + j]
        _normalize(field, rows[b:b + 1, b:m + j + 1])
    first = np.array(starts)
    if sizes[0] > 1:  # else every line start is its own slot
        heads = rows[starts, m:m + len(sizes)]
        rows[starts, m:m + len(sizes)] = 0
        rows[first[:, None], m + first] = heads
    # element i of a line is element i - 1 times (v_in - c), c the inner
    # coordinate of point i - 1; sizes descend, so the lines that reach i
    # are a prefix and step together.  In the window the values shift one
    # column, and so does the coefficient of each slot s, added at slot
    # s + 1 (its shift by v_in) while slot s keeps it times -c.  span
    # holds the columns from each line's start on, so position i of a
    # line finds v_in over its window in ins[:, i:i + m], and in
    # coef[:, i:i + m + 1] the columns past slot 0, where the shifted
    # coefficients land.
    first = first[:sum(size > 1 for size in sizes)]
    span = first[:, None] + np.arange(m + sizes[0])
    ins, coef = vin[span], span > m
    for i in range(1, sizes[0]):
        lines = sum(size > i for size in sizes)
        r = first[:lines] + i
        old = win[r - 1]
        new = np.where(coef[:lines, i:i + m + 1], old, 0)
        new[:, :m] += old[:, 1:] * (ins[:lines, i:i + m]
                                    - ins[:lines, i - 1:i])
        _normalize(field, new)
        win[r] = new
    if not p:
        b, c = scale
        rows[:, m:] *= np.array([b**i * c**j for i, j in basis.index_order],
                                dtype=object)
    return rows
