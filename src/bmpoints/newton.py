"""Newton interpolation bases over line covers and their evaluation matrices.

For a row cover with points u_ij (i-th point on row j, rows ordered by the
cover) the basis element indexed by (i, j) is

    phi_ij = c * prod_{t<j} (y - y_0t) * prod_{s<i} (x - x_sj)

with c normalizing phi_ij(u_ij) to 1; evaluations against the cover-ordered
points form an upper unitriangular matrix.  The column-cover construction
mirrors this with the roles of x and y swapped.
"""

from __future__ import annotations

from .fields import Field
from .points import EmptySetError, LineCover, PointSet
from .poly import Polynomial


class NewtonBasis:
    """Basis polynomials with their index exponents and matching points."""

    __slots__ = ("field", "polys", "index_order", "point_order")

    def __init__(self, field: Field, polys, index_order, point_order):
        self.field = field
        self.polys = polys
        self.index_order = index_order
        self.point_order = point_order

    def __len__(self):
        return len(self.polys)


def _poly_mul_linear(p: Polynomial, var: int, shift) -> Polynomial:
    """p * (x - shift) for var 0, p * (y - shift) for var 1."""
    f = p.field
    terms: dict = {}
    neg = f.neg(shift)
    for (i, j), c in p.terms.items():
        up = (i + 1, j) if var == 0 else (i, j + 1)
        s = f.add(terms.get(up, f.zero), c)
        if s == f.zero:  # an up-shift can cancel an earlier cross term
            terms.pop(up, None)
        else:
            terms[up] = s
        if neg != f.zero:
            s = f.add(terms.get((i, j), f.zero), f.mul(c, neg))
            if s == f.zero:
                terms.pop((i, j), None)
            else:
                terms[(i, j)] = s
    return Polynomial(f, terms)


def _build(cover: LineCover, axis: str) -> NewtonBasis:
    if cover.axis != axis:
        raise ValueError(f"expected a {axis} cover, got {cover.axis}")
    groups = cover.groups
    if not groups:
        raise EmptySetError("empty cover")
    field = cover.field
    inner_var = 0 if axis == "rows" else 1
    outer_var = 1 - inner_var
    polys = []
    index_order = []
    point_order = []
    head = Polynomial.constant(field, 1)  # product over earlier group keys
    for gidx, (gkey, grp) in enumerate(groups):
        cur = head
        for pidx, pt in enumerate(grp):
            c = field.inv(cur.evaluate(pt))
            polys.append(cur.scale(c))
            index_order.append((pidx, gidx) if axis == "rows"
                               else (gidx, pidx))
            point_order.append(pt)
            cur = _poly_mul_linear(cur, inner_var, pt[inner_var])
        if gidx + 1 < len(groups):
            head = _poly_mul_linear(head, outer_var, gkey)
    return NewtonBasis(field, polys, index_order, point_order)


def newton_basis_rows(cover: LineCover) -> NewtonBasis:
    """Basis over a row cover, indexed by S_x, listed row-major (inlex)."""
    return _build(cover, "rows")


def newton_basis_cols(cover: LineCover) -> NewtonBasis:
    """Basis over a column cover, indexed by S_y, listed column-major (lex)."""
    return _build(cover, "columns")


def evaluation_matrix(basis: NewtonBasis, all_points: PointSet) -> list:
    """Rows = basis evaluations at all points; leading block unitriangular."""
    n = len(basis)
    if list(all_points)[:n] != basis.point_order:
        raise ValueError("point list does not start with the basis points")
    return [[p.evaluate(pt) for pt in all_points] for p in basis.polys]


def interpolate(basis: NewtonBasis, values) -> Polynomial:
    """The unique combination of the basis matching the values on its points.

    Forward substitution against the triangular evaluation matrix.
    """
    f = basis.field
    n = len(basis)
    values = [f.convert(v) for v in values]
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    resid = list(values)
    coeffs = []
    for k, p in enumerate(basis.polys):
        c = resid[k]
        coeffs.append(c)
        if c != f.zero:
            for m in range(k + 1, n):
                resid[m] = f.sub(resid[m],
                                 f.mul(c, p.evaluate(basis.point_order[m])))
    out = Polynomial.zero(f)
    for c, p in zip(coeffs, basis.polys):
        if c != f.zero:
            out = out.add(p.scale(c))
    return out
