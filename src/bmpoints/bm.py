"""Staircase construction for vanishing ideals of finite planar point sets.

Computes the reduced Groebner basis G, the monomial escalier N, and the
slot-aligned degree-reducing Newton interpolation basis Q.  Three entry
points share one elimination loop: bm_run starts from an empty staircase;
spbm_run (lex/inlex) preloads every point through a line cover and its
Newton basis, leaving only the Groebner elements to discover; gpbm_run
(any order) preloads a maximal cartesian subset and lets the loop finish.

Both seeded runs, over either field, preload through one path: the newton
module builds the cover's basis as rows of values and coefficients, and
evaluation_matrix extends the values to the run points.  The basis index
order is the slot order, so the seeded slots are exactly the cover's lower
set.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .cartesian import max_cartesian_subset, order_points_gpbm
from .engine import engine_for
from .fields import Field
from .newton import evaluation_matrix, newton_basis_cols, newton_basis_rows
from .orders import TermOrder, exp_divides
from .points import EmptySetError, LineCover, PointSet, is_lower, line_cover
from .poly import Polynomial


class NotLowerSetError(ValueError):
    """Raised when an exponent collection expected to be a lower set is not."""


class UnsupportedOrderError(ValueError):
    """Raised when an algorithm variant does not support the requested order."""


@dataclass
class BMResult:
    """Output bundle of one run.

    G is monic and ascending by leading monomial; N lists the escalier in
    slot (discovery) order; Q[k] has leading monomial N[k] and value 1 at
    the k-th pivot point; point_permutation[k] is the input index of that
    pivot point.
    """

    field: Field
    order: TermOrder
    algorithm: str
    points: PointSet
    run_points: list
    G: list
    N: list
    Q: list
    point_permutation: list
    seeded_count: int
    processed: int


def border(exponents, order: TermOrder) -> list:
    """x- and y-shifts of a lower set minus the set, ascending under order."""
    exps = set(exponents)
    if not is_lower(exps):
        raise NotLowerSetError("border requires a lower set")
    out = {(i + 1, j) for i, j in exps} | {(i, j + 1) for i, j in exps}
    return order.sorted(out - exps)


class BMState:
    """Mutable loop state shared by the plain and seeded runners."""

    __slots__ = ("field", "order", "input_points", "run_points",
                 "input_indices", "engine", "cache", "N", "L",
                 "g_lts", "g_polys", "seeded", "processed")


def _new_state(ps: PointSet, order: TermOrder, run_points: list) -> BMState:
    st = BMState()
    st.field = ps.field
    st.order = order
    st.input_points = ps
    st.run_points = run_points
    imap = ps.index_map()
    st.input_indices = [imap[p] for p in run_points]
    st.engine = engine_for(ps.field, run_points)
    st.cache = {}
    st.N = []
    st.L = [(0, 0)]
    st.g_lts = []
    st.g_polys = []
    st.seeded = 0
    st.processed = 0
    return st


def _loop(st: BMState) -> None:
    """Process candidates ascending: zero residual yields a basis element,
    a fresh pivot extends the staircase and queues the shifted candidates."""
    eng = st.engine
    key = st.order.key
    while st.L:
        t = st.L.pop(0)
        st.processed += 1
        v = eng.new_vector(eng.monomial_vector(t, st.cache))
        eng.reduce_into(v)
        piv = eng.pivot_of(v)
        if piv is None:
            terms = dict(eng.tail_terms(v, st.N))
            terms[t] = st.field.one
            st.g_lts.append(t)
            st.g_polys.append(Polynomial(st.field, terms))
            st.L = [u for u in st.L if not exp_divides(t, u)]
        else:
            slot = len(st.N)
            eng.append_row(v, slot, piv)
            st.N.append(t)
            for cand in ((t[0] + 1, t[1]), (t[0], t[1] + 1)):
                if any(exp_divides(u, cand) for u in st.L):
                    continue
                if any(exp_divides(u, cand) for u in st.g_lts):
                    continue
                insort(st.L, cand, key=key)


def _finish(st: BMState, algorithm: str) -> BMResult:
    eng = st.engine
    Q = [Polynomial(st.field, dict(eng.coeff_terms(r, st.N)))
         for r in range(len(st.N))]
    key = st.order.key
    pairs = sorted(zip(st.g_lts, st.g_polys), key=lambda lg: key(lg[0]))
    return BMResult(field=st.field, order=st.order, algorithm=algorithm,
                    points=st.input_points, run_points=st.run_points,
                    G=[g for _, g in pairs], N=list(st.N), Q=Q,
                    point_permutation=[st.input_indices[p]
                                       for p in eng.pivot_indices()],
                    seeded_count=st.seeded, processed=st.processed)


def bm_run(ps: PointSet, order: TermOrder) -> BMResult:
    """Full elimination from an empty staircase."""
    if len(ps) == 0:
        raise EmptySetError("no points")
    st = _new_state(ps, order, list(ps.points))
    _loop(st)
    return _finish(st, "bm")


def spbm_run(ps: PointSet, order: TermOrder) -> BMResult:
    """Seeded run covering all points with lines before the loop starts.

    lex pairs with a row cover (monomials grouped by y-degree), inlex with
    a column cover; other orders are rejected.
    """
    if len(ps) == 0:
        raise EmptySetError("no points")
    if order.name == "lex":
        axis = "rows"
    elif order.name == "inlex":
        axis = "columns"
    else:
        raise UnsupportedOrderError(
            f"spbm supports lex and inlex, not {order.name}")
    cover = line_cover(ps, axis)
    st = _new_state(ps, order, cover.flatten())
    _seed(st, cover)
    _loop(st)
    return _finish(st, "spbm")


def gpbm_run(ps: PointSet, order: TermOrder) -> BMResult:
    """Seeded run preloading a maximal cartesian subset, then finishing
    the remaining points with the plain loop.  Works under any order."""
    if len(ps) == 0:
        raise EmptySetError("no points")
    subset, _removed = max_cartesian_subset(ps)
    cover = line_cover(subset, "rows")
    st = _new_state(ps, order, order_points_gpbm(ps, subset, cover))
    _seed(st, cover)
    _loop(st)
    return _finish(st, "gpbm")


def _seed(st: BMState, cover: LineCover) -> None:
    """Preload the engine with the Newton rows of a cover and queue the
    border: row k holds the values of basis element k at the run points
    (zero before run point k, one at it), then its coefficients over the
    slots, which are the basis index order."""
    basis = (newton_basis_rows(cover) if cover.axis == "rows"
             else newton_basis_cols(cover))
    eng, k = st.engine, len(basis)
    aug = np.full((k, eng.width), st.field.zero, dtype=basis.coeffs.dtype)
    evaluation_matrix(basis, st.run_points, out=aug[:, :eng.mu])
    aug[:, eng.mu:eng.mu + k] = basis.coeffs
    eng.bulk_load(aug)
    st.N = list(basis.index_order)
    st.seeded = k
    st.L = border(st.N, st.order)
