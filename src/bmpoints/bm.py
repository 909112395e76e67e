"""Staircase construction for vanishing ideals of finite planar point sets.

Computes the reduced Groebner basis G, the monomial escalier N, and the
slot-aligned degree-reducing Newton interpolation basis Q.  The three
variants differ only in the line cover they hand to one run, _run: bm_run
hands none and starts from an empty staircase; spbm_run (lex/inlex) hands
the cover of all points, leaving only the Groebner elements to discover;
gpbm_run (any order) hands the row cover of a maximal cartesian subset and
lets the loop finish the remaining points.

A cover seeds the run through one path for either field: the engine loads
newton.evaluation_matrix of the cover's basis at the run points, the Newton
rows of values and coefficients built by one recurrence in the run points'
own integer coordinates.  The basis index order is the slot order, so the
seeded slots are exactly the cover's lower set.

A result holds G and Q as coefficient matrices (poly.PolyMatrix) over the
slots of N, taken from the engine's coefficient half without a per-term
pass: Q is the stored rows' half, each G element its residual's half plus
its leading monomial.  The Polynomial lists G and Q are views built from
them on first use.  The loop reduces up to LOOKAHEAD candidates at once,
guessed by a walk simulated with the loop's own step, _advance; _run says
why a wrong guess changes no output.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cartesian import max_cartesian_subset
from .engine import BLOCK, PrimeEngine, RationalEngine
from .fields import Field
from .newton import evaluation_matrix, newton_basis_cols, newton_basis_rows
from .orders import TermOrder, exp_divides
from .points import EmptySetError, LineCover, PointSet, is_lower, line_cover
from .poly import PolyMatrix

# candidates per reduction, the first of a simulated walk
LOOKAHEAD = BLOCK

# spbm's cover axis by order: lex pairs with a row cover (monomials grouped
# by y-degree), inlex with a column cover; other orders are unsupported
SPBM_AXIS = {"lex": "rows", "inlex": "columns"}


class NotLowerSetError(ValueError):
    """Raised when an exponent collection expected to be a lower set is not."""


class UnsupportedOrderError(ValueError):
    """Raised when an algorithm variant does not support the requested order."""


@dataclass(eq=False)
class BMResult:
    """Output bundle of one run.

    G is monic and ascending by leading monomial; N lists the escalier in
    slot (discovery) order; Q[k] has leading monomial N[k] and value 1 at
    the k-th pivot point; point_permutation[k] is the input index of that
    pivot point.  G_dense has the exponents N followed by G's leading
    monomials, row k holding G[k]'s tail and a one at its own leading
    monomial; Q_dense has the exponents N.  G and Q are their rows as
    Polynomials, for library users and tests; compute never reads them.
    """

    field: Field
    order: TermOrder
    algorithm: str
    points: PointSet
    run_points: list
    N: list
    G_dense: PolyMatrix
    Q_dense: PolyMatrix
    point_permutation: list
    seeded_count: int
    processed: int

    @cached_property
    def G(self) -> list:
        return self.G_dense.polys()

    @cached_property
    def Q(self) -> list:
        return self.Q_dense.polys()


def border(exponents, order: TermOrder) -> list:
    """x- and y-shifts of a lower set minus the set, ascending under order."""
    exps = set(exponents)
    if not is_lower(exps):
        raise NotLowerSetError("border requires a lower set")
    out = {(i + 1, j) for i, j in exps} | {(i, j + 1) for i, j in exps}
    return order.sorted(out - exps)


def _advance(t, joins, N, L, queued, key) -> None:
    """One walk step on t, just popped from L.  If t joins the staircase N
    (a dict used as an ordered set), insert into L the shifts of t that no
    pending candidate or basis element divides: a proper divisor of the
    x-shift (i + 1, j) divides t, in N, or (i + 1, j - 1), so it has one
    exactly when (i + 1, j - 1) is outside N or the shift is already queued
    (queued keeps every candidate ever queued); the y-shift is the mirror.
    Otherwise t is a basis element and its multiples leave L."""
    if not joins:
        L[:] = [u for u in L if not exp_divides(t, u)]
        return
    N[t] = None
    i, j = t
    for cand, other in (((i + 1, j), (i + 1, j - 1)),
                        ((i, j + 1), (i - 1, j + 1))):
        if (min(other) < 0 or other in N) and cand not in queued:
            queued.add(cand)
            insort(L, cand, key=key)


def _lookahead(L, N, queued, free: int, key) -> tuple:
    """(batch, walked): the first LOOKAHEAD candidates of a walk simulated
    on copies of L, N and queued, and those copies after it.  The first
    `free` members join N, the rest are basis elements."""
    L, N, queued, batch = list(L), dict(N), set(queued), []
    while L and len(batch) < LOOKAHEAD:
        t = L.pop(0)
        batch.append(t)
        _advance(t, len(batch) <= free, N, L, queued, key)
    return batch, (L, N, queued)


def _run(ps: PointSet, order: TermOrder, algorithm: str,
         cover: LineCover | None = None, removed=()) -> BMResult:
    """Seed from the cover, if any, then process candidates ascending.

    The run points are the cover's points in cover order followed by
    `removed`, or the input points when there is no cover.  Seeding loads
    the cover's Newton rows at the run points (newton.evaluation_matrix):
    row k holds the values of basis element k at the run points (zero
    before run point k), then its coefficients over the slots, which are
    the basis index order, all over its entry at run point k (one over F_p,
    a positive integer over Q); the engine zero-pads the rows to its width.
    The border of that lower set starts the candidate list.

    The loop stacks the next candidates of a guessed walk (_lookahead: each
    joins N while rows are free, then each is a basis element), reduces
    them at once and processes them in walk order: a zero residual yields a
    basis element, and a fresh pivot stores a row, which reduces the
    vectors after it.  A batch whose guesses all hold adopts the simulated
    walk; from a miss on, _advance walks for real.  Each residual is the
    unique one zero at every pivot, so a wrong guess wastes a reduction,
    never changes an output.  Every processed candidate joins N or G, so
    processed counts the unseeded slots and the basis elements.  L is kept
    sorted and every shift ranks above its candidate, so candidates leave
    L ascending: G is stacked as found, ascending by leading monomial.
    """
    field = ps.field
    run_points = (list(ps.points) if cover is None
                  else cover.flatten() + list(removed))
    eng = (PrimeEngine if field.char else RationalEngine)(field, run_points)
    N, L = {}, [(0, 0)]
    if cover is not None:
        basis = (newton_basis_rows(cover) if cover.axis == "rows"
                 else newton_basis_cols(cover))
        eng.bulk_load(evaluation_matrix(basis, run_points))
        N = dict.fromkeys(basis.index_order)
        L = border(N, order)
    seeded, queued = len(N), set(N) | set(L)
    g_lts, g_tails = [], []

    def take(k) -> bool:
        """Process batch[k] by its residual; True if it joins N."""
        piv = eng.pivot_of(V[k])
        if piv is None:
            g_lts.append(batch[k])
            g_tails.append(eng.tail_terms(V[k]))
        else:
            eng.append_row(V[k], piv, V[k + 1:])
        return piv is not None
    while L:
        free = eng.mu - eng.nrows
        batch, walked = _lookahead(L, N, queued, free, order.key)
        V = eng.new_vectors([eng.monomial_vector(t) for t in batch])
        eng.reduce_into(V)
        held = 0
        while held < len(batch) and take(held) == (held < free):
            held += 1
        if held == len(batch):
            L, N, queued = walked
            continue
        # batch[held] broke its guess: take the real steps up to it
        for k, t in enumerate(batch[:held + 1]):
            del L[0]
            _advance(t, (k < free) != (k == held), N, L, queued, order.key)
        at = {t: k for k, t in enumerate(batch)}
        while L and L[0] in at:
            t = L.pop(0)
            _advance(t, take(at[t]), N, L, queued, order.key)
    N = list(N)
    # each row of G: its tail over N, its denominator at its leading monomial
    mu, g = len(N), len(g_lts)
    G = np.zeros((g, mu + g), dtype=np.int64 if field.char else object)
    dens = np.ones(g, dtype=G.dtype)
    for k, tail in enumerate(g_tails):
        G[k, :mu], dens[k] = tail
    G[range(g), range(mu, mu + g)] = dens
    imap = ps.index_map()
    return BMResult(field=field, order=order, algorithm=algorithm,
                    points=ps, run_points=run_points, N=N,
                    G_dense=PolyMatrix(field, N + g_lts, G,
                                       None if field.char else dens),
                    Q_dense=PolyMatrix(field, N, *eng.coeff_terms()),
                    point_permutation=[imap[run_points[p]]
                                       for p in eng.pivot_indices()],
                    seeded_count=seeded, processed=mu - seeded + g)


def bm_run(ps: PointSet, order: TermOrder) -> BMResult:
    """Full elimination from an empty staircase."""
    if len(ps) == 0:
        raise EmptySetError("no points")
    return _run(ps, order, "bm")


def spbm_run(ps: PointSet, order: TermOrder) -> BMResult:
    """Seeded run covering all points with lines before the loop starts,
    along the axis SPBM_AXIS gives for the order."""
    if len(ps) == 0:
        raise EmptySetError("no points")
    if order.name not in SPBM_AXIS:
        raise UnsupportedOrderError(
            f"spbm supports {' and '.join(SPBM_AXIS)}, not {order.name}")
    return _run(ps, order, "spbm", line_cover(ps, SPBM_AXIS[order.name]))


def gpbm_run(ps: PointSet, order: TermOrder) -> BMResult:
    """Seeded run preloading a maximal cartesian subset, then finishing
    the remaining points with the plain loop.  Works under any order.

    The run points are the subset in row-cover order followed by the
    removed points in input order; an empty set is an EmptySetError."""
    cover, removed = max_cartesian_subset(ps)
    return _run(ps, order, "gpbm", cover, removed)
