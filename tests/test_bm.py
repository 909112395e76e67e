"""BM runs: golden outputs, algorithm agreement, structural invariants."""

import random
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from bmpoints.bm import (LOOKAHEAD, SPBM_AXIS, NotLowerSetError,
                         UnsupportedOrderError, bm_run, border, gpbm_run,
                         spbm_run)
from bmpoints.cartesian import max_cartesian_subset
from bmpoints.engine import PrimeEngine, RationalEngine
from bmpoints.fields import make_field
from bmpoints.newton import (evaluation_matrix, newton_basis_cols,
                             newton_basis_rows)
from bmpoints.orders import INLEX, LEX, TDINLEX, exp_divides
from bmpoints.points import (EmptySetError, LineCover, PointSet, line_cover,
                             lower_set_of)
from bmpoints.poly import poly_text
from bmpoints.randgen import gen_points
from bmpoints.verify import verify_result
from conftest import (EX1_BORDER, EX1_G_TEXT, EX1_N, EX1_Q_TEXT, EX1_U,
                      EX2_G_TEXT, EX2_N, EX5_G_LTS, EX5_G_Y6, EX5_MCS_ORDER,
                      EX5_N_SET, EX5_SEED_N, F5, F7, F17, QQ, values)

ALL_ORDERS = (LEX, INLEX, TDINLEX)
BIG = make_field("q:2147483647")


def test_advance_rejects_coefficient_without_slot():
    # rows of sizes 1 then 2 index no lower set: the product (y - 1) * x
    # moves the live constant coefficient to (1, 0), which has no slot
    cover = LineCover("rows", [(1, [(0, 1)]), (2, [(0, 2), (1, 2)])], F7)
    with pytest.raises(RuntimeError):
        newton_basis_rows(cover)


def test_border_goldens():
    assert border(EX1_N, INLEX) == [(4, 0), (3, 1), (1, 2), (2, 2), (1, 3),
                                    (0, 4)]
    assert set(border(EX1_N, INLEX)) == EX1_BORDER
    # same lower-set shape, same border
    assert set(border(EX5_SEED_N, TDINLEX)) == EX1_BORDER
    assert border([(0, 0)], LEX) == [(0, 1), (1, 0)]
    with pytest.raises(NotLowerSetError):
        border([(1, 0)], LEX)


def test_first_example_golden(ex1):
    res = spbm_run(ex1, INLEX)
    assert res.algorithm == "spbm" and res.seeded_count == 9
    assert res.N == EX1_N
    assert res.run_points == EX1_U
    assert [poly_text(q, INLEX) for q in res.Q] == EX1_Q_TEXT
    assert [poly_text(g, INLEX) for g in res.G] == EX1_G_TEXT
    assert res.point_permutation == [2, 3, 4, 5, 0, 1, 6, 7, 8]


def test_second_example_golden(ex2):
    res = spbm_run(ex2, LEX)
    assert res.N == EX2_N
    assert [poly_text(g, LEX) for g in res.G] == EX2_G_TEXT
    assert [q.leading_monomial(LEX) for q in res.Q] == res.N
    ordered = [ex2.points[i] for i in res.point_permutation]
    vals = values(QQ, res.Q, ordered)
    for k in range(len(res.Q)):
        for m in range(k + 1):
            want = QQ.one if m == k else QQ.zero
            assert vals[k][m] == want


def test_f7_subset_golden(ex5):
    res = gpbm_run(ex5, TDINLEX)
    assert res.seeded_count == 9
    assert res.run_points[:9] == EX5_MCS_ORDER
    assert res.N[:9] == EX5_SEED_N
    assert len(res.N) == 20 and set(res.N) == EX5_N_SET
    assert {g.leading_monomial(TDINLEX) for g in res.G} == EX5_G_LTS
    by_lt = {g.leading_monomial(TDINLEX): g for g in res.G}
    assert poly_text(by_lt[(0, 6)], TDINLEX) == EX5_G_Y6
    assert res.processed <= 3 * 20 + 1


def test_colinear_points():
    res = bm_run(PointSet(F7, [(0, 0), (1, 0), (2, 0)]), LEX)
    assert res.N == [(0, 0), (1, 0), (2, 0)]
    assert [poly_text(g, LEX) for g in res.G] == ["y", "x^3+4x^2+2x"]


def test_single_point():
    ps = PointSet(F7, [(3, 5)])
    res = bm_run(ps, LEX)
    assert res.N == [(0, 0)]
    assert [poly_text(g, LEX) for g in res.G] == ["y+2", "x+4"]
    assert [poly_text(q, LEX) for q in res.Q] == ["1"]
    alt = gpbm_run(ps, LEX)
    assert alt.G == res.G and alt.N == res.N


def test_grid_lex():
    grid = PointSet(QQ, [(0, 0), (0, 1), (1, 0), (1, 1)])
    res = spbm_run(grid, LEX)
    assert res.N == [(0, 0), (1, 0), (0, 1), (1, 1)]  # row-major seed order
    assert [poly_text(g, LEX) for g in res.G] == ["y^2-y", "x^2-x"]
    alt = gpbm_run(grid, LEX)
    assert alt.G == res.G and alt.N == res.N and alt.seeded_count == 4


def test_empty_and_unsupported():
    empty = PointSet(F7, [])
    for run, order in ((bm_run, LEX), (spbm_run, LEX), (spbm_run, INLEX),
                       (gpbm_run, TDINLEX)):
        with pytest.raises(EmptySetError):
            run(empty, order)
    # emptiness is checked before the order
    with pytest.raises(EmptySetError):
        spbm_run(empty, TDINLEX)
    ps = PointSet(F7, [(0, 0), (1, 2)])
    with pytest.raises(UnsupportedOrderError):
        spbm_run(ps, TDINLEX)


def test_bm_n_ascending_and_q_slots():
    for seed in range(6):
        ps = gen_points(F17, 2 + seed, seed=90 + seed)
        for order in ALL_ORDERS:
            res = bm_run(ps, order)
            assert res.N == order.sorted(res.N)
            assert [q.leading_monomial(order) for q in res.Q] == res.N
            assert res.processed <= 3 * len(ps) + 1


def test_permutation_contract():
    ps = gen_points(F17, 9, seed=7)
    for run, order in ((bm_run, TDINLEX), (gpbm_run, TDINLEX),
                       (spbm_run, LEX), (spbm_run, INLEX)):
        res = run(ps, order)
        perm = res.point_permutation
        assert sorted(perm) == list(range(len(ps)))
        ordered = [ps.points[i] for i in perm]
        vals = values(F17, res.Q, ordered)
        for k in range(len(res.Q)):
            for m in range(k + 1):
                want = F17.one if m == k else F17.zero
                assert vals[k][m] == want


@given(seed=st.integers(0, 400), size=st.integers(1, 11))
@settings(max_examples=60, deadline=None)
def test_algorithms_agree(seed, size):
    ps = gen_points(F5, size, seed=seed)
    for order in ALL_ORDERS:
        base = bm_run(ps, order)
        others = [gpbm_run(ps, order)]
        if order in (LEX, INLEX):
            others.append(spbm_run(ps, order))
        for res in others:
            assert res.G == base.G
            assert set(res.N) == set(base.N)
            assert {q.leading_monomial(order) for q in res.Q} == set(res.N)


@given(seed=st.integers(0, 400), size=st.integers(1, 11))
@settings(max_examples=40, deadline=None)
def test_cartesian_subset_monomials_inside_escalier(seed, size):
    ps = gen_points(F5, size, seed=seed)
    cover, _ = max_cartesian_subset(ps)
    sx = set(lower_set_of(cover))
    for order in ALL_ORDERS:
        assert sx <= set(bm_run(ps, order).N)



@pytest.mark.parametrize("field, points", [
    (BIG, [(x, y) for x in range(7) for y in range(7)]),
    (F7, [(x, y) for x in range(7) for y in range(7)]),
    (BIG, [(2**31 - 2, 12345)]),
    (BIG, [(x * 104729, 2**30) for x in range(12)]),
    (BIG, [(2**31 - 2, y * y + 1) for y in range(12)]),
    (BIG, list(gen_points(BIG, 40, seed=8))),
], ids=["grid-7x7", "plane-F7", "single-point", "one-row", "one-column",
        "random-40"])
def test_extreme_sets_agree_and_certify(field, points):
    ps = PointSet(field, points)
    for order in ALL_ORDERS:
        runs = [bm_run(ps, order), gpbm_run(ps, order)]
        if order is not TDINLEX:
            runs.append(spbm_run(ps, order))
        for res in runs:
            assert res.G == runs[0].G, res.algorithm
            assert set(res.N) == set(runs[0].N), res.algorithm
            assert verify_result(res).passed, res.algorithm
    if field is F7 and len(points) == 49:
        # the ideal of the whole plane F_7^2 is (x^7 - x, y^7 - y)
        assert {poly_text(g, LEX) for g in runs[0].G} == {"x^7+6x", "y^7+6y"}


def _one_by_one_run(ps, order, cover=None, removed=()):
    """Reference loop that reduces one candidate at a time: (N, G
    exponents, G coefficients, Q coefficients, point_permutation,
    processed).  Its shift filters scan L and G, independent of the
    loop's own queueing."""
    field = ps.field
    run_points = (list(ps.points) if cover is None
                  else cover.flatten() + list(removed))
    eng = (PrimeEngine if field.char else RationalEngine)(field, run_points)
    N, L = [], [(0, 0)]
    if cover is not None:
        basis = (newton_basis_rows(cover) if cover.axis == "rows"
                 else newton_basis_cols(cover))
        eng.bulk_load(evaluation_matrix(basis, run_points))
        N = list(basis.index_order)
        L = border(N, order)
    processed = 0
    cache, g_lts, g_tails = {}, [], []
    while L:
        t = L.pop(0)
        processed += 1
        V = eng.new_vectors([eng.monomial_vector(t, cache)])
        eng.reduce_into(V)
        v = V[0]
        piv = eng.pivot_of(v)
        if piv is None:
            g_lts.append(t)
            g_tails.append(list(eng.tail_terms(v)))
            L = [u for u in L if not exp_divides(t, u)]
        else:
            eng.append_row(v, len(N), piv, V[1:])
            N.append(t)
            for cand in ((t[0] + 1, t[1]), (t[0], t[1] + 1)):
                if any(exp_divides(u, cand) for u in L):
                    continue
                if any(exp_divides(u, cand) for u in g_lts):
                    continue
                insort(L, cand, key=order.key)
    rank = sorted(range(len(g_lts)), key=lambda k: order.key(g_lts[k]))
    mu = len(N)
    G = [g_tails[r] + [field.one if k == j else 0 for j in range(len(rank))]
         for k, r in enumerate(rank)]
    imap = ps.index_map()
    return (N, N + [g_lts[r] for r in rank], G,
            eng.coeff_terms().tolist(),
            [imap[run_points[p]] for p in eng.pivot_indices()], processed)


def _batch_sizes(monkeypatch) -> list:
    """Record the size of every batch the loop stacks."""
    sizes = []
    for cls in (PrimeEngine, RationalEngine):
        def new_vectors(self, evals, _orig=cls.new_vectors):
            sizes.append(len(evals))
            return _orig(self, evals)
        monkeypatch.setattr(cls, "new_vectors", new_vectors)
    return sizes


def _staircase_plus_loose(field, seed):
    """Rows of 3 and 1 points on shared abscissae, a staircase whose
    border spans degrees 2 and 3, plus 12 points that share no coordinate
    with it or with each other."""
    rng = random.Random(seed)
    xs, ys = rng.sample(range(4, 23), 12), rng.sample(range(3, 23), 12)
    return PointSet(field, [(1, 1), (2, 1), (3, 1), (1, 2)]
                    + list(zip(xs, ys)))


@pytest.mark.parametrize("field, size", [
    (make_field("q:23"), 120), (BIG, 200), (QQ, 24),
], ids=["q23-120", "q2^31-1-200", "rational-24"])
def test_batched_loop_matches_one_by_one(field, size, monkeypatch):
    """Under lex, inlex and tdinlex the batched loop finds the same G, N,
    Q, point_permutation and processed count as a loop that reduces one
    candidate at a time, with batches of more than one candidate, for bm,
    gpbm and spbm, also seeded from a staircase whose border spans two
    degrees.  bm, and every runner on the triangle x + y <= 15, which has
    17 corners, processes more candidates than one batch holds."""
    sizes = _batch_sizes(monkeypatch)
    triangle = PointSet(field, [(x, y) for x in range(16)
                                for y in range(16 - x)])
    sets = [gen_points(field, size, seed=11),
            _staircase_plus_loose(field, seed=12), triangle]
    for ps in sets:
        for order in ALL_ORDERS:
            runs = [bm_run, gpbm_run]
            if order is not TDINLEX:
                runs.append(spbm_run)
            for run in runs:
                res = run(ps, order)
                cover, removed = (
                    (None, ()) if run is bm_run
                    else max_cartesian_subset(ps) if run is gpbm_run
                    else (line_cover(ps, SPBM_AXIS[order.name]), ()))
                want = _one_by_one_run(ps, order, cover, removed)
                got = (res.N, res.G_dense.exps, res.G_dense.coeffs.tolist(),
                       res.Q_dense.coeffs.tolist(), res.point_permutation,
                       res.processed)
                assert got == want, (run.__name__, order.name)
                if run is bm_run or ps is triangle:
                    assert res.processed > LOOKAHEAD, (run.__name__,
                                                       order.name)
    seeded = gpbm_run(sets[1], TDINLEX)
    assert seeded.seeded_count == 4
    assert {sum(e) for e in border(seeded.N[:4], TDINLEX)} == {2, 3}
    assert max(sizes) > 1


@pytest.mark.parametrize("field", [F17, BIG, QQ], ids=["q17", "q2^31-1", "Q"])
@pytest.mark.parametrize("order", [LEX, INLEX], ids=lambda o: o.name)
def test_lookahead_batches(field, order, monkeypatch):
    """No stack holds more than LOOKAHEAD candidates.  spbm stores every
    row before its loop, so its simulated walk guesses every candidate a
    basis element, rightly, and it stacks exactly the candidates it
    processes; bm stacks several candidates per batch under lex too."""
    sizes = _batch_sizes(monkeypatch)
    ps = gen_points(field, 12 if field is QQ else 60, seed=3)
    for run in (bm_run, gpbm_run, spbm_run):
        res = run(ps, order)
        assert max(sizes) <= LOOKAHEAD, run.__name__
        if run is spbm_run:
            assert sum(sizes) == res.processed
        if run is bm_run and order is LEX:
            assert len(sizes) < res.processed
        sizes.clear()
