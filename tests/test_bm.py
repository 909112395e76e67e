"""BM runs: golden outputs, algorithm agreement, structural invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from bmpoints.bm import (NotLowerSetError, UnsupportedOrderError, bm_run,
                         border, gpbm_run, spbm_run)
from bmpoints.cartesian import max_cartesian_subset
from bmpoints.fields import make_field
from bmpoints.newton import newton_basis_rows
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import (EmptySetError, LineCover, PointSet, line_cover,
                             lower_set_of)
from bmpoints.poly import poly_text
from bmpoints.randgen import gen_points
from bmpoints.verify import verify_result
from conftest import (EX1_BORDER, EX1_G_TEXT, EX1_N, EX1_Q_TEXT, EX1_U,
                      EX2_G_TEXT, EX2_N, EX5_G_LTS, EX5_G_Y6, EX5_MCS_ORDER,
                      EX5_N_SET, EX5_SEED_N, F5, F7, F17, QQ)

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
    for k, q in enumerate(res.Q):
        for m in range(k + 1):
            want = QQ.one if m == k else QQ.zero
            assert q.evaluate(ordered[m]) == want


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
    with pytest.raises(EmptySetError):
        bm_run(PointSet(F7, []), LEX)
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
    for run in (bm_run, gpbm_run):
        res = run(ps, TDINLEX)
        perm = res.point_permutation
        assert sorted(perm) == list(range(len(ps)))
        ordered = [ps.points[i] for i in perm]
        for k, q in enumerate(res.Q):
            for m in range(k + 1):
                want = F17.one if m == k else F17.zero
                assert q.evaluate(ordered[m]) == want


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
    sub, _ = max_cartesian_subset(ps)
    sx = set(lower_set_of(line_cover(sub, "rows")).row_major())
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
