"""Newton bases: construction goldens, triangularity, interpolation."""

import random
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmpoints.fields import make_field
from bmpoints.newton import (evaluation_matrix, interpolate,
                             newton_basis_cols, newton_basis_rows)
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import PointSet, line_cover
from bmpoints.poly import Polynomial, poly_text
from bmpoints.randgen import gen_points
from conftest import (EX1_N, EX1_POINTS, EX1_Q_TEXT, EX1_U, EX2_POINTS,
                      EX5_MCS_ORDER, EX5_SEED_N, EX5_SEED_Q_TEXT, F5, F7, QQ,
                      reference_newton, reference_value, values)

F23 = make_field("q:23")
BIG = make_field("q:2147483647")
BUILDS = ((newton_basis_rows, "rows"), (newton_basis_cols, "columns"))


def _point_sets(field):
    """Seeded sets with several points per line: random points of F_23^2,
    and subsets of grids of large or fractional coordinates."""
    if field is F23:
        return [gen_points(F23, n, seed) for n, seed in
                ((1, 1), (9, 2), (40, 3), (120, 4))]
    pool = ([0, 1, 2**30, 123456789, BIG.p - 2, BIG.p - 1] if field is BIG
            else [0, 1, -1, Fr(5, 2), Fr(-7, 3), Fr(1, 9)])
    rng = random.Random(7)
    grid = [(x, y) for x in pool for y in pool]
    return [PointSet(field, rng.sample(grid, n)) for n in (1, 7, 20, 36)]


FIELDS = pytest.mark.parametrize("field", [F23, BIG, QQ],
                                 ids=["p=23", "p=2^31-1", "rational"])


def _values(B) -> np.ndarray:
    """An evaluation matrix as field values: over Q each integer row is
    divided by its entry at its own point; over F_p it holds the values."""
    if B.dtype != object:
        return B
    return np.frompyfunc(Fr, 2, 1)(B, B.diagonal()[:, None])


def test_cols_basis_first_example():
    cover = line_cover(PointSet(QQ, EX1_POINTS), "columns")
    basis = newton_basis_cols(cover)
    assert [poly_text(p, INLEX) for p in basis.polys] == EX1_Q_TEXT
    assert basis.index_order == EX1_N
    assert basis.point_order == EX1_U


def test_rows_basis_f7_subset():
    cover = line_cover(PointSet(F7, EX5_MCS_ORDER), "rows")
    basis = newton_basis_rows(cover)
    assert [poly_text(p, TDINLEX) for p in basis.polys] == EX5_SEED_Q_TEXT
    assert basis.index_order == EX5_SEED_N
    assert basis.point_order == EX5_MCS_ORDER


def test_single_point_basis():
    for build, axis in ((newton_basis_rows, "rows"),
                        (newton_basis_cols, "columns")):
        cover = line_cover(PointSet(F7, [(3, 5)]), axis)
        basis = build(cover)
        assert [poly_text(p, LEX) for p in basis.polys] == ["1"]


def test_second_example_row_normalizer():
    cover = line_cover(PointSet(QQ, EX2_POINTS), "rows")
    basis = newton_basis_rows(cover)
    k = basis.index_order.index((1, 0))
    assert basis.polys[k] == Polynomial(QQ, {(1, 0): Fr(2, 5)})


def test_grid_cols_basis():
    grid = PointSet(QQ, [(0, 0), (0, 1), (1, 0), (1, 1)])
    basis = newton_basis_cols(line_cover(grid, "columns"))
    assert [poly_text(p, LEX) for p in basis.polys] == ["1", "y", "x", "xy"]


def test_evaluation_matrix_goldens():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    B = _values(evaluation_matrix(basis, basis.point_order))
    assert B[0][:3].tolist() == [1, 1, 1]
    assert B[1][:3].tolist() == [0, 1, Fr(3, 2)]
    assert B[2][:3].tolist() == [0, 0, 1]
    assert len(B) == 9

    sub = PointSet(F7, EX5_MCS_ORDER)
    basis5 = newton_basis_rows(line_cover(sub, "rows"))
    B5 = evaluation_matrix(basis5, basis5.point_order)
    assert B5[0][:3].tolist() == [1, 1, 1]
    assert B5[1][:3].tolist() == [0, 1, 2]
    assert B5[2][:3].tolist() == [0, 0, 1]

    single = PointSet(F7, [(2, 2)])
    bs = newton_basis_rows(line_cover(single, "rows"))
    single_rows = evaluation_matrix(bs, bs.point_order)
    assert single_rows[:, :1].tolist() == [[1]]
    assert single_rows[:, 1:].tolist() == bs.coeffs.tolist() == [[1]]


@FIELDS
def test_recurrence_matches_reference(field):
    for ps in _point_sets(field):
        for build, axis in BUILDS:
            cover = line_cover(ps, axis)
            basis = build(cover)
            ref = reference_newton(cover)
            assert len(basis) == len(ref) == len(ps)
            for r, want in enumerate(ref):
                got = dict(zip(basis.index_order, basis.coeffs[r].tolist()))
                assert {e: c for e, c in got.items() if c} == want.terms
                assert basis.polys[r] == want
                assert basis.values[r].tolist() == [
                    reference_value(want, pt) for pt in basis.point_order]


@FIELDS
def test_evaluation_matrix_beyond_basis(field):
    for ps in _point_sets(field):
        half = len(ps) // 2
        if half == 0:
            continue
        for build, axis in BUILDS:
            basis = build(line_cover(PointSet(field, ps[:half]), axis))
            points = basis.point_order + ps.points[half:]
            raw = evaluation_matrix(basis, points)
            # integer rows over Q, each over a positive diagonal entry
            assert all(raw[r, r] > 0 for r in range(half))
            if field is QQ:
                assert all(type(c) is int for c in raw.flat)
            B = _values(raw)
            assert B.shape == (half, len(ps) + half)
            assert B[:, :half].tolist() == basis.values.tolist()
            assert B[:, half:len(ps)].tolist() == values(
                field, basis.polys, points[half:])
            # then the coefficients, over the same entry at point r
            assert B[:, len(ps):].tolist() == basis.coeffs.tolist()


def test_evaluation_matrix_checks_prefix():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    shuffled = list(reversed(basis.point_order))
    with pytest.raises(ValueError):
        evaluation_matrix(basis, shuffled)


def test_unitriangular_square():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    B = _values(evaluation_matrix(basis, basis.point_order))
    n = len(basis)
    for k in range(n):
        assert B[k][k] == 1
        assert all(B[k][m] == 0 for m in range(k))


def test_interpolate_goldens():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    y4 = Polynomial(QQ, {(0, 4): QQ.one})
    # reproducing a basis polynomial and the zero function
    q3_vals, y4_vals = values(QQ, [basis.polys[3], y4],
                              basis.point_order)
    assert interpolate(basis, q3_vals) == basis.polys[3]
    assert interpolate(basis, [QQ.zero] * 9).is_zero()
    # the minimal interpolant of y^4 data drops to degree 3
    p = interpolate(basis, y4_vals)
    expected = Polynomial.from_pairs(QQ, [
        ((0, 3), 9), ((0, 2), -26), ((2, 1), Fr(9, 2)), ((1, 1), Fr(-15, 2)),
        ((0, 1), 27), ((3, 0), 3), ((2, 0), Fr(-39, 2)), ((1, 0), Fr(51, 2)),
        ((0, 0), -9)])
    assert p == expected
    p_vals, y4_vals = values(QQ, [p, y4], basis.point_order)
    assert p_vals == y4_vals


def test_interpolate_length_mismatch():
    basis = newton_basis_rows(line_cover(PointSet(F7, [(0, 0)]), "rows"))
    with pytest.raises(ValueError):
        interpolate(basis, [1, 2])


points_sets = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      min_size=1, max_size=10)


@given(pts=points_sets)
def test_triangularity_random(pts):
    ps = PointSet(F5, sorted(pts))
    for build, axis in ((newton_basis_rows, "rows"),
                        (newton_basis_cols, "columns")):
        basis = build(line_cover(ps, axis))
        vals = values(F5, basis.polys, basis.point_order)
        for k in range(len(basis)):
            for m in range(k + 1):
                want = F5.one if m == k else F5.zero
                assert vals[k][m] == want


@given(pts=points_sets)
def test_support_inside_lower_set(pts):
    ps = PointSet(F5, sorted(pts))
    for build, axis in ((newton_basis_rows, "rows"),
                        (newton_basis_cols, "columns")):
        basis = build(line_cover(ps, axis))
        allowed = set(basis.index_order)
        for poly in basis.polys:
            assert set(poly.terms) <= allowed
            assert all(c != F5.zero for c in poly.terms.values())


@given(pts=points_sets, data=st.data())
@settings(max_examples=40)
def test_monomial_degree_reduction(pts, data):
    ps = PointSet(F5, sorted(pts))
    e = data.draw(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    mono = Polynomial(F5, {e: F5.one})
    for build, axis, order in ((newton_basis_rows, "rows", LEX),
                               (newton_basis_cols, "columns", INLEX)):
        basis = build(line_cover(ps, axis))
        [vals] = values(F5, [mono], basis.point_order)
        p = interpolate(basis, vals)
        if not p.is_zero():
            assert order.cmp(p.leading_monomial(order), e) != 1


@given(pts=points_sets, data=st.data())
@settings(max_examples=40)
def test_interpolate_reproduces_values(pts, data):
    ps = PointSet(F5, sorted(pts))
    vals = [data.draw(st.integers(0, 4)) for _ in ps]
    for build, axis in ((newton_basis_rows, "rows"),
                        (newton_basis_cols, "columns")):
        basis = build(line_cover(ps, axis))
        by_point = dict(zip(ps.points, vals))
        p = interpolate(basis, [by_point[pt] for pt in basis.point_order])
        [got] = values(F5, [p], ps.points)
        assert got == [by_point[pt] for pt in ps]
