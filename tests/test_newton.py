"""Newton bases: construction goldens, triangularity, rejected covers."""

import random
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bmpoints.fields import make_field
from bmpoints.newton import (evaluation_matrix, newton_basis_cols,
                             newton_basis_rows)
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.points import EmptySetError, LineCover, PointSet, line_cover
from bmpoints.poly import PolyMatrix, Polynomial, poly_text
from bmpoints.randgen import gen_points
from conftest import (EX1_N, EX1_POINTS, EX1_Q_TEXT, EX1_U, EX2_POINTS,
                      EX5_MCS_ORDER, EX5_SEED_N, EX5_SEED_Q_TEXT, F5, F7, QQ,
                      reference_newton, reference_value, values)

F23 = make_field("q:23")
BIG = make_field("q:2147483647")
BUILDS = ((newton_basis_rows, "rows"), (newton_basis_cols, "columns"))


def _point_sets(field):
    """Seeded sets with several points per line: random points of F_23^2
    and the whole plane (23 lines of 23, shuffled), subsets of grids of
    large or fractional coordinates, 300 uniform points of F_p for
    p = 2^31 - 1 (one per line), and a set whose line sizes tie under
    both axes (3, 3, 2, 2, 1 by rows; 3, 3, 2, 1, 1, 1 by columns)."""
    pool = ([0, 1, 2**30, 123456789, BIG.p - 2, BIG.p - 1, 7] if field is BIG
            else [0, 1, -1, Fr(5, 2), Fr(-7, 3), Fr(1, 9), Fr(3, 4)]
            if field is QQ else list(range(7)))
    tied = PointSet(field, [(pool[x], pool[y]) for x, y in [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2),
        (5, 3), (6, 3), (3, 4)]])
    if field is F23:
        return [gen_points(F23, n, seed) for n, seed in
                ((1, 1), (9, 2), (40, 3), (120, 4), (23 * 23, 5))] + [tied]
    rng = random.Random(7)
    grid = [(x, y) for x in pool[:6] for y in pool[:6]]
    sets = [PointSet(field, rng.sample(grid, n)) for n in (1, 7, 20, 36)]
    if field is BIG:
        sets.append(gen_points(BIG, 300, 1))
    return sets + [tied]


FIELDS = pytest.mark.parametrize("field", [F23, BIG, QQ],
                                 ids=["p=23", "p=2^31-1", "rational"])


def _values(B) -> np.ndarray:
    """An evaluation matrix as field values: over Q each integer row is
    divided by its entry at its own point; over F_p it holds the values."""
    if B.dtype != object:
        return B
    return np.frompyfunc(Fr, 2, 1)(B, B.diagonal()[:, None])


def _rows(basis) -> np.ndarray:
    """The basis's Newton rows at its own points, as field values."""
    return _values(evaluation_matrix(basis, basis.point_order))


def _polys(basis) -> list:
    """The basis elements as Polynomials, from the coefficient half of
    their rows."""
    return PolyMatrix.from_terms(basis.field, [
        zip(basis.index_order, row)
        for row in _rows(basis)[:, len(basis):].tolist()]).polys()


def test_cols_basis_first_example():
    cover = line_cover(PointSet(QQ, EX1_POINTS), "columns")
    basis = newton_basis_cols(cover)
    assert [poly_text(p, INLEX) for p in _polys(basis)] == EX1_Q_TEXT
    assert basis.index_order == EX1_N
    assert basis.point_order == EX1_U


def test_rows_basis_f7_subset():
    cover = line_cover(PointSet(F7, EX5_MCS_ORDER), "rows")
    basis = newton_basis_rows(cover)
    assert [poly_text(p, TDINLEX) for p in _polys(basis)] == EX5_SEED_Q_TEXT
    assert basis.index_order == EX5_SEED_N
    assert basis.point_order == EX5_MCS_ORDER


def test_single_point_basis():
    for build, axis in ((newton_basis_rows, "rows"),
                        (newton_basis_cols, "columns")):
        cover = line_cover(PointSet(F7, [(3, 5)]), axis)
        basis = build(cover)
        assert [poly_text(p, LEX) for p in _polys(basis)] == ["1"]


def test_second_example_row_normalizer():
    cover = line_cover(PointSet(QQ, EX2_POINTS), "rows")
    basis = newton_basis_rows(cover)
    k = basis.index_order.index((1, 0))
    assert _polys(basis)[k] == Polynomial(QQ, {(1, 0): Fr(2, 5)})


def test_grid_cols_basis():
    grid = PointSet(QQ, [(0, 0), (0, 1), (1, 0), (1, 1)])
    basis = newton_basis_cols(line_cover(grid, "columns"))
    assert [poly_text(p, LEX) for p in _polys(basis)] == ["1", "y", "x", "xy"]


def test_evaluation_matrix_goldens():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    B = _rows(basis)
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
    assert single_rows[:, 1:].tolist() == [[1]]


@FIELDS
def test_recurrence_matches_reference(field):
    """Every row, entry by entry, against the reference products: the
    coefficients term by term, the values by reference_value, on the sets
    above 40 points at 400 sampled entries and everywhere by one values_at
    call of the reference products."""
    rng = random.Random(3)
    for ps in _point_sets(field):
        for build, axis in BUILDS:
            cover = line_cover(ps, axis)
            basis = build(cover)
            ref = reference_newton(cover)
            assert len(basis) == len(ref) == len(ps)
            B = _rows(basis)
            for r, want in enumerate(ref):
                got = dict(zip(basis.index_order, B[r, len(ps):].tolist()))
                assert {e: c for e, c in got.items() if c} == want.terms
            pts = basis.point_order
            entries = [(r, c) for r in range(len(ps)) for c in range(len(ps))]
            if len(ps) > 40:
                entries = rng.sample(entries, 400)
                assert B[:, :len(ps)].tolist() == values(field, ref, pts)
            for r, c in entries:
                assert B[r, c] == reference_value(ref[r], pts[c]), (r, c)


@FIELDS
def test_evaluation_matrix_beyond_basis(field):
    for ps in _point_sets(field):
        half = len(ps) // 2
        if half == 0:
            continue
        for build, axis in BUILDS:
            cover = line_cover(PointSet(field, ps[:half]), axis)
            basis = build(cover)
            own = _rows(basis)
            points = basis.point_order + ps.points[half:]
            raw = evaluation_matrix(basis, points)
            # integer rows over Q, each over a positive diagonal entry
            assert all(raw[r, r] > 0 for r in range(half))
            if field is QQ:
                assert all(type(c) is int for c in raw.flat)
            B = _values(raw)
            assert B.shape == (half, len(ps) + half)
            assert B[:, :half].tolist() == own[:, :half].tolist()
            assert B[:, half:len(ps)].tolist() == values(
                field, reference_newton(cover), points[half:])
            # then the coefficients, over the same entry at point r
            assert B[:, len(ps):].tolist() == own[:, half:].tolist()


def test_evaluation_matrix_checks_prefix():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    shuffled = list(reversed(basis.point_order))
    with pytest.raises(ValueError):
        evaluation_matrix(basis, shuffled)


def test_unitriangular_square():
    ps1 = PointSet(QQ, EX1_POINTS)
    basis = newton_basis_cols(line_cover(ps1, "columns"))
    B = _rows(basis)
    n = len(basis)
    for k in range(n):
        assert B[k][k] == 1
        assert all(B[k][m] == 0 for m in range(k))


def test_build_rejects_other_axis_and_empty_cover():
    """A cover of the other axis is a ValueError and an empty cover an
    EmptySetError; growing line sizes are rejected too, as test_bm's
    test_advance_rejects_coefficient_without_slot checks."""
    rows = line_cover(PointSet(F7, EX5_MCS_ORDER), "rows")
    cols = LineCover("columns", rows.groups, F7)
    with pytest.raises(ValueError, match="expected a rows cover"):
        newton_basis_rows(cols)
    with pytest.raises(ValueError, match="expected a columns cover"):
        newton_basis_cols(rows)
    for build, axis in BUILDS:
        with pytest.raises(EmptySetError):
            build(LineCover(axis, [], F7))


points_sets = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      min_size=1, max_size=10)


@given(pts=points_sets)
def test_triangularity_random(pts):
    ps = PointSet(F5, sorted(pts))
    for build, axis in ((newton_basis_rows, "rows"),
                        (newton_basis_cols, "columns")):
        basis = build(line_cover(ps, axis))
        vals = values(F5, _polys(basis), basis.point_order)
        for k in range(len(basis)):
            for m in range(k + 1):
                want = F5.one if m == k else F5.zero
                assert vals[k][m] == want


@given(pts=points_sets)
def test_support_inside_lower_set(pts):
    """Every reference product stays inside the cover's lower set, so the
    rows, which keep only its slots, lose no term."""
    ps = PointSet(F5, sorted(pts))
    for build, axis in BUILDS:
        cover = line_cover(ps, axis)
        basis = build(cover)
        ref = reference_newton(cover)
        allowed = set(basis.index_order)
        assert all(set(poly.terms) <= allowed for poly in ref)
        assert _polys(basis) == ref
