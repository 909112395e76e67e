"""Cartesian criteria and maximal cartesian subsets."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from bmpoints.bm import gpbm_run
from bmpoints.cartesian import is_cartesian, max_cartesian_subset
from bmpoints.orders import TDINLEX
from bmpoints.points import EmptySetError, PointSet
from conftest import (EX2_MCS_SET, EX2_POINTS, EX5_MCS_ORDER, EX5_POINTS, F5,
                      F7, QQ)


def test_is_cartesian_golden():
    grid = PointSet(F5, [(x, y) for x in range(3) for y in range(2)])
    assert is_cartesian(grid)
    L = PointSet(F5, [(0, 0), (1, 0), (0, 1)])
    assert is_cartesian(L)  # staircases count, not just full grids
    assert is_cartesian(PointSet(F5, [(2, 3)]))
    assert is_cartesian(PointSet(F5, [(0, 0), (1, 0), (2, 0)]))
    diag = PointSet(F5, [(0, 0), (1, 1)])
    assert not is_cartesian(diag)
    dented = PointSet(F5, [(x, y) for x in range(3) for y in range(2)
                           if (x, y) != (2, 1)])
    assert is_cartesian(dented)  # removing a corner keeps a lower shape
    holed = PointSet(F5, [(x, y) for x in range(3) for y in range(2)
                          if (x, y) != (1, 1)])
    assert is_cartesian(holed)  # abscissae may be relabelled: {0,2} works
    crossed = PointSet(F5, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert not is_cartesian(crossed)  # rows {0,1} and {1,2} do not nest


def test_is_cartesian_errors():
    with pytest.raises(EmptySetError):
        is_cartesian(PointSet(F5, []))
    with pytest.raises(ValueError):
        is_cartesian(PointSet(F5, [(0, 0)]), method="vibes")


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
               min_size=1, max_size=14))
def test_criteria_agree(pts):
    ps = PointSet(F5, sorted(pts))
    assert is_cartesian(ps, "sx_eq_sy") == is_cartesian(ps, "nested_chains")


def test_mcs_second_example():
    ps = PointSet(QQ, EX2_POINTS)
    cover, removed = max_cartesian_subset(ps)
    assert set(cover.flatten()) == EX2_MCS_SET
    assert removed == [(Fr(0), Fr(3)), (Fr(1), Fr(1))]  # input order
    assert is_cartesian(PointSet(QQ, cover.flatten()))


def test_mcs_f7_example_order():
    ps = PointSet(F7, EX5_POINTS)
    cover, removed = max_cartesian_subset(ps)
    assert cover.flatten() == EX5_MCS_ORDER
    assert len(removed) == 11
    assert removed == [p for p in ps if p not in set(EX5_MCS_ORDER)]
    assert is_cartesian(PointSet(F7, cover.flatten()))


def test_mcs_of_cartesian_set_is_identity():
    grid = PointSet(F5, [(x, y) for x in range(2) for y in range(3)])
    cover, removed = max_cartesian_subset(grid)
    assert set(cover.flatten()) == set(grid.points)
    assert removed == []


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
               min_size=1, max_size=12))
def test_mcs_partitions_input(pts):
    ps = PointSet(F5, sorted(pts))
    cover, removed = max_cartesian_subset(ps)
    assert is_cartesian(PointSet(F5, cover.flatten()))
    got = set(cover.flatten()) | set(removed)
    assert got == set(ps.points)
    assert len(cover) + len(removed) == len(ps)
    # growing back any single removed point must not stay trivially fine:
    # maximality is checked exhaustively in the acceptance suite


def test_gpbm_run_order():
    """gpbm runs the subset in row-cover order, then the rest in input
    order."""
    ps = PointSet(F7, EX5_POINTS)
    _, removed = max_cartesian_subset(ps)
    run = gpbm_run(ps, TDINLEX).run_points
    assert run == EX5_MCS_ORDER + removed
    assert sorted(run) == sorted(ps.points)
