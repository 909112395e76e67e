"""Point sets, line covers, and lower sets."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from bmpoints.fields import make_field
from bmpoints.newton import newton_basis_cols, newton_basis_rows
from bmpoints.orders import INLEX, LEX
from bmpoints.points import (DuplicatePointError, EmptySetError, PointSet,
                             format_point_file, is_lower, line_cover,
                             lower_set_of, parse_point_file)
from conftest import EX1_POINTS, EX2_POINTS, F7, QQ

F5 = make_field("q:5")


def test_point_set_basics():
    ps = PointSet(F7, [(8, 2), (3, -1)])
    assert ps.points == [(1, 2), (3, 6)]  # canonicalized on construction
    assert len(ps) == 2 and ps[1] == (3, 6)
    assert ps.index_map() == {(1, 2): 0, (3, 6): 1}


def test_parse_and_format_round_trip():
    text = "# a comment\n0,1\n 2 , 3 \n\n4,5\n"
    ps = parse_point_file(F7, text)
    assert ps.points == [(0, 1), (2, 3), (4, 5)]
    again = parse_point_file(F7, format_point_file(ps))
    assert again == ps


def test_parse_rational_points():
    ps = parse_point_file(QQ, "5/2,0\n-1/3,4\n")
    assert ps.points == [(Fr(5, 2), Fr(0)), (Fr(-1, 3), Fr(4))]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_point_file(F7, "1,2,3\n")
    with pytest.raises(DuplicatePointError):
        parse_point_file(F7, "1,2\n8,2\n")  # same point after reduction mod 7
    with pytest.raises(DuplicatePointError, match="lines 1 and 3") as info:
        parse_point_file(F7, "1,2\n# c\n8,2\n")
    assert (info.value.first, info.value.second) == (1, 3)
    with pytest.raises(DuplicatePointError) as info:
        PointSet(F7, [(0, 0), (1, 2), (1, 2)])
    assert (info.value.first, info.value.second) == (1, 2)


def test_empty_cover_raises():
    with pytest.raises(EmptySetError):
        line_cover(PointSet(F7, []), "rows")
    with pytest.raises(ValueError):
        line_cover(PointSet(F7, [(0, 0)]), "diagonals")


def test_ex1_column_cover():
    ps = PointSet(QQ, EX1_POINTS)
    cover = line_cover(ps, "columns")
    assert cover.sizes() == (4, 2, 2, 1)
    assert [key for key, _ in cover.groups] == [1, 0, 2, 3]
    assert cover.flatten() == [(1, 0), (1, 2), (1, 3), (1, 4), (0, 1), (0, 3),
                               (2, 1), (2, 2), (3, 1)]
    assert lower_set_of(cover) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0),
                                   (1, 1), (2, 0), (2, 1), (3, 0)]


def test_ex2_row_cover():
    ps = PointSet(QQ, EX2_POINTS)
    cover = line_cover(ps, "rows")
    assert cover.sizes() == (3, 3, 2, 1)
    assert [key for key, _ in cover.groups] == [0, 2, 1, 3]
    assert cover.flatten()[:3] == [(0, 0), (Fr(5, 2), 0), (4, 0)]
    assert lower_set_of(cover) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1),
                                   (2, 1), (0, 2), (1, 2), (0, 3)]


def test_is_lower():
    assert is_lower({(0, 0)})
    assert is_lower({(0, 0), (1, 0), (0, 1)})
    assert not is_lower({(0, 0), (2, 0)})
    assert not is_lower({(1, 0)})
    assert is_lower(set())  # vacuously closed


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
               min_size=1, max_size=12))
def test_cover_partitions_and_lower(pts):
    ps = PointSet(F5, sorted(pts))
    for axis in ("rows", "columns"):
        cover = line_cover(ps, axis)
        flat = cover.flatten()
        assert sorted(flat) == sorted(ps.points)
        sizes = cover.sizes()
        assert sizes == tuple(sorted(sizes, reverse=True))
        lows = lower_set_of(cover)
        assert len(set(lows)) == len(lows) == len(ps)
        assert is_lower(lows)
        # row-major (inlex) from a row cover, column-major (lex) otherwise
        order = INLEX if axis == "rows" else LEX
        assert lows == order.sorted(lows)
        build = newton_basis_rows if axis == "rows" else newton_basis_cols
        assert build(cover).index_order == lows
