"""Point sets, line covers, and lower sets."""

import hashlib
from collections import Counter
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bmpoints.fields import BadFieldSpecError, ZeroDenominatorError, make_field
from bmpoints.newton import newton_basis_cols, newton_basis_rows
from bmpoints.orders import INLEX, LEX
from bmpoints.points import (DuplicatePointError, EmptySetError, PointSet,
                             format_point_file, is_lower, line_cover,
                             lower_set_of, parse_point_file)
from bmpoints.randgen import gen_points
from conftest import EX1_POINTS, EX2_POINTS, F7, QQ

F5 = make_field("q:5")


def test_point_set_basics():
    ps = PointSet(F7, [(8, 2), (3, -1)])
    assert ps.points == [(1, 2), (3, 6)]  # canonicalized on construction
    assert len(ps) == 2 and ps[1] == (3, 6)
    assert ps.index_map() == {(1, 2): 0, (3, 6): 1}


def test_subset_shares_the_validated_points():
    """A subset at distinct positions equals the set rebuilt from those
    points, in that order, and holds the very same point objects."""
    ps = PointSet(QQ, [(Fr(-3, 2), Fr(1, 3)), (Fr(5, 4), Fr(-7, 6)),
                       (Fr(-1, 9), 2), (0, Fr(-5, 8)), (Fr(11, 3), -4)])
    for idx in ([4, 0, 2], [1], [], [3, 1, 4, 0, 2]):
        sub = ps.subset(idx)
        assert sub == PointSet(QQ, [ps[k] for k in idx])
        assert all(pt is ps[k] for pt, k in zip(sub, idx))
    for idx in ([2, 0, 2], [0, -5]):  # -5 would be position 0 again
        with pytest.raises(ValueError, match="repeat or are negative"):
            ps.subset(idx)


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


def test_bad_literal_names_its_line():
    """A coordinate that does not convert is named by its file line; the
    class and the message after the line are the field's own."""
    cases = [(F7, "1,2\n3,x\n", BadFieldSpecError,
              "line 2: bad prime-field literal 'x'"),
             (F7, "# c\n\n1,2\n3/4, 1\n", BadFieldSpecError,
              "line 4: bad prime-field literal '3/4'"),
             (QQ, "1,2\n1/0,3\n", ZeroDenominatorError,
              "line 2: zero denominator in '1/0'"),
             (QQ, "0,pi\n", BadFieldSpecError,
              "line 1: bad rational literal 'pi'")]
    for field, text, cls, msg in cases:
        with pytest.raises(cls) as info:
            parse_point_file(field, text)
        assert str(info.value) == msg
    with pytest.raises(BadFieldSpecError) as info:
        PointSet(F7, [(0, 0), (1, "x")])
    assert str(info.value) == "bad prime-field literal 'x'"
    assert info.value.position == 1


def test_float_coordinates_are_rejected():
    """A float would enter as its truncation over q:p and as its binary
    value over Q; both fields name it, with its point's position.  Ints,
    numpy integers, Fractions and literals still enter."""
    for field, pts, k, x in ((F7, [(0, 0), (2.5, 0)], 1, 2.5),
                             (F7, [(np.float32(2), 1)], 0, np.float32(2)),
                             (QQ, [(1, 2), (3, 4), (0, 0.1)], 2, 0.1),
                             (QQ, [(np.float64(0.5), 1)], 0, np.float64(0.5))):
        with pytest.raises(BadFieldSpecError) as info:
            PointSet(field, pts)
        assert str(info.value) == (
            f"not an int, a Fraction or a literal: {x!r}")
        assert info.value.position == k
    assert PointSet(F7, [(np.int64(-1), Fr(1, 2)), ("3", 10)]).points == [
        (6, 4), (3, 3)]
    assert PointSet(QQ, [(np.int32(2), "-3/6"), (Fr(1, 3), 5)]).points == [
        (2, Fr(-1, 2)), (Fr(1, 3), 5)]


class _CountingField:
    """A field that counts every method call made on it by name."""

    def __init__(self, field):
        self.field, self.calls = field, Counter()

    def __getattr__(self, name):
        attr = getattr(self.field, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)
        return counted


@pytest.mark.parametrize("spec", ["q:23", "rational"])
def test_parse_point_file_converts_each_coordinate_once(spec):
    field = make_field(spec)
    ps = gen_points(field, 40, 1)
    counting = _CountingField(field)
    again = parse_point_file(counting, format_point_file(ps))
    assert again.points == ps.points
    assert counting.calls == {"convert": 2 * len(ps)}


def test_format_point_file_text_is_pinned():
    """The text of format_point_file, pinned as the code wrote it when
    fields still had their own format methods."""
    F23 = make_field("q:23")
    ps = PointSet(F23, [(-1, 0), (24, Fr(1, 2)), (5, Fr(46, 2))])
    assert format_point_file(ps) == "22,0\n1,12\n5,0\n"
    ps = PointSet(QQ, [(Fr(-3, 6), 4), (0, Fr(7, -21)), (-2, Fr(5, 1))])
    assert format_point_file(ps) == "-1/2,4\n0,-1/3\n-2,5\n"
    pinned = {
        ("q:23", 200): "a7bd826db23d67991ef31676a912c2a6"
                       "32b5a477b688cbd4f7b8ac429a618db9",
        ("q:2147483647", 100): "7a1f1d48078c66856605e82d21cbd12b"
                               "c118b1bb2400a47273da890bf198d92c",
        ("rational", 60): "66959c165366dc807954ecaa2133b81c"
                          "51d376a4c1c81c22c111e9342b16f8a6"}
    for (spec, n), digest in pinned.items():
        text = format_point_file(gen_points(make_field(spec), n, 1))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, spec


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
