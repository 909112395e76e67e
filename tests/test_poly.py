"""Polynomials: leading monomials, evaluation, rendering, JSON."""

import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from bmpoints.cli import _stored_polys
from bmpoints.fields import make_field
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.poly import (PolyMatrix, Polynomial, ZeroPolynomialError,
                           _power_rows, monomial_text, poly_json_terms,
                           poly_text, render_rows, text_rows, values_at)
from conftest import reference_value

F7 = make_field("q:7")
F23 = make_field("q:23")
BIG = make_field("q:2147483647")
QQ = make_field("rational")

exponents = st.tuples(st.integers(min_value=0, max_value=6),
                      st.integers(min_value=0, max_value=6))
f7_polys = st.dictionaries(exponents, st.integers(min_value=1, max_value=6),
                           max_size=8).map(lambda d: Polynomial(F7, d))
# signed numerators of up to ~300 digits over positive denominators, with
# integers, one, minus one and zero among them
BIG_INT = 10**300
rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-BIG_INT, BIG_INT).map(Fraction),
    st.builds(Fraction, st.integers(-BIG_INT, BIG_INT),
              st.integers(1, BIG_INT)))
# rows of terms; an exponent may repeat, and a row may sum to zero
q_term_rows = st.lists(st.lists(st.tuples(exponents, rationals),
                                max_size=8), max_size=5)
# ascending exponents from 1 up, by steps of one and wider gaps
gapped_exponents = st.lists(st.integers(1, 30), min_size=1,
                            max_size=6).map(lambda s: list(accumulate(s)))


@given(polys=st.lists(f7_polys, max_size=4))
def test_leading_term(polys):
    m = PolyMatrix.from_polys(F7, polys)
    for order in (LEX, INLEX, TDINLEX):
        keys = [order.key(m.exps[c]) for c in m.column_order(order).tolist()]
        assert keys == sorted(keys, reverse=True)
        if not all(p.terms for p in polys):
            with pytest.raises(ZeroPolynomialError):
                m.leading(order)
            continue
        lead = m.leading(order).tolist()
        assert len(lead) == len(polys)
        for k, (p, c) in enumerate(zip(polys, lead)):
            lm = m.exps[c]
            assert p.terms[lm] == m.coeffs[k, c]
            # every other monomial sits strictly below the leading one
            for e in p.terms:
                assert order.key(e) < order.key(lm) or e == lm


@given(p=f7_polys)
def test_json_round_trip(p):
    """verify's reader turns poly_json_terms back into the polynomial; it
    names a stored zero polynomial, which from_terms keeps as a zero row."""
    for order in (LEX, INLEX, TDINLEX):
        doc = {"G": [poly_json_terms(p, order)]}
        if p.terms:
            assert _stored_polys(F7, doc, "G").polys() == [p]
            continue
        with pytest.raises(ValueError, match=r"G\[0\] is the zero poly"):
            _stored_polys(F7, doc, "G")
        assert PolyMatrix.from_terms(F7, [{}]).polys() == [p]


@pytest.mark.parametrize("field", [F7, QQ], ids=["q:7", "rational"])
def test_from_json_keeps_only_nonzero_exponents(field):
    """A stored zero term, and terms of one exponent that cancel, keep no
    column, so no power is built for them; a term that cancels in one row
    but not in another keeps its column."""
    stored = _stored_polys(field, {"Q": [
        [[1, 0, "1"], [1000000, 0, "0"], [0, 3, "2"], [0, 3, "-2"],
         [0, 0, "3"]],
        [[2, 2, "5"], [0, 3, "1"], [5, 5, "-1"], [5, 5, "1"]]]}, "Q")
    assert stored.exps == [(1, 0), (0, 3), (0, 0), (2, 2)]
    assert stored.coeffs.astype(bool).any(axis=0).all()
    assert [poly_text(q, LEX) for q in stored.polys()] == [
        "x+3", "5x^2y^2+y^3"]


def _by_exponent(m: PolyMatrix) -> tuple:
    """m's columns by exponent, and its denominators."""
    return ({e: m.coeffs[:, c].tolist() for c, e in enumerate(m.exps)},
            None if m.dens is None else m.dens.tolist())


@pytest.mark.parametrize("field", [F7, QQ], ids=["q:7", "rational"])
@given(data=st.data())
def test_stored_terms_add_up_in_the_reader(field, data):
    """The reader sums the split and repeated terms of one exponent into its
    row's map: stored rows read as from_polys of the summed polynomials,
    entry for entry, and an exponent whose terms cancel keeps no column."""
    few = st.tuples(st.integers(0, 2), st.integers(0, 2))
    value = st.integers(-20, 20) if field.char else rationals
    rows = data.draw(st.lists(st.lists(st.tuples(few, value), min_size=1,
                                       max_size=8), min_size=1, max_size=4))
    want = []
    for row in rows:
        terms: dict = {}
        for e, c in row:
            terms[e] = terms.get(e, 0) + c
        want.append(Polynomial(field, {e: v for e, c in terms.items()
                                       if (v := field.convert(c))}))
    assume(all(q.terms for q in want))
    stored = [[[i, j, str(c)] for (i, j), c in row] for row in rows]
    k = data.draw(st.integers(0, len(rows) - 1))
    t = data.draw(st.integers(0, len(rows[k])))
    stored[k][t:t] = [[3, 3, "2"], [3, 3, "-2"]]
    got = _stored_polys(field, {"Q": stored}, "Q")
    assert (3, 3) not in got.exps
    assert _by_exponent(got) == _by_exponent(
        PolyMatrix.from_polys(field, want))


@given(rows=q_term_rows)
def test_rational_rows_over_least_common_denominator(rows):
    """from_terms of the summed row maps, zero sums kept, and from_polys
    over Q give integer rows over their least common denominators that
    round-trip through polys(); both renderers print each term as str()
    prints its Fraction."""
    sums = []
    for row in rows:
        terms: dict = {}
        for e, c in row:
            terms[e] = terms.get(e, 0) + c
        sums.append(terms)
    want = [Polynomial(QQ, {e: c for e, c in t.items() if c}) for t in sums]
    for m in (PolyMatrix.from_terms(QQ, sums),
              PolyMatrix.from_polys(QQ, want)):
        assert m.coeffs.shape == (len(rows), len(m.exps))
        assert m.dens.shape == (len(rows),)
        for row, d in zip(m.coeffs.tolist(), m.dens.tolist()):
            assert all(type(c) is int for c in [d, *row])
            assert d > 0 and gcd(d, *row) == 1
        assert m.polys() == want
        columns = [f"{i},{j}:" for i, j in m.exps]
        for order in (LEX, INLEX, TDINLEX):
            perm = m.column_order(order)
            texts = [t for block in text_rows(m, perm) for t in block]
            jsons = [t for block in render_rows(
                m, perm, [columns[c] for c in perm.tolist()], ";")
                for t in block]
            for q, text, js in zip(want, texts, jsons, strict=True):
                ref = sorted(q.terms.items(), key=lambda t: order.key(t[0]),
                             reverse=True)
                assert text == _reference_text(QQ, ref)
                assert js == ";".join(f"{i},{j}:{c}" for (i, j), c in ref)


def test_monomial_text():
    assert monomial_text((0, 0)) == "1"
    assert monomial_text((1, 0)) == "x"
    assert monomial_text((0, 2)) == "y^2"
    assert monomial_text((3, 1)) == "x^3y"


def test_poly_text_golden():
    p = Polynomial(F7, {(3, 0): 2, (2, 0): 1, (1, 0): 4})
    assert poly_text(p, LEX) == "2x^3+x^2+4x"
    assert poly_text(Polynomial(F7, {}), LEX) == "0"
    assert poly_text(Polynomial(F7, {(0, 0): 3}), LEX) == "3"
    assert poly_text(Polynomial(F7, {(1, 1): 1}), LEX) == "xy"

    q = Polynomial(QQ, {(1, 0): Fraction(-1), (0, 0): Fraction(1)})
    assert poly_text(q, LEX) == "-x+1"
    r = Polynomial(QQ, {(1, 1): Fraction(-1, 2), (0, 1): Fraction(1, 2)})
    assert poly_text(r, INLEX) == "-1/2xy+1/2y"
    # display order follows the active order
    s = Polynomial(QQ, {(2, 0): Fraction(1), (0, 3): Fraction(1)})
    assert poly_text(s, LEX) == "x^2+y^3"
    assert poly_text(s, TDINLEX) == "y^3+x^2"


def test_from_pairs_accumulates():
    p = Polynomial.from_pairs(F7, [((1, 0), 3), ((1, 0), 4), ((0, 0), 2)])
    assert p.terms == {(0, 0): 2}  # 3 + 4 = 0 mod 7


def _random_coefficient(field, rng):
    if field.char:
        return rng.randrange(1, field.char)
    return Fraction(rng.randrange(1, 10**6) * rng.choice((-1, 1)),
                    rng.randrange(1, 10**4))


def _random_coordinate(field, rng):
    if field.char:
        return rng.randrange(field.char)
    return Fraction(rng.randrange(-99, 100), rng.randrange(1, 60))


@pytest.mark.parametrize("field", [QQ, F23, BIG],
                         ids=["rational", "p=23", "p=2^31-1"])
def test_evaluate_matches_reference(field):
    rng = random.Random(field.char + 17)
    coords = [field.zero, field.one, field.convert(-3)]
    if not field.char:
        coords += [Fraction(-7, 3), Fraction(5, 12)]
    for n_terms in (0, 1, 4, 30):
        for _ in range(12):
            q = Polynomial.from_pairs(
                field, [((rng.randrange(20), rng.randrange(20)),
                         _random_coefficient(field, rng))
                        for _ in range(n_terms)])
            pts = [(rng.choice(coords), rng.choice(coords)),
                   (_random_coordinate(field, rng), rng.choice(coords))]
            pts += [(_random_coordinate(field, rng),
                     _random_coordinate(field, rng)) for _ in range(4)]
            for pt in pts:
                assert q.evaluate(pt) == reference_value(q, pt)
    zero = Polynomial(field, {}).evaluate((field.one, field.one))
    assert zero == field.zero and type(zero) is type(field.zero)


def _reference_text(field, terms):
    """Terms as text, one at a time: a unit coefficient shows only its
    sign before a monomial, and "+" joins all but negative terms."""
    chunks = []
    for e, c in terms:
        mono = monomial_text(e)
        if e == (0, 0):
            text = str(c)
        elif c == 1:
            text = mono
        elif not field.char and c == -1:
            text = "-" + mono
        else:
            text = str(c) + mono
        if chunks and not text.startswith("-"):
            chunks.append("+")
        chunks.append(text)
    return "".join(chunks) or "0"


@pytest.mark.parametrize("order", [LEX, INLEX, TDINLEX],
                         ids=lambda o: o.name)
@pytest.mark.parametrize("field", [QQ, F23, BIG],
                         ids=["rational", "p=23", "p=2^31-1"])
def test_term_order_matches_reference(field, order):
    rng = random.Random(field.char + 29)
    units = [field.one, field.convert(-1)]
    polys = [Polynomial.from_pairs(
                 field, [((rng.randrange(20), rng.randrange(20)),
                          rng.choice(units + [_random_coefficient(field, rng)]
                                     * 2))
                         for _ in range(n_terms)])
             for n_terms in (0, 1, 4, 30) for _ in range(12)]
    polys.append(Polynomial(field, {}))
    m = PolyMatrix.from_polys(field, polys)
    texts = [t for rows in text_rows(m, m.column_order(order)) for t in rows]
    assert texts[0] == texts[-1] == "0"
    for q, text in zip(polys, texts, strict=True):
        ref = sorted(q.terms.items(), key=lambda t: order.key(t[0]),
                     reverse=True)
        assert text == _reference_text(field, ref) == poly_text(q, order)
        assert poly_json_terms(q, order) == [[i, j, str(c)]
                                             for (i, j), c in ref]


def test_evaluate_high_exponent():
    assert Polynomial(QQ, {(1200, 0): QQ.one}).evaluate(
        (Fraction(1, 2), Fraction(3))) == Fraction(1, 2**1200)
    p = BIG.char
    assert Polynomial(BIG, {(1200, 0): 1}).evaluate((123456789, 5)) \
        == pow(123456789, 1200, p)


@pytest.mark.parametrize("field", [QQ, F23, BIG],
                         ids=["rational", "p=23", "p=2^31-1"])
def test_values_at_matches_reference(field):
    rng = random.Random(field.char + 41)
    coords = [field.zero, field.one, -3, -1]
    if not field.char:
        coords = [field.convert(c) for c in coords]
        coords += [Fraction(-7, 3), Fraction(5, 12)]
    points = [(x, y) for x in coords for y in coords[:3]]
    points += [(_random_coordinate(field, rng), _random_coordinate(field, rng))
               for _ in range(6)]
    polys = [Polynomial(field, {}), Polynomial(field, {(1200, 0): field.one}),
             Polynomial(field, {(0, 0): field.convert(5)})]
    polys += [Polynomial.from_pairs(
                  field, [((rng.randrange(20), rng.randrange(20)),
                           _random_coefficient(field, rng))
                          for _ in range(n_terms)])
              for n_terms in (1, 4, 30, 30)]
    got = values_at(PolyMatrix.from_polys(field, polys), points)
    assert got.shape == (len(polys), len(points))
    values = got.tolist()
    assert values == [[reference_value(q, pt) for pt in points]
                      for q in polys]
    assert {type(v) for row in values for v in row} == {type(field.zero)}
    assert values_at(PolyMatrix.from_polys(field, []),
                     points).shape == (0, len(points))
    assert values_at(PolyMatrix.from_polys(field, polys),
                     []).shape == (len(polys), 0)


@pytest.mark.parametrize("p", [0, 23, 2**31 - 1],
                         ids=["exact", "p=23", "p=2^31-1"])
@given(base=st.lists(st.one_of(st.sampled_from([0, 1, -1]),
                               st.integers(-10**120, 10**120)), max_size=5),
       exps=gapped_exponents)
def test_power_rows_matches_pow(p, base, exps):
    if p:
        array = np.array([b % p for b in base], dtype=np.int64)
        want = [[pow(b, e, p) for b in base] for e in exps]
    else:
        array = np.array(base, dtype=object)
        want = [[b**e for b in base] for e in exps]
    rows = _power_rows(array, exps, p)
    assert rows.dtype == array.dtype
    assert rows.tolist() == want


def test_values_at_rational_gapped_exponents():
    rng = random.Random(43)
    exps = [(0, 0), (3, 1), (40, 0), (41, 7)]
    coords = [QQ.zero, QQ.one, Fraction(-1), Fraction(-7, 3),
              Fraction(5, 12), Fraction(2**70 + 1, 3**40)]
    points = [(x, y) for x in coords for y in coords]
    polys = [Polynomial(QQ, {e: QQ.one}) for e in exps]
    polys += [Polynomial(QQ, {e: _random_coefficient(QQ, rng) for e in exps})
              for _ in range(3)]
    got = values_at(PolyMatrix.from_polys(QQ, polys), points).tolist()
    assert got == [[reference_value(q, pt) for pt in points] for q in polys]


def test_evaluate_keeps_only_listed_powers():
    # a table of every power of 3 and 7 up to 20000 traces over 100 MiB
    q = Polynomial(QQ, {(20000, 0): QQ.one, (0, 0): QQ.one})
    tracemalloc.start()
    try:
        value = q.evaluate((Fraction(3, 7), QQ.one))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == Fraction(3**20000 + 7**20000, 7**20000)
    assert peak < 5 * 2**20


@pytest.mark.parametrize("field", [QQ, F23], ids=["rational", "p=23"])
@pytest.mark.parametrize("e", [(-1, 0), (2, -3)], ids=["x", "y"])
def test_evaluate_rejects_negative_exponent(field, e):
    q = Polynomial(field, {e: field.one, (1, 1): field.one})
    with pytest.raises(ValueError):
        q.evaluate((field.convert(2), field.convert(3)))
