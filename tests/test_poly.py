"""Sparse polynomials: leading terms, evaluation, rendering, JSON."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bmpoints.fields import make_field
from bmpoints.orders import INLEX, LEX, TDINLEX
from bmpoints.poly import (PolyMatrix, Polynomial, ZeroPolynomialError,
                           monomial_text, poly_json_terms,
                           poly_matrix_from_json, poly_text, values_at)
from conftest import reference_value

F7 = make_field("q:7")
F23 = make_field("q:23")
BIG = make_field("q:2147483647")
QQ = make_field("rational")

exponents = st.tuples(st.integers(min_value=0, max_value=6),
                      st.integers(min_value=0, max_value=6))
f7_polys = st.dictionaries(exponents, st.integers(min_value=1, max_value=6),
                           max_size=8).map(lambda d: Polynomial(F7, d))


@given(p=f7_polys)
def test_leading_term(p):
    for order in (LEX, INLEX, TDINLEX):
        if p.is_zero():
            with pytest.raises(ZeroPolynomialError):
                p.leading_term(order)
            continue
        lm, lc = p.leading_term(order)
        assert p.leading_monomial(order) == lm and p.terms[lm] == lc
        # every other monomial sits strictly below the leading one
        for e in p.terms:
            assert order.key(e) < order.key(lm) or e == lm


@given(p=f7_polys)
def test_json_round_trip(p):
    for order in (LEX, INLEX, TDINLEX):
        stored = poly_matrix_from_json(F7, [poly_json_terms(p, order)])
        assert stored.polys() == [p]


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


@pytest.mark.parametrize("order", [LEX, INLEX, TDINLEX],
                         ids=lambda o: o.name)
@pytest.mark.parametrize("field", [QQ, F23, BIG],
                         ids=["rational", "p=23", "p=2^31-1"])
def test_term_order_matches_reference(field, order):
    rng = random.Random(field.char + 29)
    for n_terms in (0, 1, 4, 30):
        for _ in range(12):
            q = Polynomial.from_pairs(
                field, [((rng.randrange(20), rng.randrange(20)),
                         _random_coefficient(field, rng))
                        for _ in range(n_terms)])
            ref = sorted(q.terms.items(), key=lambda t: order.key(t[0]),
                         reverse=True)
            assert q.terms_sorted(order) == ref
            chunks = [poly_text(Polynomial(field, {e: c}), order)
                      for e, c in ref]
            text = "".join(c if k == 0 or c.startswith("-") else "+" + c
                           for k, c in enumerate(chunks))
            assert poly_text(q, order) == (text or "0")


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


@pytest.mark.parametrize("field", [QQ, F23], ids=["rational", "p=23"])
@pytest.mark.parametrize("e", [(-1, 0), (2, -3)], ids=["x", "y"])
def test_evaluate_rejects_negative_exponent(field, e):
    q = Polynomial(field, {e: field.one, (1, 1): field.one})
    with pytest.raises(ValueError):
        q.evaluate((field.convert(2), field.convert(3)))
