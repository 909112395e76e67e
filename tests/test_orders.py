"""Term orders: axioms, pinned comparisons, helper predicates."""

import pytest
from hypothesis import given, strategies as st

from bmpoints.orders import (EQ, GT, INLEX, LEX, LT, ORDERS, TDINLEX,
                             exp_divides, order_by_name)

exponents = st.tuples(st.integers(min_value=0, max_value=40),
                      st.integers(min_value=0, max_value=40))
orders = st.sampled_from([LEX, INLEX, TDINLEX])


def test_pinned_comparisons():
    x, y = (1, 0), (0, 1)
    assert LEX.cmp(y, x) == LT
    assert INLEX.cmp(x, y) == LT
    # lex ignores degree entirely: y^9 below x
    assert LEX.cmp((0, 9), (1, 0)) == LT
    assert INLEX.cmp((9, 0), (0, 1)) == LT
    # graded order sorts by total degree first...
    assert TDINLEX.cmp((0, 3), (1, 1)) == GT
    # ...and breaks ties walking up the x-exponent: y^2 < xy < x^2
    assert TDINLEX.cmp((0, 2), (1, 1)) == LT
    assert TDINLEX.cmp((1, 1), (2, 0)) == LT
    assert TDINLEX.cmp((2, 0), (1, 1)) == GT
    for o in ORDERS.values():
        assert o.cmp((2, 3), (2, 3)) == EQ


def test_order_registry():
    assert order_by_name("lex") is LEX
    assert order_by_name("inlex") is INLEX
    assert order_by_name("tdinlex") is TDINLEX
    with pytest.raises(ValueError):
        order_by_name("degrevlex")


def test_sorted_listings():
    degree_two = [(2, 0), (1, 1), (0, 2)]
    assert TDINLEX.sorted(degree_two) == [(0, 2), (1, 1), (2, 0)]
    assert LEX.sorted([(1, 0), (0, 5), (0, 0)]) == [(0, 0), (0, 5), (1, 0)]
    assert INLEX.sorted([(0, 1), (5, 0), (0, 0)]) == [(0, 0), (5, 0), (0, 1)]


@given(order=orders, a=exponents, b=exponents, c=exponents)
def test_total_order_axioms(order, a, b, c):
    assert order.cmp(a, b) == -order.cmp(b, a)
    assert (order.cmp(a, b) == EQ) == (a == b)
    if order.cmp(a, b) != GT and order.cmp(b, c) != GT:
        assert order.cmp(a, c) != GT


def _mul(a, b):
    """Exponent of the product monomial."""
    return (a[0] + b[0], a[1] + b[1])


@given(order=orders, a=exponents, b=exponents, c=exponents)
def test_multiplicative_and_well_order(order, a, b, c):
    assert order.cmp((0, 0), a) != GT
    assert order.cmp(a, _mul(a, c)) != GT
    if order.cmp(a, b) == LT:
        assert order.cmp(_mul(a, c), _mul(b, c)) == LT


@given(order=orders, a=exponents, b=exponents)
def test_divisibility_implies_below(order, a, b):
    if exp_divides(a, b):
        assert order.cmp(a, b) != GT


@given(a=exponents, b=exponents)
def test_exp_helpers(a, b):
    assert exp_divides(a, _mul(a, b))
    if exp_divides(a, b) and exp_divides(b, a):
        assert a == b
