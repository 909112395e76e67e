"""Term orders: axioms, pinned comparisons, helper predicates."""

import pytest
from hypothesis import given, strategies as st

from bmpoints.orders import (INLEX, LEX, ORDERS, TDINLEX, exp_divides,
                             order_by_name)

exponents = st.tuples(st.integers(min_value=0, max_value=40),
                      st.integers(min_value=0, max_value=40))
orders = st.sampled_from([LEX, INLEX, TDINLEX])


def test_pinned_comparisons():
    x, y = (1, 0), (0, 1)
    assert LEX.key(y) < LEX.key(x)
    assert INLEX.key(x) < INLEX.key(y)
    # lex ignores degree entirely: y^9 below x
    assert LEX.key((0, 9)) < LEX.key((1, 0))
    assert INLEX.key((9, 0)) < INLEX.key((0, 1))
    # graded order sorts by total degree first...
    assert TDINLEX.key((0, 3)) > TDINLEX.key((1, 1))
    # ...and breaks ties walking up the x-exponent: y^2 < xy < x^2
    assert TDINLEX.key((0, 2)) < TDINLEX.key((1, 1))
    assert TDINLEX.key((1, 1)) < TDINLEX.key((2, 0))
    assert TDINLEX.key((2, 0)) > TDINLEX.key((1, 1))
    for o in ORDERS.values():
        assert o.key((2, 3)) == o.key((2, 3))


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
    ka, kb, kc = order.key(a), order.key(b), order.key(c)
    assert (ka < kb) == (kb > ka)
    assert (ka == kb) == (a == b)
    if ka <= kb and kb <= kc:
        assert ka <= kc


def _mul(a, b):
    """Exponent of the product monomial."""
    return (a[0] + b[0], a[1] + b[1])


@given(order=orders, a=exponents, b=exponents, c=exponents)
def test_multiplicative_and_well_order(order, a, b, c):
    key = order.key
    assert key((0, 0)) <= key(a)
    assert key(a) <= key(_mul(a, c))
    if key(a) < key(b):
        assert key(_mul(a, c)) < key(_mul(b, c))


@given(order=orders, a=exponents, b=exponents)
def test_divisibility_implies_below(order, a, b):
    if exp_divides(a, b):
        assert order.key(a) <= order.key(b)


@given(a=exponents, b=exponents)
def test_exp_helpers(a, b):
    assert exp_divides(a, _mul(a, b))
    if exp_divides(a, b) and exp_divides(b, a):
        assert a == b
