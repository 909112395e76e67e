"""Bivariate exponents (i, j) for x^i y^j and the three supported term orders."""

from __future__ import annotations

Exponent = tuple[int, int]


class TermOrder:
    """A named total order on exponents, exposed as a sort key.

    lex      x-exponent first, then y  (x dominant).
    inlex    y-exponent first, then x  (y dominant).
    tdinlex  total degree first; equal degrees ascend with the x-exponent,
             so y^d < x*y^(d-1) < ... < x^d.
    """

    __slots__ = ("name", "key")

    def __init__(self, name: str, key):
        self.name = name
        self.key = key

    def sorted(self, exps):
        return sorted(exps, key=self.key)

    def __repr__(self):
        return f"TermOrder({self.name})"

    def __eq__(self, other):
        return isinstance(other, TermOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


LEX = TermOrder("lex", lambda e: (e[0], e[1]))
INLEX = TermOrder("inlex", lambda e: (e[1], e[0]))
TDINLEX = TermOrder("tdinlex", lambda e: (e[0] + e[1], e[0]))

ORDERS = {o.name: o for o in (LEX, INLEX, TDINLEX)}


def order_by_name(name: str) -> TermOrder:
    try:
        return ORDERS[name]
    except KeyError:
        raise ValueError(f"unknown term order {name!r}") from None


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True iff x^a divides x^b componentwise."""
    return a[0] <= b[0] and a[1] <= b[1]
