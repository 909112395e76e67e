"""Sparse bivariate polynomials over a Field, keyed by exponent pairs."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import Field
from .orders import Exponent, TermOrder, exp_mul


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


class Polynomial:
    """Finite map exponent -> nonzero coefficient over a fixed field.

    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, {})

    @classmethod
    def constant(cls, field: Field, c) -> "Polynomial":
        c = field.convert(c)
        return cls(field, {} if c == field.zero else {(0, 0): c})

    @classmethod
    def monomial(cls, field: Field, e: Exponent, c=1) -> "Polynomial":
        c = field.convert(c)
        return cls(field, {} if c == field.zero else {e: c})

    @classmethod
    def from_pairs(cls, field: Field, pairs) -> "Polynomial":
        """Sum of (exponent, raw coefficient) pairs, canonicalized."""
        terms: dict = {}
        for e, raw in pairs:
            c = field.add(terms.get(e, field.zero), field.convert(raw))
            if c == field.zero:
                terms.pop(e, None)
            else:
                terms[e] = c
        return cls(field, terms)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def terms_sorted(self, order: TermOrder):
        """Terms as (exponent, coefficient) pairs, descending under order."""
        terms = self.terms
        return [(e, terms[e])
                for e in sorted(terms, key=order.key, reverse=True)]

    def leading_term(self, order: TermOrder):
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def leading_monomial(self, order: TermOrder) -> Exponent:
        return self.leading_term(order)[0]

    def evaluate(self, point):
        """Exact value at point = (x, y).

        Powers of x and y are built once, up to the largest exponents I and
        J.  Over F_p they are reduced mod p.  Over Q, with x = a/b, y = c/d
        and L the lcm of the coefficient denominators, the value is the
        integer sum of (coefficient * L) * a^i b^(I-i) * c^j d^(J-j) over
        L b^I d^J, so the only gcd is the final Fraction's.  A negative
        exponent is a ValueError.
        """
        f = self.field
        terms = self.terms
        if not terms:
            return f.zero
        xs, ys = zip(*terms)
        I, J = max(xs), max(ys)
        if min(xs) < 0 or min(ys) < 0:
            raise ValueError("cannot evaluate a negative exponent")
        x, y = point
        if f.char:
            p = f.char
            xp, yp = _powers(x, I, p), _powers(y, J, p)
            return sum(c * xp[i] * yp[j] for (i, j), c in terms.items()) % p
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
        xp = [u * v for u, v in zip(_powers(a, I), _powers(b, I)[::-1])]
        yp = [u * v for u, v in zip(_powers(c, J), _powers(d, J)[::-1])]
        L = lcm(*(v.denominator for v in terms.values()))
        s = sum(v.numerator * (L // v.denominator) * xp[i] * yp[j]
                for (i, j), v in terms.items())
        return Fraction(s, L * b**I * d**J)

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(terms.get(e, f.zero), c)
            if s == f.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(f, terms)

    def neg(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, {e: f.neg(c) for e, c in self.terms.items()})

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.convert(c)
        if c == f.zero:
            return Polynomial.zero(f)
        return Polynomial(f, {e: f.mul(c, v) for e, v in self.terms.items()})

    def mul_monomial(self, e: Exponent, c=1) -> "Polynomial":
        f = self.field
        c = f.convert(c)
        if c == f.zero:
            return Polynomial.zero(f)
        return Polynomial(f, {exp_mul(e, e0): f.mul(c, v)
                              for e0, v in self.terms.items()})

    def make_monic(self, order: TermOrder) -> "Polynomial":
        _, lc = self.leading_term(order)
        if lc == self.field.one:
            return self
        return self.scale(self.field.inv(lc))

    # -- dunders --------------------------------------------------------

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.field == self.field
                and other.terms == self.terms)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def _powers(base, n: int, p: int = 0) -> list:
    """[base^0, ..., base^n], each reduced mod p when p is given."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base % p if p else out[-1] * base)
    return out


# -- rendering ----------------------------------------------------------

def monomial_text(e: Exponent) -> str:
    """Render x^i y^j without a coefficient; (0,0) renders as "1"."""
    i, j = e
    parts = []
    if i == 1:
        parts.append("x")
    elif i > 1:
        parts.append(f"x^{i}")
    if j == 1:
        parts.append("y")
    elif j > 1:
        parts.append(f"y^{j}")
    return "".join(parts) if parts else "1"


def poly_text(p: Polynomial, order: TermOrder) -> str:
    """Terms descending under order, e.g. "2x^3+x^2+4x"."""
    if p.is_zero():
        return "0"
    f = p.field
    chunks = []
    for e, c in p.terms_sorted(order):
        mono = monomial_text(e)
        if e == (0, 0):
            text = f.format(c)
        elif c == f.one:
            text = mono
        elif f.char == 0 and c == -f.one:
            text = "-" + mono
        else:
            text = f.format(c) + mono
        if chunks and not text.startswith("-"):
            chunks.append("+")
        chunks.append(text)
    return "".join(chunks)


def poly_json_terms(p: Polynomial, order: TermOrder) -> list:
    """JSON form: [i, j, "coeff"] triples descending under order."""
    fmt = p.field.format
    return [[i, j, fmt(c)] for (i, j), c in p.terms_sorted(order)]


def poly_from_json_terms(field: Field, triples) -> Polynomial:
    """Inverse of poly_json_terms; a negative exponent is a ValueError."""
    pairs = [((int(i), int(j)), field.parse(str(c))) for i, j, c in triples]
    if any(min(e) < 0 for e, _ in pairs):
        raise ValueError("negative exponent in a stored polynomial")
    return Polynomial.from_pairs(field, pairs)
