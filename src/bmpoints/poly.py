"""Sparse bivariate polynomials over a Field, keyed by exponent pairs, and
their exact evaluation at many points at once."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .fields import Field
from .orders import Exponent, TermOrder


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


class Polynomial:
    """Finite map exponent -> nonzero coefficient over a fixed field.

    Instances are treated as immutable.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms

    # -- construction ---------------------------------------------------

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
        """Exact value at point = (x, y): an int over F_p, a Fraction over Q."""
        return values_at([self], [point], self.field).item(0)

    # -- dunders --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.field == self.field
                and other.terms == self.terms)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


# -- exact evaluation ---------------------------------------------------

# float64 holds every integer below this bound exactly
_FLOAT_EXACT = 2**53


def _power_rows(base: np.ndarray, exps, p: int) -> np.ndarray:
    """rows[r] = base ** exps[r] mod p, for ascending exponents >= 0."""
    rows = np.empty((len(exps), base.size), dtype=np.int64)
    cur = np.ones_like(base)
    prev = 0
    for r, e in enumerate(exps):
        step, n, sq = np.ones_like(base), e - prev, base
        while n:
            if n & 1:
                step = step * sq % p
            n >>= 1
            if n:
                sq = sq * sq % p
        cur = cur * step % p
        rows[r] = cur
        prev = e
    return rows


def _matmul_mod(coeffs: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """coeffs @ table mod p, exactly, for int64 entries in [0, p).

    The monomial axis is cut into chunks and the coefficients into base-2^b
    limbs, with b as large as keeps every float64 sum below 2^53.
    """
    out = np.zeros((coeffs.shape[0], table.shape[1]), dtype=np.int64)
    width = (p - 1).bit_length()
    span = (_FLOAT_EXACT - 1) // (p - 1)  # monomials per chunk: b >= 1
    for t0 in range(0, table.shape[0], span):
        c = coeffs[:, t0:t0 + span]
        t = table[t0:t0 + span].astype(np.float64)
        limb_max = (_FLOAT_EXACT - 1) // (t.shape[0] * (p - 1))
        bits = (limb_max + 1).bit_length() - 1
        mask = (1 << bits) - 1
        for shift in range(0, width, bits):
            limb = ((c >> shift) & mask).astype(np.float64)
            part = (limb @ t).astype(np.int64) % p
            out = (out + part * pow(2, shift, p)) % p
    return out


def _scaled_powers(coords, exps, top: int) -> np.ndarray:
    """rows[r, m] = a^exps[r] * b^(top - exps[r]) for coords[m] = a/b."""
    rows = np.empty((len(exps), len(coords)), dtype=object)
    for r, e in enumerate(exps):
        rows[r] = [v.numerator**e * v.denominator**(top - e) for v in coords]
    return rows


def values_at(polys, points, field: Field) -> np.ndarray:
    """values[k, m] = polys[k](points[m]), exactly, over field.

    The monomial table covers exactly the exponents that occur in polys,
    whether or not they lie in N, so corrupt input is evaluated as is; a
    negative exponent is a ValueError.  Over F_p the values are one exact
    modular matrix product, as int64.  Over Q, with x = a/b, y = c/d and
    I, J the largest exponents, the table holds the integers
    a^i b^(I-i) c^j d^(J-j) and each polynomial's coefficients are scaled
    by L, the lcm of their denominators; one integer matrix product then
    gives every value as a sum over L b^I d^J, so the only gcds are the
    Fractions' own.  The result is then an object array of Fractions.
    """
    exps = sorted({e for q in polys for e in q.terms})
    xs = sorted({i for i, _ in exps})
    ys = sorted({j for _, j in exps})
    if (xs and xs[0] < 0) or (ys and ys[0] < 0):
        raise ValueError("cannot evaluate a negative exponent")
    xrow = {i: r for r, i in enumerate(xs)}
    yrow = {j: r for r, j in enumerate(ys)}
    xsel = [xrow[i] for i, _ in exps]
    ysel = [yrow[j] for _, j in exps]
    col = {e: t for t, e in enumerate(exps)}
    rows, cols, vals = [], [], []
    for k, q in enumerate(polys):
        for e, c in q.terms.items():
            rows.append(k)
            cols.append(col[e])
            vals.append(c)
    p = field.char
    if p:
        pts = np.array(points, dtype=np.int64).reshape(-1, 2) % p
        table = (_power_rows(pts[:, 0], xs, p)[xsel]
                 * _power_rows(pts[:, 1], ys, p)[ysel] % p)
        coeffs = np.zeros((len(polys), len(exps)), dtype=np.int64)
        coeffs[rows, cols] = [c % p for c in vals]
        return _matmul_mod(coeffs, table, p)
    L = [lcm(*(c.denominator for c in q.terms.values())) for q in polys]
    coeffs = np.zeros((len(polys), len(exps)), dtype=object)
    coeffs[rows, cols] = [c.numerator * (L[k] // c.denominator)
                          for k, c in zip(rows, vals)]
    I, J = max(xs, default=0), max(ys, default=0)
    table = (_scaled_powers([x for x, _ in points], xs, I)[xsel]
             * _scaled_powers([y for _, y in points], ys, J)[ysel])
    dens = np.outer(np.array(L, dtype=object),
                    np.array([x.denominator**I * y.denominator**J
                              for x, y in points], dtype=object))
    return np.frompyfunc(Fraction, 2, 1)(coeffs @ table, dens)


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
