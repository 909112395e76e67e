"""Exact arithmetic over prime fields F_p (p < 2**31) and the rationals Q.

Elements are plain Python values: canonical ints in [0, p) for a prime field,
`fractions.Fraction` for the rationals.  The `Field` object carries the
operations; elements from different fields must never be mixed.
A value enters a field only through `Field.convert` and leaves it by `str`.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

# Moduli stay below 2**31 so any product of two canonical representatives
# fits a signed 64-bit intermediate.
MAX_PRIME = 2**31


class FieldError(ValueError):
    """Base class for field construction and arithmetic errors."""


class NotPrimeError(FieldError):
    """Modulus of a prime field is composite or smaller than 2."""


class BadFieldSpecError(FieldError):
    """Malformed field spec string."""


class DivisionByZeroError(FieldError):
    """Division or inversion by the zero element."""


class ZeroDenominatorError(FieldError):
    """Rational value with a zero denominator."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 7 and 61, which is exact
    for n < 4,759,123,141 and so for every modulus below 2**31."""
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of PrimeField and RationalField, each of which
    defines convert, add, sub, mul, neg and inv."""

    name: str
    char: int
    zero = 0
    one = 1

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero


class PrimeField(Field):
    """F_p with canonical representatives 0 <= a < p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"modulus {p} is not prime")
        if p >= MAX_PRIME:
            raise BadFieldSpecError(f"modulus {p} exceeds the 2**31 bound")
        self.p = p
        self.char = p
        self.name = f"q:{p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def convert(self, raw) -> int:
        """An int or a base-10 literal such as "-3", in [0, p); any other
        value as RationalField.convert reads it, mod p."""
        if not isinstance(raw, (str, int)):
            raw = RationalField().convert(raw)
            return self.div(raw.numerator % self.p, raw.denominator % self.p)
        try:
            return int(raw) % self.p
        except ValueError:
            raise BadFieldSpecError(f"bad prime-field literal {raw!r}") from None

    def add(self, a, b):
        r = a + b
        return r - self.p if r >= self.p else r

    def sub(self, a, b):
        r = a - b
        return r + self.p if r < 0 else r

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)


class RationalField(Field):
    """Q with elements as reduced `Fraction`s."""

    char = 0
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"

    def convert(self, raw) -> Fraction:
        """An int (numpy integers too), a Fraction or a literal such as
        "-3/6" or "1.5"; anything else, a float too, is a BadFieldSpecError."""
        if not isinstance(raw, (str, Rational)):
            raise BadFieldSpecError(
                f"not an int, a Fraction or a literal: {raw!r}")
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise ZeroDenominatorError(f"zero denominator in {raw!r}") from None
        except ValueError:
            raise BadFieldSpecError(f"bad rational literal {raw!r}") from None

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of 0 in Q")
        return 1 / a


def make_field(spec: str) -> Field:
    """Build a field from a spec string: "q:<p>" or "rational"."""
    if spec == "rational":
        return RationalField()
    if spec.startswith("q:"):
        try:
            p = int(spec[2:], 10)
        except ValueError:
            raise BadFieldSpecError(f"bad field spec {spec!r}") from None
        return PrimeField(p)
    raise BadFieldSpecError(f"bad field spec {spec!r}")

