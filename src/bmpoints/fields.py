"""Exact arithmetic over prime fields F_p (p < 2**31) and the rationals Q.

Elements are plain Python values: canonical ints in [0, p) for a prime field,
`fractions.Fraction` for the rationals.  The `Field` object carries the
operations; elements from different fields must never be mixed.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Deterministic trial-division primality check, valid for n < 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


class Field:
    """Common interface of PrimeField and RationalField."""

    name: str
    char: int
    zero = 0
    one = 1

    def convert(self, raw):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

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
        """Canonicalize an integer (or integral Fraction) into [0, p)."""
        if isinstance(raw, Fraction):
            if raw.denominator == 1:
                raw = raw.numerator
            else:
                return self.div(raw.numerator % self.p,
                                self.convert(raw.denominator))
        return int(raw) % self.p

    def parse(self, text: str) -> int:
        try:
            return int(text, 10) % self.p
        except ValueError:
            raise BadFieldSpecError(f"bad prime-field literal {text!r}") from None

    def format(self, a) -> str:
        return str(a)

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
        g, s, _ = xgcd(a, self.p)
        # g == 1 since p is prime and 0 < a < p
        return s % self.p


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
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise ZeroDenominatorError(f"zero denominator in {raw!r}") from None

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ZeroDenominatorError(f"zero denominator in {text!r}") from None
        except ValueError:
            raise BadFieldSpecError(f"bad rational literal {text!r}") from None

    def format(self, a) -> str:
        return str(a)

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

