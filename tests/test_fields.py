"""Field arithmetic: axioms, canonical forms, literals, error paths."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bmpoints.fields import (BadFieldSpecError, DivisionByZeroError,
                             NotPrimeError, ZeroDenominatorError, is_prime,
                             make_field)

F17 = make_field("q:17")
QQ = make_field("rational")

f17_elems = st.integers(min_value=0, max_value=16)
rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def test_make_field_specs():
    assert make_field("q:7").char == 7
    assert make_field("q:2").char == 2
    assert make_field("rational").char == 0
    assert make_field("q:2147483647").char == 2**31 - 1
    with pytest.raises(NotPrimeError):
        make_field("q:6")
    with pytest.raises(NotPrimeError):
        make_field("q:0")
    with pytest.raises(NotPrimeError):
        make_field("q:-3")
    with pytest.raises(BadFieldSpecError):
        make_field("q:2147483659")
    with pytest.raises(BadFieldSpecError):
        make_field("octonions")
    with pytest.raises(BadFieldSpecError):
        make_field("q:abc")


def _is_prime_trial(n: int) -> bool:
    """Trial division: the reference is_prime is checked against."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)


def test_is_prime_matches_trial_division():
    for n in range(20000):
        assert is_prime(n) == _is_prime_trial(n), n
    rng = random.Random(31)
    sample = [rng.randrange(2**30, 2**31) for _ in range(300)] + [2**31 - 1]
    # the least composites that pass the bases {2, 7}, {2, 61} and {7, 61},
    # so each base is needed, and strong pseudoprimes to 2 (and to 2, 3, 5)
    sample += [2269093, 916327, 79381, 2047, 1373653, 25326001]
    verdicts = [is_prime(n) for n in sample]
    assert verdicts == [_is_prime_trial(n) for n in sample]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("field,elems", [(F17, f17_elems), (QQ, rationals)],
                         ids=["q:17", "rational"])
class TestFieldAxioms:
    @given(data=st.data())
    def test_ring_axioms(self, field, elems, data):
        a = data.draw(elems)
        b = data.draw(elems)
        c = data.draw(elems)
        a, b, c = field.convert(a), field.convert(b), field.convert(c)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a
        assert field.add(a, field.neg(a)) == field.zero
        assert field.sub(a, b) == field.add(a, field.neg(b))

    @given(data=st.data())
    def test_inverses(self, field, elems, data):
        a = field.convert(data.draw(elems))
        if field.is_zero(a):
            with pytest.raises(DivisionByZeroError):
                field.inv(a)
        else:
            assert field.mul(a, field.inv(a)) == field.one
            assert field.div(field.one, a) == field.inv(a)

    @given(data=st.data())
    def test_convert_str_round_trip(self, field, elems, data):
        a = field.convert(data.draw(elems))
        assert field.convert(str(a)) == a


def test_prime_canonical_forms():
    F7 = make_field("q:7")
    assert F7.convert(-1) == 6
    assert F7.convert(20) == 6
    assert F7.convert(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert F7.convert("-3") == 4
    assert str(F7.convert(5)) == "5"
    with pytest.raises(BadFieldSpecError,
                       match="^bad prime-field literal '3/4'$"):
        F7.convert("3/4")
    with pytest.raises(BadFieldSpecError):
        F7.convert("pi")


def test_rational_convert():
    assert QQ.convert("-3/6") == Fraction(-1, 2)
    assert QQ.convert("4") == 4
    assert str(QQ.convert(Fraction(-3, 6))) == "-1/2"
    with pytest.raises(ZeroDenominatorError, match="^zero denominator in '1/0'$"):
        QQ.convert("1/0")
    with pytest.raises(BadFieldSpecError, match="^bad rational literal 'pi'$"):
        QQ.convert("pi")


def test_prime_inverse_against_pow():
    F = make_field("q:2147483647")
    p = F.char
    for a in (1, 2, 17, 65537, p - 1):
        assert F.inv(a) == pow(a, p - 2, p)
