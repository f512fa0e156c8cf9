import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfprod.fields import QQ, FieldMismatchError, PrimeField, Rationals, is_prime, same_field


def test_rationals_always_reduced():
    x = QQ.of(2, 4)
    assert x == Fraction(1, 2)
    assert QQ.to_pair(x) == (1, 2)
    assert QQ.to_pair(QQ.of(-3, -6)) == (1, 2)
    assert QQ.to_pair(QQ.of(3, -6)) == (-1, 2)


def test_rational_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        a = QQ.of(rng.randrange(-9, 10), rng.randrange(1, 9))
        b = QQ.of(rng.randrange(-9, 10), rng.randrange(1, 9))
        c = QQ.of(rng.randrange(-9, 10), rng.randrange(1, 9))
        assert QQ.add(a, QQ.neg(a)) == QQ.zero
        assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
        if not QQ.is_zero(a):
            assert QQ.mul(a, QQ.inv(a)) == QQ.one


def test_rational_inverse_of_plus_or_minus_one_is_a_plain_int():
    for a in (1, -1):
        assert QQ.inv(a) == a and type(QQ.inv(a)) is int
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert QQ.inv(-2) == Fraction(-1, 2)


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.add(5, 4) == 2
    assert f7.neg(3) == 4
    assert f7.mul(f7.of(3), f7.inv(3)) == 1
    assert f7.of(10, 5) == 2
    assert f7.to_pair(f7.of(-1)) == (6, 1)


def test_prime_field_axioms_random():
    rng = random.Random(2)
    f = PrimeField(11)
    for _ in range(200):
        a, b, c = (rng.randrange(11) for _ in range(3))
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_primality_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))

    for n in range(-3, 20000):
        assert is_prime(n) == by_trial_division(n), n
    # strong pseudoprimes to every prime base up to 17, and up to 23
    for n in (341550071728321, 3825123056546413051):
        assert not is_prime(n)
    for p in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime(p)
    assert not is_prime((2**31 - 1) * (2**31 - 1))


def test_modulus_bound():
    assert PrimeField(2**64 - 59).p == 2**64 - 59
    for p in (2**64, 2**67 - 1, 10**400):
        with pytest.raises(ValueError, match="below 2"):
            PrimeField(p)


def test_field_equality_and_mismatch():
    assert QQ == Rationals()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)

    class Carrier:
        def __init__(self, field):
            self.field = field

    assert same_field(Carrier(QQ), Carrier(QQ)) == QQ
    # distinct but equal field objects are one field
    f5, twin = PrimeField(5), PrimeField(5)
    assert same_field(Carrier(f5), Carrier(twin), Carrier(f5)) == f5
    with pytest.raises(FieldMismatchError,
                       match=r"^mixed ground fields: \['GF\(5\)', 'QQ'\]$"):
        same_field(Carrier(QQ), Carrier(PrimeField(5)))
    with pytest.raises(FieldMismatchError,
                       match=r"^mixed ground fields: \['GF\(5\)', 'GF\(7\)'\]$"):
        same_field(Carrier(f5), Carrier(f5), Carrier(PrimeField(7)))


# ---------------------------------------------------------------------------
# QQ values are ints when integral: property tests against Fraction

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

nums = st.integers(-10**30, 10**30) | st.integers(-12, 12)
dens = st.integers(1, 10**30) | st.integers(1, 12)
nonzero_dens = dens | dens.map(lambda d: -d)


def assert_normal(x, want: Fraction):
    """x equals want, and is an int exactly when want is integral."""
    assert x == want
    assert type(x) is (int if want.denominator == 1 else Fraction), (x, want)


@PROPERTY
@given(nums, nonzero_dens)
def test_rationals_of_is_normal(num, den):
    assert_normal(QQ.of(num, den), Fraction(num, den))
    assert_normal(QQ.of(num), Fraction(num))
    # an integral record is returned as it is, with no Fraction built
    assert QQ.of(num) is num and QQ.of(num, 1) is num
    assert_normal(QQ.of(Fraction(num, den)), Fraction(num, den))
    assert_normal(QQ.of(num * den, den), Fraction(num))


@PROPERTY
@given(nums, nonzero_dens, nums, nonzero_dens)
def test_rationals_arithmetic_matches_fraction(n1, d1, n2, d2):
    a, b = QQ.of(n1, d1), QQ.of(n2, d2)
    fa, fb = Fraction(n1, d1), Fraction(n2, d2)
    assert_normal(QQ.add(a, b), fa + fb)
    assert_normal(QQ.sub(a, b), fa - fb)
    assert_normal(QQ.neg(a), -fa)
    assert_normal(QQ.mul(a, b), fa * fb)
    assert QQ.is_zero(a) == (fa == 0)
    assert QQ.to_pair(a) == (fa.numerator, fa.denominator)
    if fa:
        assert_normal(QQ.inv(a), 1 / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


def test_rationals_fixed_points():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert_normal(QQ.inv(2), Fraction(1, 2))
    assert_normal(QQ.inv(QQ.of(1, 2)), Fraction(2))
    assert_normal(QQ.inv(-1), Fraction(-1))
    assert_normal(QQ.mul(QQ.of(2, 3), QQ.of(3, 2)), Fraction(1))
    assert_normal(QQ.add(QQ.of(1, 2), QQ.of(1, 2)), Fraction(1))
    with pytest.raises(ZeroDivisionError):
        QQ.of(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_constants_are_plain_attributes():
    """zero and one are stored values, read without a call, and the field is
    equal to, and hashes like, any other descriptor of the same prime."""
    f7 = PrimeField(7)
    for name in ("zero", "one"):
        assert name in vars(f7) and not isinstance(getattr(PrimeField, name, None), property)
    assert (f7.zero, f7.one) == (0, 1)
    assert type(f7.zero) is int and type(f7.one) is int
    assert f7 == PrimeField(7) and hash(f7) == hash(PrimeField(7)) == hash(("mod", 7))
    assert f7 != PrimeField(5) and f7 != QQ
