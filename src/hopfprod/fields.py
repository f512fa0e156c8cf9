"""Exact ground fields: the rationals and prime fields.

Every object in this package carries a field descriptor.  A rational value is
a plain ``int`` when it is integral and a reduced ``fractions.Fraction``
otherwise (arbitrary precision either way), so the integral structure
constants of group algebras never pay for ``Fraction`` arithmetic; values mod
p are plain ints in ``[0, p)``.  Mixing objects over different fields is an
error, checked by :func:`same_field`.
"""
from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(ValueError):
    """Two objects from different ground fields were combined."""


def _norm(x):
    """A rational value in normal form: ``int`` if integral, else ``Fraction``."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class Rationals:
    """The field of rational numbers.  Use the module singleton ``QQ``."""

    name = "rational"
    zero = 0
    one = 1

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def of(self, num, den=1):
        if den == 1 and type(num) is int:
            return num
        return _norm(Fraction(num, den))

    # add and mul inline _norm: they are the hot path of every evaluator
    def add(self, a, b):
        x = a + b
        if type(x) is int or x.denominator != 1:
            return x
        return x.numerator

    def sub(self, a, b):
        return _norm(a - b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        x = a * b
        if type(x) is int or x.denominator != 1:
            return x
        return x.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:  # its own inverse, as a plain int
            return int(a)
        return _norm(Fraction(1, a))  # not 1 / a, which is a float for an int

    def is_zero(self, a):
        return a == 0

    def to_pair(self, a):
        return a.numerator, a.denominator


# Miller-Rabin with these bases is exact below 3.3e24, so for every p < 2**64
_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic primality for 0 <= p < 2**64 (Miller-Rabin)."""
    if p < 2:
        return False
    for q in _WITNESS_PRIMES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_PRIMES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers mod a prime p < 2**64, values stored in [0, p)."""

    def __init__(self, p: int):
        if p >= 2**64:
            raise ValueError("modulus must be below 2**64")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"mod {p}"
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("mod", self.p))

    def of(self, num, den=1):
        return num * pow(den, -1, self.p) % self.p if den != 1 else num % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def to_pair(self, a):
        return a % self.p, 1


QQ = Rationals()


def same_field(*objs):
    """Return the common field of the given carriers, or raise.  Carriers
    that all hold one field object are answered by identity alone."""
    if objs:
        field = objs[0].field
        for obj in objs:
            if obj.field is not field:
                break
        else:
            return field
    fields = {obj.field for obj in objs}
    if len(fields) != 1:
        raise FieldMismatchError(f"mixed ground fields: {sorted(map(repr, fields))}")
    return next(iter(fields))
