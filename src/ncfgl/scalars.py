"""Exact coefficient arithmetic over Z, Q, or a prime field F_p.

Values are stored as plain ``int`` in integer mode and as residues in
``[0, p)`` over F_p.  In rational mode a value is stored as an ``int`` exactly
when it is an integer and as a ``fractions.Fraction`` (in lowest terms, with
positive denominator and denominator > 1) otherwise, by :func:`stored_rational`:
integral work over Q, such as every formal group law table, then runs on int
arithmetic.  A :class:`ScalarRing` carries the arithmetic so that the sparse
containers built on top stay lightweight and hashable; its methods take and
return stored values.  This module alone states the stored form: every sum,
product and scaling of the sparse elements of :mod:`ncfgl.lincomb` and
:mod:`ncfgl.series` is added into a key -> value accumulator with plain ``+``
and ``*``, and :meth:`ScalarRing.reduced` turns the accumulator into stored
values once.  The element readers that hand a coefficient to a caller
(:meth:`~ncfgl.lincomb.LinearCombination.coefficient` and ``terms``) return it
through :meth:`ScalarRing.public`, so every rational coefficient a caller reads
is a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ModeMismatchError, ParameterError
from .record import Record

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to the thirteen bases above (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017); it is 1287836182261 * 2575672364521.
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41.

    Exact for every n below :data:`PRIMALITY_BOUND` = psi_13 ~ 3.3e24; larger
    n are refused with ParameterError before any round, since no proof covers
    them and a round on a number of thousands of digits takes seconds.
    """
    if n < 2:
        return False
    if n >= PRIMALITY_BOUND:
        raise ParameterError(
            f"primality is decided only below {PRIMALITY_BOUND}, the least strong "
            "pseudoprime to the bases 2..41"
        )
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def stored_rational(value):
    """The stored form of an exact rational (an ``int`` or a ``Fraction``):
    its numerator when it is an integer, else the ``Fraction`` itself."""
    return value.numerator if value.denominator == 1 else value


class ScalarRing(Record):
    """One global coefficient ring per computation: Z, Q, or F_p."""

    __slots__ = ("mode", "prime")

    def __init__(self, mode: str, prime: int | None = None):
        if mode not in ("integer", "rational", "fp"):
            raise ParameterError(f"unknown scalar mode {mode!r}")
        if mode == "fp":
            if prime is None or not is_prime(prime):
                raise ParameterError(f"prime-field modulus must be prime, got {prime!r}")
        elif prime is not None:
            raise ParameterError(f"scalar mode {mode!r} takes no modulus")
        super().__init__(mode, prime)

    # -- value construction -------------------------------------------------

    def of_int(self, n: int):
        return n % self.prime if self.mode == "fp" else n

    def coerce(self, value):
        """Accept an int in every mode, a Fraction in rational mode."""
        if isinstance(value, bool):
            raise ParameterError("bool is not a scalar")
        if isinstance(value, int):
            return self.of_int(value)
        if isinstance(value, Fraction) and self.mode == "rational":
            return stored_rational(value)
        raise ModeMismatchError(f"cannot coerce {value!r} into {self!r}")

    def parse(self, text: str):
        """Inverse of :meth:`render`, for deserialization."""
        if self.mode == "rational":
            return stored_rational(Fraction(text))
        return self.of_int(int(text))

    def public(self, value):
        """A stored value as callers read it: a ``Fraction`` in rational mode."""
        return Fraction(value) if self.mode == "rational" else value

    # -- arithmetic ----------------------------------------------------------

    @property
    def zero(self):
        return self.of_int(0)

    @property
    def one(self):
        return self.of_int(1)

    def reduced(self, acc: dict) -> dict:
        """The nonzero stored values of a key -> unreduced-sum accumulator, by
        one dict comprehension per ring, so that Z and integral Q run a plain
        int loop with no call per term."""
        p = self.prime
        if p:
            return {key: r for key, value in acc.items() if (r := value % p)}
        if self.mode == "rational":
            return {key: stored_rational(value) for key, value in acc.items() if value}
        return {key: value for key, value in acc.items() if value}

    def _reduce(self, value):
        """The stored form of one sum or product of stored values."""
        return self.reduced({0: value}).get(0, 0)

    def add(self, a, b):
        return self._reduce(a + b)

    def neg(self, a):
        return self._reduce(-a)

    def mul(self, a, b):
        return self._reduce(a * b)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("scalar 0 is not invertible")
        if self.mode == "fp":
            return pow(a, self.prime - 2, self.prime)
        if self.mode == "rational":
            return stored_rational(1 / Fraction(a))
        if a in (1, -1):
            return a
        raise ParameterError(f"{a} is not invertible over the integers")

    def is_zero(self, a) -> bool:
        return a == 0

    @property
    def is_field(self) -> bool:
        return self.mode != "integer"

    # -- misc ----------------------------------------------------------------

    def random_value(self, rng, nonzero: bool = False):
        """Small random scalar, for seeded property runs."""
        if self.mode == "fp":
            lo = 1 if nonzero else 0
            return rng.randint(lo, self.prime - 1)
        num = rng.randint(-4, 4)
        while nonzero and num == 0:
            num = rng.randint(-4, 4)
        if self.mode == "rational":
            return stored_rational(Fraction(num, rng.randint(1, 4)))
        return num

    def render(self, a) -> str:
        return str(a)

    __hash__ = Record._hash

    def __repr__(self):
        if self.mode == "fp":
            return f"GF({self.prime})"
        return "ZZ" if self.mode == "integer" else "QQ"


ZZ = ScalarRing("integer")
QQ = ScalarRing("rational")


def GF(p: int) -> ScalarRing:
    """The prime field F_p (p is checked for primality)."""
    return ScalarRing("fp", p)
