"""Exact coefficient arithmetic over Z, Q, or a prime field F_p.

Values are stored as plain ``int`` in integer mode and as residues in
``[0, p)`` over F_p.  In rational mode a value is stored as an ``int`` exactly
when it is an integer and as a ``fractions.Fraction`` (in lowest terms, with
positive denominator and denominator > 1) otherwise, by :func:`stored_rational`:
integral work over Q, such as every formal group law table, then runs on int
arithmetic.  A :class:`ScalarRing` names the ring, so that the sparse
containers built on top stay lightweight and hashable, and states the stored
form by one protocol, in this module alone.  :meth:`ScalarRing.of_int`,
:meth:`ScalarRing.coerce` and :meth:`ScalarRing.parse` turn outside input
into stored values.  Every sum, product and scaling of the sparse elements of
:mod:`ncfgl.lincomb` and :mod:`ncfgl.series` is added into a key -> value
accumulator with plain ``+`` and ``*``, and :meth:`ScalarRing.reduced` turns
the accumulator into stored values once.  The element readers that hand a
coefficient to a caller (:meth:`~ncfgl.lincomb.LinearCombination.coefficient`
and ``terms``) return it through :meth:`ScalarRing.public`, so every rational
coefficient a caller reads is a ``Fraction``.

:mod:`fractions`, which also loads :mod:`decimal` and :mod:`numbers`, is
imported by :func:`fraction_type` on first use, where a rational value is
built or tested, so that integral and modular work never loads it.
"""

from __future__ import annotations

from .errors import ModeMismatchError, ParameterError
from .record import Record

_FRACTION = None  # fractions.Fraction once fraction_type() has imported it


def fraction_type():
    """``fractions.Fraction``, imported on the first call only: the one
    place where the toolkit imports it."""
    global _FRACTION
    if _FRACTION is None:
        from fractions import Fraction

        _FRACTION = Fraction
    return _FRACTION


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


def value_repr(value) -> str:
    """``repr(value)`` for a refusal message, or the value's type where the
    repr cannot be built: Python refuses to write an int past its limit on
    int-to-text conversion (4 300 digits by default) with ValueError."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


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
        if self.mode == "rational" and isinstance(value, fraction_type()):
            return stored_rational(value)
        raise ModeMismatchError(f"cannot coerce {value_repr(value)} into {self!r}")

    def parse(self, text: str):
        """Inverse of :meth:`render`, for deserialization: only the text that
        :meth:`render` writes for a value is read, and anything else is
        refused with ParameterError.  That refuses text which ``int`` or
        ``Fraction`` would read, such as ``1_000``, ``" 7"``, ``1.5`` or
        ``1e3``, and text of a value written otherwise, such as ``"7"`` over
        GF(5), ``"2/4"`` over Q, ``"007"`` or ``"-0"``."""
        if isinstance(text, str):
            try:
                if self.mode == "rational":
                    value = stored_rational(fraction_type()(text))
                else:
                    value = self.of_int(int(text))
            except (ValueError, ZeroDivisionError):
                pass
            else:
                if self.render(value) == text:
                    return value
        raise ParameterError(f"cannot parse {value_repr(text)} as a scalar of {self!r}")

    def public(self, value):
        """A stored value as callers read it: a ``Fraction`` in rational mode."""
        return fraction_type()(value) if self.mode == "rational" else value

    # -- the stored form -----------------------------------------------------

    @property
    def one(self):
        return self.of_int(1)

    def reduced(self, acc: dict) -> dict:
        """The nonzero stored values of a key -> unreduced-sum accumulator.

        Takes ownership of ``acc``: over Z, and over Q when every value is an
        ``int``, an accumulator that holds no zero is already in stored form
        and is returned itself, found by scans that run in C.  Otherwise one
        dict comprehension per ring builds the stored values, so that Z and
        integral Q run a plain int loop with no call per term.  The caller
        must not read or write ``acc`` afterwards."""
        p = self.prime
        if p:
            return {key: r for key, value in acc.items() if (r := value % p)}
        values = acc.values()
        if self.mode == "rational":
            if 0 not in values and set(map(type, values)) == {int}:
                return acc
            return {key: stored_rational(value) for key, value in acc.items() if value}
        if 0 not in values:
            return acc
        return {key: value for key, value in acc.items() if value}

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
            return stored_rational(fraction_type()(num, rng.randint(1, 4)))
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
