"""Graded commutative polynomial algebras on an indexed generator family.

Used for the polynomial dual Steenrod algebra F_p[xi_1, xi_2, ...], for
polynomial coefficient algebras such as F_p[t_1, t_2, ...], and for small
symbolic algebras like F_p[w].  Monomials are stored as sorted tuples of
(generator index, exponent) pairs; the empty tuple is 1.  Elements are the
linear combinations of :mod:`ncfgl.lincomb`, with monomials multiplied by
adding exponents and raised to a power by multiplying them.

An algebra's degree rule is data: its ``kind`` names one of the two Milnor
families over F_p, whose degrees follow from the prime, or an explicit
finite degree sequence.
"""

from __future__ import annotations

from .errors import ParameterError
from .lincomb import LinearCombination, SparseAlgebra
from .scalars import ScalarRing

Monomial = tuple  # sorted tuple of (index, exponent) with exponent >= 1


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def frobenius(element: LinearCombination, q: int) -> LinearCombination:
    """element ** q over F_p, for q a power of p, in a commutative algebra.

    (sum_k c_k k)^q = sum_k c_k^q k^q because the cross terms of a p-th power
    vanish mod p, and c^q = c in F_p; so each key k becomes its power
    ``key_frobenius(k, q)`` and the coefficients stay.  Distinct keys stay
    distinct, so no terms combine.
    """
    p = element.algebra.ring.prime
    if not p:
        raise ParameterError("the Frobenius map needs coefficients in F_p")
    rest = q
    while rest > 1 and rest % p == 0:
        rest //= p
    if q < 1 or rest != 1:
        raise ParameterError(f"{q} is not a power of {p}")
    key_frobenius = element.algebra.key_frobenius
    return element.algebra._wrap({key_frobenius(key, q): c for key, c in element._terms.items()})


class CommElement(LinearCombination):
    """Sparse commutative polynomial."""

    __slots__ = ()

    def to_data(self):
        ring = self.algebra.ring
        return [
            {"monomial": [list(pair) for pair in mono], "coeff": ring.render(self._terms[mono])}
            for mono in self._sorted_keys()
        ]


# The kinds of commutative algebra; the two Milnor kinds live over F_p.
MILNOR_KINDS = ("dual-steenrod", "bp-homology")


class CommAlgebra(SparseAlgebra):
    """A polynomial algebra with a fixed degree per generator index.

    ``kind`` fixes the degree rule, so that algebras of different kinds never
    silently mix.  Over F_p, generator r of the ``"dual-steenrod"`` kind has
    degree 2(p^r - 1), or 2^r - 1 at p = 2, and of the ``"bp-homology"`` kind
    2(p^r - 1); an ``"explicit"`` algebra has the finitely many generators of
    its ``degrees``.
    """

    __slots__ = ("kind", "family", "ring", "degrees")
    element_class = CommElement
    key_mul = staticmethod(monomial_mul)

    @staticmethod
    def key_of(mono) -> Monomial:
        """A monomial in normal form: sorted by index, zero exponents dropped."""
        return tuple(sorted((i, e) for i, e in mono if e))

    def __init__(self, kind: str, family: str, ring: ScalarRing, degrees=None):
        if kind == "explicit":
            degrees = tuple(degrees or ())
            if not degrees or any(d < 1 for d in degrees):
                raise ParameterError("generator degrees must be positive")
        elif kind not in MILNOR_KINDS:
            raise ParameterError(f"unknown algebra kind {kind!r}")
        elif not ring.prime:
            raise ParameterError(f"the {kind} algebra lives over F_p, not {ring!r}")
        elif degrees is not None:
            raise ParameterError(f"the {kind} algebra takes no degree sequence")
        super().__init__(kind, family, ring, degrees)

    @classmethod
    def with_degrees(cls, family: str, degrees, ring: ScalarRing) -> "CommAlgebra":
        return cls("explicit", family, ring, degrees)

    def degree_of(self, i: int) -> int:
        degrees = self.degrees
        if i < 1 or (degrees is not None and i > len(degrees)):
            raise ParameterError(f"no generator of index {i} in {self.family}-family")
        if degrees is not None:
            return degrees[i - 1]
        p = self.ring.prime
        return (p ** i - 1) * (1 if p == 2 and self.kind == "dual-steenrod" else 2)

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * self.degree_of(i) for i, e in mono)

    key_degree = monomial_degree

    def term_key(self, mono: Monomial):
        """Canonical term order: by (degree, monomial)."""
        return (self.monomial_degree(mono), mono)

    @staticmethod
    def key_frobenius(mono: Monomial, q: int) -> Monomial:
        """The monomial mono^q."""
        return tuple((i, e * q) for i, e in mono)

    def render_key(self, mono: Monomial) -> str:
        family = self.family
        return "*".join(f"{family}{i}" if e == 1 else f"{family}{i}^{e}" for i, e in mono)

    def split_key(self, mono: Monomial):
        """(lowest generator, the rest) of a monomial other than 1."""
        (i, e), rest = mono[0], mono[1:]
        return i, (((i, e - 1),) + rest if e > 1 else rest)

    # -- element construction --------------------------------------------------

    def gen(self, i: int) -> CommElement:
        self.degree_of(i)
        return self._wrap({((i, 1),): self.ring.one})

    def __repr__(self):
        return f"CommAlgebra({self.family!r}, {self.ring!r})"
