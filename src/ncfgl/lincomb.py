"""Sparse linear combinations over one scalar ring: the shared element core.

Free-algebra elements, commutative polynomials and tensors are all finite
sums of basis keys (words, monomials, pairs of those) with nonzero
coefficients in a :class:`~ncfgl.scalars.ScalarRing`.  :class:`LinearCombination`
implements their arithmetic and rendering once; the :class:`SparseAlgebra` an
element lives in supplies the basis and forms every sum and product: its
:meth:`~SparseAlgebra.add_product` adds term pairs, and its
:meth:`~SparseAlgebra.add_multiple` the terms of one element times a scalar,
into an accumulator with plain ``+`` and ``*``, which
:meth:`~SparseAlgebra.from_accumulator` reduces once.  Every coefficient that
enters from outside goes through :meth:`ScalarRing.coerce`, so a scalar of one
ring never lands in another.

Coefficients are held in the ring's stored form, which
:meth:`ScalarRing.reduced <ncfgl.scalars.ScalarRing.reduced>` alone produces:
over Q an integral value is an ``int``, so integral rational work runs the
same int loops as Z.  :meth:`LinearCombination.coefficient` and
:meth:`LinearCombination.terms` hand each value out through
:meth:`ScalarRing.public`, so a caller reads every rational coefficient as a
``Fraction``; :meth:`LinearCombination.mutable_terms` alone returns stored
values, as an accumulator for :meth:`SparseAlgebra.from_accumulator`.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from .errors import ModeMismatchError, ParameterError, UnsupportedInputError


class SparseAlgebra:
    """The parent of linear combinations over ``self.ring``.

    Subclasses set ``element_class`` and ``ring``, define ``__eq__`` and
    ``__hash__``, and supply the basis:

    * ``key_mul(a, b)`` -- the key of the product of two basis elements;
    * ``term_key(key)`` -- the sort key of the canonical term order;
    * ``render_key(key)`` -- the text of a key, ``""`` for the unit key;
    * ``key_degree(key)`` -- the degree of a basis element, for the graded
      algebras whose elements are asked for degrees;
    * ``key_frobenius(key, q)`` -- the key of a basis element's q-th power,
      in the commutative algebras that :func:`~ncfgl.commalg.frobenius` maps
      (any other algebra refuses).

    :meth:`add_product` adds a product, and :meth:`add_multiple` a scalar
    multiple, into a key -> value accumulator with plain ``+`` and ``*``;
    :meth:`from_accumulator` turns one into an element.
    """

    __slots__ = ()
    unit_key = ()

    def _wrap(self, terms: dict):
        """An element over ``terms`` as they are: reduced and nonzero."""
        element = object.__new__(self.element_class)
        element.algebra = self
        element._terms = terms
        return element

    def element(self, terms: dict):
        """The element with these coefficients, each coerced into the ring."""
        coerce = self.ring.coerce
        clean = {}
        for key, value in terms.items():
            value = coerce(value)
            if value:
                clean[key] = value
        return self._wrap(clean)

    def add_product(self, acc: dict, left, right) -> None:
        """acc[k] += (left * right)[k] for every key k, in place and unreduced.

        ``acc`` is the caller's, never an element's own terms; zeros stay and
        an F_p residue may leave [0, p) until :meth:`from_accumulator`.
        """
        key_mul = self.key_mul
        get = acc.get
        right_terms = right._terms.items()
        for k1, c1 in left._terms.items():
            for k2, c2 in right_terms:
                key = key_mul(k1, k2)
                acc[key] = get(key, 0) + c1 * c2

    def add_multiple(self, acc: dict, scalar, element) -> None:
        """acc[k] += scalar * element[k] for every key k, in place and
        unreduced, like :meth:`add_product`; ``scalar`` is an int or a stored value."""
        get = acc.get
        for key, value in element._terms.items():
            acc[key] = get(key, 0) + scalar * value

    def key_frobenius(self, key, q):
        raise UnsupportedInputError("the Frobenius map needs a commutative algebra")

    def from_accumulator(self, acc: dict):
        """The element held by an accumulator of unreduced key -> value sums."""
        return self._wrap(self.ring.reduced(acc))

    def zero(self):
        return self._wrap({})

    def one(self):
        return self._wrap({self.unit_key: self.ring.one})

    def monomial(self, key, coeff=1):
        return self.element({tuple(key): coeff})


class LinearCombination:
    """A finite sum of basis keys with nonzero scalar coefficients.

    Instances are immutable by convention: no method mutates ``self`` and the
    term mapping is never exposed for writing.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: SparseAlgebra, terms: dict):
        self.algebra = algebra
        self._terms = algebra.element(terms)._terms

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key):
        return self.algebra.ring.public(self._terms.get(tuple(key), 0))

    def support(self):
        """Keys with nonzero coefficient, in canonical term order."""
        return sorted(self._terms, key=self.algebra.term_key)

    def terms(self):
        """(key, coefficient) pairs in canonical term order."""
        public = self.algebra.ring.public
        return [(key, public(self._terms[key])) for key in self.support()]

    def __len__(self):
        return len(self._terms)

    def mutable_terms(self) -> dict:
        """A fresh key -> coefficient dict, for use as an accumulator.

        It holds the stored values, not the ones :meth:`coefficient` reads:
        an integral rational is an ``int`` here.  Such a dict goes back
        through :meth:`SparseAlgebra.from_accumulator`.
        """
        return dict(self._terms)

    def homogeneous_components(self) -> dict:
        """The parts of each degree, by increasing degree."""
        comps = {}
        for key, coeff in self._terms.items():
            comps.setdefault(self.algebra.key_degree(key), {})[key] = coeff
        return {d: self.algebra._wrap(part) for d, part in sorted(comps.items())}

    def is_homogeneous(self) -> bool:
        return len({self.algebra.key_degree(key) for key in self._terms}) <= 1

    def degree(self):
        """Degree of a homogeneous element; None for 0."""
        degrees = {self.algebra.key_degree(key) for key in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise UnsupportedInputError("element is not homogeneous")
        return degrees.pop()

    # -- arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "LinearCombination"):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ModeMismatchError(
                "operands live in different algebras "
                f"({self.algebra!r} vs {other.algebra!r})"
            )

    def _combine(self, other: "LinearCombination", sign: int):
        """self + sign * other, added into a copy of self's terms and reduced once."""
        self._check_compatible(other)
        acc = dict(self._terms)
        self.algebra.add_multiple(acc, sign, other)
        return self.algebra.from_accumulator(acc)

    def __add__(self, other: "LinearCombination"):
        return self._combine(other, 1)

    def __sub__(self, other: "LinearCombination"):
        return self._combine(other, -1)

    def __neg__(self):
        return self.algebra.from_accumulator({key: -c for key, c in self._terms.items()})

    def scale(self, value):
        """Multiply by a central scalar (an int or a value of the ring)."""
        value = self.algebra.ring.coerce(value)
        if not value:
            return self.algebra.zero()
        return self.algebra.from_accumulator(
            {key: value * c for key, c in self._terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        acc: dict = {}
        self.algebra.add_product(acc, self, other)
        return self.algebra.from_accumulator(acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ParameterError("negative powers are not defined")
        result = self.algebra.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, LinearCombination)
            and self.algebra == other.algebra
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        ring = self.algebra.ring
        render_key = self.algebra.render_key
        signed = ring.prime is None
        pieces = []
        for key in self.support():
            coeff = self._terms[key]
            negative = signed and coeff < 0
            mag = ring.render(-coeff if negative else coeff)
            body = render_key(key)
            if not body:
                text = mag
            elif mag == "1":
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(("-" if negative else "") + text)
            else:
                pieces.append(("- " if negative else "+ ") + text)
        return " ".join(pieces)

    def __repr__(self):
        return f"<{self}>"
