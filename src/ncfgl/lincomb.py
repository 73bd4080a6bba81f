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

Keys, like coefficients, have a stored form and a public one.  The algebra's
:meth:`~SparseAlgebra.key_of` turns a public key into the stored key, and
:meth:`~SparseAlgebra.public_key` turns it back: :meth:`SparseAlgebra.element`,
:meth:`~SparseAlgebra.monomial` and :meth:`LinearCombination.coefficient` take
public keys, and :meth:`LinearCombination.support` and
:meth:`~LinearCombination.terms` hand them out.  Every other method, the
accumulators and rendering included, works on stored keys; for the free
algebra these are ``bytes`` words and the public keys are tuples.

Coefficients are held in the ring's stored form, which
:meth:`ScalarRing.reduced <ncfgl.scalars.ScalarRing.reduced>` alone produces:
over Q an integral value is an ``int``, so integral rational work runs the
same int loops as Z.  :meth:`LinearCombination.coefficient` and
:meth:`LinearCombination.terms` hand each value out through
:meth:`ScalarRing.public`, so a caller reads every rational coefficient as a
``Fraction``; :meth:`LinearCombination.mutable_terms` alone returns stored
values, as an accumulator for :meth:`SparseAlgebra.from_accumulator`.

Elements are :class:`~ncfgl.record.Record` values: assigning or deleting an
attribute raises AttributeError, and every operation is a pure function of
its inputs.
"""

from __future__ import annotations

from .errors import ModeMismatchError, ParameterError, UnsupportedInputError
from .record import Record


class SparseAlgebra(Record):
    """The parent of linear combinations over ``self.ring``: a hashable record.

    Subclasses declare their fields, set ``element_class`` and ``ring`` and
    supply the basis:

    * ``key_of(key)`` -- the stored key of a public key, refusing a key that
      names no basis element with ParameterError;
    * ``public_key(key)`` -- the public key of a stored key; the identity
      unless overridden;
    * ``key_mul(a, b)`` -- the key of the product of two basis elements;
    * ``term_key(key)`` -- the sort key of the canonical term order;
    * ``render_key(key)`` -- the text of a key, ``""`` for the unit key;
    * ``key_degree(key)`` -- the degree of a basis element, for the graded
      algebras whose elements are asked for degrees;
    * ``key_frobenius(key, q)`` -- the key of a basis element's q-th power,
      in the commutative algebras that :func:`~ncfgl.commalg.frobenius` maps
      (any other algebra refuses).

    Every hook but ``key_of`` takes stored keys.  :meth:`add_product` adds a
    product, and :meth:`add_multiple` a scalar multiple, into a stored key ->
    value accumulator with plain ``+`` and ``*``;
    :meth:`from_accumulator` turns one into an element.
    """

    __slots__ = ()
    __hash__ = Record._hash
    unit_key = ()

    @staticmethod
    def public_key(key):
        return key

    def _wrap(self, terms: dict):
        """An element over ``terms`` as they are: reduced and nonzero.

        Sets the two fields through their slot descriptors, which skips the
        argument handling of ``Record.__init__`` on this hot path."""
        element = _new(self.element_class)
        _set_algebra(element, self)
        _set_terms(element, terms)
        return element

    def element(self, terms: dict):
        """The element with these coefficients, each coerced into the ring,
        at the stored keys of these keys."""
        coerce = self.ring.coerce
        key_of = self.key_of
        clean = {}
        for key, value in terms.items():
            key = key_of(key)
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


class LinearCombination(Record):
    """A finite sum of basis keys with nonzero scalar coefficients.

    A record on (algebra, stored terms): equal when both agree, hashable,
    and refusing assignment.  The term mapping is never exposed for writing.
    An element pickles as ``algebra._wrap(terms)``, so that a subclass may
    take other constructor arguments.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: SparseAlgebra, terms: dict):
        super().__init__(algebra, algebra.element(terms)._terms)

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key):
        """The coefficient at a public key; 0 at a key that no stored key
        matches, such as a word with a letter above 255."""
        algebra = self.algebra
        try:
            key = algebra.key_of(key)
        except ParameterError:
            return algebra.ring.public(0)
        return algebra.ring.public(self._terms.get(key, 0))

    def _sorted_keys(self):
        """Stored keys with nonzero coefficient, in canonical term order."""
        return sorted(self._terms, key=self.algebra.term_key)

    def support(self):
        """Public keys with nonzero coefficient, in canonical term order."""
        return list(map(self.algebra.public_key, self._sorted_keys()))

    def terms(self):
        """(public key, coefficient) pairs in canonical term order."""
        algebra = self.algebra
        public_key, public, terms = algebra.public_key, algebra.ring.public, self._terms
        return [(public_key(key), public(terms[key])) for key in self._sorted_keys()]

    def __len__(self):
        return len(self._terms)

    def mutable_terms(self) -> dict:
        """A fresh stored key -> coefficient dict, for use as an accumulator.

        It holds the stored keys and values, not the ones :meth:`terms` reads:
        a free-algebra word is ``bytes`` and an integral rational an ``int``
        here.  Such a dict goes back
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

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    def __reduce__(self):
        return self.algebra._wrap, (self._terms,)

    # -- presentation ---------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        ring = self.algebra.ring
        render_key = self.algebra.render_key
        signed = ring.prime is None
        pieces = []
        for key in self._sorted_keys():
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


_new = object.__new__
_set_algebra = LinearCombination.algebra.__set__
_set_terms = LinearCombination._terms.__set__
