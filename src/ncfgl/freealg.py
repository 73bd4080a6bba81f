"""Graded free associative algebras with exact coefficients.

The algebra is the tensor algebra on generators indexed 1, 2, 3, ... with a
degree rule supplied by a :class:`GradingProfile`.  With the complex profile
(generator i in degree 2i) this is the algebra of non-symmetric functions:
its degree-2n component has one basis word per composition of n, hence
dimension 2^(n-1).  Elements are sparse mappings from words to nonzero
scalars; their arithmetic and rendering are those of :mod:`ncfgl.lincomb`,
with words multiplied by concatenation: :meth:`FreeAlgebra.add_product`
concatenates inline, and every word product, of elements or of series
coefficients, runs that loop.  It runs the operand with more terms
innermost, so that the common product of a many-term coefficient with a
one-term one is one loop, not one loop per term; ``_add_commutator`` keeps
its order, since its callers already pass the longer side second.

A word is public as a tuple of generator indices, the empty tuple being the
unit, and stored as the ``bytes`` of those indices, so a letter lies in
1..255.  ``bytes`` iterates, indexes, slices and orders like the tuple of its
letters, so every rule on letters reads a stored word as it is; unlike a
tuple it caches its hash and is not tracked by the garbage collector, which
makes the dict lookups of the word-pair loop cheaper.
:meth:`FreeAlgebra.key_of` turns a tuple into a stored word, refusing a
letter that the profile lacks, and :meth:`~FreeAlgebra.public_key` turns it
back, at the key boundary of :mod:`ncfgl.lincomb`.

:func:`matrix_of` writes a linear map between spans of words as the matrix
that the exact elimination of :mod:`ncfgl.linalg` solves: one dict
``{column: nonzero value}`` per target word, so that no zero of these
few-percent-dense systems is ever stored.  It reads the map as stored terms,
a stored word in and a ``{stored word: coefficient}`` dict out, so building
a row re-keys no word and wraps no element.

The words of one degree depend only on the grading profile, so every algebra
over a profile reads them, stored, from one cache keyed by (profile, degree),
filled on first use and shared across algebras and scalar rings.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no coordination.
"""

from __future__ import annotations

from functools import cache

from .errors import DegenerateInputError, ParameterError, UnsupportedInputError
from .lincomb import LinearCombination, SparseAlgebra
from .linalg import nullspace
from .record import Record
from .scalars import ZZ, ScalarRing, value_repr

Word = tuple  # public word: a tuple of generator indices 1..255; () is the unit
MAX_LETTER = 255  # the largest letter a stored (bytes) word can hold


_GENERATOR_1_DEGREE = {"complex": 2, "real": 1}  # the one number of a built-in profile


class GradingProfile(Record):
    """Degree rule for the generator family.

    A built-in profile is the degree of generator 1 (``_GENERATOR_1_DEGREE``);
    generator i has i times that degree, and a series variable has it once.
    A custom profile carries an explicit finite degree sequence.
    """

    __slots__ = ("kind", "letter", "degrees")

    def __init__(self, kind: str, letter: str, degrees: tuple | None = None):
        if kind == "custom":
            degrees = tuple(degrees or ())
            if not degrees or any(d < 1 for d in degrees):
                raise ParameterError("custom profile needs positive degrees")
            if len(degrees) > MAX_LETTER:
                raise ParameterError(
                    f"custom profile has {len(degrees)} degrees; a word has letters 1..{MAX_LETTER}"
                )
        elif kind not in _GENERATOR_1_DEGREE:
            raise ParameterError(f"unknown profile kind {kind!r}")
        elif degrees is not None:
            raise ParameterError(f"{kind} profile takes no degree sequence")
        super().__init__(kind, letter, degrees)

    @classmethod
    def custom(cls, degrees, letter: str = "g") -> "GradingProfile":
        return cls("custom", letter, tuple(degrees))

    def degree_of(self, i: int) -> int:
        if i < 1:
            raise ParameterError(f"generator index must be >= 1, got {i}")
        degrees = self.degrees
        if degrees is None:
            return i * _GENERATOR_1_DEGREE[self.kind]
        if i > len(degrees):
            raise ParameterError(f"custom profile has {len(degrees)} generators")
        return degrees[i - 1]

    def generators_of_degree_at_most(self, d: int) -> list:
        if self.degrees is None:
            return list(range(1, d // _GENERATOR_1_DEGREE[self.kind] + 1))
        return [i for i, degree in enumerate(self.degrees, 1) if degree <= d]

    @property
    def variable_degree(self) -> int:
        """Topological degree of a central series variable over this profile."""
        if self.degrees is None:
            return _GENERATOR_1_DEGREE[self.kind]
        raise ParameterError("custom profiles must choose a variable degree explicitly")

    __hash__ = Record._hash


COMPLEX = GradingProfile("complex", "Z")
REAL = GradingProfile("real", "z")

def _word_key(word) -> bytes:
    """The stored form of a word: the bytes of its letters, each in 1..255.

    An int is refused before ``bytes`` sees it, since ``bytes(n)`` is a run of
    n zero bytes, not a word.
    """
    if isinstance(word, int):
        raise TypeError(f"a word is a sequence of generator indices, got {word!r}")
    try:
        key = bytes(word)
        if 0 not in key:
            return key
    except ValueError:  # a letter outside 0..255
        pass
    bad = next(i for i in word if not 1 <= i <= MAX_LETTER)
    if bad < 1:
        raise ParameterError(f"generator index must be >= 1, got {bad}")
    raise ParameterError(f"generator index must be <= {MAX_LETTER}, got {bad}")


@cache
def _words(profile: GradingProfile, d: int) -> tuple:
    """The stored words of degree d over ``profile``, sorted by (length, letters)."""
    if d < 0:
        return ()
    if d == 0:
        return (b"",)
    out = []
    for i in profile.generators_of_degree_at_most(d):
        head = bytes((i,))
        for tail in _words(profile, d - profile.degree_of(i)):
            out.append(head + tail)
    out.sort(key=lambda w: (len(w), w))
    return tuple(out)


class FreeElement(LinearCombination):
    """A finite sum of words with nonzero scalar coefficients."""

    __slots__ = ()

    def to_data(self):
        """Ordered list of {"word": [...], "coeff": str} records."""
        ring = self.algebra.ring
        return [
            {"word": list(word), "coeff": ring.render(self._terms[word])}
            for word in self._sorted_keys()
        ]


class FreeAlgebra(SparseAlgebra):
    """Word-basis free associative algebra over one profile and scalar ring.

    Words multiply by concatenation; the empty word is the unit.  Words are
    stored as ``bytes`` and public as tuples (module docstring).
    """

    __slots__ = ("profile", "ring")
    element_class = FreeElement
    unit_key = b""
    public_key = staticmethod(tuple)
    key_mul = staticmethod(bytes.__add__)

    def __init__(self, profile: GradingProfile = COMPLEX, ring: ScalarRing = ZZ):
        super().__init__(profile, ring)

    # -- basis ---------------------------------------------------------------

    def key_of(self, word) -> bytes:
        """The stored word of ``word``, refusing a letter the profile lacks."""
        key = _word_key(word)
        if key:
            self.profile.degree_of(max(key))
        return key

    def word_degree(self, word: Word) -> int:
        deg = self.profile.degree_of
        return sum(deg(i) for i in word)

    key_degree = word_degree

    def words_of_degree(self, d: int) -> tuple:
        """All words of total degree d as tuples, sorted by (length, letters)."""
        return tuple(map(tuple, self._keys_of_degree(d)))

    def _keys_of_degree(self, d: int) -> tuple:
        """The stored words of :meth:`words_of_degree`; shared by every
        algebra over this profile."""
        return _words(self.profile, d)

    def dim(self, d: int) -> int:
        return len(self._keys_of_degree(d))

    def term_key(self, word: Word):
        """Canonical term order: by (degree, length, letters)."""
        return (self.word_degree(word), len(word), word)

    def render_key(self, word: Word) -> str:
        letter = self.profile.letter
        return "*".join(f"{letter}{i}" for i in word)

    def split_key(self, word: Word):
        """(first generator, rest of the word) of a word other than the unit."""
        return word[0], word[1:]

    # -- element construction --------------------------------------------------

    def gen(self, i: int) -> FreeElement:
        return self.monomial((i,))

    def from_data(self, data) -> FreeElement:
        """The element whose ``to_data()`` is ``data``; a record without a
        word or with a coefficient outside the ring, and a repeated word,
        are refused with ParameterError naming the record."""
        terms = {}
        for record in data:
            try:
                word, coeff = tuple(record["word"]), self.ring.parse(record["coeff"])
            except KeyError as exc:
                raise ParameterError(f"the term record {value_repr(record)} has no {exc}") from None
            except (TypeError, ParameterError) as exc:
                raise ParameterError(
                    f"cannot read the term record {value_repr(record)}: {exc}"
                ) from None
            if word in terms:
                raise ParameterError(f"the term record {value_repr(record)} repeats its word")
            terms[word] = coeff
        return self.element(terms)

    def __repr__(self):
        return f"FreeAlgebra({self.profile!r}, {self.ring!r})"

    def add_product(self, acc: dict, left: FreeElement, right: FreeElement) -> None:
        """acc[w] += (left * right)[w] for every word w, in place.

        The loop of :meth:`SparseAlgebra.add_product` with words concatenated
        inline, about 30 % cheaper per pair than a ``key_mul`` call.  The
        operand with more terms runs innermost (``right`` on a tie), so a
        one-term side starts one inner loop, not one per term of the other.
        Either way each pair adds ``c1 * c2`` at ``w1 + w2``, so every
        accumulator receives the same sums.
        """
        get = acc.get
        left_terms, right_terms = left._terms, right._terms
        if len(left_terms) > len(right_terms):
            left_terms = left_terms.items()
            for w2, c2 in right_terms.items():
                for w1, c1 in left_terms:
                    word = w1 + w2
                    acc[word] = get(word, 0) + c1 * c2
        else:
            right_terms = right_terms.items()
            for w1, c1 in left_terms.items():
                for w2, c2 in right_terms:
                    word = w1 + w2
                    acc[word] = get(word, 0) + c1 * c2


def _add_commutator(acc: dict, left, right) -> None:
    """acc[w] += [left, right][w] for every stored word w, in place and
    unreduced: each pair of terms (u, c1), (v, c2) of the two term views adds
    c1*c2 at u+v and subtracts it at v+u, so that no negated copy of either
    side is formed."""
    get = acc.get
    for u, c1 in left:
        for v, c2 in right:
            c = c1 * c2
            word = u + v
            acc[word] = get(word, 0) + c
            word = v + u
            acc[word] = get(word, 0) - c


def commutator(a: FreeElement, b: FreeElement) -> FreeElement:
    """ab - ba, by one loop over the pairs of terms of ``a`` and ``b``."""
    a._check_compatible(b)
    acc: dict = {}
    _add_commutator(acc, a._terms.items(), b._terms.items())
    return a.algebra.from_accumulator(acc)


def _bracket_terms(w: FreeElement):
    """stored word -> the stored terms ``{word: coefficient}`` of [word, w]:
    the loop of :func:`commutator` on the one term of the word, reduced in
    the ring and handed to :func:`matrix_of` with no element around it."""
    ring = w.algebra.ring
    one = ring.one
    terms = w._terms.items()

    def bracket(word):
        acc: dict = {}
        _add_commutator(acc, ((word, one),), terms)
        return ring.reduced(acc)

    return bracket


def matrix_of(term_map, source_words, target_words) -> list:
    """Dict rows of the matrix of a linear map between spans of words.

    ``term_map`` takes a stored word and returns the stored terms
    ``{stored word: nonzero coefficient}`` of its image, whose words must
    all lie in ``target_words``; column j holds the terms of
    ``term_map(source_words[j])``, and row i belongs to ``target_words[i]``
    and maps each column to its nonzero entry.  Both word lists hold stored
    words (``FreeAlgebra._keys_of_degree``), so no word is re-keyed and no
    element is built per column.
    """
    index = {word: r for r, word in enumerate(target_words)}
    rows = [{} for _ in target_words]
    for col, word in enumerate(source_words):
        for target, coeff in term_map(word).items():
            rows[index[target]][col] = coeff
    return rows


def centralizer_basis(w: FreeElement, degree: int) -> list:
    """Basis of the elements of one degree that commute with ``w``.

    Solves the linear system [v, w] = 0 over the word basis of the requested
    degree and returns the kernel in reduced echelon form with respect to the
    canonical word order (so the result is deterministic).
    """
    algebra = w.algebra
    if w.is_zero():
        raise DegenerateInputError("every element commutes with 0")
    if not w.is_homogeneous():
        raise UnsupportedInputError("centralizer solving needs a homogeneous element")
    words = algebra._keys_of_degree(degree)
    if not words:
        return []
    rows = matrix_of(_bracket_terms(w), words, algebra._keys_of_degree(degree + w.degree()))
    kernel = nullspace(rows, len(words), algebra.ring)
    return [algebra._wrap({words[j]: x for j, x in vec.items()}) for vec in kernel]


def random_homogeneous(algebra: FreeAlgebra, degree: int, rng, max_terms: int = 3) -> FreeElement:
    """Seeded random homogeneous element, used by the property runs."""
    words = algebra._keys_of_degree(degree)
    if not words:
        return algebra.zero()
    count = rng.randint(1, min(max_terms, len(words)))
    chosen = rng.sample(list(words), count)
    return algebra._wrap({w: algebra.ring.random_value(rng, nonzero=True) for w in chosen})
