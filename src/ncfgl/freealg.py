"""Graded free associative algebras with exact coefficients.

The algebra is the tensor algebra on generators indexed 1, 2, 3, ... with a
degree rule supplied by a :class:`GradingProfile`.  With the complex profile
(generator i in degree 2i) this is the algebra of non-symmetric functions:
its degree-2n component has one basis word per composition of n, hence
dimension 2^(n-1).  Elements are sparse mappings from words to nonzero
scalars; their arithmetic and rendering are those of :mod:`ncfgl.lincomb`,
with words multiplied by concatenation: :meth:`FreeAlgebra.add_product`
concatenates inline, and every word product, of elements or of series
coefficients, runs that loop.

A word is public as a tuple of generator indices, the empty tuple being the
unit, and stored as the ``bytes`` of those indices, so a letter lies in
1..255.  ``bytes`` iterates, indexes, slices and orders like the tuple of its
letters, so every rule on letters reads a stored word as it is; unlike a
tuple it caches its hash and is not tracked by the garbage collector, which
makes the dict lookups of the word-pair loop cheaper.
:meth:`FreeAlgebra.key_of` turns a tuple into a stored word and
:meth:`~FreeAlgebra.public_key` turns it back, at the key boundary of
:mod:`ncfgl.lincomb`.

:func:`matrix_of` writes a linear map between spans of words as the matrix
that the exact elimination of :mod:`ncfgl.linalg` solves: one dict
``{column: nonzero value}`` per target word, so that no zero of these
few-percent-dense systems is ever stored.

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
from .scalars import ZZ, ScalarRing

Word = tuple  # public word: a tuple of generator indices 1..255; () is the unit
MAX_LETTER = 255  # the largest letter a stored (bytes) word can hold


class GradingProfile(Record):
    """Degree rule for the generator family.

    The complex profile puts generator i in degree 2i, the real profile in
    degree i.  A custom profile carries an explicit finite degree sequence.
    """

    __slots__ = ("kind", "letter", "degrees")

    def __init__(self, kind: str, letter: str, degrees: tuple | None = None):
        if kind not in ("complex", "real", "custom"):
            raise ParameterError(f"unknown profile kind {kind!r}")
        if kind == "custom":
            degrees = tuple(degrees or ())
            if not degrees or any(d < 1 for d in degrees):
                raise ParameterError("custom profile needs positive degrees")
            if len(degrees) > MAX_LETTER:
                raise ParameterError(
                    f"custom profile has {len(degrees)} degrees; a word has letters 1..{MAX_LETTER}"
                )
        elif degrees is not None:
            raise ParameterError(f"{kind} profile takes no degree sequence")
        super().__init__(kind, letter, degrees)

    @classmethod
    def custom(cls, degrees, letter: str = "g") -> "GradingProfile":
        return cls("custom", letter, tuple(degrees))

    def degree_of(self, i: int) -> int:
        if i < 1:
            raise ParameterError(f"generator index must be >= 1, got {i}")
        if self.kind == "complex":
            return 2 * i
        if self.kind == "real":
            return i
        if i > len(self.degrees):
            raise ParameterError(f"custom profile has {len(self.degrees)} generators")
        return self.degrees[i - 1]

    def generators_of_degree_at_most(self, d: int) -> list:
        if self.kind == "complex":
            return list(range(1, d // 2 + 1))
        if self.kind == "real":
            return list(range(1, d + 1))
        return [i for i in range(1, len(self.degrees) + 1) if self.degrees[i - 1] <= d]

    @property
    def variable_degree(self) -> int:
        """Topological degree of a central series variable over this profile."""
        if self.kind == "complex":
            return 2
        if self.kind == "real":
            return 1
        raise ParameterError("custom profiles must choose a variable degree explicitly")

    __hash__ = Record._hash

    def __repr__(self):
        return f"GradingProfile({self.kind!r})"


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
    key_of = staticmethod(_word_key)
    public_key = staticmethod(tuple)
    key_mul = staticmethod(bytes.__add__)

    def __init__(self, profile: GradingProfile = COMPLEX, ring: ScalarRing = ZZ):
        super().__init__(profile, ring)

    # -- basis ---------------------------------------------------------------

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

    def monomial(self, word, coeff=1) -> FreeElement:
        """coeff * word, refused like a word of :meth:`element`; built
        directly, since every column of :func:`matrix_of` starts here."""
        word = _word_key(word)
        value = self.ring.coerce(coeff)
        return self._wrap({word: value} if value else {})

    def gen(self, i: int) -> FreeElement:
        self.profile.degree_of(i)  # validates the index
        return self._wrap({_word_key((i,)): self.ring.one})

    def from_data(self, data) -> FreeElement:
        return self.element({tuple(rec["word"]): self.ring.parse(rec["coeff"]) for rec in data})

    def __repr__(self):
        return f"FreeAlgebra({self.profile!r}, {self.ring!r})"

    def add_product(self, acc: dict, left: FreeElement, right: FreeElement) -> None:
        """acc[w] += (left * right)[w] for every word w, in place.

        The loop of :meth:`SparseAlgebra.add_product` with words concatenated
        inline, about 30 % cheaper per pair than a ``key_mul`` call.
        """
        get = acc.get
        right_terms = right._terms.items()
        for w1, c1 in left._terms.items():
            for w2, c2 in right_terms:
                word = w1 + w2
                acc[word] = get(word, 0) + c1 * c2


def commutator(a: FreeElement, b: FreeElement) -> FreeElement:
    """ab - ba, both products added into one accumulator."""
    a._check_compatible(b)
    acc: dict = {}
    a.algebra.add_product(acc, a, b)
    a.algebra.add_product(acc, -b, a)
    return a.algebra.from_accumulator(acc)


def commutator_map(w: FreeElement):
    """word -> [word, w], the linear map whose kernel is the centralizer of ``w``."""
    monomial = w.algebra.monomial
    return lambda word: commutator(monomial(word), w)


def matrix_of(linear_map, source_words, target_words) -> list:
    """Dict rows of the matrix of a linear map between spans of words.

    Column j holds the coefficients of ``linear_map(source_words[j])``, an
    element whose words must all lie in ``target_words``; row i belongs to
    ``target_words[i]`` and maps each column to its nonzero entry.  The
    target words are stored words (``FreeAlgebra._keys_of_degree``).
    """
    index = {word: r for r, word in enumerate(target_words)}
    rows = [{} for _ in target_words]
    for col, word in enumerate(source_words):
        for target, coeff in linear_map(word)._terms.items():
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
    rows = matrix_of(commutator_map(w), words, algebra._keys_of_degree(degree + w.degree()))
    kernel = nullspace(rows, len(words), algebra.ring)
    return [algebra.element({words[j]: x for j, x in vec.items()}) for vec in kernel]


def random_homogeneous(algebra: FreeAlgebra, degree: int, rng, max_terms: int = 3) -> FreeElement:
    """Seeded random homogeneous element, used by the property runs."""
    words = algebra._keys_of_degree(degree)
    if not words:
        return algebra.zero()
    count = rng.randint(1, min(max_terms, len(words)))
    chosen = rng.sample(list(words), count)
    return algebra.element(
        {w: algebra.ring.random_value(rng, nonzero=True) for w in chosen}
    )
