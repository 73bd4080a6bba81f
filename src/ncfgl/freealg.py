"""Graded free associative algebras with exact coefficients.

The algebra is the tensor algebra on generators indexed 1, 2, 3, ... with a
degree rule supplied by a :class:`GradingProfile`.  With the complex profile
(generator i in degree 2i) this is the algebra of non-symmetric functions:
its degree-2n component has one basis word per composition of n, hence
dimension 2^(n-1).  Elements are sparse mappings from words (tuples of
generator indices, the empty tuple being the unit) to nonzero scalars; their
arithmetic and rendering are those of :mod:`ncfgl.lincomb`, with words
multiplied by concatenation: :meth:`FreeAlgebra.add_product` concatenates
inline, and every word product, of elements or of series coefficients, runs
that loop.  :func:`matrix_of` writes a linear map between spans of words as
the matrix that the exact elimination of :mod:`ncfgl.linalg` solves: one dict
``{column: nonzero value}`` per target word, so that no zero of these
few-percent-dense systems is ever stored.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no coordination.
"""

from __future__ import annotations

from .errors import DegenerateInputError, ParameterError, UnsupportedInputError
from .lincomb import LinearCombination, SparseAlgebra
from .linalg import nullspace
from .scalars import ZZ, ScalarRing

Word = tuple  # tuple of positive generator indices; () is the unit monomial


class GradingProfile:
    """Degree rule for the generator family.

    The complex profile puts generator i in degree 2i, the real profile in
    degree i.  A custom profile carries an explicit finite degree sequence.
    """

    __slots__ = ("kind", "letter", "degrees")

    def __init__(self, kind: str, letter: str, degrees: tuple | None = None):
        if kind not in ("complex", "real", "custom"):
            raise ParameterError(f"unknown profile kind {kind!r}")
        if kind == "custom":
            if not degrees or any(d < 1 for d in degrees):
                raise ParameterError("custom profile needs positive degrees")
            degrees = tuple(degrees)
        elif degrees is not None:
            raise ParameterError(f"{kind} profile takes no degree sequence")
        self.kind = kind
        self.letter = letter
        self.degrees = degrees

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

    def __eq__(self, other):
        return (
            isinstance(other, GradingProfile)
            and (self.kind, self.letter, self.degrees)
            == (other.kind, other.letter, other.degrees)
        )

    def __hash__(self):
        return hash((self.kind, self.letter, self.degrees))

    def __repr__(self):
        return f"GradingProfile({self.kind!r})"


COMPLEX = GradingProfile("complex", "Z")
REAL = GradingProfile("real", "z")


def _check_letters(word: Word) -> None:
    """Refuse a word with a letter below 1, in one pass over the word."""
    if word and (least := min(word)) < 1:
        raise ParameterError(f"generator index must be >= 1, got {least}")


class FreeElement(LinearCombination):
    """A finite sum of words with nonzero scalar coefficients."""

    __slots__ = ()

    def to_data(self):
        """Ordered list of {"word": [...], "coeff": str} records."""
        ring = self.algebra.ring
        return [
            {"word": list(word), "coeff": ring.render(self._terms[word])}
            for word in self.support()
        ]


class FreeAlgebra(SparseAlgebra):
    """Word-basis free associative algebra over one profile and scalar ring.

    Words multiply by concatenation; the empty word is the unit.
    """

    __slots__ = ("profile", "ring", "_word_cache")
    element_class = FreeElement
    key_mul = staticmethod(tuple.__add__)

    def __init__(self, profile: GradingProfile = COMPLEX, ring: ScalarRing = ZZ):
        self.profile = profile
        self.ring = ring
        self._word_cache = {}

    # -- basis ---------------------------------------------------------------

    def word_degree(self, word: Word) -> int:
        deg = self.profile.degree_of
        return sum(deg(i) for i in word)

    key_degree = word_degree

    def words_of_degree(self, d: int) -> tuple:
        """All words of total degree d, sorted by (length, letters)."""
        if d < 0:
            return ()
        cached = self._word_cache.get(d)
        if cached is not None:
            return cached
        if d == 0:
            words = ((),)
        else:
            out = []
            deg = self.profile.degree_of
            for i in self.profile.generators_of_degree_at_most(d):
                for tail in self.words_of_degree(d - deg(i)):
                    out.append((i,) + tail)
            out.sort(key=lambda w: (len(w), w))
            words = tuple(out)
        self._word_cache[d] = words
        return words

    def dim(self, d: int) -> int:
        return len(self.words_of_degree(d))

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

    def element(self, terms: dict) -> FreeElement:
        """The element with these coefficients; a word with a letter below 1
        is refused with ParameterError."""
        for word in terms:
            _check_letters(word)
        return super().element(terms)

    def monomial(self, word, coeff=1) -> FreeElement:
        """coeff * word, refused like a word of :meth:`element`; built
        directly, since every column of :func:`matrix_of` starts here."""
        word = tuple(word)
        _check_letters(word)
        value = self.ring.coerce(coeff)
        return self._wrap({word: value} if value else {})

    def gen(self, i: int) -> FreeElement:
        self.profile.degree_of(i)  # validates the index
        return self._wrap({(i,): self.ring.one})

    def from_data(self, data) -> FreeElement:
        return self.element({tuple(rec["word"]): self.ring.parse(rec["coeff"]) for rec in data})

    def __eq__(self, other):
        return (
            isinstance(other, FreeAlgebra)
            and self.profile == other.profile
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.profile, self.ring))

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
    ``target_words[i]`` and maps each column to its nonzero entry.
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
    words = algebra.words_of_degree(degree)
    if not words:
        return []
    rows = matrix_of(commutator_map(w), words, algebra.words_of_degree(degree + w.degree()))
    kernel = nullspace(rows, len(words), algebra.ring)
    return [algebra.element({words[j]: x for j, x in vec.items()}) for vec in kernel]


def random_homogeneous(algebra: FreeAlgebra, degree: int, rng, max_terms: int = 3) -> FreeElement:
    """Seeded random homogeneous element, used by the property runs."""
    words = algebra.words_of_degree(degree)
    if not words:
        return algebra.zero()
    count = rng.randint(1, min(max_terms, len(words)))
    chosen = rng.sample(list(words), count)
    return algebra.element(
        {w: algebra.ring.random_value(rng, nonzero=True) for w in chosen}
    )
