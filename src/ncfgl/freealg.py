"""Graded free associative algebras with exact coefficients.

The algebra is the tensor algebra on generators indexed 1, 2, 3, ... with a
degree rule supplied by a :class:`GradingProfile`.  With the complex profile
(generator i in degree 2i) this is the algebra of non-symmetric functions:
its degree-2n component has one basis word per composition of n, hence
dimension 2^(n-1).  Elements are sparse mappings from words (tuples of
generator indices, the empty tuple being the unit) to nonzero scalars.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no coordination.
"""

from __future__ import annotations

from .errors import (
    DegenerateInputError,
    ModeMismatchError,
    ParameterError,
    UnsupportedInputError,
)
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


class FreeAlgebra:
    """Word-basis free associative algebra over one profile and scalar ring."""

    __slots__ = ("profile", "ring", "_word_cache")

    def __init__(self, profile: GradingProfile = COMPLEX, ring: ScalarRing = ZZ):
        self.profile = profile
        self.ring = ring
        self._word_cache = {}

    # -- basis ---------------------------------------------------------------

    def word_degree(self, word: Word) -> int:
        deg = self.profile.degree_of
        return sum(deg(i) for i in word)

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

    # -- element construction --------------------------------------------------

    def element(self, terms: dict) -> "FreeElement":
        ring = self.ring
        clean = {}
        for word, value in terms.items():
            value = value if not isinstance(value, int) else ring.of_int(value)
            if not ring.is_zero(value):
                clean[tuple(word)] = value
        return FreeElement(self, clean)

    def from_accumulator(self, acc: dict) -> "FreeElement":
        """The element held by an :func:`add_product` accumulator."""
        ring = self.ring
        if ring.mode == "fp":
            p = ring.prime
            terms = {word: r for word, value in acc.items() if (r := value % p)}
        else:
            terms = {word: value for word, value in acc.items() if value}
        return FreeElement(self, terms)

    def zero(self) -> "FreeElement":
        return FreeElement(self, {})

    def one(self) -> "FreeElement":
        return FreeElement(self, {(): self.ring.one})

    def gen(self, i: int) -> "FreeElement":
        self.profile.degree_of(i)  # validates the index
        return FreeElement(self, {(i,): self.ring.one})

    def monomial(self, word: Word, coeff=1) -> "FreeElement":
        return self.element({tuple(word): coeff})

    def from_data(self, data) -> "FreeElement":
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


class FreeElement:
    """A finite sum of words with nonzero scalar coefficients.

    Instances are immutable by convention: no method mutates ``self`` and the
    term mapping is never exposed for writing.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self._terms = terms

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, word: Word):
        return self._terms.get(tuple(word), self.algebra.ring.zero)

    def support(self):
        """Words with nonzero coefficient, in canonical term order."""
        return sorted(self._terms, key=self.algebra.term_key)

    def terms(self):
        """(word, coefficient) pairs in canonical term order."""
        return [(w, self._terms[w]) for w in self.support()]

    def __len__(self):
        return len(self._terms)

    def mutable_terms(self) -> dict:
        """A fresh word -> coefficient dict, for use as an accumulator."""
        return dict(self._terms)

    def homogeneous_components(self) -> dict:
        comps = {}
        for word, coeff in self._terms.items():
            comps.setdefault(self.algebra.word_degree(word), {})[word] = coeff
        return {
            d: FreeElement(self.algebra, part) for d, part in sorted(comps.items())
        }

    def is_homogeneous(self) -> bool:
        degrees = {self.algebra.word_degree(w) for w in self._terms}
        return len(degrees) <= 1

    def degree(self):
        """Degree of a homogeneous element; None for 0."""
        degrees = {self.algebra.word_degree(w) for w in self._terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise UnsupportedInputError("element is not homogeneous")
        return degrees.pop()

    # -- arithmetic --------------------------------------------------------------

    def _check_compatible(self, other: "FreeElement"):
        if self.algebra != other.algebra:
            raise ModeMismatchError(
                "operands live in different free algebras "
                f"({self.algebra!r} vs {other.algebra!r})"
            )

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check_compatible(other)
        ring = self.algebra.ring
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            acc = out.get(word)
            if acc is None:
                out[word] = coeff
            else:
                s = ring.add(acc, coeff)
                if ring.is_zero(s):
                    del out[word]
                else:
                    out[word] = s
        return FreeElement(self.algebra, out)

    def __neg__(self) -> "FreeElement":
        ring = self.algebra.ring
        return FreeElement(self.algebra, {w: ring.neg(c) for w, c in self._terms.items()})

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def scale(self, value) -> "FreeElement":
        """Multiply by a central scalar (an int or a ring value)."""
        ring = self.algebra.ring
        if isinstance(value, int):
            value = ring.of_int(value)
        if ring.is_zero(value):
            return FreeElement(self.algebra, {})
        out = {}
        for word, coeff in self._terms.items():
            c = ring.mul(value, coeff)
            if not ring.is_zero(c):
                out[word] = c
        return FreeElement(self.algebra, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        ring = self.algebra.ring
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                c = ring.mul(c1, c2)
                acc = out.get(word)
                if acc is None:
                    out[word] = c
                else:
                    s = ring.add(acc, c)
                    if ring.is_zero(s):
                        del out[word]
                    else:
                        out[word] = s
        return FreeElement(self.algebra, {w: c for w, c in out.items() if not ring.is_zero(c)})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "FreeElement":
        if n < 0:
            raise ParameterError("negative powers are not defined")
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.algebra == other.algebra
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self._terms.items())))

    # -- presentation ---------------------------------------------------------

    def to_data(self):
        """Ordered list of {"word": [...], "coeff": str} records."""
        ring = self.algebra.ring
        return [
            {"word": list(word), "coeff": ring.render(self._terms[word])}
            for word in self.support()
        ]

    def __str__(self):
        if not self._terms:
            return "0"
        ring = self.algebra.ring
        letter = self.algebra.profile.letter
        pieces = []
        for word in self.support():
            coeff = self._terms[word]
            negative = ring.mode != "fp" and coeff < 0
            mag = ring.render(ring.neg(coeff) if negative else coeff)
            body = "*".join(f"{letter}{i}" for i in word)
            if not word:
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


def add_product(acc: dict, left: FreeElement, right: FreeElement) -> None:
    """acc[w] += (left * right)[w] for every word w, in place.

    ``acc`` is a caller-owned word -> value dict, never an element's own
    terms.  Values are combined with plain ``+`` and ``*`` and left
    unreduced: zeros stay and an F_p residue may leave [0, p).
    :meth:`FreeAlgebra.from_accumulator` reduces them and drops the zeros.
    """
    get = acc.get
    right_terms = right._terms.items()
    for w1, c1 in left._terms.items():
        for w2, c2 in right_terms:
            word = w1 + w2
            acc[word] = get(word, 0) + c1 * c2


def commutator(a: FreeElement, b: FreeElement) -> FreeElement:
    """ab - ba."""
    return a * b - b * a


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
    target = algebra.words_of_degree(degree + w.degree())
    index = {word: r for r, word in enumerate(target)}
    ring = algebra.ring
    rows = [[ring.zero] * len(words) for _ in target]
    for col, word in enumerate(words):
        bracket = commutator(algebra.monomial(word), w)
        for tw, coeff in bracket._terms.items():
            rows[index[tw]][col] = coeff
    kernel = nullspace(rows, len(words), ring)
    return [
        algebra.element({words[i]: v for i, v in enumerate(vec)}) for vec in kernel
    ]


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
