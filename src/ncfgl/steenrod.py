"""Mod-p dual Steenrod algebra (polynomial part) and right actions.

Provides the Milnor coproduct psi(xi_n) = sum xi_{n-i}^{p^i} (x) xi_i, the
antipode chi (whose values zeta_r = chi(xi_r) are the conjugate generators),
the dual-basis pairing <P^k, xi_1^k> = 1, the coaction of the dual Steenrod
algebra on the polynomial algebra F_p[t_1, t_2, ...] with deg t_r = 2p^r - 2,
right actions a.theta = sum <theta, a'> a'', the Cartan rule for extending a
generator action table over products, the induced action on the free algebra
generators, and two finite obstruction certificates built from these actions
by exact linear algebra; tensors are sums over a :class:`TensorAlgebra`.

Only the polynomial (even) part of the dual Steenrod algebra is modelled; the
exterior generators at odd primes are never needed by the computations here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _iproduct
from math import comb

from .commalg import CommAlgebra, CommElement, frobenius
from .errors import (
    IncompleteTableError,
    ModeMismatchError,
    ParameterError,
    UnsupportedInputError,
)
from .freealg import (
    COMPLEX,
    REAL,
    FreeAlgebra,
    FreeElement,
    centralizer_basis,
    commutator,
    matrix_of,
)
from .lincomb import LinearCombination, SparseAlgebra
from .linalg import affine_solve
from .scalars import GF, is_prime


def lucas_binomial(m: int, k: int, p: int) -> int:
    """C(m, k) mod p by the base-p digit rule; m, k >= 0 and p prime."""
    if m < 0 or k < 0:
        raise ParameterError("binomial arguments must be nonnegative")
    if not is_prime(p):
        raise ParameterError(f"the digit rule needs a prime modulus, got {p}")
    result = 1
    while k:
        m, md = divmod(m, p)
        k, kd = divmod(k, p)
        if kd > md:
            return 0
        result = result * comb(md, kd) % p
    return result % p


@dataclass(frozen=True)
class MilnorOp:
    """P^k at an odd prime, or Sq^k at p = 2; index 0 is the identity."""

    prime: int
    kind: str
    index: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ParameterError(f"{self.prime} is not prime")
        if self.kind == "P":
            if self.prime == 2:
                raise ParameterError("use Sq^k at p = 2")
        elif self.kind == "Sq":
            if self.prime != 2:
                raise ParameterError("Sq^k lives at p = 2")
        else:
            raise ParameterError(f"unknown operation kind {self.kind!r}")
        if self.index < 0:
            raise ParameterError("operation index must be nonnegative")

    @property
    def degree(self) -> int:
        if self.kind == "P":
            return 2 * self.index * (self.prime - 1)
        return self.index

    def __str__(self):
        return f"{self.kind}^{self.index}"


# -- the two standing polynomial algebras -------------------------------------


def dual_steenrod(p: int) -> CommAlgebra:
    """F_p[xi_1, xi_2, ...] with deg xi_r = 2(p^r - 1), or 2^r - 1 at p = 2."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if p == 2:
        degree = lambda r: 2 ** r - 1
    else:
        degree = lambda r: 2 * (p ** r - 1)
    return CommAlgebra(("dual-steenrod", p), "xi", degree, GF(p))


def bp_homology(p: int) -> CommAlgebra:
    """F_p[t_1, t_2, ...] with deg t_r = 2p^r - 2."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    return CommAlgebra(("bp-homology", p), "t", lambda r: 2 * p ** r - 2, GF(p))


# -- tensor square ------------------------------------------------------------


class TensorElement(LinearCombination):
    """Finite sum of (left tensor right) terms in bilinear normal form.

    The left factor lives in a dual Steenrod algebra; the right factor in any
    polynomial algebra or free algebra over the same prime field.  All factors
    sit in even degrees (or p = 2), so multiplication carries no signs.
    """

    __slots__ = ()

    def __init__(self, left_algebra, right_carrier, terms: dict):
        parent = TensorAlgebra(left_algebra, right_carrier)
        super().__init__(parent, parent.element(terms)._terms)

    @property
    def left_algebra(self):
        return self.algebra.left

    @property
    def right_carrier(self):
        return self.algebra.right

    @classmethod
    def tensor(cls, a: CommElement, b) -> "TensorElement":
        terms = {(lm, rm): lc * rc for lm, lc in a.terms() for rm, rc in b.terms()}
        return cls(a.algebra, b.algebra, terms)

    @classmethod
    def unit(cls, left_algebra, right_carrier) -> "TensorElement":
        return TensorAlgebra(left_algebra, right_carrier).one()

    def pair_left(self, op: MilnorOp):
        """Contract the left factor against a Milnor operation."""
        dual = _dual_monomial(op)
        return self.algebra.right._wrap(
            {rm: coeff for (lm, rm), coeff in self._terms.items() if lm == dual}
        )


class TensorAlgebra(SparseAlgebra):
    """The tensor product of two algebras over one ring, on (left, right) keys.

    Keys multiply factorwise and sort by the left factor's order, then the
    right factor's.
    """

    __slots__ = ("left", "right", "ring")
    element_class = TensorElement
    unit_key = ((), ())

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.ring = left.ring

    def key_mul(self, a, b):
        return (self.left.key_mul(a[0], b[0]), self.right.key_mul(a[1], b[1]))

    def term_key(self, key):
        return (self.left.term_key(key[0]), self.right.term_key(key[1]))

    def render_key(self, key) -> str:
        left = self.left.render_key(key[0]) or "1"
        right = self.right.render_key(key[1]) or "1"
        return f"({left} (x) {right})"

    def __eq__(self, other):
        return (
            isinstance(other, TensorAlgebra)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"TensorAlgebra({self.left!r}, {self.right!r})"


def _dual_monomial(op: MilnorOp):
    """xi_1^k: <P^k, xi_1^k> = 1 (likewise Sq^k at p = 2), and the pairing
    is zero on every other monomial."""
    return ((1, op.index),) if op.index else ()


def milnor_pair(op: MilnorOp, a: CommElement):
    """Linear extension of the dual-basis pairing; returns a scalar."""
    algebra = a.algebra
    if algebra.key != ("dual-steenrod", op.prime):
        raise UnsupportedInputError("pairing is defined on dual Steenrod elements")
    return a.coefficient(_dual_monomial(op))


# -- coproduct, counit, antipode ------------------------------------------------

_PSI_CACHE: dict = {}
_CHI_CACHE: dict = {}


def _multiplicative(a: CommElement, target: SparseAlgebra, image) -> LinearCombination:
    """The algebra map into ``target`` sending generator i to image(i), at ``a``."""
    out = target.zero()
    for mono, coeff in a.terms():
        term = target.one()
        for i, e in mono:
            term = term * image(i) ** e
        out = out + term.scale(coeff)
    return out


def _xi_coproduct(p: int, n: int) -> TensorElement:
    cached = _PSI_CACHE.get((p, n))
    if cached is not None:
        return cached
    algebra = dual_steenrod(p)
    terms = {}
    for i in range(n + 1):
        left = () if i == n else ((n - i, p ** i),)
        right = () if i == 0 else ((i, 1),)
        terms[(left, right)] = 1
    psi = TensorAlgebra(algebra, algebra).element(terms)
    _PSI_CACHE[(p, n)] = psi
    return psi


def coproduct(a: CommElement) -> TensorElement:
    """psi(xi_n) = sum_{i} xi_{n-i}^{p^i} (x) xi_i, extended multiplicatively."""
    algebra = a.algebra
    if algebra.key[0] != "dual-steenrod":
        raise UnsupportedInputError("coproduct is defined on dual Steenrod elements")
    p = algebra.ring.prime
    return _multiplicative(a, TensorAlgebra(algebra, algebra), lambda i: _xi_coproduct(p, i))


def counit(a: CommElement):
    """Coefficient of the empty monomial."""
    return a.coefficient(())


def antipode(a: CommElement) -> CommElement:
    """Hopf antipode chi, from chi(xi_n) = -sum_{i>=1} chi(xi_{n-i})^{p^i} xi_i."""
    algebra = a.algebra
    if algebra.key[0] != "dual-steenrod":
        raise UnsupportedInputError("antipode is defined on dual Steenrod elements")
    p = algebra.ring.prime
    return _multiplicative(a, algebra, lambda i: _chi_generator(p, i))


def _chi_generator(p: int, n: int) -> CommElement:
    cached = _CHI_CACHE.get((p, n))
    if cached is not None:
        return cached
    algebra = dual_steenrod(p)
    if n == 0:
        value = algebra.one()
    else:
        total = algebra.zero()
        for i in range(1, n + 1):
            total = total + frobenius(_chi_generator(p, n - i), p ** i) * algebra.gen(i)
        value = -total
    _CHI_CACHE[(p, n)] = value
    return value


def conjugate_generator(p: int, r: int) -> CommElement:
    """zeta_r = chi(xi_r)."""
    return _chi_generator(p, r) if r else dual_steenrod(p).one()


# -- coaction on F_p[t_1, t_2, ...] ----------------------------------------------


def bp_coaction(a: CommElement) -> TensorElement:
    """psi(t_n) = sum_{k=0}^{n} zeta_k (x) t_{n-k}^{p^k}, extended multiplicatively."""
    algebra = a.algebra
    if algebra.key[0] != "bp-homology":
        raise UnsupportedInputError("this coaction acts on t-polynomials")
    p = algebra.ring.prime
    if p == 2:
        raise UnsupportedInputError("the displayed coaction is the odd-prime form")
    steenrod = dual_steenrod(p)
    return _multiplicative(
        a, TensorAlgebra(steenrod, algebra), lambda n: _t_coaction(p, n, steenrod, algebra)
    )


def _t_coaction(p, n, steenrod, algebra) -> TensorElement:
    total = TensorAlgebra(steenrod, algebra).zero()
    for k in range(n + 1):
        zeta = conjugate_generator(p, k)
        t_part = algebra.one() if n == k else algebra.gen(n - k) ** (p ** k)
        total = total + TensorElement.tensor(zeta, t_part)
    return total


# -- right actions ----------------------------------------------------------------


def right_action(a, op: MilnorOp):
    """a . theta = sum <theta, a'> a'' over the registered coaction of ``a``."""
    if isinstance(a, FreeElement):
        return nsym_action(op, a)
    if isinstance(a, CommElement):
        tag = a.algebra.key[0]
        if tag == "bp-homology":
            return bp_coaction(a).pair_left(op)
        if tag == "dual-steenrod":
            return coproduct(a).pair_left(op)
        raise UnsupportedInputError(
            f"no registered coaction for the {a.algebra.family!r} family"
        )
    raise UnsupportedInputError(f"no registered coaction for {type(a).__name__}")


class GeneratorActionTable:
    """Images of generators under P^k (or Sq^k) for one algebra.

    Entries are keyed by (operation index, generator index); index zero is the
    identity and is never stored.  :func:`cartan_extend` raises when a needed
    entry is missing, naming the generator and the index.
    """

    __slots__ = ("carrier", "kind", "prime", "entries")

    def __init__(self, carrier, kind: str, prime: int, entries: dict):
        self.carrier = carrier
        self.kind = kind
        self.prime = prime
        self.entries = dict(entries)

    def image(self, k: int, gen_index: int):
        if k == 0:
            return self.carrier.gen(gen_index)
        try:
            return self.entries[(k, gen_index)]
        except KeyError:
            raise IncompleteTableError(
                f"table has no entry for generator {gen_index} under index {k}"
            ) from None


def cartan_extend(table: GeneratorActionTable, a, op: MilnorOp):
    """Extend a generator action over products: (uv).P^k = sum (u.P^i)(v.P^j).

    For k = 1 this is the derivation rule.  Works uniformly for commutative
    polynomials and for words of a free algebra (where the factor order of the
    Cartan sum is preserved).
    """
    if op.kind != table.kind or op.prime != table.prime:
        raise ModeMismatchError("operation does not match the action table")
    carrier = table.carrier
    if a.algebra != carrier:
        raise ModeMismatchError("element does not live over the table's algebra")
    zero = carrier.zero()
    memo: dict = {}

    def act(key, k):
        if k == 0:
            return carrier.monomial(key)
        if not key:
            return zero
        cached = memo.get((key, k))
        if cached is not None:
            return cached
        first, rest = carrier.split_key(key)
        total = zero
        for i in range(k + 1):
            img = table.image(i, first)
            if img.is_zero():
                continue
            tail = act(rest, k - i)
            if tail.is_zero():
                continue
            total = total + img * tail
        memo[(key, k)] = total
        return total

    result = zero
    for key, coeff in a.terms():
        result = result + act(key, op.index).scale(coeff)
    return result


# -- the induced action on the free algebra ------------------------------------------


def _generator_image(algebra: FreeAlgebra, op: MilnorOp, k: int, i: int) -> FreeElement:
    """Image of generator i under the index-k operation, from the projective
    family action C(m, k) dual rule with the unit convention for index 0."""
    p = op.prime
    if algebra.profile.kind == "complex":
        if op.kind == "P":
            shift = k * (p - 1)
        else:
            # at p = 2 only the even squares can act for degree reasons
            if k % 2:
                return algebra.zero()
            shift = k // 2
        target = i - shift
        coeff = 0 if target < 0 else lucas_binomial(target + 1, k if op.kind == "P" else shift, p)
    else:
        target = i - k
        coeff = 0 if target < 0 else lucas_binomial(target + 1, k, p)
    if target < 0 or coeff == 0:
        return algebra.zero()
    base = algebra.one() if target == 0 else algebra.gen(target)
    return base.scale(coeff)


def nsym_action(op: MilnorOp, a: FreeElement) -> FreeElement:
    """Right Steenrod action on free-algebra elements via the Cartan rule."""
    algebra = a.algebra
    if not isinstance(algebra, FreeAlgebra):
        raise UnsupportedInputError("nsym_action acts on free-algebra elements")
    ring = algebra.ring
    if ring.mode != "fp" or ring.prime != op.prime:
        raise ModeMismatchError("element must live over F_p for the acting prime")
    kind = algebra.profile.kind
    if kind == "real" and op.prime != 2:
        raise UnsupportedInputError("the real profile carries an action only at p = 2")
    if kind not in ("real", "complex"):
        raise UnsupportedInputError("no derived action for custom profiles")
    letters = sorted({i for word in a.support() for i in word})
    entries = {
        (k, letter): _generator_image(algebra, op, k, letter)
        for letter in letters
        for k in range(1, op.index + 1)
    }
    table = GeneratorActionTable(algebra, op.kind, op.prime, entries)
    return cartan_extend(table, a, op)


# -- obstruction certificates ----------------------------------------------------------


@dataclass
class ObstructionCertificate:
    """Finite linear-algebra certificate that a constraint system is empty.

    ``verdict`` is INFEASIBLE exactly when ``solutions`` is empty; each entry
    of ``systems`` records one affine solve (degree of the unknowns, number of
    unknowns, rank of the constraint matrix).
    """

    prime: int
    candidates: list
    systems: list
    solutions: list
    verdict: str
    centralizers: dict = field(default_factory=dict)

    @property
    def infeasible(self) -> bool:
        return self.verdict == "INFEASIBLE"

    def to_data(self):
        return {
            "prime": self.prime,
            "candidates": list(self.candidates),
            "systems": [dict(s) for s in self.systems],
            "solutions": list(self.solutions),
            "verdict": self.verdict,
            "centralizers": {k: list(v) for k, v in self.centralizers.items()},
        }

    def __str__(self):
        lines = [f"obstruction certificate at p = {self.prime}: {self.verdict}"]
        for c in self.candidates:
            lines.append(f"  candidate: {c}")
        for s in self.systems:
            lines.append(
                f"  system in degree {s['degree']}: {s['dimension']} unknowns, rank {s['rank']}"
            )
        for key, basis in self.centralizers.items():
            lines.append(f"  centralizer of {key}: {{{', '.join(basis)}}}")
        if self.solutions:
            for s in self.solutions:
                lines.append(f"  solution: {s}")
        else:
            lines.append("  no solutions")
        return "\n".join(lines)


def _acting(algebra, op):
    """word -> op applied to the word, as a map for :func:`matrix_of`."""
    return lambda word: nsym_action(op, algebra.monomial(word))


def _commuting(w: FreeElement):
    """word -> [word, w], as a map for :func:`matrix_of`."""
    return lambda word: commutator(w.algebra.monomial(word), w)


def _column(element: FreeElement, target_words) -> list:
    """The coefficients of ``element`` on ``target_words``, as a right-hand side."""
    return [coeff for coeff, in matrix_of(lambda _: element, [()], target_words)]


def _solve(systems: list, degree: int, words, rows, rhs, ring):
    """Solve rows * x = rhs over the ``words`` of one degree; record the system."""
    particular, kernel, rank = affine_solve(rows, rhs, len(words), ring)
    systems.append({"degree": degree, "dimension": len(words), "rank": rank})
    return particular, kernel


def _solution_record(candidate: FreeElement, words, particular, kernel) -> dict:
    """The solutions of a consistent system, written as elements."""

    def written(vec):
        return str(candidate.algebra.element(dict(zip(words, vec))))

    return {
        "candidate": str(candidate),
        "particular": written(particular),
        "kernel": [written(vec) for vec in kernel],
    }


# Largest word basis the bp certificate solves densely over.
DENSE_WORD_BUDGET = 4096


def bp_obstruction_certificate(p: int) -> ObstructionCertificate:
    """Certify that no algebra map can send t_1, t_2 compatibly into the
    complex-profile free algebra over F_p.

    Stage one solves P^1 w = -1 in degree 2p - 2 and enumerates the affine
    candidate set.  Stage two, for each candidate w, solves the stacked linear
    system [v, w] = 0, P^p v = 0, P^1 v = -w^p over the degree 2(p^2 - 1)
    component and records that every candidate system is inconsistent.

    The degree 2(p^2 - 1) component has 2^(p^2 - 2) basis words (one per
    composition of p^2 - 1).  Primes whose component exceeds
    :data:`DENSE_WORD_BUDGET` are refused before any work: p = 3 needs 128
    words and runs in well under a second, p = 5 would need about 8.4 million.
    """
    if not is_prime(p) or p == 2:
        raise ParameterError("the certificate needs an odd prime")
    exponent = p * p - 2  # the component has 2^exponent words
    if exponent >= DENSE_WORD_BUDGET.bit_length():  # 2^exponent > DENSE_WORD_BUDGET
        raise ParameterError(
            f"p = {p} needs a dense solve over 2^{exponent} words, "
            f"above the budget of {DENSE_WORD_BUDGET}"
        )
    algebra = FreeAlgebra(COMPLEX, GF(p))
    ring = algebra.ring
    op1 = MilnorOp(p, "P", 1)
    opp = MilnorOp(p, "P", p)

    systems = []
    low_degree = 2 * p - 2
    W = algebra.words_of_degree(low_degree)
    rows = matrix_of(_acting(algebra, op1), W, algebra.words_of_degree(0))
    particular, kernel = _solve(systems, low_degree, W, rows, [ring.of_int(-1)], ring)
    if particular is None:
        return ObstructionCertificate(p, [], systems, [], "INFEASIBLE")

    base, *directions = (algebra.element(dict(zip(W, vec))) for vec in [particular] + kernel)
    candidates = [
        sum((d.scale(lam) for lam, d in zip(lambdas, directions)), base)
        for lambdas in _iproduct(range(p), repeat=len(kernel))
    ]

    high_degree = 2 * (p * p - 1)
    V = algebra.words_of_degree(high_degree)
    comm_targets = algebra.words_of_degree(high_degree + low_degree)
    pp_targets = algebra.words_of_degree(high_degree - opp.degree)
    p1_targets = algebra.words_of_degree(high_degree - op1.degree)
    action_rows = matrix_of(_acting(algebra, opp), V, pp_targets) + matrix_of(
        _acting(algebra, op1), V, p1_targets
    )

    solutions = []
    for w in candidates:
        rows = matrix_of(_commuting(w), V, comm_targets) + action_rows
        rhs = [0] * (len(comm_targets) + len(pp_targets)) + _column(-(w ** p), p1_targets)
        particular, kernel = _solve(systems, high_degree, V, rows, rhs, ring)
        if particular is not None:
            solutions.append(_solution_record(w, V, particular, kernel))
    verdict = "INFEASIBLE" if not solutions else "FEASIBLE"
    return ObstructionCertificate(p, [str(w) for w in candidates], systems, solutions, verdict)


def hf2_obstruction_certificate() -> ObstructionCertificate:
    """Certify the mod-2 obstruction over the real-profile free algebra.

    Stage one solves Sq^1 w = 1 in degree 1 (forcing w = z_1); stage two shows
    {v in degree 3 : [v, z_1] = 0, Sq^2 v = z_1, Sq^1 v = 0} is empty.  The
    degree-3 centralizer of z_1 is recorded alongside: it is spanned by z_1^3,
    whose nonzero Sq^1 image is what makes the system inconsistent.
    """
    algebra = FreeAlgebra(REAL, GF(2))
    ring = algebra.ring
    sq1 = MilnorOp(2, "Sq", 1)
    sq2 = MilnorOp(2, "Sq", 2)

    systems = []
    W = algebra.words_of_degree(1)
    rows = matrix_of(_acting(algebra, sq1), W, algebra.words_of_degree(0))
    particular, kernel = _solve(systems, 1, W, rows, [ring.one], ring)
    if particular is None:
        return ObstructionCertificate(2, [], systems, [], "INFEASIBLE")
    if kernel:
        raise ParameterError("degree-1 solve was expected to be unique")
    w = algebra.element(dict(zip(W, particular)))

    centralizer = centralizer_basis(w, 3)
    V = algebra.words_of_degree(3)
    comm_targets = algebra.words_of_degree(4)
    sq2_targets = algebra.words_of_degree(1)
    sq1_targets = algebra.words_of_degree(2)
    rows = (
        matrix_of(_commuting(w), V, comm_targets)
        + matrix_of(_acting(algebra, sq2), V, sq2_targets)
        + matrix_of(_acting(algebra, sq1), V, sq1_targets)
    )
    rhs = [0] * len(comm_targets) + _column(w, sq2_targets) + [0] * len(sq1_targets)
    particular, kernel = _solve(systems, 3, V, rows, rhs, ring)
    solutions = [] if particular is None else [_solution_record(w, V, particular, kernel)]
    verdict = "INFEASIBLE" if not solutions else "FEASIBLE"
    return ObstructionCertificate(
        2,
        [str(w)],
        systems,
        solutions,
        verdict,
        centralizers={str(w): [str(b) for b in centralizer]},
    )
