"""Mod-p dual Steenrod algebra (polynomial part) and right actions.

Provides the Milnor coproduct psi(xi_n) = sum xi_{n-i}^{p^i} (x) xi_i, the
antipode chi (whose values zeta_r = chi(xi_r) are the conjugate generators),
the dual-basis pairing <P^k, xi_1^k> = 1, the coaction of the dual Steenrod
algebra on the polynomial algebra F_p[t_1, t_2, ...] with deg t_r = 2p^r - 2,
right actions a.theta = sum <theta, a'> a'', the Cartan rule for extending a
generator action table over products, the induced action on the free algebra
generators, and two finite obstruction certificates built from these actions
by exact linear algebra.

Only the polynomial (even) part of the dual Steenrod algebra is modelled; the
exterior generators at odd primes are never needed by the computations here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _iproduct
from math import comb

from .commalg import CommAlgebra, CommElement, monomial_mul
from .errors import (
    IncompleteTableError,
    ModeMismatchError,
    ParameterError,
    UnsupportedInputError,
)
from .freealg import COMPLEX, REAL, FreeAlgebra, FreeElement, centralizer_basis
from .linalg import affine_solve
from .scalars import GF, is_prime


def lucas_binomial(m: int, k: int, p: int) -> int:
    """C(m, k) mod p by the base-p digit rule; m, k >= 0."""
    if m < 0 or k < 0:
        raise ParameterError("binomial arguments must be nonnegative")
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


class TensorElement:
    """Finite sum of (left tensor right) terms in bilinear normal form.

    The left factor lives in a dual Steenrod algebra; the right factor in any
    polynomial algebra or free algebra over the same prime field.  All factors
    sit in even degrees (or p = 2), so multiplication carries no signs.
    """

    __slots__ = ("left_algebra", "right_carrier", "_terms")

    def __init__(self, left_algebra, right_carrier, terms: dict):
        ring = left_algebra.ring
        self.left_algebra = left_algebra
        self.right_carrier = right_carrier
        self._terms = {k: v for k, v in terms.items() if not ring.is_zero(v)}

    @classmethod
    def tensor(cls, a: CommElement, b) -> "TensorElement":
        ring = a.algebra.ring
        terms = {}
        for lm, lc in a.terms():
            for rm, rc in b.terms():
                terms[(lm, rm)] = ring.mul(lc, rc)
        return cls(a.algebra, b.algebra, terms)

    @classmethod
    def unit(cls, left_algebra, right_carrier) -> "TensorElement":
        one = left_algebra.ring.one
        return cls(left_algebra, right_carrier, {((), ()): one})

    def is_zero(self) -> bool:
        return not self._terms

    def _check_compatible(self, other: "TensorElement"):
        if (
            self.left_algebra != other.left_algebra
            or self.right_carrier != other.right_carrier
        ):
            raise ModeMismatchError("tensor operands live over different carriers")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_compatible(other)
        ring = self.left_algebra.ring
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key)
            out[key] = coeff if acc is None else ring.add(acc, coeff)
        return TensorElement(self.left_algebra, self.right_carrier, out)

    def __neg__(self):
        ring = self.left_algebra.ring
        return TensorElement(
            self.left_algebra,
            self.right_carrier,
            {k: ring.neg(v) for k, v in self._terms.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "TensorElement":
        ring = self.left_algebra.ring
        if isinstance(value, int):
            value = ring.of_int(value)
        return TensorElement(
            self.left_algebra,
            self.right_carrier,
            {k: ring.mul(value, v) for k, v in self._terms.items()},
        )

    def _right_mul(self, k1, k2):
        if isinstance(self.right_carrier, FreeAlgebra):
            return k1 + k2
        return monomial_mul(k1, k2)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        self._check_compatible(other)
        ring = self.left_algebra.ring
        out = {}
        for (l1, r1), c1 in self._terms.items():
            for (l2, r2), c2 in other._terms.items():
                key = (monomial_mul(l1, l2), self._right_mul(r1, r2))
                c = ring.mul(c1, c2)
                acc = out.get(key)
                out[key] = c if acc is None else ring.add(acc, c)
        return TensorElement(self.left_algebra, self.right_carrier, out)

    def __pow__(self, n: int) -> "TensorElement":
        if n < 0:
            raise ParameterError("negative powers are not defined")
        result = TensorElement.unit(self.left_algebra, self.right_carrier)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.left_algebra == other.left_algebra
            and self.right_carrier == other.right_carrier
            and self._terms == other._terms
        )

    def terms(self):
        def sort_key(key):
            lm, rm = key
            if isinstance(self.right_carrier, FreeAlgebra):
                rkey = self.right_carrier.term_key(rm)
            else:
                rkey = (self.right_carrier.monomial_degree(rm), rm)
            return ((self.left_algebra.monomial_degree(lm), lm), rkey)

        return [(k, self._terms[k]) for k in sorted(self._terms, key=sort_key)]

    def pair_left(self, op: MilnorOp):
        """Contract the left factor against a Milnor operation."""
        ring = self.left_algebra.ring
        out = {}
        for (lm, rm), coeff in self._terms.items():
            value = _pair_monomial(op, lm, ring)
            if ring.is_zero(value):
                continue
            c = ring.mul(value, coeff)
            acc = out.get(rm)
            out[rm] = c if acc is None else ring.add(acc, c)
        return self.right_carrier.element(out)

    def __str__(self):
        if not self._terms:
            return "0"
        ring = self.left_algebra.ring
        pieces = []
        for (lm, rm), coeff in self.terms():
            left = str(self.left_algebra.monomial(lm))
            right = str(self.right_carrier.monomial(rm))
            c = ring.render(coeff)
            prefix = "" if c == "1" else f"{c}*"
            pieces.append(f"{prefix}({left} (x) {right})")
        return " + ".join(pieces)

    def __repr__(self):
        return f"<tensor {self}>"


def _pair_monomial(op: MilnorOp, mono, ring):
    """<P^k, xi_1^k> = 1 (likewise Sq^k at p = 2); zero on every other monomial."""
    if op.index == 0:
        return ring.one if mono == () else ring.zero
    return ring.one if mono == ((1, op.index),) else ring.zero


def milnor_pair(op: MilnorOp, a: CommElement):
    """Linear extension of the dual-basis pairing; returns a scalar."""
    algebra = a.algebra
    if algebra.key != ("dual-steenrod", op.prime):
        raise UnsupportedInputError("pairing is defined on dual Steenrod elements")
    ring = algebra.ring
    total = ring.zero
    for mono, coeff in a.terms():
        total = ring.add(total, ring.mul(_pair_monomial(op, mono, ring), coeff))
    return total


# -- coproduct, counit, antipode ------------------------------------------------

_PSI_CACHE: dict = {}
_CHI_CACHE: dict = {}


def _xi_coproduct(p: int, n: int) -> TensorElement:
    cached = _PSI_CACHE.get((p, n))
    if cached is not None:
        return cached
    algebra = dual_steenrod(p)
    terms = {}
    one = algebra.ring.one
    for i in range(n + 1):
        left = () if i == n else ((n - i, p ** i),)
        right = () if i == 0 else ((i, 1),)
        terms[(left, right)] = one
    psi = TensorElement(algebra, algebra, terms)
    _PSI_CACHE[(p, n)] = psi
    return psi


def coproduct(a: CommElement) -> TensorElement:
    """psi(xi_n) = sum_{i} xi_{n-i}^{p^i} (x) xi_i, extended multiplicatively."""
    algebra = a.algebra
    if algebra.key[0] != "dual-steenrod":
        raise UnsupportedInputError("coproduct is defined on dual Steenrod elements")
    p = algebra.ring.prime
    out = TensorElement(algebra, algebra, {})
    for mono, coeff in a.terms():
        term = TensorElement.unit(algebra, algebra)
        for i, e in mono:
            term = term * _xi_coproduct(p, i) ** e
        out = out + term.scale(coeff)
    return out


def counit(a: CommElement):
    """Coefficient of the empty monomial."""
    return a.coefficient(())


def antipode(a: CommElement) -> CommElement:
    """Hopf antipode chi, from chi(xi_n) = -sum_{i>=1} chi(xi_{n-i})^{p^i} xi_i."""
    algebra = a.algebra
    if algebra.key[0] != "dual-steenrod":
        raise UnsupportedInputError("antipode is defined on dual Steenrod elements")
    p = algebra.ring.prime
    out = algebra.zero()
    for mono, coeff in a.terms():
        term = algebra.one()
        for i, e in mono:
            term = term * _chi_generator(p, i) ** e
        out = out + term.scale(coeff)
    return out


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
            total = total + (_chi_generator(p, n - i) ** (p ** i)) * algebra.gen(i)
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
    out = TensorElement(steenrod, algebra, {})
    for mono, coeff in a.terms():
        term = TensorElement.unit(steenrod, algebra)
        for n, e in mono:
            term = term * _t_coaction(p, n, steenrod, algebra) ** e
        out = out + term.scale(coeff)
    return out


def _t_coaction(p, n, steenrod, algebra) -> TensorElement:
    total = TensorElement(steenrod, algebra, {})
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


def _monomial_from_sequence(carrier, seq):
    if isinstance(carrier, FreeAlgebra):
        return carrier.monomial(seq)
    exps: dict = {}
    for i in seq:
        exps[i] = exps.get(i, 0) + 1
    return carrier.monomial(tuple(sorted(exps.items())))


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

    def act(seq, k):
        if k == 0:
            return _monomial_from_sequence(carrier, seq)
        if not seq:
            return zero
        key = (seq, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        first, rest = seq[0], seq[1:]
        total = zero
        for i in range(k + 1):
            img = table.image(i, first)
            if img.is_zero():
                continue
            tail = act(rest, k - i)
            if tail.is_zero():
                continue
            total = total + img * tail
        memo[key] = total
        return total

    result = zero
    for mono, coeff in a.terms():
        if isinstance(carrier, FreeAlgebra):
            seq = mono
        else:
            seq = tuple(i for i, e in mono for _ in range(e))
        result = result + act(seq, op.index).scale(coeff)
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


def _action_rows(algebra, op, source_words, target_words):
    ring = algebra.ring
    index = {w: r for r, w in enumerate(target_words)}
    rows = [[ring.zero] * len(source_words) for _ in target_words]
    for col, word in enumerate(source_words):
        image = nsym_action(op, algebra.monomial(word))
        for w, c in image.terms():
            rows[index[w]][col] = c
    return rows


def _commutator_rows(algebra, w: FreeElement, source_words, target_words):
    ring = algebra.ring
    index = {t: r for r, t in enumerate(target_words)}
    rows = [[ring.zero] * len(source_words) for _ in target_words]
    for col, word in enumerate(source_words):
        v = algebra.monomial(word)
        bracket = v * w - w * v
        for t, c in bracket.terms():
            rows[index[t]][col] = c
    return rows


def _rhs_from_element(element: FreeElement, target_words):
    ring = element.algebra.ring
    index = {t: r for r, t in enumerate(target_words)}
    rhs = [ring.zero] * len(target_words)
    for word, coeff in element.terms():
        rhs[index[word]] = coeff
    return rhs


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

    low_degree = 2 * p - 2
    W = algebra.words_of_degree(low_degree)
    rows = _action_rows(algebra, op1, W, algebra.words_of_degree(0))
    rhs = [ring.of_int(-1)]
    particular, kernel, rank = affine_solve(rows, rhs, len(W), ring)
    systems = [{"degree": low_degree, "dimension": len(W), "rank": rank}]
    if particular is None:
        return ObstructionCertificate(p, [], systems, [], "INFEASIBLE")

    candidates = []
    for lambdas in _iproduct(range(p), repeat=len(kernel)):
        vec = list(particular)
        for lam, kv in zip(lambdas, kernel):
            if lam:
                vec = [ring.add(v, ring.mul(ring.of_int(lam), x)) for v, x in zip(vec, kv)]
        candidates.append(algebra.element({W[i]: v for i, v in enumerate(vec)}))

    high_degree = 2 * (p * p - 1)
    V = algebra.words_of_degree(high_degree)
    comm_targets = algebra.words_of_degree(high_degree + low_degree)
    pp_targets = algebra.words_of_degree(high_degree - opp.degree)
    p1_targets = algebra.words_of_degree(high_degree - op1.degree)
    pp_rows = _action_rows(algebra, opp, V, pp_targets)
    p1_rows = _action_rows(algebra, op1, V, p1_targets)

    solutions = []
    for w in candidates:
        rows = _commutator_rows(algebra, w, V, comm_targets) + pp_rows + p1_rows
        rhs = (
            [ring.zero] * len(comm_targets)
            + [ring.zero] * len(pp_targets)
            + _rhs_from_element(-(w ** p), p1_targets)
        )
        particular, kernel, rank = affine_solve(rows, rhs, len(V), ring)
        systems.append({"degree": high_degree, "dimension": len(V), "rank": rank})
        if particular is not None:
            base = algebra.element({V[i]: c for i, c in enumerate(particular)})
            solutions.append(
                {
                    "candidate": str(w),
                    "particular": str(base),
                    "kernel": [
                        str(algebra.element({V[i]: c for i, c in enumerate(vec)}))
                        for vec in kernel
                    ],
                }
            )
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

    W = algebra.words_of_degree(1)
    rows = _action_rows(algebra, sq1, W, algebra.words_of_degree(0))
    particular, kernel, rank = affine_solve(rows, [ring.one], len(W), ring)
    systems = [{"degree": 1, "dimension": len(W), "rank": rank}]
    if particular is None:
        return ObstructionCertificate(2, [], systems, [], "INFEASIBLE")
    candidates = [algebra.element({W[i]: c for i, c in enumerate(particular)})]
    if kernel:
        raise ParameterError("degree-1 solve was expected to be unique")
    w = candidates[0]

    centralizer = centralizer_basis(w, 3)
    V = algebra.words_of_degree(3)
    comm_targets = algebra.words_of_degree(4)
    sq2_targets = algebra.words_of_degree(1)
    sq1_targets = algebra.words_of_degree(2)
    rows = (
        _commutator_rows(algebra, w, V, comm_targets)
        + _action_rows(algebra, sq2, V, sq2_targets)
        + _action_rows(algebra, sq1, V, sq1_targets)
    )
    rhs = (
        [ring.zero] * len(comm_targets)
        + _rhs_from_element(w, sq2_targets)
        + [ring.zero] * len(sq1_targets)
    )
    particular, kernel, rank = affine_solve(rows, rhs, len(V), ring)
    systems.append({"degree": 3, "dimension": len(V), "rank": rank})
    solutions = []
    if particular is not None:
        solutions.append(
            {
                "candidate": str(w),
                "particular": str(algebra.element({V[i]: c for i, c in enumerate(particular)})),
                "kernel": [
                    str(algebra.element({V[i]: c for i, c in enumerate(vec)}))
                    for vec in kernel
                ],
            }
        )
    verdict = "INFEASIBLE" if not solutions else "FEASIBLE"
    return ObstructionCertificate(
        2,
        [str(w)],
        systems,
        solutions,
        verdict,
        centralizers={str(w): [str(b) for b in centralizer]},
    )
