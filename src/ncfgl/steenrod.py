"""Mod-p dual Steenrod algebra (polynomial part) and right actions.

Provides the Milnor coproduct psi(xi_n) = sum xi_{n-i}^{p^i} (x) xi_i, the
antipode chi (whose values zeta_r = chi(xi_r) are the conjugate generators),
the dual-basis pairing <P^k, xi_1^k> = 1, the coaction of the dual Steenrod
algebra on the polynomial algebra F_p[t_1, t_2, ...] with deg t_r = 2p^r - 2,
right actions a.theta = sum <theta, a'> a'', the Cartan rule for extending a
generator action table over products, the induced action on the free algebra
generators, and two finite obstruction certificates built from these actions
by exact linear algebra; tensors are sums over a :class:`TensorAlgebra`.  The
induced action has one index-shift rule for both profiles and every prime: an
operation of degree d sends Z_i to C(i - s + 1, s/(p - 1)) Z_{i-s}, where
s = d / (degree of the series variable), Z_0 = 1, and the image is zero
unless s is a whole number at most i.

Only the polynomial (even) part of the dual Steenrod algebra is modelled; the
exterior generators at odd primes are never needed by the computations here.
"""

from __future__ import annotations

from functools import cache
from itertools import product as _iproduct
from math import comb
from types import MappingProxyType

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
    _bracket_terms,
    centralizer_basis,
    matrix_of,
)
from .lincomb import LinearCombination, SparseAlgebra
from .linalg import affine_solve
from .record import Record
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


def _check_kind(prime: int, kind: str) -> None:
    """Which operations live at which prime: Sq^k at p = 2, P^k at odd p."""
    if kind == "P":
        if prime == 2:
            raise ParameterError("use Sq^k at p = 2")
    elif kind == "Sq":
        if prime != 2:
            raise ParameterError("Sq^k lives at p = 2")
    else:
        raise ParameterError(f"unknown operation kind {kind!r}")


class MilnorOp(Record):
    """P^k at an odd prime, or Sq^k at p = 2; index 0 is the identity."""

    __slots__ = ("prime", "kind", "index")

    def __init__(self, prime: int, kind: str, index: int):
        super().__init__(prime, kind, index)
        if not is_prime(self.prime):
            raise ParameterError(f"{self.prime} is not prime")
        _check_kind(self.prime, self.kind)
        if self.index < 0:
            raise ParameterError("operation index must be nonnegative")

    __hash__ = Record._hash

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
    return CommAlgebra("dual-steenrod", "xi", GF(p))


def bp_homology(p: int) -> CommAlgebra:
    """F_p[t_1, t_2, ...] with deg t_r = 2p^r - 2."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    return CommAlgebra("bp-homology", "t", GF(p))


# -- tensor square ------------------------------------------------------------


class TensorElement(LinearCombination):
    """Finite sum of (left tensor right) terms in bilinear normal form.

    The left factor lives in a dual Steenrod algebra; the right factor in any
    polynomial algebra or free algebra over the same prime field.  All factors
    sit in even degrees (or p = 2), so multiplication carries no signs.
    """

    __slots__ = ()

    @classmethod
    def tensor(cls, a: CommElement, b) -> "TensorElement":
        acc = {(lm, rm): lc * rc for lm, lc in a._terms.items() for rm, rc in b._terms.items()}
        return TensorAlgebra(a.algebra, b.algebra).from_accumulator(acc)

    def pair_left(self, op: MilnorOp):
        """Contract the left factor against a Milnor operation."""
        dual = _dual_monomial(op)
        return self.algebra.right._wrap(
            {rm: coeff for (lm, rm), coeff in self._terms.items() if lm == dual}
        )


class TensorAlgebra(SparseAlgebra):
    """The tensor product of two algebras over one ring, on (left, right) keys.

    Keys multiply factorwise and sort by the left factor's order, then the
    right factor's; a stored or public key is the pair of the factors' stored
    or public keys.  Factors over different rings are refused with
    ModeMismatchError.
    """

    __slots__ = ("left", "right")
    element_class = TensorElement

    def __init__(self, left, right):
        if left.ring != right.ring:
            raise ModeMismatchError(f"tensor factors over {left.ring!r} and {right.ring!r}")
        super().__init__(left, right)

    @property
    def ring(self):
        return self.left.ring

    @property
    def unit_key(self):
        return (self.left.unit_key, self.right.unit_key)

    def key_of(self, key):
        left, right = key
        return (self.left.key_of(left), self.right.key_of(right))

    def public_key(self, key):
        return (self.left.public_key(key[0]), self.right.public_key(key[1]))

    def key_mul(self, a, b):
        return (self.left.key_mul(a[0], b[0]), self.right.key_mul(a[1], b[1]))

    def key_frobenius(self, key, q):
        return (self.left.key_frobenius(key[0], q), self.right.key_frobenius(key[1], q))

    def term_key(self, key):
        return (self.left.term_key(key[0]), self.right.term_key(key[1]))

    def render_key(self, key) -> str:
        left = self.left.render_key(key[0]) or "1"
        right = self.right.render_key(key[1]) or "1"
        return f"({left} (x) {right})"


def _dual_monomial(op: MilnorOp):
    """xi_1^k: <P^k, xi_1^k> = 1 (likewise Sq^k at p = 2), and the pairing
    is zero on every other monomial."""
    return ((1, op.index),) if op.index else ()


def milnor_pair(op: MilnorOp, a: CommElement):
    """Linear extension of the dual-basis pairing; returns a scalar."""
    algebra = a.algebra
    if algebra.kind != "dual-steenrod" or algebra.ring.prime != op.prime:
        raise UnsupportedInputError("pairing is defined on dual Steenrod elements")
    return a.coefficient(_dual_monomial(op))


# -- coproduct, counit, antipode ------------------------------------------------


def _multiplicative(a: CommElement, target: SparseAlgebra, image, keep=None) -> LinearCombination:
    """The algebra map into ``target`` sending generator i to image(i), at ``a``.

    Both algebras are commutative over F_p, so for e = sum_j d_j p^j in base
    p the power image(i)^e is the product over j of image(i)^(d_j) followed
    by the Frobenius p^j on its keys.  The image of each monomial is its
    coefficient times the product of these powers; the last product goes
    straight into one accumulator for all of ``a``.

    With ``keep``, a predicate on the keys of ``target``, every term it
    refuses is dropped from each factor and each product as soon as that is
    formed, and the result holds only the terms it keeps.  This is exact when
    ``keep`` refuses every multiple of a key it refuses: a product key is a
    multiple of each of its factors, and a Frobenius key of its own, so a
    dropped term could only ever have reached refused keys.
    :func:`right_action` keeps the tensor keys whose left monomial divides
    xi_1^k, and a multiple of a left monomial that does not divide xi_1^k
    does not divide it either.
    """
    p = a.algebra.ring.prime

    def cut(element):
        if keep is None:
            return element
        return target._wrap({key: c for key, c in element._terms.items() if keep(key)})

    acc: dict = {}
    for mono, coeff in a._terms.items():
        term, last = target._wrap({target.unit_key: coeff}), target.one()
        for i, e in mono:
            gen, q = cut(image(i)), 1
            while e:
                e, digit = divmod(e, p)
                if digit:
                    power = gen
                    for _ in range(digit - 1):
                        power = cut(power * gen)
                    term, last = cut(term * last), cut(frobenius(power, q))
                q *= p
        target.add_product(acc, term, last)
    return cut(target.from_accumulator(acc))


@cache
def _xi_coproduct(p: int, n: int) -> TensorElement:
    algebra = dual_steenrod(p)
    terms = {}
    for i in range(n + 1):
        left = () if i == n else ((n - i, p ** i),)
        right = () if i == 0 else ((i, 1),)
        terms[(left, right)] = 1
    return TensorAlgebra(algebra, algebra).element(terms)


def coproduct(a: CommElement) -> TensorElement:
    """psi(xi_n) = sum_{i} xi_{n-i}^{p^i} (x) xi_i, extended multiplicatively."""
    if a.algebra.kind != "dual-steenrod":
        raise UnsupportedInputError("coproduct is defined on dual Steenrod elements")
    return _coaction(a)


def counit(a: CommElement):
    """Coefficient of the empty monomial."""
    return a.coefficient(())


def antipode(a: CommElement) -> CommElement:
    """Hopf antipode chi, from chi(xi_n) = -sum_{i>=1} chi(xi_{n-i})^{p^i} xi_i."""
    algebra = a.algebra
    if algebra.kind != "dual-steenrod":
        raise UnsupportedInputError("antipode is defined on dual Steenrod elements")
    p = algebra.ring.prime
    return _multiplicative(a, algebra, lambda i: conjugate_generator(p, i))


@cache
def conjugate_generator(p: int, r: int) -> CommElement:
    """zeta_r = chi(xi_r), with zeta_0 = 1; a negative r is refused."""
    if r < 0:
        raise ParameterError(f"conjugate generator index must be >= 0, got {r}")
    algebra = dual_steenrod(p)
    if r == 0:
        return algebra.one()
    acc: dict = {}
    for i in range(1, r + 1):
        algebra.add_product(acc, frobenius(conjugate_generator(p, r - i), p ** i), -algebra.gen(i))
    return algebra.from_accumulator(acc)


# -- coaction on F_p[t_1, t_2, ...] ----------------------------------------------


def bp_coaction(a: CommElement) -> TensorElement:
    """psi(t_n) = sum_{k=0}^{n} zeta_k (x) t_{n-k}^{p^k}, extended multiplicatively."""
    if a.algebra.kind != "bp-homology":
        raise UnsupportedInputError("this coaction acts on t-polynomials")
    return _coaction(a)


def _coaction(a: CommElement, keep=None) -> TensorElement:
    """The registered coaction of ``a``: the coproduct of a dual Steenrod
    element, the coaction on a t-polynomial at an odd prime; with ``keep``,
    only the terms that :func:`_multiplicative` keeps."""
    algebra = a.algebra
    p = algebra.ring.prime
    if algebra.kind == "dual-steenrod":
        return _multiplicative(
            a, TensorAlgebra(algebra, algebra), lambda i: _xi_coproduct(p, i), keep
        )
    if algebra.kind != "bp-homology":
        raise UnsupportedInputError(f"no registered coaction for the {algebra.family!r} family")
    if p == 2:
        raise UnsupportedInputError("the displayed coaction is the odd-prime form")
    steenrod = dual_steenrod(p)
    return _multiplicative(
        a, TensorAlgebra(steenrod, algebra), lambda n: _t_coaction(p, n, steenrod, algebra), keep
    )


def _t_coaction(p, n, steenrod, algebra) -> TensorElement:
    """sum_k zeta_k (x) t_{n-k}^{p^k}: each k has its own right monomial, so the
    terms never combine and are written down directly."""
    terms = {}
    for k in range(n + 1):
        right = () if n == k else ((n - k, p ** k),)
        for left, coeff in conjugate_generator(p, k)._terms.items():
            terms[(left, right)] = coeff
    return TensorAlgebra(steenrod, algebra)._wrap(terms)


# -- right actions ----------------------------------------------------------------


def right_action(a, op: MilnorOp):
    """a . theta = sum <theta, a'> a'' over the registered coaction of ``a``.

    The pairing reads only the terms whose left factor a' is xi_1^k, so on a
    commutative element the coaction is formed pruned: a term is dropped as
    soon as its left monomial no longer divides xi_1^k.  Monomials only grow
    under product, power and Frobenius, so such a term can never come back
    to xi_1^k, and the result is that of the full coaction.
    """
    if isinstance(a, FreeElement):
        return nsym_action(op, a)
    if isinstance(a, CommElement):
        k = op.index

        def divides(key):
            left = key[0]
            return not left or (len(left) == 1 and left[0][0] == 1 and left[0][1] <= k)

        return _coaction(a, divides).pair_left(op)
    raise UnsupportedInputError(f"no registered coaction for {type(a).__name__}")


class Action(Record):
    """``op`` applied on the right to ``input``, both held as strings."""

    __slots__ = ("prime", "op", "input", "result")
    to_data = Record._data

    def __str__(self):
        return f"{self.op} . ({self.input}) = {self.result}"


class GeneratorActionTable(Record):
    """Images of generators under P^k (or Sq^k) for one algebra.

    Entries are keyed by (operation index, generator index); index zero is the
    identity and is never stored.  A kind that does not live at ``prime``
    is refused with ParameterError, by the rule of :class:`MilnorOp`; a carrier
    over another ring than F_prime, or an entry over another algebra than the
    carrier, is refused with ModeMismatchError; ``entries`` is read-only, so no
    entry escapes these checks.  :func:`cartan_extend` raises
    when a needed entry is missing, naming the generator and the index.
    """

    __slots__ = ("carrier", "kind", "prime", "entries")

    def __init__(self, carrier, kind: str, prime: int, entries: dict):
        _check_kind(prime, kind)
        if carrier.ring.prime != prime:
            raise ModeMismatchError(f"a table for p = {prime} cannot act over {carrier!r}")
        for (k, i), image in entries.items():
            if image.algebra is not carrier and image.algebra != carrier:
                raise ModeMismatchError(f"entry ({k}, {i}) does not live over {carrier!r}")
        super().__init__(carrier, kind, prime, MappingProxyType(dict(entries)))

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
    if a.algebra != table.carrier:
        raise ModeMismatchError("element does not live over the table's algebra")
    return _extended(table.carrier, table.image, a, op.index)


def _extended(carrier, image, a, k: int):
    """``a`` under the index-k operation whose generator images are
    ``image(index, generator)``, by :func:`_cartan` on each term."""
    act = _cartan(carrier, image)
    acc: dict = {}
    for key, coeff in a._terms.items():
        carrier.add_multiple(acc, coeff, act(key, k))
    return carrier.from_accumulator(acc)


def _cartan(carrier, image):
    """act(key, k): the index-k operation on one basis element of
    ``carrier``, by the Cartan rule on its first generator and the rest,
    where ``image(i, generator)`` is the generator's image under index i.
    One memo of (key, k) serves every call of one ``act``, so keys that
    share a suffix act on it once, and one memo of (i, generator) reads each
    image once; the empty images are skipped."""
    zero = carrier.zero()
    one = carrier.ring.one
    memo: dict = {}
    images: dict = {}

    def act(key, k):
        if k == 0:
            return carrier._wrap({key: one})
        if not key:
            return zero
        cached = memo.get((key, k))
        if cached is not None:
            return cached
        first, rest = carrier.split_key(key)
        acc: dict = {}
        for i in range(k + 1):
            img = images.get((i, first))
            if img is None:
                img = images[(i, first)] = image(i, first)
            if img._terms:
                carrier.add_product(acc, img, act(rest, k - i))
        return memo.setdefault((key, k), carrier.from_accumulator(acc))

    return act


# -- the induced action on the free algebra ------------------------------------------


def _index_shift(algebra, op: MilnorOp):
    """image(k, i): generator i under the index-k operation of ``op``'s
    kind over a free algebra, by the index-shift rule (module docstring).

    The profile decides where the rule holds: a custom profile has no
    derived action, and one whose generator 1 has odd degree (the real
    profile) acts only at p = 2."""
    if not isinstance(algebra, FreeAlgebra):
        raise UnsupportedInputError("nsym_action acts on free-algebra elements")
    ring = algebra.ring
    if ring.mode != "fp" or ring.prime != op.prime:
        raise ModeMismatchError("element must live over F_p for the acting prime")
    profile = algebra.profile
    if profile.degrees is not None:
        raise UnsupportedInputError("no derived action for custom profiles")
    vardeg = profile.variable_degree
    if vardeg % 2 and op.prime != 2:
        raise UnsupportedInputError("the real profile carries an action only at p = 2")
    p, step = op.prime, MilnorOp(op.prime, op.kind, 1).degree  # the degree per unit of index

    def image(k, i):
        s, rest = divmod(k * step, vardeg)
        coeff = 0 if rest or s > i else lucas_binomial(i - s + 1, s // (p - 1), p)
        if not coeff:
            return algebra.zero()
        # coeff is a residue mod p, and i - s a letter of a stored word
        return algebra._wrap({bytes((i - s,)) if s < i else algebra.unit_key: coeff})

    return image


def nsym_action(op: MilnorOp, a: FreeElement) -> FreeElement:
    """Right Steenrod action on free-algebra elements via the Cartan rule."""
    return _extended(a.algebra, _index_shift(a.algebra, op), a, op.index)


# -- obstruction certificates ----------------------------------------------------------


class ObstructionCertificate(Record):
    """Finite linear-algebra certificate that a constraint system is empty.

    ``verdict`` is INFEASIBLE exactly when ``solutions`` is empty; each entry
    of ``systems`` records one affine solve (degree of the unknowns, number of
    unknowns, rank of the constraint matrix).  ``ok`` is ``infeasible``.
    """

    __slots__ = ("prime", "candidates", "systems", "solutions", "verdict", "centralizers")
    _defaults = {"centralizers": dict}
    to_data = Record._data

    @property
    def infeasible(self) -> bool:
        return self.verdict == "INFEASIBLE"

    ok = infeasible

    def __str__(self):
        lines = [f"obstruction certificate at p = {self.prime}: {self.verdict}"]
        lines += (f"  candidate: {c}" for c in self.candidates)
        lines += (
            f"  system in degree {s['degree']}: {s['dimension']} unknowns, rank {s['rank']}"
            for s in self.systems
        )
        lines += (f"  centralizer of {w}: {{{', '.join(b)}}}" for w, b in self.centralizers.items())
        lines += [f"  solution: {s}" for s in self.solutions] or ["  no solutions"]
        return "\n".join(lines)


def _acting(algebra, op):
    """stored word -> the stored terms of op applied to the word, as a map
    for :func:`matrix_of`, with one Cartan memo for all the words."""
    act = _cartan(algebra, _index_shift(algebra, op))
    return lambda word: act(word, op.index)._terms


def _two_stage(op: MilnorOp, c: FreeElement, high_degree: int, blocks) -> tuple:
    """The procedure of both certificates, over the algebra of ``c``.

    Stage one solves op(w) = c over the words of degree op.degree + deg c and
    lists every solution w over F_p as a candidate.  Stage two, for each
    candidate, solves [v, w] = 0 stacked with one block theta(v) = image(w)
    per (theta, image) in ``blocks`` over the words v of ``high_degree``.
    Returns the candidates and the certificate's fields up to ``centralizers``,
    in order; the systems are recorded in solve order.
    """
    algebra = c.algebra
    ring = algebra.ring
    systems = []

    def solve(degree, words, rows, rhs):
        particular, kernel, rank = affine_solve(rows, rhs, len(words), ring)
        systems.append({"degree": degree, "dimension": len(words), "rank": rank})
        return particular, kernel

    def column(element, target_words, offset=0):
        """The coefficients of ``element`` as a dict {offset + row: value}."""
        index = {word: offset + r for r, word in enumerate(target_words)}
        return {index[word]: x for word, x in element._terms.items()}

    low_degree = op.degree + c.degree()
    W = algebra._keys_of_degree(low_degree)
    targets = algebra._keys_of_degree(c.degree())
    particular, kernel = solve(
        low_degree, W, matrix_of(_acting(algebra, op), W, targets), column(c, targets)
    )
    candidates = []
    if particular is not None:
        base, *directions = (
            algebra._wrap({W[j]: x for j, x in vec.items()}) for vec in [particular] + kernel
        )
        candidates = [
            sum((d.scale(lam) for lam, d in zip(lambdas, directions)), base)
            for lambdas in _iproduct(range(ring.prime), repeat=len(kernel))
        ]

    V = algebra._keys_of_degree(high_degree)
    comm_targets = algebra._keys_of_degree(high_degree + low_degree)
    block_targets = [algebra._keys_of_degree(high_degree - theta.degree) for theta, _ in blocks]
    action_rows = [
        row
        for (theta, _), words in zip(blocks, block_targets)
        for row in matrix_of(_acting(algebra, theta), V, words)
    ]

    def written(vec):
        return str(algebra._wrap({V[j]: x for j, x in vec.items()}))

    solutions = []
    for w in candidates:
        rows = matrix_of(_bracket_terms(w), V, comm_targets) + action_rows
        rhs = {}
        offset = len(comm_targets)
        for (_, image), words in zip(blocks, block_targets):
            rhs.update(column(image(w), words, offset))
            offset += len(words)
        particular, kernel = solve(high_degree, V, rows, rhs)
        if particular is not None:
            solutions.append({
                "candidate": str(w),
                "particular": written(particular),
                "kernel": [written(vec) for vec in kernel],
            })
    verdict = "INFEASIBLE" if not solutions else "FEASIBLE"
    return candidates, (ring.prime, [str(w) for w in candidates], systems, solutions, verdict)


# Largest number of words in the degree-2(p^2 - 1) component, whose 2^(p^2 - 2)
# words are the unknowns of the bp certificate's stage two.  The solve is
# sparse, but its rows and columns still grow with the component.
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
    op1 = MilnorOp(p, "P", 1)
    zero = algebra.zero()
    _, fields = _two_stage(
        op1,
        -algebra.one(),
        2 * (p * p - 1),
        [(MilnorOp(p, "P", p), lambda w: zero), (op1, lambda w: -(w ** p))],
    )
    return ObstructionCertificate(*fields)


def hf2_obstruction_certificate() -> ObstructionCertificate:
    """Certify the mod-2 obstruction over the real-profile free algebra.

    Stage one solves Sq^1 w = 1 in degree 1 (forcing w = z_1); stage two shows
    {v in degree 3 : [v, z_1] = 0, Sq^2 v = z_1, Sq^1 v = 0} is empty.  The
    degree-3 centralizer of z_1 is recorded alongside: it is spanned by z_1^3,
    whose nonzero Sq^1 image is what makes the system inconsistent.
    """
    algebra = FreeAlgebra(REAL, GF(2))
    sq1 = MilnorOp(2, "Sq", 1)
    zero = algebra.zero()
    candidates, fields = _two_stage(
        sq1, algebra.one(), 3, [(MilnorOp(2, "Sq", 2), lambda w: w), (sq1, lambda w: zero)]
    )
    return ObstructionCertificate(
        *fields, {str(w): [str(b) for b in centralizer_basis(w, 3)] for w in candidates}
    )
