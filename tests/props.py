"""Seeded property runs shared between the module tests and the acceptance
suite.  Each helper returns a list of failure descriptions; an empty list
means the property held on every instance."""

import random
from math import comb

from ncfgl import (
    COMPLEX,
    GF,
    QQ,
    CentralSeries,
    FreeAlgebra,
    VarSet,
    coproduct,
    counit,
    antipode,
    dual_steenrod,
    left_expand,
    left_substitute,
    lucas_binomial,
    orientation_series,
    revert,
)
from ncfgl.series import left_combination


def random_element(algebra, rng, max_degree=6, max_terms=3):
    out = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.choice([d for d in range(0, max_degree + 1) if algebra.dim(d)])
        words = algebra.words_of_degree(degree)
        word = words[rng.randrange(len(words))]
        out = out + algebra.monomial(word, algebra.ring.random_value(rng, nonzero=True))
    return out


def random_series(algebra, varset, order, rng, max_coeff_degree=4):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        index = tuple(rng.randint(0, order) for _ in varset.names)
        if sum(index) > order:
            continue
        coeffs[index] = random_element(algebra, rng, max_coeff_degree, 2)
    return CentralSeries(algebra, varset, order, coeffs)


def random_unit_linear(algebra, order, rng, name="x"):
    varset = VarSet((name,))
    coeffs = {(1,): algebra.one()}
    for k in range(2, order + 1):
        if rng.random() < 0.6:
            coeffs[(k,)] = random_element(algebra, rng, 4, 2)
    return CentralSeries(algebra, varset, order, coeffs)


def run_specialize_props(seed=0, pairs_per_width=200, order=4):
    """specialize distributes over + and * for random pairs in 1 to 3 variables."""
    rng = random.Random(seed)
    algebra = FreeAlgebra()
    failures = []
    names = ("x", "y", "w")
    for width in (1, 2, 3):
        varset = VarSet(names[:width])
        target = VarSet(names[: min(3, width + 1)])
        for trial in range(pairs_per_width):
            f = random_series(algebra, varset, order, rng)
            g = random_series(algebra, varset, order, rng)
            assignment = {
                name: {
                    t: rng.randint(-2, 2)
                    for t in rng.sample(target.names, rng.randint(1, len(target)))
                }
                for name in varset.names
            }
            fg = (f * g).specialize(assignment, target)
            if fg != f.specialize(assignment, target) * g.specialize(assignment, target):
                failures.append(f"width {width} trial {trial}: not multiplicative")
            fp = (f + g).specialize(assignment, target)
            if fp != f.specialize(assignment, target) + g.specialize(assignment, target):
                failures.append(f"width {width} trial {trial}: not additive")
    return failures


def run_left_expand_roundtrip(seed=0, trials=40, order=5):
    """Re-summing an expansion reproduces the target exactly, in 1 to 3
    variables over Z, F_3 and Q."""
    rng = random.Random(seed)
    algebras = (FreeAlgebra(), FreeAlgebra(COMPLEX, GF(3)), FreeAlgebra(COMPLEX, QQ))
    failures = []
    names = ("x", "y", "w")
    for trial in range(trials):
        algebra = algebras[trial % len(algebras)]
        width = rng.choice((1, 2, 3))
        varset = VarSet(names[:width])
        target = random_series(algebra, varset, order, rng)
        basis = {
            name: orientation_series(order, algebra, VarSet((name,)))
            for name in varset.names
        }
        expansion = left_expand(target, basis)
        embedded = {name: b.specialize({}, varset) for name, b in basis.items()}
        pairs = []
        for index, coeff in expansion.items():
            power = CentralSeries.unit(algebra, varset, order)
            for name, e in zip(varset.names, index):
                for _ in range(e):
                    power = power * embedded[name]
            pairs.append((coeff, power))
        total = left_combination(pairs, target)
        if total != target:
            failures.append(f"trial {trial} ({algebra.ring!r}, width {width}): round trip drifted")
    return failures


def run_revert_two_sided(seed=0, count=20, order=6):
    """revert is a two-sided compositional inverse on the tested instances."""
    rng = random.Random(seed)
    algebra = FreeAlgebra()
    failures = []
    instances = [orientation_series(8, algebra)]
    instances += [random_unit_linear(algebra, order, rng) for _ in range(count)]
    for i, f in enumerate(instances):
        x = CentralSeries.variable(algebra, f.varset, f.order, f.varset.names[0])
        g = revert(f)
        if left_substitute(f, g) != x:
            failures.append(f"instance {i}: f(g) != x")
        if left_substitute(g, f) != x:
            failures.append(f"instance {i}: g(f) != x")
    return failures


def _triple_left(t):
    p = t.algebra.ring.prime
    out = {}
    for (lm, rm), c in t.terms():
        inner = coproduct(t.algebra.left.monomial(lm))
        for (l1, l2), c2 in inner.terms():
            key = (l1, l2, rm)
            out[key] = (out.get(key, 0) + c * c2) % p
    return {key: value for key, value in out.items() if value}


def _triple_right(t):
    p = t.algebra.ring.prime
    out = {}
    for (lm, rm), c in t.terms():
        inner = coproduct(t.algebra.right.monomial(rm))
        for (r1, r2), c2 in inner.terms():
            key = (lm, r1, r2)
            out[key] = (out.get(key, 0) + c * c2) % p
    return {key: value for key, value in out.items() if value}


def _monomials_up_to(algebra, max_degree, max_index):
    """All monomials of degree <= max_degree on generators up to max_index."""
    monos = [()]
    for r in range(1, max_index + 1):
        gen_degree = algebra.degree_of(r)
        extended = []
        for mono in monos:
            degree = sum(e * algebra.degree_of(i) for i, e in mono)
            e = 0
            while degree + e * gen_degree <= max_degree:
                extended.append(mono if e == 0 else tuple(sorted(mono + ((r, e),))))
                e += 1
        monos = extended
    return sorted(monos)


def run_coalgebra_laws(p):
    """Coassociativity, counit, and the antipode law through degree 2(p^3 - 1)."""
    algebra = dual_steenrod(p)
    bound = 2 * (p ** 3 - 1)
    failures = []
    for mono in _monomials_up_to(algebra, bound, 3):
        a = algebra.monomial(mono)
        psi = coproduct(a)
        if _triple_left(psi) != _triple_right(psi):
            failures.append(f"coassociativity fails on {a}")
        left_counit = algebra.zero()
        right_counit = algebra.zero()
        for (lm, rm), c in psi.terms():
            if lm == ():
                left_counit = left_counit + algebra.monomial(rm, c)
            if rm == ():
                right_counit = right_counit + algebra.monomial(lm, c)
        if left_counit != a or right_counit != a:
            failures.append(f"counit fails on {a}")
        convolution = algebra.zero()
        for (lm, rm), c in psi.terms():
            convolution = convolution + (antipode(algebra.monomial(lm)) * algebra.monomial(rm)).scale(c)
        expected = algebra.one().scale(counit(a))
        if convolution != expected:
            failures.append(f"antipode law fails on {a}")
    return failures


def run_lucas_check(limit=200, primes=(2, 3, 5, 7)):
    """Lucas reduction agrees with exact big-integer binomials."""
    failures = []
    for p in primes:
        for m in range(limit + 1):
            for k in range(limit + 1):
                if lucas_binomial(m, k, p) != comb(m, k) % p:
                    failures.append(f"C({m},{k}) mod {p}")
    return failures
