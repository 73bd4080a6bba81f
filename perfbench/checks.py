"""Output checks that share no arithmetic with ncfgl.

Outputs are read through public accessors (``terms()``, ``entry()``,
``coefficient()``, report fields) and recomputed here with plain
dictionaries: a noncommutative element is ``{word: coefficient}``, a
commutative polynomial in b_1, b_2, ... is ``{sorted tuple of indices:
coefficient}``, and a truncated series is ``{exponent: element}``.

Each ``check_<workload>`` returns a list of problems; an empty list means
every check passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

# Order up to which the table workload's noncommutative recomposition runs;
# the abelianized (commutative) check runs at the table's full order.
RECOMPOSITION_ORDER = 11


# -- noncommutative elements ------------------------------------------------------


def as_dict(element) -> dict:
    return dict(element.terms())


def nc_mul(a: dict, b: dict, modulus=None) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return _clean(out, modulus)


def nc_add(acc: dict, a: dict) -> None:
    for w, c in a.items():
        acc[w] = acc.get(w, 0) + c


def _clean(d: dict, modulus=None) -> dict:
    if modulus is not None:
        return {k: c % modulus for k, c in d.items() if c % modulus}
    return {k: c for k, c in d.items() if c}


def z_coefficient(k: int) -> dict:
    """Coefficient of t^(k+1) in z(t): Z_k, with Z_0 = 1."""
    return {(): 1} if k == 0 else {(k,): 1}


def uni_mul(a: dict, b: dict, order: int) -> dict:
    """Product of univariate series {exponent: element}, truncated."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 <= order:
                nc_add(out.setdefault(e1 + e2, {}), nc_mul(c1, c2))
    return {e: c for e, c in ((e, _clean(c)) for e, c in out.items()) if c}


def uni_powers(series: dict, count: int, order: int) -> list:
    powers = [{0: {(): 1}}]
    for _ in range(count):
        powers.append(uni_mul(powers[-1], series, order))
    return powers


# -- commutative polynomials in b_1, b_2, ... ---------------------------------------


def c_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def c_add(acc: dict, p: dict, scale: int = 1) -> None:
    for m, c in p.items():
        acc[m] = acc.get(m, 0) + scale * c


def c_series_mul(a: list, b: list, order: int) -> list:
    out = [dict() for _ in range(order + 1)]
    for i, p in enumerate(a):
        if p:
            for j in range(order + 1 - i):
                if b[j]:
                    c_add(out[i + j], c_mul(p, b[j]))
    return [{m: c for m, c in d.items() if c} for d in out]


def abelianize(element_terms: dict) -> dict:
    """Z_i -> b_i with the b_i commuting."""
    out: dict = {}
    for word, c in element_terms.items():
        key = tuple(sorted(word))
        out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


def commutative_log(order: int) -> list:
    """l = z^(-1) over Z[b_1, b_2, ...] by Lagrange inversion.

    l_n = (1/n) [t^(n-1)] h^n with h = t / z(t) = 1 / (1 + b_1 t + b_2 t^2 + ...).
    """
    h = [dict() for _ in range(order)]
    h[0] = {(): 1}
    for n in range(1, order):
        acc: dict = {}
        for k in range(1, n + 1):
            c_add(acc, c_mul({(k,): 1}, h[n - k]), -1)
        h[n] = {m: c for m, c in acc.items() if c}
    log = [dict() for _ in range(order + 1)]
    power = [{(): 1}] + [dict() for _ in range(order - 1)]
    for n in range(1, order + 1):
        power = c_series_mul(power, h, order - 1)
        coeff = power[n - 1]
        if any(c % n for c in coeff.values()):
            raise ArithmeticError(f"Lagrange coefficient {n} is not integral")
        log[n] = {m: c // n for m, c in coeff.items()}
    return log


def commutative_fgl(order: int):
    """F(X, Y) = z(l(X) + l(Y)) and the inverse z(-l(X)), entry by entry."""
    log = commutative_log(order)
    powers = [[{(): 1}] + [dict() for _ in range(order)]]
    for _ in range(order):
        powers.append(c_series_mul(powers[-1], log, order))

    def b(m):  # b_(m) with b_0 = 1
        return {(): 1} if m == 0 else {(m,): 1}

    table = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            acc: dict = {}
            for a in range(i + 1):
                for bb in range(j + 1):
                    if a + bb == 0 or not powers[a][i] or not powers[bb][j]:
                        continue
                    term = c_mul(c_mul(powers[a][i], powers[bb][j]), b(a + bb - 1))
                    c_add(acc, term, comb(a + bb, a))
            table[(i, j)] = {m: c for m, c in acc.items() if c}
    inverse = {}
    for n in range(1, order + 1):
        acc = {}
        for m in range(1, n + 1):
            c_add(acc, c_mul(powers[m][n], b(m - 1)), (-1) ** m)
        inverse[n] = {k: c for k, c in acc.items() if c}
    return table, inverse


# -- table ----------------------------------------------------------------------------


def _recomposition(table, order: int) -> list:
    """sum a_ij z(x)^i z(y)^j = z(x+y) through total order ``order``."""
    z = {k + 1: z_coefficient(k) for k in range(order)}
    zp = uni_powers(z, order, order)
    a = {(i, j): as_dict(table.entry(i, j)) for i in range(order + 1) for j in range(order + 1 - i)}
    problems = []
    for p in range(order + 1):
        # left[j] = sum_i a_ij [x^p] z(x)^i
        left = {}
        for j in range(order + 1 - p):
            acc: dict = {}
            for i in range(p + 1):
                if a[(i, j)] and p in zp[i]:
                    nc_add(acc, nc_mul(a[(i, j)], zp[i][p]))
            left[j] = _clean(acc)
        for q in range(order + 1 - p):
            acc = {}
            for j in range(q + 1):
                if left[j] and q in zp[j]:
                    nc_add(acc, nc_mul(left[j], zp[j][q]))
            got = _clean(acc)
            want = {} if p + q == 0 else {w: comb(p + q, p) * c for w, c in z_coefficient(p + q - 1).items()}
            if got != want:
                problems.append(f"recomposition differs at x^{p} y^{q}")
    return problems


def check_table(outputs, inputs) -> list:
    zz, gf3, qq, inverse = outputs["zz"], outputs["gf3"], outputs["qq"], outputs["inverse"]
    problems = []
    documented = {
        (1, 1): {(1,): 2},
        (1, 2): {(2,): 3, (1, 1): -2},
        (2, 1): {(2,): 3, (1, 1): -2},
    }
    for (i, j), want in documented.items():
        if as_dict(zz.entry(i, j)) != want:
            problems.append(f"a[{i},{j}] is {zz.entry(i, j)}")
    if as_dict(inverse.entry(1)) != {(1,): 2}:
        problems.append(f"c1 is {inverse.entry(1)}")
    if as_dict(inverse.entry(2)) != {(1, 1): -4}:
        problems.append(f"c2 is {inverse.entry(2)}")

    problems += _recomposition(zz, min(RECOMPOSITION_ORDER, zz.order))

    order = zz.order
    fgl, inv = commutative_fgl(max(order, inverse.order))
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if abelianize(as_dict(zz.entry(i, j))) != fgl[(i, j)]:
                problems.append(f"abelianized a[{i},{j}] differs from z(l(X) + l(Y))")
    if inv[1] != {(): -1}:
        problems.append("commutative inverse has no leading -1")
    for k in range(1, inverse.order):
        if abelianize(as_dict(inverse.entry(k))) != inv[k + 1]:
            problems.append(f"abelianized c{k} differs from z(-l(X))")

    for (i, j), element in gf3.items():
        want = {w: c % 3 for w, c in zz.entry(i, j).terms() if c % 3}
        if as_dict(element) != want:
            problems.append(f"GF(3) a[{i},{j}] is not the reduction of the ZZ entry")
    for (i, j), element in qq.items():
        want = {w: Fraction(c) for w, c in zz.entry(i, j).terms()}
        got = as_dict(element)
        if got != want or not all(isinstance(c, Fraction) for c in got.values()):
            problems.append(f"QQ a[{i},{j}] is not the ZZ entry embedded")
    return problems


# -- verify ---------------------------------------------------------------------------


def check_verify(outputs, inputs) -> list:
    problems = []
    report = outputs["axioms"]
    for name in ("unit_ok", "commutativity_ok", "associativity_ok", "inverse_ok"):
        if getattr(report, name) is not True:
            problems.append(f"axiom check {name} is {getattr(report, name)}")
    ok, results = outputs["filtration"]
    if not results:
        problems.append("filtration run produced no samples")
    if ok is not True or not all(r.ok for r in results):
        problems.append("a filtration sample failed")

    g = outputs["revert"]
    order = g.order
    gd = {n: as_dict(g.coefficient((n,))) for n in range(order + 1)}
    gd = {n: c for n, c in gd.items() if c}
    composed: dict = {}
    power = {0: {(): 1}}
    for k in range(order):
        power = uni_mul(power, gd, order)  # g^(k+1)
        for n, c in power.items():
            nc_add(composed.setdefault(n, {}), nc_mul(z_coefficient(k), c))
    composed = {n: c for n, c in ((n, _clean(c)) for n, c in composed.items()) if c}
    if composed != {1: {(): 1}}:
        problems.append("z(revert(z)) is not x")
    return problems


# -- certificate ----------------------------------------------------------------------


def p1_on_word(word: tuple, p: int) -> dict:
    """P^1 on a word by the derivation rule, P^1 Z_i = (i + 2 - p) Z_(i-p+1)."""
    out: dict = {}
    for pos, i in enumerate(word):
        target = i - (p - 1)
        coeff = (i + 2 - p) % p
        if target < 0 or not coeff:
            continue
        new = word[:pos] + ((target,) if target else ()) + word[pos + 1:]
        out[new] = out.get(new, 0) + coeff
    return _clean(out, p)


def check_certificate(outputs, inputs, prime: int = 3) -> list:
    problems = []
    bp, hf2 = outputs["bp"], outputs["hf2"]
    for label, cert in (("bp", bp), ("hf2", hf2)):
        if cert.verdict != "INFEASIBLE" or cert.solutions:
            problems.append(f"{label} certificate verdict is {cert.verdict}")
    top = [s for s in bp.systems if s["degree"] == 16]
    if len(bp.candidates) != 3 or len(top) != 3:
        problems.append(f"bp has {len(bp.candidates)} candidates and {len(top)} degree-16 systems")
    for s in top:
        if s["dimension"] != 2 ** 7 or s["rank"] != 2 ** 7:
            problems.append(f"degree-16 system has {s['dimension']} unknowns, rank {s['rank']}")

    for w, degree, basis in outputs["centralizers"]:
        modulus = w.algebra.ring.prime
        wd = as_dict(w)
        if len(basis) > 1:
            problems.append(f"centralizer of {w} in degree {degree} has {len(basis)} elements")
        for element in basis:
            e = as_dict(element)
            if nc_mul(e, wd, modulus) != nc_mul(wd, e, modulus):
                problems.append(f"centralizer element {element} does not commute with {w}")
        if len(wd) == 1:
            (word, coeff), = wd.items()
            if len(word) == 1 and coeff == 1:
                i = word[0]
                power, rest = divmod(degree, 2 * i)
                want = [{(i,) * power: 1}] if not rest else []
                if [as_dict(e) for e in basis] != want:
                    problems.append(f"centralizer of Z{i} in degree {degree} is not [Z{i}^n]")

    words = inputs["words"]
    images = [as_dict(img) for img in outputs["words"]]
    for word, image in zip(words, images):
        if image != p1_on_word(word, prime):
            problems.append(f"P1 on {word} differs from the generator formula")
    for n in range(0, len(words) - 2, 3):
        u, v = words[n], words[n + 1]
        pu, pv, puv = images[n], images[n + 1], images[n + 2]
        rule = nc_mul(pu, {v: 1}, prime)
        for w, c in nc_mul({u: 1}, pv, prime).items():
            rule[w] = (rule.get(w, 0) + c) % prime
        if puv != _clean(rule, prime):
            problems.append(f"P1 breaks the derivation rule on {u} * {v}")
    return problems


# -- cli ------------------------------------------------------------------------------


def splitting_quotient(p: int, order: int) -> list:
    """Free-algebra series on degrees 2, 4, 6, ... times prod (1 - u^d) over
    d = 2p^r - 2; the product form replaces the program's division."""
    dims = [0] * (order + 1)
    for n in range(0, order + 1, 2):
        dims[n] = 1 if n == 0 else 2 ** (n // 2 - 1)
    r = 1
    while 2 * p ** r - 2 <= order:
        d = 2 * p ** r - 2
        dims = [dims[n] - (dims[n - d] if n >= d else 0) for n in range(order + 1)]
        r += 1
    return dims


def check_cli(outputs, inputs) -> list:
    problems = []
    for (argv, expected, known_fault), (code, stdout) in zip(inputs["commands"], outputs):
        if code != expected and not known_fault:
            problems.append(f"{' '.join(argv)} exited {code}, expected {expected}")
        if "--format" in argv and code in (0, 1):
            try:
                payload = json.loads(stdout)
            except ValueError:
                problems.append(f"{' '.join(argv)} printed no JSON")
                continue
            if argv[0] == "parity" and argv[2] == "2" and payload["least_odd_degree"] != 9:
                problems.append(f"parity p=2 least odd degree {payload['least_odd_degree']}")
            if argv[0] == "rational" and payload["match"] is not True:
                problems.append("rational reports no match")
            if argv[0] == "split" and argv[2] == "2":
                want = splitting_quotient(2, int(argv[4]))
                if payload["dims"] != want:
                    problems.append(f"split p=2 is {payload['dims']}, expected {want}")
        elif argv[0] == "parity" and argv[2] == "2":
            if b"least odd degree with a K-side class: 9\n" not in stdout:
                problems.append("parity p=2 text does not report degree 9")
        elif argv[0] == "rational" and b"match: True" not in stdout:
            problems.append("rational text reports no match")
        elif argv[0] == "split" and argv[2] == "2":
            want = "[" + ", ".join(map(str, splitting_quotient(2, int(argv[4])))) + "]"
            if stdout.decode().splitlines()[-1] != want:
                problems.append("split p=2 text differs from the series quotient")
    return problems


CHECKS = {
    "table": check_table,
    "verify": check_verify,
    "certificate": check_certificate,
    "cli": check_cli,
}
