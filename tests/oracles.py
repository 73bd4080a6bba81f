"""Independent brute-force oracles, kept deliberately separate from the
production series machinery.  Bivariate and univariate truncated series are
plain dictionaries mapping exponent tuples to free-algebra elements; products
and expansions are written out directly."""

from math import comb

from ncfgl import FreeAlgebra


def z_gen(algebra: FreeAlgebra, i: int):
    return algebra.one() if i == 0 else algebra.gen(i)


# -- bivariate dictionaries: {(i, j): FreeElement} ------------------------------


def biv_unit(algebra):
    return {(0, 0): algebra.one()}


def biv_mul(a, b, order):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 > order:
                continue
            key = (i1 + i2, j1 + j2)
            prod = c1 * c2
            out[key] = out[key] + prod if key in out else prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def biv_scale_left(element, series):
    out = {}
    for key, value in series.items():
        prod = element * value
        if not prod.is_zero():
            out[key] = prod
    return out


def z_in_x(algebra, order):
    return {(i + 1, 0): z_gen(algebra, i) for i in range(order)}


def z_in_y(algebra, order):
    return {(0, i + 1): z_gen(algebra, i) for i in range(order)}


def z_of_sum(algebra, order):
    """z(x + y) by direct binomial expansion of each (x + y)^(i+1)."""
    out = {}
    for i in range(order):
        element = z_gen(algebra, i)
        for a in range(i + 2):
            b = i + 1 - a
            coeff = comb(i + 1, a)
            term = element.scale(coeff)
            key = (a, b)
            out[key] = out[key] + term if key in out else term
    return {k: v for k, v in out.items() if not v.is_zero()}


def brute_force_fgl_table(algebra: FreeAlgebra, order: int):
    """Triangular solve for the a_{i,j}, level by level in total degree.

    The ordered basis power z(x)^i z(y)^j contributes exactly a_{i,j} to the
    x^i y^j slot at total degree i + j, so within each level the slots decouple
    and the solve is a direct subtraction.
    """
    zx = z_in_x(algebra, order)
    zy = z_in_y(algebra, order)
    target = z_of_sum(algebra, order)

    pow_x = [biv_unit(algebra)]
    pow_y = [biv_unit(algebra)]
    for _ in range(order):
        pow_x.append(biv_mul(pow_x[-1], zx, order))
        pow_y.append(biv_mul(pow_y[-1], zy, order))

    accumulated = {}
    table = {}
    zero = algebra.zero()
    for n in range(1, order + 1):
        level = {}
        for i in range(n + 1):
            j = n - i
            residual = target.get((i, j), zero) - accumulated.get((i, j), zero)
            if not residual.is_zero():
                level[(i, j)] = residual
        table.update(level)
        for (i, j), coeff in level.items():
            basis_power = biv_mul(pow_x[i], pow_y[j], order)
            for key, value in biv_scale_left(coeff, basis_power).items():
                accumulated[key] = accumulated[key] + value if key in accumulated else value
    return table


# -- univariate dictionaries: {k: FreeElement} ------------------------------------


def uni_mul(a, b, order):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if k1 + k2 > order:
                continue
            prod = c1 * c2
            key = k1 + k2
            out[key] = out[key] + prod if key in out else prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def uni_z(algebra, order):
    return {i + 1: z_gen(algebra, i) for i in range(order)}


def commutator_with_z_power(u, k, order):
    """u z^k - z^k u as a plain dictionary, by explicit convolution."""
    algebra = u.algebra
    power = {0: algebra.one()}
    z = uni_z(algebra, order)
    for _ in range(k):
        power = uni_mul(power, z, order)
    out = {}
    for key, value in power.items():
        diff = u * value - value * u
        if not diff.is_zero():
            out[key] = diff
    return out


# -- abelianization: Z_i -> b_i, commuting -------------------------------------
#
# Mapping each Z_i to a commuting variable b_i is a ring map NSym -> Z[b_1, ...],
# so it sends the table to the commutative law z(z^-1(X) + z^-1(Y)) with
# z(x) = sum_{i>=0} b_i x^(i+1), b_0 = 1.  Polynomials are dicts from sorted
# (index, exponent) tuples to ints; series are dicts from exponent tuples to
# polynomials.  ``p`` is a prime modulus, or None over the integers.


def _reduced(poly, p):
    return {m: r for m, c in poly.items() if (r := c % p if p else c)}


def poly_mul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for i, e in m2:
                exps[i] = exps.get(i, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return _reduced(out, p)


def poly_add(a, b, p, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return _reduced(out, p)


def series_add(f, g, p):
    out = dict(f)
    for e, c in g.items():
        out[e] = poly_add(out.get(e, {}), c, p)
    return {e: c for e, c in out.items() if c}


def series_mul(f, g, order, p):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= order:
                out[e] = poly_add(out.get(e, {}), poly_mul(c1, c2, p), p)
    return {e: c for e, c in out.items() if c}


def z_of(s, order, p):
    """z(s) = sum_{i>=0} b_i s^(i+1) for a series s without constant term."""
    out = {}
    power = s
    for i in range(order):
        b_i = {(): 1} if i == 0 else {((i, 1),): 1}
        out = series_add(out, {e: poly_mul(b_i, c, p) for e, c in power.items()}, p)
        power = series_mul(power, s, order, p)
    return out


def z_inverse(order, p):
    """l(x) = z^-1(x) as {(n,): polynomial}, one coefficient at a time.

    With l known below x^n, the x^n coefficient of z(l) is l_n plus the value
    it has with l_n = 0, and it must vanish for n >= 2.
    """
    log = {(1,): {(): 1}}
    for n in range(2, order + 1):
        known = z_of(log, n, p).get((n,), {})
        log[(n,)] = poly_add({}, known, p, sign=-1)
    return {e: c for e, c in log.items() if c}


def commutative_fgl(order, p=None):
    """{(i, j): polynomial} of z(z^-1(X) + z^-1(Y)) through total degree ``order``."""
    log = z_inverse(order, p)
    in_x = {(n, 0): c for (n,), c in log.items()}
    in_y = {(0, n): c for (n,), c in log.items()}
    return z_of(series_add(in_x, in_y, p), order, p)


def abelianize(element, p=None):
    """The commutative polynomial of a free-algebra element, Z_i -> b_i."""
    out = {}
    for word, coeff in element.terms():
        exps = {}
        for i in word:
            exps[i] = exps.get(i, 0) + 1
        m = tuple(sorted(exps.items()))
        out[m] = out.get(m, 0) + coeff
    return _reduced(out, p)


# -- plain word-dict series: {index: {word: scalar}} -----------------------------
#
# A CentralSeries is read out through its public inspection methods only
# (support, coefficient, terms) and the operations are redone here on plain
# dictionaries: words concatenate as tuples, scalars are ints, residues or
# Fractions combined with + and *, and ``p`` (a prime, or None) reduces them.
# No ncfgl arithmetic runs on this side.


def plain_series(series):
    return {index: dict(series.coefficient(index).terms()) for index in series.support()}


def _plain_reduced(series, p):
    out = {}
    for index, element in series.items():
        clean = {w: r for w, c in element.items() if (r := c % p if p else c)}
        if clean:
            out[index] = clean
    return out


def plain_add(f, g, p, sign=1):
    out = {index: dict(element) for index, element in f.items()}
    for index, element in g.items():
        acc = out.setdefault(index, {})
        for w, c in element.items():
            acc[w] = acc.get(w, 0) + sign * c
    return _plain_reduced(out, p)


def plain_mul(f, g, order, p):
    out = {}
    for i1, e1 in f.items():
        for i2, e2 in g.items():
            index = tuple(a + b for a, b in zip(i1, i2))
            if sum(index) > order:
                continue
            acc = out.setdefault(index, {})
            for w1, c1 in e1.items():
                for w2, c2 in e2.items():
                    acc[w1 + w2] = acc.get(w1 + w2, 0) + c1 * c2
    return _plain_reduced(out, p)


def plain_scale(f, element, p, on_left):
    """element * f (``on_left``) or f * element, coefficientwise."""
    out = {}
    for index, e in f.items():
        acc = out.setdefault(index, {})
        for w1, c1 in e.items():
            for w2, c2 in element.items():
                word = w2 + w1 if on_left else w1 + w2
                acc[word] = acc.get(word, 0) + c1 * c2
    return _plain_reduced(out, p)


def plain_specialize(f, forms, width, order, p):
    """Substitute the integer linear form forms[v] (``width`` coefficients)
    for variable v, one factor of each power at a time."""
    out = {}
    for index, element in f.items():
        expansion = {(0,) * width: 1}
        for v, e in enumerate(index):
            for _ in range(e):
                step = {}
                for key, c in expansion.items():
                    for j, cj in enumerate(forms[v]):
                        new = key[:j] + (key[j] + 1,) + key[j + 1:]
                        if cj and sum(new) <= order:
                            step[new] = step.get(new, 0) + c * cj
                expansion = step
        for key, c in expansion.items():
            acc = out.setdefault(key, {})
            for w, value in element.items():
                acc[w] = acc.get(w, 0) + c * value
    return _plain_reduced(out, p)
