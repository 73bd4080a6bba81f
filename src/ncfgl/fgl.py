"""The orientation series, its formal group law, and the axiom checks.

The orientation series is z(x) = sum_{i>=0} Z_i x^(i+1) with Z_0 = 1.  The
formal group law coefficients a_{i,j} are defined by the unique left-basis
expansion

    z(x + y) = sum_{i,j} a_{i,j} * z(x)^i * z(y)^j,

computed by :func:`ncfgl.series.left_expand` (a log/exp composition formula is
not available: left substitution is not multiplicative over noncommuting
coefficients).  Since the coefficient of x^a y^b in z(x)^i z(y)^j is
P_i[a] P_j[b] with P_k[m] = [x^m] z^k, the expansion is two univariate
triangular solves: for each fixed power x^a, the coefficients of x^a y^b in
z(x + y) are first solved against the powers of z(y), keeping the solved
coefficients on the left, and the results are then solved against the powers
of z(x).  The inverse table is a single such solve.  The expansion route is
pullback compatible, i.e. it commutes with the substitutions x -> x + y,
x -> -x of central variables, which is what the axiom checks below exploit.
"""

from __future__ import annotations

import random
from types import MappingProxyType

from .errors import (
    DegenerateInputError,
    ModeMismatchError,
    ParameterError,
    UnsupportedInputError,
)
from .freealg import FreeAlgebra, FreeElement, random_homogeneous
from .record import Record
from .series import (
    CentralSeries,
    VarSet,
    _powers,
    _substitution,
    left_expand,
    left_product_combination,
)


def orientation_series(
    order: int,
    algebra: FreeAlgebra | None = None,
    varset: VarSet | None = None,
    variable: str | None = None,
) -> CentralSeries:
    """z = x + Z_1 x^2 + Z_2 x^3 + ... truncated at total order ``order``."""
    if order < 1:
        raise ParameterError("orientation series needs order >= 1")
    if algebra is None:
        algebra = FreeAlgebra()
    if varset is None:
        varset = VarSet(("x",))
    if variable is None:
        variable = varset.names[0]
    slot = varset.index(variable)
    coeffs = {}
    for i in range(order):
        index = [0] * len(varset)
        index[slot] = i + 1
        coeffs[tuple(index)] = algebra.one() if i == 0 else algebra.gen(i)
    return CentralSeries(algebra, varset, order, coeffs)


def _expand_after(order: int, algebra: FreeAlgebra, source: str, form: dict) -> dict:
    """The left expansion of z(source) after source -> ``form``, a linear
    form {variable: int}, in the powers of the orientation series of each
    variable of the form, in the form's order: the one route of
    :func:`fgl_table`, :func:`inverse_table` and the CLI's ``expand``."""
    target = VarSet(tuple(form))
    z = orientation_series(order, algebra, VarSet((source,)))
    basis = {name: orientation_series(order, algebra, VarSet((name,))) for name in target}
    return left_expand(z.specialize({source: form}, target), basis)


class FGLTable(Record):
    """The coefficients a_{i,j} of the formal group law, i + j <= order.

    Checked by :func:`verify_axioms`, not assumed: the unit row and column
    a_{i,0} = a_{0,i} = [i == 1], the degree law deg a_{i,j} = 2(i+j) - 2 on
    the complex profile, and commutativity in the sense that both insertion
    orders sum to the same element (sum a_{i,j} z(x)^i z(y)^j equals
    sum a_{i,j} z(y)^i z(x)^j).  Entrywise symmetry a_{i,j} = a_{j,i} is a
    strictly stronger statement and is *false* over noncommuting
    coefficients: it holds through total degree 4 and first fails at
    a_{2,3} - a_{3,2} = 2 Z1 Z2 Z1 - 2 Z1 Z1 Z2, because in the ordered
    product z(x) z(y) the x-coefficient always precedes the y-coefficient.
    The entries are held read-only.
    """

    __slots__ = ("algebra", "order", "_entries")

    def __init__(self, algebra: FreeAlgebra, order: int, entries: dict):
        super().__init__(algebra, order, MappingProxyType({
            (i, j): entries.get((i, j), algebra.zero())
            for i in range(order + 1)
            for j in range(order + 1 - i)
        }))

    def entry(self, i: int, j: int) -> FreeElement:
        if i < 0 or j < 0 or i + j > self.order:
            raise ParameterError(f"entry ({i},{j}) is outside order {self.order}")
        return self._entries[(i, j)]

    def items(self):
        return [
            ((i, j), self._entries[(i, j)])
            for (i, j) in sorted(self._entries, key=lambda ij: (ij[0] + ij[1], ij[0]))
        ]

    def to_data(self):
        return {
            "order": self.order,
            "entries": [
                {"i": i, "j": j, "element": element.to_data()}
                for (i, j), element in self.items()
            ],
        }

    def __str__(self):
        lines = [f"formal group law table, order {self.order}"]
        lines += (f"a[{i},{j}] = {e}" for (i, j), e in self.items() if not e.is_zero())
        return "\n".join(lines)


def fgl_table(order: int, algebra: FreeAlgebra | None = None) -> FGLTable:
    """Expand z(x + y) in the ordered basis z(x)^i z(y)^j."""
    if order < 2:
        raise ParameterError("formal group law table needs order >= 2")
    if algebra is None:
        algebra = FreeAlgebra()
    return FGLTable(algebra, order, _expand_after(order, algebra, "x", {"x": 1, "y": 1}))


class InverseTable(Record):
    """Coefficients of the formal inverse: xbar = -x + sum_k c_k x^(k+1);
    the entries are held read-only."""

    __slots__ = ("algebra", "order", "_entries")

    def __init__(self, algebra: FreeAlgebra, order: int, entries: dict):
        super().__init__(
            algebra,
            order,
            MappingProxyType({k: entries.get(k, algebra.zero()) for k in range(1, order)}),
        )

    def entry(self, k: int) -> FreeElement:
        if k < 1 or k >= self.order:
            raise ParameterError(f"c_{k} is outside order {self.order}")
        return self._entries[k]

    def items(self):
        return sorted(self._entries.items())

    def _gamma1(self) -> str:
        """The fixed linear coefficient -1, as the ring writes it."""
        ring = self.algebra.ring
        return ring.render(ring.of_int(-1))

    def to_data(self):
        return {
            "order": self.order,
            "gamma1": self._gamma1(),
            "entries": [
                {"k": k, "element": element.to_data()} for k, element in self.items()
            ],
        }

    def __str__(self):
        lines = [f"inverse series table, order {self.order}", f"gamma[1] = {self._gamma1()}"]
        lines += (f"c[{k}] = {element}" for k, element in self.items())
        return "\n".join(lines)


def inverse_table(order: int, algebra: FreeAlgebra | None = None) -> InverseTable:
    """Expand z(-x) in the basis z(x): the coefficient of z^(k+1) is c_k."""
    if order < 2:
        raise ParameterError("inverse table needs order >= 2")
    if algebra is None:
        algebra = FreeAlgebra()
    expansion = _expand_after(order, algebra, "x", {"x": -1})
    linear = expansion.get((1,), algebra.zero())
    if linear != algebra.one().scale(-1):
        raise DegenerateInputError("inverse expansion lost its leading -1")
    return InverseTable(
        algebra, order, {k: expansion.get((k + 1,), algebra.zero()) for k in range(1, order)}
    )


class Expansion(Record):
    """A series after the substitution ``assignment`` (source -> linear
    form), expanded in left powers of the orientation series of each target
    variable: ``terms`` lists ``{"exponents": [...], "element": e}``."""

    __slots__ = ("assignment", "order", "terms")
    to_data = Record._data

    def __str__(self):
        lines = [f"expansion of the substituted series, order {self.order}"]
        lines += (f"A{term['exponents']} = {term['element']}" for term in self.terms)
        return "\n".join(lines)


# The checks of :func:`verify_axioms`, in report order; an :class:`AxiomReport`
# holds one ``<name>_ok`` field per check.
AXIOM_CHECKS = ("unit", "commutativity", "associativity", "inverse")


def check_results(report) -> list:
    """(name, passed) for each of :data:`AXIOM_CHECKS`, read from ``report``."""
    return [(name, getattr(report, f"{name}_ok")) for name in AXIOM_CHECKS]


class AxiomReport(Record):
    """Outcome of the four formal group law checks at one truncation order."""

    __slots__ = ("order", *(f"{name}_ok" for name in AXIOM_CHECKS), "failures")

    def to_data(self):
        return {
            "order": self.order,
            "checks": dict(check_results(self)),
            "failures": dict(self.failures),
        }

    def __str__(self):
        lines = [f"axiom checks at order {self.order}"]
        for name, ok in check_results(self):
            status = "PASS" if ok else f"FAIL ({self.failures.get(name, 'no detail')})"
            lines.append(f"{name:>14}: {status}")
        return "\n".join(lines)


def _first_difference(left: CentralSeries, right: CentralSeries) -> str:
    """The first monomial of ``left - right``, for two unequal series."""
    diff = left - right
    index = diff.support()[0]
    return f"first offending monomial {index}: {diff.coefficient(index)}"


# One row per series check of :func:`verify_axioms`: the check, its variables,
# the linear form L of the expected series z(L) (the empty form gives the zero
# series), and two labelled groupings (L1, L2), each compared as
# sum a_{i,j} z(L1)^i z(L2)^j against the expected series.
_AXIOM_ROWS = (
    ("commutativity", ("x", "y"), {"x": 1, "y": 1}, (
        ("F(x, y)", ({"x": 1}, {"y": 1})),
        ("F(y, x)", ({"y": 1}, {"x": 1})),
    )),
    ("associativity", ("x", "y", "w"), {"x": 1, "y": 1, "w": 1}, (
        ("grouping (x+y)+w", ({"x": 1, "y": 1}, {"w": 1})),
        ("grouping x+(y+w)", ({"x": 1}, {"y": 1, "w": 1})),
    )),
    ("inverse", ("x",), {}, (
        ("F(x, xbar)", ({"x": 1}, {"x": -1})),
        ("F(xbar, x)", ({"x": -1}, {"x": 1})),
    )),
)


def verify_axioms(
    order: int,
    algebra: FreeAlgebra | None = None,
    table: FGLTable | None = None,
) -> AxiomReport:
    """Check unit, commutativity, associativity (both groupings), and inverse.

    Commutativity is the identity of elements: inserting the two orientation
    series in either order reproduces the same expansion,
    sum a_{i,j} z(x)^i z(y)^j = z(x + y) = sum a_{i,j} z(y)^i z(x)^j.
    (Entrywise symmetry of the table is stronger and fails from total degree
    5 on; see :class:`FGLTable`.)  Associativity is checked in the
    three-variable series ring with the two groupings realized by the central
    substitutions x -> x + y and y -> y + w; the inverse identity is checked
    with the negated orientation series in both orders.  These three checks
    are the rows of ``_AXIOM_ROWS``; every series in them is z(x) after one
    central substitution.  The powers z(x)^0, ..., z(x)^order are built once
    per call, by univariate products, and each row's power lists z(L)^k and
    expected series z(L) are derived from them by ``specialize``; a power
    list shares one substitution, so it builds the monomial images once.
    That is exact: substituting a linear form for the central variable is a
    ring homomorphism that keeps the total exponent, so z(L)^k is the image
    of z(x)^k and no term crosses the truncation order.  Each grouping's sum
    runs the word loop of :func:`~ncfgl.series.left_product_combination`
    and forms no product series.  Failures are reported with the first
    offending monomial, never raised.
    A given ``table`` of another order is refused with ParameterError, one
    over another algebra with ModeMismatchError, before any series is built.
    """
    if order < 2:
        raise ParameterError("axiom verification needs order >= 2")
    if algebra is None:
        algebra = FreeAlgebra()
    if table is None:
        table = fgl_table(order, algebra)
    elif table.order != order:
        raise ParameterError(f"the table has order {table.order}, not {order}")
    elif table.algebra != algebra:
        raise ModeMismatchError(f"the table is over {table.algebra!r}, not {algebra!r}")
    one = algebra.one()
    zero = algebra.zero()
    failures = {}  # a check passes exactly when it has no entry here
    for i in range(order + 1):
        expected = one if i == 1 else zero
        for key in ((i, 0), (0, i)):
            if table.entry(*key) != expected:
                failures.setdefault("unit", f"a[{key[0]},{key[1]}] = {table.entry(*key)}")

    nonzero = [item for item in table.items() if not item[1].is_zero()]
    base = _powers(orientation_series(order, algebra), order)
    for name, variables, expected_form, groupings in _AXIOM_ROWS:
        varset = VarSet(variables)
        expected = base[1].specialize({"x": expected_form}, varset)
        powers = {}
        for label, forms in groupings:
            pair = []
            for form in forms:
                key = tuple(form.items())
                if key not in powers:
                    substitute = _substitution({"x": form}, base[0].varset, varset)
                    powers[key] = [substitute(zk) for zk in base]
                pair.append(powers[key])
            # sum a_{i,j} (z(L1)^i z(L2)^j), forming no product series.  The
            # association a (P Q) is kept on purpose: factoring as
            # sum_j (sum_i a_{i,j} z(L1)^i) z(L2)^j forms 3.6 times as many
            # pairs of terms at order 9 (371 098 against 101 908) and was no
            # faster.
            got = left_product_combination(nonzero, *pair)
            if got != expected:
                failures.setdefault(name, f"{label}: {_first_difference(got, expected)}")

    return AxiomReport(order, *(name not in failures for name in AXIOM_CHECKS), failures)


class FiltrationResult(Record):
    """u z^k - z^k u together with its x-adic valuation."""

    __slots__ = ("k", "order", "series", "valuation", "required")

    @property
    def ok(self) -> bool:
        """Valuation at least k + 1 (filtration 2k + 2 in topological degree)."""
        return self.valuation is None or self.valuation >= self.required

    def to_data(self):
        return {
            "k": self.k,
            "order": self.order,
            "valuation": self.valuation,
            "required": self.required,
            "ok": self.ok,
            "series": self.series.to_data(),
        }

    def __str__(self):
        val = "infinite" if self.valuation is None else str(self.valuation)
        status = "OK" if self.ok else "VIOLATED"
        return (
            f"commutator with z^{self.k} at order {self.order}: "
            f"valuation {val} (required >= {self.required}) {status}\n{self.series}"
        )


def commutator_filtration(u: FreeElement, k: int, order: int) -> FiltrationResult:
    """u z(x)^k - z(x)^k u and its valuation, checked against the bound k + 1."""
    if k < 1:
        raise ParameterError("filtration exponent k must be >= 1")
    if order < k + 2:
        raise ParameterError("order must be at least k + 2 to see the bound")
    if not u.is_homogeneous():
        raise UnsupportedInputError("filtration statement applies to homogeneous u")
    return _filtration_result(u, k, orientation_series(order, u.algebra) ** k)


def _filtration_result(u: FreeElement, k: int, zk: CentralSeries) -> FiltrationResult:
    """u zk - zk u for zk = z(x)^k, one accumulator per index."""
    diff = zk.commutator(u)
    return FiltrationResult(k, zk.order, diff, diff.valuation(), k + 1)


def filtration_property_run(
    order: int = 12,
    samples: int = 100,
    seed: int = 0,
    algebra: FreeAlgebra | None = None,
    max_degree: int = 8,
    max_k: int = 4,
):
    """Seeded batch of filtration checks; returns (all_ok, list of results).

    Each sample is a random nonzero homogeneous u, of a degree from 1 to
    ``max_degree`` in which the algebra has words, and an exponent
    1 <= k <= min(max_k, order - 2), so every sample gives one result; the
    powers z, ..., z^k are built once per run and shared by the samples.  A
    run whose algebra has no word of degree 1 to ``max_degree`` is refused
    with ParameterError.
    """
    if samples < 1:
        raise ParameterError("a filtration run needs at least one sample")
    top = min(max_k, order - 2)
    if top < 1:
        raise ParameterError("a filtration run needs max_k >= 1 and order >= 3")
    if algebra is None:
        algebra = FreeAlgebra()
    degrees = [d for d in range(1, max_degree + 1) if algebra.dim(d)]
    if not degrees:
        raise ParameterError(
            f"a filtration run needs a word of degree 1 to max_degree = {max_degree} "
            f"in {algebra!r}"
        )
    rng = random.Random(seed)
    powers = _powers(orientation_series(order, algebra), top)
    results = []
    for _ in range(samples):
        degree = rng.choice(degrees)
        k = rng.randint(1, top)
        u = random_homogeneous(algebra, degree, rng)
        results.append(_filtration_result(u, k, powers[k]))
    return all(r.ok for r in results), results


class Verification(Record):
    """The axiom checks and a seeded filtration run at one order: ``checks``
    maps each check name to whether it passed (read-only), and ``ok`` when
    all of them did."""

    __slots__ = ("order", "seed", "checks", "axioms", "filtration_samples")
    to_data = Record._data

    def __init__(self, order, seed, checks, axioms, filtration_samples):
        super().__init__(order, seed, MappingProxyType(dict(checks)), axioms, filtration_samples)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def __str__(self):
        lines = [f"verification at order {self.order} (seed {self.seed})"]
        lines += (f"{name:>14}: {'PASS' if ok else 'FAIL'}" for name, ok in self.checks.items())
        lines.append(f"filtration samples: {self.filtration_samples}")
        return "\n".join(lines)
