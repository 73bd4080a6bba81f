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
from .series import CentralSeries, VarSet, _powers, left_combination, left_expand


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
        varset = VarSet(("x",), algebra.profile.variable_degree)
    if variable is None:
        variable = varset.names[0]
    slot = varset.index(variable)
    coeffs = {}
    for i in range(order):
        index = [0] * len(varset)
        index[slot] = i + 1
        coeffs[tuple(index)] = algebra.one() if i == 0 else algebra.gen(i)
    return CentralSeries(algebra, varset, order, coeffs)


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

    def is_symmetric(self) -> bool:
        """Entrywise symmetry; true only up to total degree 4 in general."""
        return all(
            element == self._entries[(j, i)] for (i, j), element in self._entries.items()
        )

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
        for (i, j), element in self.items():
            if not element.is_zero():
                lines.append(f"a[{i},{j}] = {element}")
        return "\n".join(lines)


def fgl_table(order: int, algebra: FreeAlgebra | None = None) -> FGLTable:
    """Expand z(x + y) in the ordered basis z(x)^i z(y)^j."""
    if order < 2:
        raise ParameterError("formal group law table needs order >= 2")
    if algebra is None:
        algebra = FreeAlgebra()
    vardeg = algebra.profile.variable_degree
    pair = VarSet(("x", "y"), vardeg)
    z = orientation_series(order, algebra)
    target = z.specialize({"x": {"x": 1, "y": 1}}, pair)
    basis = {
        "x": z,
        "y": orientation_series(order, algebra, VarSet(("y",), vardeg)),
    }
    expansion = left_expand(target, basis)
    return FGLTable(algebra, order, expansion)


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

    @property
    def leading_sign(self) -> int:
        """The fixed linear coefficient of the inverse series."""
        return -1

    def entry(self, k: int) -> FreeElement:
        if k < 1 or k >= self.order:
            raise ParameterError(f"c_{k} is outside order {self.order}")
        return self._entries[k]

    def items(self):
        return sorted(self._entries.items())

    def to_data(self):
        return {
            "order": self.order,
            "gamma1": "-1",
            "entries": [
                {"k": k, "element": element.to_data()} for k, element in self.items()
            ],
        }

    def __str__(self):
        lines = [f"inverse series table, order {self.order}", "gamma[1] = -1"]
        for k, element in self.items():
            lines.append(f"c[{k}] = {element}")
        return "\n".join(lines)


def inverse_table(order: int, algebra: FreeAlgebra | None = None) -> InverseTable:
    """Expand z(-x) in the basis z(x): the coefficient of z^(k+1) is c_k."""
    if order < 2:
        raise ParameterError("inverse table needs order >= 2")
    if algebra is None:
        algebra = FreeAlgebra()
    z = orientation_series(order, algebra)
    zbar = z.specialize({"x": {"x": -1}})
    expansion = left_expand(zbar, {"x": z})
    linear = expansion.get((1,), algebra.zero())
    if linear != algebra.one().scale(-1):
        raise DegenerateInputError("inverse expansion lost its leading -1")
    return InverseTable(
        algebra, order, {k: expansion.get((k + 1,), algebra.zero()) for k in range(1, order)}
    )


# The checks of :func:`verify_axioms`, in report order; an :class:`AxiomReport`
# holds one ``<name>_ok`` field per check.
AXIOM_CHECKS = ("unit", "commutativity", "associativity", "inverse")


def check_results(report) -> list:
    """(name, passed) for each of :data:`AXIOM_CHECKS`, read from ``report``."""
    return [(name, getattr(report, f"{name}_ok")) for name in AXIOM_CHECKS]


class AxiomReport(Record):
    """Outcome of the four formal group law checks at one truncation order."""

    __slots__ = ("order", *(f"{name}_ok" for name in AXIOM_CHECKS), "failures")
    _defaults = {"failures": dict}

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in check_results(self))

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


def _first_difference(left: CentralSeries, right: CentralSeries):
    diff = left - right
    if diff.is_zero():
        return None
    index = diff.support()[0]
    return f"first offending monomial {index}: {diff.coefficient(index)}"


def _fgl_sum(table: FGLTable, zs1, zs2) -> CentralSeries:
    """sum a_{i,j} * (zs1^i * zs2^j) with coefficients on the left.

    Each product zs1^i * zs2^j is one series product, and a_{i,j} times each
    of its coefficients goes straight into one total accumulator per index
    (:func:`~ncfgl.series.left_combination`).  The association a (P Q) is
    kept on purpose: factoring as sum_j (sum_i a_{i,j} zs1^i) zs2^j forms
    3.6 times as many pairs of terms at order 9 (371 098 against 101 908)
    and was no faster.
    """
    return left_combination(
        (
            (element, zs1[i] * zs2[j])
            for (i, j), element in table.items()
            if not element.is_zero()
        ),
        zs1[0],
    )


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
    central substitution, and each power list is built once per row.
    Failures are reported with the first offending monomial, never raised.
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

    vardeg = algebra.profile.variable_degree
    for name, variables, expected_form, groupings in _AXIOM_ROWS:
        z = orientation_series(order, algebra, VarSet(variables, vardeg))
        expected = z.specialize({"x": expected_form})
        powers = {}
        for label, forms in groupings:
            pair = []
            for form in forms:
                key = tuple(form.items())
                if key not in powers:
                    powers[key] = _powers(z.specialize({"x": form}), order)
                pair.append(powers[key])
            detail = _first_difference(_fgl_sum(table, *pair), expected)
            if detail is not None:
                failures.setdefault(name, f"{label}: {detail}")

    return AxiomReport(order, *(name not in failures for name in AXIOM_CHECKS), failures)


class FiltrationResult(Record):
    """u z^k - z^k u together with its x-adic valuation."""

    __slots__ = ("k", "order", "series", "valuation", "required")

    @property
    def ok(self) -> bool:
        """Valuation at least k + 1 (filtration 2k + 2 in topological degree)."""
        return self.valuation is None or self.valuation >= self.required

    def first_term(self):
        if self.series.is_zero():
            return None
        index = self.series.support()[0]
        return index, self.series.coefficient(index)

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

    Each sample is a random homogeneous u of degree at most ``max_degree`` and
    an exponent 1 <= k <= min(max_k, order - 2); the powers z, ..., z^k are
    built once per run and shared by the samples.  A run whose algebra has no
    word of degree 1 to ``max_degree`` is refused with ParameterError.
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
        if u.is_zero():
            continue
        results.append(_filtration_result(u, k, powers[k]))
    return all(r.ok for r in results), results
