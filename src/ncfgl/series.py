"""Truncated power series in up to three central variables.

Coefficients are free-algebra elements and every term is kept in left-normal
form: (coefficient) times (variable monomial), with the coefficient written on
the left.  The variables are central, so they commute with each other and with
every coefficient, but the coefficients themselves do not commute.  This makes
left substitution f(g) = sum_k f_k g^k well defined yet *not* a ring
homomorphism in f; see :func:`left_substitute`.

Truncation bounds the total variable exponent only; coefficient degrees are
unbounded.  A series is graded by "cohomological" degree D when every stored
term satisfies

    variable_degree * total_exponent - word_degree(coefficient) = D,

matching the convention that coefficient degrees count negatively against the
variable grading.
"""

from __future__ import annotations

from .errors import (
    ComposabilityError,
    ExpansionError,
    ParameterError,
    ReversionError,
    ShapeError,
)
from .freealg import FreeAlgebra, FreeElement, add_product


class VarSet:
    """An ordered tuple of 1 to 3 central variable names with one degree."""

    __slots__ = ("names", "variable_degree")

    def __init__(self, names, variable_degree: int):
        names = tuple(names)
        if not 1 <= len(names) <= 3:
            raise ParameterError("a variable set holds 1 to 3 variables")
        if len(set(names)) != len(names):
            raise ParameterError("variable names must be distinct")
        if variable_degree < 1:
            raise ParameterError("variable degree must be positive")
        self.names = names
        self.variable_degree = variable_degree

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParameterError(f"unknown variable {name!r}") from None

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, VarSet)
            and self.names == other.names
            and self.variable_degree == other.variable_degree
        )

    def __hash__(self):
        return hash((self.names, self.variable_degree))

    def __repr__(self):
        return f"VarSet({self.names!r}, {self.variable_degree})"


def _graded_lex(index):
    return (sum(index), index)


class CentralSeries:
    """Truncated series sum_I (coefficient_I) * x^I with central variables."""

    __slots__ = ("algebra", "varset", "order", "_coeffs")

    def __init__(self, algebra: FreeAlgebra, varset: VarSet, order: int, coeffs: dict):
        if order < 0:
            raise ParameterError("truncation order must be nonnegative")
        clean = {}
        for index, element in coeffs.items():
            index = tuple(index)
            if len(index) != len(varset):
                raise ShapeError("multi-index width does not match the variable set")
            if any(e < 0 for e in index):
                raise ParameterError("exponents must be nonnegative")
            if sum(index) > order:
                continue
            if not element.is_zero():
                clean[index] = element
        self.algebra = algebra
        self.varset = varset
        self.order = order
        self._coeffs = clean

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, algebra, varset, order) -> "CentralSeries":
        return cls(algebra, varset, order, {})

    @classmethod
    def unit(cls, algebra, varset, order) -> "CentralSeries":
        zero_index = (0,) * len(varset)
        return cls(algebra, varset, order, {zero_index: algebra.one()})

    @classmethod
    def variable(cls, algebra, varset, order, name: str) -> "CentralSeries":
        index = [0] * len(varset)
        index[varset.index(name)] = 1
        return cls(algebra, varset, order, {tuple(index): algebra.one()})

    # -- inspection ---------------------------------------------------------------

    def coefficient(self, index) -> FreeElement:
        return self._coeffs.get(tuple(index), self.algebra.zero())

    def support(self):
        """Stored multi-indices in graded-lexicographic order."""
        return sorted(self._coeffs, key=_graded_lex)

    def is_zero(self) -> bool:
        return not self._coeffs

    def valuation(self):
        """Least total exponent of a nonzero term; None for the zero series."""
        if not self._coeffs:
            return None
        return min(sum(index) for index in self._coeffs)

    def constant_term(self) -> FreeElement:
        return self.coefficient((0,) * len(self.varset))

    def cohomological_degree(self):
        """The degree D making the series graded, or None if it is not."""
        if not self._coeffs:
            return None
        vardeg = self.varset.variable_degree
        found = None
        for index, element in self._coeffs.items():
            if not element.is_homogeneous():
                return None
            d = vardeg * sum(index) - element.degree()
            if found is None:
                found = d
            elif found != d:
                return None
        return found

    # -- arithmetic -----------------------------------------------------------------

    def _check_shape(self, other: "CentralSeries"):
        if (
            self.algebra != other.algebra
            or self.varset != other.varset
            or self.order != other.order
        ):
            raise ShapeError("series operands disagree in algebra, variables, or order")

    def __add__(self, other: "CentralSeries") -> "CentralSeries":
        self._check_shape(other)
        out = dict(self._coeffs)
        for index, element in other._coeffs.items():
            acc = out.get(index)
            out[index] = element if acc is None else acc + element
        return CentralSeries(self.algebra, self.varset, self.order, out)

    def __neg__(self) -> "CentralSeries":
        return CentralSeries(
            self.algebra,
            self.varset,
            self.order,
            {index: -element for index, element in self._coeffs.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale_left(self, value) -> "CentralSeries":
        """Multiply every coefficient by ``value`` on the left."""
        if isinstance(value, int):
            return CentralSeries(
                self.algebra,
                self.varset,
                self.order,
                {i: e.scale(value) for i, e in self._coeffs.items()},
            )
        return CentralSeries(
            self.algebra,
            self.varset,
            self.order,
            {i: value * e for i, e in self._coeffs.items()},
        )

    def scale_right(self, value: FreeElement) -> "CentralSeries":
        """Multiply every coefficient by ``value`` on the right."""
        return CentralSeries(
            self.algebra,
            self.varset,
            self.order,
            {i: e * value for i, e in self._coeffs.items()},
        )

    def __mul__(self, other: "CentralSeries") -> "CentralSeries":
        """Product in left-normal form: (a x^I)(b x^J) = (ab) x^(I+J).

        The central variables pass through the coefficients; the coefficients
        keep their order.
        """
        self._check_shape(other)
        order = self.order
        out = {}
        right = [(index, sum(index), element) for index, element in other._coeffs.items()]
        for i1, a in self._coeffs.items():
            t1 = sum(i1)
            for i2, t2, b in right:
                if t1 + t2 > order:
                    continue
                index = tuple(x + y for x, y in zip(i1, i2))
                prod = a * b
                acc = out.get(index)
                out[index] = prod if acc is None else acc + prod
        return CentralSeries(self.algebra, self.varset, order, out)

    def __pow__(self, n: int) -> "CentralSeries":
        if n < 0:
            raise ParameterError("negative powers are not defined")
        result = CentralSeries.unit(self.algebra, self.varset, self.order)
        for _ in range(n):
            result = result * self
        return result

    def truncate(self, order: int) -> "CentralSeries":
        if order > self.order:
            raise ParameterError("cannot extend a truncated series")
        return CentralSeries(
            self.algebra,
            self.varset,
            order,
            {i: e for i, e in self._coeffs.items() if sum(i) <= order},
        )

    def __eq__(self, other):
        return (
            isinstance(other, CentralSeries)
            and self.algebra == other.algebra
            and self.varset == other.varset
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    # -- substitution of central variables ----------------------------------------------

    def specialize(self, assignment: dict, target: VarSet | None = None) -> "CentralSeries":
        """Substitute an integer linear combination of variables for each variable.

        ``assignment`` maps a variable name to ``{target_name: int}``.  Variables
        without an entry are carried along unchanged (they must exist in the
        target variable set).  This is a ring homomorphism: it touches only the
        central variables and leaves coefficient order alone.
        """
        if target is None:
            target = self.varset
        forms = []
        for name in self.varset.names:
            if name in assignment:
                form = assignment[name]
                for tname, c in form.items():
                    target.index(tname)
                    if not isinstance(c, int):
                        raise ParameterError("substitutions must have integer coefficients")
                vector = [form.get(t, 0) for t in target.names]
            else:
                vector = [0] * len(target)
                vector[target.index(name)] = 1
            forms.append(tuple(vector))
        width = len(target)
        order = self.order
        power_cache: dict = {}

        def form_power(fi: int, e: int) -> dict:
            # (sum_j c_j t_j)^e as {multi-index: int}, truncated at the order
            key = (fi, e)
            cached = power_cache.get(key)
            if cached is not None:
                return cached
            if e == 0:
                result = {(0,) * width: 1}
            else:
                prev = form_power(fi, e - 1)
                result = {}
                for index, c in prev.items():
                    for j, cj in enumerate(forms[fi]):
                        if cj == 0:
                            continue
                        new = list(index)
                        new[j] += 1
                        if sum(new) > order:
                            continue
                        new = tuple(new)
                        result[new] = result.get(new, 0) + c * cj
            power_cache[key] = result
            return result

        out: dict = {}
        for index, element in self._coeffs.items():
            expansion = {(0,) * width: 1}
            for fi, e in enumerate(index):
                if e == 0:
                    continue
                powered = form_power(fi, e)
                merged: dict = {}
                for i1, c1 in expansion.items():
                    t1 = sum(i1)
                    for i2, c2 in powered.items():
                        if t1 + sum(i2) > order:
                            continue
                        key = tuple(x + y for x, y in zip(i1, i2))
                        merged[key] = merged.get(key, 0) + c1 * c2
                expansion = merged
                if not expansion:
                    break
            for key, c in expansion.items():
                if c == 0:
                    continue
                piece = element.scale(c)
                acc = out.get(key)
                out[key] = piece if acc is None else acc + piece
        return CentralSeries(self.algebra, target, order, out)

    # -- presentation ----------------------------------------------------------

    def to_data(self):
        return {
            "variables": list(self.varset.names),
            "order": self.order,
            "terms": [
                {"exponents": list(index), "element": self._coeffs[index].to_data()}
                for index in self.support()
            ],
        }

    def __str__(self):
        if not self._coeffs:
            return "0"
        pieces = []
        for index in self.support():
            element = self._coeffs[index]
            coeff = str(element)
            if ("+" in coeff or " - " in coeff) or coeff.startswith("-"):
                coeff = f"({coeff})"
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.varset.names, index)
                if e
            )
            if not mono:
                pieces.append(coeff)
            elif coeff == "1":
                pieces.append(mono)
            else:
                pieces.append(f"{coeff}*{mono}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"<series {self}>"


def left_substitute(f: CentralSeries, g: CentralSeries) -> CentralSeries:
    """f(g) = sum_k f_k g^k with each f_k multiplied on the left of g^k.

    ``f`` must be univariate and ``g`` must have zero constant term.  Because
    the coefficients do not commute this is *not* multiplicative in f:
    left_substitute(f1 * f2, g) differs from the product of the separate
    substitutions in general.
    """
    if len(f.varset) != 1:
        raise ShapeError("left substitution needs a univariate series")
    if f.order != g.order:
        raise ShapeError("truncation orders must agree")
    if not g.constant_term().is_zero():
        raise ComposabilityError("substitution target must have zero constant term")
    order = g.order
    result = CentralSeries.zero(g.algebra, g.varset, order)
    power = CentralSeries.unit(g.algebra, g.varset, order)
    for k in range(order + 1):
        fk = f.coefficient((k,))
        if not fk.is_zero():
            result = result + power.scale_left(fk)
        if k < order:
            power = power * g
    return result


def revert(f: CentralSeries) -> CentralSeries:
    """Unique g = x + ... with f(g) = x to the truncation order.

    ``f`` must be of unit-linear form x + (higher order).  The coefficients of
    g are found one at a time, in the online style of van der Hoeven ("Relax,
    but don't be too lazy", J. Symbolic Comput. 34, 2002).  With
    P[k][n] = [x^n] g^k, the coefficient of x^n in f(g) is
    g_n + sum_{k=2..n} f_k P[k][n], and for k >= 2 the entry P[k][n] involves
    only g_1 .. g_(n-1) (see :func:`_power_column`).  Hence

        g_n = -sum_{k=2..n} f_k P[k][n],

    with every coefficient kept on the left.  No division is needed because
    the linear coefficient is 1.
    """
    if len(f.varset) != 1:
        raise ShapeError("reversion needs a univariate series")
    if not f.constant_term().is_zero():
        raise ReversionError("series must have zero constant term")
    if f.coefficient((1,)) != f.algebra.one():
        raise ReversionError("series must have linear coefficient 1")
    algebra = f.algebra
    order = f.order
    negated = [-f.coefficient((k,)) for k in range(order + 1)]
    g = [algebra.zero()] * (order + 1)
    g[1] = algebra.one()
    powers = _empty_powers(g, order, algebra)
    for n in range(2, order + 1):
        _power_column(powers, n, algebra)
        acc: dict = {}
        for k in range(2, n + 1):
            add_product(acc, negated[k], powers[k][n])
        g[n] = algebra.from_accumulator(acc)
    return CentralSeries(algebra, f.varset, order, {(n,): g[n] for n in range(1, order + 1)})


def _empty_powers(g: list, order: int, algebra: FreeAlgebra) -> list:
    """Rows P[k] = [[x^0] g^k, ..., [x^order] g^k] with P[0] = 1 and P[1] = g.

    Rows from k = 2 on start as zeros; :func:`_power_column` fills them.
    """
    zero = algebra.zero()
    unit = [zero] * (order + 1)
    unit[0] = algebra.one()
    return [unit, g] + [[zero] * (order + 1) for _ in range(2, order + 1)]


def _power_column(powers: list, n: int, algebra: FreeAlgebra) -> None:
    """Fill P[k][n] for 2 <= k <= n from columns 1 .. n-1 and from g_1 .. g_(n-1).

    g^k = g^(k-1) g keeps the coefficients of g^(k-1) on the left, so
    P[k][n] = sum_{m=k-1..n-1} P[k-1][m] g_(n-m), and P[n][n] = 1 since g_1 = 1.
    """
    g = powers[1]
    for k in range(2, n):
        previous = powers[k - 1]
        acc: dict = {}
        for m in range(k - 1, n):
            add_product(acc, previous[m], g[n - m])
        powers[k][n] = algebra.from_accumulator(acc)
    powers[n][n] = algebra.one()


def left_expand(target: CentralSeries, basis: dict) -> dict:
    """Coefficients A(I) with sum_I A(I) * b_1^i1 * ... * b_m^im = target.

    ``basis`` maps each variable name of the target to a univariate series of
    unit-linear form in that variable.  Basis powers are multiplied in
    variable-set order with coefficients on the left, so the coefficient of
    x^a in the basis power for I is P_1[i1][a1] * ... * P_m[im][am], where
    P_v[k][a] = [x_v^a] b_v^k.  The expansion is therefore solved one
    variable at a time, from the last one to the first: each line of the
    target along the last variable is a univariate triangular system in the
    powers of b_m (P[k][k] = 1 and P[k][a] = 0 for a < k), solved in place
    with the solved coefficients kept on the left; its solutions are then
    solved along the next variable, and so on.  Exists and is unique for
    unit-linear bases.  Returns only the nonzero A(I), in graded-lexicographic
    order.
    """
    varset = target.varset
    order = target.order
    algebra = target.algebra
    tables = []
    for name in varset.names:
        b = basis.get(name)
        if b is None:
            raise ExpansionError(f"no basis series for variable {name!r}")
        if len(b.varset) != 1 or b.varset.names[0] != name:
            raise ExpansionError(f"basis series for {name!r} must be univariate in it")
        if b.order != order:
            raise ShapeError("basis and target must share the truncation order")
        if not b.constant_term().is_zero() or b.coefficient((1,)) != b.algebra.one():
            raise ExpansionError("basis series must be of unit-linear form")
        powers = _empty_powers([b.coefficient((m,)) for m in range(order + 1)], order, algebra)
        for n in range(2, order + 1):
            _power_column(powers, n, algebra)
        tables.append([[-entry for entry in row] for row in powers])

    layer = target._coeffs
    for v in reversed(range(len(varset))):
        layer = _solve_along(layer, v, tables[v], order, algebra)
    return {index: layer[index] for index in sorted(layer, key=_graded_lex)}


def _solve_along(layer: dict, v: int, negated: list, order: int, algebra: FreeAlgebra) -> dict:
    """Solve each line of ``layer`` along coordinate v against the rows P[k].

    A line fixes every coordinate but v.  Its entries are
    E[a] = sum_k C_k P[k][a] with C_k on the left, so C_n is E[n] once
    C_k P[k][n] has been subtracted for every k < n.  ``negated`` holds the
    rows -P[k], so that each subtraction is an :func:`add_product` into a
    mutable per-exponent accumulator.  Returns the nonzero C_k, keyed by the
    index with a_v replaced by k.
    """
    lines: dict = {}
    for index, element in layer.items():
        lines.setdefault(index[:v] + index[v + 1:], {})[index[v]] = element
    solved = {}
    for rest, entries in lines.items():
        top = order - sum(rest)
        accs = {a: element.mutable_terms() for a, element in entries.items()}
        for n in range(top + 1):
            acc = accs.pop(n, None)
            if acc is None:
                continue
            coeff = algebra.from_accumulator(acc)
            if coeff.is_zero():
                continue
            solved[rest[:v] + (n,) + rest[v:]] = coeff
            row = negated[n]
            for m in range(n + 1, top + 1):
                if not row[m].is_zero():
                    add_product(accs.setdefault(m, {}), coeff, row[m])
    return solved
