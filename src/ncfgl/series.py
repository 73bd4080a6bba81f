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

    variable_degree * total_exponent - degree(coefficient) = D,

matching the convention that coefficient degrees count negatively against the
variable grading; ``variable_degree`` is that of the coefficient algebra's
grading profile.

Arithmetic builds no intermediate series.  A product, a sum of left
multiples (:func:`left_combination`, which a substitution is) and each
step of :func:`left_expand` add every coefficient product into one word ->
value accumulator per multi-index with ``FreeAlgebra.add_product``, the loop
that multiplies two free-algebra elements; a sum of left multiples of
products, sum a_{i,j} (P_i Q_j) (:func:`left_product_combination`, which
the axiom checks use), adds each a_{i,j} (c1 c2) into them word by word,
without forming the product series P_i Q_j; a sum, a difference and
:meth:`CentralSeries.specialize` add integer multiples of coefficients into
the same kind of accumulators with ``add_multiple``.  Each accumulator is
reduced once with ``from_accumulator``.  Results are wrapped by the internal
``CentralSeries._wrap``, which skips the index checks of the public
``CentralSeries(...)`` constructor: the module only builds indices of the
right width within the order.  A series is a :class:`~ncfgl.record.Record`:
it compares field by field, pickles, and refuses assignment.
"""

from __future__ import annotations

from operator import add

from .errors import (
    ComposabilityError,
    ExpansionError,
    ModeMismatchError,
    ParameterError,
    ReversionError,
    ShapeError,
)
from .freealg import FreeAlgebra, FreeElement, _add_commutator
from .record import Record


class VarSet(Record):
    """An ordered tuple of 1 to 3 central variable names.

    The degree of the variables is not stored here: it is the
    ``variable_degree`` of the coefficient algebra's grading profile, the
    one value that every degree rule reads.
    """

    __slots__ = ("names",)

    def __init__(self, names):
        names = tuple(names)
        if not 1 <= len(names) <= 3:
            raise ParameterError("a variable set holds 1 to 3 variables")
        if len(set(names)) != len(names):
            raise ParameterError("variable names must be distinct")
        super().__init__(names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParameterError(f"unknown variable {name!r}") from None

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    __hash__ = Record._hash


def _graded_lex(index):
    return (sum(index), index)


class CentralSeries(Record):
    """Truncated series sum_I (coefficient_I) * x^I with central variables.

    Every coefficient lives over the series' algebra: the constructor refuses
    one over another algebra, such as another scalar ring, with
    ModeMismatchError.
    """

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
            if element.algebra != algebra:
                raise ModeMismatchError(
                    f"coefficient at {index} lives over {element.algebra!r}, not {algebra!r}"
                )
            if sum(index) > order:
                continue
            if not element.is_zero():
                clean[index] = element
        super().__init__(algebra, varset, order, clean)

    @classmethod
    def _wrap(cls, algebra: FreeAlgebra, varset: VarSet, order: int, coeffs: dict):
        """A series over ``coeffs`` as they are, without the checks of ``__init__``.

        For results this module builds itself: every index is a tuple of the
        width of ``varset`` with total at most ``order``, and every element is
        nonzero.  The fields are set through their slot descriptors, which
        skips the argument handling of ``Record.__init__``.
        """
        series = _new(cls)
        _set_algebra(series, algebra)
        _set_varset(series, varset)
        _set_order(series, order)
        _set_coeffs(series, coeffs)
        return series

    def _from_accumulators(self, accs: dict, varset: VarSet | None = None) -> "CentralSeries":
        """The series of this shape (or over ``varset``) held by per-index
        word accumulators, each reduced once."""
        from_accumulator = self.algebra.from_accumulator
        out = {}
        for index, acc in accs.items():
            element = from_accumulator(acc)
            if not element.is_zero():
                out[index] = element
        if varset is None:
            varset = self.varset
        return CentralSeries._wrap(self.algebra, varset, self.order, out)

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

    # -- arithmetic -----------------------------------------------------------------

    def _check_shape(self, other: "CentralSeries"):
        if (
            self.algebra != other.algebra
            or self.varset != other.varset
            or self.order != other.order
        ):
            raise ShapeError("series operands disagree in algebra, variables, or order")

    def _combine(self, other: "CentralSeries", sign: int) -> "CentralSeries":
        """self + sign * other: each index's words of both added into one
        accumulator, reduced once."""
        self._check_shape(other)
        add_multiple = self.algebra.add_multiple
        accs = {index: element.mutable_terms() for index, element in self._coeffs.items()}
        for index, element in other._coeffs.items():
            add_multiple(accs.setdefault(index, {}), sign, element)
        return self._from_accumulators(accs)

    def __add__(self, other: "CentralSeries") -> "CentralSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "CentralSeries") -> "CentralSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "CentralSeries":
        negated = {index: -element for index, element in self._coeffs.items()}
        return CentralSeries._wrap(self.algebra, self.varset, self.order, negated)

    def commutator(self, value: FreeElement) -> "CentralSeries":
        """value * self - self * value, coefficientwise: the one pair loop of
        :func:`~ncfgl.freealg.commutator` per index, so that no negated copy
        of ``value`` is formed."""
        if value.algebra != self.algebra:
            raise ModeMismatchError("coefficient and series live in different algebras")
        terms = value._terms.items()
        accs: dict = {}
        for index, element in self._coeffs.items():
            _add_commutator(accs.setdefault(index, {}), terms, element._terms.items())
        return self._from_accumulators(accs)

    def __mul__(self, other: "CentralSeries") -> "CentralSeries":
        """Product in left-normal form: (a x^I)(b x^J) = (ab) x^(I+J).

        The central variables pass through the coefficients; the coefficients
        keep their order.  Every product ab is added into the accumulator of
        its index I + J, and each accumulator is reduced once.  The right
        terms are sorted by total degree once, so each left index stops at
        the first right index past the truncation order.
        """
        self._check_shape(other)
        order = self.order
        add_product = self.algebra.add_product
        accs: dict = {}
        get = accs.get
        # (total, index, element): the indices are distinct, so the sort
        # never compares two elements.
        right = sorted((sum(index), index, element) for index, element in other._coeffs.items())
        for i1, a in self._coeffs.items():
            room = order - sum(i1)
            for t2, i2, b in right:
                if t2 > room:
                    break
                index = tuple(map(add, i1, i2))
                acc = get(index)
                if acc is None:
                    acc = accs[index] = {}
                add_product(acc, a, b)
        return self._from_accumulators(accs)

    def __pow__(self, n: int) -> "CentralSeries":
        if n < 0:
            raise ParameterError("negative powers are not defined")
        return _powers(self, n)[n]

    def truncate(self, order: int) -> "CentralSeries":
        if order > self.order:
            raise ParameterError("cannot extend a truncated series")
        return CentralSeries._wrap(
            self.algebra,
            self.varset,
            order,
            {i: e for i, e in self._coeffs.items() if sum(i) <= order},
        )

    # -- substitution of central variables ----------------------------------------------

    def specialize(self, assignment: dict, target: VarSet | None = None) -> "CentralSeries":
        """Substitute an integer linear combination of variables for each variable.

        ``assignment`` maps a variable name to ``{target_name: int}``.  Variables
        without an entry are carried along unchanged (they must exist in the
        target variable set).  This is a ring homomorphism: it touches only the
        central variables and leaves coefficient order alone.  See
        :func:`_substitution`, which also serves a list of series that share
        one substitution.
        """
        return _substitution(assignment, self.varset, target)(self)

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


_new = object.__new__
_set_algebra = CentralSeries.algebra.__set__
_set_varset = CentralSeries.varset.__set__
_set_order = CentralSeries.order.__set__
_set_coeffs = CentralSeries._coeffs.__set__


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
    powers = _powers(g, g.order)
    return left_combination(((f.coefficient((k,)), gk) for k, gk in enumerate(powers)), g)


def _powers(series: CentralSeries, count: int, first: CentralSeries | None = None) -> list:
    """[first, first * series, ..., first * series^count], each one product
    from the last; ``first`` is the unit series unless given."""
    if first is None:
        first = CentralSeries.unit(series.algebra, series.varset, series.order)
    out = [first]
    for _ in range(count):
        out.append(out[-1] * series)
    return out


def _substitution(assignment: dict, source: VarSet, target: VarSet | None = None):
    """The map ``f -> f.specialize(assignment, target)`` on series over
    ``source``, for :meth:`CentralSeries.specialize` and for callers that
    substitute into many series at once.

    The image of each monomial x^I is kept in one memo, shared by every
    series the map is applied to, and built as the image of x^(I - e_v)
    times the form of v; a linear form keeps the total exponent, so no
    image leaves the truncation order.
    """
    if target is None:
        target = source
    forms = []
    for name in source.names:
        if name in assignment:
            form = []
            for tname, c in assignment[name].items():
                j = target.index(tname)
                if not isinstance(c, int):
                    raise ParameterError("substitutions must have integer coefficients")
                if c:
                    form.append((j, c))
            forms.append(form)
        else:
            forms.append([(target.index(name), 1)])
    images = {(0,) * len(source): {(0,) * len(target): 1}}

    def image(index):
        # {target index: int}; v is the first variable of the index
        found = images.get(index)
        if found is None:
            v = next(v for v, e in enumerate(index) if e)
            found = {}
            for key, c in image(index[:v] + (index[v] - 1,) + index[v + 1:]).items():
                for j, cj in forms[v]:
                    new = key[:j] + (key[j] + 1,) + key[j + 1:]
                    found[new] = found.get(new, 0) + c * cj
            images[index] = found
        return found

    def apply(series: CentralSeries) -> CentralSeries:
        add_multiple = series.algebra.add_multiple
        accs: dict = {}
        for index, element in series._coeffs.items():
            for key, c in image(index).items():
                if c:
                    add_multiple(accs.setdefault(key, {}), c, element)
        return series._from_accumulators(accs, target)

    return apply


def left_combination(pairs, like: CentralSeries) -> CentralSeries:
    """sum_k a_k s_k over (a_k, s_k) pairs, each a_k on the left of s_k.

    Every series s_k has the shape of ``like``.  Each product of a_k with a
    coefficient of s_k is added into one accumulator per index, so no
    intermediate series is built; ``pairs`` may be a generator that forms each
    s_k as it is needed.
    """
    algebra = like.algebra
    add_product = algebra.add_product
    accs: dict = {}
    get = accs.get
    for value, series in pairs:
        like._check_shape(series)
        if value.algebra != algebra:
            raise ModeMismatchError("coefficient and series live in different algebras")
        for index, element in series._coeffs.items():
            acc = get(index)
            if acc is None:
                acc = accs[index] = {}
            add_product(acc, value, element)
    return like._from_accumulators(accs)


def left_product_combination(terms, lefts: list, rights: list) -> CentralSeries:
    """sum a_{i,j} (lefts[i] * rights[j]) over ((i, j), a_{i,j}) pairs, each
    a_{i,j} on the left of the product.

    Every series in ``lefts`` and ``rights`` has the shape of ``lefts[0]``.
    No product series is formed: for each a_{i,j}, each term c1 x^I1 of
    lefts[i] and each term c2 x^I2 of rights[j] with I1 + I2 within the
    order, a_{i,j} (c1 c2) is added word by word into the accumulator of
    I1 + I2, with the terms of a_{i,j} innermost, and each accumulator is
    reduced once.  What does not depend on (i, j) is found once per call:
    each right series' (total degree, index, terms) rows, sorted by total
    degree, so that each left index stops at the first right index past the
    order, as in :meth:`CentralSeries.__mul__`; each left series' (room left
    in the order, index, terms) rows; and a plan I1 -> {I2: (accumulator,
    its get)}, so that the index I1 + I2 of each distinct pair is summed and
    looked up once, however many (i, j) reach it.
    """
    like = lefts[0]
    for series in (*lefts, *rights):
        like._check_shape(series)
    algebra = like.algebra
    order = like.order
    right_rows = {}
    left_rows = {}
    plan: dict = {}
    accs: dict = {}
    for (i, j), value in terms:
        if value.algebra != algebra:
            raise ModeMismatchError("coefficient and series live in different algebras")
        right = right_rows.get(j)
        if right is None:
            # (total, index, terms): the indices are distinct, so the sort
            # never compares two term lists.
            right = right_rows[j] = sorted(
                (sum(index), index, list(element._terms.items()))
                for index, element in rights[j]._coeffs.items()
            )
        left = left_rows.get(i)
        if left is None:
            # (room, index, terms, the plan's slots {I2: (acc, acc.get)})
            left = left_rows[i] = [
                (order - sum(i1), i1, list(c1._terms.items()), plan.setdefault(i1, {}))
                for i1, c1 in lefts[i]._coeffs.items()
            ]
        value_terms = list(value._terms.items())
        for room, i1, c1_terms, slots in left:
            for t2, i2, c2_terms in right:
                if t2 > room:
                    break
                slot = slots.get(i2)
                if slot is None:
                    acc = accs.setdefault(tuple(map(add, i1, i2)), {})
                    slot = slots[i2] = (acc, acc.get)
                acc, acc_get = slot
                for w1, k1 in c1_terms:
                    for w2, k2 in c2_terms:
                        w12, k12 = w1 + w2, k1 * k2
                        for wa, ka in value_terms:
                            word = wa + w12
                            acc[word] = acc_get(word, 0) + ka * k12
    return like._from_accumulators(accs)


def revert(f: CentralSeries) -> CentralSeries:
    """Unique g = x + ... with f(g) = x to the truncation order.

    ``f`` must be of unit-linear form x + (higher order).  Then g is the left
    expansion of x in the powers of f, x = sum_k g_k f^k (see
    :func:`left_expand`).  Write p(h) = sum_k p_k h^k with the coefficients on
    the left.  If f(g) = x, then f^k(g) = sum_i f_i f^(k-1)(g) g^i is
    x^(k-1) f(g) = x^k by induction on k, because x is central; so
    p -> p(g) undoes p -> p(f).  Both maps are left-linear and
    unit-triangular, so the reverse composite is the identity too, g(f) = x,
    and the left expansion is unique.
    """
    if len(f.varset) != 1:
        raise ShapeError("reversion needs a univariate series")
    if not f.constant_term().is_zero():
        raise ReversionError("series must have zero constant term")
    if f.coefficient((1,)) != f.algebra.one():
        raise ReversionError("series must have linear coefficient 1")
    name = f.varset.names[0]
    x = CentralSeries.variable(f.algebra, f.varset, f.order, name)
    return CentralSeries._wrap(f.algebra, f.varset, f.order, left_expand(x, {name: f}))


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
    solved along the next variable, and so on.  The solves read the rows
    -P[k], built once per distinct list of basis coefficients as the powers
    of b starting from the series -1, so they come out negated; bases with
    equal coefficients in different variables, such as the z(x) and z(y) of
    an FGL table, share one table.  Exists and is unique for
    unit-linear bases.  Returns only the nonzero A(I), in graded-lexicographic
    order.  A basis series over another algebra than the target is refused
    with ModeMismatchError.
    """
    varset = target.varset
    order = target.order
    algebra = target.algebra
    tables = []
    shared: dict = {}
    for name in varset.names:
        b = basis.get(name)
        if b is None:
            raise ExpansionError(f"no basis series for variable {name!r}")
        if len(b.varset) != 1 or b.varset.names[0] != name:
            raise ExpansionError(f"basis series for {name!r} must be univariate in it")
        if b.order != order:
            raise ShapeError("basis and target must share the truncation order")
        if b.algebra != algebra:
            raise ModeMismatchError(
                f"basis series for {name!r} lives over {b.algebra!r}, not {algebra!r}"
            )
        if not b.constant_term().is_zero() or b.coefficient((1,)) != b.algebra.one():
            raise ExpansionError("basis series must be of unit-linear form")
        key = frozenset(b._coeffs.items())
        table = shared.get(key)
        if table is None:
            minus_one = -CentralSeries.unit(algebra, b.varset, order)
            table = shared[key] = [
                [power.coefficient((a,)) for a in range(order + 1)]
                for power in _powers(b, order, minus_one)
            ]
        tables.append(table)

    layer = target._coeffs
    for v in reversed(range(len(varset))):
        layer = _solve_along(layer, v, tables[v], order, algebra)
    return {index: layer[index] for index in sorted(layer, key=_graded_lex)}


def _solve_along(layer: dict, v: int, negated: list, order: int, algebra: FreeAlgebra) -> dict:
    """Solve each line of ``layer`` along coordinate v against the rows P[k].

    A line fixes every coordinate but v.  Its entries are
    E[a] = sum_k C_k P[k][a] with C_k on the left, so C_n is E[n] once
    C_k P[k][n] has been subtracted for every k < n.  ``negated`` holds the
    rows -P[k], so that each subtraction is an ``add_product`` into a
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
                    algebra.add_product(accs.setdefault(m, {}), coeff, row[m])
    return solved
