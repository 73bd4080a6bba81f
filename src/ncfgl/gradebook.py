"""Integer Poincaré (graded dimension) series and the counting arguments.

A series is a truncated sequence of dimensions per total degree.  The module
builds the series of free associative algebras (1/(1 - g)), of graded
polynomial and exterior algebras, divides series exactly over Z, and packages
three counting computations: wedge-splitting multiplicities, the even/odd
parity comparison against connective K-theory homology, and the rational
polynomial-algebra comparison with partition counts.
"""

from __future__ import annotations

from .errors import ConsistencyError, DivisionError, ParameterError
from .record import Record
from .scalars import is_prime


class PoincareSeries(Record):
    """dims[n] = dimension in total degree n, for 0 <= n <= order."""

    __slots__ = ("order", "dims")

    def __init__(self, order: int, dims):
        dims = tuple(dims)
        if order < 0:
            raise ParameterError("order must be nonnegative")
        if len(dims) != order + 1:
            raise ParameterError("need exactly order + 1 dimensions")
        super().__init__(order, dims)

    @classmethod
    def one(cls, order: int) -> "PoincareSeries":
        return cls(order, (1,) + (0,) * order)

    def _check(self, other: "PoincareSeries"):
        if self.order != other.order:
            raise ParameterError("series orders disagree")

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        self._check(other)
        return PoincareSeries(self.order, [a + b for a, b in zip(self.dims, other.dims)])

    def __mul__(self, other: "PoincareSeries") -> "PoincareSeries":
        self._check(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.dims):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.dims[j]
                if b:
                    out[i + j] += a * b
        return PoincareSeries(self.order, out)

    def shift(self, k: int) -> "PoincareSeries":
        """Multiply by u^k (suspension by k degrees)."""
        if k < 0:
            raise ParameterError("shift must be nonnegative")
        return PoincareSeries(self.order, ((0,) * k + self.dims)[: self.order + 1])

    def truncate(self, order: int) -> "PoincareSeries":
        if order > self.order:
            raise ParameterError("cannot extend a truncated series")
        return PoincareSeries(order, self.dims[: order + 1])

    __hash__ = Record._hash

    def to_data(self):
        return {"order": self.order, "dims": list(self.dims)}

    def __str__(self):
        return "[" + ", ".join(str(d) for d in self.dims) + "]"


def _degree_counts(degrees, order: int) -> dict:
    counts: dict = {}
    for d in degrees:
        if d < 1:
            raise ParameterError(f"generator degrees must be positive, got {d}")
        if d <= order:
            counts[d] = counts.get(d, 0) + 1
    return counts


def series_free_assoc(degrees, order: int) -> PoincareSeries:
    """Dimension series of the free associative algebra on the given degrees.

    Satisfies T = 1/(1 - g) for g = sum of u^d over the generators, computed
    by the recurrence T_n = sum_d g_d T_{n-d}.
    """
    counts = _degree_counts(degrees, order)
    dims = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for d, c in counts.items():
            if d <= n:
                total += c * dims[n - d]
        dims[n] = total
    return PoincareSeries(order, dims)


def series_graded_algebra(poly_degrees, exterior_degrees, order: int) -> PoincareSeries:
    """Product of 1/(1 - u^d) (polynomial) and (1 + u^d) (exterior) factors."""
    poly = _degree_counts(poly_degrees, order)
    ext = _degree_counts(exterior_degrees, order)
    dims = [1] + [0] * order
    for d, c in sorted(poly.items()):
        for _ in range(c):
            # multiply by 1/(1 - u^d): running sum with stride d
            for n in range(d, order + 1):
                dims[n] += dims[n - d]
    for d, c in sorted(ext.items()):
        for _ in range(c):
            # multiply by (1 + u^d), descending so each slot is used once
            for n in range(order, d - 1, -1):
                dims[n] += dims[n - d]
    return PoincareSeries(order, dims)


def series_divide(num: PoincareSeries, den: PoincareSeries, order: int | None = None) -> PoincareSeries:
    """q with q * den = num to the order; den must have constant term 1."""
    if order is None:
        order = min(num.order, den.order)
    if order > min(num.order, den.order):
        raise ParameterError("order exceeds the operands' truncation")
    if den.dims[0] != 1:
        raise DivisionError("denominator must have constant term 1")
    q = [0] * (order + 1)
    for n in range(order + 1):
        acc = num.dims[n]
        for d in range(1, n + 1):
            if den.dims[d]:
                acc -= den.dims[d] * q[n - d]
        q[n] = acc
    return PoincareSeries(order, q)


def profile_degrees(profile, order: int):
    """Generator degrees of a grading profile, listed up to the order."""
    return [profile.degree_of(i) for i in profile.generators_of_degree_at_most(order)]


def bp_degrees(p: int, order: int):
    """2p^r - 2 for r >= 1, up to the order."""
    out = []
    r = 1
    while 2 * p ** r - 2 <= order:
        out.append(2 * p ** r - 2)
        r += 1
    return out


def splitting_multiplicities(p: int, order: int) -> PoincareSeries:
    """Multiplicity of the degree-2d wedge summand in the p-local splitting.

    Divides the complex-profile free-algebra series (generators in degrees
    2, 4, 6, ...) by the series of F_p[t_1, t_2, ...]; the quotient must
    consist of nonnegative integers for the splitting to be consistent, and
    that is checked here.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    num = series_free_assoc(range(2, order + 1, 2), order)
    den = series_graded_algebra(bp_degrees(p, order), (), order)
    quotient = series_divide(num, den, order)
    for n, c in enumerate(quotient.dims):
        if c < 0:
            raise ConsistencyError(f"negative multiplicity {c} in degree {n}")
    return quotient


def _ku_series(p: int, order: int) -> PoincareSeries:
    """Dimension series of the double suspension of mod-p connective K-homology.

    At p = 2 the algebra is F_2 on polynomial generators of degrees 2, 6, and
    2^s - 1 for s >= 3; at odd p it is a wedge over r = 1..p-1 of 2r-fold
    suspensions of the Adams summand, whose homology is polynomial on degrees
    2p^s - 2 tensored with an exterior algebra on degrees 2p^s - 1, s >= 2.
    """
    if p == 2:
        poly = [2, 6]
        s = 3
        while 2 ** s - 1 <= order:
            poly.append(2 ** s - 1)
            s += 1
        return series_graded_algebra(poly, (), order).shift(2)
    poly = bp_degrees(p, order)
    ext = []
    s = 2
    while 2 * p ** s - 1 <= order:
        ext.append(2 * p ** s - 1)
        s += 1
    summand = series_graded_algebra(poly, ext, order)
    total = PoincareSeries(order, [0] * (order + 1))
    for r in range(1, p):
        total = total + summand.shift(2 * r)
    return total


class ParityReport(Record):
    """Comparison of the shifted K-homology series against the even model."""

    __slots__ = (
        "prime", "order", "ku_dims", "cp_dims", "least_odd_degree", "cp_even_only", "verdict"
    )

    def to_data(self):
        return {
            "prime": self.prime,
            "order": self.order,
            "ku_dims": self.ku_dims.to_data(),
            "cp_dims": self.cp_dims.to_data(),
            "least_odd_degree": self.least_odd_degree,
            "cp_even_only": self.cp_even_only,
            "verdict": self.verdict,
        }

    def __str__(self):
        odd = self.least_odd_degree
        return "\n".join(
            [
                f"parity comparison at p = {self.prime}, order {self.order}",
                f"K-side dims: {self.ku_dims}",
                f"even-model dims: {self.cp_dims}",
                f"least odd degree with a K-side class: {odd}",
                f"even model supported in even degrees only: {self.cp_even_only}",
                f"verdict: {self.verdict}",
            ]
        )


def parity_check_ku(p: int, order: int) -> ParityReport:
    """Exhibit an odd-degree class on the K-theory side; the even model has none."""
    if not is_prime(p) or p > 5:
        raise ParameterError("parity check supports primes p <= 5")
    if order < 2:
        raise ParameterError("order must be at least 2")
    ku = _ku_series(p, order)
    cp = PoincareSeries(order, [1 if n >= 2 and n % 2 == 0 else 0 for n in range(order + 1)])
    least_odd = None
    for n in range(1, order + 1, 2):
        if ku.dims[n]:
            least_odd = n
            break
    cp_even_only = all(cp.dims[n] == 0 for n in range(1, order + 1, 2))
    verdict = "NOT-ISOMORPHIC" if least_odd is not None else "INCONCLUSIVE"
    return ParityReport(p, order, ku, cp, least_odd, cp_even_only, verdict)


def _partition_counts(order: int):
    """p(0..order) by Euler's pentagonal-number recurrence (independent route)."""
    counts = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        k = 1
        while True:
            pent1 = k * (3 * k - 1) // 2
            pent2 = k * (3 * k + 1) // 2
            if pent1 > n and pent2 > n:
                break
            sign = 1 if k % 2 else -1
            if pent1 <= n:
                total += sign * counts[n - pent1]
            if pent2 <= n:
                total += sign * counts[n - pent2]
            k += 1
        counts[n] = total
    return counts


class RationalComparisonReport(Record):
    """Polynomial algebra on degrees 2, 4, 6, ... versus partition counts."""

    __slots__ = ("order", "constructed", "partition_model", "match")

    def to_data(self):
        return {
            "order": self.order,
            "constructed": self.constructed.to_data(),
            "partition_model": self.partition_model.to_data(),
            "match": self.match,
        }

    def __str__(self):
        return "\n".join(
            [
                f"rational comparison at order {self.order}",
                f"constructed dims: {self.constructed}",
                f"partition dims:   {self.partition_model}",
                f"match: {self.match}",
            ]
        )


def rational_mu_series_check(order: int) -> RationalComparisonReport:
    """Grade-by-grade equality of Q[x_1, x_2, ...] (deg x_i = 2i) with partitions."""
    if order < 2:
        raise ParameterError("order must be at least 2")
    constructed = series_graded_algebra(range(2, order + 1, 2), (), order)
    partitions = _partition_counts(order // 2)
    model = [0] * (order + 1)
    for n in range(0, order + 1, 2):
        model[n] = partitions[n // 2]
    model_series = PoincareSeries(order, model)
    return RationalComparisonReport(
        order, constructed, model_series, constructed == model_series
    )
