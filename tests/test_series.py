import random

import pytest

from ncfgl import (
    COMPLEX,
    GF,
    QQ,
    ZZ,
    CentralSeries,
    ComposabilityError,
    ExpansionError,
    FreeAlgebra,
    ModeMismatchError,
    ParameterError,
    ReversionError,
    ShapeError,
    VarSet,
    left_expand,
    left_substitute,
    orientation_series,
    revert,
)
from ncfgl.series import left_combination

from oracles import (
    plain_add,
    plain_mul,
    plain_scale,
    plain_series,
    plain_specialize,
    uni_mul,
)

from props import (
    random_element,
    random_series,
    random_unit_linear,
    run_left_expand_roundtrip,
    run_revert_two_sided,
    run_specialize_props,
)


@pytest.fixture
def A():
    return FreeAlgebra()


@pytest.fixture
def vs1():
    return VarSet(("x",), 2)


@pytest.fixture
def vs2():
    return VarSet(("x", "y"), 2)


def x_series(A, vs, order, name="x"):
    return CentralSeries.variable(A, vs, order, name)


# -- multiplication -------------------------------------------------------------


def test_variable_product(A, vs2):
    x = x_series(A, vs2, 4, "x")
    y = x_series(A, vs2, 4, "y")
    assert x * y == CentralSeries(A, vs2, 4, {(1, 1): A.one()})


def test_orientation_product_total_order_3(A, vs2):
    zx = orientation_series(3, A, vs2, "x")
    zy = orientation_series(3, A, vs2, "y")
    prod = zx * zy
    expected = CentralSeries(
        A, vs2, 3, {(1, 1): A.one(), (2, 1): A.gen(1), (1, 2): A.gen(1)}
    )
    assert prod == expected


def test_orientation_products_commute_only_up_to_order_4(A, vs2):
    zx = orientation_series(5, A, vs2, "x")
    zy = orientation_series(5, A, vs2, "y")
    diff = zx * zy - zy * zx
    assert diff.truncate(4).is_zero()
    z1z2 = A.monomial((1, 2))
    z2z1 = A.monomial((2, 1))
    assert diff.coefficient((3, 2)) == z2z1 - z1z2
    assert diff.coefficient((2, 3)) == z1z2 - z2z1
    assert (zx * zy).coefficient((3, 1)) == A.gen(2)
    assert (zx * zy).coefficient((2, 2)) == A.monomial((1, 1))
    assert (zy * zx).coefficient((2, 2)) == A.monomial((1, 1))


def test_shape_errors(A, vs1, vs2):
    f = x_series(A, vs1, 4)
    g = x_series(A, vs2, 4)
    with pytest.raises(ShapeError):
        f * g
    h = x_series(A, vs1, 5)
    with pytest.raises(ShapeError):
        f * h


# -- specialization ---------------------------------------------------------------


def test_specialize_to_zero(A):
    z = orientation_series(5, A)
    assert z.specialize({"x": {}}).is_zero()


def test_specialize_sign_alternation(A):
    z = orientation_series(4, A)
    zbar = z.specialize({"x": {"x": -1}})
    # coefficient of x^(i+1) picks up (-1)^(i+1)
    assert zbar.coefficient((1,)) == -A.one()
    assert zbar.coefficient((2,)) == A.gen(1)
    assert zbar.coefficient((3,)) == -A.gen(2)
    assert zbar.coefficient((4,)) == A.gen(3)


def test_specialize_binomial_expansion(A, vs2):
    z = orientation_series(2, A)
    spread = z.specialize({"x": {"x": 1, "y": 1}}, vs2)
    expected = CentralSeries(
        A,
        vs2,
        2,
        {
            (1, 0): A.one(),
            (0, 1): A.one(),
            (2, 0): A.gen(1),
            (1, 1): A.gen(1).scale(2),
            (0, 2): A.gen(1),
        },
    )
    assert spread == expected


def test_specialize_is_ring_map():
    failures = run_specialize_props(seed=1, pairs_per_width=200, order=4)
    assert failures == []


# -- left substitution --------------------------------------------------------------


def test_substitute_single_square(A, vs1):
    rng = random.Random(2)
    f = CentralSeries(A, vs1, 5, {(2,): A.one()})
    for _ in range(5):
        g = random_series(A, vs1, 5, rng)
        g = g - CentralSeries(A, vs1, 5, {(0,): g.coefficient((0,))})
        assert left_substitute(f, g) == g * g


def test_substitute_requires_zero_constant_term(A, vs1):
    f = x_series(A, vs1, 4)
    g = CentralSeries.unit(A, vs1, 4)
    with pytest.raises(ComposabilityError):
        left_substitute(f, g)


def test_substitute_is_not_multiplicative_in_f(A, vs1):
    # the recorded witness: f1 = x, f2 = Z1, g = Z2 x
    f1 = x_series(A, vs1, 3)
    f2 = CentralSeries(A, vs1, 3, {(0,): A.gen(1)})
    g = CentralSeries(A, vs1, 3, {(1,): A.gen(2)})
    combined = left_substitute(f1 * f2, g)
    separate = left_substitute(f1, g) * left_substitute(f2, g)
    assert combined == CentralSeries(A, vs1, 3, {(1,): A.monomial((1, 2))})
    assert separate == CentralSeries(A, vs1, 3, {(1,): A.monomial((2, 1))})
    assert combined != separate


# -- reversion ------------------------------------------------------------------------


def test_revert_identity(A, vs1):
    x = x_series(A, vs1, 5)
    assert revert(x) == x


def test_revert_orientation_low_coefficients(A):
    g = revert(orientation_series(6, A))
    assert g.coefficient((2,)) == -A.gen(1)
    assert g.coefficient((3,)) == A.monomial((1, 1)).scale(2) - A.gen(2)


def test_revert_rejects_bad_leading_terms(A, vs1):
    with pytest.raises(ReversionError):
        revert(CentralSeries(A, vs1, 4, {(1,): A.gen(1)}))
    with pytest.raises(ReversionError):
        revert(CentralSeries.unit(A, vs1, 4))


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ])
def test_revert_satisfies_left_substitution_definition_order_12(ring):
    # z(g) = sum_k Z_k g^(k+1) with Z_k on the left, summed with the oracle's
    # dictionary series rather than left_substitute
    order = 12
    algebra = FreeAlgebra(COMPLEX, ring)
    z = orientation_series(order, algebra)
    g = revert(z)
    g_terms = {k: g.coefficient((k,)) for k in range(1, order + 1)}
    power = {0: algebra.one()}
    total = {}
    for k in range(order):
        power = uni_mul(power, g_terms, order)
        for n, value in power.items():
            piece = z.coefficient((k + 1,)) * value
            total[n] = total[n] + piece if n in total else piece
    total = {n: value for n, value in total.items() if not value.is_zero()}
    assert total == {1: algebra.one()}


def test_revert_is_the_left_expansion_of_x_in_powers_of_f():
    # the universal z (free coefficients) and one seeded non-homogeneous f;
    # the identity x = sum_k g_k f^k is summed from explicit powers of f
    algebra = FreeAlgebra()
    f_random = random_unit_linear(algebra, 9, random.Random(8))
    assert f_random.cohomological_degree() is None
    for f in (orientation_series(14, algebra), f_random):
        g = revert(f)
        x = x_series(algebra, f.varset, f.order)
        assert {index: g.coefficient(index) for index in g.support()} == left_expand(
            x, {"x": f}
        )
        powers = ((g.coefficient((k,)), f ** k) for k in range(1, f.order + 1))
        assert left_combination(powers, x) == x
        assert left_substitute(f, g) == x


def test_revert_two_sided_on_tested_instances():
    failures = run_revert_two_sided(seed=3, count=20, order=6)
    assert failures == []


# -- left expansion ----------------------------------------------------------------------


def test_expand_identity(A):
    z = orientation_series(6, A)
    expansion = left_expand(z, {"x": z})
    assert expansion == {(1,): A.one()}


def test_expand_sum_gives_first_fgl_coefficient(A, vs2):
    z = orientation_series(4, A)
    target = z.specialize({"x": {"x": 1, "y": 1}}, vs2)
    basis = {
        "x": z,
        "y": orientation_series(4, A, VarSet(("y",), 2)),
    }
    expansion = left_expand(target, basis)
    assert expansion[(1, 1)] == A.gen(1).scale(2)
    assert expansion[(1, 0)] == A.one()
    assert (2, 0) not in expansion


def test_expand_negated_orientation(A):
    z = orientation_series(4, A)
    expansion = left_expand(z.specialize({"x": {"x": -1}}), {"x": z})
    assert expansion[(1,)] == -A.one()
    assert expansion[(2,)] == A.gen(1).scale(2)
    assert expansion[(3,)] == A.monomial((1, 1)).scale(-4)


def test_expand_requires_unit_linear_basis(A, vs1):
    z = orientation_series(4, A)
    bad = CentralSeries(A, vs1, 4, {(1,): A.gen(1)})
    with pytest.raises(ExpansionError):
        left_expand(z, {"x": bad})


def test_expand_round_trip():
    failures = run_left_expand_roundtrip(seed=4, trials=40, order=5)
    assert failures == []


def test_expand_homogeneity(A, vs2):
    z = orientation_series(5, A)
    target = z.specialize({"x": {"x": 1, "y": 1}}, vs2)
    assert target.cohomological_degree() == 2
    basis = {
        "x": z,
        "y": orientation_series(5, A, VarSet(("y",), 2)),
    }
    for index, coeff in left_expand(target, basis).items():
        assert coeff.is_homogeneous()
        assert coeff.degree() == 2 * sum(index) - 2


# -- truncation coherence ---------------------------------------------------------------


def test_truncation_coherence_all_operations(A, vs1, vs2):
    rng = random.Random(9)
    order = 5
    for _ in range(5):
        f = random_series(A, vs2, order + 2, rng)
        g = random_series(A, vs2, order + 2, rng)
        assert (f * g).truncate(order) == f.truncate(order) * g.truncate(order)
        assignment = {"x": {"x": 1, "y": -1}, "y": {"y": 2}}
        assert f.specialize(assignment).truncate(order) == f.truncate(order).specialize(
            assignment
        )
    for _ in range(5):
        f = random_unit_linear(A, order + 2, rng)
        g = random_series(A, vs1, order + 2, rng)
        g = g - CentralSeries(A, vs1, order + 2, {(0,): g.coefficient((0,))})
        assert left_substitute(f, g).truncate(order) == left_substitute(
            f.truncate(order), g.truncate(order)
        )
        assert revert(f).truncate(order) == revert(f.truncate(order))
    z_large = orientation_series(order + 2, A)
    z_small = orientation_series(order, A)
    big = left_expand(z_large.specialize({"x": {"x": -1}}), {"x": z_large})
    small = left_expand(z_small.specialize({"x": {"x": -1}}), {"x": z_small})
    assert {k: v for k, v in big.items() if k[0] <= order} == small


# -- misc ----------------------------------------------------------------------------------


def test_valuation_and_support(A, vs2):
    s = CentralSeries(A, vs2, 6, {(2, 1): A.gen(1), (0, 3): A.one(), (4, 0): A.gen(2)})
    assert s.valuation() == 3
    assert s.support() == [(0, 3), (2, 1), (4, 0)]
    assert CentralSeries.zero(A, vs2, 6).valuation() is None


def test_serialization(A, vs2):
    s = CentralSeries(A, vs2, 4, {(1, 1): A.gen(1), (0, 2): A.one()})
    data = s.to_data()
    assert data["order"] == 4
    assert [t["exponents"] for t in data["terms"]] == [[0, 2], [1, 1]]


def test_varset_validation():
    with pytest.raises(Exception):
        VarSet(("x", "x"), 2)
    with pytest.raises(Exception):
        VarSet(("a", "b", "c", "d"), 2)


# -- the accumulator kernel against plain dictionaries ------------------------------


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ])
def test_series_arithmetic_against_plain_dict_oracle(ring):
    rng = random.Random(2024)
    algebra = FreeAlgebra(COMPLEX, ring)
    p = ring.prime
    checked = substituted = 0
    for width in (1, 2, 3):
        varset = VarSet(("x", "y", "w")[:width], 2)
        for _ in range(20):
            order = rng.randint(2, 6)
            f = random_series(algebra, varset, order, rng)
            g = random_series(algebra, varset, order, rng)
            u = random_element(algebra, rng, 4, 3)
            n = rng.randint(-4, 4)
            pf, pg, pu = plain_series(f), plain_series(g), dict(u.terms())
            assert plain_series(f * g) == plain_mul(pf, pg, order, p)
            assert plain_series(f + g) == plain_add(pf, pg, p)
            assert plain_series(f - g) == plain_add(pf, pg, p, -1)
            assert plain_series(f.scale_left(u)) == plain_scale(pf, pu, p, True)
            assert plain_series(f.scale_right(u)) == plain_scale(pf, pu, p, False)
            assert plain_series(f.scale_left(n)) == plain_scale(pf, {(): n}, p, True)
            assert plain_series(f.commutator(u)) == plain_add(
                plain_scale(pf, pu, p, True), plain_scale(pf, pu, p, False), p, -1
            )
            forms = [tuple(rng.randint(-2, 2) for _ in range(width)) for _ in range(width)]
            assignment = {
                name: {t: c for t, c in zip(varset.names, form) if c}
                for name, form in zip(varset.names, forms)
                if any(form)
            }
            forms = [
                forms[v] if name in assignment else tuple(int(j == v) for j in range(width))
                for v, name in enumerate(varset.names)
            ]
            assert plain_series(f.specialize(assignment)) == plain_specialize(
                pf, forms, width, order, p
            )
            if width == 1:
                # f(g) = sum_k f_k g^k, for g without its constant term
                pg0 = {index: element for index, element in pg.items() if sum(index)}
                g0 = CentralSeries(algebra, varset, order, {i: g.coefficient(i) for i in pg0})
                expected, power = {}, {(0,): {(): 1}}
                for k in range(order + 1):
                    if (k,) in pf:
                        expected = plain_add(expected, plain_scale(power, pf[(k,)], p, True), p)
                    power = plain_mul(power, pg0, order, p)
                assert plain_series(left_substitute(f, g0)) == expected
                substituted += bool(expected)
            checked += bool(pf) and bool(pg)
    assert checked > 30  # most draws are nonzero, so the comparisons bite
    assert substituted > 10  # and most univariate substitutions are nonzero


def test_public_constructor_still_validates(A, vs1, vs2):
    with pytest.raises(ShapeError):
        CentralSeries(A, vs2, 4, {(1,): A.one()})
    with pytest.raises(ParameterError):
        CentralSeries(A, vs1, 4, {(-1,): A.one()})
    with pytest.raises(ParameterError):
        CentralSeries(A, vs1, -1, {})
    clean = CentralSeries(A, vs1, 3, {(1,): A.one(), (2,): A.zero(), (5,): A.gen(1)})
    assert clean.support() == [(1,)]


def test_series_coefficients_must_share_the_algebra(A, vs1):
    other = FreeAlgebra(COMPLEX, GF(3))
    f = x_series(A, vs1, 3)
    for operation in (f.scale_left, f.scale_right, f.commutator):
        with pytest.raises(ModeMismatchError):
            operation(other.gen(1))


def test_series_constructor_refuses_a_coefficient_of_another_ring(A, vs1):
    for ring in (GF(3), QQ):
        other = FreeAlgebra(COMPLEX, ring)
        with pytest.raises(ModeMismatchError):
            CentralSeries(A, vs1, 3, {(1,): other.gen(1).scale(2)})


def test_left_expand_refuses_a_basis_of_another_ring(A, vs2):
    target = orientation_series(4, A, vs2)
    for ring in (GF(3), QQ):
        other = FreeAlgebra(COMPLEX, ring)
        basis = {
            "x": orientation_series(4, A, VarSet(("x",), 2)),
            "y": orientation_series(4, other, VarSet(("y",), 2)),
        }
        with pytest.raises(ModeMismatchError):
            left_expand(target, basis)
        with pytest.raises(ModeMismatchError):
            left_expand(orientation_series(4, A), {"x": orientation_series(4, other)})
