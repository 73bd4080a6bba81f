import functools
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from ncfgl import (
    GF,
    QQ,
    REAL,
    ZZ,
    COMPLEX,
    CentralSeries,
    FGLTable,
    FreeAlgebra,
    ParameterError,
    UnsupportedInputError,
    VarSet,
    commutator_filtration,
    fgl_table,
    filtration_property_run,
    inverse_table,
    left_expand,
    left_substitute,
    orientation_series,
    random_homogeneous,
    revert,
    verify_axioms,
)
from ncfgl.series import left_combination, left_product_combination

from oracles import (
    abelianize,
    brute_force_fgl_table,
    commutative_fgl,
    commutator_with_z_power,
    plain_add,
    plain_mul,
    plain_scale,
    plain_series,
    plain_specialize,
)


@pytest.fixture
def A():
    return FreeAlgebra()


# -- orientation series ------------------------------------------------------------


def test_orientation_order_one(A):
    z = orientation_series(1, A)
    assert z == CentralSeries.variable(A, z.varset, 1, "x")


def test_orientation_order_three(A):
    z = orientation_series(3, A)
    assert z.coefficient((1,)) == A.one()
    assert z.coefficient((2,)) == A.gen(1)
    assert z.coefficient((3,)) == A.gen(2)


def test_orientation_coefficient_of_x5(A):
    z = orientation_series(5, A)
    assert z.coefficient((5,)) == A.gen(4)


def test_orientation_is_graded_of_degree_two(A):
    # every term c x^k has a homogeneous c with 2k - deg c = 2
    z = orientation_series(7, A)
    assert all(z.coefficient(index).is_homogeneous() for index in z.support())
    assert {2 * sum(index) - z.coefficient(index).degree() for index in z.support()} == {2}


def test_orientation_rejects_bad_order(A):
    with pytest.raises(ParameterError):
        orientation_series(0, A)


# -- the coefficient table -------------------------------------------------------------


def test_table_matches_brute_force_oracle(A):
    table = fgl_table(5, A)
    oracle = brute_force_fgl_table(A, 5)
    for (i, j), element in oracle.items():
        assert table.entry(i, j) == element
    for (i, j), element in table.items():
        if element.is_zero():
            assert (i, j) not in oracle
        else:
            assert oracle[(i, j)] == element


def test_low_entries(A):
    table = fgl_table(4, A)
    assert table.entry(1, 1) == A.gen(1).scale(2)
    expected_12 = A.gen(2).scale(3) - A.monomial((1, 1)).scale(2)
    assert table.entry(1, 2) == expected_12
    assert table.entry(2, 1) == expected_12
    assert table.entry(2, 0).is_zero()
    assert table.entry(1, 0) == A.one()


def test_table_over_other_scalars():
    for ring in (QQ, GF(5)):
        algebra = FreeAlgebra(ring=ring)
        table = fgl_table(3, algebra)
        assert table.entry(1, 1) == algebra.gen(1).scale(2)


def test_reconstruction_round_trip(A):
    order = 6
    table = fgl_table(order, A)
    vs2 = VarSet(("x", "y"))
    zx = orientation_series(order, A, vs2, "x")
    zy = orientation_series(order, A, vs2, "y")
    total = left_combination(
        ((element, zx ** i * zy ** j) for (i, j), element in table.items()), zx
    )
    target = orientation_series(order, A).specialize({"x": {"x": 1, "y": 1}}, vs2)
    assert total == target
    # specialization coherence on the reconstructed series
    assert total.specialize({"y": {"x": -1}}, VarSet(("x",))).is_zero()
    assert total.specialize({"y": {}}, VarSet(("x",))) == orientation_series(order, A)


def test_degree_law(A):
    table = fgl_table(6, A)
    for (i, j), element in table.items():
        if not element.is_zero() and i + j > 1:
            assert element.degree() == 2 * (i + j) - 2
    inverse = inverse_table(6, A)
    for k, element in inverse.items():
        if not element.is_zero():
            assert element.degree() == 2 * k


def test_expansion_determinism_under_shuffled_solve_order(A):
    # re-solve the two-variable expansion processing the indices inside each
    # total degree in reversed order; triangularity makes the answer identical
    order = 5
    vs2 = VarSet(("x", "y"))
    z = orientation_series(order, A)
    zy = orientation_series(order, A, VarSet(("y",)))
    target = z.specialize({"x": {"x": 1, "y": 1}}, vs2)
    standard = left_expand(target, {"x": z, "y": zy})

    pow_x = [CentralSeries.unit(A, vs2, order)]
    pow_y = [CentralSeries.unit(A, vs2, order)]
    for _ in range(order):
        pow_x.append(pow_x[-1] * z.specialize({}, vs2))
        pow_y.append(pow_y[-1] * zy.specialize({}, vs2))
    remainder = target
    shuffled = {}
    for n in range(order + 1):
        for i in range(n, -1, -1):
            index = (i, n - i)
            coeff = remainder.coefficient(index)
            if coeff.is_zero():
                continue
            shuffled[index] = coeff
            remainder = remainder - left_combination([(coeff, pow_x[i] * pow_y[n - i])], target)
    assert remainder.is_zero()
    assert shuffled == standard


# -- inverse table ---------------------------------------------------------------------


def test_inverse_fixed_leading_sign(A):
    table = inverse_table(4, A)
    assert table.to_data()["gamma1"] == "-1"
    assert str(table).splitlines()[1] == "gamma[1] = -1"


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3), GF(5)], ids=repr)
def test_gamma1_is_written_as_its_ring_writes_minus_one(ring):
    # the record reads back through its own ring: "-1" over ZZ and QQ, the
    # residue "2" over GF(3) and "4" over GF(5), which ScalarRing.parse
    # would refuse as "-1"
    table = inverse_table(4, FreeAlgebra(COMPLEX, ring))
    gamma1 = table.to_data()["gamma1"]
    assert ring.parse(gamma1) == ring.of_int(-1)
    assert str(table).splitlines()[1] == f"gamma[1] = {gamma1}"
    assert gamma1 == ("-1" if ring.prime is None else str(ring.prime - 1))


def test_inverse_low_coefficients(A):
    table = inverse_table(4, A)
    assert table.entry(1) == A.gen(1).scale(2)
    assert table.entry(2) == A.monomial((1, 1)).scale(-4)


def test_inverse_table_refuses_an_expansion_without_its_leading_minus_one(monkeypatch, A):
    # z(-x) = -x + ... forces the coefficient of z(x) to be -1, so only a
    # stubbed expansion reaches the guard that states it.
    import ncfgl.fgl
    from ncfgl import DegenerateInputError

    expand = ncfgl.fgl.left_expand

    def flipped(expansion):
        expansion[(1,)] = -expansion[(1,)]

    def dropped(expansion):
        del expansion[(1,)]

    for damage in (flipped, dropped):
        def damaged(target, basis):
            expansion = dict(expand(target, basis))
            damage(expansion)
            return expansion

        monkeypatch.setattr(ncfgl.fgl, "left_expand", damaged)
        with pytest.raises(DegenerateInputError, match="inverse expansion lost its leading -1"):
            inverse_table(4, A)


def test_inverse_series_resums_to_negated_orientation(A):
    order = 7
    table = inverse_table(order, A)
    z = orientation_series(order, A)
    total = -z + left_combination(((element, z ** (k + 1)) for k, element in table.items()), z)
    assert total == z.specialize({"x": {"x": -1}})


# -- axiom checks ------------------------------------------------------------------------


def test_axioms_order_four(A):
    report = verify_axioms(4, A)
    assert report.failures == {}
    assert all(report.to_data()["checks"].values())


def test_commutativity_insertion_identity_order_six(A):
    report = verify_axioms(6, A)
    assert report.commutativity_ok


def test_entrywise_symmetry_holds_only_through_degree_4(A):
    table = fgl_table(6, A)
    for (i, j), element in table.items():
        if i + j <= 4:
            assert element == table.entry(j, i)
    assert table.entry(2, 3) != table.entry(3, 2)
    # frozen witness, confirmed by an independent hand expansion: the
    # a11-route contribution carries Z2 Z1 into slot x^3 y^2 but Z1 Z2 into
    # slot x^2 y^3, and the difference survives
    witness = table.entry(2, 3) - table.entry(3, 2)
    expected = (A.gen(1) * A.gen(2) * A.gen(1)).scale(2) - (
        A.gen(1) * A.gen(1) * A.gen(2)
    ).scale(2)
    assert witness == expected


def test_inverse_identity_hand_check_order_two(A):
    report = verify_axioms(2, A)
    assert report.inverse_ok


def test_axiom_report_serialization(A):
    data = verify_axioms(3, A).to_data()
    assert data["checks"] == {
        "unit": True,
        "commutativity": True,
        "associativity": True,
        "inverse": True,
    }


# -- the filtration bound ------------------------------------------------------------------


def test_unit_is_central(A):
    result = commutator_filtration(A.one(), 2, 6)
    assert result.series.is_zero()
    assert result.valuation is None
    assert result.series.support() == []
    assert result.ok


def test_filtration_run_defaults_to_the_integral_complex_algebra():
    kwargs = dict(order=6, samples=5, seed=2)
    assert filtration_property_run(**kwargs) == filtration_property_run(
        **kwargs, algebra=FreeAlgebra(COMPLEX, ZZ)
    )


def test_first_nontrivial_commutator_term(A):
    result = commutator_filtration(A.gen(1), 1, 4)
    expected = A.monomial((1, 2)) - A.monomial((2, 1))
    assert result.valuation == 3
    assert result.series.support()[0] == (3,)
    assert result.series.coefficient((3,)) == expected
    assert result.ok


def test_z1_squared_commutator_valuation(A):
    result = commutator_filtration(A.gen(1) ** 2, 2, 6)
    assert result.valuation is None or result.valuation >= 3
    assert result.ok
    # direct-series-subtraction oracle
    oracle = commutator_with_z_power(A.gen(1) ** 2, 2, 6)
    assert {k: v for k, v in oracle.items()} == {
        index[0]: result.series.coefficient(index) for index in result.series.support()
    }


def test_filtration_parameter_validation(A):
    with pytest.raises(ParameterError):
        commutator_filtration(A.gen(1), 0, 6)
    with pytest.raises(ParameterError):
        commutator_filtration(A.gen(1), 3, 4)
    with pytest.raises(UnsupportedInputError):
        commutator_filtration(A.gen(1) + A.one(), 1, 6)


def test_filtration_property_run_seeded(A):
    ok, results = filtration_property_run(order=12, samples=100, seed=0, algebra=A)
    assert ok
    assert len(results) == 100


def test_filtration_series_against_convolution_oracle(A):
    rng = random.Random(17)
    for _ in range(10):
        degree = rng.choice((2, 4, 6, 8))
        k = rng.randint(1, 4)
        u = random_homogeneous(A, degree, rng)
        if u.is_zero():
            continue
        result = commutator_filtration(u, k, 8)
        oracle = commutator_with_z_power(u, k, 8)
        produced = {
            index[0]: result.series.coefficient(index)
            for index in result.series.support()
        }
        assert produced == oracle


def _digest(table):
    return hashlib.sha256(json.dumps(table.to_data()).encode()).hexdigest()


# sha256 of json.dumps(to_data()): the serialized tables are part of the
# interface, so a faster expansion must reproduce them byte for byte.
@pytest.mark.parametrize(
    "ring, digest",
    [
        (ZZ, "23686c9b98341010cd4625296b61e7be4bd4d62d0195774cc1c7dabd4694f1a3"),
        (GF(3), "6cca87bec8ec9d13fdcd3151ad19d918b242f5dc2d210e4b1c31cd37b868ab52"),
        (QQ, "23686c9b98341010cd4625296b61e7be4bd4d62d0195774cc1c7dabd4694f1a3"),
    ],
)
def test_fgl_table_order_12_digest(ring, digest):
    assert _digest(fgl_table(12, FreeAlgebra(COMPLEX, ring))) == digest


def test_inverse_table_order_16_digest():
    digest = "9ceca281201023f4270fc5467e30edf52c8f912ba8923b260c9356763f1127ce"
    assert _digest(inverse_table(16)) == digest


@pytest.mark.parametrize("order", range(2, 10))
def test_rational_table_is_the_integer_table_read_as_fractions(order):
    # QQ stores an integral value as an int; every reader still hands out a
    # Fraction, and the rendered table is the integer one byte for byte
    qq = fgl_table(order, FreeAlgebra(COMPLEX, QQ))
    zz = fgl_table(order, FreeAlgebra(COMPLEX, ZZ))
    for (i, j), element in zz.items():
        entry = qq.entry(i, j)
        terms = entry.terms()
        assert terms == [(word, Fraction(c)) for word, c in element.terms()]
        assert all(type(c) is Fraction for _, c in terms)
        assert all(type(entry.coefficient(word)) is Fraction for word, _ in terms)
        assert type(entry.coefficient((order + 1,))) is Fraction
    assert str(qq) == str(zz)
    assert json.dumps(qq.to_data(), indent=2) == json.dumps(zz.to_data(), indent=2)


def test_filtration_run_refuses_zero_samples(A):
    for samples in (0, -1):
        with pytest.raises(ParameterError):
            filtration_property_run(order=6, samples=samples, algebra=A)


def test_cross_check_with_reversion(A):
    z = orientation_series(8, A)
    x = CentralSeries.variable(A, z.varset, 8, "x")
    assert left_substitute(z, revert(z)) == x


@pytest.mark.parametrize("ring", [ZZ, GF(3)])
def test_abelianized_table_is_the_commutative_law(ring):
    # Z_i -> b_i sends the table to z(z^-1(X) + z^-1(Y)), computed by the
    # oracle in commutative dict polynomials
    order = 10
    law = commutative_fgl(order, ring.prime)
    table = fgl_table(order, FreeAlgebra(COMPLEX, ring))
    assert law  # the comparison below is not vacuous
    for (i, j), element in table.items():
        assert abelianize(element, ring.prime) == law.get((i, j), {}), (i, j)
    assert set(law) <= {index for index, _ in table.items()}


# -- the failure path of the axiom checks ---------------------------------------


def _corrupted(order, algebra):
    # a[2,3] := a[3,2]: the two differ by 2 Z1 Z2 Z1 - 2 Z1 Z1 Z2 (see FGLTable)
    table = fgl_table(order, algebra)
    entries = dict(table.items())
    entries[(2, 3)] = entries[(3, 2)]
    return verify_axioms(order, algebra, table=FGLTable(algebra, order, entries))


def test_a_wrong_unit_column_entry_fails_the_unit_check():
    order = 5
    algebra = FreeAlgebra(COMPLEX, ZZ)
    entries = dict(fgl_table(order, algebra).items())
    entries[(0, 3)] = algebra.gen(2)
    report = verify_axioms(order, algebra, table=FGLTable(algebra, order, entries))
    assert not report.unit_ok
    assert report.failures["unit"] == "a[0,3] = Z2"
    assert "          unit: FAIL (a[0,3] = Z2)" in str(report).splitlines()


# (profile, ring, id suffix, the difference 2 Z1 Z1 Z2 - 2 Z1 Z2 Z1 as printed);
# the integral complex case keeps the bare order as its id.
_CORRUPTION_RINGS = [
    (COMPLEX, ZZ, "", "2*Z1*Z1*Z2 - 2*Z1*Z2*Z1", "-2*Z1*Z1*Z2 + 2*Z1*Z2*Z1"),
    (COMPLEX, GF(3), "-GF3", "2*Z1*Z1*Z2 + Z1*Z2*Z1", "Z1*Z1*Z2 + 2*Z1*Z2*Z1"),
    (COMPLEX, QQ, "-QQ", "2*Z1*Z1*Z2 - 2*Z1*Z2*Z1", "-2*Z1*Z1*Z2 + 2*Z1*Z2*Z1"),
    (REAL, ZZ, "-real", "2*z1*z1*z2 - 2*z1*z2*z1", "-2*z1*z1*z2 + 2*z1*z2*z1"),
]


@pytest.mark.parametrize(
    "order, profile, ring, difference, negated",
    [
        pytest.param(order, profile, ring, difference, negated, id=f"{order}{suffix}")
        for profile, ring, suffix, difference, negated in _CORRUPTION_RINGS
        for order in (7, 9)
    ],
)
def test_corrupted_table_fails_three_checks_exactly(order, profile, ring, difference, negated):
    report = _corrupted(order, FreeAlgebra(profile, ring))
    failures = {
        "commutativity": f"F(x, y): first offending monomial (2, 3): {difference}",
        "associativity": f"grouping (x+y)+w: first offending monomial (0, 2, 3): {difference}",
        "inverse": f"F(x, xbar): first offending monomial (5,): {negated}",
    }
    assert json.dumps(report.to_data()) == json.dumps(
        {
            "order": order,
            "checks": {
                "unit": True,
                "commutativity": False,
                "associativity": False,
                "inverse": False,
            },
            "failures": failures,
        }
    )
    assert str(report) == "\n".join(
        [
            f"axiom checks at order {order}",
            "          unit: PASS",
            f" commutativity: FAIL ({failures['commutativity']})",
            f" associativity: FAIL ({failures['associativity']})",
            f"       inverse: FAIL ({failures['inverse']})",
        ]
    )


@functools.lru_cache(maxsize=None)
def _plain_powers(form, variables, order, p):
    """[z(L)^0, ..., z(L)^order] as plain dicts, for the linear form L given
    as (name, coefficient) pairs: z(x) written out, L substituted by
    plain_specialize, and each power one plain_mul from the last."""
    width = len(variables)
    z = {(i + 1,): {(i,) if i else (): 1} for i in range(order)}
    coefficients = dict(form)
    line = [coefficients.get(name, 0) for name in variables]
    z_of_form = plain_specialize(z, [line], width, order, p)
    powers = [{(0,) * width: {(): 1}}]
    for _ in range(order):
        powers.append(plain_mul(powers[-1], z_of_form, order, p))
    return powers


@pytest.mark.parametrize("profile", [COMPLEX, REAL], ids=["complex", "real"])
@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ], ids=["ZZ", "GF3", "QQ"])
def test_axiom_rows_read_the_powers_of_the_plain_oracle(monkeypatch, profile, ring):
    # Each grouping's two power lists reach left_product_combination, which
    # is replaced here: it records them and returns the plain oracle's z(L)
    # for the row's expected form, so a row passes exactly when
    # verify_axioms' expected series equals the oracle's.  The oracle
    # substitutes first and then multiplies.
    import ncfgl.fgl
    from ncfgl.fgl import _AXIOM_ROWS

    algebra = FreeAlgebra(profile, ring)
    p = ring.prime
    expected_forms = {variables: form for _, variables, form, _ in _AXIOM_ROWS}

    def oracle(form, variables, order):
        return _plain_powers(tuple(form.items()), variables, order, p)

    for order in range(2, 10):
        calls = []

        def expected_sum(terms, zs1, zs2):
            calls.append((zs1, zs2))
            varset = zs1[0].varset
            z_of_form = oracle(expected_forms[varset.names], varset.names, order)[1]
            coeffs = {index: algebra.element(terms) for index, terms in z_of_form.items()}
            return CentralSeries(algebra, varset, order, coeffs)

        monkeypatch.setattr(ncfgl.fgl, "left_product_combination", expected_sum)
        report = verify_axioms(order, algebra, table=fgl_table(order, algebra))
        assert report.failures == {}, (order, report.failures)
        groupings = [
            (variables, forms) for _, variables, _, rows in _AXIOM_ROWS for _, forms in rows
        ]
        assert len(calls) == len(groupings)
        for (variables, forms), lists in zip(groupings, calls):
            for form, powers in zip(forms, lists):
                assert {(s.varset.names, s.order) for s in powers} == {(variables, order)}
                assert [plain_series(s) for s in powers] == oracle(form, variables, order), (
                    order, variables, form
                )


@pytest.mark.parametrize("profile", [COMPLEX, REAL], ids=["complex", "real"])
@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ], ids=["ZZ", "GF3", "QQ"])
def test_fgl_sum_matches_the_plain_oracle_on_a_random_table(profile, ring):
    # A seeded table of random homogeneous entries, about a fifth of them
    # zero, is no formal group law table, so no sum reduces to z(L).  Each
    # grouping of every axiom row sums it over the plain oracle's power
    # lists, and the result must be sum a_{i,j} (z(L1)^i z(L2)^j) as
    # plain_mul, plain_scale and plain_add form it, with no ncfgl arithmetic.
    from ncfgl.fgl import _AXIOM_ROWS

    algebra = FreeAlgebra(profile, ring)
    p = ring.prime
    rng = random.Random(31)
    for order in range(2, 10):
        entries = {
            (i, j): algebra.zero() if rng.random() < 0.2 else random_homogeneous(
                algebra, profile.variable_degree * max(i + j - 1, 0), rng
            )
            for i in range(order + 1)
            for j in range(order + 1 - i)
        }
        table = FGLTable(algebra, order, entries)
        plain_table = [((i, j), dict(element.terms())) for (i, j), element in table.items()]
        nonzero = [item for item in table.items() if not item[1].is_zero()]
        for _, variables, _, groupings in _AXIOM_ROWS:
            varset = VarSet(variables)
            for _, forms in groupings:
                plain = [_plain_powers(tuple(form.items()), variables, order, p) for form in forms]
                lists = [
                    [
                        CentralSeries(algebra, varset, order, {
                            index: algebra.element(terms) for index, terms in power.items()
                        })
                        for power in powers
                    ]
                    for powers in plain
                ]
                expected = {}
                for (i, j), element in plain_table:
                    product = plain_mul(plain[0][i], plain[1][j], order, p)
                    expected = plain_add(expected, plain_scale(product, element, p, True), p)
                got = left_product_combination(nonzero, *lists)
                assert plain_series(got) == expected, (order, forms)


def test_verify_axioms_forms_no_product_series_beyond_the_powers_of_z(monkeypatch):
    # z(x)^1, ..., z(x)^9 are the only series products at order 9: every row
    # substitutes into them, and no grouping's sum forms a product series
    table = fgl_table(9)
    products = []
    multiply = CentralSeries.__mul__

    def counting(self, other):
        products.append(other.order)
        return multiply(self, other)

    monkeypatch.setattr(CentralSeries, "__mul__", counting)
    assert verify_axioms(9, table=table).failures == {}
    assert products == [9] * 9


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ])
def test_verify_axioms_order_9_digest(ring):
    report = verify_axioms(9, FreeAlgebra(COMPLEX, ring))
    digest = hashlib.sha256(json.dumps(report.to_data()).encode()).hexdigest()
    assert digest == "205d7fe2d3aad8b64b29f49a9bf1d3c2ab02463817dedcdaf5af8c90a2613998"


@pytest.mark.parametrize(
    "ring, digest",
    [
        (ZZ, "94a2fe2cf61bfc8a8425c0f245275953fbfbcb01d1714f841e5a553db7e2633a"),
        (GF(3), "a7bedf2037e1c98a5337900e341f188ff94b8f0957caa8f98e5fd912131c7b73"),
        (QQ, "6b58f95f0cab64a65269692891e0672b489d151589cba15d2df6d0b69bf91308"),
    ],
)
def test_filtration_run_digest(ring, digest):
    ok, results = filtration_property_run(
        order=10, samples=100, seed=7, algebra=FreeAlgebra(COMPLEX, ring)
    )
    assert ok and len(results) == 100
    data = json.dumps([result.to_data() for result in results])
    assert hashlib.sha256(data.encode()).hexdigest() == digest


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ])
def test_filtration_run_matches_single_checks(ring):
    # the run shares z^k between samples; each result must be the one the
    # single check computes for the same draw of (u, k)
    algebra = FreeAlgebra(COMPLEX, ring)
    order, max_degree, max_k, seed = 9, 8, 4, 11
    _, results = filtration_property_run(
        order=order, samples=40, seed=seed, algebra=algebra, max_degree=max_degree, max_k=max_k
    )
    rng = random.Random(seed)
    degrees = [d for d in range(1, max_degree + 1) if algebra.dim(d)]
    expected = []
    for _ in range(40):
        degree = rng.choice(degrees)
        k = rng.randint(1, min(max_k, order - 2))
        u = random_homogeneous(algebra, degree, rng)
        if not u.is_zero():
            expected.append(commutator_filtration(u, k, order))
    assert len(results) == len(expected) == 40
    assert {r.k for r in results} == {1, 2, 3, 4}
    for got, want in zip(results, expected):
        assert (got.k, got.order, got.valuation, got.required) == (
            want.k, want.order, want.valuation, want.required
        )
        assert got.series == want.series
        assert not got.series.is_zero()


def test_filtration_run_refuses_an_empty_exponent_range(A):
    for order, max_k in ((2, 4), (6, 0)):
        with pytest.raises(ParameterError):
            filtration_property_run(order=order, samples=1, algebra=A, max_k=max_k)


def test_verify_axioms_refuses_a_foreign_table_before_any_series(monkeypatch):
    import ncfgl.fgl
    from ncfgl import ModeMismatchError

    def no_series(*args, **kwargs):
        raise AssertionError("a refused table must not start the checks")

    small, large = fgl_table(5), fgl_table(7)
    rational = fgl_table(5, FreeAlgebra(COMPLEX, QQ))
    monkeypatch.setattr(ncfgl.fgl, "orientation_series", no_series)
    with pytest.raises(ParameterError, match="order 7, not 5"):
        verify_axioms(5, table=large)
    with pytest.raises(ParameterError, match="order 5, not 7"):
        verify_axioms(7, table=small)
    with pytest.raises(ModeMismatchError):
        verify_axioms(5, FreeAlgebra(COMPLEX, GF(3)), table=small)
    with pytest.raises(ModeMismatchError):
        verify_axioms(5, table=rational)


def test_filtration_run_refuses_a_degree_range_without_words(A):
    # the complex profile has no word of degree 1, and no degree range is empty
    for max_degree in (1, 0):
        with pytest.raises(ParameterError):
            filtration_property_run(order=6, samples=3, max_degree=max_degree, algebra=A)


def test_tables_compare_by_value():
    assert fgl_table(4) == fgl_table(4)
    assert fgl_table(4) != fgl_table(5)
    assert fgl_table(4) != fgl_table(4, FreeAlgebra(COMPLEX, GF(3)))
    assert inverse_table(5) == inverse_table(5)
    assert inverse_table(5) != inverse_table(6)


def test_table_entries_are_read_only():
    import pickle

    for table, key in ((fgl_table(4), (1, 1)), (inverse_table(5), 1)):
        with pytest.raises(TypeError):
            table._entries[key] = table.algebra.zero()
        with pytest.raises(TypeError):
            del table._entries[key]
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and str(copy) == str(table)
        assert copy == type(table)(table.algebra, table.order, dict(table._entries))
    assert verify_axioms(4, table=fgl_table(4)).failures == {}


# One row per refusal of the formal-group-law layer: (callable, args, error type, message fragment).
_REFUSALS = [
    (fgl_table(3).entry, (4, 0), ParameterError, "entry (4,0) is outside order 3"),
    (fgl_table(3).entry, (-1, 1), ParameterError, "entry (-1,1) is outside order 3"),
    (inverse_table(3).entry, (3,), ParameterError, "c_3 is outside order 3"),
    (inverse_table(3).entry, (0,), ParameterError, "c_0 is outside order 3"),
    (inverse_table, (1,), ParameterError, "inverse table needs order >= 2"),
    (verify_axioms, (1,), ParameterError, "axiom verification needs order >= 2"),
]


@pytest.mark.parametrize("call, args, error, fragment", _REFUSALS, ids=[r[3] for r in _REFUSALS])
def test_fgl_refusals(call, args, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(*args)


@pytest.mark.parametrize("algebra", [
    FreeAlgebra(COMPLEX, ZZ),
    FreeAlgebra(COMPLEX, QQ),
    FreeAlgebra(COMPLEX, GF(2)),
    FreeAlgebra(COMPLEX, GF(3)),
    FreeAlgebra(REAL, GF(2)),
], ids=lambda algebra: f"{algebra.profile.kind}-{algebra.ring!r}")
def test_filtration_run_gives_one_result_per_sample(algebra):
    # every drawn u is nonzero, so no sample is skipped
    for seed in range(3):
        _, results = filtration_property_run(order=6, samples=40, seed=seed, algebra=algebra)
        assert len(results) == 40
