"""Acceptance suite: one test per criterion, each announcing a pass/fail line.

The announcements go to the unbuffered terminal stream so they stay visible
under pytest's capture; every expected value is exact, no tolerances anywhere.
"""

import sys
import time

import pytest

from ncfgl import (
    GF,
    REAL,
    CommAlgebra,
    FreeAlgebra,
    GeneratorActionTable,
    MilnorOp,
    bp_homology,
    bp_obstruction_certificate,
    cartan_extend,
    commutator_filtration,
    dual_steenrod,
    fgl_table,
    filtration_property_run,
    hf2_obstruction_certificate,
    inverse_table,
    nsym_action,
    parity_check_ku,
    rational_mu_series_check,
    right_action,
    series_free_assoc,
    splitting_multiplicities,
    verify_axioms,
)

from oracles import brute_force_fgl_table
from props import (
    run_coalgebra_laws,
    run_left_expand_roundtrip,
    run_lucas_check,
    run_revert_two_sided,
    run_specialize_props,
)


def announce(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}\n"
    (sys.__stdout__ or sys.stdout).write(line)


@pytest.fixture(scope="module")
def A():
    return FreeAlgebra()


@pytest.fixture(scope="module")
def table8(A):
    start = time.monotonic()
    table = fgl_table(8, A)
    table8_seconds = time.monotonic() - start
    return table, table8_seconds


@pytest.fixture(scope="module")
def report8(A, table8):
    table, _ = table8
    return verify_axioms(8, A, table=table)


def test_criterion_1_fgl_table_order_8(A, table8):
    table, seconds = table8
    oracle = brute_force_fgl_table(A, 3)
    expected_11 = A.gen(1).scale(2)
    expected_12 = A.gen(2).scale(3) - A.monomial((1, 1)).scale(2)
    ok = (
        seconds < 60.0
        and table.entry(1, 1) == expected_11 == oracle[(1, 1)]
        and table.entry(1, 2) == expected_12 == oracle[(1, 2)]
        and table.entry(2, 1) == expected_12 == oracle[(2, 1)]
    )
    announce(1, ok, f"order-8 table in {seconds:.2f}s; a11, a12, a21 match the brute-force oracle")
    assert seconds < 60.0
    assert table.entry(1, 1) == oracle[(1, 1)] == expected_11
    assert table.entry(1, 2) == oracle[(1, 2)] == expected_12
    assert table.entry(2, 1) == oracle[(2, 1)] == expected_12


def test_criterion_2_axioms_order_8(report8):
    ok = report8.failures == {}
    announce(2, ok, "unit, commutativity, associativity (both groupings), inverse (both orders) at order 8")
    assert report8.unit_ok
    assert report8.commutativity_ok
    assert report8.associativity_ok
    assert report8.inverse_ok
    assert report8.failures == {}


def test_criterion_3_commutator_filtration(A):
    result = commutator_filtration(A.gen(1), 1, 6)
    expected = A.monomial((1, 2)) - A.monomial((2, 1))
    exact = result.series.support()[0] == (3,) and result.series.coefficient((3,)) == expected
    exact = exact and result.valuation == 3
    all_ok, results = filtration_property_run(order=12, samples=100, seed=0, algebra=A)
    ok = exact and all_ok and len(results) == 100
    announce(3, ok, "first commutator term (Z1*Z2 - Z2*Z1)x^3; 100 seeded samples meet the k+1 bound")
    assert exact
    assert all_ok and len(results) == 100


def test_criterion_4_inverse_series(A, report8):
    table = inverse_table(8, A)
    c_ok = (
        table.to_data()["gamma1"] == "-1"
        and table.entry(1) == A.gen(1).scale(2)
        and table.entry(2) == A.monomial((1, 1)).scale(-4)
    )
    degree_ok = all(
        element.is_zero() or element.degree() == 2 * k for k, element in table.items()
    )
    ok = c_ok and degree_ok and report8.inverse_ok
    announce(4, ok, "gamma1 = -1, c1 = 2Z1, c2 = -4Z1^2, deg c_k = 2k; inverse identities vanish to order 8")
    assert c_ok
    assert degree_ok
    assert report8.inverse_ok


def test_criterion_5_steenrod_regression():
    checks = []
    for p in (3, 5):
        B = bp_homology(p)
        P1 = MilnorOp(p, "P", 1)
        Pp = MilnorOp(p, "P", p)
        checks.append(right_action(B.gen(1), P1) == B.one().scale(-1))
        checks.append(right_action(B.gen(2), P1) == -(B.gen(1) ** p))
        checks.append(right_action(B.gen(2), Pp).is_zero())

        W = CommAlgebra.with_degrees("w", (2 * p - 2,), GF(p))
        entries = {(1, 1): W.one().scale(-1)}
        entries.update({(i, 1): W.zero() for i in range(2, p + 1)})
        t = GeneratorActionTable(W, "P", p, entries)
        w = W.gen(1)
        checks.append(cartan_extend(t, w ** (p + 1), P1) == -(w ** p))
        checks.append(cartan_extend(t, w ** (p + 1), Pp) == -w)

    D = dual_steenrod(2)
    checks.append(right_action(D.gen(1), MilnorOp(2, "Sq", 1)) == D.one())
    checks.append(right_action(D.gen(2), MilnorOp(2, "Sq", 2)) == D.gen(1))
    checks.append(right_action(D.gen(2), MilnorOp(2, "Sq", 1)).is_zero())

    R = FreeAlgebra(REAL, GF(2))
    checks.append(nsym_action(MilnorOp(2, "Sq", 1), R.gen(1) ** 3) == R.gen(1) ** 2)

    ok = all(checks)
    announce(5, ok, f"all {len(checks)} displayed action values reproduced exactly (p in {{2,3,5}})")
    assert all(checks)


def test_criterion_6_obstruction_certificates():
    start = time.monotonic()
    bp_cert = bp_obstruction_certificate(3)
    bp_seconds = time.monotonic() - start
    hf2_cert = hf2_obstruction_certificate()
    big = max(s["dimension"] for s in bp_cert.systems)
    ok = (
        bp_cert.verdict == "INFEASIBLE"
        and bp_seconds < 60.0
        and big == 128
        and hf2_cert.verdict == "INFEASIBLE"
        and hf2_cert.centralizers == {"z1": ["z1*z1*z1"]}
    )
    announce(6, ok, f"bp(3) INFEASIBLE in {bp_seconds:.2f}s (largest system 128-dim); hf2 INFEASIBLE with centralizer {{z1^3}}")
    assert bp_cert.verdict == "INFEASIBLE"
    assert bp_seconds < 60.0
    assert big == 128
    assert hf2_cert.verdict == "INFEASIBLE"
    assert hf2_cert.centralizers == {"z1": ["z1*z1*z1"]}


def test_criterion_7_gradebook():
    nsym = series_free_assoc([2 * i for i in range(1, 5)], 8)
    nsym_ok = nsym.dims == (1, 0, 1, 0, 2, 0, 4, 0, 8)

    split12 = splitting_multiplicities(2, 12)
    split_ok = [split12.dims[2 * d] for d in range(7)] == [1, 0, 1, 1, 4, 7, 14]
    nonneg_ok = True
    for p in (2, 3, 5):
        series = splitting_multiplicities(p, 80)
        nonneg_ok = nonneg_ok and all(c >= 0 for c in series.dims)

    parity = parity_check_ku(2, 20)
    parity_ok = (
        parity.least_odd_degree == 9
        and parity.cp_even_only
        and parity.verdict == "NOT-ISOMORPHIC"
    )

    rational = rational_mu_series_check(40)
    ok = nsym_ok and split_ok and nonneg_ok and parity_ok and rational.match
    announce(7, ok, "NSym dims, splitting multiplicities 1,0,1,1,4,7,14 (nonnegative to degree 80), parity least-odd 9, partition match at 40")
    assert nsym_ok
    assert split_ok
    assert nonneg_ok
    assert parity_ok
    assert rational.match


def test_criterion_8_property_suites():
    failures = []
    failures += run_left_expand_roundtrip(seed=0, trials=40)
    failures += run_specialize_props(seed=0, pairs_per_width=200)
    failures += run_revert_two_sided(seed=0, count=20)
    for p in (2, 3):
        failures += run_coalgebra_laws(p)
    failures += run_lucas_check()
    ok = failures == []
    announce(8, ok, "expand round-trip, specialize homomorphism, revert two-sidedness, coalgebra laws, Lucas agreement: zero failures")
    assert failures == []
