import hashlib
import json
import random
import re
import time
from math import comb

import pytest

from ncfgl import (
    COMPLEX,
    GF,
    QQ,
    REAL,
    CommAlgebra,
    FreeAlgebra,
    GeneratorActionTable,
    GradingProfile,
    IncompleteTableError,
    MilnorOp,
    ModeMismatchError,
    ObstructionCertificate,
    ParameterError,
    UnsupportedInputError,
    antipode,
    bp_coaction,
    bp_homology,
    bp_obstruction_certificate,
    cartan_extend,
    conjugate_generator,
    coproduct,
    dual_steenrod,
    frobenius,
    hf2_obstruction_certificate,
    lucas_binomial,
    milnor_pair,
    nsym_action,
    random_homogeneous,
    right_action,
)
from ncfgl.linalg import matrix_of
from ncfgl.steenrod import TensorAlgebra, TensorElement, _acting, _cartan, _two_stage

from oracles import free_action, plain_matrix
from props import run_coalgebra_laws, run_lucas_check


# -- Milnor operations ----------------------------------------------------------


def test_op_degrees():
    assert MilnorOp(3, "P", 2).degree == 8
    assert MilnorOp(2, "Sq", 3).degree == 3
    assert MilnorOp(5, "P", 0).degree == 0


def test_op_validation():
    with pytest.raises(ParameterError):
        MilnorOp(2, "P", 1)
    with pytest.raises(ParameterError):
        MilnorOp(3, "Sq", 1)
    with pytest.raises(ParameterError):
        MilnorOp(4, "P", 1)
    with pytest.raises(ParameterError):
        MilnorOp(3, "P", -1)


# -- coproduct -------------------------------------------------------------------


def test_coproduct_primitive_generator():
    A = dual_steenrod(3)
    psi = coproduct(A.gen(1))
    assert psi == TensorAlgebra(A, A).element({(((1, 1),), ()): 1, ((), ((1, 1),)): 1})


def test_tensor_factors_over_different_rings_are_refused():
    # an F_5 factor would otherwise have its products read mod 3
    with pytest.raises(ModeMismatchError):
        TensorElement.tensor(dual_steenrod(3).gen(1), bp_homology(5).gen(1))
    with pytest.raises(ModeMismatchError):
        TensorAlgebra(dual_steenrod(3), FreeAlgebra(COMPLEX, GF(5)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coproduct_second_generator(p):
    A = dual_steenrod(p)
    psi = coproduct(A.gen(2))
    expected = TensorAlgebra(A, A).element(
        {
            (((2, 1),), ()): 1,
            (((1, p),), ((1, 1),)): 1,
            ((), ((2, 1),)): 1,
        }
    )
    assert psi == expected


def test_coproduct_renders_each_tensor_factor():
    assert str(coproduct(dual_steenrod(3).gen(2))) == (
        "(1 (x) xi2) + (xi1^3 (x) xi1) + (xi2 (x) 1)"
    )


def test_coproduct_is_multiplicative():
    A = dual_steenrod(3)
    assert coproduct(A.gen(1) ** 2) == coproduct(A.gen(1)) ** 2


@pytest.mark.parametrize("p", [2, 3])
def test_coalgebra_laws_through_bound(p):
    assert run_coalgebra_laws(p) == []


# -- antipode ---------------------------------------------------------------------


def test_conjugate_generator_refuses_a_negative_index():
    assert conjugate_generator(3, 0) == dual_steenrod(3).one()
    for r in (-1, -2):
        with pytest.raises(ParameterError, match=f"must be >= 0, got {r}"):
            conjugate_generator(3, r)


def test_milnor_pair_refuses_a_dual_steenrod_element_at_another_prime():
    with pytest.raises(UnsupportedInputError):
        milnor_pair(MilnorOp(5, "P", 1), dual_steenrod(3).gen(1))
    with pytest.raises(UnsupportedInputError):
        milnor_pair(MilnorOp(3, "P", 1), bp_homology(3).gen(1))
    assert milnor_pair(MilnorOp(3, "P", 1), dual_steenrod(3).gen(1)) == 1


def test_antipode_unit():
    A = dual_steenrod(3)
    assert antipode(A.one()) == A.one()


def test_antipode_first_generator():
    A3 = dual_steenrod(3)
    assert antipode(A3.gen(1)) == -A3.gen(1)
    A2 = dual_steenrod(2)
    assert antipode(A2.gen(1)) == A2.gen(1)


@pytest.mark.parametrize("p", [3, 5])
def test_antipode_second_generator_odd(p):
    A = dual_steenrod(p)
    assert antipode(A.gen(2)) == A.gen(1) ** (p + 1) - A.gen(2)


# -- coaction on the t-polynomials ----------------------------------------------------


def test_bp_coaction_t1():
    p = 3
    B = bp_homology(p)
    S = dual_steenrod(p)
    psi = bp_coaction(B.gen(1))
    expected = TensorElement.tensor(conjugate_generator(p, 1), B.one()) + TensorElement.tensor(
        S.one(), B.gen(1)
    )
    assert psi == expected


def test_bp_coaction_t2():
    p = 3
    B = bp_homology(p)
    S = dual_steenrod(p)
    psi = bp_coaction(B.gen(2))
    expected = (
        TensorElement.tensor(conjugate_generator(p, 2), B.one())
        + TensorElement.tensor(conjugate_generator(p, 1), B.gen(1) ** p)
        + TensorElement.tensor(S.one(), B.gen(2))
    )
    assert psi == expected


def test_bp_coaction_multiplicative():
    B = bp_homology(3)
    assert bp_coaction(B.gen(1) ** 2) == bp_coaction(B.gen(1)) ** 2


def _cube_repeatedly(x, times):
    """x ** (3 ** times) by plain products, sharing no code with the Frobenius."""
    for _ in range(times):
        x = x * x * x
    return x


@pytest.mark.parametrize("j", [1, 2, 3])
def test_bp_coaction_of_a_p_power_is_the_closed_form(j):
    # psi(t3)^(3^j) = sum_k zeta_k^(3^j) (x) t_(3-k)^(3^(j+k))
    p = 3
    B = bp_homology(p)
    expected = TensorAlgebra(dual_steenrod(p), B).zero()
    for k in range(4):
        zeta = _cube_repeatedly(conjugate_generator(p, k), j)
        t_part = B.monomial(((3 - k, p ** (j + k)),)) if k < 3 else B.one()
        expected = expected + TensorElement.tensor(zeta, t_part)
    assert bp_coaction(B.gen(3) ** p ** j) == expected


def test_bp_coaction_of_t3_to_the_27_is_fast():
    # plain binary powering took about 7 s for these 8 terms
    B = bp_homology(3)
    start = time.perf_counter()
    psi = bp_coaction(B.gen(3) ** 27)
    assert time.perf_counter() - start < 0.5
    assert len(psi) == 8


@pytest.mark.parametrize("p", [3, 5])
def test_multiplicative_maps_match_binary_powering(p):
    B = bp_homology(p)
    A = dual_steenrod(p)
    t1, t2 = B.gen(1), B.gen(2)
    for e1, e2 in ((4, 3), (2 * p, p), (p, 1), (p * p, 2)):
        mono = t1 ** e1 * t2 ** e2
        assert bp_coaction(mono) == bp_coaction(t1) ** e1 * bp_coaction(t2) ** e2
    xi1, xi2 = A.gen(1), A.gen(2)
    for e1, e2 in ((4, 3), (2 * p, p)):
        mono = xi1 ** e1 * xi2 ** e2
        assert coproduct(mono) == coproduct(xi1) ** e1 * coproduct(xi2) ** e2
        assert antipode(mono) == antipode(xi1) ** e1 * antipode(xi2) ** e2


def test_bp_coaction_rejects_p2():
    with pytest.raises(UnsupportedInputError):
        bp_coaction(bp_homology(2).gen(1))


# -- the pairing ------------------------------------------------------------------------


def test_pairing_defining_value():
    A = dual_steenrod(2)
    assert milnor_pair(MilnorOp(2, "Sq", 2), A.gen(1) ** 2) == 1


def test_pairing_on_conjugates():
    p = 3
    op = MilnorOp(p, "P", 1)
    assert milnor_pair(op, conjugate_generator(p, 1)) == p - 1  # -1 mod p
    assert milnor_pair(op, conjugate_generator(p, 2)) == 0


def test_pairing_degree_mismatch_is_zero():
    A = dual_steenrod(3)
    assert milnor_pair(MilnorOp(3, "P", 2), A.gen(1)) == 0


# -- right actions -----------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_action_values_on_t_generators(p):
    B = bp_homology(p)
    P1 = MilnorOp(p, "P", 1)
    Pp = MilnorOp(p, "P", p)
    assert right_action(B.gen(1), P1) == B.one().scale(-1)
    assert right_action(B.gen(2), P1) == -(B.gen(1) ** p)
    assert right_action(B.gen(2), Pp).is_zero()


def test_action_values_on_xi_generators():
    A = dual_steenrod(2)
    assert right_action(A.gen(1), MilnorOp(2, "Sq", 1)) == A.one()
    assert right_action(A.gen(2), MilnorOp(2, "Sq", 2)) == A.gen(1)
    assert right_action(A.gen(2), MilnorOp(2, "Sq", 1)).is_zero()


def test_action_rejects_unregistered_family():
    W = CommAlgebra.with_degrees("u", (4,), GF(3))
    with pytest.raises(UnsupportedInputError):
        right_action(W.gen(1), MilnorOp(3, "P", 1))


@pytest.mark.parametrize("p", [3, 5])
def test_degree_vanishing(p):
    B = bp_homology(p)
    op = MilnorOp(p, "P", p + 1)
    assert right_action(B.gen(1), op).is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_right_action_consistent_with_cartan(p):
    B = bp_homology(p)
    rng = random.Random(p)
    max_index = 2 * p
    entries = {
        (k, r): right_action(B.gen(r), MilnorOp(p, "P", k))
        for r in (1, 2, 3)
        for k in range(1, max_index + 1)
    }
    table = GeneratorActionTable(B, "P", p, entries)
    for _ in range(100):
        mono = tuple(
            sorted({r: rng.randint(1, 2) for r in rng.sample((1, 2, 3), rng.randint(1, 2))}.items())
        )
        element = B.monomial(mono)
        op = MilnorOp(p, "P", rng.randint(1, max_index))
        assert cartan_extend(table, element, op) == right_action(element, op)


def _digit_sum(e, p):
    return e if e < p else e % p + _digit_sum(e // p, p)


# The full coaction of a monomial grows with the base-p digits of its
# exponents, most steeply on the higher generators: at p = 5, t_3^24 alone
# has 62 188 terms.  Monomials above this weight (the sum over generators of
# index times the digit sum of the exponent) are drawn again, so that the
# full tensors of the oracle stay below about 20 000 terms.
_ORACLE_WEIGHT = 18


def _draw_monomial(rng, p):
    """A monomial in up to 3 generators with exponents up to p^2, of weight
    at most _ORACLE_WEIGHT."""
    while True:
        gens = rng.sample((1, 2, 3), rng.randint(1, 3))
        mono = tuple(sorted((i, rng.randint(1, p * p)) for i in gens))
        if sum(i * _digit_sum(e, p) for i, e in mono) <= _ORACLE_WEIGHT:
            return mono


@pytest.mark.parametrize("p", [2, 3, 5])
def test_right_action_is_the_pairing_of_the_full_coaction(p):
    # right_action extends the generators' images by the Cartan rule;
    # pairing the full tensor with xi_1^k must give the same element
    rng = random.Random(40 + p)
    kind = "Sq" if p == 2 else "P"
    families = [(dual_steenrod(p), coproduct)]
    if p != 2:
        families.append((bp_homology(p), bp_coaction))
    for algebra, coaction in families:
        for _ in range(12):
            mono = _draw_monomial(rng, p)
            element = algebra.monomial(mono, rng.randint(1, p - 1))
            full = coaction(element)
            for k in range(5):
                dual = ((1, k),) if k else ()
                paired = {right: c for (left, right), c in full.terms() if left == dual}
                action = right_action(element, MilnorOp(p, kind, k))
                assert action == algebra.element(paired), (mono, k)


# -- Cartan rule -----------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_cartan_on_symbolic_generator(p):
    W = CommAlgebra.with_degrees("w", (2 * p - 2,), GF(p))
    entries = {(1, 1): W.one().scale(-1)}
    for i in range(2, p + 1):
        entries[(i, 1)] = W.zero()
    table = GeneratorActionTable(W, "P", p, entries)
    w = W.gen(1)
    power = w ** (p + 1)
    assert cartan_extend(table, power, MilnorOp(p, "P", 1)) == -(w ** p)
    assert cartan_extend(table, power, MilnorOp(p, "P", p)) == -w


# Exponents far past the recursion limit if a monomial were split one unit
# at a time: 2000 = 2202002 and 3^8 + 7 = 100000021 in base 3.
_DEEP_EXPONENTS = (2000, 3 ** 8 + 7)


def _binomial_terms(e, k, p):
    """The public terms of C(e, k) (-1)^k g^(e-k) over F_p, from math.comb."""
    coeff = comb(e, k) * (-1) ** k % p
    return [(((1, e - k),), coeff)] if coeff else []


@pytest.mark.parametrize("e", _DEEP_EXPONENTS)
def test_cartan_on_a_deep_power_of_a_symbolic_generator(e):
    # w.P^1 = -1 and w.P^i = 0 for 1 < i <= p, so w^e.P^k = C(e, k)(-1)^k w^(e-k)
    p = 3
    W = CommAlgebra.with_degrees("w", (2 * p - 2,), GF(p))
    entries = {(1, 1): W.one().scale(-1)}
    entries.update({(i, 1): W.zero() for i in range(2, p + 1)})
    table = GeneratorActionTable(W, "P", p, entries)
    power = W.monomial(((1, e),))
    for k in range(4):
        assert cartan_extend(table, power, MilnorOp(p, "P", k)).terms() == _binomial_terms(e, k, p)


@pytest.mark.parametrize("e", _DEEP_EXPONENTS)
def test_right_action_on_a_deep_power_of_t1(e):
    # t1.P^1 = -1 and t1.P^i = 0 for i > 1, so t1^e.P^k = C(e, k)(-1)^k t1^(e-k)
    p = 3
    power = bp_homology(p).monomial(((1, e),))
    for k in range(6):
        assert right_action(power, MilnorOp(p, "P", k)).terms() == _binomial_terms(e, k, p)


def test_cartan_derivation_for_sq1():
    algebra = FreeAlgebra(REAL, GF(2))
    z1 = algebra.gen(1)
    table = GeneratorActionTable(algebra, "Sq", 2, {(1, 1): algebra.one()})
    assert cartan_extend(table, z1 ** 3, MilnorOp(2, "Sq", 1)) == z1 ** 2


def test_cartan_missing_entry_names_generator_and_index():
    W = CommAlgebra.with_degrees("w", (4,), GF(3))
    table = GeneratorActionTable(W, "P", 3, {(1, 1): W.one().scale(-1)})
    with pytest.raises(IncompleteTableError, match="generator 1 under index 2"):
        cartan_extend(table, W.gen(1) ** 2, MilnorOp(3, "P", 2))


def test_cartan_reads_the_images_of_its_own_table():
    # two tables over one carrier, acted with in turn: each act reads its own
    # images, P^1 Z1 = 1 in one and -1 in the other; P^2 Z1 is 0 in both
    algebra = FreeAlgebra(COMPLEX, GF(3))
    one = algebra.one()
    plus = GeneratorActionTable(algebra, "P", 3, {(1, 1): one, (2, 1): algebra.zero()})
    minus = GeneratorActionTable(algebra, "P", 3, {(1, 1): -one, (2, 1): algebra.zero()})
    act_plus, act_minus = _cartan(algebra, plus.image), _cartan(algebra, minus.image)
    z1z1 = b"\x01\x01"
    for _ in range(2):
        assert act_plus(z1z1, 1) == algebra.gen(1).scale(2)
        assert act_minus(z1z1, 1) == algebra.gen(1)
        # P^2(Z1 Z1 Z1) is P^1 on two of the three letters: 3 Z1 = 0; and
        # P^2(Z1 Z1) = (P^1 Z1)^2 = 1 in both
        assert act_plus(z1z1 + b"\x01", 2).is_zero()
        assert act_plus(z1z1, 2) == act_minus(z1z1, 2) == one
    assert cartan_extend(minus, algebra.gen(1) ** 2, MilnorOp(3, "P", 1)) == algebra.gen(1)


def test_cartan_on_a_p_th_power_reads_only_the_entries_it_needs():
    # (sum_i w.P^i)^3 = sum_i (w.P^i)^3 over F_3, so w^3.P^3 = (w.P^1)^3 = -1
    # whatever w.P^2 and w.P^3 are: a table without them still answers, and
    # w^3.P^2 = 0; w^2.P^2 does need w.P^2, and is refused
    # (test_cartan_missing_entry_names_generator_and_index)
    W = CommAlgebra.with_degrees("w", (4,), GF(3))
    table = GeneratorActionTable(W, "P", 3, {(1, 1): W.one().scale(-1)})
    cube = W.monomial(((1, 3),))
    assert cartan_extend(table, cube, MilnorOp(3, "P", 3)).terms() == [((), 2)]
    assert cartan_extend(table, cube, MilnorOp(3, "P", 2)).terms() == []


def test_cartan_missing_entry_is_refused_after_other_images_are_read():
    # the index-1 image is read and kept; the index-2 one is missing, and
    # every act that needs it is refused, naming the generator and the index
    algebra = FreeAlgebra(COMPLEX, GF(3))
    table = GeneratorActionTable(algebra, "P", 3, {(1, 1): algebra.one()})
    act = _cartan(algebra, table.image)
    assert act(b"\x01\x01", 1) == algebra.gen(1).scale(2)
    for _ in range(2):
        with pytest.raises(IncompleteTableError, match="generator 1 under index 2"):
            act(b"\x01\x01", 2)
    with pytest.raises(IncompleteTableError, match="generator 2 under index 1"):
        act(b"\x02", 1)


@pytest.mark.parametrize(
    "profile, p",
    [(REAL, 2), (COMPLEX, 2), (COMPLEX, 3), (COMPLEX, 5)],
    ids=["real-2", "complex-2", "complex-3", "complex-5"],
)
def test_action_rows_match_the_closed_form_oracle(profile, p):
    # the certificate systems read op(word) as stored terms: every column
    # must be the closed-form action of tests/oracles.py, with no stored 0
    # where an action cancels or vanishes; the source words hold repeated
    # letters and the empty word
    algebra = FreeAlgebra(profile, GF(p))
    top = 8 * profile.variable_degree
    sources = [word for d in range(top + 1) for word in algebra._keys_of_degree(d)]
    assert sources[0] == b""
    entries = 0
    for k in range(1, 4):
        op = MilnorOp(p, "Sq" if p == 2 else "P", k)
        rows = matrix_of(_acting(algebra, op), sources, sources)
        images = [free_action(tuple(word), k, p, profile.kind) for word in sources]
        got = {(i, j): c for i, row in enumerate(rows) for j, c in row.items()}
        assert got == plain_matrix(images, [tuple(word) for word in sources]), k
        assert all(got.values())
        entries += len(got)
    assert entries > 50


def test_cartan_table_mismatch():
    W = CommAlgebra.with_degrees("w", (4,), GF(3))
    table = GeneratorActionTable(W, "P", 3, {})
    with pytest.raises(ModeMismatchError):
        cartan_extend(table, W.gen(1), MilnorOp(5, "P", 1))


def test_action_table_refuses_an_entry_over_another_ring():
    # over F_3, w1^2 . P^1 would read the F_5 entry 4 as 1 and return 2*w1
    W3 = CommAlgebra.with_degrees("w", (4,), GF(3))
    W5 = CommAlgebra.with_degrees("w", (4,), GF(5))
    with pytest.raises(ModeMismatchError, match=r"entry \(1, 1\)"):
        GeneratorActionTable(W3, "P", 3, {(1, 1): W5.one().scale(4)})


def test_action_table_refuses_a_prime_other_than_its_carriers():
    # a p = 5 table over F_3 would send w1^5 under P^1 to 2*w1^4
    W3 = CommAlgebra.with_degrees("w", (4,), GF(3))
    with pytest.raises(ModeMismatchError, match="p = 5"):
        GeneratorActionTable(W3, "P", 5, {(1, 1): W3.one().scale(-1)})


@pytest.mark.parametrize("kind, prime", [("Sq", 3), ("P", 2)])
def test_action_table_refuses_a_kind_that_does_not_live_at_its_prime(kind, prime):
    # MilnorOp's rule: Sq^k lives at p = 2 and P^k at the odd primes
    W = CommAlgebra.with_degrees("w", (2,), GF(prime))
    with pytest.raises(ParameterError):
        GeneratorActionTable(W, kind, prime, {})


# -- induced action on the free algebra ----------------------------------------------------------


def test_nsym_real_sq1():
    algebra = FreeAlgebra(REAL, GF(2))
    assert nsym_action(MilnorOp(2, "Sq", 1), algebra.gen(1)) == algebra.one()
    assert nsym_action(MilnorOp(2, "Sq", 1), algebra.gen(1) ** 3) == algebra.gen(1) ** 2


def test_nsym_complex_p3():
    algebra = FreeAlgebra(COMPLEX, GF(3))
    P1 = MilnorOp(3, "P", 1)
    assert nsym_action(P1, algebra.gen(2)) == algebra.one()
    assert nsym_action(P1, algebra.gen(1) ** 2).is_zero()


@pytest.mark.parametrize("n", [1000, 3 ** 7 + 1])
def test_p1_on_a_long_power_of_z2(n):
    # P^1 Z2 = 1 at p = 3, so by the Cartan rule Z2^n . P^1 = n Z2^(n-1); a
    # word has no Frobenius shortcut, so the engine walks all n letters, far
    # past the depth that a recursion per letter could reach
    algebra = FreeAlgebra(COMPLEX, GF(3))
    word = algebra.monomial((2,) * n)
    expected = algebra.monomial((2,) * (n - 1)).scale(n)
    assert not expected.is_zero()
    assert nsym_action(MilnorOp(3, "P", 1), word) == expected
    assert right_action(word, MilnorOp(3, "P", 1)) == expected


def test_nsym_complex_p2_even_squares_only():
    algebra = FreeAlgebra(COMPLEX, GF(2))
    assert nsym_action(MilnorOp(2, "Sq", 1), algebra.gen(1)).is_zero()
    assert nsym_action(MilnorOp(2, "Sq", 2), algebra.gen(1)) == algebra.one()


def test_nsym_rejects_bad_combinations():
    # the real profile carries an action only at p = 2
    with pytest.raises(UnsupportedInputError):
        nsym_action(MilnorOp(3, "P", 1), FreeAlgebra(REAL, GF(3)).gen(1))
    with pytest.raises(ModeMismatchError):
        nsym_action(MilnorOp(3, "P", 1), FreeAlgebra(COMPLEX, GF(5)).gen(1))
    with pytest.raises(ModeMismatchError):
        nsym_action(MilnorOp(3, "P", 1), FreeAlgebra(COMPLEX).gen(1))
    with pytest.raises(UnsupportedInputError):
        nsym_action(MilnorOp(2, "Sq", 1), FreeAlgebra(GradingProfile.custom((1, 3)), GF(2)).gen(1))
    with pytest.raises(UnsupportedInputError):
        nsym_action(MilnorOp(3, "P", 1), bp_homology(3).gen(1))


@pytest.mark.parametrize(
    "profile, p",
    [(REAL, 2), (COMPLEX, 2), (COMPLEX, 3), (COMPLEX, 5)],
    ids=["real-2", "complex-2", "complex-3", "complex-5"],
)
def test_nsym_action_matches_the_closed_form_oracle(profile, p):
    # every word whose letters sum to at most 7, under the operations of
    # index 1 to 4
    algebra = FreeAlgebra(profile, GF(p))
    words = [
        word
        for d in range(7 * profile.variable_degree + 1)
        for word in algebra.words_of_degree(d)
    ]
    nonzero = 0
    for k in range(1, 5):
        op = MilnorOp(p, "Sq" if p == 2 else "P", k)
        for word in words:
            expected = free_action(word, k, p, profile.kind)
            assert dict(nsym_action(op, algebra.monomial(word)).terms()) == expected, (word, k)
            nonzero += bool(expected)
    assert nonzero > 20


def test_certificates_and_nsym_action_build_no_action_table(monkeypatch):
    # the induced action reads the index-shift rule directly: a
    # GeneratorActionTable is built only by a caller of cartan_extend
    import ncfgl.steenrod

    built = []

    class Counted(GeneratorActionTable):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[1:3])
            super().__init__(*args)

    monkeypatch.setattr(ncfgl.steenrod, "GeneratorActionTable", Counted)
    bp_obstruction_certificate(3)
    hf2_obstruction_certificate()
    nsym_action(MilnorOp(3, "P", 2), FreeAlgebra(COMPLEX, GF(3)).monomial((2, 1, 3)))
    assert built == []


@pytest.mark.parametrize(
    "profile, p",
    [(REAL, 2), (COMPLEX, 2), (COMPLEX, 3), (COMPLEX, 5)],
    ids=["real-2", "complex-2", "complex-3", "complex-5"],
)
def test_nsym_action_agrees_with_cartan_extend_over_the_index_shift_table(profile, p):
    # a hand-written table of the index-shift images, generator i under
    # index k to C(i - s + 1, s / (p - 1)) Z_{i-s} with s the degree of the
    # operation over the variable degree, extended by cartan_extend
    algebra = FreeAlgebra(profile, GF(p))
    vardeg = profile.variable_degree
    kind = "Sq" if p == 2 else "P"
    step = MilnorOp(p, kind, 1).degree
    entries = {}
    for k in range(1, 5):
        for i in range(1, 9):
            s, rest = divmod(k * step, vardeg)
            coeff = 0 if rest or s > i else comb(i - s + 1, s // (p - 1))
            entries[(k, i)] = algebra.monomial((i - s,) if s < i else (), coeff)
    rng = random.Random(p)
    elements = [
        random_homogeneous(algebra, rng.randrange(1, 9 * vardeg), rng, 4) for _ in range(12)
    ] + [algebra.monomial((i, j)) for i in (1, 4, 8) for j in (2, 5)]
    table = GeneratorActionTable(algebra, kind, p, entries)
    nonzero = 0
    for k in range(5):
        op = MilnorOp(p, kind, k)
        for element in elements:
            image = nsym_action(op, element)
            assert image == cartan_extend(table, element, op), (k, element)
            nonzero += k > 0 and not image.is_zero()
    assert nonzero > 5


def test_degree_vanishing_on_words():
    algebra = FreeAlgebra(COMPLEX, GF(3))
    rng = random.Random(23)
    op = MilnorOp(3, "P", 3)
    for _ in range(20):
        words = algebra.words_of_degree(rng.choice((2, 4)))
        element = algebra.monomial(words[rng.randrange(len(words))])
        assert nsym_action(op, element).is_zero()


# -- Lucas ------------------------------------------------------------------------------------------


def test_lucas_small_values():
    assert lucas_binomial(4, 2, 3) == 0
    assert lucas_binomial(5, 2, 5) == 0
    assert lucas_binomial(7, 3, 2) == 1


def test_lucas_against_bignum():
    assert run_lucas_check() == []


def test_lucas_rejects_negative():
    with pytest.raises(ParameterError):
        lucas_binomial(-1, 0, 3)


# -- obstruction certificates -----------------------------------------------------------------------


def test_bp_certificate_p3():
    cert = bp_obstruction_certificate(3)
    assert cert.verdict == "INFEASIBLE"
    assert cert.infeasible
    assert cert.solutions == []
    algebra = FreeAlgebra(COMPLEX, GF(3))
    expected = {
        str(-algebra.gen(2) + (algebra.gen(1) ** 2).scale(lam)) for lam in range(3)
    }
    assert set(cert.candidates) == expected
    # one stage-one system plus one per candidate, over the 128-dim component
    assert cert.systems[0] == {"degree": 4, "dimension": 2, "rank": 1}
    assert len(cert.systems) == 4
    for system in cert.systems[1:]:
        assert system["degree"] == 16
        assert system["dimension"] == 128


def test_bp_certificate_parameter_validation():
    for bad in (2, 4, 7, 9):
        with pytest.raises(ParameterError):
            bp_obstruction_certificate(bad)


def test_bp_certificate_refuses_p5_before_any_work(monkeypatch):
    import ncfgl.steenrod

    def no_algebra(*args, **kwargs):
        raise AssertionError("a refused certificate must not build its algebra")

    monkeypatch.setattr(ncfgl.steenrod, "FreeAlgebra", no_algebra)
    with pytest.raises(ParameterError, match="2\\^23 words"):
        bp_obstruction_certificate(5)


def test_hf2_certificate():
    cert = hf2_obstruction_certificate()
    assert cert.verdict == "INFEASIBLE"
    assert cert.solutions == []
    assert cert.candidates == ["z1"]
    assert cert.centralizers == {"z1": ["z1*z1*z1"]}
    data = cert.to_data()
    assert data["verdict"] == "INFEASIBLE"
    assert data["systems"][1]["dimension"] == 4


def test_two_stage_reports_a_feasible_system():
    # Sq^1 w = 1 forces w = z1; then v = z1^3 commutes with z1 and
    # Sq^2(z1^3) = 3 z1 = z1, so the one-block system has a solution
    algebra = FreeAlgebra(REAL, GF(2))
    candidates, fields = _two_stage(
        MilnorOp(2, "Sq", 1), algebra.one(), 3, [(MilnorOp(2, "Sq", 2), lambda w: w)]
    )
    certificate = ObstructionCertificate(*fields, {})
    assert candidates == [algebra.gen(1)]
    assert not certificate.infeasible
    assert certificate.to_data() == {
        "prime": 2,
        "candidates": ["z1"],
        "systems": [
            {"degree": 1, "dimension": 1, "rank": 1},
            {"degree": 3, "dimension": 4, "rank": 4},
        ],
        "solutions": [{"candidate": "z1", "particular": "z1*z1*z1", "kernel": []}],
        "verdict": "FEASIBLE",
        "centralizers": {},
    }
    assert str(certificate) == "\n".join([
        "obstruction certificate at p = 2: FEASIBLE",
        "  candidate: z1",
        "  system in degree 1: 1 unknowns, rank 1",
        "  system in degree 3: 4 unknowns, rank 4",
        "  solution: {'candidate': 'z1', 'particular': 'z1*z1*z1', 'kernel': []}",
    ])


def test_lucas_refuses_a_composite_modulus():
    with pytest.raises(ParameterError):
        lucas_binomial(5, 2, 4)


# -- Frobenius ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_is_the_p_power_map(p):
    rng = random.Random(p)
    algebra = dual_steenrod(p)
    for _ in range(10):
        element = algebra.zero()
        for _ in range(rng.randint(1, 4)):
            mono = {rng.randint(1, 3): rng.randint(1, 3) for _ in range(rng.randint(1, 2))}
            element = element + algebra.element({tuple(mono.items()): rng.randint(1, p - 1)})
        for q in (1, p, p * p):
            assert frobenius(element, q) == element ** q
    tensor = coproduct(algebra.gen(1) + algebra.gen(2))  # on both tensor factors
    for q in (1, p):
        assert frobenius(tensor, q) == tensor ** q


def test_frobenius_refuses_other_exponents_and_rings():
    xi = dual_steenrod(3).gen(1)
    for q in (0, 2, 6, -3):
        with pytest.raises(ParameterError):
            frobenius(xi, q)
    rational = CommAlgebra.with_degrees("b", (2, 4), QQ)
    with pytest.raises(ParameterError):
        frobenius(rational.gen(1), 1)
    with pytest.raises(UnsupportedInputError):  # words do not commute
        frobenius(FreeAlgebra(COMPLEX, GF(3)).gen(1), 3)


# sha256 over n = 0 .. top of json.dumps(to_data()) + str of chi(xi_n): the
# values the repeated-squaring route gave, at every n it finished in seconds.
@pytest.mark.parametrize(
    "p, top, digest",
    [
        (2, 12, "9d4fe5a40e84e470dda43af76fc10760a56bbd5b9df4914f3cd69497ad83f959"),
        (3, 7, "71dafcaf21419a5bcdfaea1960c8d7d07409716e7e110fc7a6f2f7f057d8ae50"),
        (5, 6, "eeaa80e1b5e60c80c99225cef9c2dd4aea0e1ae4dff9a1efe3376a2a327904c2"),
    ],
)
def test_conjugate_generator_digests(p, top, digest):
    h = hashlib.sha256()
    for n in range(top + 1):
        zeta = conjugate_generator(p, n)
        h.update((json.dumps(zeta.to_data()) + str(zeta)).encode())
    assert h.hexdigest() == digest


# sha256 of json.dumps(to_data(), indent=2) + str of each certificate, as the
# two hand-written certificate procedures gave them before they were merged
@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: bp_obstruction_certificate(3),
         "5a3aa6b4cb36a602cc73d353718fe105156c5e498d9f38142cacb40ad8a48b97"),
        (hf2_obstruction_certificate,
         "025b3d70dd34b42efbd74d866202d4584c3d39aadcce373fc69a45f002c0a686"),
    ],
)
def test_certificate_digests(build, digest):
    certificate = build()
    data = json.dumps(certificate.to_data(), indent=2) + str(certificate)
    assert hashlib.sha256(data.encode()).hexdigest() == digest


# One row per refusal of the Steenrod layer: (call, error type, message fragment).
_REFUSALS = [
    (lambda: MilnorOp(3, "Q", 1), ParameterError, "unknown operation kind 'Q'"),
    (lambda: dual_steenrod(4), ParameterError, "4 is not prime"),
    (lambda: bp_homology(6), ParameterError, "6 is not prime"),
    (lambda: milnor_pair(MilnorOp(3, "P", 1), bp_homology(3).gen(1)), UnsupportedInputError,
     "pairing is defined on dual Steenrod elements"),
    (lambda: coproduct(bp_homology(3).gen(1)), UnsupportedInputError,
     "coproduct is defined on dual Steenrod elements"),
    (lambda: antipode(bp_homology(3).gen(1)), UnsupportedInputError,
     "antipode is defined on dual Steenrod elements"),
    (lambda: bp_coaction(dual_steenrod(3).gen(1)), UnsupportedInputError,
     "this coaction acts on t-polynomials"),
    (lambda: right_action(bp_homology(2).gen(1), MilnorOp(2, "Sq", 1)), UnsupportedInputError,
     "the displayed coaction is the odd-prime form"),
    (lambda: right_action(CommAlgebra.with_degrees("u", (4,), GF(3)).gen(1), MilnorOp(3, "P", 1)),
     UnsupportedInputError, "no registered coaction for the 'u' family"),
    (lambda: right_action(3, MilnorOp(3, "P", 1)), UnsupportedInputError,
     "no registered coaction for int"),
    (lambda: right_action(bp_homology(3).gen(2), MilnorOp(2, "Sq", 1)), ModeMismatchError,
     "element must live over F_p for the acting prime"),
    (lambda: right_action(dual_steenrod(3).gen(2), MilnorOp(5, "P", 1)), ModeMismatchError,
     "element must live over F_p for the acting prime"),
    (lambda: right_action(dual_steenrod(3).zero(), MilnorOp(5, "P", 1)), ModeMismatchError,
     "element must live over F_p for the acting prime"),
    (lambda: cartan_extend(
        GeneratorActionTable(bp_homology(3), "P", 3, {}), dual_steenrod(3).gen(1), MilnorOp(3, "P", 1)
    ), ModeMismatchError, "element does not live over the table's algebra"),
]


@pytest.mark.parametrize("call, error, fragment", _REFUSALS, ids=[r[2] for r in _REFUSALS])
def test_steenrod_refusals(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_action_table_entries_are_read_only():
    import pickle

    A = FreeAlgebra(COMPLEX, GF(3))
    B = FreeAlgebra(COMPLEX, GF(5))
    table = GeneratorActionTable(A, "P", 3, {(1, 2): A.gen(1)})
    with pytest.raises(TypeError):
        table.entries[(1, 2)] = B.gen(1).scale(4)
    with pytest.raises(TypeError):
        del table.entries[(1, 2)]
    op = MilnorOp(3, "P", 1)
    assert cartan_extend(table, A.gen(2), op) == A.gen(1)
    copy = pickle.loads(pickle.dumps(table))
    assert copy == table == GeneratorActionTable(A, "P", 3, {(1, 2): A.gen(1)})
    square = A.gen(2) * A.gen(2)
    assert cartan_extend(copy, square, op) == cartan_extend(table, square, op)
    assert table != GeneratorActionTable(A, "P", 3, {(1, 2): A.gen(1).scale(2)})
