import hashlib
import json
import random

import pytest

from ncfgl import (
    COMPLEX,
    GF,
    QQ,
    REAL,
    ZZ,
    DegenerateInputError,
    FreeAlgebra,
    GradingProfile,
    ModeMismatchError,
    ParameterError,
    UnsupportedInputError,
    centralizer_basis,
    commutator,
    random_homogeneous,
)

from props import random_element


@pytest.fixture
def A():
    return FreeAlgebra(COMPLEX, ZZ)


def test_multiply_concatenates_words(A):
    assert A.gen(1) * A.gen(2) == A.monomial((1, 2))


def test_unit_word_is_identity(A):
    rng = random.Random(5)
    for _ in range(10):
        a = random_element(A, rng)
        assert A.one() * a == a
        assert a * A.one() == a


def test_multiply_is_bilinear(A):
    lhs = (A.gen(1) + A.gen(2)) * A.gen(1)
    assert lhs == A.monomial((1, 1)) + A.monomial((2, 1))


def test_commutator_vanishes_on_self(A):
    assert commutator(A.gen(1), A.gen(1)).is_zero()


def test_commutator_definition(A):
    c = commutator(A.gen(1), A.gen(2))
    assert c == A.monomial((1, 2)) - A.monomial((2, 1))


def test_commutator_with_sum_cancels_middle_words(A):
    b = A.monomial((1, 2)) + A.monomial((2, 1))
    c = commutator(A.gen(1), b)
    assert c == A.monomial((1, 1, 2)) - A.monomial((2, 1, 1))


def test_commutator_antisymmetry(A):
    rng = random.Random(11)
    for _ in range(30):
        a = random_element(A, rng)
        b = random_element(A, rng)
        assert commutator(a, b) == -commutator(b, a)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(3)])
@pytest.mark.parametrize("profile", [COMPLEX, REAL])
def test_associativity_on_random_triples(profile, ring):
    algebra = FreeAlgebra(profile, ring)
    rng = random.Random(hash((profile.kind, ring.mode, ring.prime)) & 0xFFFF)
    for _ in range(15):
        a = random_element(algebra, rng, max_degree=4)
        b = random_element(algebra, rng, max_degree=4)
        c = random_element(algebra, rng, max_degree=4)
        assert (a * b) * c == a * (b * c)


def test_grading_of_products(A):
    rng = random.Random(3)
    for _ in range(20):
        da = rng.choice((2, 4, 6))
        db = rng.choice((2, 4, 6))
        a = random_homogeneous(A, da, rng)
        b = random_homogeneous(A, db, rng)
        prod = a * b
        if not prod.is_zero():
            assert prod.degree() == da + db


def test_dimension_law_complex(A):
    # degree-2n component counts the compositions of n
    for n in range(1, 11):
        assert A.dim(2 * n) == 2 ** (n - 1)
        assert A.dim(2 * n - 1) == 0


def test_dimension_real():
    algebra = FreeAlgebra(REAL, GF(2))
    for n in range(1, 9):
        assert algebra.dim(n) == 2 ** (n - 1)


def test_custom_profile_enumeration():
    profile = GradingProfile.custom((1, 3))
    algebra = FreeAlgebra(profile, ZZ)
    assert algebra.words_of_degree(3) == ((2,), (1, 1, 1))


def test_mode_mismatch_raises(A):
    other = FreeAlgebra(COMPLEX, GF(3))
    with pytest.raises(ModeMismatchError):
        A.gen(1) * other.gen(1)
    real = FreeAlgebra(REAL, ZZ)
    with pytest.raises(ModeMismatchError):
        A.gen(1) + real.gen(1)


def test_centralizer_of_z1_low_degrees():
    algebra = FreeAlgebra(REAL, GF(2))
    z1 = algebra.gen(1)
    for d in range(1, 7):
        basis = centralizer_basis(z1, d)
        assert basis == [z1 ** d]


def test_centralizer_exhaustive_oracle_f2():
    # enumerate every element of the degree-d component over F_2 and compare
    algebra = FreeAlgebra(REAL, GF(2))
    z1 = algebra.gen(1)
    for d in (2, 3, 4):
        words = algebra.words_of_degree(d)
        commuting = set()
        for mask in range(1, 2 ** len(words)):
            element = algebra.element(
                {w: (mask >> i) & 1 for i, w in enumerate(words)}
            )
            if commutator(element, z1).is_zero():
                commuting.add(element)
        basis = centralizer_basis(z1, d)
        spanned = set()
        for mask in range(1, 2 ** len(basis)):
            total = algebra.zero()
            for i, b in enumerate(basis):
                if (mask >> i) & 1:
                    total = total + b
            spanned.add(total)
        assert commuting == spanned


def test_centralizer_degree16_over_f3():
    algebra = FreeAlgebra(COMPLEX, GF(3))
    w = -algebra.gen(2) + algebra.gen(1) ** 2
    assert algebra.dim(16) == 128
    basis = centralizer_basis(w, 16)
    assert basis == [w ** 4]


# The centralizers of the certificate benchmark workload, as (w, degrees),
# with the sha256 over each degree of json.dumps([b.to_data() for b in basis])
# plus a newline, as the dense elimination gave them before rows were sparse.
_ZZ_CENTRALIZERS = (
    ({(1,): 1}, (2, 4, 6, 8, 10, 12, 14, 16)),
    ({(2,): 1}, (8, 12, 16)),
    ({(2,): 1, (1, 1): -1}, (8, 12, 14)),
)
_GF3_CENTRALIZERS = (
    ({(2,): -1, (1, 1): 1}, (8, 12, 16, 18)),
    ({(1,): 1}, (14, 16, 18)),
    ({(3,): 1, (1, 2): 1}, (12, 18)),
)


@pytest.mark.parametrize(
    "ring, specs, digest",
    [
        (ZZ, _ZZ_CENTRALIZERS, "5ddf38319f029abe9d8fea523a13ce4d44ee6e44a225cafcc89b7fb6c36a949e"),
        (GF(3), _GF3_CENTRALIZERS,
         "856cfa8375fc6e99455ba563453e6d29db949057aa6abf281a0000ff8c818bfd"),
    ],
)
def test_centralizer_digests(ring, specs, digest):
    algebra = FreeAlgebra(COMPLEX, ring)
    h = hashlib.sha256()
    for terms, degrees in specs:
        w = algebra.element(terms)
        for d in degrees:
            basis = centralizer_basis(w, d)
            h.update((json.dumps([b.to_data() for b in basis]) + "\n").encode())
    assert h.hexdigest() == digest


def test_centralizer_rejects_bad_inputs(A):
    with pytest.raises(DegenerateInputError):
        centralizer_basis(A.zero(), 4)
    with pytest.raises(UnsupportedInputError):
        centralizer_basis(A.gen(1) + A.one(), 4)


def test_canonical_term_order_and_serialization(A):
    element = A.monomial((1, 1, 1)) + A.gen(3).scale(2) + A.monomial((1, 2)).scale(-1)
    data = element.to_data()
    # degree ties broken by length, then lexicographically
    assert [rec["word"] for rec in data] == [[3], [1, 2], [1, 1, 1]]
    assert A.from_data(data) == element
    assert str(element) == "2*Z3 - Z1*Z2 + Z1*Z1*Z1"


def test_homogeneous_components(A):
    element = A.gen(1) + A.monomial((1, 1)).scale(3)
    parts = element.homogeneous_components()
    assert set(parts) == {2, 4}
    assert parts[2] == A.gen(1)
    total = A.zero()
    for part in parts.values():
        total = total + part
    assert total == element


@pytest.mark.parametrize(
    "build",
    [lambda A: A.monomial((0,)), lambda A: A.element({(1, -2): 1})],
    ids=["monomial (0,)", "element (1, -2)"],
)
def test_a_word_with_a_letter_below_one_is_refused_at_construction(build):
    with pytest.raises(ParameterError, match="generator index must be >= 1"):
        build(FreeAlgebra())


def test_a_custom_profile_holds_at_most_255_degrees():
    assert GradingProfile.custom([1] * 255).degree_of(255) == 1
    with pytest.raises(ParameterError, match="256 degrees"):
        GradingProfile.custom([1] * 256)
