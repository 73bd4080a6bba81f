import hashlib
import json
import random
import re
from fractions import Fraction

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

from ncfgl.freealg import _bracket_terms
from ncfgl.linalg import _echelon, matrix_of, nullspace

from oracles import plain_add, plain_bracket, plain_matrix, plain_product
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


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=repr)
def test_commutator_and_commutator_map_match_the_two_products(ring):
    algebra = FreeAlgebra(COMPLEX, ring)
    rng = random.Random(17)
    # Z1 and Z1Z1, Z1Z2 and Z1Z2Z1Z2 are powers of one word, so u+v == v+u
    # for their pairs and those terms cancel inside the loop; the words of
    # the two sides also overlap
    repeated = algebra.element({(1,): 2, (1, 1): 1, (1, 2): 1, (1, 2, 1, 2): -1})
    overlapping = algebra.element({(1, 1, 1): 1, (1, 2): 3, (2, 1): 1})
    pairs = [(repeated, overlapping), (overlapping, repeated), (repeated, repeated)]
    pairs += [(random_element(algebra, rng), random_element(algebra, rng)) for _ in range(30)]
    for a, b in pairs:
        assert commutator(a, b) == a * b - b * a
    # the commutator map word -> [word, w] gives unreduced pairs, which
    # sum, once reduced in the ring, to the terms of word*w - w*word
    for w in (repeated, overlapping, random_element(algebra, rng)):
        bracket = _bracket_terms(w)
        for word in ((1,), (1, 2), (1, 2, 1, 2), (3, 1)) + algebra.words_of_degree(6)[:8]:
            expected = algebra.monomial(word) * w - w * algebra.monomial(word)
            acc = {}
            for target, coeff in bracket(bytes(word)):
                acc[target] = acc.get(target, 0) + coeff
            assert ring.reduced(acc) == expected.mutable_terms()


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ], ids=repr)
def test_commutator_rows_match_plain_dict_brackets(ring):
    # matrix_of sums the unreduced pairs of [word, w] into its rows; reduced
    # in the ring, every column must be the plain-dict bracket, and the
    # elimination must read the raw rows as it reads the reduced ones.
    # [Z1, Z1], [Z1*Z1, Z1] and [1, w] cancel, so once reduced their columns
    # hold no entry at all; the source words repeat letters and include the
    # empty word
    algebra = FreeAlgebra(COMPLEX, ring)
    p = ring.prime
    scalar = ring.coerce(Fraction(1, 2)) if ring is QQ else ring.of_int(2)  # 1/2 or 2
    sources = [(), (1,), (1, 1), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1), (3, 3)]
    targets = [word for d in range(19) for word in algebra._keys_of_degree(d)]
    rng = random.Random(41)
    ws = [
        algebra.gen(1),
        algebra.element({(1, 1): 1, (2,): scalar}),
        algebra.element({(1, 2): 1, (2, 1): -1, (1, 1, 1): scalar}),
        random_homogeneous(algebra, 4, rng, max_terms=4),
    ]
    for w in ws:
        rows = matrix_of(_bracket_terms(w), [bytes(v) for v in sources], targets)
        reduced = [ring.reduced(dict(row)) for row in rows]
        plain_w = dict(w.terms())
        images = [plain_bracket(v, plain_w, p) for v in sources]
        got = {(i, j): c for i, row in enumerate(reduced) for j, c in row.items()}
        assert got == plain_matrix(images, [tuple(t) for t in targets]), w
        assert not any(0 in row for row in reduced)  # [1, w] = 0
        assert nullspace(rows, len(sources), ring) == nullspace(reduced, len(sources), ring)
        # the echelon rows hold no zero, and every entry in stored form
        echelon = list(_echelon(rows, range(len(sources)), ring).items())
        entries = [x for _, tail in echelon for x in tail.values()]
        assert echelon and 0 not in [c for c, _ in echelon]
        assert all(entries)
        if p:
            assert all(0 < x < p for x in entries)
        else:
            assert all(c.__class__ is int or c.denominator > 1 for c in entries)
    z1_rows = matrix_of(_bracket_terms(algebra.gen(1)), [b"\x01", b"\x01\x01", b"\x02"], targets)
    # only [Z2, Z1] is nonzero
    assert {j for row in z1_rows for j in ring.reduced(dict(row))} == {2}


@pytest.mark.parametrize("ring", [ZZ, GF(3), QQ], ids=repr)
def test_add_product_matches_plain_dict_products(ring):
    # add_product runs the operand with more terms innermost, so the shapes
    # cover a shorter, a longer and an equally long left side, a one-term
    # side and a zero side; (Z1 + Z1*Z1)(Z2 + Z1*Z2) forms Z1*Z1*Z2 from two
    # pairs of terms, and with -Z1*Z1 the two cancel
    algebra = FreeAlgebra(COMPLEX, ring)
    p = ring.prime
    rng = random.Random(29)
    words = [w for d in range(7) for w in algebra.words_of_degree(d)]

    def drawn(count):
        return algebra.element(
            {w: ring.random_value(rng, nonzero=True) for w in rng.sample(words, count)}
        )

    twice = algebra.element({(1,): 1, (1, 1): 1})
    cancelled = algebra.element({(1,): 1, (1, 1): -1})
    tail = algebra.element({(2,): 1, (1, 2): 1})
    longer = twice + algebra.gen(3)
    pairs = [(twice, tail), (cancelled, tail), (longer, tail), (tail, longer)]
    pairs += [(drawn(m), drawn(n)) for m, n in ((1, 5), (5, 1), (2, 6), (6, 2), (4, 4), (1, 1))]
    pairs += [(algebra.zero(), drawn(3)), (drawn(3), algebra.zero())]
    for a, b in pairs:
        start = drawn(rng.randint(0, 3))
        acc = start.mutable_terms()
        algebra.add_product(acc, a, b)
        pa, pb = dict(a.terms()), dict(b.terms())
        expected = plain_add({0: dict(start.terms())}, {0: plain_product(pa, pb, p)}, p)
        assert dict(algebra.from_accumulator(acc).terms()) == expected.get(0, {})
        assert dict((a * b).terms()) == plain_product(pa, pb, p)
    assert (twice * tail).coefficient((1, 1, 2)) == ring.of_int(2)
    assert (cancelled * tail).coefficient((1, 1, 2)) == 0


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
    assert A.zero().degree() is None


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


def test_a_degree_without_words_gives_empty_answers():
    # every letter of the complex profile has even degree, so odd degrees hold no words
    for ring in (ZZ, QQ, GF(3)):
        algebra = FreeAlgebra(COMPLEX, ring)
        for d in (1, 3, 7, -2):
            assert algebra.dim(d) == 0
            assert centralizer_basis(algebra.gen(1), d) == []
            assert centralizer_basis(algebra.gen(2) - algebra.gen(1) ** 2, d) == []
            rng = random.Random(d)
            state = rng.getstate()
            assert random_homogeneous(algebra, d, rng) == algebra.zero()
            assert rng.getstate() == state  # no draw is spent on an empty degree


def test_canonical_term_order_and_serialization(A):
    element = A.monomial((1, 1, 1)) + A.gen(3).scale(2) + A.monomial((1, 2)).scale(-1)
    data = element.to_data()
    # degree ties broken by length, then lexicographically
    assert [rec["word"] for rec in data] == [[3], [1, 2], [1, 1, 1]]
    assert A.from_data(data) == element
    assert str(element) == "2*Z3 - Z1*Z2 + Z1*Z1*Z1"


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


_CUSTOM = GradingProfile.custom((2, 4))
_Z = FreeAlgebra()
_Q = FreeAlgebra(COMPLEX, QQ)


def _custom(n: int) -> FreeAlgebra:
    """The free algebra over a custom profile of n generators in degree 1."""
    return FreeAlgebra(GradingProfile.custom([1] * n))

# One row per refusal of the free-algebra layer: (callable, args, error type, message fragment).
_REFUSALS = [
    (GradingProfile, ("weird", "g"), ParameterError, "unknown profile kind 'weird'"),
    (GradingProfile.custom, ((2, 0),), ParameterError, "custom profile needs positive degrees"),
    (GradingProfile.custom, ((),), ParameterError, "custom profile needs positive degrees"),
    (GradingProfile, ("complex", "Z", (2,)), ParameterError,
     "complex profile takes no degree sequence"),
    (_CUSTOM.degree_of, (3,), ParameterError, "custom profile has 2 generators"),
    (getattr, (_CUSTOM, "variable_degree"), ParameterError,
     "custom profiles must choose a variable degree explicitly"),
    # a letter that a custom profile lacks is refused where its word enters
    # the algebra; the profiles differ in size only so that the ids differ
    (_custom(3).monomial, ((4,),), ParameterError, "custom profile has 3 generators"),
    (_custom(4).element, ({(1, 5): 1},), ParameterError, "custom profile has 4 generators"),
    (_custom(5).from_data, ([{"word": [7], "coeff": "1"}],), ParameterError,
     "custom profile has 5 generators"),
    (FreeAlgebra(GradingProfile.custom((1, 3))).from_data, ([{"word": [7], "coeff": "1"}],),
     ParameterError, "cannot read the term record {'word': [7], 'coeff': '1'}: "
     "custom profile has 2 generators"),
    (_Z.from_data, ([{"word": [256], "coeff": "1"}],), ParameterError,
     "cannot read the term record {'word': [256], 'coeff': '1'}: "
     "generator index must be <= 255, got 256"),
    (_Z.from_data, ([{"word": [1], "coeff": "x"}],), ParameterError,
     "cannot read the term record {'word': [1], 'coeff': 'x'}: cannot parse 'x'"),
    (_Z.from_data, ([{"word": [1], "coeff": "1/2"}],), ParameterError,
     "cannot read the term record {'word': [1], 'coeff': '1/2'}: cannot parse '1/2'"),
    (_Q.from_data, ([{"word": [1], "coeff": "1/0"}],), ParameterError,
     "cannot read the term record {'word': [1], 'coeff': '1/0'}: cannot parse '1/0'"),
    (_Z.from_data, ([{"coeff": "1"}],), ParameterError,
     "the term record {'coeff': '1'} has no 'word'"),
    (_Z.from_data, ([{"word": [1]}],), ParameterError,
     "the term record {'word': [1]} has no 'coeff'"),
    (_Z.from_data, ([{"word": 1, "coeff": "1"}],), ParameterError,
     "cannot read the term record {'word': 1, 'coeff': '1'}"),
    (_Z.from_data, ([{"word": [1], "coeff": "1"}, {"word": [1], "coeff": "2"}],), ParameterError,
     "the term record {'word': [1], 'coeff': '2'} repeats its word"),
]


@pytest.mark.parametrize("call, args, error, fragment", _REFUSALS, ids=[r[3] for r in _REFUSALS])
def test_free_algebra_refusals(call, args, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(*args)


def test_a_letter_a_custom_profile_lacks_has_coefficient_zero_and_no_generator():
    algebra = FreeAlgebra(GradingProfile.custom((1, 3)))
    element = algebra.gen(1) + algebra.gen(2)
    assert element.coefficient((5,)) == element.coefficient((256,)) == 0
    assert element.coefficient((2,)) == 1
    with pytest.raises(ParameterError, match="custom profile has 2 generators"):
        algebra.gen(3)


def test_algebras_over_different_custom_profiles_name_their_degrees():
    left = FreeAlgebra(GradingProfile.custom((1, 3))).gen(1)
    right = FreeAlgebra(GradingProfile.custom((2, 3))).gen(1)
    with pytest.raises(ModeMismatchError) as caught:
        left + right
    assert str(caught.value) == (
        "operands live in different algebras "
        "(FreeAlgebra(GradingProfile(kind='custom', letter='g', degrees=(1, 3)), ZZ) vs "
        "FreeAlgebra(GradingProfile(kind='custom', letter='g', degrees=(2, 3)), ZZ))"
    )


def test_from_data_keeps_a_word_given_once_and_drops_zeros(A):
    data = [{"word": [1], "coeff": "0"}, {"word": [1, 1], "coeff": "-3"}]
    assert A.from_data(data) == A.monomial((1, 1)).scale(-3)
    assert A.from_data([]) == A.zero()
