import pytest

from ncfgl import GF, CommAlgebra, ModeMismatchError, ParameterError


@pytest.fixture
def P():
    return CommAlgebra.with_degrees("t", (2, 6, 14), GF(3))


def test_multiplication_is_commutative(P):
    a = P.gen(1) + P.gen(2)
    b = P.gen(1) * P.gen(3) + P.one().scale(2)
    assert a * b == b * a


def test_degrees_additive(P):
    m = P.gen(1) ** 2 * P.gen(2)
    assert m.degree() == 10


def test_powers(P):
    t1 = P.gen(1)
    assert t1 ** 3 == t1 * t1 * t1
    assert (t1 ** 0) == P.one()


def test_no_zero_terms_stored(P):
    a = P.gen(1).scale(2) + P.gen(1)
    assert a.is_zero()


def test_rendering(P):
    e = P.gen(1) ** 2 * P.gen(2) + P.one().scale(2)
    assert str(e) == "2 + t1^2*t2"


def test_algebra_identity_guard(P):
    other = CommAlgebra.with_degrees("t", (2, 6, 14), GF(5))
    with pytest.raises(ModeMismatchError):
        P.gen(1) * other.gen(1)


def test_bad_generator_index(P):
    with pytest.raises(ParameterError):
        P.gen(4)
    with pytest.raises(ParameterError):
        P.gen(0)


def test_serialization_round_trip(P):
    e = P.gen(2) ** 2 + P.gen(1).scale(2)
    data = e.to_data()
    rebuilt = P.element(
        {tuple(tuple(p) for p in rec["monomial"]): P.ring.parse(rec["coeff"]) for rec in data}
    )
    assert rebuilt == e


# -- the degree rule is data --------------------------------------------------------


def test_milnor_degrees_follow_the_closed_forms():
    from ncfgl import bp_homology, dual_steenrod

    for p in (2, 3, 5, 7):
        for r in range(1, 7):
            assert dual_steenrod(p).degree_of(r) == (2 ** r - 1 if p == 2 else 2 * (p ** r - 1))
            assert bp_homology(p).degree_of(r) == 2 * p ** r - 2


def test_algebras_of_different_kinds_differ_where_their_degrees_agree():
    from ncfgl import bp_homology, dual_steenrod

    for p in (3, 5, 7):
        xi, t = dual_steenrod(p), bp_homology(p)
        assert [xi.degree_of(r) for r in range(1, 5)] == [t.degree_of(r) for r in range(1, 5)]
        assert xi != t and dual_steenrod(p) == xi and hash(dual_steenrod(p)) == hash(xi)
        with pytest.raises(ModeMismatchError):
            xi.gen(1) * t.gen(1)
    explicit = CommAlgebra.with_degrees("t", (4, 16), GF(3))
    assert [explicit.degree_of(r) for r in (1, 2)] == [bp_homology(3).degree_of(r) for r in (1, 2)]
    assert explicit != bp_homology(3)
    assert CommAlgebra("explicit", "t", GF(3), [4, 16]) == explicit


def test_the_constructor_refuses_what_no_kind_describes():
    from ncfgl import QQ, ZZ

    refused = [
        (("milnor", "xi", GF(3)), "unknown algebra kind 'milnor'"),
        (("dual-steenrod", "xi", ZZ), "lives over F_p"),
        (("bp-homology", "t", QQ), "lives over F_p"),
        (("bp-homology", "t", GF(3), (4, 16)), "takes no degree sequence"),
        (("dual-steenrod", "xi", GF(2), ()), "takes no degree sequence"),
        (("explicit", "t", GF(3)), "generator degrees must be positive"),
        (("explicit", "t", GF(3), (2, 0)), "generator degrees must be positive"),
    ]
    for args, message in refused:
        with pytest.raises(ParameterError, match=message):
            CommAlgebra(*args)
