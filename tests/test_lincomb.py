"""The shared linear-combination core, through its three element types."""

import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from ncfgl import (
    COMPLEX,
    GF,
    QQ,
    ZZ,
    CommAlgebra,
    FreeAlgebra,
    FreeElement,
    ModeMismatchError,
    ParameterError,
    UnsupportedInputError,
)
from ncfgl.steenrod import TensorAlgebra


def random_word(rng):
    return tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))


def random_mono(rng):
    return tuple((i, e) for i in (1, 2) if (e := rng.randint(0, 2)))


def random_element(algebra, rng, random_key):
    value = algebra.ring.random_value
    return algebra.element(
        {random_key(rng): value(rng, nonzero=True) for _ in range(rng.randint(1, 4))}
    )


def free_factory(ring):
    algebra = FreeAlgebra(COMPLEX, ring)
    return lambda rng: random_element(algebra, rng, random_word)


def poly_factory(ring):
    algebra = CommAlgebra.with_degrees("t", (2, 6), ring)
    return lambda rng: random_element(algebra, rng, random_mono)


def tensor_factory(ring):
    # a commutative left factor and a noncommutative right one
    left = CommAlgebra.with_degrees("t", (2, 6), ring)
    right = FreeAlgebra(COMPLEX, ring)
    algebra = TensorAlgebra(left, right)
    return lambda rng: random_element(algebra, rng, lambda r: (random_mono(r), random_word(r)))


FACTORIES = {"free": free_factory, "poly": poly_factory, "tensor": tensor_factory}


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=repr)
@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_core_laws_on_random_elements(kind, ring):
    draw = FACTORIES[kind](ring)
    rng = random.Random(f"{kind}-{ring!r}")
    for _ in range(20):
        a, b, c = draw(rng), draw(rng), draw(rng)
        zero = a.algebra.zero()
        assert a - a == zero and (a - a).is_zero()
        assert (a + b) * c == a * c + b * c
        assert a - b == a + (-b)
        power = a.algebra.one()
        for n in range(5):
            assert a ** n == power
            power = power * a
        total = zero
        for n in range(5):
            assert a.scale(n) == total == n * a == a * n
            assert a.scale(-n) == -total
            total = total + a
    with pytest.raises(TypeError):
        0.5 * a  # a scalar factor is an int or goes through scale


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_mixing_algebras_is_refused(kind):
    rng = random.Random(kind)
    a = FACTORIES[kind](GF(3))(rng)
    for other in (FACTORIES[kind](GF(5))(rng), free_factory(GF(3))(rng), poly_factory(GF(3))(rng)):
        if other.algebra == a.algebra:
            continue
        with pytest.raises(ModeMismatchError):
            a + other
        with pytest.raises(ModeMismatchError):
            a * other


def test_fraction_coefficient_is_refused_over_the_integers():
    with pytest.raises(ModeMismatchError):
        FreeAlgebra(COMPLEX, ZZ).element({(1,): Fraction(1, 2)})
    P = CommAlgebra.with_degrees("t", (2, 6), ZZ)
    with pytest.raises(ModeMismatchError):
        P.element({((1, 1),): Fraction(1, 2)})
    with pytest.raises(ModeMismatchError):
        P.gen(1).scale(Fraction(1, 2))


def test_fraction_scale_is_refused_over_a_prime_field():
    with pytest.raises(ModeMismatchError):
        FreeAlgebra(COMPLEX, GF(3)).gen(1).scale(Fraction(1, 2))
    F = CommAlgebra.with_degrees("t", (2,), GF(3))
    with pytest.raises(ModeMismatchError):
        TensorAlgebra(F, F).element({((), ()): Fraction(1, 2)})


def test_element_constructors_coerce_into_the_ring():
    with pytest.raises(ModeMismatchError):
        FreeElement(FreeAlgebra(COMPLEX, ZZ), {(1,): Fraction(1, 2)})
    F3 = FreeAlgebra(COMPLEX, GF(3))
    element = FreeElement(F3, {(1,): 7, (2,): 0})
    assert len(element) == 1
    assert element == F3.gen(1)
    assert repr(element) == "<Z1>"


def test_bool_coefficient_is_refused():
    A = FreeAlgebra()
    with pytest.raises(ParameterError):
        A.monomial((1,), True)
    with pytest.raises(ParameterError):
        A.gen(1).scale(True)


def test_coefficients_are_reduced_into_the_ring():
    assert str(FreeAlgebra(COMPLEX, QQ).element({(1,): Fraction(1, 2)})) == "1/2*Z1"
    assert str(FreeAlgebra(COMPLEX, GF(3)).element({(1,): 7, (2,): -1})) == "Z1 + 2*Z2"
    assert FreeAlgebra(COMPLEX, GF(3)).element({(1,): 3}).is_zero()


def test_an_integral_rational_is_stored_as_an_int():
    Q = FreeAlgebra(COMPLEX, QQ)
    z1 = Q.gen(1)
    back = z1.scale(Fraction(1, 2)).scale(2)
    assert back == z1
    assert hash(back) == hash(z1)
    stored = Q.key_of((1,))  # mutable_terms() holds stored keys
    assert type(back.mutable_terms()[stored]) is int
    assert type((z1.scale(Fraction(1, 2)) + z1.scale(Fraction(3, 2))).mutable_terms()[stored]) is int
    assert back.terms() == [((1,), Fraction(1))]
    assert type(back.coefficient((1,))) is Fraction


def test_a_rational_coefficient_read_out_is_refused_over_the_integers():
    Q = FreeAlgebra(COMPLEX, QQ)
    half = Q.element({(1,): Fraction(1, 2)}).coefficient((1,))
    assert half == Fraction(1, 2)
    with pytest.raises(ModeMismatchError):
        ZZ.coerce(half)
    with pytest.raises(ModeMismatchError):
        FreeAlgebra(COMPLEX, ZZ).monomial((1,), half)


def is_public_key(key):
    """A tuple all the way down to its int entries."""
    return type(key) is tuple and all(type(x) is int or is_public_key(x) for x in key)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=repr)
@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_keys_enter_and_leave_in_their_public_form(kind, ring):
    draw = FACTORIES[kind](ring)
    rng = random.Random(f"keys-{kind}-{ring!r}")
    for _ in range(20):
        a = draw(rng)
        terms = a.terms()
        assert a.support() == [key for key, _ in terms]
        assert all(is_public_key(key) for key in a.support())
        for key, value in terms:
            assert a.coefficient(key) == value
            assert a.coefficient(list(key)) == value
            assert a.algebra.monomial(list(key), value) == a.algebra.element({key: value})
        assert a.algebra.element(dict(terms)) == a
        assert pickle.loads(pickle.dumps(a)) == a
        if hasattr(a.algebra, "from_data"):
            assert a.algebra.from_data(json.loads(json.dumps(a.to_data()))) == a


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=repr)
def test_a_word_holds_the_letters_1_to_255(ring):
    A = FreeAlgebra(COMPLEX, ring)
    tensor = TensorAlgebra(CommAlgebra.with_degrees("t", (2,), ring), A)
    for letter in (0, 256):
        for build in (
            lambda: A.element({(1, letter): 1}),
            lambda: A.monomial((letter, 1)),
            lambda: A.gen(letter),
            lambda: tensor.element({((), (letter,)): 1}),
        ):
            with pytest.raises(ParameterError, match=f"generator index must be .* got {letter}"):
                build()
        assert A.gen(1).coefficient((1, letter)) == 0  # no stored word matches
    top = A.gen(255)
    assert top == A.monomial((255,)) == A.element({(255,): 1})
    assert top.support() == [(255,)] and top.to_data() == [{"word": [255], "coeff": "1"}]
    assert str(top * A.gen(1)) == "Z255*Z1"
    assert tensor.element({((), (255, 1)): 2}).support() == [((), (255, 1))]


@pytest.mark.parametrize("word", [0, 3, False], ids=repr)
def test_an_int_is_not_a_word(word):
    # bytes(n) would be n zero bytes, and bytes(0) the unit word
    A = FreeAlgebra()
    with pytest.raises(TypeError, match="a word is a sequence"):
        A.monomial(word)
    with pytest.raises(TypeError, match="a word is a sequence"):
        A.element({word: 5})


_MIXED = FreeAlgebra().gen(1) + FreeAlgebra().gen(2)

# One row per refusal of the shared core: (callable, args, error type, message fragment).
_REFUSALS = [
    (_MIXED.degree, (), UnsupportedInputError, "element is not homogeneous"),
    (pow, (FreeAlgebra().gen(1), -1), ParameterError, "negative powers are not defined"),
    (pow, (CommAlgebra.with_degrees("u", (2,), ZZ).gen(1), -2), ParameterError,
     "negative powers are not defined"),
]


@pytest.mark.parametrize("call, args, error, fragment", _REFUSALS, ids=[r[3] for r in _REFUSALS])
def test_linear_combination_refusals(call, args, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(*args)
