import random
import re
from fractions import Fraction

import pytest

from ncfgl import (
    COMPLEX,
    GF,
    QQ,
    ZZ,
    FreeAlgebra,
    ModeMismatchError,
    ParameterError,
    ScalarRing,
    is_prime,
)


def test_integer_mode_is_exact():
    big = 10 ** 40
    assert ZZ.reduced({"square": big * big, "difference": big - big}) == {"square": 10 ** 80}


def test_rational_values_are_normalized():
    v = QQ.coerce(Fraction(4, -6))
    assert v == Fraction(-2, 3)
    assert v.denominator == 3
    assert QQ.reduced({"product": Fraction(1, 3) * Fraction(3, 1)}) == {"product": 1}


def test_prime_field_residues():
    F = GF(7)
    assert F.of_int(-1) == 6
    assert F.coerce(-8) == F.parse("6") == 6
    assert F.reduced({"product": 3 * 5, "sum": 6 + 1, "negative": -1}) == {"product": 1, "negative": 6}


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 341, 561])
def test_composite_modulus_rejected(bad):
    with pytest.raises(ParameterError):
        GF(bad)


def test_is_prime_matches_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_ring_identity():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert ZZ != QQ


def test_coerce_rejects_foreign_values():
    with pytest.raises(ModeMismatchError):
        ZZ.coerce(Fraction(1, 2))
    with pytest.raises(ModeMismatchError):
        GF(3).coerce(Fraction(1, 2))


def test_render_parse_round_trip():
    for ring, value in ((ZZ, -12), (QQ, Fraction(3, 7)), (GF(5), 3)):
        v = ring.coerce(value)
        assert ring.parse(ring.render(v)) == v


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
def test_from_data_reads_back_what_to_data_writes(ring):
    algebra = FreeAlgebra(COMPLEX, ring)
    rng = random.Random(37)
    for _ in range(20):
        terms = {
            tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): ring.random_value(rng)
            for _ in range(rng.randint(0, 4))
        }
        element = algebra.element(terms)
        data = element.to_data()
        assert algebra.from_data(data) == element
        assert algebra.from_data(data).to_data() == data


def test_rational_values_are_stored_as_ints_when_integral():
    assert type(QQ.of_int(5)) is int
    assert type(QQ.coerce(Fraction(6, 3))) is int
    assert type(QQ.parse("-2")) is int and QQ.parse("-2") == -2
    stored = QQ.reduced({
        "product": Fraction(2, 3) * Fraction(3, 2),
        "sum": Fraction(1, 2) + Fraction(1, 2),
        "half": Fraction(1, 2),
    })
    assert {key: type(v) for key, v in stored.items()} == {"product": int, "sum": int, "half": Fraction}
    assert type(QQ.public(3)) is Fraction


def test_no_rational_operation_yields_a_float():
    rng = random.Random(7)
    values = [QQ.random_value(rng) for _ in range(40)] + [QQ.of_int(0), QQ.one, QQ.parse("3/4")]
    results = list(values)
    for a in values:
        results += [QQ.coerce(a), QQ.parse(QQ.render(a))]
        acc = {"negative": -a, "inverse": 1 / Fraction(a) if a else 0}
        for i, b in enumerate(values):
            acc["sum", i] = a + b
            acc["product", i] = a * b
        results += QQ.reduced(acc).values()
    assert {type(v) for v in results} == {int, Fraction}
    assert all(v.denominator > 1 for v in results if type(v) is Fraction)


# One row per case of ``reduced``: (ring, accumulator, stored values, whether
# the accumulator itself comes back).  An accumulator already in stored form
# is handed over; any other is rebuilt.
_REDUCED = [
    (ZZ, {"a": 3, "b": -(10 ** 30)}, {"a": 3, "b": -(10 ** 30)}, True),
    (ZZ, {}, {}, True),
    (ZZ, {"a": 3, "zero": 5 - 5, "b": -1}, {"a": 3, "b": -1}, False),
    (QQ, {"a": 2, "b": -7}, {"a": 2, "b": -7}, True),
    (QQ, {"a": 2, "zero": 0}, {"a": 2}, False),
    (QQ, {"two": Fraction(6, 3), "half": Fraction(1, 2)}, {"two": 2, "half": Fraction(1, 2)}, False),
    (QQ, {"a": 2, "cancelled": Fraction(1, 2) - Fraction(1, 2)}, {"a": 2}, False),
    (GF(3), {"seven": 7, "minus": -1, "three": 3}, {"seven": 1, "minus": 2}, False),
]


@pytest.mark.parametrize(
    "ring, acc, stored, handed_over", _REDUCED, ids=[f"{row[0]!r}-{','.join(row[1])}" for row in _REDUCED]
)
def test_reduced_hands_over_an_accumulator_in_stored_form(ring, acc, stored, handed_over):
    out = ring.reduced(acc)
    assert (out is acc) == handed_over
    assert out == stored
    assert [type(v) for v in out.values()] == [type(v) for v in stored.values()]


# psi_12 and psi_13: the least strong pseudoprimes to the prime bases up to
# 37 and up to 41 (Sorenson and Webster 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_finds_the_least_strong_pseudoprime_to_twelve_bases():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(ParameterError):
        GF(PSI_12)


def test_is_prime_keeps_the_primes_it_was_sized_at():
    assert is_prime(3 * 10 ** 24 + 7)
    assert is_prime(2 ** 61 - 1)


def test_is_prime_refuses_beyond_its_proven_range_at_once():
    import time

    assert PSI_13 == 1287836182261 * 2575672364521
    for n in (PSI_13, 10 ** 3999 + 7):
        begin = time.perf_counter()
        with pytest.raises(ParameterError, match=str(PSI_13)):
            is_prime(n)
        assert time.perf_counter() - begin < 0.1


# One row per refusal of the scalar layer: (callable, args, error type, message fragment).
_REFUSALS = [
    (ScalarRing, ("complex",), ParameterError, "unknown scalar mode 'complex'"),
    (ScalarRing, ("integer", 3), ParameterError, "scalar mode 'integer' takes no modulus"),
    (ScalarRing, ("rational", 5), ParameterError, "scalar mode 'rational' takes no modulus"),
    (ZZ.parse, ("x",), ParameterError, "cannot parse 'x' as a scalar of ZZ"),
    (ZZ.parse, ("1/2",), ParameterError, "cannot parse '1/2' as a scalar of ZZ"),
    (GF(3).parse, ("",), ParameterError, "cannot parse '' as a scalar of GF(3)"),
    (QQ.parse, ("1/0",), ParameterError, "cannot parse '1/0' as a scalar of QQ"),
    (QQ.parse, ("one half",), ParameterError, "cannot parse 'one half' as a scalar of QQ"),
    (ZZ.parse, (1.5,), ParameterError, "cannot parse 1.5 as a scalar of ZZ"),
    (QQ.parse, (None,), ParameterError, "cannot parse None as a scalar of QQ"),
    (ZZ.parse, (7,), ParameterError, "cannot parse 7 as a scalar of ZZ"),
    (ZZ.parse, ("1_000",), ParameterError, "cannot parse '1_000' as a scalar of ZZ"),
    (ZZ.parse, (" +7 ",), ParameterError, "cannot parse ' +7 ' as a scalar of ZZ"),
    (ZZ.parse, ("\u0663",), ParameterError, "cannot parse '\u0663' as a scalar of ZZ"),
    (QQ.parse, ("1.5",), ParameterError, "cannot parse '1.5' as a scalar of QQ"),
    (QQ.parse, ("1e3",), ParameterError, "cannot parse '1e3' as a scalar of QQ"),
    (QQ.parse, ("4/2 ",), ParameterError, "cannot parse '4/2 ' as a scalar of QQ"),
    (
        FreeAlgebra(COMPLEX, GF(5)).from_data,
        ([{"word": [1], "coeff": "+7"}],),
        ParameterError,
        "cannot parse '+7' as a scalar of GF(5)",
    ),
    # text that parses to a value whose render is other text
    (GF(5).parse, ("7",), ParameterError, "cannot parse '7' as a scalar of GF(5)"),
    (GF(7).parse, ("-8",), ParameterError, "cannot parse '-8' as a scalar of GF(7)"),
    (QQ.parse, ("2/4",), ParameterError, "cannot parse '2/4' as a scalar of QQ"),
    (QQ.parse, ("-4/2",), ParameterError, "cannot parse '-4/2' as a scalar of QQ"),
    (QQ.parse, ("3/1",), ParameterError, "cannot parse '3/1' as a scalar of QQ"),
    (ZZ.parse, ("007",), ParameterError, "cannot parse '007' as a scalar of ZZ"),
    (ZZ.parse, ("-0",), ParameterError, "cannot parse '-0' as a scalar of ZZ"),
    (
        FreeAlgebra(COMPLEX, GF(5)).from_data,
        ([{"word": [1], "coeff": "7"}],),
        ParameterError,
        "cannot parse '7' as a scalar of GF(5)",
    ),
    # an int whose repr Python refuses to build (past 4 300 digits) is named by its type
    (ZZ.parse, (10**5000,), ParameterError, "cannot parse <int too long to print> as a scalar of ZZ"),
    (
        FreeAlgebra().from_data,
        ([{"word": [1], "coeff": 10**5000}],),
        ParameterError,
        "cannot read the term record <dict too long to print>: "
        "cannot parse <int too long to print> as a scalar of ZZ",
    ),
]


@pytest.mark.parametrize("call, args, error, fragment", _REFUSALS, ids=[r[3] for r in _REFUSALS])
def test_scalar_refusals(call, args, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(*args)
