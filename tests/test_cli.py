import json
import os
import subprocess
import sys

import pytest

import ncfgl
from ncfgl.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fgl_json_contains_first_coefficient(capsys):
    code, out, _ = invoke(capsys, "fgl", "--degree", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    entry = next(e for e in payload["entries"] if e["i"] == 1 and e["j"] == 1)
    assert entry["element"] == [{"word": [1], "coeff": "2"}]


def test_fgl_degree_zero_is_usage_error(capsys):
    code, _, err = invoke(capsys, "fgl", "--degree", "0")
    assert code == 2
    assert "order >= 2" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["fgl", "--банан"]) == 2


def test_output_is_byte_deterministic(capsys):
    first = invoke(capsys, "fgl", "--degree", "4", "--format", "json")
    second = invoke(capsys, "fgl", "--degree", "4", "--format", "json")
    assert first == second
    third = invoke(capsys, "verify", "--degree", "3", "--samples", "10")
    fourth = invoke(capsys, "verify", "--degree", "3", "--samples", "10")
    assert third == fourth


def test_inverse_subcommand(capsys):
    code, out, _ = invoke(capsys, "inverse", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma1"] == "-1"
    c1 = next(e for e in payload["entries"] if e["k"] == 1)
    assert c1["element"] == [{"word": [1], "coeff": "2"}]


def test_commutator_subcommand(capsys):
    code, out, _ = invoke(
        capsys, "commutator", "--word", "1", "--k", "1", "--degree", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valuation"] == 3
    assert payload["ok"] is True


def test_expand_subcommand(capsys):
    code, out, _ = invoke(capsys, "expand", "--assign", "x=-x", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    first = payload["terms"][0]
    assert first["exponents"] == [1]
    assert first["element"] == [{"word": [], "coeff": "-1"}]


def test_steenrod_subcommand_t2(capsys):
    code, out, _ = invoke(
        capsys, "steenrod", "--prime", "3", "--op", "P1", "--gen", "t2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == [{"monomial": [[1, 3]], "coeff": "2"}]


def test_steenrod_subcommand_word(capsys):
    code, out, _ = invoke(
        capsys,
        "steenrod",
        "--prime", "2", "--op", "Sq1", "--word", "1,1,1", "--profile", "real",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == [{"word": [1, 1], "coeff": "1"}]


def test_steenrod_takes_exactly_one_of_gen_and_word(capsys):
    for argv in (
        ("steenrod", "--prime", "3", "--op", "P1", "--gen", "t2", "--word", "1,1"),
        ("steenrod", "--prime", "3", "--op", "P1"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--gen" in err and "--word" in err


def test_certificate_bp_exit_codes(capsys):
    code, out, _ = invoke(capsys, "certificate", "bp", "--prime", "3")
    assert code == 0
    assert "INFEASIBLE" in out
    code, _, _ = invoke(capsys, "certificate", "bp", "--prime", "2")
    assert code == 2


def test_certificate_hf2(capsys):
    code, out, _ = invoke(capsys, "certificate", "hf2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "INFEASIBLE"
    assert payload["centralizers"]["z1"] == ["z1*z1*z1"]


def test_poincare_profile(capsys):
    code, out, _ = invoke(capsys, "poincare", "--degree", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 1, 0, 2, 0, 4, 0, 8]


def test_poincare_explicit_degrees(capsys):
    code, out, _ = invoke(
        capsys, "poincare", "--poly", "2,6", "--degree", "6", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 1, 0, 1, 0, 2]
    # empty --poly text is no polynomial generator: an exterior one in degree 2
    code, out, _ = invoke(
        capsys, "poincare", "--poly", "", "--ext", "2", "--degree", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 1, 0, 0]
    # empty --poly text alone is the algebra on no generators, not the
    # profile's free series, so it reads no --profile either
    code, out, _ = invoke(capsys, "poincare", "--poly", "", "--degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 0, 0, 0]
    code, out, err = invoke(capsys, "poincare", "--poly", "", "--profile", "complex")
    assert (code, out) == (2, "")
    assert "--profile is not read by poincare --poly or --ext" in err


def test_split_subcommand(capsys):
    code, out, _ = invoke(capsys, "split", "--prime", "2", "--degree", "12", "--format", "json")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert [dims[2 * d] for d in range(7)] == [1, 0, 1, 1, 4, 7, 14]


def test_parity_subcommand(capsys):
    code, out, _ = invoke(capsys, "parity", "--prime", "2", "--degree", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["least_odd_degree"] == 9
    assert payload["verdict"] == "NOT-ISOMORPHIC"


def test_rational_subcommand(capsys):
    code, out, _ = invoke(capsys, "rational", "--degree", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_subcommand(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--degree", "4", "--samples", "20", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(payload["checks"].values())


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = invoke(
        capsys, "fgl", "--degree", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    on_disk = json.loads(target.read_text())
    assert on_disk["order"] == 3


def test_json_round_trips_through_schema(capsys):
    # FGL entries rebuild into the identical table
    from ncfgl import FreeAlgebra, fgl_table

    code, out, _ = invoke(capsys, "fgl", "--degree", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    algebra = FreeAlgebra()
    rebuilt = {
        (e["i"], e["j"]): algebra.from_data(e["element"]) for e in payload["entries"]
    }
    table = fgl_table(4, algebra)
    assert rebuilt == {key: element for key, element in table.items()}


# -- the JSON writer --------------------------------------------------------------

# One JSON run per record class that a subcommand emits, over every ring, with
# a negative verdict (parity) among them.
_EMITTING = [
    ("fgl", "--degree", "5", "--mode", "rat"),
    ("inverse", "--degree", "6", "--mode", "fp", "--prime", "3"),
    ("commutator", "--word", "1,2", "--k", "2", "--degree", "6"),
    ("expand", "--assign", "x=x+y", "--degree", "4"),
    ("steenrod", "--prime", "3", "--op", "P1", "--gen", "t2"),
    ("steenrod", "--op", "Sq1", "--word", "1,1", "--profile", "real"),
    ("certificate", "bp", "--prime", "3"),
    ("certificate", "hf2"),
    ("poincare", "--poly", "2,6", "--ext", "3", "--degree", "10"),
    ("split", "--prime", "2", "--degree", "12"),
    ("parity", "--prime", "3", "--degree", "18"),
    ("rational", "--degree", "20"),
    ("verify", "--degree", "4", "--mode", "rat", "--samples", "3"),
]


def test_the_json_writer_matches_json_dumps_on_every_record(capsys, monkeypatch):
    from ncfgl import cli

    emit, emitted = cli._emit, []

    def recording(args, result, title=None):
        emitted.append((type(result).__name__, result.to_data()))
        return emit(args, result, title)

    monkeypatch.setattr(cli, "_emit", recording)
    for argv in _EMITTING:
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code in (0, 1) and out == json.dumps(emitted[-1][1], indent=2) + "\n", argv
    assert {name for name, _ in emitted} == {
        "FGLTable", "InverseTable", "FiltrationResult", "Expansion", "Action",
        "ObstructionCertificate", "PoincareSeries", "ParityReport",
        "RationalComparisonReport", "Verification",
    }


_HAND_MADE = [
    {}, [], (), {"a": {}}, {"a": [], "b": ()}, [[]], [{}], [(), ()], ((1, 2), [3]),
    True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
    [1, True], [0, False], [None, 1],
    -1, 0, 2**64 + 1, -(2**70), [1, -2, 2**65],
    "", 'say "hi"', "back\\slash", "tab\tnl\ncr\r", "\x00\x1f\x7f", "Poincaré", "\u2028",
    "\U0001f600", "/", {'key "quoted"': 1, "é": [1, "ü"], "\\": "\x01"},
    {"entries": [{"i": 1, "j": 0, "element": [{"word": [1, 2], "coeff": "-3/2"}]}]},
]


@pytest.mark.parametrize("data", _HAND_MADE)
def test_the_json_writer_matches_json_dumps_by_hand(data):
    from ncfgl.cli import _json

    assert _json(data) == json.dumps(data, indent=2)


@pytest.mark.parametrize("data", [{1, 2}, [frozenset()], {"a": {1}}, {(1, 2): 0}, object()])
def test_the_json_writer_refuses_what_json_refuses(data):
    from ncfgl.cli import _json

    with pytest.raises(TypeError):
        json.dumps(data, indent=2)
    with pytest.raises(TypeError):
        _json(data)


@pytest.mark.parametrize("key", [2, False, None])
def test_the_json_writer_takes_str_keys_only(key):
    # json writes these keys as strings; no record has one
    from ncfgl.cli import _json

    with pytest.raises(TypeError):
        _json({"a": {key: 1}})


def assert_usage_error(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_poincare_bad_degree_lists_are_usage_errors(capsys):
    assert "--poly '2,,4'" in assert_usage_error(capsys, "poincare", "--poly", "2,,4")
    assert "--poly 'a'" in assert_usage_error(capsys, "poincare", "--poly", "a")
    assert "--ext '1,b'" in assert_usage_error(capsys, "poincare", "--ext", "1,b")


def test_verify_needs_at_least_one_sample(capsys):
    for samples in ("0", "-1"):
        err = assert_usage_error(capsys, "verify", "--degree", "3", "--samples", samples)
        assert "--samples" in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.txt"
    assert_usage_error(capsys, "fgl", "--degree", "3", "--out", str(target))
    assert not target.exists()


def test_degree_budgets_refuse_before_any_work(monkeypatch, capsys):
    import ncfgl.fgl
    import ncfgl.series
    import ncfgl.steenrod

    def no_work(*args, **kwargs):
        raise AssertionError("a refused input must not start its computation")

    for name in ("fgl_table", "inverse_table", "verify_axioms"):
        monkeypatch.setattr(ncfgl.fgl, name, no_work)
    monkeypatch.setattr(ncfgl.series, "left_expand", no_work)
    monkeypatch.setattr(ncfgl.steenrod, "FreeAlgebra", no_work)
    for argv in (
        ("fgl", "--degree", "17"),
        ("inverse", "--degree", "21"),
        ("verify", "--degree", "13"),
        ("expand", "--assign", "x=-x", "--degree", "19"),
        ("expand", "--assign", "x=x+y", "--degree", "17"),
        ("expand", "--assign", "x=x+y+w", "--degree", "15"),
        ("expand", "--assign", "x=10*x", "--degree", "3"),
        ("expand", "--assign", "x=5*x+5*x", "--degree", "3"),
        ("certificate", "bp", "--prime", "5"),
    ):
        assert_usage_error(capsys, *argv)


_running = []  # the stand-ins of patch_for_handlers in progress


def patch_for_handlers(monkeypatch, module, name, stand_in):
    """Patch ``module.name`` with ``stand_in`` for the calls a handler makes.

    Handlers import their layer's functions when they run, so the patch sits
    on the layer module.  That module's own functions call one another
    through the same names, so a call made while a stand-in runs goes to the
    original function.
    """
    original = getattr(module, name)

    def call(*args, **kwargs):
        if _running:
            return original(*args, **kwargs)
        _running.append(name)
        try:
            return stand_in(*args, **kwargs)
        finally:
            _running.pop()

    monkeypatch.setattr(module, name, call)


def test_degree_budgets_accept_their_limits(monkeypatch, capsys):
    # the computations are replaced by cheap ones of order 3; only the
    # argument checks run at the limits
    import ncfgl.fgl
    import ncfgl.series
    from ncfgl import fgl_table, inverse_table, verify_axioms

    seen = []

    def small(function):
        def call(degree, *args, **kwargs):
            seen.append(degree)
            return function(3, *args, **kwargs)
        return call

    def small_expand(target, basis):
        seen.append(target.order)
        return {}

    patch_for_handlers(monkeypatch, ncfgl.fgl, "fgl_table", small(fgl_table))
    patch_for_handlers(monkeypatch, ncfgl.fgl, "inverse_table", small(inverse_table))
    patch_for_handlers(monkeypatch, ncfgl.fgl, "verify_axioms", small(verify_axioms))
    monkeypatch.setattr(ncfgl.series, "left_expand", small_expand)
    monkeypatch.setattr(ncfgl.fgl, "filtration_property_run", lambda **kwargs: (True, []))
    for argv in (
        ("fgl", "--degree", "16"),
        ("inverse", "--degree", "20"),
        ("verify", "--degree", "12"),
        ("expand", "--assign", "x=-9*x", "--degree", "18"),
        ("expand", "--assign", "x=x-9*y", "--degree", "16"),
        ("expand", "--assign", "x=x+y+w", "--degree", "14"),
    ):
        code, _, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
    assert seen == [16, 20, 12, 18, 16, 14]


def test_series_commutator_and_sample_budgets_refuse_before_any_work(monkeypatch, capsys):
    import ncfgl.fgl
    import ncfgl.gradebook

    def no_work(*args, **kwargs):
        raise AssertionError("a refused input must not start its computation")

    for name in ("commutator_filtration", "verify_axioms", "filtration_property_run"):
        monkeypatch.setattr(ncfgl.fgl, name, no_work)
    for name in (
        "series_free_assoc",
        "series_graded_algebra",
        "splitting_multiplicities",
        "parity_check_ku",
        "rational_mu_series_check",
    ):
        monkeypatch.setattr(ncfgl.gradebook, name, no_work)
    for argv in (
        ("commutator", "--degree", "25"),
        ("commutator", "--k", "23", "--degree", "24"),
        ("poincare", "--degree", "4001"),
        ("poincare", "--poly", "2,6", "--degree", "4001"),
        ("split", "--prime", "2", "--degree", "4001"),
        ("parity", "--prime", "2", "--degree", "4001"),
        ("rational", "--degree", "4001"),
        ("verify", "--degree", "3", "--samples", "1001"),
    ):
        assert_usage_error(capsys, *argv)


def test_series_commutator_and_sample_budgets_accept_their_limits(monkeypatch, capsys):
    # the computations are replaced by cheap ones; only the argument checks
    # run at the limits
    import ncfgl.fgl
    import ncfgl.freealg
    import ncfgl.gradebook
    from ncfgl import (
        commutator_filtration,
        parity_check_ku,
        rational_mu_series_check,
        series_free_assoc,
        series_graded_algebra,
        splitting_multiplicities,
    )

    seen = []

    def small(function, *cheap):
        def call(*args, **kwargs):
            seen.append((function.__name__,) + tuple(a for a in args if isinstance(a, int)))
            return function(*cheap)
        return call

    def small_run(**kwargs):
        seen.append(("filtration_property_run", kwargs["samples"]))
        return True, []

    patch_for_handlers(
        monkeypatch, ncfgl.fgl, "commutator_filtration",
        small(commutator_filtration, ncfgl.freealg.FreeAlgebra().gen(1), 1, 3),
    )
    for function, *cheap in (
        (series_free_assoc, [2], 3),
        (series_graded_algebra, [2], [], 3),
        (splitting_multiplicities, 2, 3),
        (parity_check_ku, 2, 3),
        (rational_mu_series_check, 3),
    ):
        patch_for_handlers(monkeypatch, ncfgl.gradebook, function.__name__, small(function, *cheap))
    monkeypatch.setattr(ncfgl.fgl, "filtration_property_run", small_run)
    for argv in (
        ("commutator", "--k", "22", "--degree", "24"),
        ("poincare", "--degree", "4000"),
        ("poincare", "--poly", "2,6", "--degree", "4000"),
        ("split", "--prime", "2", "--degree", "4000"),
        ("parity", "--prime", "2", "--degree", "4000"),
        ("rational", "--degree", "4000"),
        ("verify", "--degree", "3", "--samples", "1000"),
    ):
        code, _, err = invoke(capsys, *argv)
        assert err == ""
        assert code in (0, 1)  # a cheap stand-in may reach either verdict
    assert seen == [
        ("commutator_filtration", 22, 24),
        ("series_free_assoc", 4000),
        ("series_graded_algebra", 4000),
        ("splitting_multiplicities", 2, 4000),
        ("parity_check_ku", 2, 4000),
        ("rational_mu_series_check", 4000),
        ("filtration_property_run", 1000),
    ]


def test_negative_generator_degrees_are_named(capsys):
    for flag in ("--poly", "--ext"):
        err = assert_usage_error(capsys, "poincare", flag, "-2")
        assert "must be positive" in err
        assert "degree 0" not in err


def _letters(letter, count):
    return ",".join([str(letter)] * count)


def test_length_and_index_budgets_refuse_before_any_work(monkeypatch, capsys):
    import ncfgl.fgl
    import ncfgl.gradebook
    import ncfgl.steenrod

    def no_work(*args, **kwargs):
        raise AssertionError("a refused input must not start its computation")

    monkeypatch.setattr(ncfgl.steenrod, "right_action", no_work)
    monkeypatch.setattr(ncfgl.fgl, "commutator_filtration", no_work)
    monkeypatch.setattr(ncfgl.gradebook, "series_graded_algebra", no_work)
    for argv in (
        ("steenrod", "--prime", "3", "--op", "P1", "--gen", "t18"),
        ("steenrod", "--prime", "3", "--op", "P1", "--gen", "xi18"),
        ("steenrod", "--prime", "3", "--op", "P4097", "--gen", "t1"),
        ("steenrod", "--prime", "3", "--op", "P" + "9" * 5000, "--gen", "t1"),
        ("steenrod", "--prime", "3", "--op", "P1", "--gen", "t" + "9" * 5000),
        ("steenrod", "--prime", "2", "--op", "Sq1", "--word", _letters(1, 33)),
        ("steenrod", "--prime", "2", "--op", "Sq7", "--word", _letters(31, 20), "--profile", "real"),
        ("commutator", "--word", _letters(1, 33)),
        ("poincare", "--poly", _letters(2, 4097)),
        ("poincare", "--ext", _letters(2, 4097)),
    ):
        err = assert_usage_error(capsys, *argv)
        assert "budget" in err and len(err.splitlines()) == 1


def test_length_and_index_budgets_accept_their_limits(monkeypatch, capsys):
    # the computations are replaced by cheap ones; only the argument checks
    # run at the limits
    import ncfgl.fgl
    import ncfgl.gradebook
    import ncfgl.steenrod
    from ncfgl import commutator_filtration, series_graded_algebra

    seen = []

    def cheap_action(element, op):
        seen.append(("right_action", str(op), str(element)))
        return element.algebra.zero()

    def cheap_commutator(u, k, order):
        seen.append(("commutator_filtration", len(u.support()[0])))
        return commutator_filtration(u.algebra.gen(1), 1, 3)

    def cheap_series(poly, ext, order):
        seen.append(("series_graded_algebra", len(poly), len(ext)))
        return series_graded_algebra([2], [], 3)

    monkeypatch.setattr(ncfgl.steenrod, "right_action", cheap_action)
    monkeypatch.setattr(ncfgl.fgl, "commutator_filtration", cheap_commutator)
    monkeypatch.setattr(ncfgl.gradebook, "series_graded_algebra", cheap_series)
    for argv in (
        ("steenrod", "--prime", "3", "--op", "P1", "--gen", "t17"),
        ("steenrod", "--prime", "3", "--op", "P1", "--gen", "xi17"),
        ("steenrod", "--prime", "3", "--op", "P4096", "--gen", "t1"),
        ("steenrod", "--prime", "2", "--op", "Sq1", "--word", _letters(1, 32)),
        ("steenrod", "--prime", "2", "--op", "Sq6", "--word", _letters(31, 20), "--profile", "real"),
        ("commutator", "--word", _letters(1, 32)),
        ("poincare", "--poly", _letters(2, 4096), "--ext", _letters(2, 4096)),
    ):
        code, _, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
    assert seen == [
        ("right_action", "P^1", "t17"),
        ("right_action", "P^1", "xi17"),
        ("right_action", "P^4096", "t1"),
        ("right_action", "Sq^1", "*".join(["Z1"] * 32)),
        ("right_action", "Sq^6", "*".join(["z31"] * 20)),
        ("commutator_filtration", 32),
        ("series_graded_algebra", 4096, 4096),
    ]


class _Stub:
    """What a stubbed computation returns: passing verdicts and no data."""

    ok = match = unit_ok = commutativity_ok = associativity_ok = inverse_ok = True
    verdict = "NOT-ISOMORPHIC"

    def to_data(self):
        return {}

    def __str__(self):
        return "stub"


def _limit_cases(limits):
    """Row of ``limits`` -> (an argv at its limit, an argv above it)."""
    from math import comb

    builders = {
        "fgl --degree": lambda n: ("fgl", "--degree", str(n)),
        "inverse --degree": lambda n: ("inverse", "--degree", str(n)),
        "verify --degree": lambda n: ("verify", "--degree", str(n)),
        "commutator --degree": lambda n: ("commutator", "--degree", str(n)),
        "poincare --degree": lambda n: ("poincare", "--degree", str(n)),
        "split --degree": lambda n: ("split", "--prime", "2", "--degree", str(n)),
        "parity --degree": lambda n: ("parity", "--prime", "2", "--degree", str(n)),
        "rational --degree": lambda n: ("rational", "--degree", str(n)),
        "expand in 1 variable --degree": lambda n: ("expand", "--assign", "x=-x", "--degree", str(n)),
        "expand in 2 variables --degree": lambda n: ("expand", "--assign", "x=x+y", "--degree", str(n)),
        "expand in 3 variables --degree": lambda n: ("expand", "--assign", "x=x+y+w", "--degree", str(n)),
        "--assign coefficient": lambda n: ("expand", "--assign", f"x=x-{n}*y", "--degree", "3"),
        "commutator --k": lambda n: ("commutator", "--k", str(n), "--degree", "24"),
        "verify --samples": lambda n: ("verify", "--degree", "3", "--samples", str(n)),
        "--word letters": lambda n: ("commutator", "--word", _letters(1, n)),
        "--poly entries": lambda n: ("poincare", "--poly", _letters(2, n)),
        "--ext entries": lambda n: ("poincare", "--ext", _letters(2, n)),
        "--gen index": lambda n: ("steenrod", "--prime", "3", "--op", "P1", "--gen", f"t{n}"),
        "--op index": lambda n: ("steenrod", "--prime", "3", "--op", f"P{n}", "--gen", "t1"),
    }
    cases = {row: (build(limits[row]), build(limits[row] + 1)) for row, build in builders.items()}
    # P^k on a word of three letters has C(k + 2, 2) possible terms; the
    # largest k within the limit, which meets it exactly, and the next one
    # stand for "at" and "above"
    k = 0
    while comb(k + 3, 2) <= limits["action terms"]:
        k += 1
    cases["action terms"] = tuple(
        ("steenrod", "--prime", "3", "--op", f"P{index}", "--word", "1,1,1") for index in (k, k + 1)
    )
    return cases


def test_every_limit_accepts_its_value_and_refuses_the_next(monkeypatch, capsys):
    # the computations are stubbed; only the argument checks run
    import ncfgl.cli
    import ncfgl.fgl
    import ncfgl.gradebook
    import ncfgl.series
    import ncfgl.steenrod

    calls = []

    def stub(name, result):
        def call(*args, **kwargs):
            calls.append(name)
            return result() if callable(result) else result
        return call

    for module, names in (
        (ncfgl.fgl, ("fgl_table", "inverse_table", "verify_axioms", "commutator_filtration")),
        (ncfgl.steenrod, ("right_action",)),
        (ncfgl.gradebook, (
            "series_free_assoc", "series_graded_algebra", "splitting_multiplicities",
            "parity_check_ku", "rational_mu_series_check",
        )),
    ):
        for name in names:
            monkeypatch.setattr(module, name, stub(name, _Stub))
    monkeypatch.setattr(ncfgl.fgl, "filtration_property_run", stub("filtration", (True, [])))
    monkeypatch.setattr(ncfgl.series, "left_expand", stub("left_expand", dict))

    cases = _limit_cases(ncfgl.cli.LIMITS)
    assert set(cases) == set(ncfgl.cli.LIMITS)
    for row, limit in ncfgl.cli.LIMITS.items():
        at, above = cases[row]
        calls.clear()
        code, _, err = invoke(capsys, *at)
        assert (code, err) == (0, ""), row
        assert calls, row
        calls.clear()
        err = assert_usage_error(capsys, *above)
        assert not calls, row
        assert len(err.splitlines()) == 1, row
        assert err.startswith(f"error: {row} ") and err.endswith(
            f" is above the budget of {limit}\n"
        ), (row, err)


def test_the_action_terms_limit_is_a_count_that_inputs_reach():
    # the row's value is C(k + L - 1, L - 1) for some --op index k and some
    # --word length L within their own rows, so an argv can sit at it
    from math import comb

    import ncfgl.cli

    limits = ncfgl.cli.LIMITS
    assert any(
        comb(k + length - 1, length - 1) == limits["action terms"]
        for k in range(limits["--op index"] + 1)
        for length in range(1, limits["--word letters"] + 1)
    )


class _Negative(_Stub):
    """A stubbed computation that reaches a negative verdict on every reading."""

    ok = match = infeasible = unit_ok = commutativity_ok = associativity_ok = inverse_ok = False
    verdict = "INCONCLUSIVE"


def test_a_negative_verdict_exits_1_with_its_output_written(monkeypatch, capsys, tmp_path):
    import ncfgl.fgl
    import ncfgl.gradebook
    import ncfgl.steenrod

    for module, name in (
        (ncfgl.fgl, "commutator_filtration"),
        (ncfgl.fgl, "verify_axioms"),
        (ncfgl.steenrod, "bp_obstruction_certificate"),
        (ncfgl.steenrod, "hf2_obstruction_certificate"),
        (ncfgl.gradebook, "parity_check_ku"),
        (ncfgl.gradebook, "rational_mu_series_check"),
    ):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: _Negative())
    monkeypatch.setattr(ncfgl.fgl, "filtration_property_run", lambda **kwargs: (True, []))

    for argv in (
        ("commutator",),
        ("certificate", "bp", "--prime", "3"),
        ("certificate", "hf2"),
        ("parity", "--prime", "2"),
        ("rational",),
        ("verify", "--degree", "3"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (1, ""), argv
        assert out.endswith("\n") and out.strip(), argv
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, err) == (1, ""), argv
        assert isinstance(json.loads(out), dict), argv
        target = tmp_path / "out.txt"
        code, out, err = invoke(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (1, "", ""), argv
        assert target.read_text(encoding="utf-8").strip(), argv
        target.unlink()

    code, out, _ = invoke(capsys, "verify", "--degree", "3")
    assert out.splitlines()[1:] == [
        "          unit: FAIL",
        " commutativity: FAIL",
        " associativity: FAIL",
        "       inverse: FAIL",
        "    filtration: PASS",
        "filtration samples: 0",
    ]


def test_a_splitting_inconsistency_exits_1_on_stderr(monkeypatch, capsys, tmp_path):
    # Only a stubbed division reaches the negative multiplicity; the run
    # then writes no output, to stdout or to --out.
    import ncfgl.gradebook
    from ncfgl import PoincareSeries

    monkeypatch.setattr(
        ncfgl.gradebook, "series_divide",
        lambda num, den, order: PoincareSeries(order, (1, 0, -1) + (0,) * (order - 2)),
    )
    target = tmp_path / "out.txt"
    for fmt in ((), ("--format", "json"), ("--out", str(target))):
        code, out, err = invoke(capsys, "split", "--prime", "2", "--degree", "4", *fmt)
        assert (code, out) == (1, ""), fmt
        assert err == "splitting inconsistency: negative multiplicity -1 in degree 2\n", fmt
    assert not target.exists()


def test_primes_beyond_the_exact_range_are_usage_errors(capsys):
    for prime in ("318665857834031151167461", "3317044064679887385961981", "1" + "0" * 3999 + "7"):
        assert_usage_error(capsys, "fgl", "--mode", "fp", "--prime", prime, "--degree", "3")
        assert_usage_error(capsys, "steenrod", "--prime", prime, "--op", "P1", "--gen", "t1")
        assert_usage_error(capsys, "split", "--prime", prime)


def test_text_output_never_builds_the_json_payload(capsys, monkeypatch):
    from ncfgl.fgl import FGLTable, fgl_table

    expected = str(fgl_table(3)) + "\n"

    def refuse(self):
        raise AssertionError("to_data called for text output")

    monkeypatch.setattr(FGLTable, "to_data", refuse)
    assert invoke(capsys, "fgl", "--degree", "3") == (0, expected, "")


def test_json_output_never_renders_the_text(capsys, monkeypatch):
    from ncfgl.fgl import FGLTable, fgl_table

    expected = json.dumps(fgl_table(3).to_data(), indent=2) + "\n"

    def refuse(self):
        raise AssertionError("__str__ called for JSON output")

    monkeypatch.setattr(FGLTable, "__str__", refuse)
    assert invoke(capsys, "fgl", "--degree", "3", "--format", "json") == (0, expected, "")


@pytest.mark.parametrize("command", [
    ("fgl", "--degree", "3"),
    ("inverse", "--degree", "3"),
    ("commutator", "--degree", "4"),
    ("expand", "--degree", "3"),
    ("verify", "--degree", "3", "--samples", "1"),
])
@pytest.mark.parametrize("mode", ["int", "rat"])
def test_series_commands_refuse_a_prime_without_mode_fp(capsys, command, mode):
    err = assert_usage_error(capsys, *command, "--mode", mode, "--prime", "4")
    assert "--prime is not read" in err
    code, _, _ = invoke(capsys, *command, "--mode", "fp", "--prime", "3")
    assert code == 0


@pytest.mark.parametrize("command", [
    ("certificate", "hf2", "--prime", "7"),
    ("poincare", "--prime", "3"),
    ("poincare", "--poly", "2", "--prime", "2"),
    ("rational", "--prime", "2"),
])
def test_commands_that_never_read_a_prime_refuse_it(capsys, command):
    assert "--prime is not read" in assert_usage_error(capsys, *command)


@pytest.mark.parametrize("command, option", [
    (("steenrod", "--prime", "3", "--op", "P1", "--gen", "t2", "--mode", "rat", "--degree", "3"),
     "--mode"),
    (("certificate", "hf2", "--mode", "fp", "--profile", "complex", "--degree", "2"), "--mode"),
    (("certificate", "bp", "--prime", "3", "--degree", "2"), "--degree"),
    (("split", "--prime", "2", "--profile", "real", "--mode", "rat"), "--profile"),
    (("rational", "--profile", "real", "--mode", "fp"), "--profile"),
    (("parity", "--prime", "2", "--mode", "rat"), "--mode"),
    (("poincare", "--mode=rat"), "--mode"),
    (("steenrod", "--prime", "3", "--op", "P1", "--gen", "t2", "--profile", "complex"),
     "--profile"),
    (("poincare", "--poly", "2,6", "--profile", "complex"), "--profile"),
    (("poincare", "--ext", "3", "--profile", "real"), "--profile"),
    (("certificate", "--degree", "2", "hf2"), "--degree"),
])
def test_options_a_run_never_reads_are_refused(capsys, command, option):
    assert f"{option} is not read by" in assert_usage_error(capsys, *command)


def test_undeclared_arguments_keep_the_argparse_message(capsys):
    code, out, err = invoke(capsys, "rational", "--degree", "3", "--seed", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed 1" in err


def test_profile_is_read_by_steenrod_word_and_poincare_without_lists(capsys):
    assert invoke(capsys, "steenrod", "--op", "Sq1", "--word", "1,1", "--profile", "real")[0] == 0
    code, out, _ = invoke(capsys, "poincare", "--profile", "real", "--degree", "3")
    assert code == 0 and "on the real profile" in out
    code, out, _ = invoke(capsys, "poincare", "--degree", "3")
    assert code == 0 and "on the complex profile" in out


# -- start-up footprint -----------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncfgl.__file__)))
_GRADEBOOK_ONLY = {"ncfgl.fgl", "ncfgl.series", "ncfgl.steenrod", "ncfgl.commalg"}
_STEENROD_ONLY = {"ncfgl.fgl", "ncfgl.series", "ncfgl.gradebook"}
_FGL_ONLY = {"ncfgl.steenrod", "ncfgl.gradebook", "ncfgl.commalg"}
# fractions, which loads decimal, is imported for rational values only.
_NO_RATIONALS = {"fractions", "decimal"}


def _imports(*args):
    """(exit code, the modules named by -X importtime) of a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, names - {"imported package"}


@pytest.fixture(scope="module")
def bare_start():
    """What the interpreter imports on its own, to be left out of each count."""
    return _imports("-c", "pass")[1]


@pytest.mark.parametrize(
    "argv, code, needed, forbidden",
    [
        (("parity", "--prime", "2"), 0, "ncfgl.gradebook",
         _GRADEBOOK_ONLY | _NO_RATIONALS | {"json", "ncfgl.freealg", "ncfgl.lincomb",
                                            "ncfgl.linalg"}),
        (("poincare", "--format", "json"), 0, "ncfgl.gradebook",
         _GRADEBOOK_ONLY | _NO_RATIONALS | {"json"}),
        (("steenrod", "--prime", "3", "--op", "P1", "--gen", "t2"), 0, "ncfgl.steenrod",
         _STEENROD_ONLY | _NO_RATIONALS | {"json"}),
        (("certificate", "hf2"), 0, "ncfgl.steenrod", _STEENROD_ONLY | _NO_RATIONALS | {"json"}),
        (("fgl", "--degree", "3"), 0, "ncfgl.fgl", _FGL_ONLY | _NO_RATIONALS | {"json"}),
        (("verify", "--degree", "3", "--format", "json"), 0, "ncfgl.fgl",
         _FGL_ONLY | _NO_RATIONALS | {"json"}),
        # the filtration run draws rational samples
        (("verify", "--degree", "3", "--mode", "rat"), 0, "fractions", _FGL_ONLY | {"json"}),
    ],
)
def test_each_command_loads_only_its_layer(bare_start, argv, code, needed, forbidden):
    returncode, loaded = _imports("-m", "ncfgl.cli", *argv)
    assert returncode == code
    assert needed in loaded
    assert not (loaded - bare_start) & (forbidden | {"dataclasses", "inspect"})


def test_an_argparse_refusal_loads_no_layer(bare_start):
    returncode, loaded = _imports("-m", "ncfgl.cli", "poincare", "--poly", "2,,4")
    assert returncode == 2
    assert {name for name in loaded if name.startswith("ncfgl")} == {"ncfgl", "ncfgl.errors"}
    assert not (loaded - bare_start) & {"json", "dataclasses", "inspect"}


def test_a_letter_above_255_is_a_usage_error(capsys):
    # the free algebra refuses the word before any work is done
    for argv, letter in (
        (("commutator", "--word", "256"), 256),
        (("commutator", "--word", "1,300", "--degree", "6"), 300),
        (("steenrod", "--prime", "2", "--op", "Sq1", "--word", "1,256", "--profile", "real"), 256),
    ):
        err = assert_usage_error(capsys, *argv)
        assert err == f"error: generator index must be <= 255, got {letter}\n", argv
    code, out, _ = invoke(capsys, "commutator", "--word", "255", "--k", "1", "--degree", "4")
    assert code == 0 and out


# -- hash seeds ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("fgl", "--degree", "9", "--format", "json"),
        ("inverse", "--degree", "12"),
        ("certificate", "bp", "--prime", "3", "--format", "json"),
        ("verify", "--degree", "7", "--seed", "5"),
    ],
    ids=" ".join,
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    # free-algebra words are bytes, whose hashes, unlike those of tuples of
    # ints, change with PYTHONHASHSEED; no output may follow them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ncfgl.cli", *argv],
            capture_output=True,
            env=dict(env, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    assert runs[0].returncode == 0 and runs[0].stdout
    assert (runs[0].returncode, runs[0].stdout) == (runs[1].returncode, runs[1].stdout)


# One row per parse refusal of the command line: (argv, message fragment); each exits 2.
_REFUSALS = [
    (("commutator", "--word", "1,x"), "cannot parse word '1,x'"),
    (("commutator", "--word", ","), "word must list at least one generator index"),
    (("steenrod", "--op", "Q1", "--gen", "t2"), "cannot parse operation 'Q1' (use e.g. P1 or Sq2)"),
    (("steenrod", "--op", "P1", "--gen", "u2"), "cannot parse generator 'u2' (use e.g. t2, xi1)"),
    (("expand", "--assign", "x"), "--assign must look like 'x=x+y'"),
    (("expand", "--assign", "=x"), "--assign must look like 'x=x+y'"),
    (("expand", "--assign", "x=x+"), "cannot parse linear form 'x+'"),
    (("expand", "--assign", "x=2*"), "cannot parse linear form '2*'"),
    (("fgl", "--mode", "fp"), "--mode fp needs --prime"),
    (("certificate", "bp"), "certificate bp needs --prime"),
    (("split",), "split needs --prime"),
    (("parity",), "parity needs --prime"),
]


@pytest.mark.parametrize("argv, fragment", _REFUSALS, ids=[r[1] for r in _REFUSALS])
def test_cli_refusals(capsys, argv, fragment):
    assert f"error: {fragment}" in assert_usage_error(capsys, *argv)
