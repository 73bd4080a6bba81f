import json

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
    import ncfgl.cli
    import ncfgl.steenrod

    def no_work(*args, **kwargs):
        raise AssertionError("a refused input must not start its computation")

    for name in ("fgl_table", "inverse_table", "verify_axioms", "left_expand"):
        monkeypatch.setattr(ncfgl.cli, name, no_work)
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


def test_degree_budgets_accept_their_limits(monkeypatch, capsys):
    # the computations are replaced by cheap ones of order 3; only the
    # argument checks run at the limits
    import ncfgl.cli
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

    monkeypatch.setattr(ncfgl.cli, "fgl_table", small(fgl_table))
    monkeypatch.setattr(ncfgl.cli, "inverse_table", small(inverse_table))
    monkeypatch.setattr(ncfgl.cli, "verify_axioms", small(verify_axioms))
    monkeypatch.setattr(ncfgl.cli, "left_expand", small_expand)
    monkeypatch.setattr(ncfgl.cli, "filtration_property_run", lambda **kwargs: (True, []))
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
    import ncfgl.cli

    def no_work(*args, **kwargs):
        raise AssertionError("a refused input must not start its computation")

    for name in (
        "commutator_filtration",
        "series_free_assoc",
        "series_graded_algebra",
        "splitting_multiplicities",
        "parity_check_ku",
        "rational_mu_series_check",
        "verify_axioms",
        "filtration_property_run",
    ):
        monkeypatch.setattr(ncfgl.cli, name, no_work)
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
    import ncfgl.cli
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

    monkeypatch.setattr(
        ncfgl.cli, "commutator_filtration",
        small(commutator_filtration, ncfgl.cli.FreeAlgebra().gen(1), 1, 3),
    )
    monkeypatch.setattr(ncfgl.cli, "series_free_assoc", small(series_free_assoc, [2], 3))
    monkeypatch.setattr(ncfgl.cli, "series_graded_algebra", small(series_graded_algebra, [2], [], 3))
    monkeypatch.setattr(ncfgl.cli, "splitting_multiplicities", small(splitting_multiplicities, 2, 3))
    monkeypatch.setattr(ncfgl.cli, "parity_check_ku", small(parity_check_ku, 2, 3))
    monkeypatch.setattr(ncfgl.cli, "rational_mu_series_check", small(rational_mu_series_check, 3))
    monkeypatch.setattr(ncfgl.cli, "filtration_property_run", small_run)
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
    import ncfgl.cli

    def no_work(*args, **kwargs):
        raise AssertionError("a refused input must not start its computation")

    for name in ("right_action", "commutator_filtration", "series_graded_algebra"):
        monkeypatch.setattr(ncfgl.cli, name, no_work)
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
    import ncfgl.cli
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

    monkeypatch.setattr(ncfgl.cli, "right_action", cheap_action)
    monkeypatch.setattr(ncfgl.cli, "commutator_filtration", cheap_commutator)
    monkeypatch.setattr(ncfgl.cli, "series_graded_algebra", cheap_series)
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
