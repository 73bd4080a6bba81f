import ast
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncfgl
from ncfgl import AxiomReport, MilnorOp, ObstructionCertificate, ParityReport, PoincareSeries

PUBLIC = [
    "AxiomReport", "COMPLEX", "CentralSeries", "CommAlgebra", "CommElement",
    "ComposabilityError", "ConsistencyError", "DegenerateInputError", "DivisionError",
    "ExpansionError", "FGLTable", "FiltrationResult", "FreeAlgebra", "FreeElement", "GF",
    "GeneratorActionTable", "GradingProfile", "IncompleteTableError", "InverseTable", "MilnorOp",
    "ModeMismatchError", "ObstructionCertificate", "ParameterError", "ParityReport",
    "PoincareSeries", "QQ", "REAL", "RationalComparisonReport", "ReversionError", "ScalarRing",
    "ShapeError", "TensorElement", "ToolkitError", "UnsupportedInputError", "VarSet", "ZZ",
    "antipode", "bp_coaction", "bp_homology", "bp_obstruction_certificate", "cartan_extend",
    "centralizer_basis", "commalg", "commutator", "commutator_filtration", "conjugate_generator",
    "coproduct", "counit", "dual_steenrod", "errors", "fgl", "fgl_table",
    "filtration_property_run", "freealg", "frobenius", "gradebook",
    "hf2_obstruction_certificate", "inverse_table", "is_prime", "left_expand", "left_substitute",
    "linalg", "lincomb", "lucas_binomial", "milnor_pair", "nsym_action", "orientation_series",
    "parity_check_ku", "random_homogeneous", "rational_mu_series_check", "revert",
    "right_action", "scalars", "series", "series_divide", "series_free_assoc",
    "series_graded_algebra", "splitting_multiplicities", "steenrod", "verify_axioms",
]
SUBMODULES = [
    "commalg", "errors", "fgl", "freealg", "gradebook", "linalg", "lincomb", "scalars",
    "series", "steenrod",
]


# -- the lazy namespace -------------------------------------------------------------


def test_public_names_are_unchanged():
    assert len(PUBLIC) == 80
    assert sorted(ncfgl.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(ncfgl))


def test_each_name_is_the_object_its_submodule_defines():
    modules = {name: importlib.import_module(f"ncfgl.{name}") for name in SUBMODULES}
    for name in PUBLIC:
        value = getattr(ncfgl, name)
        if name in modules:
            assert value is modules[name]
            continue
        holders = {
            f"ncfgl.{m}" for m, module in modules.items() if getattr(module, name, None) is value
        }
        assert holders, name
        home = getattr(value, "__module__", None)
        if callable(value) and home is not None:
            assert home in holders, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ncfgl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncfgl.no_such_name
    with pytest.raises(ImportError):
        exec("from ncfgl import no_such_name", {})


def test_each_submodule_is_an_attribute_of_the_package():
    # the module's __getattr__ runs for a submodule not yet bound as an
    # attribute; call it directly, since earlier tests may have bound them all
    for name in ("commalg", "gradebook", "linalg", "scalars"):
        assert ncfgl.__getattr__(name) is importlib.import_module(f"ncfgl.{name}")


def test_import_loads_submodules_on_first_use():
    script = (
        "import sys, ncfgl\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('ncfgl.'))\n"
        "print(loaded())\n"
        "ncfgl.parity_check_ku\n"
        "print(loaded())\n"
        "print('parity_check_ku' in vars(ncfgl), ncfgl.__version__)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncfgl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout.splitlines()
    assert out[0] == "[]"
    assert "'ncfgl.gradebook'" in out[1]
    assert "'ncfgl.fgl'" not in out[1] and "'ncfgl.steenrod'" not in out[1]
    assert out[2] == "True 0.1.0"


# -- the record classes -------------------------------------------------------------


def test_records_take_their_fields_by_position_only():
    by_position = AxiomReport(3, True, True, False, True, {"associativity": "x"})
    assert by_position.associativity_ok is False and by_position.unit_ok is True
    with pytest.raises(TypeError):
        AxiomReport(
            order=3, unit_ok=True, commutativity_ok=True, associativity_ok=False,
            inverse_ok=True, failures={"associativity": "x"},
        )
    with pytest.raises(TypeError):
        ObstructionCertificate(3, [], [], [], "INFEASIBLE", centralizers={})


def test_record_constructors_refuse_bad_arguments():
    with pytest.raises(TypeError):
        AxiomReport(3, True, True, True)
    with pytest.raises(TypeError):
        AxiomReport(3, True, True, True, True, {}, "extra")
    with pytest.raises(TypeError):
        AxiomReport(3, True, True, True, True, colour="red")
    with pytest.raises(TypeError):
        AxiomReport(3, True, True, True, True, order=4)
    with pytest.raises(TypeError):
        MilnorOp(3, "P")


def test_records_have_no_default_fields():
    # every field is passed: a passing report's failures and a certificate
    # without centralizers are given as {}
    with pytest.raises(TypeError):
        AxiomReport(3, True, True, True, True)
    with pytest.raises(TypeError):
        ObstructionCertificate(3, [], [], [], "INFEASIBLE")
    report = AxiomReport(3, True, True, True, True, {})
    assert report.failures == {} and report == ncfgl.verify_axioms(3)


def test_record_equality_and_repr():
    series = PoincareSeries(2, [1, 0, 1])
    report = ParityReport(2, 2, series, series, None, True, "INCONCLUSIVE")
    assert report == ParityReport(2, 2, series, series, None, True, "INCONCLUSIVE")
    assert report != ParityReport(3, 2, series, series, None, True, "INCONCLUSIVE")
    assert report != "INCONCLUSIVE"
    assert repr(MilnorOp(3, "P", 1)) == "MilnorOp(prime=3, kind='P', index=1)"
    assert repr(AxiomReport(2, True, True, True, True, {})) == (
        "AxiomReport(order=2, unit_ok=True, commutativity_ok=True, associativity_ok=True, "
        "inverse_ok=True, failures={})"
    )
    with pytest.raises(TypeError):
        hash(report)  # records are unhashable unless their class says otherwise


def test_record_fields_cannot_be_assigned_or_deleted():
    report = ncfgl.verify_axioms(3)
    with pytest.raises(AttributeError):
        report.unit_ok = False
    with pytest.raises(AttributeError):
        del report.unit_ok
    assert report.unit_ok and report.failures == {}
    certificate = ObstructionCertificate(3, [], [], [], "INFEASIBLE", {})
    with pytest.raises(AttributeError):
        certificate.centralizers = {"w": []}
    assert certificate.centralizers == {}
    assert pickle.loads(pickle.dumps(certificate)) == certificate


def test_milnor_op_is_hashable_and_immutable():
    op = MilnorOp(3, "P", 1)
    assert op == MilnorOp(3, "P", 1) and hash(op) == hash(MilnorOp(3, "P", 1))
    assert len({op, MilnorOp(3, "P", 1), MilnorOp(3, "P", 2)}) == 2
    with pytest.raises(AttributeError):
        op.index = 2
    with pytest.raises(AttributeError):
        del op.index
    assert op.index == 1
    assert pickle.loads(pickle.dumps(op)) == op


# -- no runtime dependencies -----------------------------------------------------


def test_the_package_imports_only_the_standard_library():
    root = Path(ncfgl.__file__).parent
    sources = sorted(root.glob("*.py"))
    assert len(sources) > len(SUBMODULES)  # the walk reaches every submodule
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (source.name, module)
    pyproject = (root.parent.parent / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in pyproject


# -- one documented public surface ------------------------------------------------


def _readme_code_names() -> set:
    """Every identifier inside an inline code span of README, outside the
    fenced blocks."""
    readme = (Path(ncfgl.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    return {name for span in re.findall(r"`([^`]+)`", prose) for name in re.findall(r"\w+", span)}


def _public_definitions(tree) -> list:
    """(qualified name, name, definition) of each public module-level
    function and class and each public method or property of such a class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name, item)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def _reached_names(tree) -> list:
    """(name, line) of each name the module reaches: an ``ast.Name``, the
    attribute of an ``ast.Attribute`` and the string of a ``getattr(x, "...")``."""
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reached.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reached.append((node.attr, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            reached.append((node.args[1].value, node.lineno))
    return reached


def test_every_public_name_is_documented_or_reached_from_src():
    # a public function, class, method or property of src/ncfgl that README
    # names in no code span and that no module reaches outside its own
    # definition serves only the tests: document it or delete it
    named = _readme_code_names()
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(
        Path(ncfgl.__file__).parent.glob("*.py")
    )}
    reached = [
        (module, name, line) for module, tree in trees.items() for name, line in _reached_names(tree)
    ]
    unreached = []
    for module, tree in trees.items():
        for qualified, name, node in _public_definitions(tree):
            if name in named or any(
                other == name and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, other, line in reached
            ):
                continue
            unreached.append(f"{module}:{node.lineno} {qualified}")
    assert len(trees) > len(SUBMODULES) and named
    assert unreached == [], "public but neither in README nor reached from src: " + ", ".join(
        unreached
    )


# -- values are records ---------------------------------------------------------------


def _value_instances():
    """One instance of each value class, with a field to try to assign."""
    from ncfgl.steenrod import TensorAlgebra

    gf3 = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.GF(3))
    real = ncfgl.FreeAlgebra(ncfgl.REAL, ncfgl.GF(3))
    return [
        (ncfgl.ZZ, "mode"),
        (ncfgl.QQ, "prime"),
        (ncfgl.GF(3), "prime"),
        (ncfgl.COMPLEX, "kind"),
        (ncfgl.REAL, "letter"),
        (ncfgl.GradingProfile.custom((1, 3)), "degrees"),
        (ncfgl.VarSet(("x", "y")), "names"),
        (PoincareSeries(2, [1, 0, 1]), "dims"),
        (gf3, "ring"),
        (TensorAlgebra(gf3, real), "left"),
        (ncfgl.fgl_table(4), "order"),
        (ncfgl.inverse_table(4), "order"),
        (ncfgl.GeneratorActionTable(gf3, "P", 3, {(1, 2): gf3.gen(1)}), "entries"),
    ]


def test_value_fields_cannot_be_assigned():
    for value, field in _value_instances():
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before, type(value).__name__


def test_values_built_separately_are_equal_and_hash_equal():
    pairs = [
        (ncfgl.ScalarRing("integer"), ncfgl.ZZ),
        (ncfgl.ScalarRing("rational"), ncfgl.QQ),
        (ncfgl.GF(5), ncfgl.ScalarRing("fp", 5)),
        (ncfgl.GradingProfile("complex", "Z"), ncfgl.COMPLEX),
        (ncfgl.GradingProfile.custom([1, 3]), ncfgl.GradingProfile.custom((1, 3))),
        (ncfgl.FreeAlgebra(), ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.ZZ)),
        (ncfgl.FreeAlgebra(ncfgl.REAL, ncfgl.GF(2)), ncfgl.FreeAlgebra(ncfgl.REAL, ncfgl.GF(2))),
        (ncfgl.VarSet(["x", "y"]), ncfgl.VarSet(("x", "y"))),
        (PoincareSeries(2, [1, 0, 1]), PoincareSeries(2, (1, 0, 1))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a
    assert ncfgl.GF(5) != ncfgl.GF(7) and ncfgl.ZZ != ncfgl.QQ
    assert ncfgl.FreeAlgebra() != ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.QQ)
    assert ncfgl.COMPLEX != ncfgl.GradingProfile("complex", "W")
    assert ncfgl.VarSet(("x", "y")) != ncfgl.VarSet(("y", "x"))


def test_values_pickle_round_trip():
    from ncfgl.steenrod import TensorAlgebra

    gf3 = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.GF(3))
    values = [
        ncfgl.FreeAlgebra(),
        gf3,
        ncfgl.ZZ,
        ncfgl.QQ,
        ncfgl.GF(3),
        ncfgl.VarSet(("x", "y")),
        PoincareSeries(3, [1, 0, 2, 0]),
        ncfgl.fgl_table(5),
        ncfgl.fgl_table(4, gf3),
        TensorAlgebra(gf3, ncfgl.FreeAlgebra(ncfgl.REAL, ncfgl.GF(3))),
    ]
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert copy is not value and copy == value and type(copy) is type(value), value
    assert repr(pickle.loads(pickle.dumps(gf3))) == repr(gf3)


def _elements_series_and_commutative_algebras():
    """One instance of each element class, of a series and of each kind of
    commutative algebra, with a field to try to assign."""
    from ncfgl.steenrod import TensorElement

    xi = ncfgl.dual_steenrod(3)
    return [
        (ncfgl.FreeAlgebra().gen(1), "algebra"),
        (ncfgl.FreeAlgebra().gen(1), "_terms"),
        (ncfgl.bp_homology(3).gen(1), "algebra"),
        (TensorElement.tensor(xi.gen(1), xi.gen(1)), "_terms"),
        (ncfgl.orientation_series(6), "order"),
        (ncfgl.orientation_series(6), "_coeffs"),
        (xi, "ring"),
        (ncfgl.bp_homology(3), "kind"),
        (ncfgl.CommAlgebra.with_degrees("w", (4,), ncfgl.GF(3)), "degrees"),
    ]


def test_elements_series_and_commutative_algebras_refuse_assignment():
    for value, field in _elements_series_and_commutative_algebras():
        before = getattr(value, field)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.GF(3)))
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
        assert getattr(value, field) is before, type(value).__name__


def test_every_class_of_the_package_is_a_record_an_error_or_a_parser_action():
    import argparse
    import inspect

    from ncfgl.record import Record

    for name in SUBMODULES + ["cli", "record"]:
        module = importlib.import_module(f"ncfgl.{name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                assert issubclass(cls, (Record, Exception, argparse.Action)), cls


def test_steenrod_algebras_elements_and_series_pickle_round_trip():
    gf3 = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.GF(3))
    values = [ncfgl.orientation_series(5), ncfgl.orientation_series(4, gf3)]
    for p in (2, 3, 5):
        xi, t = ncfgl.dual_steenrod(p), ncfgl.bp_homology(p)
        values += [xi, t, xi.gen(2) * xi.gen(1) ** 2 - xi.one(), t.gen(1) ** p + t.gen(3)]
        values.append(ncfgl.coproduct(xi.gen(2) * xi.gen(1)))
        if p != 2:
            values.append(ncfgl.bp_coaction(t.gen(2)))
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert copy is not value and copy == value and type(copy) is type(value), value
        assert str(copy) == str(value)
        if not isinstance(value, ncfgl.CentralSeries):
            assert hash(copy) == hash(value)


def test_slot_less_record_subclasses_keep_their_parents_fields():
    class Sub(MilnorOp):
        __slots__ = ()

    op = Sub(3, "P", 1)
    assert (op.prime, op.kind, op.index) == (3, "P", 1)
    assert op == Sub(3, kind="P", index=1) and op != MilnorOp(3, "P", 1)
    assert repr(op) == "Sub(prime=3, kind='P', index=1)"


def test_plain_gives_the_json_form_of_nested_values():
    from types import MappingProxyType

    from ncfgl.record import plain

    element = ncfgl.FreeAlgebra().gen(1).scale(2)
    value = {"a": (1, [element]), "b": MappingProxyType({"c": PoincareSeries.one(1)}), "d": None}
    assert plain(value) == {
        "a": [1, [[{"word": [1], "coeff": "2"}]]],
        "b": {"c": {"order": 1, "dims": [1, 0]}},
        "d": None,
    }
    assert plain("text") == "text" and plain(3) == 3


def test_records_that_opt_in_serialize_their_fields_in_order():
    from ncfgl.fgl import Expansion, Verification
    from ncfgl.record import Record
    from ncfgl.steenrod import Action

    series = PoincareSeries(2, [1, 0, 1])
    report = ncfgl.rational_mu_series_check(4)
    for value in (
        series,
        ParityReport(2, 2, series, series, None, True, "INCONCLUSIVE"),
        report,
        ObstructionCertificate(3, ("w",), [{"degree": 4}], [], "INFEASIBLE", {"w": ("v",)}),
        Expansion({"x": {"x": -1}}, 3, ({"exponents": [1], "element": ncfgl.FreeAlgebra().one()},)),
        Verification(3, 0, [("unit", True)], AxiomReport(3, True, True, True, True, {}), 5),
        Action(2, "Sq1", "z1", ncfgl.FreeAlgebra(ncfgl.REAL, ncfgl.GF(2)).one()),
    ):
        assert type(value).to_data is Record._data
        data = value.to_data()
        assert list(data) == list(type(value)._fields), value
    assert report.to_data()["constructed"] == report.constructed.to_data()


def test_negative_verdicts_read_as_ok_false():
    series = PoincareSeries(2, [1, 0, 1])
    assert ncfgl.hf2_obstruction_certificate().ok is True
    assert ObstructionCertificate(3, [], [], [{}], "FEASIBLE", {}).ok is False
    assert ncfgl.parity_check_ku(2, 20).ok is True
    assert ncfgl.parity_check_ku(2, 8).ok is False
    assert ParityReport(2, 2, series, series, None, True, "INCONCLUSIVE").ok is False
    assert ncfgl.rational_mu_series_check(10).ok is True
    assert ncfgl.RationalComparisonReport(2, series, PoincareSeries.one(2), False).ok is False


def test_verification_checks_are_read_only_and_decide_ok():
    from ncfgl.fgl import Verification

    axioms = AxiomReport(3, True, True, True, True, {})
    passing = Verification(3, 0, [("unit", True), ("filtration", True)], axioms, 2)
    failing = Verification(3, 0, [("unit", True), ("filtration", False)], axioms, 2)
    assert passing.ok and not failing.ok
    with pytest.raises(TypeError):
        passing.checks["unit"] = False
    copy = pickle.loads(pickle.dumps(failing))
    assert copy == failing and str(copy) == str(failing) and not copy.ok
    assert str(failing).splitlines() == [
        "verification at order 3 (seed 0)",
        "          unit: PASS",
        "    filtration: FAIL",
        "filtration samples: 2",
    ]
