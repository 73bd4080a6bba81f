import importlib
import os
import pickle
import subprocess
import sys

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


def test_records_take_positional_and_keyword_arguments():
    by_position = AxiomReport(3, True, True, False, True, {"associativity": "x"})
    by_keyword = AxiomReport(
        order=3, unit_ok=True, commutativity_ok=True, associativity_ok=False, inverse_ok=True,
        failures={"associativity": "x"},
    )
    assert by_position == by_keyword
    assert by_position.associativity_ok is False and not by_position.all_ok
    mixed = MilnorOp(3, "P", index=2)
    assert (mixed.prime, mixed.kind, mixed.index) == (3, "P", 2)


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


def test_default_dicts_are_fresh_per_instance():
    first, second = AxiomReport(3, True, True, True, True), AxiomReport(3, True, True, True, True)
    assert first.failures == {} and first.failures is not second.failures
    first.failures["unit"] = "detail"
    assert second.failures == {}
    a, b = (ObstructionCertificate(3, [], [], [], "INFEASIBLE") for _ in range(2))
    assert a.centralizers == {} and a.centralizers is not b.centralizers
    assert a == b and a.infeasible


def test_record_equality_and_repr():
    series = PoincareSeries(2, [1, 0, 1])
    report = ParityReport(2, 2, series, series, None, True, "INCONCLUSIVE")
    assert report == ParityReport(2, 2, series, series, None, True, "INCONCLUSIVE")
    assert report != ParityReport(3, 2, series, series, None, True, "INCONCLUSIVE")
    assert report != "INCONCLUSIVE"
    assert repr(MilnorOp(3, "P", 1)) == "MilnorOp(prime=3, kind='P', index=1)"
    assert repr(AxiomReport(2, True, True, True, True)) == (
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
    assert report.unit_ok and report.all_ok
    certificate = ObstructionCertificate(3, [], [], [], "INFEASIBLE")
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
    import ast
    from pathlib import Path

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
