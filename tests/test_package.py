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
        (ncfgl.VarSet(("x", "y"), 2), "names"),
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
        (ncfgl.VarSet(["x", "y"], 2), ncfgl.VarSet(("x", "y"), 2)),
        (PoincareSeries(2, [1, 0, 1]), PoincareSeries(2, (1, 0, 1))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a
    assert ncfgl.GF(5) != ncfgl.GF(7) and ncfgl.ZZ != ncfgl.QQ
    assert ncfgl.FreeAlgebra() != ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.QQ)
    assert ncfgl.COMPLEX != ncfgl.GradingProfile("complex", "W")
    assert ncfgl.VarSet(("x",), 2) != ncfgl.VarSet(("x",), 1)


def test_values_pickle_round_trip():
    from ncfgl.steenrod import TensorAlgebra

    gf3 = ncfgl.FreeAlgebra(ncfgl.COMPLEX, ncfgl.GF(3))
    values = [
        ncfgl.FreeAlgebra(),
        gf3,
        ncfgl.ZZ,
        ncfgl.QQ,
        ncfgl.GF(3),
        ncfgl.VarSet(("x", "y"), 2),
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
