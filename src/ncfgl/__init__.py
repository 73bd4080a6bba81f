"""Exact symbolic toolkit for a formal group law with noncommuting coefficients.

The package computes in graded free associative algebras (non-symmetric
functions), in truncated power series over them with central variables kept in
left-normal form, with the resulting formal group law and inverse series, with
the mod-p dual Steenrod algebra and its right actions, and with integer
Poincaré series; it also produces finite obstruction certificates and exposes
everything through a deterministic command line interface.

``import ncfgl`` loads no submodule: each public name is imported from its
submodule on first access (PEP 562) and then kept in the package namespace.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_ORIGIN = {
    name: module
    for module, names in {
        "commalg": ("CommAlgebra", "CommElement", "frobenius"),
        "errors": (
            "ComposabilityError", "ConsistencyError", "DegenerateInputError", "DivisionError",
            "ExpansionError", "IncompleteTableError", "ModeMismatchError", "ParameterError",
            "ReversionError", "ShapeError", "ToolkitError", "UnsupportedInputError",
        ),
        "fgl": (
            "AxiomReport", "FGLTable", "FiltrationResult", "InverseTable",
            "commutator_filtration", "fgl_table", "filtration_property_run", "inverse_table",
            "orientation_series", "verify_axioms",
        ),
        "freealg": (
            "COMPLEX", "REAL", "FreeAlgebra", "FreeElement", "GradingProfile", "commutator",
            "random_homogeneous",
        ),
        "gradebook": (
            "ParityReport", "PoincareSeries", "RationalComparisonReport", "parity_check_ku",
            "rational_mu_series_check", "series_divide", "series_free_assoc",
            "series_graded_algebra", "splitting_multiplicities",
        ),
        "scalars": ("GF", "QQ", "ZZ", "ScalarRing", "is_prime"),
        "series": ("CentralSeries", "VarSet", "left_expand", "left_substitute", "revert"),
        "steenrod": (
            "GeneratorActionTable", "MilnorOp", "ObstructionCertificate", "TensorElement",
            "antipode", "bp_coaction", "bp_homology", "bp_obstruction_certificate",
            "cartan_extend", "centralizer_basis", "conjugate_generator", "coproduct", "counit",
            "dual_steenrod", "hf2_obstruction_certificate", "lucas_binomial", "milnor_pair",
            "nsym_action", "right_action",
        ),
    }.items()
    for name in names
}
_SUBMODULES = (
    "commalg", "errors", "fgl", "freealg", "gradebook", "linalg", "lincomb", "scalars",
    "series", "steenrod",
)

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
