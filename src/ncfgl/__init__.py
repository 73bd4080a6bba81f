"""Exact symbolic toolkit for a formal group law with noncommuting coefficients.

The package computes in graded free associative algebras (non-symmetric
functions), in truncated power series over them with central variables kept in
left-normal form, with the resulting formal group law and inverse series, with
the mod-p dual Steenrod algebra and its right actions, and with integer
Poincaré series; it also produces finite obstruction certificates and exposes
everything through a deterministic command line interface.
"""

from .commalg import CommAlgebra, CommElement, frobenius
from .errors import (
    ComposabilityError,
    ConsistencyError,
    DegenerateInputError,
    DivisionError,
    ExpansionError,
    IncompleteTableError,
    ModeMismatchError,
    ParameterError,
    ReversionError,
    ShapeError,
    ToolkitError,
    UnsupportedInputError,
)
from .fgl import (
    AxiomReport,
    FGLTable,
    FiltrationResult,
    InverseTable,
    commutator_filtration,
    fgl_table,
    filtration_property_run,
    inverse_table,
    orientation_series,
    verify_axioms,
)
from .freealg import (
    COMPLEX,
    REAL,
    FreeAlgebra,
    FreeElement,
    GradingProfile,
    centralizer_basis,
    commutator,
    random_homogeneous,
)
from .gradebook import (
    ParityReport,
    PoincareSeries,
    RationalComparisonReport,
    parity_check_ku,
    rational_mu_series_check,
    series_divide,
    series_free_assoc,
    series_graded_algebra,
    splitting_multiplicities,
)
from .scalars import GF, QQ, ZZ, ScalarRing, is_prime
from .series import CentralSeries, VarSet, left_expand, left_substitute, revert
from .steenrod import (
    GeneratorActionTable,
    MilnorOp,
    ObstructionCertificate,
    TensorElement,
    antipode,
    bp_coaction,
    bp_homology,
    bp_obstruction_certificate,
    cartan_extend,
    conjugate_generator,
    coproduct,
    counit,
    dual_steenrod,
    hf2_obstruction_certificate,
    lucas_binomial,
    milnor_pair,
    nsym_action,
    right_action,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
