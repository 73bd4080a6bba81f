"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ToolkitError):
    """An argument is outside the documented range (bad order, bad prime, ...)."""


class ModeMismatchError(ToolkitError):
    """Operands live over different scalar rings or generator profiles."""


class ShapeError(ToolkitError):
    """Operands disagree in shape: series in variable set or truncation order,
    or a right-hand side naming a row that its linear system lacks."""


class DegenerateInputError(ToolkitError):
    """The input makes the requested computation vacuous (e.g. centralizer of 0)."""


class UnsupportedInputError(ToolkitError):
    """The input is structurally valid but outside what the operation handles."""


class ComposabilityError(ToolkitError):
    """Substitution target has a nonzero constant term."""


class ReversionError(ToolkitError):
    """Series is not of the form x + (higher order), so it has no reversion."""


class ExpansionError(ToolkitError):
    """Basis series are not of unit-linear form, so left expansion fails."""


class IncompleteTableError(ToolkitError):
    """A generator action table lacks an entry needed by the Cartan rule."""


class DivisionError(ToolkitError):
    """Power series division by a series whose constant term is not 1."""


class ConsistencyError(ToolkitError):
    """A computed result violates a postcondition that should hold identically."""
