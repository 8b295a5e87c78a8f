"""Engine error types.

Every error carries a stable ``code`` used by the CLI for machine-readable
diagnostics.
"""

__all__ = [
    "EngineError",
    "DivisionByZeroExpr",
    "UnknownConstitSym",
    "NotPolynomialInVars",
    "DenominatorVanishes",
    "MissingAssignment",
    "ModelError",
    "NonlinearInLeading",
    "SingularSystem",
    "OrderCapExceeded",
    "SingularConsequence",
    "NotPolynomialInFreeElements",
    "NonlinearExtendedInequality",
    "UnboundSymbol",
    "NonRationalBinding",
    "UnsettledBindings",
    "ReductionCapExceeded",
]


class EngineError(Exception):
    code = "E000"


class DivisionByZeroExpr(EngineError):
    """A denominator normalized to the zero polynomial."""

    code = "E001"


class UnknownConstitSym(EngineError):
    """A constitutive symbol was differentiated without a declaration."""

    code = "E002"


class NotPolynomialInVars(EngineError):
    """collect_coefficients: denominator contains a collection variable."""

    code = "E003"


class DenominatorVanishes(EngineError):
    """Point evaluation (``PointEvaluator``, ``eval_numeric``): the
    denominator evaluates to zero."""

    code = "E004"


class MissingAssignment(EngineError):
    """Point evaluation: an atom of the expression has no assigned value."""

    code = "E005"


class ModelError(EngineError):
    """A ModelDef invariant is violated."""

    code = "E010"


class NonlinearInLeading(EngineError):
    """Equations are not jointly linear in the leading derivatives."""

    code = "E020"


class SingularSystem(EngineError):
    """Structural rank deficiency while solving for leading derivatives."""

    code = "E021"


class OrderCapExceeded(EngineError):
    """Differential-consequence closure exceeded the model's order cap."""

    code = "E022"


class SingularConsequence(EngineError):
    """A required differential consequence cannot be isolated."""

    code = "E023"


class NotPolynomialInFreeElements(EngineError):
    """Splitting: the cleared denominator contains a free element."""

    code = "E030"


class NonlinearExtendedInequality(EngineError):
    """Liu split: the extended inequality is nonlinear in the split set."""

    code = "E040"


# E041 is retired; codes are stable, so it is not reused.


class UnboundSymbol(EngineError):
    """Candidate checking: a binding references an unknown symbol."""

    code = "E050"


class NonRationalBinding(EngineError):
    """Candidate checking: a binding leaves the rational-function fragment."""

    code = "E051"


class UnsettledBindings(EngineError):
    """Candidate checking: a binding refers back to itself."""

    code = "E052"


class ReductionCapExceeded(EngineError):
    """Case trees: a reduction hit its round or substitution-pass cap
    before reaching its fixed point."""

    code = "E060"
