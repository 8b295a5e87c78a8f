"""Symbolic engine for entropy-principle analysis of constitutive models.

Given a system of balance equations, constitutive functions with declared
dependencies, and an entropy inequality, the engine derives the constraint
identities and residual entropy inequality that hold on the solution set of
the system, and contrasts them with the classical Lagrange-multiplier
(Liu-identity) procedure.
"""

__version__ = "0.1.0"

from .atoms import Atom, ConstitPartial, ConstitSym, IndepVar, JetVar
from .backend import BACKEND
from .expr import (
    Expr,
    ONE,
    ZERO,
    DiffContext,
    collect_coefficients,
    eval_numeric,
    partial_diff,
    substitute,
    total_derivative,
)

__all__ = [
    "__version__",
    "BACKEND",
    "Atom",
    "IndepVar",
    "JetVar",
    "ConstitSym",
    "ConstitPartial",
    "Expr",
    "ONE",
    "ZERO",
    "DiffContext",
    "partial_diff",
    "total_derivative",
    "substitute",
    "collect_coefficients",
    "eval_numeric",
]
