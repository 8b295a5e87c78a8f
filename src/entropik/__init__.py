"""Symbolic engine for entropy-principle analysis of constitutive models.

Given a system of balance equations, constitutive functions with declared
dependencies, and an entropy inequality, the engine derives the constraint
identities and residual entropy inequality that hold on the solution set of
the system, and contrasts them with the classical Lagrange-multiplier
(Liu-identity) procedure.
"""

__version__ = "0.1.0"

from .backend import BACKEND

__all__ = ["__version__", "BACKEND"]
