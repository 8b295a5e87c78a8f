"""Cross-check of the gas constraints against an independent sympy
derivation (tools/oracles/gas1d_oracle.py), which shares no code with the
package."""

import importlib.util
import pathlib
from fractions import Fraction

import pytest

from entropik.atoms import ConstitPartial, ConstitSym, JetVar
from entropik.expr import ZERO, Expr
from entropik.render import expr_str

from test_split import GAS_CONSTRAINTS

sp = pytest.importorskip("sympy")

ORACLE = pathlib.Path(__file__).resolve().parents[1] / "tools" / "oracles" / "gas1d_oracle.py"

FIELDS = ("rho", "u", "eps")
ARGS = ("rho", "eps")  # every gas1d material function depends on (rho, eps)


def _oracle():
    spec = importlib.util.spec_from_file_location("gas1d_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _atom(node):
    """The entropik atom for a sympy field, material function or partial."""
    if isinstance(node, sp.Derivative):
        slots = [0] * len(ARGS)
        for var, k in node.variable_count:
            slots[ARGS.index(var.func.__name__)] += k
        return ConstitPartial(node.expr.func.__name__, tuple(slots))
    name = node.func.__name__
    return JetVar(name, (0, 0)) if name in FIELDS else ConstitSym(name)


def _to_expr(c):
    """A sympy polynomial in those atoms, as an entropik Expr."""
    atoms = {}
    for kind in (sp.Derivative, sp.core.function.AppliedUndef):
        nodes = c.atoms(kind)
        names = {n: sp.Symbol(f"a{len(atoms) + i}") for i, n in enumerate(nodes)}
        atoms.update({s: _atom(n) for n, s in names.items()})
        c = c.xreplace(names)
    gens = list(atoms)
    total = ZERO
    for exps, coeff in sp.Poly(c, *gens).terms():
        term = Expr.rational(Fraction(int(coeff.p), int(coeff.q)))
        for g, k in zip(gens, exps):
            term = term * Expr.atom(atoms[g]) ** k
        total = total + term
    return total


def test_sympy_derivation_matches_gas_constraints(gas):
    residual, constraints = _oracle().derive()
    assert residual == 0
    rc = gas.render_ctx()
    got = set()
    for c in constraints:
        num, den = sp.fraction(sp.cancel(sp.together(c)))
        assert den == 1
        e = _to_expr(sp.expand(num))
        s = expr_str(e, rc)
        got.add(s if s in GAS_CONSTRAINTS else expr_str(-e, rc))
    assert len(constraints) == len(GAS_CONSTRAINTS)
    assert got == GAS_CONSTRAINTS
