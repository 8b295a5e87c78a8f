"""Coefficient splitting: constraint identities and residual inequality.

The gas constraint strings below were re-derived independently with a
computer-algebra system (tools/oracles/gas1d_oracle.py) and frozen here;
tests/test_sympy_oracle.py re-runs that derivation where sympy is installed.
"""

import dataclasses

import pytest

from entropik.atoms import ConstitSym, JetVar
from entropik.expr import ONE, ZERO, Expr, monomial_expr
from entropik.render import atom_str, expr_str
from entropik.split import ConstraintSystem, numeric_oracle, split

from conftest import load_model, solution_run

ALL_MODELS = ["gas1d", "fluid2d", "nonsimple2d", "granular2d"]

GAS_CONSTRAINTS = {
    "deta/deps*dq1/deps - dPhi1/deps",
    "deta/deps*dq1/drho - dPhi1/drho",
    "rho^2*deta/drho + p*deta/deps",
}

FLUID_CONSTRAINTS = {
    "deta/dtheta*dq2/drho - dPhi2/drho*deps/dtheta",
    "deta/dtheta*dq1/drho - dPhi1/drho*deps/dtheta",
    "deta/dtheta*dq2/dtheta_y - dPhi2/dtheta_y*deps/dtheta",
    "deta/dtheta*dq2/dtheta_x + deta/dtheta*dq1/dtheta_y"
    " - dPhi2/dtheta_x*deps/dtheta - dPhi1/dtheta_y*deps/dtheta",
    "deta/dtheta*dq1/dtheta_x - dPhi1/dtheta_x*deps/dtheta",
    "T12*deta/dtheta",
    "rho^2*deps/drho*deta/dtheta - rho^2*deps/dtheta*deta/drho"
    " + T11*deta/dtheta",
    "rho^2*deps/drho*deta/dtheta - rho^2*deps/dtheta*deta/drho"
    " + T22*deta/dtheta",
}

FLUID_RESIDUAL = (
    "(-theta_x*deta/dtheta*dq1/dtheta + theta_x*dPhi1/dtheta*deps/dtheta"
    " - theta_y*deta/dtheta*dq2/dtheta + theta_y*dPhi2/dtheta*deps/dtheta"
    ")/(deps/dtheta)"
)


def _strings(cs, m):
    rc = m.render_ctx()
    return {expr_str(c, rc) for c in cs.constraints}


def test_gas_constraints_exact(gas):
    cs = solution_run("gas1d").system
    assert _strings(cs, gas) == GAS_CONSTRAINTS
    assert cs.residual.is_zero()
    assert cs.symmetrization == ()


def test_fluid_constraints_exact(fluid):
    cs = solution_run("fluid2d").system
    assert _strings(cs, fluid) == FLUID_CONSTRAINTS
    rc = fluid.render_ctx()
    assert expr_str(cs.residual, rc) == FLUID_RESIDUAL
    assert "deps/dtheta" in [expr_str(e, rc) for e in cs.nonzero]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_reconstruction_identity(name):
    # residual + sum(coeff * monomial) == entropy numerator, exactly
    m = load_model(name)
    cs = solution_run(name).system
    total = cs.residual_numerator
    for mono, coeff in cs.table:
        total = total + coeff * monomial_expr(mono)
    assert total == cs.reconstruction()
    # and every constraint is one of the normalized coefficients
    assert len(cs.constraints) == len(set(cs.constraints))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_free_elements_are_not_consequences(name):
    m = load_model(name)
    cs = solution_run(name).system
    for a in cs.free_elements:
        assert not m.is_consequence(a)


def test_granular_symmetrization_per_symbol(granular):
    cs = solution_run("granular2d").system
    assert cs.residual_numerator != ZERO
    # one constraint per declared symmetric pair, for all twelve symbols
    assert len(cs.symmetrization) == sum(
        len(d.symmetric) for d in granular.decls
    )
    sym_names = set()
    for e in cs.symmetrization:
        sym_names.update(a.name for a in e.atoms())
    assert sym_names == {d.name for d in granular.decls}


@pytest.mark.parametrize("name", ["gas1d", "fluid2d"])
def test_numeric_oracle_passes(name):
    run = solution_run(name)
    rep = numeric_oracle(run.system, trials=30, seed=3)
    assert rep.ok
    assert rep.identity_passes == 30


def test_numeric_oracle_catches_tampering(gas):
    run = solution_run("gas1d")
    cs = run.system
    # corrupt one stored coefficient: the rebuilt numerator no longer
    # matches the residual on the constraint variety
    bad_table = list(cs.table)
    mono, coeff = bad_table[0]
    bad_table[0] = (mono, coeff + 1)
    tampered = dataclasses.replace(cs, table=tuple(bad_table))
    rep = numeric_oracle(tampered, trials=10, seed=3)
    assert not rep.ok
    f = rep.failures[0]
    assert f.witness  # a concrete rational counterexample point


def test_oracle_catches_wrong_constraint(gas):
    run = solution_run("gas1d")
    cs = run.system
    # replace a constraint by something the variety check cannot absorb
    wrong = (Expr.atom(ConstitSym("p")) + 1,) + cs.constraints[1:]
    tampered = dataclasses.replace(cs, constraints=wrong)
    rep = numeric_oracle(tampered, trials=10, seed=3)
    assert not rep.ok


def test_split_denominator_certified(fluid):
    cs = solution_run("fluid2d").system
    rc = fluid.render_ctx()
    assert expr_str(cs.denominator, rc) == "deps/dtheta"


def _one_constraint_system(constraint, residual):
    # entropy numerator v*constraint + residual over one free element v
    v = JetVar("rho", (1,))
    return ConstraintSystem(
        constraints=(constraint,),
        residual_numerator=residual,
        denominator=ONE,
        nonzero=(),
        free_elements=(v,),
        table=((((v, 1),), constraint),),
    )


def test_oracle_repair_solves_a_linear_unknown_exactly():
    a, b = Expr.atom(ConstitSym("a")), Expr.atom(ConstitSym("b"))
    # a ranks first but is squared, so the repair goes through the linear
    # b = a^2/2; solving through a would leave the constraint nonzero
    cs = _one_constraint_system(2 * b - a**2, a**2)
    rep = numeric_oracle(cs, trials=20, seed=1)
    assert rep.ok
    assert rep.identity_passes == 20
    assert rep.variety_passes == 20
    assert rep.variety_skips == 0


def test_oracle_never_repairs_through_a_squared_unknown():
    f, g = Expr.atom(ConstitSym("f")), Expr.atom(ConstitSym("g"))
    # both unknowns are squared: no linear repair exists, so every trial
    # is a skip (the point stays off the variety), never a failure
    cs = _one_constraint_system(f**2 + g**2 + 1, g)
    rep = numeric_oracle(cs, trials=20, seed=1)
    assert rep.ok
    assert rep.identity_passes == 20
    assert rep.variety_passes == 0
    assert rep.variety_skips == 20
