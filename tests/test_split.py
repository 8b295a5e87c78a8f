"""Coefficient splitting: constraint identities and residual inequality.

The gas constraint strings below were re-derived independently with a
computer-algebra system (tools/oracles/gas1d_oracle.py) and frozen here;
tests/test_sympy_oracle.py re-runs that derivation where sympy is installed.
"""

import dataclasses
from fractions import Fraction as Q

import pytest

from entropik.algebra import normalize_constraint
from entropik.atoms import ConstitSym, JetVar
from entropik.expr import ONE, ZERO, Expr, monomial_expr
from entropik.parser import parse_model
from entropik.render import expr_str
from entropik.report import run_solution_set
from entropik.split import entropy_on_solutions, numeric_oracle

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
    run = solution_run(name)
    cs = run.system
    total = cs.residual_numerator
    for mono, coeff in cs.table:
        total = total + coeff * monomial_expr(mono)
    assert total == entropy_on_solutions(m, run.solved).numerator_expr()
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
    m = load_model(name)
    rep = numeric_oracle(m, run.solved, run.system, trials=30, seed=3)
    assert rep.ok
    assert rep.identity_passes == 30


# perfbench's verify gate: trials per model at seed 1
@pytest.mark.parametrize(
    "name, trials",
    [("gas1d", 50), ("fluid2d", 50), ("nonsimple2d", 20), ("granular2d", 3)],
)
def test_numeric_oracle_meets_the_verify_gate(name, trials):
    run = solution_run(name)
    m = load_model(name)
    rep = numeric_oracle(m, run.solved, run.system, trials=trials, seed=1)
    assert rep.ok
    assert rep.identity_passes == trials
    assert rep.variety_passes + rep.variety_skips == trials
    assert rep.variety_passes >= 1


def test_numeric_oracle_reaches_the_granular_variety(granular):
    run = solution_run("granular2d")
    rep = numeric_oracle(granular, run.solved, run.system, trials=20, seed=7)
    assert rep.failures == ()
    assert rep.variety_passes >= 18


def _gas_oracle(solved=None, **system_changes):
    # 20 gas1d trials, on a changed solved map or constraint system
    run = solution_run("gas1d")
    cs = dataclasses.replace(run.system, **system_changes)
    m = load_model("gas1d")
    return numeric_oracle(m, solved or run.solved, cs, trials=20, seed=7)


def _assert_caught(rep, kind):
    # nearly every trial fails, at a witness point of exact rationals
    assert len(rep.failures) >= 18
    assert {f.kind for f in rep.failures} == {kind}
    for f in rep.failures:
        for value in f.witness.values():
            assert "." not in value
            Q(value)


def test_numeric_oracle_catches_tampering(gas):
    cs = solution_run("gas1d").system
    # one stored coefficient off by one: the table no longer rebuilds the
    # model's entropy production
    bad_table = list(cs.table)
    mono, coeff = bad_table[0]
    bad_table[0] = (mono, coeff + ONE)
    _assert_caught(_gas_oracle(table=tuple(bad_table)), "identity")


def test_numeric_oracle_catches_a_flipped_coefficient(gas):
    cs = solution_run("gas1d").system
    bad_table = list(cs.table)
    mono, coeff = bad_table[0]
    bad_table[0] = (mono, -coeff)
    _assert_caught(_gas_oracle(table=tuple(bad_table)), "identity")


def test_numeric_oracle_catches_a_dropped_row_and_constraint(gas):
    cs = solution_run("gas1d").system
    mono, coeff = cs.table[0]
    con, _ = normalize_constraint(coeff, cs.nonzero)
    kept = tuple(c for c in cs.constraints if c != con)
    assert len(kept) == len(cs.constraints) - 1
    _assert_caught(_gas_oracle(table=cs.table[1:], constraints=kept), "identity")


def test_numeric_oracle_catches_a_dropped_solved_entry(gas):
    s = solution_run("gas1d").solved
    rho_t = JetVar("rho", (1, 0))
    assert rho_t in s.substitution
    dropped = {k: v for k, v in s.substitution.items() if k != rho_t}
    _assert_caught(
        _gas_oracle(solved=dataclasses.replace(s, substitution=dropped)), "identity"
    )


def test_numeric_oracle_checks_the_model_equations(gas):
    # the entropy never reads u_t, so only the momentum equation sees a
    # wrong solved value for it
    s = solution_run("gas1d").solved
    u_t = JetVar("u", (1, 0))
    assert u_t not in set(gas.entropy_lhs.atoms())
    wrong = dict(s.substitution)
    wrong[u_t] = wrong[u_t] + ONE
    rep = _gas_oracle(solved=dataclasses.replace(s, substitution=wrong))
    _assert_caught(rep, "identity")
    assert all(f.detail.startswith("momentum is ") for f in rep.failures)


def test_numeric_oracle_fails_a_trial_without_an_admissible_point(gas):
    # a nonzero condition no point meets: no trial may check anything
    rep = _gas_oracle(nonzero=(ZERO,))
    _assert_caught(rep, "point")
    assert rep.identity_passes == 0


def test_numeric_oracle_skips_a_repair_that_zeroes_a_nonzero_factor(gas):
    # every repaired point zeroes the first constraint, here also assumed
    # nonzero, so no trial may count as on the variety
    cs = solution_run("gas1d").system
    rep = _gas_oracle(nonzero=(*cs.nonzero, cs.constraints[0]))
    assert rep.ok
    assert rep.identity_passes == 20
    assert rep.variety_skips == 20


def test_oracle_catches_wrong_constraint(gas):
    cs = solution_run("gas1d").system
    # replace a constraint by one whose variety misses the table's
    wrong = (Expr.atom(ConstitSym("p")) + ONE,) + cs.constraints[1:]
    rep = _gas_oracle(constraints=wrong)
    assert not rep.ok
    assert rep.identity_passes == 20


def test_split_denominator_certified(fluid):
    cs = solution_run("fluid2d").system
    rc = fluid.render_ctx()
    assert expr_str(cs.denominator, rc) == "deps/dtheta"


def tiny_model_text(constraint, residual):
    """A model whose entropy production is ``dx(w)*constraint + residual``,
    so that ``constraint`` is its one constraint."""
    return (
        "independent t x\n"
        "field w\n"
        "constitutive a(w)\nconstitutive b(w)\n"
        "constitutive f(w)\nconstitutive g(w)\n"
        "equation e: dt(w) = 0\n"
        f"entropy: dx(w)*({constraint}) + {residual} >= 0\n"
        "leading: dt(w)\n"
    )


def _tiny_oracle(constraint, residual):
    m = parse_model(tiny_model_text(constraint, residual)).raise_on_error()
    run = run_solution_set(m)
    assert len(run.system.constraints) == 1
    return numeric_oracle(m, run.solved, run.system, trials=20, seed=1)


def test_oracle_repair_solves_a_linear_unknown_exactly():
    # a is squared, so the repair solves the linear b = a^2/2 exactly
    rep = _tiny_oracle("2*b - a^2", "a^2")
    assert rep.ok
    assert rep.identity_passes == 20
    assert rep.variety_passes == 20
    assert rep.variety_skips == 0


def test_oracle_never_repairs_through_a_squared_unknown():
    # both unknowns are squared: no linear repair exists, so every trial
    # is a skip (the point stays off the variety), never a failure
    rep = _tiny_oracle("f^2 + g^2 + 1", "g")
    assert rep.ok
    assert rep.identity_passes == 20
    assert rep.variety_passes == 0
    assert rep.variety_skips == 20
