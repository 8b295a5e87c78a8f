"""Acceptance gate: one test per shipping criterion.

Each criterion is timed on a fresh pipeline run (the session-scoped caches
in conftest would hide the wall-clock cost), and every symbolic result is
compared against the independently frozen strings from the unit suites.
"""

import time
from fractions import Fraction as Q

import pytest

from entropik.atoms import ConstitPartial, ConstitSym
from entropik.bindings import (
    BindingSet,
    check_candidate,
    parse_bindings,
    sampled_production,
)
from entropik.cases import build_tree, force_residual
from entropik.expr import Expr, monomial_expr, substitute
from entropik.liu import compare
from entropik.parser import format_model, parse_model
from entropik.render import atom_str, expr_str
from entropik.report import run_liu, run_solution_set
from entropik.split import entropy_on_solutions, numeric_oracle

from conftest import bindings_text, load_model, solution_run
from test_split import FLUID_CONSTRAINTS, FLUID_RESIDUAL, GAS_CONSTRAINTS

ALL_MODELS = ["gas1d", "fluid2d", "nonsimple2d", "granular2d"]


def _timed_run(m):
    t0 = time.perf_counter()
    run = run_solution_set(m)
    return run, time.perf_counter() - t0


def _strings(exprs, m):
    rc = m.render_ctx()
    return {expr_str(e, rc) for e in exprs}


# -- criterion 1: ideal-gas constraints, under a second -------------------

def test_criterion_1_gas_constraints(gas):
    run, elapsed = _timed_run(gas)
    assert elapsed < 1.0
    cs = run.system
    assert len(cs.constraints) == 3
    assert _strings(cs.constraints, gas) == GAS_CONSTRAINTS
    assert cs.residual.is_zero()


# -- criterion 2: heat-conducting fluid, under five seconds ---------------

def test_criterion_2_fluid_constraints(fluid):
    run, elapsed = _timed_run(fluid)
    assert elapsed < 5.0
    cs = run.system
    assert len(cs.constraints) == 8
    assert _strings(cs.constraints, fluid) == FLUID_CONSTRAINTS
    rc = fluid.render_ctx()
    assert expr_str(cs.residual, rc) == FLUID_RESIDUAL
    assert "deps/dtheta" in {expr_str(e, rc) for e in cs.nonzero}


# -- criterion 3: multiplier route agrees after elimination ---------------

def test_criterion_3_multiplier_route_agrees(gas, fluid):
    t0 = time.perf_counter()
    reports = {}
    for name, m in (("gas1d", gas), ("fluid2d", fluid)):
        lr = run_liu(m)
        sr = run_solution_set(m)
        reports[name] = (lr, compare(lr.result, sr.system))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    for lr, rep in reports.values():
        assert rep.verdict == "identical"
        assert not rep.liu_only and not rep.solution_only
    gas_lr = reports["gas1d"][0]
    rc = gas.render_ctx()
    solved = {
        lam.name: expr_str(v, rc)
        for lam, v in gas_lr.solved_multipliers.items()
    }
    assert solved == {
        "Lam_momentum": "0",
        "Lam_mass": "rho*deta/drho",
        "Lam_energy": "deta/deps",
    }


# -- criterion 4: rate-dependent model, closure and over-restriction ------

def test_criterion_4_nonsimple(nonsimple):
    t0 = time.perf_counter()
    run = run_solution_set(nonsimple)
    lr = run_liu(nonsimple)
    rep = compare(lr.result, run.system)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    rc = nonsimple.render_ctx()
    assert "T12*deta/dtheta" in _strings(run.system.constraints, nonsimple)
    assert run.system.residual.is_zero()
    keys = {atom_str(st.key, rc) for st in run.solved.consequence_log}
    assert keys == {"rho_tx", "rho_ty", "rho_tt", "u_tx", "v_ty"}

    assert rep.verdict == "liu-over-restricts"
    extras = _strings(rep.liu_only, nonsimple)
    assert extras == {
        "T12",
        "dq1/drho", "dq1/dtheta", "dq2/drho", "dq2/dtheta",
        "dPhi1/drho", "dPhi1/dtheta", "dPhi2/drho", "dPhi2/dtheta",
    }


# -- criterion 5: case trees ----------------------------------------------

def test_criterion_5_gas_case_tree(gas):
    tree = build_tree(solution_run("gas1d").system)
    assert len(tree.leaves()) == 4
    rc = gas.render_ctx()
    pivots = {
        expr_str(n.pivot, rc)
        for n in tree.root.walk() if n.pivot is not None
    }
    assert pivots == {"deta/deps", "dPhi1/deps", "dPhi1/drho"}
    eta_eps = Expr.atom(ConstitPartial("eta", (0, 1)))
    degenerate = next(
        n for n in tree.leaves()
        if any(
            a.polarity == "zero" and a.expr == eta_eps for a in n.assumptions
        )
    )
    # entropy and its flux reduce to constants on that branch
    zeroed = {atom_str(a, rc) for a in degenerate.system.zeroed}
    assert zeroed == {"deta/deps", "deta/drho", "dPhi1/deps", "dPhi1/drho"}
    assert degenerate.system.constraints == ()


def test_criterion_5_fluid_adiabatic_tree(fluid):
    cs = force_residual(solution_run("fluid2d").system)
    tree = build_tree(cs)
    assert len(tree.leaves()) == 4
    rc = fluid.render_ctx()
    pivots = {
        expr_str(n.pivot, rc)
        for n in tree.root.walk() if n.pivot is not None
    }
    assert pivots == {
        "d2eps/drho.dtheta*deta/dtheta - deps/dtheta*d2eta/drho.dtheta",
        "d2eps/dtheta.dtheta*deta/dtheta - deps/dtheta*d2eta/dtheta.dtheta",
    }


# -- criterion 6: structural invariants on every bundled model ------------

@pytest.mark.parametrize("name", ALL_MODELS)
def test_criterion_6_invariants(name):
    m = load_model(name)
    run = solution_run(name)
    # exact reconstruction of the entropy-rate numerator from the table
    cs = run.system
    total = cs.residual_numerator
    for mono, coeff in cs.table:
        total = total + coeff * monomial_expr(mono)
    assert total == entropy_on_solutions(m, run.solved).numerator_expr()
    # triangular solved system whose residues vanish on back-substitution
    pairs = run.solved.substitution
    assert not any(
        a in pairs or m.is_consequence(a)
        for rhs in pairs.values()
        for a in rhs.atoms()
    )
    eqs = [eq.lhs for eq in m.equations]
    eqs += [step.equation for step in run.solved.consequence_log]
    assert all(substitute(e, pairs).is_zero() for e in eqs)
    # canonical text round-trips through the parser unchanged
    text = format_model(m)
    again = parse_model(text, filename=f"{name}.epk").raise_on_error()
    assert format_model(again) == text


def test_criterion_6_derivative_laws_bulk():
    # commutation and Leibniz on 1,000 randomized expressions
    from test_expr import test_total_derivative_commutation_and_leibniz_bulk

    test_total_derivative_commutation_and_leibniz_bulk()


# -- criterion 7: exact-rational point verification -----------------------

@pytest.mark.parametrize("name", ["gas1d", "fluid2d"])
def test_criterion_7_point_verification(name):
    run = solution_run(name)
    rep = numeric_oracle(load_model(name), run.solved, run.system, trials=200, seed=7)
    assert rep.ok
    assert rep.identity_passes == 200
    assert rep.variety_passes == 200
    assert rep.variety_skips == 0


def test_criterion_7_ideal_gas_production_vanishes(gas):
    bs = parse_bindings(bindings_text("gas1d_ideal"), gas)
    values = sampled_production(gas, solution_run("gas1d").solved, bs, 200, 7)
    assert len(values) == 200
    assert all(v == 0 for v in values)


# -- criterion 8: candidate family check ----------------------------------

def test_criterion_8_candidate_family(nonsimple):
    cs = solution_run("nonsimple2d").system
    bs = parse_bindings(bindings_text("nonsimple2d_family"), nonsimple)
    rep = check_candidate(nonsimple, cs, bs)
    assert rep.ok
    for value in (1, -3, Q(1, 2), 7):
        assigns = tuple(
            (a, Expr.rational(value) if a == ConstitSym("T12") else v)
            for a, v in bs.assignments
        )
        bad = check_candidate(nonsimple, cs, BindingSet(bs.parameters, assigns))
        assert not bad.ok
        failed = [c for c in bad.checks if not c.passed]
        assert [c.constraint for c in failed] == ["T12*deta/dtheta"]


# -- criterion 9: large granular model inside the time budget -------------

def test_criterion_9_granular(granular):
    run, elapsed = _timed_run(granular)
    assert elapsed < 600.0
    rc = granular.render_ctx()
    keys = sorted(atom_str(st.key, rc) for st in run.solved.consequence_log)
    assert keys == ["u_tx", "u_ty", "v_tx", "v_ty"]
    cs = run.system
    assert len(cs.symmetrization) == sum(
        len(d.symmetric) for d in granular.decls
    )
    total = cs.residual_numerator
    for mono, coeff in cs.table:
        total = total + coeff * monomial_expr(mono)
    assert total == entropy_on_solutions(granular, run.solved).numerator_expr()
    assert not cs.residual_numerator.is_zero()
