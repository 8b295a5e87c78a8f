"""The granular-solid model: the large desk-scale stress test."""

import time

from entropik.expr import monomial_expr, substitute
from entropik.render import atom_str
from entropik.split import entropy_on_solutions

from conftest import solution_run


def test_granular_pipeline_within_budget(granular):
    from entropik.report import run_solution_set

    t0 = time.perf_counter()
    run = run_solution_set(granular)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert run.system.constraints


def test_granular_momentum_consequences(granular):
    s = solution_run("granular2d").solved
    rc = granular.render_ctx()
    keys = sorted(atom_str(st.key, rc) for st in s.consequence_log)
    assert keys == ["u_tx", "u_ty", "v_tx", "v_ty"]


def test_granular_symmetrization_every_declared_pair(granular):
    cs = solution_run("granular2d").system
    with_pairs = [d for d in granular.decls if d.symmetric]
    assert len(with_pairs) == len(granular.decls)  # all twelve declare one
    touched = set()
    for e in cs.symmetrization:
        touched.update(a.name for a in e.atoms())
    assert touched == {d.name for d in with_pairs}
    for e in cs.symmetrization:
        assert e in cs.constraints


def test_granular_reconstruction_exact(granular):
    run = solution_run("granular2d")
    cs = run.system
    total = cs.residual_numerator
    for mono, coeff in cs.table:
        total = total + coeff * monomial_expr(mono)
    assert total == entropy_on_solutions(granular, run.solved).numerator_expr()


def test_granular_residual_nonzero(granular):
    cs = solution_run("granular2d").system
    assert not cs.residual_numerator.is_zero()


def test_granular_back_substitution(granular):
    s = solution_run("granular2d").solved
    eqs = [eq.lhs for eq in granular.equations]
    eqs += [step.equation for step in s.consequence_log]
    assert all(substitute(e, s.substitution).is_zero() for e in eqs)
