"""Lagrange-multiplier identities and the comparison with the
solution-manifold constraints.

``golden/<model>.compare.json`` is ``compare <model> --output json`` for
the three small models, and ``golden/granular2d.compare.sha256`` is the
SHA-256 of that output for granular2d, which is too large to keep.
"""

import hashlib
import pathlib

import pytest
from click.testing import CliRunner

import entropik.algebra
import entropik.expr
import entropik.liu
from entropik.atoms import ConstitPartial, ConstitSym
from entropik.cli import main
from entropik.expr import ONE, ZERO, Expr, substitute
from entropik.liu import (
    LiuResult,
    compare,
    eliminate_multipliers,
    liu_extended,
    liu_split,
    multiplier_symbols,
)
from entropik.render import RenderContext, atom_str, expr_str
from entropik.split import ConstraintSystem, entropy_on_solutions

from conftest import MODELS, liu_run, load_model, solution_run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_multiplier_symbols_per_equation(gas):
    assert [s.name for s in multiplier_symbols(gas)] == [
        "Lam_mass", "Lam_momentum", "Lam_energy",
    ]


def test_gas_multipliers_solved(gas):
    run = liu_run("gas1d")
    rc = gas.render_ctx()
    solved = {
        lam.name: expr_str(v, rc) for lam, v in run.solved_multipliers.items()
    }
    assert solved == {
        "Lam_momentum": "0",
        "Lam_mass": "rho*deta/drho",
        "Lam_energy": "deta/deps",
    }
    assert run.unsolved == ()


def test_split_coefficients_free_of_split_atoms(gas):
    lr = liu_run("gas1d").result
    split_set = set(lr.split_atoms)
    for _, coeff in lr.table:
        assert not (set(coeff.atoms()) & split_set)


def test_extended_inequality_consistency(gas):
    # substituting the solved multipliers into the extended inequality and
    # then the lead solutions reproduces the entropy rate on solutions
    run = liu_run("gas1d")
    srun = solution_run("gas1d")
    e = liu_extended(gas)
    e = substitute(e, dict(run.solved_multipliers))
    e = substitute(e, srun.solved.substitution)
    target = entropy_on_solutions(gas, srun.solved)
    assert (e - target).is_zero()


@pytest.mark.parametrize("name", ["gas1d", "fluid2d"])
def test_identical_verdict(name):
    rep = compare(liu_run(name).result, solution_run(name).system)
    assert rep.verdict == "identical"
    assert not rep.liu_only
    assert not rep.solution_only


def _compare_json(name):
    r = CliRunner().invoke(
        main, ["compare", str(MODELS / f"{name}.epk"), "--output", "json"]
    )
    assert r.exit_code == 0, r.output
    return r.output


@pytest.mark.parametrize("name", ["gas1d", "fluid2d", "nonsimple2d"])
def test_compare_matches_golden(name):
    assert _compare_json(name) == (GOLDEN / f"{name}.compare.json").read_text()


def test_granular_compare_matches_digest():
    digest = hashlib.sha256(_compare_json("granular2d").encode()).hexdigest()
    assert digest == (GOLDEN / "granular2d.compare.sha256").read_text().strip()


def test_nonsimple_over_restriction(nonsimple):
    rep = compare(liu_run("nonsimple2d").result, solution_run("nonsimple2d").system)
    assert rep.verdict == "liu-over-restricts"
    assert not rep.solution_only
    rc = nonsimple.render_ctx()
    extras = {expr_str(e, rc) for e in rep.liu_only}
    # flux constancy in the dependency slots the multipliers cannot see,
    # plus the vanishing shear stress
    assert extras == {
        "T12",
        "dq1/drho", "dq1/dtheta", "dq2/drho", "dq2/dtheta",
        "dPhi1/drho", "dPhi1/dtheta", "dPhi2/drho", "dPhi2/dtheta",
    }
    gens = {atom_str(a, rc) for a in rep.generic_assumptions}
    assert gens  # the over-restriction is flagged as generic-branch only


def test_nonsimple_split_is_linear(nonsimple):
    # the extended inequality stays linear in the splitting set even
    # though the entropy sees dt(rho)
    lr = liu_run("nonsimple2d").result
    assert lr.identities  # did not raise NonlinearExtendedInequality


def test_eliminate_multipliers_back_substitutes(fluid):
    run = liu_run("fluid2d")
    solved, physical, unsolved = (
        run.solved_multipliers, run.physical, run.unsolved,
    )
    for e in physical:
        for a in e.atoms():
            assert not (
                isinstance(a, ConstitSym) and a.name.startswith("Lam_")
            )
        for lam in solved:
            assert a is not lam


def test_multiplier_dep_recorded(gas):
    lr = liu_run("gas1d").result
    rc = gas.render_ctx()
    assert {atom_str(a, rc) for a in lr.multiplier_dep} == {"rho", "eps"}


def test_custom_multiplier_dep(nonsimple):
    from entropik.report import run_liu

    # restricting the postulated dependence changes the derived zeros
    rho = nonsimple.decl_map()["T11"].args[0]
    run = run_liu(nonsimple, (rho,))
    assert run.result.multiplier_dep == (rho,)


def test_compare_accepts_by_each_implication_route():
    # One multiplier identity per acceptance route against the base
    # (f, g + h, g - h): membership, vanishing under the forced zero f
    # (which kills df/da0 too), a polynomial multiple of g + h, and the
    # rational span (g = ((g + h) + (g - h))/2).  g*h follows by none.
    f, g, h = (Expr.atom(ConstitSym(n)) for n in "fgh")
    df = Expr.atom(ConstitPartial("f", (1,)))
    lr = LiuResult(
        multipliers=(),
        multiplier_dep=(),
        identities=(g + h, df, g * (g + h), g, g * h),
        residual=ZERO,
        split_atoms=(),
        table=(),
    )
    cs = ConstraintSystem(
        constraints=(f, g + h, g - h),
        residual_numerator=ZERO,
        denominator=ONE,
        nonzero=(),
        free_elements=(),
        table=(),
    )
    rep = compare(lr, cs)
    rc = RenderContext(indep_names=(), arg_names={})
    shown = {
        k: [expr_str(e, rc) for e in getattr(rep, k)]
        for k in ("common", "liu_only", "solution_only")
    }
    assert shown == {
        "common": ["h + g", "df/da0", "g^2 + g*h", "g"],
        "liu_only": ["g*h"],
        "solution_only": ["f"],
    }
    assert rep.common == (g + h, df, g * g + g * h, g)
    assert rep.verdict == "incomparable"


def test_eliminate_multipliers_skips_nonlinear_and_entangled_pivots():
    # Lam_a occurs squared in the first identity; in the second each
    # multiplier's coefficient is the other, unsolved multiplier, even
    # though both are assumed nonzero.  Nothing is solved.
    lam_a, lam_b = ConstitSym("Lam_a"), ConstitSym("Lam_b")
    a, b = Expr.atom(lam_a), Expr.atom(lam_b)
    f, g = (Expr.atom(ConstitSym(n)) for n in "fg")
    lr = LiuResult(
        multipliers=(lam_a, lam_b),
        multiplier_dep=(),
        identities=(a * a + f, a * b + g),
        residual=ZERO,
        split_atoms=(),
        table=(),
    )
    assert eliminate_multipliers(lr, (a, b)) == ({}, (), (lam_a, lam_b))


def test_harvest_takes_each_slot_derivative_once(granular, monkeypatch):
    # every fixed-point round meets the same pool members again
    calls = []
    real = entropik.liu.arg_derivative

    def counting(e, a, args_of):
        calls.append((e, a))
        return real(e, a, args_of)

    monkeypatch.setattr(entropik.liu, "arg_derivative", counting)
    liu_split(liu_extended(granular), granular)
    assert len(calls) == len(set(calls)) == 312


def test_liu_split_takes_the_direct_kernel_paths(granular, monkeypatch):
    # every slot derivative liu_split takes is of a polynomial, and every
    # one-term denominator is scaled by its one coefficient, unranked
    derived, diffs, keys, one_term = [], [], [], []
    real_derivative = entropik.liu.arg_derivative
    real_diff = entropik.algebra.partial_diff
    real_key = entropik.expr.mono_key
    real_canonicalize = entropik.expr._canonicalize

    def canonicalize(num, den):
        before = len(keys)
        out = real_canonicalize(num, den)
        if len(den) == 1:
            one_term.append(len(keys) - before)
        return out

    monkeypatch.setattr(entropik.liu, "arg_derivative",
                        lambda *args: derived.append(args) or real_derivative(*args))
    monkeypatch.setattr(entropik.algebra, "partial_diff",
                        lambda e, a: diffs.append(a) or real_diff(e, a))
    monkeypatch.setattr(entropik.expr, "mono_key", lambda m: keys.append(m) or real_key(m))
    monkeypatch.setattr(entropik.expr, "_canonicalize", canonicalize)
    liu_split(liu_extended(granular), granular)
    assert derived and not diffs
    assert one_term and not any(one_term)


def test_compare_tries_no_divisor_with_a_foreign_atom(monkeypatch):
    # k*(g + h) is a multiple of the member g + h, whose atoms it holds;
    # the member f + k holds f, which no Liu identity holds, so it is never
    # tried as a divisor, though it comes first.
    f, g, h, k = (Expr.atom(ConstitSym(n)) for n in "fghk")
    tried = []
    real = entropik.liu.try_divexact

    def recording(a, b):
        tried.append((a, b))
        return real(a, b)

    monkeypatch.setattr(entropik.liu, "try_divexact", recording)
    lr = LiuResult(
        multipliers=(),
        multiplier_dep=(),
        identities=(k * (g + h), g * h),
        residual=ZERO,
        split_atoms=(),
        table=(),
    )
    cs = ConstraintSystem(
        constraints=(f + k, g + h),
        residual_numerator=ZERO,
        denominator=ONE,
        nonzero=(),
        free_elements=(),
        table=(),
    )
    rep = compare(lr, cs)
    assert rep.common == (g * k + h * k,)
    assert rep.liu_only == (g * h,)
    assert tried
    assert all(set(b.atoms()) <= set(a.atoms()) for a, b in tried)
    assert f + k not in {b for _, b in tried}


def test_compare_renormalizes_no_normal_form(monkeypatch):
    # Both sides reach the implication tests as normal sets under the
    # solution set's nonzero list; only what compare derives from them is
    # normalized.
    lr = liu_run("granular2d").result
    cs = solution_run("granular2d").system
    calls = []
    for module in (entropik.algebra, entropik.liu):
        real = module.normalize_constraint

        def counting(*args, _real=real):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(module, "normalize_constraint", counting)
    compare(lr, cs)
    assert len(calls) <= 65
