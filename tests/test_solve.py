"""Leading-derivative solve and differential-consequence closure."""

import dataclasses

import pytest

from entropik import expr
from entropik.atoms import JetVar
from entropik.errors import NonlinearInLeading, OrderCapExceeded, SingularSystem
from entropik.expr import substitute
from entropik.parser import parse_model
from entropik.render import atom_str
from entropik.solve import close_consequences, solve_leading

from conftest import MODELS, load_model, solution_run

ALL_MODELS = ["gas1d", "fluid2d", "nonsimple2d", "granular2d"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_solved_system_triangular(name):
    m = load_model(name)
    s = solution_run(name).solved
    pairs = s.substitution
    # no right-hand side holds a key or a consequence atom
    assert not [
        a for rhs in pairs.values() for a in rhs.atoms()
        if a in pairs or m.is_consequence(a)
    ]
    # every leading derivative got a value
    for ld in m.leading:
        assert ld in s.keys()


@pytest.mark.parametrize("name", ALL_MODELS)
def test_back_substitution_residues_vanish(name):
    m = load_model(name)
    s = solution_run(name).solved
    # every expanded equation and every consequence equation vanishes
    residues = {eq.label: substitute(eq.lhs, s.substitution) for eq in m.equations}
    for step in s.consequence_log:
        label = f"d{step.direction}({step.source})->{step.key.field}{step.key.orders}"
        residues[label] = substitute(step.equation, s.substitution)
    assert [k for k, r in residues.items() if not r.is_zero()] == []


def test_gas_needs_no_consequences(gas):
    s = solution_run("gas1d").solved
    assert s.consequence_log == ()
    assert set(s.keys()) == set(gas.leading)


def test_nonsimple_closure_keys(nonsimple):
    # entropy depends on dt(rho), so substitution forces exactly the
    # derivatives of the mass/momentum equations that reach it
    s = solution_run("nonsimple2d").solved
    rc = nonsimple.render_ctx()
    keys = {atom_str(st.key, rc) for st in s.consequence_log}
    assert keys == {"rho_tx", "rho_ty", "rho_tt", "u_tx", "v_ty"}


def test_granular_closure_adds_momentum_consequences(granular):
    s = solution_run("granular2d").solved
    rc = granular.render_ctx()
    keys = [atom_str(st.key, rc) for st in s.consequence_log]
    assert sorted(keys) == ["u_tx", "u_ty", "v_tx", "v_ty"]
    sources = {st.source for st in s.consequence_log}
    assert sources == {"momentum1", "momentum2"}


def test_consequences_solved_not_guessed(nonsimple):
    s = solution_run("nonsimple2d").solved
    m = nonsimple
    for key in s.keys():
        assert isinstance(key, JetVar)
        assert key in m.leading or m.is_consequence(key)


def test_order_cap_enforced(nonsimple):
    m = dataclasses.replace(nonsimple, max_order=1)
    s = solve_leading(m)
    with pytest.raises(OrderCapExceeded):
        close_consequences(m, s)


def test_nonlinear_leading_rejected():
    text = (
        "independent t x\nfield a\nequation sq: dt(a)*dt(a) = 0\n"
        "entropy: dt(a) >= 0\nleading: dt(a)\n"
    )
    m = parse_model(text).raise_on_error()
    with pytest.raises(NonlinearInLeading):
        solve_leading(m)


def test_singular_system_rejected():
    text = (
        "independent t x\nfield a b\n"
        "equation one: dt(a) + dt(b) = 0\n"
        "equation two: 2*dt(a) + 2*dt(b) = 0\n"
        "entropy: dt(a) >= 0\nleading: dt(a), dt(b)\n"
    )
    m = parse_model(text).raise_on_error()
    with pytest.raises(SingularSystem):
        solve_leading(m)


def test_pivot_determinant_certified(fluid):
    s = solution_run("fluid2d").solved
    # every pivot factor is backed by a declared nonzero side condition
    # or is a pure rational; the determinant collects them
    assert not s.determinant.is_zero()


def test_each_atom_derivative_is_expanded_once_per_context(monkeypatch):
    # granular2d's functions take twelve arguments; a context expands an
    # atom's chain rule once per direction (the plain and extended
    # expressions of a parse share one context)
    expanded = []
    expand = expr._expand

    def counting(a, iv_index, ctx):
        expanded.append((id(ctx), a, iv_index))
        return expand(a, iv_index, ctx)

    monkeypatch.setattr(expr, "_expand", counting)
    text = (MODELS / "granular2d.epk").read_text()
    m = parse_model(text, filename="granular2d.epk").raise_on_error()
    assert len(expanded) == len(set(expanded)) == 58
    s = solve_leading(m)
    expanded.clear()
    close_consequences(m, s)
    assert len(expanded) == len(set(expanded)) == 132
