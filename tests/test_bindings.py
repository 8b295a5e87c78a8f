"""Candidate-family bindings and the constraint checker."""

import re
from fractions import Fraction as Q

import pytest

from entropik.algebra import KnownPartials, subst_known
from entropik.atoms import ConstitPartial, ConstitSym
from entropik.bindings import (
    BindingSet,
    check_candidate,
    parse_bindings,
    sampled_production,
)
from entropik.errors import ModelError, NonRationalBinding, UnboundSymbol
from entropik.expr import Expr

from conftest import bindings_text, load_model, solution_run


def _gas_bindings(gas):
    return parse_bindings(bindings_text("gas1d_ideal"), gas)


def test_parse_bindings_structure(gas):
    bs = _gas_bindings(gas)
    assert [p[0] for p in bs.parameters] == ["gamma", "Cv"]
    assert dict(bs.parameters)["gamma"] == Q(7, 5)
    bound = {a for a, _ in bs.assignments}
    assert ConstitSym("p") in bound
    assert ConstitPartial("eta", (0, 1)) in bound


def test_ideal_gas_family_passes(gas):
    rep = check_candidate(gas, solution_run("gas1d").system, _gas_bindings(gas))
    assert rep.ok
    assert rep.residual == "0"
    assert len(rep.checks) == 3


def test_parameter_value_sensitivity(gas):
    # "p = rho*eps" is the gamma = 2 member; it must fail for gamma = 3
    cs = solution_run("gas1d").system
    for gamma, expect in ((2, True), (3, False)):
        text = bindings_text("gas1d_ideal").replace(
            "parameter gamma = 7/5", f"parameter gamma = {gamma}"
        ).replace("bind p = (gamma - 1)*rho*eps", "bind p = rho*eps")
        rep = check_candidate(gas, cs, parse_bindings(text, gas))
        assert rep.ok is expect


def test_partial_bindings_close_under_differentiation(gas):
    # dp/drho is never written in the file; it is derived from p
    bs = _gas_bindings(gas)
    args_of = {d.name: d.args for d in gas.decls}
    dp = ConstitPartial("p", (1, 0))
    val = subst_known(Expr.atom(dp), KnownPartials(args_of, bs.values().items()), 3)
    # d/drho[(gamma-1)*rho*eps] with gamma = 7/5
    eps_atom = gas.decl_map()["p"].args[1]
    assert val == Expr.rational(Q(2, 5)) * Expr.atom(eps_atom)


def test_a_bound_partial_leaves_its_symbol_alone(gas):
    # only dp/drho is bound: the constraints' p has no value to derive
    # from it, and stays as it is
    text = "parameter gamma = 7/5\nbind dp/drho = (gamma - 1)*eps\n"
    rep = check_candidate(gas, solution_run("gas1d").system, parse_bindings(text, gas))
    assert not rep.ok
    assert any(re.search(r"\bp\b", c.value) for c in rep.checks)


def test_nonsimple_family_passes(nonsimple):
    bs = parse_bindings(bindings_text("nonsimple2d_family"), nonsimple)
    rep = check_candidate(nonsimple, solution_run("nonsimple2d").system, bs)
    assert rep.ok
    assert rep.residual == "0"


@pytest.mark.parametrize("value", [1, -3, Q(1, 2)])
def test_nonzero_shear_stress_fails_isotropy(nonsimple, value):
    bs = parse_bindings(bindings_text("nonsimple2d_family"), nonsimple)
    assigns = tuple(
        (a, Expr.rational(value) if a == ConstitSym("T12") else v)
        for a, v in bs.assignments
    )
    rep = check_candidate(
        nonsimple,
        solution_run("nonsimple2d").system,
        BindingSet(bs.parameters, assigns),
    )
    assert not rep.ok
    bad = [c for c in rep.checks if not c.passed]
    assert len(bad) == 1
    assert bad[0].constraint == "T12*deta/dtheta"


def test_transcendental_binding_rejected(gas):
    with pytest.raises(NonRationalBinding, match="rational fragment"):
        parse_bindings("bind eta = log(eps)\n", gas)


def test_unknown_symbol_rejected(gas):
    with pytest.raises(UnboundSymbol):
        parse_bindings("bind p = mystery * rho\n", gas)


def test_error_codes_stable(gas):
    assert UnboundSymbol.code == "E050"
    assert NonRationalBinding.code == "E051"


def test_bind_target_must_be_single_atom(gas):
    with pytest.raises(ModelError):
        parse_bindings("bind p + q1 = 0\n", gas)


def test_cannot_bind_parameter(gas):
    with pytest.raises(ModelError, match="parameter"):
        parse_bindings("parameter gamma = 2\nbind gamma = 3\n", gas)


@pytest.mark.parametrize(
    "text, where",
    [
        ("bind q1 = 0\nbind p = rho\nbind q1 = eps\n", "g.bind:3: 'q1' bound twice"),
        ("bind deta/deps = 1\nbind deta/deps = 2\n", "g.bind:2: 'deta/deps' bound"),
    ],
)
def test_duplicate_bind_rejected(gas, text, where):
    with pytest.raises(ModelError, match=re.escape(where)):
        parse_bindings(text, gas, filename="g.bind")


def test_symbol_and_its_partial_both_bind(gas):
    bs = parse_bindings("bind p = rho*eps\nbind dp/drho = eps\n", gas)
    assert len(bs.assignments) == 2


def test_duplicate_parameter_rejected(gas):
    text = "parameter gamma = 2\n\nparameter gamma = 3\n"
    with pytest.raises(
        ModelError, match=re.escape("g.bind:3: parameter 'gamma' declared twice")
    ):
        parse_bindings(text, gas, filename="g.bind")


def test_irrational_parameter_value_rejected(gas):
    with pytest.raises(NonRationalBinding):
        parse_bindings("parameter gamma = 1.4.1\n", gas)


def test_entropy_production_exactly_zero_under_family(gas):
    bs = _gas_bindings(gas)
    values = sampled_production(gas, solution_run("gas1d").solved, bs, 50, 7)
    assert all(v == 0 for v in values)
