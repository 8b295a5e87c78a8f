"""Shared constraint algebra: division loops and derived partials."""

from entropik.algebra import certified_nonzero, derive_partial, divide_out
from entropik.atoms import ConstitPartial, ConstitSym, JetVar
from entropik.bindings import binding_closure, parse_bindings
from entropik.expr import ONE, Expr, substitute

from conftest import bindings_text

RHO = Expr.atom(JetVar("rho", (0, 0)))
P = Expr.atom(ConstitSym("p"))


def test_divide_out_skips_rational_factor():
    e = RHO * P
    assert divide_out(e, Expr.rational(2)) == (e, 0)


def test_divide_out_skips_non_polynomial_factor():
    e = RHO * P
    assert divide_out(e, ONE / RHO) == (e, 0)


def test_certified_nonzero_terminates_on_rational_factor():
    assert certified_nonzero(P, [Expr.rational(2)]) is False
    assert certified_nonzero(3 * RHO**2, [Expr.rational(2), RHO]) is True


def test_derive_partial_matches_binding_closure(gas):
    bs = parse_bindings(bindings_text("gas1d_ideal"), gas)
    args_of = {d.name: d.args for d in gas.decls}
    wanted = {
        ConstitPartial("p", (1, 0)),
        ConstitPartial("p", (1, 1)),
        ConstitPartial("eta", (1, 1)),
    }
    closure = binding_closure(gas, bs, wanted)
    for x in wanted:
        value = derive_partial(x, dict(bs.assignments), args_of)
        assert value is not None
        assert substitute(value, bs.parameter_values()) == closure[x]
