"""Model-file parsing, diagnostics, and round-trip formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropik.atoms import ConstitPartial, ConstitSym, JetVar
from entropik.expr import Expr
from entropik.parser import (
    MAX_NESTING,
    CompileEnv,
    ParseFailure,
    ParseResult,
    compile_node,
    format_model,
    model_env,
    parse_expr_text,
    parse_model,
)
from entropik.render import expr_str

from conftest import MODELS, load_model

ALL_MODELS = ["gas1d", "fluid2d", "nonsimple2d", "granular2d"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_format_parse_fixpoint(name):
    m = load_model(name)
    text = format_model(m)
    m2 = parse_model(text, filename="<roundtrip>").raise_on_error()
    assert format_model(m2) == text
    # semantic equality, not just textual
    assert m2.equations == m.equations
    assert m2.entropy_lhs == m.entropy_lhs
    assert m2.leading == m.leading
    assert m2.nonzero == m.nonzero
    assert m2.decls == m.decls


def test_parse_gas_shapes(gas):
    assert gas.indep_names == ("t", "x")
    assert gas.fields == ("rho", "u", "eps")
    assert [d.name for d in gas.decls] == ["p", "q1", "eta", "Phi1"]
    assert [eq.label for eq in gas.equations] == ["mass", "momentum", "energy"]
    assert gas.leading == (
        JetVar("rho", (1, 0)), JetVar("u", (1, 0)), JetVar("eps", (1, 0)),
    )


def test_unknown_directive_is_located():
    pr = parse_model("independent t\nfield a\nnonsense: 1\n", filename="f.epk")
    assert not pr.ok
    d = next(x for x in pr.diagnostics if x.severity == "error")
    assert d.span.file == "f.epk"
    assert d.span.line == 3


def test_undeclared_symbol_in_equation():
    text = (
        "independent t x\nfield rho\n"
        "equation mass: dt(rho) + dx(mystery) = 0\n"
        "entropy: dt(rho) >= 0\nleading: dt(rho)\n"
    )
    pr = parse_model(text, filename="f.epk")
    assert not pr.ok
    assert any("mystery" in d.message for d in pr.diagnostics)


def test_raise_on_error():
    pr = parse_model("field\n", filename="f.epk")
    with pytest.raises(Exception):
        pr.raise_on_error()


def test_symmetric_pair_declaration(granular):
    d = granular.decl_map()["T11"]
    assert d.symmetric  # the dy(u)/dx(v) argument pair


def test_extended_grammar_jet_suffix(fluid):
    env = CompileEnv(
        indep=fluid.indep,
        fields=fluid.fields,
        decls=fluid.decl_map(),
        extended=True,
    )
    e = compile_node(parse_expr_text("theta_xy"), env)
    assert e == Expr.atom(JetVar("theta", (0, 1, 1)))


def test_partial_ref_compiles_to_partial(gas):
    env = CompileEnv(
        indep=gas.indep, fields=gas.fields, decls=gas.decl_map(), extended=True
    )
    e = compile_node(parse_expr_text("deta/deps"), env)
    atoms = list(e.atoms())
    assert atoms == [ConstitPartial("eta", (0, 1))]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_expression_render_reparse(name):
    # every constraint the engine prints must re-parse to the same Expr
    from conftest import solution_run

    m = load_model(name)
    run = solution_run(name)
    env = CompileEnv(
        indep=m.indep, fields=m.fields, decls=m.decl_map(), extended=True
    )
    rc = m.render_ctx()
    for c in list(run.system.constraints)[:40]:
        for part in (c.numerator_expr(), c.denominator_expr()):
            text = expr_str(part, rc)
            back = compile_node(parse_expr_text(text), env)
            assert back == part, text


def test_fingerprint_tracks_canonical_model(gas):
    from entropik.report import model_fingerprint

    # reparsing the canonical text reproduces the fingerprint
    m2 = parse_model(format_model(gas)).raise_on_error()
    assert model_fingerprint(m2) == model_fingerprint(gas)
    # a changed side condition changes it
    text = format_model(gas).replace("assume nonzero: rho\n", "")
    m3 = parse_model(text).raise_on_error()
    assert model_fingerprint(m3) != model_fingerprint(gas)


def test_higher_order_partial_round_trip(fluid):
    env = CompileEnv(
        indep=fluid.indep,
        fields=fluid.fields,
        decls=fluid.decl_map(),
        extended=True,
    )
    e = compile_node(parse_expr_text("d2eps/drho.dtheta"), env)
    assert list(e.atoms()) == [ConstitPartial("eps", (1, 1))]
    e2 = compile_node(parse_expr_text("d2eps/dtheta.dtheta"), env)
    assert list(e2.atoms()) == [ConstitPartial("eps", (0, 2))]


def test_partial_order_mismatch_rejected():
    with pytest.raises(Exception, match="order"):
        parse_expr_text("d3eps/drho.dtheta")


def test_model_env_compiles_partials_and_parameters(gas):
    env = model_env(gas, frozenset({"gamma"}))
    e = compile_node(parse_expr_text("gamma*deta/deps + rho_x"), env)
    assert set(e.atoms()) == {
        ConstitSym("gamma"), ConstitPartial("eta", (0, 1)), JetVar("rho", (0, 1)),
    }


def test_models_compare_by_their_fields_not_their_source(gas):
    # Reformatting changes every source AST but none of the compiled content.
    text = format_model(gas).replace("dx(u)", "dx( u )")
    m2 = parse_model(text).raise_on_error()
    assert m2 == gas and hash(m2) == hash(gas)
    assert m2.equations[0] == gas.equations[0]
    m3 = parse_model(format_model(gas) + "max_order: 3\n").raise_on_error()
    assert m3 != gas


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("dx(", ")")])
def test_nesting_stops_at_the_opening_token_past_the_limit(opening, closing):
    n = MAX_NESTING
    parse_expr_text(opening * n + "rho" + closing * n)
    with pytest.raises(ParseFailure) as err:
        parse_expr_text(opening * (n + 1) + "rho" + closing * (n + 1))
    diag = err.value.diag
    assert diag.message == f"expression nested more than {n} levels deep"
    col = (n + 1) * len(opening)  # the last character of the last opening
    assert (diag.span.col_start, diag.span.col_end) == (col, col + 1)


def test_deep_nesting_is_a_diagnostic_not_a_recursion_error(gas):
    # far past Python's recursion limit, were each level a few frames deep
    deep = "(" * 1000 + "rho" + ")" * 1000
    pr = parse_model(format_model(gas).replace("dt(rho)", deep, 1), filename="m.epk")
    assert not pr.ok
    assert [d.message for d in pr.diagnostics] == [
        f"expression nested more than {MAX_NESTING} levels deep"]


def test_long_chains_round_trip(gas):
    # a 5,000-term sum and a 2,000-factor product, far past Python's
    # recursion limit were each operator a stack frame
    text = format_model(gas).replace(
        "dx(rho*u)", "dx(rho*u)" + " + 0*rho" * 5000 + " - 0" + "*rho" * 2000, 1
    )
    m = parse_model(text, filename="long.epk").raise_on_error()
    assert m == gas
    again = format_model(m)
    assert again.count("*rho") == 5000 + 2000
    m2 = parse_model(again).raise_on_error()
    assert m2 == gas and format_model(m2) == again


def test_binary_operators_carry_their_token_span():
    node = parse_expr_text("a + b*c^2", filename="m.epk", lineno=4)
    assert (node.span.file, node.span.line, node.span.col_start) == ("m.epk", 4, 3)
    assert node.right.span.col_start == 6
    assert node.right.right.span.col_start == 8


# The DSL's tokens: directive words, names the small model below declares,
# partial references, small integers, every operator, comments and
# characters the lexer rejects.
_WORDS = (
    "independent field constitutive equation entropy leading assume nonzero "
    "max_order symmetric t x rho u p eta dt dx deta drho d2eta du "
    "rho_t rho_x 0 1 2 3 >= - + * / ^ ( ) , : = . # $"
).split()
_LINES = st.lists(st.sampled_from(_WORDS), max_size=25).map(" ".join)
_TEXTS = st.lists(_LINES, max_size=12).map("\n".join)
_SMALL = (
    "independent t x\nfield rho u\nconstitutive p(rho)\n"
    "constitutive eta(rho, u)\n"
)


@given(st.one_of(_TEXTS, _TEXTS.map(lambda t: _SMALL + t)))
@settings(max_examples=300, deadline=None)
def test_parser_is_total(text):
    pr = parse_model(text, filename="f.epk")
    assert isinstance(pr, ParseResult)
    assert pr.ok == (pr.model is not None)
    if not pr.ok:
        assert any(d.severity == "error" for d in pr.diagnostics)
