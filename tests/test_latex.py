"""LaTeX emission: structural validity of the standalone documents."""

import re
from fractions import Fraction as Q

import pytest

from entropik.atoms import ConstitPartial, ConstitSym, JetVar
from entropik.expr import Expr
from entropik.latex import atom_tex, expr_tex, name_tex, relations_document

from conftest import load_model, solution_run

# every control sequence the emitter may produce
KNOWN_MACROS = {
    "documentclass", "usepackage", "allowdisplaybreaks", "begin", "end",
    "section", "frac", "tfrac", "partial", "geq", "neq", "mathrm",
    # greek
    "alpha", "beta", "gamma", "delta", "varepsilon", "zeta", "eta",
    "theta", "kappa", "lambda", "Lambda", "mu", "nu", "xi", "pi", "rho",
    "sigma", "tau", "varphi", "Phi", "chi", "psi", "omega", "Omega", ",",
}


def _doc(name):
    m = load_model(name)
    cs = solution_run(name).system
    return relations_document(
        "Constraint relations", cs.constraints, cs.residual,
        m.render_ctx(), cs.nonzero,
    )


@pytest.mark.parametrize("name", ["gas1d", "fluid2d", "nonsimple2d"])
def test_braces_balanced(name):
    doc = _doc(name)
    assert doc.count("{") == doc.count("}")
    assert doc.count(r"\begin{gather}") == doc.count(r"\end{gather}")
    assert doc.startswith("\\documentclass")
    assert doc.rstrip().endswith("\\end{document}")


@pytest.mark.parametrize("name", ["gas1d", "fluid2d", "nonsimple2d"])
def test_only_known_macros(name):
    for macro in re.findall(r"\\([A-Za-z]+|,)", _doc(name)):
        assert macro in KNOWN_MACROS, macro


def test_name_tex_greek_and_subscripts():
    assert name_tex("rho") == r"\rho"
    assert name_tex("Phi1") == r"\Phi_{1}"
    assert name_tex("T12") == "T_{12}"
    assert name_tex("Lam_energy") == r"\Lambda_{\mathrm{energy}}"
    assert name_tex("q2") == "q_{2}"


def test_atom_tex_partial_fraction(fluid):
    rc = fluid.render_ctx()
    a = ConstitPartial("eps", (1, 1))
    s = atom_tex(a, rc)
    assert s == r"\frac{\partial^{2} \varepsilon}{\partial \rho\,\partial \theta}"
    b = ConstitPartial("eta", (0, 2))
    assert atom_tex(b, rc) == r"\frac{\partial^{2} \eta}{\partial \theta^{2}}"


def test_atom_tex_jet_suffix(fluid):
    rc = fluid.render_ctx()
    assert atom_tex(JetVar("theta", (0, 1, 0)), rc) == r"\theta_{x}"
    assert atom_tex(JetVar("u", (0, 0, 0)), rc) == "u"


def test_expr_tex_fractional_coefficient():
    rho = Expr.atom(JetVar("rho", (0,)))
    assert expr_tex(Expr.rational(Q(3, 2)) * rho - Expr.rational(2)) == r"\tfrac{3}{2}\,\rho - 2"


def test_empty_relations_still_a_document(gas):
    doc = relations_document("Nothing", [], None, gas.render_ctx())
    assert doc.count("{") == doc.count("}")
    assert "\\end{document}" in doc
