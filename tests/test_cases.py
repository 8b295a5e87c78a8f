"""Case analysis: branching on undetermined coefficient factors."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropik import algebra, cases
from entropik.algebra import constit_atoms, strip_certified
from entropik.atoms import ConstitPartial, ConstitSym, JetVar
from entropik.cases import (
    Assumption,
    apply_assumptions,
    build_tree,
    force_residual,
    pivot_candidates,
)
from entropik.errors import ReductionCapExceeded
from entropik.expr import ONE, ZERO, Expr, collect_coefficients
from entropik.render import atom_str, expr_str
from entropik.split import ConstraintSystem

from conftest import load_model, solution_run

ETA_EPS = Expr.atom(ConstitPartial("eta", (0, 1)))
PHI1_RHO = Expr.atom(ConstitPartial("Phi1", (1, 0)))
PHI1_EPS = Expr.atom(ConstitPartial("Phi1", (0, 1)))


def _gas_tree():
    return build_tree(solution_run("gas1d").system)


def _leaf_zero_names(leaf, rc):
    return {atom_str(a, rc) for a in leaf.system.zeroed}


# -- the gas case tree ----------------------------------------------------

def test_gas_tree_shape(gas):
    tree = _gas_tree()
    leaves = tree.leaves()
    assert len(leaves) == 4
    rc = gas.render_ctx()
    pivots = {
        expr_str(n.pivot, rc) for n in tree.root.walk() if n.pivot is not None
    }
    assert pivots == {"deta/deps", "dPhi1/drho", "dPhi1/deps"}


def test_gas_degenerate_leaf_is_constant(gas):
    # the branch killing the entropy's energy slope forces constant
    # entropy and entropy flux
    tree = _gas_tree()
    rc = gas.render_ctx()
    leaf = next(
        n for n in tree.leaves()
        if any(
            a.polarity == "zero" and a.expr == ETA_EPS for a in n.assumptions
        )
    )
    assert _leaf_zero_names(leaf, rc) == {
        "deta/deps", "deta/drho", "dPhi1/deps", "dPhi1/drho",
    }
    assert leaf.system.constraints == ()


def test_gas_generic_leaf_triangular(gas):
    tree = _gas_tree()
    generic = next(
        n for n in tree.leaves()
        if all(a.polarity == "nonzero" for a in n.assumptions)
    )
    assert generic.system.constraints == ()
    solved_atoms = {k for k, _ in generic.system.solved}
    assert ConstitSym("p") in solved_atoms


def test_leaves_are_mutually_exclusive():
    # sibling subtrees differ by the polarity of the same pivot, so any
    # two leaves disagree somewhere
    tree = _gas_tree()
    leaves = tree.leaves()
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            da = {(str(x.expr), x.polarity) for x in a.assumptions}
            db = {(str(x.expr), x.polarity) for x in b.assumptions}
            conflicting = {
                e for e, p in da if (e, "zero" if p == "nonzero" else "nonzero") in db
            }
            assert conflicting


def test_certificates_attached():
    tree = _gas_tree()
    for leaf in tree.leaves():
        if leaf.system.zeroed or leaf.system.solved:
            assert leaf.system.certificates


# -- assumptions ----------------------------------------------------------

def test_assume_zero_propagates(gas):
    cs = solution_run("gas1d").system
    rs = apply_assumptions(
        cs, (Assumption.zero(PHI1_EPS), Assumption.nonzero(ETA_EPS))
    )
    rc = gas.render_ctx()
    zeroed = {atom_str(a, rc) for a in rs.zeroed}
    assert "dq1/deps" in zeroed
    assert rs.inconsistent is None


def test_assume_contradiction_closes():
    cs = solution_run("gas1d").system
    rs = apply_assumptions(
        cs, (Assumption.zero(ETA_EPS), Assumption.nonzero(ETA_EPS))
    )
    assert rs.inconsistent


def test_tree_under_contradictory_assumptions():
    cs = solution_run("gas1d").system
    tree = build_tree(
        cs,
        depth=1,
        assumptions=(Assumption.zero(ETA_EPS), Assumption.nonzero(ETA_EPS)),
    )
    assert tree.root.children == ()
    assert tree.root.system.inconsistent
    assert not tree.leaves()


def test_zero_assumption_monotone():
    # assuming more things zero never shrinks the zero set
    cs = solution_run("gas1d").system
    small = apply_assumptions(cs, (Assumption.zero(PHI1_EPS),))
    big = apply_assumptions(
        cs, (Assumption.zero(PHI1_EPS), Assumption.zero(PHI1_RHO))
    )
    assert set(small.zeroed) <= set(big.zeroed)
    assert next(iter(PHI1_RHO.atoms())) in big.zeroed


def test_depth_cap_marks_open():
    cs = solution_run("gas1d").system
    tree = build_tree(cs, depth=1)
    capped = tree.capped()
    assert capped
    for n in capped:
        # the pending pivot comes from the pool; the node did not fork
        assert n.status == "open" and not n.children
        assert n.capped in tree.pivots


def test_a_closed_system_never_has_the_content_of_another():
    # a fork with a closed child is not vacuous: it shows that the pivot
    # must vanish, or that both ways close
    rs = apply_assumptions(solution_run("gas1d").system, ())
    closed = dataclasses.replace(rs, inconsistent="closed")
    assert rs.same_content(rs)
    assert not rs.same_content(closed)
    assert not closed.same_content(rs)
    assert not closed.same_content(closed)


def test_a_vacuous_fork_passes_to_the_next_candidate(monkeypatch):
    # at depth 1 only the root forks; when its first fork changes nothing,
    # it tries its next candidate and forks there
    cs = solution_run("gas1d").system
    tried = []
    real_nonzero, real_same = Assumption.nonzero, cases.ReducedSystem.same_content
    monkeypatch.setattr(Assumption, "nonzero",
                        staticmethod(lambda e: tried.append(e) or real_nonzero(e)))
    first = build_tree(cs, depth=1).root
    assert tried == [first.pivot]
    monkeypatch.setattr(cases.ReducedSystem, "same_content",
                        lambda a, b: len(tried) == 1 or real_same(a, b))
    tried.clear()
    second = build_tree(cs, depth=1).root
    assert len(tried) == 2 and tried[0] == first.pivot
    assert second.pivot == tried[1] != first.pivot
    assert [c.assumptions[-1].expr for c in second.children] == [tried[1]] * 2


# -- pivot discovery ------------------------------------------------------

def test_gas_pivot_candidates_are_atoms(gas):
    cs = solution_run("gas1d").system
    cands = pivot_candidates(cs)
    # no coefficient pair repeats, so no composite combinations appear
    for e in cands:
        assert len(list(e.atoms())) == 1


def test_fluid_adiabatic_composite_pivots(fluid):
    cs = force_residual(solution_run("fluid2d").system)
    tree = build_tree(cs)
    assert len(tree.leaves()) == 4
    rc = fluid.render_ctx()
    pivots = {
        expr_str(n.pivot, rc) for n in tree.root.walk() if n.pivot is not None
    }
    assert pivots == {
        "d2eps/drho.dtheta*deta/dtheta - deps/dtheta*d2eta/drho.dtheta",
        "d2eps/dtheta.dtheta*deta/dtheta - deps/dtheta*d2eta/dtheta.dtheta",
    }


def test_fluid_adiabatic_shear_stress_vanishes_everywhere(fluid):
    cs = force_residual(solution_run("fluid2d").system)
    tree = build_tree(cs)
    T12 = ConstitSym("T12")
    for leaf in tree.leaves():
        assert T12 in leaf.system.zeroed


def test_force_residual_moves_residual():
    cs = solution_run("fluid2d").system
    forced = force_residual(cs)
    assert forced.residual_numerator.is_zero()
    assert len(forced.constraints) == len(cs.constraints) + 1


# -- the reducer's work caches --------------------------------------------

def _check_scan(state, c):
    # the scan against the per-atom collection it replaced
    want = []
    for u in constit_atoms(c):
        coeffs = collect_coefficients(c, [u])
        if set(coeffs) <= {(), ((u, 1),)}:
            want.append((u, coeffs[((u, 1),)]))
    got = state.linear_atoms(c)
    assert [u for u, _ in got] == [u for u, _ in want]
    for (_, coeff), (_, ref) in zip(got, want):
        assert coeff == ref and list(coeff.num) == list(ref.num)
        residue = strip_certified(ref, state.nonzero)
        assert state.residue(coeff) == residue
        assert state.divides(coeff) == (
            not coeff.is_rational() and residue.is_rational()
        )


@pytest.mark.parametrize("name", ["gas1d", "fluid2d", "nonsimple2d", "granular2d"])
def test_linear_scan_matches_collect_coefficients(name):
    cs = solution_run(name).system
    state = cases._make_state(cs, ())
    for c in cs.constraints:
        _check_scan(state, c)


SCAN_ATOMS = 5  # four unknown-function atoms and rho, a nonzero coordinate


@given(
    st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in range(SCAN_ATOMS))),
        st.integers(-6, 6).filter(bool),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_linear_scan_on_random_polynomials(terms):
    cs = solution_run("gas1d").system
    rho = dict(cs.args_of)["eta"][0]
    atoms = (ETA_EPS, PHI1_RHO, PHI1_EPS, Expr.atom(ConstitSym("p")), Expr.atom(rho))
    c = Expr.rational(0)
    for exps, k in terms.items():
        term = Expr.rational(k)
        for a, e in zip(atoms, exps):
            term = term * a**e
        c = c + term
    # one-term certified factors only, then a two-term one as well
    for nonzero in (ETA_EPS, ETA_EPS + PHI1_RHO):
        state = cases._make_state(cs, (Assumption.nonzero(nonzero),))
        assert state.composite_factors == (nonzero is not ETA_EPS)
        _check_scan(state, c)


def test_root_reduction_divides_only_where_it_can_succeed(monkeypatch):
    # every certified factor of granular2d is one term, and dividing by a
    # one-term factor keeps the number of terms, so a coefficient of two
    # or more terms is blocked without a division
    cs = solution_run("granular2d").system
    assert all(len(f.num) == 1 for f in cs.nonzero)
    stripped, divisions = [], []
    strip, divexact = cases.strip_certified, algebra.poly_divexact

    def counting_strip(e, nonzero):
        stripped.append(e)
        return strip(e, nonzero)

    def counting_divexact(p, q):
        divisions.append(q)
        return divexact(p, q)

    monkeypatch.setattr(cases, "strip_certified", counting_strip)
    monkeypatch.setattr(algebra, "poly_divexact", counting_divexact)
    apply_assumptions(cs, ())
    assert [e for e in stripped if len(e.num) > 1] == []
    assert len(stripped) <= 439
    assert len(divisions) <= 1750


def test_root_reduction_refreshes_only_what_changed(monkeypatch):
    # a refresh substitutes into a constraint only when one of its
    # functions was zeroed or solved since, and renormalizes it only when
    # the substitution changed it; without either skip the output is the
    # same, so only these counts tell
    cs = solution_run("granular2d").system
    counts = Counter()

    def counting(name, f):
        def step(*args):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(cases, name, step)

    counting("subst_known", cases.subst_known)
    counting("normalize_constraint", cases.normalize_constraint)
    apply_assumptions(cs, ())
    assert counts["subst_known"] <= 490
    assert counts["normalize_constraint"] <= 375


def test_a_tree_substitutes_each_value_once_along_a_path(monkeypatch):
    # a child reads its ancestors' substitutions from their memo layers;
    # reducing every node from the root took 253 calls
    calls = []
    substitute = algebra.substitute

    def counting(e, pairs):
        calls.append(e)
        return substitute(e, pairs)

    monkeypatch.setattr(algebra, "substitute", counting)
    _depth3_tree("nonsimple2d")
    assert len(calls) <= 126


def test_root_reduction_remembers_partials_with_no_base(monkeypatch):
    # a partial with no base is remembered until its function gets a new
    # value, so a search that finds nothing is not repeated each pass
    cs = solution_run("granular2d").system
    misses = []
    best = algebra._best_base

    def counting(x, bases):
        found = best(x, bases)
        if found is None:
            misses.append(x)
        return found

    monkeypatch.setattr(algebra, "_best_base", counting)
    apply_assumptions(cs, ())
    assert len(misses) <= 74


def test_reduction_caches_only_live_scans():
    # a refresh drops the scan of each constraint it did not keep; a
    # residue is kept in the state's memo, so a second request reuses it
    st = cases._make_state(solution_run("granular2d").system, ())
    cases._reduce(st)
    assert st.scans and set(st.scans) <= set(st.constraints)
    coeff = next(k for scan in st.scans.values() for _u, k in scan)
    assert st.residue(coeff) is st.residue(coeff)


def test_round_cap_fails_loudly(monkeypatch):
    monkeypatch.setattr(cases, "_MAX_ROUNDS", 1)
    cs = solution_run("gas1d").system
    with pytest.raises(ReductionCapExceeded) as err:
        apply_assumptions(cs, (Assumption.nonzero(ETA_EPS),))
    assert err.value.code == "E060"
    assert str(err.value) == (
        "reduction reached no fixed point in 1 rounds; "
        "assumptions: deta/deps != 0"
    )


def test_substitution_cap_fails_loudly(monkeypatch):
    monkeypatch.setattr(cases, "_MAX_PASSES", 1)
    cs = solution_run("gas1d").system
    with pytest.raises(ReductionCapExceeded, match="assumptions: dPhi1/deps = 0"):
        apply_assumptions(cs, (Assumption.zero(PHI1_EPS),))


# -- reducer branches on hand-built systems -------------------------------

W, V = JetVar("w", (0,)), JetVar("v", (0,))


def _system(constraints, **args):
    """Constraints over jet atoms w and v, with w assumed nonzero."""
    return ConstraintSystem(
        constraints=tuple(constraints),
        residual_numerator=ZERO,
        denominator=ONE,
        nonzero=(Expr.atom(W),),
        free_elements=(),
        table=(),
        args_of=tuple(args.items()),
    )


def test_circular_value_is_not_solved():
    # solving w*dg/dw + d2g/dw.dw for dg/dw would feed d2g/dw.dw, which
    # dominates dg/dw, back into its own value
    dg = Expr.atom(ConstitPartial("g", (1,)))
    d2g = Expr.atom(ConstitPartial("g", (2,)))
    c = Expr.atom(W) * dg + d2g
    rs = apply_assumptions(_system([c], g=(W,)), ())
    assert rs.inconsistent is None
    assert rs.constraints == (c,)
    assert rs.solved == ()


def test_refresh_closes_on_a_function_free_constraint():
    # f = 0 leaves f + w = 0, that is w = 0 with w assumed nonzero
    f = Expr.atom(ConstitSym("f"))
    rs = apply_assumptions(_system([f, f + Expr.atom(W)], f=(W,)), ())
    assert rs.inconsistent == (
        "constraint reduces to a nonvanishing function-free expression"
    )


def test_compat_closes_on_incompatible_mixed_partials():
    # df/dv = 0 and df/dw = -v/w disagree: d/dv(-v/w) = -1/w != 0
    df_w = Expr.atom(ConstitPartial("f", (1, 0)))
    df_v = Expr.atom(ConstitPartial("f", (0, 1)))
    w, v = Expr.atom(W), Expr.atom(V)
    rs = apply_assumptions(_system([w * df_w + v, v * df_v], f=(W, V)), ())
    assert rs.inconsistent == "incompatible mixed partials of a solved function"


def test_zero_value_is_recorded_as_a_zeroed_function():
    # g = 0 is zeroed first; w*f + g then solves f = -g/w = 0, which
    # zeroes f instead of storing a zero value
    f, g = ConstitSym("f"), ConstitSym("g")
    c = Expr.atom(W) * Expr.atom(f) + Expr.atom(g)
    rs = apply_assumptions(_system([Expr.atom(g), c], f=(W,), g=(W,)), ())
    assert rs.inconsistent is None
    assert rs.constraints == ()
    assert rs.zeroed == (f, g)
    assert rs.solved == ()
    assert [k.kind for k in rs.certificates] == ["zero", "zero"]


def test_circular_value_holding_the_atom_itself():
    dg = ConstitPartial("g", (1,))
    assert cases._circular(dg, Expr.atom(dg) + ONE)
    assert not cases._circular(dg, Expr.atom(W) + ONE)


def test_circular_whole_symbol_assignments():
    g, dg = ConstitSym("g"), ConstitPartial("g", (1,))
    # a whole symbol may not take a value holding any of its partials
    assert cases._circular(g, Expr.atom(W) * Expr.atom(dg))
    # a partial may not take a value holding the whole symbol
    assert cases._circular(dg, Expr.atom(W) * Expr.atom(g))
    # other functions' atoms never count
    assert not cases._circular(g, Expr.atom(ConstitPartial("h", (1,))))


# -- fork candidates are read at each node's fixed point ------------------

TREES = [(name, forced) for name in ("gas1d", "fluid2d", "nonsimple2d")
         for forced in (False, True)]


def _depth3_tree(name, forced=False):
    cs = solution_run(name).system
    return build_tree(force_residual(cs) if forced else cs, depth=3)


def test_plain_reduction_computes_no_fork_candidate(monkeypatch):
    calls = []
    candidate = cases._blocked_candidate

    def counting(residue):
        calls.append(residue)
        return candidate(residue)

    monkeypatch.setattr(cases, "_blocked_candidate", counting)
    for name in ("gas1d", "fluid2d", "nonsimple2d", "granular2d"):
        apply_assumptions(solution_run(name).system, ())
        assert calls == [], name


@pytest.mark.parametrize("name,forced", TREES)
def test_each_open_node_orders_its_blocked_divisions_once(
    name, forced, monkeypatch
):
    inside = []  # one entry per _order_blocked call still running
    orders = []
    outside = []
    candidate, order = cases._blocked_candidate, cases._order_blocked

    def counting_candidate(residue):
        if not inside:
            outside.append(residue)
        return candidate(residue)

    def counting_order(st):
        orders.append(st.assumptions)
        inside.append(st)
        try:
            return order(st)
        finally:
            inside.pop()

    monkeypatch.setattr(cases, "_blocked_candidate", counting_candidate)
    monkeypatch.setattr(cases, "_order_blocked", counting_order)
    tree = _depth3_tree(name, forced)
    assert outside == []
    assert Counter(orders) == Counter(
        n.assumptions for n in tree.root.walk()
        if n.status != "closed-inconsistent"
    )


def _printed(rs, rc):
    # every field of a reduced system as printed, with the term order and
    # coefficient types of each expression
    def expr(e):
        return expr_str(e, rc), [(m, c, type(c)) for p in (e.num, e.den)
                                 for m, c in p.items()]

    return (
        [expr(c) for c in rs.constraints],
        [expr(f) for f in rs.nonzero],
        [atom_str(a, rc) for a in rs.zeroed],
        [(atom_str(k, rc), expr(v)) for k, v in rs.solved],
        [c.kind for c in rs.certificates],
        [atom_str(a, rc) for a in rs.derived_zeros],
        rs.inconsistent,
    )


@pytest.mark.parametrize("name,forced", [
    ("gas1d", False), ("fluid2d", False), ("fluid2d", True),
    ("nonsimple2d", False), ("nonsimple2d", True),
])
def test_a_node_reduced_on_its_own_is_the_node_of_the_tree(name, forced, monkeypatch):
    # a node reads the memo layers of its ancestors, and a memo hit is found
    # by value, blind to term order and int against integral Fraction; each
    # node prints the same system as its path reduced alone under a memo of
    # its own, and as the same tree built with no memo at all
    cs = solution_run(name).system
    cs = force_residual(cs) if forced else cs
    rc = load_model(name).render_ctx()

    def printed_nodes():
        tree = build_tree(cs, depth=3)
        return [(n.assumptions, _printed(n.system, rc)) for n in tree.root.walk()]

    nodes = printed_nodes()
    assert len(nodes) > 1
    for path, system in nodes:
        assert _printed(apply_assumptions(cs, path), rc) == system
    monkeypatch.setattr(algebra.Memo, "call", lambda self, key, f, *args: f(*args))
    assert printed_nodes() == nodes


@pytest.mark.parametrize("name", ["fluid2d", "nonsimple2d"])
def test_composite_pool_members_are_tested_only_past_the_blocked(
    name, monkeypatch
):
    # A node tests the composite (multi-term) pool members only once no
    # blocked candidate forks it: it then forks on one of them, is capped
    # on one, or does not fork at all.
    paths = []
    relevant = cases._relevant_static

    def recording(w, st):
        paths.append(st.assumptions)
        return relevant(w, st)

    monkeypatch.setattr(cases, "_relevant_static", recording)
    tree = _depth3_tree(name)
    statics = {p for p in tree.pivots if len(p.numerator_expr().num) > 1}
    nodes = {n.assumptions: n for n in tree.root.walk()}
    for path in paths:
        n = nodes[path]
        assert n.pivot in statics or n.capped in statics or (
            n.pivot is None and n.capped is None
        )
