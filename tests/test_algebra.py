"""Shared constraint algebra: division loops, the zero rule, the table of
known partials and substitution from it."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from entropik import algebra
from entropik.algebra import (
    Cancellation,
    KnownPartials,
    arg_derivative,
    certified_nonzero,
    divide_out,
    forced_zero,
    normalize_constraint,
    settle,
    strip_certified,
    subst_known,
)
from entropik.atoms import ConstitPartial, ConstitSym, JetVar
from entropik.bindings import parse_bindings
from entropik.expr import ONE, ZERO, Expr, expr_sum, partial_diff

from conftest import bindings_text

RHO = Expr.atom(JetVar("rho", (0, 0)))
EPS = Expr.atom(JetVar("eps", (0, 0)))
P = Expr.atom(ConstitSym("p"))
Q1 = Expr.atom(ConstitSym("q1"))
DP_DRHO = ConstitPartial("p", (1, 0))


def _args_of(gas):
    return {d.name: d.args for d in gas.decls}


def test_divide_out_skips_rational_factor():
    e = RHO * P
    assert divide_out(e, Expr.rational(2)) == (e, 0)


def test_divide_out_skips_non_polynomial_factor():
    e = RHO * P
    assert divide_out(e, ONE / RHO) == (e, 0)


def test_certified_nonzero_terminates_on_rational_factor():
    assert certified_nonzero(P, [Expr.rational(2)]) is False
    assert certified_nonzero(Expr.rational(3) * RHO**2, [Expr.rational(2), RHO]) is True


def test_forced_zero_lets_a_jet_cofactor_ride_along():
    assert forced_zero(RHO * EPS**2 * Expr.atom(DP_DRHO), []) is DP_DRHO


def test_forced_zero_needs_a_single_uncertified_function():
    assert forced_zero(P * Q1, []) is None
    assert forced_zero(P * Q1, [P]) is ConstitSym("q1")
    assert forced_zero(P + Q1, []) is None


def test_subst_known_zeroes_dominating_partials(gas):
    d2q = Expr.atom(ConstitPartial("q1", (2, 0)))
    dq_deps = Expr.atom(ConstitPartial("q1", (0, 1)))
    e = RHO * d2q + dq_deps + Expr.atom(DP_DRHO)
    known = KnownPartials(_args_of(gas))
    known.zero(ConstitPartial("q1", (1, 0)))
    known.zero(ConstitSym("p"))
    out = subst_known(e, known, 2)
    assert out == dq_deps


def test_subst_known_stores_a_derived_partial(gas):
    known = KnownPartials(_args_of(gas), [(ConstitSym("p"), RHO**2 * EPS)])
    out = subst_known(Expr.atom(DP_DRHO) + P, known, 2)
    two = Expr.rational(2)
    assert out == two * RHO * EPS + RHO**2 * EPS
    assert known.values[DP_DRHO] == two * RHO * EPS


def test_subst_known_gives_up_on_a_cycle(gas):
    known = KnownPartials(_args_of(gas), [(ConstitSym("p"), Q1), (ConstitSym("q1"), P)])
    assert subst_known(P, known, 5) is None


def test_subst_known_derives_bound_partials(gas):
    # gas1d_ideal binds p = (gamma - 1)*rho*eps and the first partials of
    # eta; gamma = 7/5 and Cv = 5/2 are the parameters' test values.
    bs = parse_bindings(bindings_text("gas1d_ideal"), gas)
    known = KnownPartials(_args_of(gas), bs.values().items())
    expected = {
        DP_DRHO: Expr.rational(Q(2, 5)) * EPS,
        ConstitPartial("p", (1, 1)): Expr.rational(Q(2, 5)),
        ConstitPartial("eta", (1, 1)): Expr.rational(0),
    }
    for x, value in expected.items():
        assert subst_known(Expr.atom(x), known, 3) == value
        assert x in known.values


def test_a_zero_answers_only_for_its_own_function(gas):
    # p's zeros never reach q1: only q1's own zero, which d2q1/drho.deps
    # does not dominate, is tested for it
    known = KnownPartials(_args_of(gas))
    known.zero(ConstitSym("p"))
    known.zero(ConstitPartial("q1", (0, 2)))
    dq = ConstitPartial("q1", (1, 1))
    assert known.get(ConstitPartial("p", (2, 0))) == ZERO
    assert known.get(dq) is None
    assert known.get(ConstitSym("q1")) is None
    assert subst_known(Expr.atom(dq) + P, known, 2) == Expr.atom(dq)


def test_a_symbol_is_never_derived_from_its_partials(gas):
    known = KnownPartials(_args_of(gas), [(DP_DRHO, RHO * EPS)])
    assert known.get(ConstitSym("p")) is None
    assert subst_known(P + Expr.atom(DP_DRHO), known, 2) == P + RHO * EPS


def test_a_miss_is_forgotten_when_its_function_gets_a_value(gas, monkeypatch):
    searches = []
    best = algebra._best_base

    def counting(x, bases):
        searches.append(x)
        return best(x, bases)

    monkeypatch.setattr(algebra, "_best_base", counting)
    known = KnownPartials(_args_of(gas), [(ConstitPartial("p", (0, 1)), RHO)])
    # d2p/drho2 dominates no entry of p: one search, then remembered
    d2p = ConstitPartial("p", (2, 0))
    assert known.get(d2p) is None
    assert known.get(d2p) is None
    assert searches == [d2p]
    # a value of q1 leaves p's miss alone; a value of p forgets it
    known.put(ConstitSym("q1"), RHO)
    assert known.get(d2p) is None
    assert searches == [d2p]
    known.put(DP_DRHO, RHO * EPS)
    assert known.get(d2p) == EPS
    assert searches == [d2p, d2p]


def test_a_tie_between_bases_goes_to_the_first_entered(gas):
    # d2p/drho.deps dominates both first partials; each gives a value
    # that differentiates to a different one, so the base shows
    d2p = ConstitPartial("p", (1, 1))
    eps_first = [(ConstitPartial("p", (0, 1)), RHO**2), (DP_DRHO, RHO * EPS)]
    for entries, value in ((eps_first, Expr.rational(2) * RHO), (eps_first[::-1], RHO)):
        known = KnownPartials(_args_of(gas), entries)
        assert known.get(d2p) == value


def test_settle_resolves_a_chain_and_rejects_a_cycle():
    chain = {ConstitSym("p"): Q1 + ONE, ConstitSym("q1"): RHO}
    assert settle(chain, 2)
    assert chain[ConstitSym("p")] == RHO + ONE
    assert not settle({ConstitSym("p"): Q1, ConstitSym("q1"): P}, 4)


# -- dividing out nonzero factors (property-based) -------------------------

U = Expr.atom(JetVar("u", (0, 0)))
BASE_ATOMS = (RHO, EPS, P)
# Q1 and U never occur in a base polynomial, only in factors.
FACTOR_ATOMS = (RHO, EPS, P, Q1, U)


def _poly(terms, atoms):
    out = ZERO
    for c, exps in terms:
        t = Expr.rational(c)
        for a, k in zip(atoms, exps):
            t = t * a**k
        out = out + t
    return out


def _polys(atoms, max_terms):
    term = st.tuples(
        st.integers(-3, 3).filter(bool),
        st.tuples(*(st.integers(0, 2) for _ in atoms)),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(
        lambda ts: _poly(ts, atoms)
    )


single_atoms = st.sampled_from(FACTOR_ATOMS)
factors = st.one_of(
    single_atoms,
    st.builds(lambda a, b: a * b, single_atoms, single_atoms),
    _polys(FACTOR_ATOMS, 3),
    st.sampled_from((Expr.rational(2), ONE / RHO)),
)


def _strip_by_every_factor(e, nonzero):
    log = []
    for f in nonzero:
        e, times = divide_out(e, f)
        if times:
            log.append(Cancellation(factor=f, times=times))
    return e, log


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_dividing_out_skips_only_factors_that_cannot_divide(data):
    # the dividend is a multiple of some of the factors, so divisions both
    # succeed and fail, and factors with atoms it lacks are among them
    nonzero = data.draw(st.lists(factors, max_size=5))
    e = data.draw(_polys(BASE_ATOMS, 3))
    if nonzero:
        for i in data.draw(st.lists(st.integers(0, len(nonzero) - 1), max_size=3)):
            e = e * nonzero[i]
    stripped, log = _strip_by_every_factor(e.numerator_expr(), nonzero)
    # with no factors left to cancel, normalize_constraint only makes monic
    assert normalize_constraint(e, nonzero) == (
        normalize_constraint(stripped, ())[0], log
    )
    assert strip_certified(e, nonzero) == _strip_by_every_factor(e, nonzero)[0]


# -- direct kernel paths (property-based) ---------------------------------
# The one-pass paths must give what the general ones give, down to the
# insertion order and the type of every coefficient: later folds over
# non-monomial denominators depend on both.

# ints, and Fractions, integral ones among them, as a product can leave
coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(-2, 2, max_denominator=3).filter(bool),
)


def _terms(p):
    return [(m, c, type(c)) for m, c in p.items()]


def _same(a, b):
    return _terms(a.num) == _terms(b.num) and _terms(a.den) == _terms(b.den)


def _raw_poly(terms, atoms):
    """The polynomial with exactly these coefficients, summed key by key
    and built without normalizing them."""
    num = {}
    for c, exps in terms:
        m = tuple(sorted(((a, k) for a, k in zip(atoms, exps) if k),
                         key=lambda ak: ak[0].key))
        num[m] = num.get(m, 0) + c
    return Expr.poly({m: c for m, c in num.items() if c})


def _raw_polys(atoms, min_terms, max_terms):
    term = st.tuples(coeffs, st.tuples(*(st.integers(0, 2) for _ in atoms)))
    return st.lists(term, min_size=min_terms, max_size=max_terms).map(
        lambda ts: _raw_poly(ts, atoms)
    )


DIFF_ATOMS = (
    JetVar("rho", (0, 0)), JetVar("eps", (0, 0)), JetVar("u", (0, 0)),
    ConstitSym("p"), DP_DRHO, ConstitPartial("p", (0, 1)), ConstitSym("q1"),
    ConstitSym("h"),
)
# q1 does not see rho; h has no declaration
DIFF_ARGS = {"p": DIFF_ATOMS[:2], "q1": DIFF_ATOMS[1:2]}


def _arg_derivative_by_atoms(e, a, args_of):
    """The general path: one quotient-rule derivative per atom, times the
    bumped partial, summed."""
    terms = []
    for x in e.atoms():
        if x is a:
            terms.append(partial_diff(e, x))
            continue
        args = args_of.get(getattr(x, "name", None))
        if not isinstance(x, (ConstitSym, ConstitPartial)) or not args or a not in args:
            continue
        slots = list(x.slots or (0,) * len(args))  # () is the zero multi-index
        slots[args.index(a)] += 1
        terms.append(partial_diff(e, x) * Expr.atom(ConstitPartial(x.name, slots)))
    return expr_sum(terms)


def _cancelling_pairs(c, rest):
    # c*p*X - c*rho*dp/drho*X: the rho-derivatives in rho and in p cancel
    x = (0, rest[0], rest[1], 0, 0, 0, rest[2], 0)
    return [(c, x[:3] + (1,) + x[4:]), (-c, (1,) + x[1:4] + (1,) + x[5:])]


diff_polys = st.tuples(
    st.lists(st.tuples(coeffs, st.tuples(*(st.integers(0, 2) for _ in DIFF_ATOMS))),
             max_size=6),
    st.lists(st.tuples(coeffs, st.tuples(*(st.integers(0, 1) for _ in range(3)))),
             max_size=2),
).map(lambda tp: _raw_poly(
    tp[0] + [t for c, rest in tp[1] for t in _cancelling_pairs(c, rest)], DIFF_ATOMS
))


@given(diff_polys, st.sampled_from(DIFF_ATOMS[:2]))
@settings(max_examples=300, deadline=None)
def test_polynomial_arg_derivative_is_the_sum_over_atoms(e, a):
    got = arg_derivative(e, a, DIFF_ARGS)
    assert _same(got, _arg_derivative_by_atoms(e, a, DIFF_ARGS))


def test_arg_derivative_cancels_across_atoms():
    rho, p = Expr.atom(DIFF_ATOMS[0]), Expr.atom(ConstitSym("p"))
    half = Expr.rational(Q(1, 2))
    e = rho * Expr.atom(DP_DRHO) * half - p * half
    assert arg_derivative(e, DIFF_ATOMS[0], DIFF_ARGS) == rho * Expr.atom(
        ConstitPartial("p", (2, 0))) * half


FACTOR_SYMS = tuple(a.atoms()[0] for a in FACTOR_ATOMS)
one_term_factors = st.builds(
    lambda c, exps: _raw_poly([(c, exps)], FACTOR_SYMS),
    coeffs, st.tuples(*(st.integers(0, 2) for _ in FACTOR_SYMS)),
)
multi_term_factors = _raw_polys(FACTOR_SYMS, 2, 3).filter(lambda f: len(f.num) > 1)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_one_pass_normal_form_is_repeated_division(data):
    # one-term factors with Fraction coefficients, some dividing more than
    # once, and a multi-term factor that divides, so the pass falls back
    nonzero = data.draw(st.lists(
        st.one_of(one_term_factors, one_term_factors, multi_term_factors, factors),
        max_size=5,
    ))
    fallback = data.draw(multi_term_factors)
    nonzero.insert(data.draw(st.integers(0, len(nonzero))), fallback)
    e = data.draw(_raw_polys(FACTOR_SYMS[:3], 1, 4)) * fallback ** data.draw(
        st.integers(0, 2))
    for i in data.draw(st.lists(st.integers(0, len(nonzero) - 1), max_size=4)):
        e = e * nonzero[i]
    want, log = _strip_by_every_factor(e.numerator_expr(), nonzero)
    got, got_log = normalize_constraint(e, nonzero)
    assert got_log == log
    assert _same(got, normalize_constraint(want, ())[0])
    assert _same(strip_certified(e, nonzero), _strip_by_every_factor(e, nonzero)[0])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_normal_form_does_not_depend_on_the_term_order(data):
    # the same polynomial with its terms in another order, under one-term
    # and multi-term factors that divide it
    nonzero = data.draw(st.lists(
        st.one_of(one_term_factors, multi_term_factors, factors), max_size=4,
    ))
    e = data.draw(_raw_polys(FACTOR_SYMS[:3], 1, 4))
    if nonzero:
        for i in data.draw(st.lists(st.integers(0, len(nonzero) - 1), max_size=3)):
            e = e * nonzero[i]
    e = e.numerator_expr()
    terms = data.draw(st.permutations(list(e.num.items())))
    shuffled = Expr.poly(dict(terms))
    assert normalize_constraint(shuffled, nonzero) == normalize_constraint(e, nonzero)
    assert strip_certified(shuffled, nonzero) == strip_certified(e, nonzero)
