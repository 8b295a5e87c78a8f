"""Kernel arithmetic: canonical forms, exactness, derivations."""

import random
from fractions import Fraction as Q
from functools import reduce
from itertools import permutations
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import entropik
from entropik import backend
from entropik._ratio import qdiv
from entropik.atoms import (
    Constit,
    ConstitPartial,
    ConstitSym,
    IndepVar,
    JetVar,
    mi_dominates,
)
from entropik.errors import (
    DenominatorVanishes,
    DivisionByZeroExpr,
    MissingAssignment,
    NotPolynomialInVars,
)
from entropik.expr import (
    ONE,
    ZERO,
    DiffContext,
    Expr,
    PointEvaluator,
    collect_coefficients,
    eval_numeric,
    eval_poly,
    expr_sum,
    mono_key,
    mono_strip,
    monomial_expr,
    partial_diff,
    poly_divexact,
    substitute,
    total_derivative,
)
from entropik.render import expr_str

T, X = IndepVar("t"), IndepVar("x")
RHO = JetVar("rho", (0, 0))
RHO_X = JetVar("rho", (0, 1))
U = JetVar("u", (0, 0))
EPS = JetVar("eps", (0, 0))
P = ConstitSym("p")
P_RHO = ConstitPartial("p", (1, 0))

CTX = DiffContext(indep=(T, X), args={"p": (RHO, EPS), "q1": (RHO, EPS)})

ATOM_POOL = [
    T, X, RHO, RHO_X, U, EPS, P, P_RHO,
    JetVar("u", (1, 0)), ConstitSym("q1"), ConstitPartial("q1", (0, 2)),
]


def _rand_expr(rnd, depth=3):
    # small random rational functions over the shared atom pool
    roll = rnd.random()
    if depth == 0 or roll < 0.3:
        if rnd.random() < 0.4:
            return Expr.rational(Q(rnd.randint(-6, 6), rnd.randint(1, 6)))
        return Expr.atom(rnd.choice(ATOM_POOL))
    a = _rand_expr(rnd, depth - 1)
    b = _rand_expr(rnd, depth - 1)
    op = rnd.randrange(4)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if b.is_zero():
        return a
    return a / b


# -- canonical form -------------------------------------------------------

def test_zero_is_exact():
    e = Expr.atom(RHO) - Expr.atom(RHO)
    assert e.is_zero()
    assert e == ZERO


def test_no_tolerance_near_zero():
    tiny = Expr.rational(Q(1, 10**40))
    assert not tiny.is_zero()
    assert (tiny - tiny).is_zero()


def _equiv(x, y):
    # cross-multiplied difference; exact even when the quotient normal
    # forms differ by an uncancelled polynomial factor
    return (x - y).is_zero()


def test_cancellation_common_factor():
    r = Expr.atom(RHO)
    assert (r * r) / r == r
    assert (r + r) / r == Expr.rational(2)


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZeroExpr):
        ONE / ZERO


def test_pow():
    r = Expr.atom(RHO)
    assert r ** 3 == r * r * r
    assert r ** 0 == ONE
    assert (ONE / r ** 2) * r ** 2 == ONE
    with pytest.raises(TypeError):
        r ** -2


def test_eval_numeric_requires_assignment():
    with pytest.raises(MissingAssignment):
        eval_numeric(Expr.atom(RHO), {})


def test_collect_coefficients_reconstructs():
    rnd = random.Random(11)
    for _ in range(50):
        e = _rand_expr(rnd).numerator_expr()
        table = collect_coefficients(e, [RHO_X, U])
        total = ZERO
        for mono, coeff in table.items():
            total = total + coeff * monomial_expr(mono)
        assert total == e


def test_collect_coefficients_rejects_a_variable_in_the_denominator():
    with pytest.raises(NotPolynomialInVars) as err:
        collect_coefficients(Expr.atom(X) / Expr.atom(U), [U])
    assert err.value.code == "E003"


# -- atoms ------------------------------------------------------------------

@pytest.mark.parametrize("make, args", [
    (IndepVar, ("t",)), (JetVar, ("rho", (0, 1))),
    (ConstitSym, ("p",)), (ConstitPartial, ("p", (1, 0))),
])
def test_an_interned_key_gives_the_interned_atom(make, args):
    first = make(*args)
    assert make(*args) is first
    if len(args) == 2:  # any spelling of the multi-index gives it too
        assert make(args[0], list(args[1])) is first
        assert make(args[0], tuple(float(o) for o in args[1])) is first


def test_an_invalid_atom_raises_after_its_valid_one_is_interned():
    JetVar("rho", (0, 1))
    ConstitPartial("p", (1, 0))
    for make, bad in ((JetVar, ("rho", (0, -1))), (ConstitPartial, ("p", (0, 0))),
                      (ConstitPartial, ("p", (-1, 1)))):
        with pytest.raises(ValueError):
            make(*bad)


def test_a_symbol_is_its_own_zero_order_partial():
    assert ConstitSym("p").slots == ()
    assert isinstance(ConstitSym("p"), Constit)
    assert isinstance(ConstitPartial("p", (1, 0)), Constit)
    assert not mi_dominates((), ())


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple))
def test_every_partial_dominates_its_function(beta):
    assert mi_dominates(beta, ())
    assert not mi_dominates((), beta)


@pytest.mark.parametrize("atom, text", [
    (IndepVar("t"), "t"), (JetVar("rho", (1, 0)), "rho[1,0]"),
    (JetVar("rho", (0, 0)), "rho"), (ConstitSym("p"), "p"),
    (ConstitPartial("q", (2, 0)), "d2q/da0.da0"),
])
def test_an_atom_prints_its_context_free_label(atom, text):
    # str() of an atom is the renderer's label with no model context:
    # positional jet subscripts and argument slots
    assert str(atom) == text
    assert repr(atom) == f"<{type(atom).__name__} {text}>"


def _first_seen_atoms(e):
    seen = []
    for p in (e.num, e.den):
        for m in p:
            for a, _ in m:
                if a not in seen:
                    seen.append(a)
    return tuple(seen)


# -- algebraic laws (property-based) --------------------------------------

exprs = st.builds(
    lambda seed, depth: _rand_expr(random.Random(seed), depth),
    st.integers(0, 2**32), st.integers(1, 3),
)


@given(exprs)
@settings(max_examples=100, deadline=None)
def test_atoms_are_the_first_seen_atoms_once(a):
    assert a.atoms() == _first_seen_atoms(a)
    assert a.atoms() is a.atoms()


@given(exprs, exprs, exprs)
@settings(max_examples=150, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert _equiv((a + b) + c, a + (b + c))
    assert _equiv(a * (b + c), a * b + a * c)
    assert a - a == ZERO
    assert a * ONE == a


@given(exprs)
@settings(max_examples=100, deadline=None)
def test_division_inverts_multiplication(a):
    if not a.is_zero():
        assert _equiv((a * a) / a, a)
        assert _equiv(a / a, ONE)


@given(exprs, exprs)
@settings(max_examples=100, deadline=None)
def test_partial_diff_leibniz(a, b):
    da, db = partial_diff(a, RHO), partial_diff(b, RHO)
    assert _equiv(partial_diff(a * b, RHO), da * b + a * db)
    assert _equiv(partial_diff(a + b, RHO), da + db)


def test_partial_diff_constants():
    assert partial_diff(Expr.rational(5), RHO) == ZERO
    assert partial_diff(Expr.atom(U), RHO) == ZERO
    assert partial_diff(Expr.atom(RHO), RHO) == ONE


# -- total derivative -----------------------------------------------------

def test_total_derivative_prolongs_jets():
    assert total_derivative(Expr.atom(RHO), X, CTX) == Expr.atom(RHO_X)


def test_total_derivative_chain_rule():
    # an unknown function of (rho, eps) picks up one term per argument
    d = total_derivative(Expr.atom(P), X, CTX)
    expected = (
        Expr.atom(P_RHO) * Expr.atom(RHO_X)
        + Expr.atom(ConstitPartial("p", (0, 1))) * Expr.atom(JetVar("eps", (0, 1)))
    )
    assert d == expected


def test_total_derivative_commutation_and_leibniz_bulk():
    # 1000 randomized expressions, fixed seed
    rnd = random.Random(2026)
    for _ in range(1000):
        a = _rand_expr(rnd, 2)
        b = _rand_expr(rnd, 2)
        dt_dx = total_derivative(total_derivative(a, T, CTX), X, CTX)
        dx_dt = total_derivative(total_derivative(a, X, CTX), T, CTX)
        assert _equiv(dt_dx, dx_dt)
        lhs = total_derivative(a * b, X, CTX)
        rhs = (
            total_derivative(a, X, CTX) * b + a * total_derivative(b, X, CTX)
        )
        assert _equiv(lhs, rhs)


# -- substitution ---------------------------------------------------------

def test_substitute_simple():
    e = Expr.atom(P) * Expr.atom(RHO)
    out = substitute(e, {P: Expr.atom(RHO) ** 2})
    assert out == Expr.atom(RHO) ** 3


@given(exprs)
@settings(max_examples=100, deadline=None)
def test_substitute_identity_map(a):
    assert substitute(a, {RHO: Expr.atom(RHO)}) == a


# -- sums -----------------------------------------------------------------

def _over_monomial(seed, depth):
    # a random polynomial over a random monic monomial
    rnd = random.Random(seed)
    mono = tuple(sorted(
        {a: rnd.randint(1, 2) for a in rnd.sample(ATOM_POOL, rnd.randint(0, 3))}.items(),
        key=lambda ae: ae[0].key))
    return _rand_expr(rnd, depth).numerator_expr() / monomial_expr(mono)


monomial_den_exprs = st.builds(
    _over_monomial, st.integers(0, 2**32), st.integers(1, 3))


@given(st.lists(st.one_of(exprs, monomial_den_exprs), max_size=6))
@settings(max_examples=200, deadline=None)
def test_expr_sum_is_the_fold_in_order(ts):
    folded = reduce(add, ts, ZERO)
    s = expr_sum(ts)
    assert s.num == folded.num and s.den == folded.den


@given(st.lists(monomial_den_exprs, min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_expr_sum_over_monomial_denominators_ignores_order(ts):
    first = expr_sum(ts)
    assert len(first.den) == 1
    for order in permutations(ts):
        for s in (expr_sum(list(order)), reduce(add, order)):
            assert s.num == first.num and s.den == first.den


def test_expr_sum_keeps_the_order_of_a_non_monomial_sum():
    # no GCD: rho/p + u/q + eps/p keeps p twice in its denominator, while
    # adding the two terms over p first cancels to a quadratic one
    rho, u, eps = Expr.atom(RHO), Expr.atom(U), Expr.atom(EPS)
    p, q = rho + u, rho + eps
    a, b, c = rho / p, u / q, eps / p
    in_order, regrouped = expr_sum([a, b, c]), expr_sum([a, c, b])
    assert in_order == (a + b) + c and regrouped == (a + c) + b
    assert in_order.den == (p * q * p).num
    assert regrouped.den == (p * q).num
    assert _equiv(in_order, regrouped)


def test_expr_sum_of_no_term_or_one():
    assert expr_sum([]) is ZERO
    for den in (Expr.atom(U), Expr.atom(U) + ONE):
        t = Expr.atom(RHO) / den
        assert expr_sum([t]) is t


def test_single_kernel_exports():
    assert entropik.BACKEND == "python"
    for name in ("p_add", "p_sub", "p_mul", "p_diff", "p_pow"):
        assert callable(getattr(backend, name))


def test_mono_mul_merges_sorted():
    a, b = sorted((T, RHO), key=lambda x: x.key)
    assert backend.mono_mul(((a, 2),), ((a, 1), (b, 1))) == ((a, 3), (b, 1))


# -- coefficient form -----------------------------------------------------

def test_qdiv_keeps_integral_quotients_int():
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(Q(6, 3), 2) == 1 and type(qdiv(Q(6, 3), 2)) is int
    assert qdiv(1, 2) == Q(1, 2) and type(qdiv(1, 2)) is Q


@given(st.integers(), st.integers().filter(bool))
@settings(max_examples=300, deadline=None)
def test_qdiv_is_exact_and_never_float(a, b):
    q = qdiv(a, b)
    assert not isinstance(q, float)
    assert q * b == a
    assert type(q) is (int if a % b == 0 else Q)


def test_rational_constructor_stores_int():
    e = Expr.rational(Q(4, 2))
    assert e.num == {(): 2}
    assert type(e.num[()]) is int


def test_pow_zero_has_no_float():
    out = backend.p_pow({((RHO, 1),): 3, (): 2}, 0)
    assert out == {(): 1}
    assert type(out[()]) is int


# -- exact point evaluation (property-based) ------------------------------

def _reference_eval(e, point):
    # one Fraction per term, the slow way eval_numeric must agree with
    def poly(p):
        total = Q(0)
        for mono, c in p.items():
            term = Q(c)
            for a, k in mono:
                if a not in point:
                    raise MissingAssignment(f"no value assigned to {a}")
                term *= point[a] ** k
            total += term
        return total

    num, den = poly(e.num), poly(e.den)
    if den == 0:
        raise DenominatorVanishes("denominator evaluates to zero")
    return num / den


EVAL_ATOMS = (RHO, U, EPS, P)
small_ints = st.integers(-4, 4)
non_integral = st.builds(Q, small_ints, st.integers(2, 5)).filter(
    lambda q: q.denominator != 1)
eval_coeffs = st.one_of(small_ints.filter(bool), non_integral)
eval_monomials = st.builds(
    lambda exps: tuple((a, e) for a, e in zip(EVAL_ATOMS, exps) if e),
    st.tuples(*(st.integers(0, 3) for _ in EVAL_ATOMS)),
)
eval_polys = st.dictionaries(eval_monomials, eval_coeffs, min_size=1, max_size=5)
# values include 0 and negatives, so denominators can vanish
point_values = st.one_of(small_ints, non_integral)


@given(eval_polys, eval_polys, st.tuples(*(point_values for _ in EVAL_ATOMS)),
       st.one_of(st.none(), st.sampled_from(EVAL_ATOMS)))
@settings(max_examples=400, deadline=None)
def test_eval_numeric_matches_a_fraction_reference(num, den, values, unassigned):
    e = Expr(num, den)
    point = {a: v for a, v in zip(EVAL_ATOMS, values) if a is not unassigned}
    try:
        want = _reference_eval(e, point)
    except (MissingAssignment, DenominatorVanishes) as err:
        with pytest.raises(type(err)):
            eval_numeric(e, point)
        return
    got = eval_numeric(e, point)
    assert type(got) is Q
    assert got == want and str(got) == str(want)


def _outcome(evaluate):
    # a value, or the error raised and its message (which names the atom)
    try:
        v = evaluate()
    except (MissingAssignment, DenominatorVanishes) as err:
        return type(err), str(err)
    assert type(v) is Q
    return v, str(v)


@given(st.lists(st.tuples(eval_polys, eval_polys), min_size=1, max_size=4),
       st.tuples(*(point_values for _ in EVAL_ATOMS)),
       st.one_of(st.none(), st.sampled_from(EVAL_ATOMS)),
       st.tuples(*(st.one_of(st.none(), point_values) for _ in EVAL_ATOMS)))
@settings(max_examples=400, deadline=None)
def test_a_compiled_evaluator_matches_the_reference_after_a_refresh(
        halves, values, unassigned, changes):
    # expressions sharing atoms and slots, at a point, then after some
    # values change and only those are refreshed
    exprs = [Expr(num, den) for num, den in halves]
    ev = PointEvaluator()
    compiled = [ev.compile(e) for e in exprs]
    point = {a: v for a, v in zip(EVAL_ATOMS, values) if a is not unassigned}
    ev.assign(point)
    for changed in ({}, {a: v for a, v in zip(EVAL_ATOMS, changes) if v is not None}):
        point.update(changed)
        ev.assign(changed)
        for e, c in zip(exprs, compiled):
            assert _outcome(lambda: ev.value(c)) == _outcome(
                lambda: _reference_eval(e, point))


# -- exact polynomial division (property-based) ---------------------------

DIV_ATOMS = sorted((RHO, U, EPS, P), key=lambda a: a.key)

coeffs = st.builds(qdiv, st.integers(-6, 6).filter(bool), st.integers(1, 4))
monomials = st.builds(
    lambda exps: tuple((a, e) for a, e in zip(DIV_ATOMS, exps) if e),
    st.tuples(*(st.integers(0, 2) for _ in DIV_ATOMS)),
)
polys = st.dictionaries(monomials, coeffs, min_size=1, max_size=4)


def _degree(p):
    return max(sum(e for _, e in m) for m in p)


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_divexact_recovers_the_cofactor(a, q):
    # the degree and support checks never reject a true multiple
    assert poly_divexact(backend.p_mul(a, q), q) == a


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_divexact_result_is_a_quotient(p, q):
    try:
        out = poly_divexact(p, q)
    except ArithmeticError:
        return
    assert backend.p_mul(out, q) == p


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_divexact_rejects_a_missing_atom(p, q):
    # drop the last atom from p, and make sure q has it
    p = {tuple(x for x in m if x[0] is not DIV_ATOMS[-1]): c for m, c in p.items()}
    q = backend.p_mul(q, {((DIV_ATOMS[-1], 1),): 1})
    with pytest.raises(ArithmeticError):
        poly_divexact(p, q)


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_divexact_rejects_a_larger_degree(p, q):
    assume(_degree(p) < _degree(q))
    with pytest.raises(ArithmeticError):
        poly_divexact(p, q)


def _divexact_by_elimination(p, q):
    # the general elimination loop, the reference for a one-term divisor
    top = {}
    for m in p:
        for a, e in m:
            if e > top.get(a, 0):
                top[a] = e
    for m in q:
        for a, e in m:
            if e > top.get(a, 0):
                raise ArithmeticError("inexact polynomial division")
    atoms = sorted(top, key=lambda a: a.key)
    index = {a: i for i, a in enumerate(atoms, 1)}

    def dense(m):
        v = [0] * (len(atoms) + 1)
        for a, e in m:
            v[index[a]] = e
        v[0] = sum(v)
        return tuple(v)

    r = {dense(m): c for m, c in p.items()}
    qd = {dense(m): c for m, c in q.items()}
    lq = max(qd)
    cq = qd[lq]
    out = {}
    while r:
        lr = max(r)
        diff = tuple(x - y for x, y in zip(lr, lq))
        if min(diff) < 0:
            raise ArithmeticError("inexact polynomial division")
        coeff = qdiv(r[lr], cq)
        out[tuple((x, e) for x, e in zip(atoms, diff[1:]) if e)] = coeff
        for mq, c in qd.items():
            m = tuple(x + y for x, y in zip(diff, mq))
            nc = r.get(m, 0) - coeff * c
            if nc:
                r[m] = nc
            else:
                r.pop(m, None)
    return out


def _typed(p):
    return [(m, c, type(c)) for m, c in p.items()]


one_term = st.builds(
    lambda m, c: {m: c}, st.one_of(st.just(()), monomials), coeffs)


@given(polys, one_term, st.booleans())
@settings(max_examples=400, deadline=None)
def test_divexact_by_one_term_matches_the_elimination_loop(a, q, multiple):
    # half the dividends are multiples of q, so both outcomes are common
    p = backend.p_mul(a, q) if multiple else a
    try:
        want = _divexact_by_elimination(p, q)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            poly_divexact(p, q)
        return
    got = poly_divexact(p, q)
    assert {m: (c, type(c)) for m, c in got.items()} == {
        m: (c, type(c)) for m, c in want.items()
    }
    # a one-term quotient keeps the dividend's term order
    ((mq, _),) = q.items()
    assert list(got) == [mono_strip(m, dict(mq)) for m in p]


# coefficients of either type, integral Fractions included, and scales that
# are 1 as an int and as a Fraction: a kernel that skips the multiply by 1
# hands back an int where the product is a Fraction
addmul_coeffs = st.one_of(coeffs, st.builds(Q, st.integers(-6, 6).filter(bool)))
addmul_polys = st.dictionaries(monomials, addmul_coeffs, max_size=4)


@given(addmul_polys, addmul_polys, st.one_of(st.just(()), monomials),
       st.one_of(st.just(1), st.just(Q(1)), addmul_coeffs), st.data())
@settings(max_examples=400, deadline=None)
def test_addmul_is_add_of_the_product(base, p, m, c, data):
    # ``out`` holds minus the product of a random part of ``p``, so some of
    # its terms cancel and are deleted
    part = {k: v for k, v in p.items() if data.draw(st.booleans())}
    out = backend.p_add(base, backend.p_mul(part, {m: -c}))
    want = backend.p_add(out, backend.p_mul(p, {m: c}))
    backend.p_addmul(out, p, m, c)
    assert _typed(out) == _typed(want)


def test_mono_key_is_not_a_monomial_order():
    # rho < u, yet rho*rho > rho*u: the order of printed terms and leading
    # coefficients is not multiplicative, so no division can run in it
    rho, u = ((RHO, 1),), ((U, 1),)
    assert mono_key(rho) < mono_key(u)
    assert mono_key(backend.mono_mul(rho, rho)) > mono_key(backend.mono_mul(rho, u))


# -- substitution against a chain of products (property-based) ------------

def _substitute_by_products(e, pairs):
    # every term as a chain of Expr products, one per atom
    def poly(p):
        terms = []
        for m, c in p.items():
            term = Expr.rational(c)
            for a, k in m:
                term = term * pairs.get(a, Expr.atom(a)) ** k
            terms.append(term)
        return expr_sum(terms)

    if not any(a in pairs for a in e.atoms()):
        return e
    return poly(e.num) / poly(e.den)


# small rational functions over four atoms, so that one monomial often
# holds several replaced atoms and their images have several terms; an
# image's denominator has at most two, which keeps every sum small
def _linear_polys(max_size):
    return st.dictionaries(
        st.builds(lambda exps: tuple((a, 1) for a, e in zip(DIV_ATOMS, exps) if e),
                  st.tuples(*(st.booleans() for _ in DIV_ATOMS))),
        coeffs, min_size=1, max_size=max_size)


small_exprs = st.builds(Expr, _linear_polys(3), _linear_polys(3))
images = st.one_of(
    st.builds(Expr, _linear_polys(3), _linear_polys(2)),
    st.sampled_from(ATOM_POOL).map(Expr.atom),
    st.one_of(st.integers(-3, 3), coeffs).map(Expr.rational))


@given(st.one_of(exprs, small_exprs),
       st.dictionaries(st.sampled_from(DIV_ATOMS + ATOM_POOL), images, max_size=3))
@settings(max_examples=300, deadline=None)
def test_substitute_matches_a_chain_of_products(e, pairs):
    try:
        want = _substitute_by_products(e, pairs)
    except DivisionByZeroExpr:
        with pytest.raises(DivisionByZeroExpr):
            substitute(e, pairs)
        return
    got = substitute(e, pairs)
    assert _typed(got.num) == _typed(want.num)
    assert _typed(got.den) == _typed(want.den)


# -- one common denominator against the per-term fold (property-based) ----

def _fold_by_terms(p, pairs):
    # each term canonicalized after every product by a replaced atom's
    # power, then the terms added with + in order
    terms = []
    for m, c in p.items():
        term = Expr({tuple(ae for ae in m if ae[0] not in pairs): qdiv(c, 1)}, {(): 1})
        for a, k in m:
            if a in pairs:
                term = term * pairs[a] ** k
        terms.append(term)
    return reduce(add, terms, ZERO)


def _check_against_fold(e, pairs):
    def same(got, want):
        assert got == want
        assert _typed(got.num) == _typed(want.num)
        assert _typed(got.den) == _typed(want.den)
        assert expr_str(got) == expr_str(want)

    for p in (e.num, e.den):
        same(eval_poly(p, pairs), _fold_by_terms(p, pairs))
    if not any(a in pairs for a in e.atoms()):
        assert substitute(e, pairs) is e
        return
    try:
        want = _fold_by_terms(e.num, pairs) / _fold_by_terms(e.den, pairs)
    except DivisionByZeroExpr:
        with pytest.raises(DivisionByZeroExpr):
            substitute(e, pairs)
        return
    same(substitute(e, pairs), want)


# images with monomial and two-term denominators, and zero; in the first
# example a denominator shares rho with another image's numerator, not with
# the atoms a term keeps, or with them only in part; in the other two the
# images share one two-term denominator, which a term meets once after
# three terms over 1, or twice
@given(st.one_of(exprs, small_exprs),
       st.dictionaries(st.sampled_from(DIV_ATOMS + ATOM_POOL),
                       st.one_of(images, st.just(ZERO)), min_size=1, max_size=3))
@example(e=Expr.atom(U) * Expr.atom(P)
         + Expr.atom(U) * Expr.atom(P)**2 * Expr.atom(RHO) + Expr.atom(EPS),
         pairs={U: Expr.atom(RHO) * Expr.atom(EPS) + Expr.atom(RHO),
                P: ONE / Expr.atom(RHO)})
@example(e=Expr.atom(RHO) * Expr.atom(EPS) + Expr.atom(RHO) + Expr.atom(EPS)
         + Expr.atom(U) * Expr.atom(P),
         pairs={U: Expr.atom(RHO) / (Expr.atom(RHO) + Expr.atom(EPS))})
@example(e=Expr.atom(U) * Expr.atom(P) + Expr.atom(RHO),
         pairs={U: Expr.atom(RHO) / (Expr.atom(RHO) + Expr.atom(EPS)),
                P: Expr.atom(EPS) / (Expr.atom(RHO) + Expr.atom(EPS))})
@settings(max_examples=300, deadline=None)
def test_substitute_is_the_per_term_fold(e, pairs):
    _check_against_fold(e, pairs)


@given(st.one_of(exprs, small_exprs),
       st.dictionaries(st.sampled_from(DIV_ATOMS + ATOM_POOL),
                       st.just(ZERO), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_zero_only_substitute_is_the_per_term_fold(e, zeros):
    _check_against_fold(e, zeros)
