"""Canonical exact rational-function expressions over jet-space atoms.

An :class:`Expr` is a pair of sparse multivariate polynomials
(numerator, denominator) with exact rational coefficients over interned
:class:`~entropik.atoms.Atom` symbols.  Canonical form:

* monomials carry atoms sorted by the global atom order;
* a zero numerator forces denominator 1;
* the denominator's leading coefficient (w.r.t. :func:`mono_key`) is 1;
* monomial content common to numerator and denominator is cancelled.

Two Exprs are equal iff their canonical forms are identical; no semantic
equality beyond field arithmetic is claimed (no full multivariate GCD).
A canonical form whose denominator is a monomial is unique, though: with
no monomial content shared and a monic monomial denominator, ``N/M`` and
``N'/M'`` can only be equal when ``M == M'`` and ``N == N'``.  So a sum of
terms whose denominators are all monomials has one form whatever the
order of its terms, and :func:`expr_sum` adds such terms in one pass over
their least common denominator; any other sum it folds with ``+`` in the
given order, since the form then depends on that order.
One order serves every output: :func:`mono_key`, for printed terms and
leading coefficients.  :func:`poly_divexact` divides by a one-term
polynomial by stripping its monomial from each term, so the quotient
keeps the dividend's term order; by any other it eliminates leading terms
under a graded-lex monomial order whose exponent vectors stay inside that
loop.
All values are immutable after construction and safe to share, down to
their polynomial dicts.

The polynomial format belongs to :mod:`entropik.backend`: every sum of
terms here goes through its kernels, and :func:`~entropik.backend.p_addmul`
is the one step that adds terms into a dict.  :meth:`Expr.poly` is the
one constructor that takes a polynomial as it is, over a unit denominator;
every other ``Expr(num, den)`` is canonicalized.  Arithmetic takes
``Expr`` operands only, and powers are non-negative integers: the engine
builds its constants with :meth:`Expr.rational` and its atoms with
:meth:`Expr.atom`.

Exact evaluation at points compiles its polynomials once:
:class:`PointEvaluator` holds one table of ``(atom, exponent)`` slots,
takes each point's powers once as integer pairs and sums every term in
plain ``int``s; :func:`eval_numeric` is its one-shot form.

Direct paths, each chosen from the input and giving the general path's
result to the term order and coefficient types:

* canonicalizing over a one-term denominator takes its one coefficient as
  the leading coefficient, without ranking monomials;
* :meth:`Expr.atoms` is taken on the first call and kept, since an
  ``Expr`` never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

from ._ratio import Q, qdiv
from .atoms import Atom, Constit, ConstitPartial, IndepVar, JetVar, mi_bump
from .backend import mono_mul, p_add, p_addmul, p_diff, p_mul, p_neg, p_pow, p_sub
from .errors import (
    DenominatorVanishes,
    DivisionByZeroExpr,
    MissingAssignment,
    NotPolynomialInVars,
    UnknownConstitSym,
)

__all__ = [
    "Expr",
    "ZERO",
    "ONE",
    "DiffContext",
    "expr_sum",
    "partial_diff",
    "total_derivative",
    "substitute",
    "collect_coefficients",
    "monomial_expr",
    "eval_numeric",
    "eval_poly",
    "PointEvaluator",
    "mono_key",
    "mono_strip",
    "poly_content",
    "poly_divexact",
]

Monomial = tuple  # tuple[(Atom, int), ...]
Poly = dict  # dict[Monomial, Q]

_ONE_POLY = {(): 1}


def mono_key(m: Monomial):
    """Monomial sort key: total degree, then the ``(atom key, exponent)``
    pairs from the lowest atom present.  Every output reads this order:
    printed terms, the monic scale of a constraint and the leading
    coefficient of a multi-term denominator.  It is not a monomial order
    (``rho < u``, yet ``rho*rho > rho*u``), so no division runs in it."""
    return (sum(e for _, e in m), tuple((a.key, e) for a, e in m))


def poly_content(p: Poly) -> dict:
    """Per-atom minimum exponent over all monomials ({} if unit occurs)."""
    it = iter(p)
    first = next(it)
    content = {a: e for a, e in first}
    for m in it:
        if not content:
            break
        here = dict(m)
        for a in list(content):
            e = here.get(a, 0)
            if e == 0:
                del content[a]
            elif e < content[a]:
                content[a] = e
    return content


def mono_strip(m: Monomial, content: dict) -> Monomial:
    """``m`` with the per-atom exponents of ``content`` taken off."""
    out = []
    for a, e in m:
        r = e - content.get(a, 0)
        if r:
            out.append((a, r))
    return tuple(out)


class Expr:
    """Immutable canonical rational function."""

    __slots__ = ("num", "den", "_hash", "_atoms")

    def __init__(self, num: Poly, den: Poly, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash = None
        self._atoms = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def poly(p: Poly) -> "Expr":
        """The polynomial ``p`` as it is: over a unit denominator a
        polynomial is already canonical.  ``p`` is kept, not copied."""
        return Expr(p, _ONE_POLY, _canonical=True)

    @staticmethod
    def rational(q) -> "Expr":
        q = qdiv(q, 1)
        return Expr.poly({(): q} if q else {})

    @staticmethod
    def atom(a: Atom) -> "Expr":
        e = _ATOM_CACHE.get(a)
        if e is None:
            e = _ATOM_CACHE[a] = Expr.poly({((a, 1),): 1})
        return e

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return self.den == _ONE_POLY and (
            not self.num or set(self.num) == {()}
        )

    def is_polynomial(self) -> bool:
        return self.den == _ONE_POLY

    def atoms(self) -> tuple[Atom, ...]:
        """A tuple of the atoms of the numerator, then of the denominator,
        each once, in first-seen order; taken on the first call and kept."""
        found = self._atoms
        if found is None:
            found = self._atoms = tuple(
                {a: None for p in (self.num, self.den) for m in p for a, _ in m}
            )
        return found

    def numerator_expr(self) -> "Expr":
        return self if self.den == _ONE_POLY else Expr.poly(self.num)

    def denominator_expr(self) -> "Expr":
        return Expr.poly(self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        if self.den == other.den:
            return Expr(p_add(self.num, other.num), self.den)
        return Expr(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    def __neg__(self) -> "Expr":
        return Expr(p_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other: "Expr") -> "Expr":
        return self + (-other)

    def __mul__(self, other: "Expr") -> "Expr":
        return Expr(p_mul(self.num, other.num), p_mul(self.den, other.den))

    def __truediv__(self, other: "Expr") -> "Expr":
        return Expr(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise TypeError("only non-negative integer powers are supported")
        if n == 0:
            return ONE
        return Expr(p_pow(self.num, n), p_pow(self.den, n))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(
                (
                    frozenset(self.num.items()),
                    frozenset(self.den.items()),
                )
            )
            self._hash = h
        return h

    def __str__(self) -> str:
        from .render import expr_str

        return expr_str(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Expr({self})"

    def __bool__(self) -> bool:
        return not self.is_zero()


def _canonicalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise DivisionByZeroExpr("denominator is the zero polynomial")
    if not num:
        return {}, _ONE_POLY
    # Cancel shared monomial content.
    if den != _ONE_POLY:
        cn = poly_content(num)
        if cn:
            cd = poly_content(den)
            common = {}
            for a, e in cn.items():
                d = cd.get(a, 0)
                if d:
                    common[a] = min(e, d)
            if common:
                num = {mono_strip(m, common): c for m, c in num.items()}
                den = {mono_strip(m, common): c for m, c in den.items()}
    # Scale: leading denominator coefficient becomes 1.
    if len(den) == 1:
        (lc,) = den.values()
    else:
        lc = den[max(den, key=mono_key)]
    if lc != 1:
        num = {m: qdiv(c, lc) for m, c in num.items()}
        den = {m: qdiv(c, lc) for m, c in den.items()}
    return num, den


ZERO = Expr.poly({})
ONE = Expr.poly(_ONE_POLY)
_ATOM_CACHE: dict[Atom, Expr] = {}


def expr_sum(terms: Sequence[Expr]) -> Expr:
    """``terms[0] + terms[1] + ...``, folded in the given order.

    When every denominator is a monomial (coefficient 1, as the form is
    monic), each numerator is scaled to the denominators' least common
    multiple ``L`` (the per-atom maximum exponent) and added into one
    polynomial, which is canonicalized once over ``L``.  The result is the
    fold's, down to the insertion order of its numerator: scaling every
    monomial of a running sum by one monomial keeps the keys distinct, so
    terms meet and cancel on the same keys in the same order.
    """
    if len(terms) < 2:
        return terms[0] if terms else ZERO
    if any(len(t.den) != 1 for t in terms):
        return reduce(add, terms)
    return _monomial_sum([next(iter(t.den)) for t in terms], (t.num for t in terms))


def _monomial_sum(dens: Sequence[Monomial], nums: Iterable[Poly]) -> Expr:
    """The sum of ``num / den`` over ``zip(nums, dens)``, monomial ``den``s,
    in one pass over their least common multiple; ``nums`` is read lazily."""
    top: dict = {}
    for d in dens:
        for a, e in d:
            if e > top.get(a, 0):
                top[a] = e
    lcm = tuple(sorted(top.items(), key=lambda ae: ae[0].key))
    out: Poly = {}
    scale: dict[Monomial, Monomial] = {}
    for num, d in zip(nums, dens):
        q = scale.get(d)
        if q is None:
            q = scale[d] = mono_strip(lcm, dict(d))
        p_addmul(out, num, q, 1)
    return Expr(out, {lcm: 1})


# ---------------------------------------------------------------------------
# Differentiation.

def partial_diff(e: Expr, a: Atom) -> Expr:
    """Formal quotient-rule derivative in a single atom.

    All other atoms -- including ConstitPartial symbols -- are treated as
    constants; chain-rule expansion is total_derivative's job.
    """
    dn = p_diff(e.num, a)
    if e.den == _ONE_POLY:
        return Expr.poly(dn)
    dd = p_diff(e.den, a)
    if not dd:
        return Expr(dn, e.den)
    num = p_sub(p_mul(dn, e.den), p_mul(e.num, dd))
    return Expr(num, p_mul(e.den, e.den))


@dataclass(frozen=True)
class DiffContext:
    """Declarations a total derivative needs: the ordered independent
    variables and each constitutive symbol's ordered argument atoms, and
    ``memo``, each atom's total derivative per direction, taken once."""

    indep: tuple[IndepVar, ...]
    args: Mapping[str, tuple[Atom, ...]] = field(default_factory=dict)
    memo: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    def arg_atoms(self, name: str) -> tuple[Atom, ...]:
        try:
            return self.args[name]
        except KeyError:
            raise UnknownConstitSym(
                f"constitutive symbol '{name}' has no declaration"
            ) from None


def atom_total_derivative(a: Atom, iv_index: int, ctx: DiffContext) -> Expr:
    """D_iv applied to a single atom, expanded once per context."""
    d = ctx.memo.get((a, iv_index))
    if d is None:
        d = ctx.memo[a, iv_index] = _expand(a, iv_index, ctx)
    return d


def _expand(a: Atom, iv_index: int, ctx: DiffContext) -> Expr:
    if isinstance(a, IndepVar):
        return ONE if a is ctx.indep[iv_index] else ZERO
    if isinstance(a, JetVar):
        return Expr.atom(JetVar(a.field, mi_bump(a.orders, iv_index)))
    if not isinstance(a, Constit):
        raise TypeError(f"unknown atom kind: {a!r}")
    args = ctx.arg_atoms(a.name)
    slots = a.slots or (0,) * len(args)
    terms = []
    for j, arg in enumerate(args):
        d_arg = atom_total_derivative(arg, iv_index, ctx)
        if d_arg.is_zero():
            continue
        cp = ConstitPartial(a.name, mi_bump(slots, j))
        terms.append(Expr.atom(cp) * d_arg)
    return expr_sum(terms)


def total_derivative(e: Expr, iv: IndepVar, ctx: DiffContext) -> Expr:
    """Total derivative along independent variable ``iv``.

    Jet variables prolong (multi-index bumped); constitutive symbols and
    their partials chain-expand over their declared arguments; Leibniz and
    quotient rules come from the underlying partial derivatives.
    """
    try:
        iv_index = ctx.indep.index(iv)
    except ValueError:
        raise ValueError(f"{iv} is not an independent variable of the context")
    terms = []
    for a in e.atoms():
        da = atom_total_derivative(a, iv_index, ctx)
        if da.is_zero():
            continue
        terms.append(partial_diff(e, a) * da)
    return expr_sum(terms)


# ---------------------------------------------------------------------------
# Substitution.

def eval_poly(p: Poly, pairs: Mapping[Atom, Expr]) -> Expr:
    """Evaluate a polynomial with the key atoms of ``pairs`` replaced.

    Each term is its coefficient times the atoms ``pairs`` keeps, times
    the replaced atoms' powers in monomial order.  When every power has a
    monomial denominator each term is multiplied out raw and stripped of
    the monomial shared above and below (a product's monomial content is
    its factors' contents multiplied), so canonical, and all are summed as
    by :func:`expr_sum`; otherwise each product is canonicalized and the
    products are folded.
    """
    powers: dict[tuple[Atom, int], Expr] = {}
    for m in p:
        for key in m:
            if key[0] in pairs and key not in powers:
                powers[key] = pairs[key[0]] ** key[1]
    if any(len(pw.den) != 1 for pw in powers.values()):
        return expr_sum([reduce(mul, (powers[k] for k in m if k in powers), Expr.poly(
            {tuple(ae for ae in m if ae not in powers): qdiv(c, 1)})) for m, c in p.items()])
    contents = {k: poly_content(pw.num) for k, pw in powers.items() if pw.num}
    terms = []
    for m, c in p.items():
        keys = [k for k in m if k in powers]
        if any(k not in contents for k in keys):
            continue  # a zero factor
        kept = tuple(ae for ae in m if ae not in powers)
        den = reduce(mono_mul, (next(iter(powers[k].den)) for k in keys), ())
        rest = {}  # what the kept atoms cannot give of the shared monomial
        if den:
            have = dict(kept)
            tops = [have] + [contents[k] for k in keys]
            shared = {a: min(e, sum(t.get(a, 0) for t in tops)) for a, e in den}
            cut = {a: min(n, have.get(a, 0)) for a, n in shared.items()}
            rest = {a: n - cut[a] for a, n in shared.items() if n > cut[a]}
            kept, den = mono_strip(kept, cut), mono_strip(den, shared)
        terms.append((den, {kept: qdiv(c, 1)}, keys, rest))
    nums = (
        {mono_strip(m, rest): c for m, c in num.items()} if rest else num
        for _den, kept, keys, rest in terms
        for num in [reduce(p_mul, (powers[k].num for k in keys), kept)]
    )
    return _monomial_sum([den for den, *_ in terms], nums)


def substitute(e: Expr, pairs: Mapping[Atom, Expr]) -> Expr:
    """Replace every key atom by its image, all at once (images are not
    themselves substituted).

    For triangular maps (no image contains a key atom) the result contains
    no key atom and the operation is idempotent.
    """
    if not any(a in pairs for a in e.atoms()):
        return e
    if e.den == _ONE_POLY:
        return eval_poly(e.num, pairs)
    return eval_poly(e.num, pairs) / eval_poly(e.den, pairs)


# ---------------------------------------------------------------------------
# Coefficient collection.

def monomial_expr(m: Monomial) -> Expr:
    e = ONE
    for a, k in m:
        e = e * Expr.atom(a) ** k
    return e


def collect_coefficients(e: Expr, vars: Iterable[Atom]) -> dict[Monomial, Expr]:
    """Exact decomposition of the numerator over monomials in ``vars``.

    numerator(e) == sum(monomial * coefficient); coefficients are
    polynomial Exprs free of ``vars``; the unit monomial keys the constant
    part.  Raises NotPolynomialInVars if the denominator contains one of
    the variables.
    """
    vset = set(vars)
    for m in e.den:
        for a, _ in m:
            if a in vset:
                raise NotPolynomialInVars(
                    f"denominator contains collection variable {a}"
                )
    groups: dict[Monomial, Poly] = {}
    for m, c in e.num.items():
        vpart = tuple((a, k) for a, k in m if a in vset)
        rest = tuple((a, k) for a, k in m if a not in vset)
        groups.setdefault(vpart, {})[rest] = c
    return {vm: Expr.poly(p) for vm, p in groups.items()}


# ---------------------------------------------------------------------------
# Exact numeric evaluation.

class PointEvaluator:
    """Exact evaluation of fixed polynomials at many points.

    :meth:`code` compiles a polynomial, given as ``(keys, coefficient)``
    terms, into one flat tuple of indices into one table of slots: a slot
    per ``(atom, exponent)`` pair and one per distinct coefficient.  Each
    term is ``~`` its coefficient's slot followed by its atoms' slots, and
    a ``-1`` ends the tuple.  :meth:`assign` takes the powers of the given
    atoms' values once, as integer (numerator, denominator) pairs, into
    their slots; every other slot keeps its value.  :meth:`sum` multiplies
    each term out in plain ``int``s and adds it into one integer numerator
    over a running common denominator, the least common multiple of the
    terms' denominators, with a ``gcd`` only when a term's denominator does
    not divide it; no ``Q`` is built and never a ``float``.  A slot not yet
    assigned raises :class:`MissingAssignment` naming the first such atom
    in term order.  An evaluator belongs to the call that builds it.
    """

    __slots__ = ("_index", "_keys", "_num", "_den", "_slots_of")

    def __init__(self):
        self._index: dict = {}  # (atom, exponent) or coefficient -> slot
        self._keys: list = []
        self._num: list = []
        self._den: list = []
        self._slots_of: dict[Atom, list[tuple[int, int]]] = {}
        self._slot(1)  # slot 0, which the end marker -1 names

    def _slot(self, key) -> int:
        """The slot of an ``(atom, exponent)`` pair, or ``~`` the slot of a
        coefficient, kept so that every code shares one int per slot."""
        s = self._index.get(key)
        if s is None:
            s = len(self._keys)
            self._keys.append(key)
            if type(key) is tuple:  # an (atom, exponent) pair, unassigned
                self._num.append(None)
                self._den.append(None)
                self._slots_of.setdefault(key[0], []).append((s, key[1]))
            else:
                self._num.append(key.numerator)
                self._den.append(key.denominator)
                s = ~s
            self._index[key] = s
        return s

    def code(self, terms: Iterable[tuple[Iterable[tuple[Atom, int]], Q]]) -> tuple:
        """The compiled sum over ``terms`` of coefficient times keys."""
        known, slot = self._index.get, self._slot  # no kept slot is 0
        out = []
        put = out.append
        for keys, c in terms:
            put(known(c) or slot(c))
            for key in keys:
                put(known(key) or slot(key))
        put(-1)
        return tuple(out)

    def compile(self, e: Expr) -> tuple[tuple, tuple]:
        """The compiled numerator and denominator of ``e``."""
        return self.code(e.num.items()), self.code(e.den.items())

    def assign(self, values: Mapping[Atom, Q]) -> None:
        """Take the powers of the values of ``values``' atoms."""
        num, den, slots_of = self._num, self._den, self._slots_of
        for a, v in values.items():
            slots = slots_of.get(a)
            if slots:
                n, d = v.numerator, v.denominator
                for s, e in slots:
                    num[s] = n ** e
                    den[s] = d ** e

    def sum(self, code: tuple) -> tuple[int, int]:
        """The compiled polynomial at the assigned values, as an integer
        numerator and a positive denominator, not reduced."""
        num, den = self._num, self._den
        total, lcd, tn, td = 0, 1, 0, 1
        try:
            for s in code:
                if s >= 0:
                    tn *= num[s]
                    td *= den[s]
                    continue
                if td == 1:
                    total += tn * lcd
                elif lcd % td == 0:
                    total += tn * (lcd // td)
                else:
                    g = gcd(lcd, td)
                    total = total * (td // g) + tn * (lcd // g)
                    lcd = lcd // g * td
                tn, td = num[~s], den[~s]
        except TypeError:  # an unassigned slot holds None
            a = next(self._keys[s][0] for s in code if s >= 0 and num[s] is None)
            raise MissingAssignment(f"no value assigned to {a}") from None
        return total, lcd

    def value(self, compiled: tuple[tuple, tuple]) -> Q:
        """A compiled expression at the assigned values, exactly."""
        nn, nd = self.sum(compiled[0])
        dn, dd = self.sum(compiled[1])
        if dn == 0:
            raise DenominatorVanishes("denominator evaluates to zero")
        return Q(nn * dd, nd * dn)


def eval_numeric(e: Expr, assignment: Mapping[Atom, Q]) -> Q:
    """Exact rational evaluation; every atom must be assigned.  The
    one-shot form of :class:`PointEvaluator`: ``e`` compiled, the
    assignment's powers taken, and each half summed in plain ``int``s."""
    ev = PointEvaluator()
    compiled = ev.compile(e)
    ev.assign(assignment)
    return ev.value(compiled)


# ---------------------------------------------------------------------------
# Exact polynomial division.

def poly_divexact(p: Poly, q: Poly) -> Poly:
    """The exact quotient ``p / q``; ArithmeticError when ``q`` does not
    divide ``p``.

    The error is an ordinary answer, not a fault: ``algebra.try_divexact``
    uses this function as its divisibility test, and most of its calls
    fail.  The callers of ``try_divexact`` (``algebra.normalize_constraint``,
    ``algebra.strip_certified`` and the implication test of ``liu.compare``)
    skip a divisor holding an atom ``p`` lacks, a failure known without
    dividing; still, most of the divisions they make fail.  A one-term ``q``
    divides ``p`` exactly when its monomial divides every monomial of ``p``;
    the quotient is then each term with that monomial stripped and its
    coefficient divided, in ``p``'s own term order.  Any other ``q`` is
    rejected before any elimination when its degree in some atom exceeds
    that in ``p``, or when its leading or trailing term does not divide
    ``p``'s: the extreme terms of a product are the products of its
    factors' extreme terms.  Otherwise leading terms are eliminated under
    the graded-lex order over ``p``'s atoms, a monomial order, which
    :func:`mono_key` is not.  The loop works on exponent vectors private to
    it, each with its total degree first, so native tuple order is that
    order, and the two term checks include the top and bottom total
    degrees; the quotient comes in the order the loop finds its terms.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return {}
    if len(q) == 1:
        ((mq, cq),) = q.items()
        strip = dict(mq)
        if mq:
            for m in p:
                have = dict(m)
                for a, e in mq:
                    if have.get(a, 0) < e:
                        raise ArithmeticError("inexact polynomial division")
        return {mono_strip(m, strip): qdiv(c, cq) for m, c in p.items()}
    top: dict = {}
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
    width = len(atoms) + 1

    def dense(m):  # exponent vector, total degree first
        v = [0] * width
        for a, e in m:
            v[index[a]] = e
        v[0] = sum(v)
        return tuple(v)

    r = {dense(m): c for m, c in p.items()}
    qd = {dense(m): c for m, c in q.items()}
    lq = max(qd)
    if min(map(sub, max(r), lq)) < 0 or min(map(sub, min(r), min(qd))) < 0:
        raise ArithmeticError("inexact polynomial division")
    cq = qd[lq]
    out: Poly = {}
    while r:
        lr = max(r)
        diff = tuple(map(sub, lr, lq))
        if min(diff) < 0:
            raise ArithmeticError("inexact polynomial division")
        coeff = qdiv(r[lr], cq)
        out[tuple((x, e) for x, e in zip(atoms, diff[1:]) if e)] = coeff
        for mq, c in qd.items():
            m = tuple(map(add, diff, mq))
            s = r.get(m)
            nc = (s if s is not None else 0) - coeff * c
            if nc:
                r[m] = nc
            elif s is not None:
                del r[m]
    return out
