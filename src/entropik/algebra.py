"""Constraint algebra shared by every stage of the analysis.

Solving, splitting, the multiplier route, case trees and binding checks
all reason about polynomial constraints ``c = 0`` under a list of factors
assumed nonzero.  The operations they share live here, once: exact
division, dividing out assumed-nonzero factors, the monic normal form
and the normal set of a list of constraints (:func:`normal_set`), the
recorded factors of a nonzero condition, slot derivatives of the
unknown material functions, the zero rule (:func:`forced_zero`), one
table per function of its known and zero partials
(:class:`KnownPartials`), substitution from it (:func:`subst_known`),
:func:`settle` for a map substituted into itself, and :class:`Memo`, the
kept results of pure steps.

An unknown function's atoms are :class:`~entropik.atoms.Constit`, and the
symbol is its own partial of order zero, ``slots == ()``: a zero, a base
to derive from and a slot derivative read the symbol and its partials by
one rule (:func:`~entropik.atoms.mi_dominates`).

A table keeps, in its :class:`Memo`, each substitution it makes
(:func:`subst_known`, :meth:`KnownPartials.rewrite`) under the expression
and the frozen pairs, and each slot derivative it takes under the
expression and the argument.  Both are pure, and a table serves one
declaration of arguments, so a kept result equals in value what a new
call would make (see :class:`Memo` for its term order).

Dividing out the nonzero factors (:func:`normalize_constraint`,
:func:`strip_certified`) skips every factor holding an atom the
constraint lacks: such a factor cannot divide it, and most factors of a
long assumption list are of that kind.

Direct paths, each chosen from the input and giving the general path's
result to the term order and coefficient types:

* dividing out the nonzero factors takes every one-term factor in one
  pass, by its content exponent, keeping the constraint's term order;
  only a multi-term factor that may divide falls back to repeated
  division;
* :func:`arg_derivative` of a polynomial adds each contributing atom's
  derivative, times its bumped partial, into one dict with
  ``backend.p_addmul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Mapping, MutableMapping, Optional, Sequence

from ._ratio import qdiv
from .atoms import (
    Atom,
    Constit,
    ConstitPartial,
    mi_bump,
    mi_dominates,
    mi_total,
)
from .backend import p_addmul, p_diff
from .expr import (
    Expr,
    Monomial,
    ZERO,
    expr_sum,
    mono_key,
    mono_strip,
    partial_diff,
    poly_content,
    poly_divexact,
    substitute,
)

__all__ = [
    "Cancellation",
    "try_divexact",
    "divide_out",
    "strip_certified",
    "certified_nonzero",
    "normalize_constraint",
    "normal_set",
    "pivot_factors",
    "nonzero_factors",
    "single_monomial",
    "constit_atoms",
    "arg_derivative",
    "KnownPartials",
    "Memo",
    "forced_zero",
    "subst_known",
    "settle",
]


def try_divexact(a: Expr, b: Expr) -> Optional[Expr]:
    """a / b when the polynomial division is exact, else None."""
    if not a.is_polynomial() or not b.is_polynomial() or b.is_zero():
        return None
    try:
        return Expr.poly(poly_divexact(a.num, b.num))
    except ArithmeticError:
        return None


def divide_out(e: Expr, f: Expr) -> tuple[Expr, int]:
    """Divide ``f`` out of ``e`` as often as it divides exactly.

    Returns the quotient and the number of divisions.  A rational or
    non-polynomial ``f`` is skipped (a constant would divide forever).
    """
    if f.is_rational() or not f.is_polynomial():
        return e, 0
    times = 0
    while True:
        d = try_divexact(e, f)
        if d is None or d.is_zero():
            return e, times
        e, times = d, times + 1


def _num_atoms(e: Expr) -> set[Atom]:
    return {a for m in e.num for a, _ in m}


def _foreign(f: Expr, have: Collection[Atom]) -> bool:
    """True when ``f``'s numerator holds an atom outside ``have``: ``f``
    cannot divide a polynomial whose atoms are ``have``, nor any of its
    factors."""
    return any(a not in have for m in f.num for a, _ in m)


def strip_certified(e: Expr, nonzero: Iterable[Expr]) -> Expr:
    """``e`` with every assumed-nonzero factor divided out."""
    if e.is_zero() or not e.is_polynomial():
        return e
    return _cancel(e, nonzero)[0]


def certified_nonzero(e: Expr, nonzero: Iterable[Expr]) -> bool:
    """True when ``e`` is a product of rationals and nonzero-assumed
    factors, so dividing by it is safe."""
    if e.is_zero():
        return False
    return strip_certified(e, nonzero).is_rational()


def _monic(p: dict) -> Expr:
    lead = p[max(p, key=mono_key)]
    return Expr.poly({m: qdiv(c, lead) for m, c in p.items()})


@dataclass(frozen=True)
class Cancellation:
    """A nonzero-assumed factor removed from a raw coefficient."""

    factor: Expr
    times: int


def normalize_constraint(
    e: Expr, nonzero: Iterable[Expr]
) -> tuple[Expr, list[Cancellation]]:
    """Monic normal form modulo the nonzero-assumption set.

    Cancels every assumed-nonzero polynomial factor as often as it
    divides, then scales so the coefficient of the top term under
    ``mono_key`` is 1.
    """
    e = e.numerator_expr()
    if e.is_zero():
        return ZERO, []
    e, log = _cancel(e, nonzero)
    return _monic(e.num), log


def _cancel(e: Expr, nonzero: Iterable[Expr]) -> tuple[Expr, list[Cancellation]]:
    """The nonzero polynomial ``e`` with each assumed-nonzero factor
    divided out as often as it divides, and the cancellations made.

    A one-term factor ``c*M`` divides ``e`` exactly ``k`` times, ``k`` the
    least quotient of ``e``'s content exponent by ``M``'s over ``M``'s
    atoms; such divisions are gathered into one monomial and one
    coefficient and made in one pass.  A multi-term factor is divided out
    by repeated division, after the gathered ones are made.  One-term
    divisions keep the terms in their order, as ``poly_divexact`` does.
    """
    log: list[Cancellation] = []
    have = _num_atoms(e)
    p = e.num
    content = poly_content(p)
    strip: dict[Atom, int] = {}  # the gathered one-term divisions
    scale = 1

    def made() -> dict:  # ``p`` with the gathered divisions made
        return {mono_strip(m, strip): qdiv(c, scale) for m, c in p.items()}

    for f in nonzero:
        if _foreign(f, have) or f.is_rational() or not f.is_polynomial():
            continue
        if len(f.num) == 1:
            ((mf, cf),) = f.num.items()
            times = min(content.get(a, 0) // k for a, k in mf)
            if times:
                for a, k in mf:
                    content[a] -= k * times
                    strip[a] = strip.get(a, 0) + k * times
                scale = scale * cf**times
                log.append(Cancellation(factor=f, times=times))
            continue
        if strip:
            p, strip, scale = made(), {}, 1
        q, times = divide_out(Expr.poly(p), f)
        if times:
            p = q.num
            content = poly_content(p)
            log.append(Cancellation(factor=f, times=times))
    if not log:
        return e, log
    return Expr.poly(made() if strip else p), log


def normal_set(
    exprs: Iterable[Expr], nonzero: Sequence[Expr]
) -> tuple[list[Expr], list[Cancellation]]:
    """Normal forms of ``exprs`` with zeros dropped and the first copy
    kept, and every cancellation made on the way, in order."""
    out: dict[Expr, None] = {}
    log: list[Cancellation] = []
    for e in exprs:
        n, cancelled = normalize_constraint(e, nonzero)
        log.extend(cancelled)
        if not n.is_zero():
            out.setdefault(n)
    return list(out), log


def pivot_factors(e: Expr) -> list[Expr]:
    """Split a divisor into its recorded nonzero factors.

    The monomial content contributes one factor per atom (exponents do not
    matter for a nonvanishing condition); a nonconstant primitive part is
    kept whole, made monic.  Rational constants are dropped.
    """
    p = e.num
    if not p:
        return []
    content = poly_content(p)
    out = [Expr.atom(a) for a in sorted(content, key=lambda a: a.key)]
    stripped = {mono_strip(m, content): c for m, c in p.items()}
    if set(stripped) != {()}:
        out.append(_monic(stripped))
    return out


def nonzero_factors(e: Expr) -> list[Expr]:
    """Recorded factors of a nonzero condition (num and den both count)."""
    out = pivot_factors(e.numerator_expr())
    if not e.is_polynomial():
        out.extend(pivot_factors(e.denominator_expr()))
    return out


def single_monomial(e: Expr) -> Optional[Monomial]:
    """The one monomial of ``e``'s numerator, or None."""
    if len(e.num) != 1:
        return None
    mono, = e.num
    return mono


def constit_atoms(e: Expr) -> list[Atom]:
    """The unknown-function atoms of ``e``, in atom order."""
    return sorted(
        (a for a in e.atoms() if isinstance(a, Constit)),
        key=lambda a: a.key,
    )


def arg_derivative(
    e: Expr, a: Atom, args_of: Mapping[str, tuple[Atom, ...]]
) -> Expr:
    """Slot derivative of ``e`` with respect to the dependency atom ``a``.

    Every symbol whose declared arguments include ``a`` contributes a
    bumped partial; symbols that do not see ``a`` are constants.  ``a``
    itself differentiates to one; all other jet atoms are unrelated
    coordinates and differentiate to zero.

    A polynomial ``e`` is differentiated in each contributing atom in
    turn, and each term of that derivative, times the bumped partial, is
    added into one dict in the order the sum of the per-atom products
    would add it, so the result is that sum's.
    """
    bumps: list[tuple[Atom, Optional[Atom]]] = []  # (x, the partial it bumps to)
    for x in e.atoms():
        if x is a:
            bumps.append((x, None))
            continue
        if not isinstance(x, Constit):
            continue
        args = args_of.get(x.name)
        if args is None or a not in args:
            continue
        slots = x.slots or (0,) * len(args)
        bumps.append((x, ConstitPartial(x.name, mi_bump(slots, args.index(a)))))
    if not e.is_polynomial():
        return expr_sum([
            partial_diff(e, x) if d is None else partial_diff(e, x) * Expr.atom(d)
            for x, d in bumps
        ])
    out: dict = {}
    for x, d in bumps:
        p_addmul(out, p_diff(e.num, x), ((d, 1),) if d is not None else (), 1)
    return Expr.poly(out)


def forced_zero(c: Expr, nonzero: Iterable[Expr]) -> Optional[Atom]:
    """The unknown function a single-monomial identity ``c = 0`` forces to
    vanish: its one function factor not certified nonzero, or None.
    Jet-coordinate factors ride along, since the identity holds for every
    value of the coordinates."""
    mono = single_monomial(c)
    if mono is None:
        return None
    fns = [a for a, _k in mono if isinstance(a, Constit)]
    uncert = [a for a in fns if not certified_nonzero(Expr.atom(a), nonzero)]
    return uncert[0] if len(uncert) == 1 else None


class Memo:
    """Results of pure steps, each kept under a key of a tag and the step's
    arguments, in layers: a lookup reads this layer, then its parent's and
    on up, and a new result goes into this layer.  A child layer shares
    what its parents hold and takes its own entries with it when it is
    dropped.  Nothing iterates over a memo, so the order of its entries,
    which hash atoms by identity, reaches no output.

    Keys compare by value: ``Expr`` equality ignores the order of terms
    and does not tell an ``int`` from an equal integral ``Fraction``.  So
    a kept result equals in value what a new call would make, and has
    that call's term order and coefficient types only when the kept
    arguments and the new ones agree in theirs.  ``tests/test_cases.py`` checks that
    the case trees of the bundled small models print the same with a memo
    as with none."""

    __slots__ = ("_layer", "_parent")

    def __init__(self, parent: Optional["Memo"] = None):
        self._layer: dict = {}
        self._parent = parent

    def call(self, key, f, *args):
        """``f(*args)``, or the result kept under ``key`` in this layer or
        a parent's; a new result is kept in this layer."""
        memo = self
        while memo is not None:
            v = memo._layer.get(key)
            if v is not None:
                return v
            memo = memo._parent
        v = self._layer[key] = f(*args)
        return v


class KnownPartials:
    """Each unknown function's partials (the symbol included) with a known
    value or zero, in entry order; a question about a partial reads only
    its own function's entries.  ``values`` holds every value and is for
    reading: a value changes only through :meth:`put` and :meth:`rewrite`.
    ``memo`` keeps the table's substitutions and slot derivatives; a
    caller may pass one to share them, with the same ``args_of``."""

    def __init__(self, args_of: Mapping[str, tuple[Atom, ...]],
                 values: Iterable[tuple[Atom, Expr]] = (),
                 memo: Optional[Memo] = None):
        self.args_of = args_of
        self.memo = Memo() if memo is None else memo
        self.values: dict[Atom, Expr] = {}
        # name -> (its keys of values, its zeros, its partials with no base)
        self._fns: dict[str, tuple[list[Atom], dict[Atom, None], set[Atom]]] = {}
        for a, v in values:
            self.put(a, v)

    def put(self, a: Atom, v: Expr) -> None:
        """Record the known value ``v`` of ``a``."""
        bases, _zeros, misses = self._fns.setdefault(a.name, ([], {}, set()))
        if a not in self.values:
            bases.append(a)
        self.values[a] = v
        misses.clear()

    def rewrite(self, a: Atom, v: Expr) -> None:
        """Substitute ``v`` for ``a`` in every known value."""
        sub, key = {a: v}, frozenset({(a, v)})
        for k, old in self.values.items():
            if a in old.atoms():
                self.values[k] = self.memo.call(("s", old, key), substitute, old, sub)

    def zero(self, a: Atom) -> None:
        """Record that ``a`` vanishes as a function, and so every partial
        that dominates it."""
        self._fns.setdefault(a.name, ([], {}, set()))[1][a] = None

    def zeros(self) -> list[Atom]:
        """Every partial that vanishes, function by function."""
        return [z for _bases, zeros, _misses in self._fns.values() for z in zeros]

    def get(self, x: Atom) -> Optional[Expr]:
        """``x``'s value: zero if it vanishes, else its known value, else
        for a partial one derived, and stored, from its base
        (:func:`_best_base`), else None.  A partial with no base is
        remembered until its function gets a :meth:`put`: a value derived
        since is no base for it."""
        if not isinstance(x, Constit) or x.name not in self._fns:
            return None
        bases, zeros, misses = self._fns[x.name]
        if x in zeros or any(mi_dominates(x.slots, z.slots) for z in zeros):
            return ZERO
        v = self.values.get(x)
        if v is not None or not x.slots or not bases or x in misses:
            return v
        args = self.args_of.get(x.name)
        base = None if args is None else _best_base(x, bases)
        if base is None:
            misses.add(x)
            return None
        v = self.values[base]
        have = base.slots or (0,) * len(args)
        for j, a in enumerate(args):
            for _ in range(x.slots[j] - have[j]):
                v = self.memo.call(("d", v, a), arg_derivative, v, a, self.args_of)
        self.values[x] = v
        bases.append(x)
        return v

    def first_partials(self) -> dict[str, dict[ConstitPartial, Expr]]:
        """Each function's first partials with a known value or zero (a
        zero wins), by function in the order of its first such value, a
        function with only zeros last."""
        out: dict[str, dict[ConstitPartial, Expr]] = {}
        for k, v in chain(self.values.items(), ((z, ZERO) for z in self.zeros())):
            if mi_total(k.slots) == 1:
                out.setdefault(k.name, {})[k] = v
        return out


def _best_base(x: ConstitPartial, bases: Sequence[Atom]) -> Optional[Atom]:
    """The highest-order entry of ``bases`` that ``x`` dominates, the
    first of equal orders."""
    fits = (b for b in bases if mi_dominates(x.slots, b.slots))
    return max(fits, key=lambda b: mi_total(b.slots), default=None)


def subst_known(e: Expr, known: KnownPartials, passes: int) -> Optional[Expr]:
    """``e`` with what ``known`` knows substituted to a fixed point, or
    None when it has not settled in ``passes`` passes
    (:meth:`KnownPartials.get`); each pass is kept in ``known.memo``."""
    for _ in range(passes):
        sub = {x: v for x in e.atoms() if (v := known.get(x)) is not None}
        if not sub:
            return e
        e = known.memo.call(("s", e, frozenset(sub.items())), substitute, e, sub)
    return None


def settle(pairs: MutableMapping[Atom, Expr], passes: int) -> bool:
    """Substitute ``pairs`` into its own values, in place, until no value
    holds a key.  False when that takes more than ``passes`` passes."""
    for _ in range(passes):
        dirty = False
        for k, v in list(pairs.items()):
            if any(a in pairs for a in v.atoms()):
                pairs[k] = substitute(v, pairs)
                dirty = True
        if not dirty:
            return True
    return False
