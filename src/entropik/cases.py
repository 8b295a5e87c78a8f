"""Branching the constraint identities on undetermined coefficients.

The identities produced by the splitting are a polynomial system in the
unknown material functions.  Reducing it to triangular form repeatedly
divides by coefficients; when a coefficient is not certified nonzero the
reduction forks: one branch assumes the coefficient nonzero and divides,
the other assumes it vanishes identically and substitutes.  Collecting
the forks gives a finite case tree whose leaves are the mutually
exclusive solution families.

Three reduction rules run to a fixed point inside every node:

* a constraint that is a single monomial forces its one uncertified
  function factor to vanish (as a function: all its partials die too);
* a constraint linear in a function atom, with a coefficient that is a
  product of certified-nonzero factors and at least one of them not a
  plain rational, is solved for that atom;
* when two single-slot partials of the same function have been solved,
  cross-differentiating the two values must agree; the difference is
  appended as a new constraint.

Every step is logged as a certificate of its kind: a solve, a zeroed
function, a compatibility condition or a cancelled factor.  Composite
pivots arise from a proportionality pattern: when the same pair of
coefficient atoms multiplies unknown pairs across several constraints,
the ratio of the two coefficients is pinned down, and whether it
actually varies with each shared argument — the slot Wronskian of the
pair — becomes a branching question.

A reduction keeps its solved, derived and zeroed partials in one
:class:`~entropik.algebra.KnownPartials` table and does each piece of
work once: its state caches each live constraint's linear scan (each
first-power function atom with its coefficient) and keeps a
coefficient's residue (stripped of certified factors) in its memo once
asked for; a refresh substitutes only into constraints it did not output
last time or that hold a function zeroed or solved since, and
renormalizes only what that changed.  That is exact since the nonzero
list is fixed once the state is made: a refreshed constraint has nothing
to substitute until one of its functions is touched, and a normal form
stays one.  Under one-term certified factors a coefficient of two or
more terms keeps them all, so it is blocked without dividing.

A case tree does each piece of algebra once along a path.  Each reduced
state has its own layer of an :class:`~entropik.algebra.Memo` over its
parent node's layer, and keeps there the results of the reducer's pure
steps under their arguments: the table's substitutions and slot
derivatives, and each normal form and residue under the state's nonzero
tuple.  A child reads what its ancestors computed, and a finished
subtree's layers go with its states.  A kept result equals in value
what a new call would make: the steps are pure, every state of a tree
declares the same arguments, and a normal form is keyed by the nonzero
tuple it was taken under.  Its term order and coefficient types are
those of the call that made it (:class:`~entropik.algebra.Memo`).
:func:`apply_assumptions` reduces under a one-layer memo.

The reduction only solves.  What a tree node forks on is read from the
cached scans once, at the node's fixed point, where they are exactly
the scans the last round walked; a plain :func:`apply_assumptions`
computes no fork candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import (
    KnownPartials,
    Memo,
    arg_derivative,
    certified_nonzero,
    constit_atoms,
    forced_zero,
    nonzero_factors,
    normal_set,
    normalize_constraint,
    single_monomial,
    strip_certified,
    subst_known,
)
from .atoms import Atom, Constit, ConstitPartial, mi_dominates
from .errors import ReductionCapExceeded
from .expr import Expr, ZERO, collect_coefficients
from .render import RenderContext, expr_str
from .split import ConstraintSystem

__all__ = [
    "Assumption",
    "Certificate",
    "ReducedSystem",
    "CaseNode",
    "CaseTree",
    "pivot_candidates",
    "apply_assumptions",
    "build_tree",
    "force_residual",
]

_MAX_ROUNDS = 64
_MAX_PASSES = 12


@dataclass(frozen=True)
class Assumption:
    """One branch hypothesis: ``expr`` identically zero, or nonzero."""

    expr: Expr
    polarity: str  # "zero" | "nonzero"

    def __post_init__(self):
        if self.polarity not in ("zero", "nonzero"):
            raise ValueError(f"bad polarity {self.polarity!r}")

    @staticmethod
    def zero(e: Expr) -> "Assumption":
        return Assumption(e, "zero")

    @staticmethod
    def nonzero(e: Expr) -> "Assumption":
        return Assumption(e, "nonzero")


@dataclass(frozen=True)
class Certificate:
    """Why one reduction step was sound."""

    kind: str  # "solve" | "zero" | "compat" | "cancel"


@dataclass(frozen=True)
class ReducedSystem:
    constraints: tuple[Expr, ...]
    nonzero: tuple[Expr, ...]
    zeroed: tuple[Atom, ...]                  # vanish as functions
    solved: tuple[tuple[Atom, Expr], ...]     # triangular assignments
    certificates: tuple[Certificate, ...]
    derived_zeros: tuple[Atom, ...] = ()      # zeroed minus the assumed
    inconsistent: Optional[str] = None

    def same_content(self, other: "ReducedSystem") -> bool:
        """Do two open systems hold the same constraints, zeros and values?
        A closed one is like no other, so it never makes a fork vacuous."""
        return (
            not self.inconsistent and not other.inconsistent
            and frozenset(self.constraints) == frozenset(other.constraints)
            and frozenset(self.zeroed) == frozenset(other.zeroed)
            and dict(self.solved) == dict(other.solved)
        )


@dataclass(frozen=True)
class CaseNode:
    assumptions: tuple[Assumption, ...]  # full path from the root
    system: ReducedSystem
    pivot: Optional[Expr] = None         # branched-on quantity, if any
    children: tuple["CaseNode", ...] = ()
    status: str = "leaf"                 # "open" | "closed-inconsistent" | "leaf"
    capped: Optional[Expr] = None        # the pivot the depth cap left pending

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class CaseTree:
    root: CaseNode
    pivots: tuple[Expr, ...]  # the candidate pool the build ran with

    def leaves(self) -> tuple[CaseNode, ...]:
        return tuple(n for n in self.root.walk() if n.status == "leaf")

    def capped(self) -> tuple[CaseNode, ...]:
        return tuple(n for n in self.root.walk() if n.capped is not None)


# ---------------------------------------------------------------------------
# Reduction engine.


class _State:
    def __init__(
        self, cs: ConstraintSystem, assumptions: Iterable[Assumption], memo: Memo
    ):
        self.constraints: list[Expr] = list(cs.constraints)
        self.nonzero: tuple[Expr, ...] = tuple(cs.nonzero)
        self.log: list[Certificate] = []
        self.args_of: dict[str, tuple[Atom, ...]] = dict(cs.args_of)
        self.memo = memo
        self.known = KnownPartials(self.args_of, memo=memo)
        self.indep_names = cs.indep_names
        self.inconsistent: Optional[str] = None
        self.assumptions = tuple(assumptions)
        self.clean: set[Expr] = set()   # what the last refresh output
        self.touched: set[str] = set()  # functions zeroed or solved since
        self.scans: dict[Expr, list[tuple[Atom, Expr]]] = {}
        self.composite_factors = False  # a certified factor of two or more terms

    def cap_error(self, what: str) -> ReductionCapExceeded:
        rc = RenderContext.labelled(self.indep_names, self.args_of.items())
        path = ", ".join(
            f"{expr_str(a.expr, rc)} "
            + ("= 0" if a.polarity == "zero" else "!= 0")
            for a in self.assumptions
        )
        return ReductionCapExceeded(f"reduction {what}; assumptions: {path or 'none'}")

    def subst_known(self, e: Expr) -> Expr:
        v = subst_known(e, self.known, _MAX_PASSES)
        if v is None:
            raise self.cap_error(
                f"substitution did not settle in {_MAX_PASSES} passes"
            )
        return v

    def add_zero(self, a: Atom) -> None:
        self.known.zero(a)
        self.touched.add(a.name)
        self.log.append(Certificate("zero"))

    def add_solved(self, a: Atom, v: Expr) -> None:
        if v.is_zero():
            self.add_zero(a)
            return
        self.known.rewrite(a, v)
        self.known.put(a, v)
        self.touched.add(a.name)
        self.log.append(Certificate("solve"))

    def linear_atoms(self, c: Expr) -> list[tuple[Atom, Expr]]:
        """Each function atom ``c`` holds only to the first power, in atom order,
        with its coefficient; :meth:`residue` strips one on demand."""
        out = self.scans.get(c)
        if out is None:
            linear: dict[Atom, dict] = {}
            higher: set[Atom] = set()
            for m, k in c.num.items():
                for i, (a, e) in enumerate(m):
                    if e > 1:
                        higher.add(a)
                    elif isinstance(a, Constit):
                        linear.setdefault(a, {})[m[:i] + m[i + 1:]] = k
            out = []
            for u in sorted(linear.keys() - higher, key=lambda a: a.key):
                out.append((u, Expr.poly(linear[u])))
            self.scans[c] = out
        return out

    def normalize(self, e: Expr) -> tuple[Expr, int]:
        """The normal form of ``e`` under the nonzero list and the number of
        cancellations made (:func:`normalize_constraint`), kept."""
        key = ("n", e, self.nonzero)
        n, log = self.memo.call(key, normalize_constraint, e, self.nonzero)
        return n, len(log)

    def residue(self, coeff: Expr) -> Expr:
        """``coeff`` with its certified factors divided out."""
        return self.memo.call(
            ("r", coeff, self.nonzero), strip_certified, coeff, self.nonzero
        )

    def divides(self, coeff: Expr) -> bool:
        """Is ``coeff`` a product of certified factors and no bare rational?
        Under one-term factors a coefficient of two terms or more is not."""
        if len(coeff.num) > 1 and not self.composite_factors:
            return False
        return not coeff.is_rational() and self.residue(coeff).is_rational()

    def slot_derivative(self, e: Expr, arg: Atom) -> Expr:
        return self.memo.call(("d", e, arg), arg_derivative, e, arg, self.args_of)


def _circular(u: Atom, value: Expr) -> bool:
    """Would assigning ``value`` to ``u`` feed back into itself?  The
    same function may appear through an incomparable partial (that is
    ordinary triangular coupling), but not through ``u`` itself, the
    symbol, or a partial dominating ``u``; every partial dominates the
    symbol."""
    return any(
        isinstance(a, Constit) and a.name == u.name
        and (a is u or not a.slots or mi_dominates(a.slots, u.slots))
        for a in value.atoms()
    )


def _refresh(st: _State) -> bool:
    """Re-substitute, renormalize, deduplicate; detect contradictions."""
    out: dict[Expr, None] = {}
    changed = False
    for c in st.constraints:
        clean = c in st.clean
        r = c if clean and not _holds(c, st.touched) else st.subst_known(c)
        if clean and r is c:
            n = c  # nothing substituted into a normal form: it stays
        else:
            n, cancels = st.normalize(r)
            st.log.extend(Certificate("cancel") for _ in range(cancels))
            if n.is_zero():
                continue
            if not constit_atoms(n):
                st.inconsistent = (
                    "constraint reduces to a nonvanishing function-free expression"
                )
                return False
        changed = changed or n != c
        out.setdefault(n)
    # a dropped zero or a second copy shortens the list
    changed = changed or len(out) != len(st.constraints)
    st.constraints = list(out)
    st.clean = set(out)
    for c in st.scans.keys() - out:
        del st.scans[c]
    st.touched.clear()
    for nz in st.nonzero:
        if st.subst_known(nz).is_zero():
            st.inconsistent = "a nonzero side condition vanishes identically"
            return False
    return changed


def _holds(c: Expr, names: set[str]) -> bool:
    """Does ``c`` hold an atom of one of the named functions?"""
    return bool(names) and any(
        isinstance(a, Constit) and a.name in names for a in c.atoms()
    )


def _zero_rule(st: _State) -> bool:
    """A single-monomial constraint kills its one uncertified function
    factor (:func:`~entropik.algebra.forced_zero`)."""
    changed = False
    for c in list(st.constraints):
        u = forced_zero(c, st.nonzero)
        if u is not None:
            st.add_zero(u)
            st.constraints.remove(c)
            changed = True
    return changed


def _blocked_candidate(residue: Expr) -> Optional[Expr]:
    """The pool member a non-rational residue names: its normal form, or
    for one term its first function factor."""
    if len(residue.num) > 1:
        return normalize_constraint(residue, ())[0]
    mono, = residue.num
    return next((Expr.atom(a) for a, _k in mono if isinstance(a, Constit)), None)


def _eliminate(st: _State) -> bool:
    """Solve the first constraint that is linear in an atom whose
    coefficient is certified nonzero and not a bare rational."""
    for c in st.constraints:
        for u, coeff in st.linear_atoms(c):
            if not st.divides(coeff):
                continue  # blocked, or no genuine pivot backs this division
            rest = collect_coefficients(c, [u]).get((), ZERO)
            value = st.subst_known(-rest / coeff)
            if _circular(u, value):
                continue  # not triangular: value feeds back into u
            st.add_solved(u, value)
            st.constraints.remove(c)
            return True
    return False


def _compat(st: _State) -> bool:
    """Cross-argument agreement of solved single-slot partials."""
    # a vanishing single-slot partial still constrains its siblings
    by_name = st.known.first_partials()
    changed = False
    for name, values in by_name.items():
        args = st.args_of.get(name)
        if args is None or len(values) < 2:
            continue
        parts = sorted(values, key=lambda a: a.key)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                pi, pj = parts[i], parts[j]
                ai = args[pi.slots.index(1)]
                aj = args[pj.slots.index(1)]
                k = st.slot_derivative(values[pi], aj) - st.slot_derivative(
                    values[pj], ai
                )
                k = st.subst_known(k)
                n, _ = st.normalize(k)
                if n.is_zero() or n in st.constraints:
                    continue
                if not constit_atoms(n):
                    st.inconsistent = (
                        "incompatible mixed partials of a solved function"
                    )
                    return False
                st.constraints.append(n)
                st.log.append(Certificate("compat"))
                changed = True
    return changed


def _reduce(st: _State) -> None:
    for _ in range(_MAX_ROUNDS):
        changed = _refresh(st)
        if st.inconsistent:
            return
        changed |= _zero_rule(st)
        changed |= _eliminate(st)
        if not changed and not _compat(st):
            return
    raise st.cap_error(f"reached no fixed point in {_MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# Candidate pivots.


def _repeated_pairs(
    constraints: Sequence[Expr],
) -> list[tuple[ConstitPartial, ConstitPartial]]:
    """Coefficient-atom pairs that recur across two-monomial constraints.

    A constraint ``A*X - B*Y`` pins the ratio of the unknowns to B/A;
    when the same (A, B) shows up in several constraints the pattern is a
    shared proportionality, worth interrogating per argument."""
    counts: dict[tuple[Atom, Atom], int] = {}
    for c in constraints:
        if len(c.num) != 2:
            continue
        m1, m2 = c.num

        def partials(mono):
            return [a for a, _k in mono if isinstance(a, ConstitPartial)]

        seen: set[tuple[Atom, Atom]] = set()
        for a in partials(m1):
            for b in partials(m2):
                if a.name == b.name:
                    continue
                key = (a, b) if a.key < b.key else (b, a)
                seen.add(key)
        for key in seen:
            counts[key] = counts.get(key, 0) + 1
    return [pair for pair, n in counts.items() if n >= 2]


def _pair_wronskians(
    pair: tuple[ConstitPartial, ConstitPartial],
    nonzero: Sequence[Expr],
    args_of: Mapping[str, tuple[Atom, ...]],
) -> list[Expr]:
    a, b = pair
    ea, eb = Expr.atom(a), Expr.atom(b)
    ws, _ = normal_set(
        (
            ea * arg_derivative(eb, arg, args_of)
            - eb * arg_derivative(ea, arg, args_of)
            for arg in args_of.get(a.name, ())
            if arg in args_of.get(b.name, ())
        ),
        nonzero,
    )
    return [w for w in ws if not w.is_rational()]


def pivot_candidates(cs: ConstraintSystem) -> tuple[Expr, ...]:
    """Ranked branching candidates for a constraint system.

    Function-partial atoms occurring in the constraints come first,
    ranked by how many constraints contain them; then slot Wronskians of
    repeated coefficient pairs; then the recorded cancellation factors
    and denominator pivots (already certified, so they never actually
    fork, but they document where divisions happened)."""
    occurrence: dict[Atom, int] = {}
    for c in cs.constraints:
        for a in c.atoms():
            if isinstance(a, ConstitPartial):
                occurrence[a] = occurrence.get(a, 0) + 1
    ranked = sorted(occurrence, key=lambda a: (-occurrence[a], a.key))
    args_of = dict(cs.args_of)
    extras, _ = normal_set([*cs.nonzero, *(f.factor for f in cs.cancellations)], ())
    return tuple(dict.fromkeys([
        *map(Expr.atom, ranked),
        *(
            w
            for pair in _repeated_pairs(cs.constraints)
            for w in _pair_wronskians(pair, cs.nonzero, args_of)
        ),
        *(n for n in extras if not n.is_rational()),
    ]))


def force_residual(cs: ConstraintSystem) -> ConstraintSystem:
    """Degenerate-production variant: the residual is demanded to vanish
    identically and joins the constraints.

    The residual is a sign-definite quantity, so its identical vanishing
    is only informative away from the locus where the repeated
    coefficient pair of the system degenerates; those pair atoms are
    asserted nonzero alongside."""
    pair_atoms = [Expr.atom(a) for p in _repeated_pairs(cs.constraints) for a in p]
    nonzero = list(dict.fromkeys([*cs.nonzero, *pair_atoms]))
    residual, _ = normal_set([cs.residual_numerator], nonzero)
    return replace(
        cs,
        constraints=tuple(dict.fromkeys([*cs.constraints, *residual])),
        residual_numerator=ZERO,
        nonzero=tuple(nonzero),
    )


# ---------------------------------------------------------------------------
# Public reduction and tree construction.


def _make_state(
    cs: ConstraintSystem,
    assumptions: Iterable[Assumption],
    parent: Optional[Memo] = None,
) -> _State:
    """A state with its own memo layer over ``parent``'s."""
    st = _State(cs, assumptions, Memo(parent))
    nonzero = list(st.nonzero)
    for a in st.assumptions:
        if a.polarity == "nonzero":
            nonzero.extend(nonzero_factors(a.expr))
        else:
            atoms = constit_atoms(a.expr)
            mono = single_monomial(a.expr)
            if mono is not None and len(atoms) == 1 and len(mono) == 1:
                st.known.zero(atoms[0])
            else:
                n, _ = normalize_constraint(a.expr, ())
                if not n.is_zero():
                    st.constraints.append(n)
    st.nonzero = tuple(dict.fromkeys(nonzero))
    st.composite_factors = any(len(f.num) > 1 for f in st.nonzero)
    return st


def _finish(st: _State) -> ReducedSystem:
    assumed: set[Atom] = set()
    for a in st.assumptions:
        if a.polarity == "zero":
            atoms = constit_atoms(a.expr)
            if len(atoms) == 1:
                assumed.add(atoms[0])
    zeroed = tuple(sorted(st.known.zeros(), key=lambda x: x.key))
    return ReducedSystem(
        constraints=tuple(st.constraints),
        nonzero=st.nonzero,
        zeroed=zeroed,
        solved=tuple(sorted(st.known.values.items(), key=lambda kv: kv[0].key)),
        certificates=tuple(st.log),
        derived_zeros=tuple(a for a in zeroed if a not in assumed),
        inconsistent=st.inconsistent,
    )


def apply_assumptions(
    cs: ConstraintSystem, assumptions: Iterable[Assumption]
) -> ReducedSystem:
    """Reduce the system under the given hypotheses.

    Returns the triangularized remainder; an unsatisfiable combination
    is reported through ``inconsistent`` rather than raised, so a tree
    build can close the branch and move on."""
    st = _make_state(cs, assumptions)
    _reduce(st)
    return _finish(st)


def _order_blocked(st: _State) -> list[Expr]:
    """The uncancelled parts of the coefficients a reduced state cannot
    divide by, by how many constraints block on them, composite ones
    first; ``sorted`` is stable, so ties keep first-seen order."""
    count: dict[Expr, int] = {}
    for c in st.constraints:
        residues = (st.residue(coeff) for _u, coeff in st.linear_atoms(c))
        cands = dict.fromkeys(
            _blocked_candidate(r) for r in residues if not r.is_rational()
        )
        cands.pop(None, None)
        for e in cands:
            count[e] = count.get(e, 0) + 1

    def key(e: Expr):
        multi = len(e.num) > 1
        return (-count[e], 0 if multi else 1)

    return sorted(count, key=key)


def _relevant_static(w: Expr, st: _State) -> bool:
    v = st.subst_known(w)
    if v.is_zero() or certified_nonzero(v, st.nonzero):
        return False
    names = {a.name for a in w.atoms() if isinstance(a, Constit)}
    present: set[str] = set()
    for c in st.constraints:
        present.update(a.name for a in c.atoms() if isinstance(a, Constit))
    return names <= present


def build_tree(
    cs: ConstraintSystem,
    depth: int = 3,
    assumptions: Sequence[Assumption] = (),
) -> CaseTree:
    """Binary case analysis over undetermined pivots, to a depth cap.

    A branch only ever forks on a member of the candidate pool,
    :func:`pivot_candidates`.  Each node reduces to its fixed point and
    forks on the first pool member its divisions are blocked on
    (:func:`_order_blocked`), then on the first still-relevant composite
    member, tested only when reached.  A fork whose two children reduce
    to the same open system is skipped as vacuous.  The root
    is reduced before the pool is ranked; when it closes, no fork
    consults the pool and the tree reports an empty one.  A child reduces
    under a memo layer of its own over its parent's."""
    if depth < 1:
        raise ValueError("depth cap must be at least 1")

    def reduced(path: tuple[Assumption, ...], parent: Optional[Memo]) -> _State:
        st = _make_state(cs, path, parent)
        _reduce(st)
        return st

    root = reduced(tuple(assumptions), None)
    pool: tuple[Expr, ...] = ()
    if not root.inconsistent:
        pool = pivot_candidates(cs)
    in_pool = set(pool)
    statics = [p for p in pool if len(p.num) > 1]

    def node(st: _State) -> CaseNode:
        path = st.assumptions
        system = _finish(st)
        if system.inconsistent:
            return CaseNode(path, system, status="closed-inconsistent")
        assumed = {a.expr for a in path}
        blocked = [e for e in _order_blocked(st) if e in in_pool and e not in assumed]
        for cand in chain(blocked, (  # a static is tested only when reached
            w for w in statics
            if w not in assumed and w not in blocked and _relevant_static(w, st)
        )):
            if len(path) >= depth:
                return CaseNode(path, system, status="open", capped=cand)
            hi = node(reduced(path + (Assumption.nonzero(cand),), st.memo))
            lo = node(reduced(path + (Assumption.zero(cand),), st.memo))
            if hi.system.same_content(lo.system):
                continue  # the fork changes nothing; vacuous pivot
            return CaseNode(path, system, pivot=cand, children=(hi, lo), status="open")
        return CaseNode(path, system)

    return CaseTree(root=node(root), pivots=pool)
