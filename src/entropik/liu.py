"""Classical multiplier-based entropy analysis, for comparison.

The extended inequality subtracts each balance equation weighted by a
fresh unknown multiplier symbol, then sets the coefficients of every
derivative that is not a declared material-function argument to zero —
a purely linear-algebraic step that knows nothing about differential
consequences of the equations.  Comparing its output with the
solution-manifold splitting quantifies what that omission costs.

The multipliers are postulated to be functions of the declared
dependency atoms.  Because they are *arbitrary* unknown functions, any
identity they enter must hold for every value of their arguments; when
a participating material function lacks one of those arguments, slot
differentiation of the identity produces extra conclusions in the
generic branch (multiplier partial nonzero).  That harvesting step is
what reproduces the method's well-known over-restriction on models
whose energy pair depends on a derivative the fluxes do not see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ._ratio import qdiv
from .algebra import (
    Memo,
    arg_derivative,
    certified_nonzero,
    forced_zero,
    normal_set,
    normalize_constraint,
    settle,
    single_monomial,
    try_divexact,
)
from .atoms import Atom, Constit, ConstitPartial, ConstitSym, JetVar, mi_total
from .backend import p_addmul
from .errors import NonlinearExtendedInequality
from .expr import (
    Expr,
    Monomial,
    ZERO,
    collect_coefficients,
    mono_key,
    monomial_expr,
    substitute,
)
from .model import ModelDef
from .render import expr_str
from .split import ConstraintSystem

__all__ = [
    "LiuResult",
    "ComparisonReport",
    "multiplier_symbols",
    "args_map",
    "liu_extended",
    "liu_split",
    "eliminate_multipliers",
    "compare",
]

_MULTIPLIER_PREFIX = "Lam_"


def multiplier_symbols(m: ModelDef) -> tuple[ConstitSym, ...]:
    """One fresh multiplier symbol per equation, by label."""
    return tuple(ConstitSym(_MULTIPLIER_PREFIX + eq.label) for eq in m.equations)


def liu_extended(m: ModelDef) -> Expr:
    """Entropy lhs minus multiplier-weighted equation lhs's.

    The postulated multiplier dependency does not change the expression
    (multipliers are never differentiated here); :func:`liu_split` takes it.
    """
    e = m.entropy_lhs
    for lam, eq in zip(multiplier_symbols(m), m.equations):
        e = e - Expr.atom(lam) * eq.lhs
    return e


@dataclass(frozen=True)
class LiuResult:
    multipliers: tuple[ConstitSym, ...]
    multiplier_dep: tuple[Atom, ...]
    identities: tuple[Expr, ...]   # each = 0, normalized
    residual: Expr                  # remainder, >= 0
    split_atoms: tuple[JetVar, ...]
    table: tuple[tuple[Monomial, Expr], ...]
    free_fields: tuple[JetVar, ...] = ()
    derived_zeros: tuple[Atom, ...] = ()        # material-function atoms
    generic_assumptions: tuple[Atom, ...] = ()  # multiplier partials != 0


def _is_multiplier_name(name: str) -> bool:
    return name.startswith(_MULTIPLIER_PREFIX)


def args_map(
    m: ModelDef, multiplier_dep: Sequence[Atom]
) -> dict[str, tuple[Atom, ...]]:
    """Argument atoms of every constitutive symbol; each multiplier takes
    ``multiplier_dep``."""
    args = {d.name: d.args for d in m.decls}
    dep = tuple(multiplier_dep)
    for lam in multiplier_symbols(m):
        args[lam.name] = dep
    return args


def _apply_zeros(e: Expr, zeros: Iterable[Atom]) -> Expr:
    """Substitute zero for the given atoms *as functions*: a vanishing
    symbol also kills every partial of the same symbol."""
    zeros = set(zeros)
    if not zeros:
        return e
    names = {a.name for a in zeros if not a.slots}
    sub = {a: ZERO for a in zeros}
    for x in e.atoms():
        if isinstance(x, ConstitPartial) and x.name in names:
            sub[x] = ZERO
    return substitute(e, sub) if sub else e


def _field_pieces(e: Expr, free_fields: Sequence[JetVar]) -> list[Expr]:
    """Split over undifferentiated fields outside every dependency: no
    unknown function sees them, so each coefficient vanishes on its own."""
    fs = [f for f in free_fields if f in e.atoms()]
    if not fs:
        return [e]
    return list(collect_coefficients(e, fs).values())


def _refine(
    exprs: Iterable[Expr], free_fields: Sequence[JetVar], nonzero: Sequence[Expr]
) -> list[Expr]:
    """The normal set of every field piece of ``exprs``."""
    return normal_set(
        (p for e in exprs for p in _field_pieces(e, free_fields)), nonzero
    )[0]


def _harvest(
    pieces: Sequence[Expr],
    multiplier_dep: Sequence[Atom],
    args_of: Mapping[str, tuple[Atom, ...]],
    nonzero: Sequence[Expr],
) -> tuple[set[Atom], set[Atom]]:
    """Closure of zero conclusions over the refined identity pieces.

    Two sound rules run to a fixed point first:

    * a single-monomial identity whose function factors are all
      certified nonzero except one forces that one to zero;
    * a slot derivative of an identity that collapses to one multiplier
      partial times a certified cofactor forces that partial to zero
      (the multiplier simply cannot depend on that argument).

    Only when neither rule fires is one *generic-branch* step taken: a
    slot derivative of the form (multiplier partial)·(single unknown
    symbol) concludes the unknown vanishes, recording the assumption
    that the multiplier partial is nonzero.  This is the branch the
    multiplier ansatz takes by default — the multipliers are arbitrary
    functions of all their declared arguments — and it is the source of
    the method's extra restrictions.
    """
    zeros: set[Atom] = set()
    generic: set[Atom] = set()
    # Slot derivatives by (pool member, atom): a member outlives the round
    # that made it, and only the zeros applied to its derivative change.
    memo = Memo()

    while True:
        pool, _ = normal_set((_apply_zeros(p, zeros) for p in pieces), nonzero)
        # Rule 1: single monomial with one uncertified function.
        zeros, pool = _zero_closure(pool, nonzero, zeros)

        forced = False
        # Rule 2: forced multiplier-partial zeros from slot derivatives.
        candidates: list[tuple[Atom, Atom]] = []
        for p in pool:
            for a in multiplier_dep:
                d = memo.call(("d", p, a), arg_derivative, p, a, args_of)
                j = _apply_zeros(d, zeros)
                if j.is_zero():
                    continue
                mono = single_monomial(j)
                if mono is None:
                    continue
                mp = [
                    (x, k)
                    for x, k in mono
                    if isinstance(x, ConstitPartial) and _is_multiplier_name(x.name)
                ]
                if len(mp) != 1 or mp[0][1] != 1:
                    continue
                m_atom = mp[0][0]
                rest = [
                    x
                    for x, _k in mono
                    if x is not m_atom and not certified_nonzero(Expr.atom(x), nonzero)
                ]
                if not rest:
                    if m_atom not in zeros:
                        zeros.add(m_atom)
                        forced = True
                elif (
                    len(rest) == 1
                    and isinstance(rest[0], Constit)
                    and not _is_multiplier_name(rest[0].name)
                    and rest[0] not in zeros
                ):
                    candidates.append((rest[0], m_atom))
        if forced:
            continue

        # Generic branch: take one conclusion, then re-run the sound rules.
        if candidates:
            candidates.sort(key=lambda uv: (uv[0].key, uv[1].key))
            u, m_atom = candidates[0]
            zeros.add(u)
            generic.add(m_atom)
            continue
        break

    return zeros, generic


def liu_split(
    e: Expr,
    m: ModelDef,
    multiplier_dep: Optional[Sequence[Atom]] = None,
) -> LiuResult:
    """Coefficient extraction over the non-argument derivatives.

    The splitting set is every derivative (jet variable of order >= 1)
    present in ``e`` that is neither a declared material-function argument
    nor in the multiplier dependency.  The extended inequality must be
    linear in that set; a higher-degree monomial is a structural failure
    of the multiplier method for the model and is reported as such.

    After the raw coefficients, a harvesting pass (see :func:`_harvest`)
    refines each identity over dependency-free fields and closes the
    result under slot differentiation in the multiplier arguments; any
    material-function symbols concluded zero are appended as identities.
    """
    if multiplier_dep is None:
        multiplier_dep = tuple(
            sorted(m.dependency_atoms(), key=lambda a: a.key)
        )
    else:
        multiplier_dep = tuple(multiplier_dep)
    dep = set(m.dependency_atoms()) | set(multiplier_dep)
    split_atoms = sorted(
        (
            a
            for a in e.atoms()
            if isinstance(a, JetVar) and mi_total(a.orders) >= 1 and a not in dep
        ),
        key=lambda a: a.key,
    )
    coeffs = collect_coefficients(e, split_atoms)
    for mono in coeffs:
        if sum(k for _, k in mono) > 1:
            raise NonlinearExtendedInequality(
                "extended inequality is not linear in the split derivatives: "
                f"monomial {expr_str(monomial_expr(mono), m.render_ctx())}"
            )

    nonzero = list(m.nonzero)
    table = sorted(
        ((mono, c) for mono, c in coeffs.items() if mono),
        key=lambda kv: mono_key(kv[0]),
    )
    identities, _ = normal_set((c for _, c in table), nonzero)

    free_fields = tuple(
        sorted(
            (
                jv
                for f in m.fields
                if (jv := JetVar(f, (0,) * len(m.indep))) not in dep
            ),
            key=lambda a: a.key,
        )
    )
    pieces = _refine(identities, free_fields, nonzero)
    args_of = args_map(m, multiplier_dep)
    zeros, generic = _harvest(pieces, multiplier_dep, args_of, nonzero)

    declared = {d.name for d in m.decls}
    derived = tuple(
        sorted((a for a in zeros if a.name in declared), key=lambda a: a.key)
    )
    identities = tuple(dict.fromkeys([*identities, *map(Expr.atom, derived)]))

    return LiuResult(
        multipliers=multiplier_symbols(m),
        multiplier_dep=multiplier_dep,
        identities=identities,
        residual=coeffs.get((), ZERO),
        split_atoms=tuple(split_atoms),
        table=table,
        free_fields=free_fields,
        derived_zeros=derived,
        generic_assumptions=tuple(sorted(generic, key=lambda a: a.key)),
    )


def eliminate_multipliers(
    lr: LiuResult, nonzero: Iterable[Expr]
) -> tuple[dict[ConstitSym, Expr], tuple[Expr, ...], tuple[ConstitSym, ...]]:
    """Solve identities for the multiplier symbols where a safe linear
    pivot exists; substitute into the rest.

    Returns (solved multipliers, multiplier-free identities, unsolved
    multiplier symbols).  Identities still containing an unsolved
    multiplier are dropped from the returned list (the caller reports the
    incompleteness).
    """
    nonzero = list(nonzero)
    pending = list(lr.identities)
    solved: dict[ConstitSym, Expr] = {}
    remaining = set(lr.multipliers)

    progress = True
    while progress and remaining:
        progress = False
        for lam in sorted(remaining, key=lambda a: a.key):
            for ident in pending:
                if lam not in ident.atoms():
                    continue
                coeffs = collect_coefficients(ident, [lam])
                mono = ((lam, 1),)
                if set(coeffs) - {(), mono}:
                    continue  # nonlinear occurrence
                a = coeffs[mono]
                if any(x in remaining or x in solved for x in a.atoms()):
                    continue  # coefficient entangled with other multipliers
                if not certified_nonzero(a, nonzero):
                    continue
                b = coeffs.get((), ZERO)
                solved[lam] = -b / a
                remaining.discard(lam)
                pending = [
                    substitute(x, {lam: solved[lam]}) for x in pending
                ]
                progress = True
                break
            if progress:
                break

    # A solved value may reference a multiplier that was pivoted later;
    # back-substitute until every value is multiplier-free.  The pivot
    # order makes the map acyclic, so one pass per value settles it.
    settled = settle(solved, len(solved) + 1)
    assert settled, "multiplier values feed back into each other"

    physical, _ = normal_set(
        (x for x in pending if remaining.isdisjoint(x.atoms())), nonzero
    )
    return solved, tuple(physical), tuple(sorted(remaining, key=lambda a: a.key))


def _zero_closure(
    pool: Sequence[Expr], nonzero: Sequence[Expr], zeros: Iterable[Atom] = ()
) -> tuple[set[Atom], Sequence[Expr]]:
    """Close ``zeros`` under the functions single-monomial members of
    ``pool`` force to vanish (:func:`~entropik.algebra.forced_zero`),
    reducing the pool modulo each new batch.  ``pool`` is already reduced
    modulo the starting ``zeros``; returns the zeros and the reduced pool."""
    zeros = set(zeros)
    while True:
        new = {z for c in pool if (z := forced_zero(c, nonzero)) is not None}
        new -= zeros
        if not new:
            return zeros, pool
        zeros |= new
        pool, _ = normal_set((_apply_zeros(c, new) for c in pool), nonzero)


def _reduce_row(row: dict, pivots: Sequence[tuple[Monomial, dict]]) -> dict:
    """``row`` minus its multiples of the monic echelon ``pivots``, in place."""
    for mono, prow in pivots:
        c = row.get(mono)
        if c:
            p_addmul(row, prow, (), -c)
    return row


def _implication_test(
    base: Sequence[Expr], nonzero: Sequence[Expr]
) -> Callable[[Expr], bool]:
    """Sound, incomplete test of whether ``target = 0`` follows from
    ``base`` (all = 0, normalized) under the nonzero assumptions; a
    target is a member of a normal set under the same assumptions.

    The base's forced zeros, members and echelon form over the monomial
    basis are computed here, once; :func:`compare` lists the routes.
    """
    members = set(base)
    zeros, _ = _zero_closure(base, nonzero)
    # Each divisor with its atoms: one holding an atom the target lacks
    # cannot divide it.
    divisors = [(d, set(d.atoms())) for d in (b.numerator_expr() for b in base)]
    pivots: list[tuple[Monomial, dict]] = []
    for d, _ in divisors:
        row = _reduce_row(dict(d.num), pivots)
        if row:
            lead = min(row, key=mono_key)
            lc = row[lead]
            pivots.append((lead, {m: qdiv(v, lc) for m, v in row.items()}))

    def implied(target: Expr) -> bool:
        if target in members:
            return True
        candidates = [target]
        if zeros:
            r, _ = normalize_constraint(_apply_zeros(target, zeros), nonzero)
            if r.is_zero() or r in members:
                return True
            candidates.append(r)
        nums = [c.numerator_expr() for c in candidates]
        for c in nums:
            have = set(c.atoms())
            for d, need in divisors:
                if need <= have and try_divexact(c, d) is not None:
                    return True
        return any(not _reduce_row(dict(c.num), pivots) for c in nums)

    return implied


@dataclass(frozen=True)
class ComparisonReport:
    verdict: str  # "identical" | "liu-over-restricts" | "incomparable"
    multipliers: dict
    common: tuple[Expr, ...]
    liu_only: tuple[Expr, ...]          # not implied by the solution set
    solution_only: tuple[Expr, ...]     # not implied by the multiplier set
    unsolved_multipliers: tuple[ConstitSym, ...]
    incomplete: bool
    generic_assumptions: tuple[Atom, ...] = ()


def compare(lr: LiuResult, cs: ConstraintSystem) -> ComparisonReport:
    """Classify the multiplier-method identity set against the
    solution-manifold constraint set.

    The multiplier symbols are eliminated linearly first, and that side
    is refined over dependency-free fields (sound: no unknown function
    sees them).  The solution side is already a normal set under the same
    nonzero list, and holds no such field: :func:`~entropik.split.split`
    splits over every one.  Then each side is tested for implication by
    the other.
    The test is sound but incomplete; it accepts, in this order:

    * membership of the normalized identity in the other side;
    * vanishing after substituting the symbols the other side forces to
      zero (single monomials with a certified cofactor, iterated);
    * a polynomial multiple of a member, before or after that
      substitution;
    * a rational-coefficient linear combination of the members'
      numerators, before or after that substitution.

    The verdict is ``identical`` when both directions close,
    ``liu-over-restricts`` when the multiplier set implies everything the
    solution set requires and strictly more, and ``incomparable``
    otherwise.
    """
    nonzero = list(cs.nonzero)
    solved, liu_raw, unsolved = eliminate_multipliers(lr, nonzero)
    liu_ids = _refine(liu_raw, lr.free_fields, nonzero)
    sol = list(cs.constraints)
    by_sol = _implication_test(sol, nonzero)
    by_liu = _implication_test(liu_ids, nonzero)

    common: list[Expr] = []
    liu_only: list[Expr] = []
    for ident in liu_ids:
        (common if by_sol(ident) else liu_only).append(ident)
    solution_only = [c for c in sol if not by_liu(c)]

    if not liu_only and not solution_only:
        verdict = "identical"
    elif not solution_only:
        verdict = "liu-over-restricts"
    else:
        verdict = "incomparable"
    return ComparisonReport(
        verdict=verdict,
        multipliers=dict(solved),
        common=tuple(common),
        liu_only=tuple(liu_only),
        solution_only=tuple(solution_only),
        unsolved_multipliers=unsolved,
        incomplete=bool(unsolved),
        generic_assumptions=lr.generic_assumptions,
    )
