"""Splitting the entropy production over the free jet coordinates.

On the solution manifold the entropy production is a polynomial in the
free elements (jet coordinates that are neither solved-for nor
constitutive arguments) whose coefficients involve only the unknown
material functions.  Since free elements vary independently, every
nonconstant coefficient must vanish — those are the constraint
identities — and the constant term is what remains of the inequality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ._ratio import Q
from .algebra import Cancellation, nonzero_factors, normalize_constraint
from .atoms import Atom, ConstitPartial, ConstitSym, mi_unit
from .errors import (
    DenominatorVanishes,
    EngineError,
    NotPolynomialInFreeElements,
    NotPolynomialInVars,
)
from .expr import (
    Expr,
    Monomial,
    ZERO,
    collect_coefficients,
    eval_numeric,
    mono_key,
    monomial_expr,
    substitute,
)
from .model import Classification, ModelDef, classify_atoms
from .solve import SolvedSystem

__all__ = [
    "ConstraintSystem",
    "OracleReport",
    "OracleFailure",
    "entropy_on_solutions",
    "split",
    "numeric_oracle",
    "symmetrization_constraints",
]


@dataclass(frozen=True)
class ConstraintSystem:
    constraints: tuple[Expr, ...]          # each = 0, normalized, deduplicated
    residual_numerator: Expr               # constant-coefficient term
    denominator: Expr                      # cleared denominator (!= 0)
    nonzero: tuple[Expr, ...]              # side conditions asserted nonzero
    free_elements: tuple[Atom, ...]
    table: tuple[tuple[Monomial, Expr], ...]  # raw monomial -> coefficient
    cancellations: tuple[Cancellation, ...] = ()
    symmetrization: tuple[Expr, ...] = ()   # subset of constraints
    # declared argument lists, so later passes can slot-differentiate
    args_of: tuple[tuple[str, tuple[Atom, ...]], ...] = ()

    @property
    def residual(self) -> Expr:
        """The residual entropy production (>= 0 where denominator > 0)."""
        return self.residual_numerator / self.denominator

    def reconstruction(self) -> Expr:
        """Sum of monomial*coefficient over the full table plus the
        constant term; equals the cleared entropy numerator exactly."""
        total = self.residual_numerator
        for mono, coeff in self.table:
            total = total + monomial_expr(mono) * coeff
        return total


def entropy_on_solutions(m: ModelDef, s: SolvedSystem) -> Expr:
    """Entropy production with the solved equations substituted in.

    ``s`` must already be closed with respect to the entropy expression.
    """
    e = substitute(m.entropy_lhs, s.substitution)
    stuck = [a for a in e.atoms() if m.is_consequence(a)]
    if stuck:
        raise EngineError(
            f"substitution map is not closed for the entropy expression: "
            f"{stuck[0]} remains"
        )
    return e


def symmetrization_constraints(m: ModelDef) -> tuple[Expr, ...]:
    """First-order equality of partials for each declared symmetric
    argument pair: d psi/d a_i - d psi/d a_j = 0."""
    out: list[Expr] = []
    for d in m.decls:
        for i, j in d.symmetric:
            pi = ConstitPartial(d.name, mi_unit(d.arity, i))
            pj = ConstitPartial(d.name, mi_unit(d.arity, j))
            out.append(Expr.atom(pi) - Expr.atom(pj))
    return tuple(out)


def split(
    m: ModelDef,
    e: Expr,
    extra_nonzero: Iterable[Expr] = (),
) -> ConstraintSystem:
    """Coefficient extraction over the free elements of ``e``.

    ``extra_nonzero`` lets the caller thread solver pivots into the side
    conditions (they also participate in coefficient cancellation).
    """
    cls: Classification = classify_atoms(m, [e])
    free = sorted(cls.free, key=lambda a: a.key)

    den = e.denominator_expr()
    for a in den.atoms():
        if a in cls.free:
            raise NotPolynomialInFreeElements(
                f"denominator contains the free element {a}", atom=a
            )
    try:
        coeffs = collect_coefficients(e, free)
    except NotPolynomialInVars as err:  # pragma: no cover - guarded above
        raise NotPolynomialInFreeElements(str(err), atom=err.atom) from err

    nonzero: list[Expr] = []
    for cond in list(m.nonzero) + list(extra_nonzero) + [den]:
        for f in nonzero_factors(cond):
            if f not in nonzero:
                nonzero.append(f)

    table = sorted(
        ((mono, c) for mono, c in coeffs.items() if mono),
        key=lambda kv: mono_key(kv[0]),
    )
    residual_num = coeffs.get((), ZERO)

    constraints: list[Expr] = []
    cancellations: list[Cancellation] = []
    for _, c in table:
        n, log = normalize_constraint(c, nonzero)
        cancellations.extend(log)
        if not n.is_zero() and n not in constraints:
            constraints.append(n)
    sym: list[Expr] = []
    for c in symmetrization_constraints(m):
        n, _ = normalize_constraint(c, nonzero)
        sym.append(n)
        if n not in constraints:
            constraints.append(n)

    return ConstraintSystem(
        constraints=tuple(constraints),
        residual_numerator=residual_num,
        denominator=den,
        nonzero=tuple(nonzero),
        free_elements=tuple(free),
        table=tuple(table),
        cancellations=tuple(cancellations),
        symmetrization=tuple(sym),
        args_of=tuple((d.name, d.args) for d in m.decls),
    )


# ---------------------------------------------------------------------------
# Randomized exact-arithmetic oracle.

@dataclass(frozen=True)
class OracleFailure:
    trial: int
    kind: str  # "identity" | "variety"
    detail: str
    witness: dict


@dataclass(frozen=True)
class OracleReport:
    trials: int
    identity_passes: int
    variety_passes: int
    variety_skips: int
    failures: tuple[OracleFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _draw(rnd: random.Random) -> Q:
    return Q(rnd.randint(-9, 9), rnd.randint(1, 9))


def numeric_oracle(
    m: ModelDef,
    s: SolvedSystem,
    c: ConstraintSystem,
    trials: int = 100,
    seed: int = 0,
    bindings: Optional[Mapping[Atom, Expr]] = None,
) -> OracleReport:
    """Point checks of the splitting at random exact-rational jets.

    Per trial: assign every atom an exact rational (rejecting draws that
    violate a nonzero side condition) and check the coefficient
    decomposition identity.  Then repair the unknown-function values so
    that every constraint vanishes (solving each for one linearly
    occurring unknown) and check that the entropy numerator equals the
    residual numerator on that constraint variety.

    ``bindings`` optionally fixes some unknown-function atoms to
    expressions in the remaining atoms before values are drawn.
    """
    # Rebuild the full numerator from the table; using the reconstruction
    # keeps the oracle independent from the caller's entropy expression.
    entropy_num = c.reconstruction()
    if bindings:
        entropy_num = substitute(entropy_num, dict(bindings))

    atoms: set[Atom] = set(entropy_num.atoms())
    pieces = [c.residual_numerator, c.denominator, *c.nonzero]
    pieces += [coeff for _, coeff in c.table]
    pieces += list(c.constraints)
    for p in pieces:
        atoms.update(substitute(p, dict(bindings)).atoms() if bindings else p.atoms())
    unknowns = sorted(
        (a for a in atoms if isinstance(a, (ConstitSym, ConstitPartial))),
        key=lambda a: a.key,
    )
    if bindings:
        unknowns = [a for a in unknowns if a not in bindings]

    failures: list[OracleFailure] = []
    id_pass = var_pass = var_skip = 0

    for trial in range(trials):
        rnd = random.Random(seed * 1000003 + trial)
        point: dict[Atom, Q] = {}
        for _ in range(64):
            point = {a: _draw(rnd) for a in atoms}
            try:
                if all(
                    eval_numeric(
                        substitute(nz, dict(bindings)) if bindings else nz, point
                    )
                    for nz in c.nonzero
                ):
                    break
            except DenominatorVanishes:
                continue
        ev = lambda x: eval_numeric(
            substitute(x, dict(bindings)) if bindings else x, point
        )

        # Identity: numerator == sum over the table + constant term.
        lhs = ev(entropy_num)
        rhs = ev(c.residual_numerator) + sum(
            (ev(coeff) * ev(monomial_expr(mono)) for mono, coeff in c.table),
            Q(0),
        )
        if lhs == rhs:
            id_pass += 1
        else:
            failures.append(
                OracleFailure(
                    trial,
                    "identity",
                    f"decomposition mismatch {lhs} != {rhs}",
                    {str(a): str(v) for a, v in point.items()},
                )
            )
            continue

        # Projection onto the constraint variety: repair unknowns so all
        # constraints vanish, then entropy == residual at the point.
        repaired = dict(point)
        used: set[Atom] = set()
        solvable = True
        # Prefer repairing through unknowns private to a single constraint:
        # solving those cannot disturb constraints already zeroed.
        occurrence: dict[Atom, int] = {}
        cons_b = [
            substitute(con, dict(bindings)) if bindings else con
            for con in c.constraints
        ]
        for conb in cons_b:
            for a in conb.atoms():
                if isinstance(a, (ConstitSym, ConstitPartial)):
                    occurrence[a] = occurrence.get(a, 0) + 1
        ranked = sorted(unknowns, key=lambda a: (occurrence.get(a, 0), a.key))
        for conb in cons_b:
            val = eval_numeric(conb, repaired)
            if val == 0:
                continue
            fixed = False
            for x in ranked:
                if x in used or x not in conb.atoms():
                    continue
                coeffs = collect_coefficients(conb, [x])
                mono_x = ((x, 1),)
                if set(coeffs) - {(), mono_x}:
                    continue  # x occurs nonlinearly
                a_val = eval_numeric(
                    coeffs[mono_x], {k: v for k, v in repaired.items() if k != x}
                )
                if a_val == 0:
                    continue
                b_val = eval_numeric(
                    coeffs.get((), ZERO),
                    {k: v for k, v in repaired.items() if k != x},
                )
                repaired[x] = -b_val / a_val
                used.add(x)
                fixed = True
                break
            if not fixed:
                solvable = False
                break
        if not solvable:
            var_skip += 1
            continue
        bad = [
            con
            for con in c.constraints
            if eval_numeric(
                substitute(con, dict(bindings)) if bindings else con, repaired
            )
            != 0
        ]
        if bad:
            var_skip += 1  # repair order interfered; not a soundness failure
            continue
        lhs_v = eval_numeric(entropy_num, repaired)
        rhs_v = eval_numeric(
            substitute(c.residual_numerator, dict(bindings))
            if bindings
            else c.residual_numerator,
            repaired,
        )
        if lhs_v == rhs_v:
            var_pass += 1
        else:
            failures.append(
                OracleFailure(
                    trial,
                    "variety",
                    f"on-variety mismatch {lhs_v} != {rhs_v}",
                    {str(a): str(v) for a, v in repaired.items()},
                )
            )

    return OracleReport(
        trials=trials,
        identity_passes=id_pass,
        variety_passes=var_pass,
        variety_skips=var_skip,
        failures=tuple(failures),
    )
