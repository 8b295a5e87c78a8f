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
from .model import ModelDef
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


def split(m: ModelDef, e: Expr) -> ConstraintSystem:
    """Coefficient extraction over the free elements of ``e``: the model's
    independent variables and the atoms of ``e`` that are neither unknown
    functions, nor leading derivatives or their consequences, nor declared
    dependencies."""
    deps = m.dependency_atoms()
    free_set = {
        a
        for a in (*m.indep, *e.atoms())
        if not isinstance(a, (ConstitSym, ConstitPartial))
        and not m.is_consequence(a)
        and a not in deps
    }
    free = sorted(free_set, key=lambda a: a.key)

    den = e.denominator_expr()
    for a in den.atoms():
        if a in free_set:
            raise NotPolynomialInFreeElements(
                f"denominator contains the free element {a}", atom=a
            )
    try:
        coeffs = collect_coefficients(e, free)
    except NotPolynomialInVars as err:  # pragma: no cover - guarded above
        raise NotPolynomialInFreeElements(str(err), atom=err.atom) from err

    nonzero: list[Expr] = []
    for cond in (*m.nonzero, den):
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
    cs: ConstraintSystem, trials: int = 100, seed: int = 0
) -> OracleReport:
    """Point checks of the splitting at random exact-rational jets.

    Per trial: assign every atom an exact rational, drawn in atom order
    (rejecting draws that violate a nonzero side condition), and check
    the coefficient decomposition identity.  Then repair the
    unknown-function values so that every constraint vanishes (solving
    each for one linearly occurring unknown) and check that the entropy
    numerator equals the residual numerator on that constraint variety.
    """
    # Rebuild the full numerator from the table; using the reconstruction
    # keeps the oracle independent from the caller's entropy expression.
    entropy_num = cs.reconstruction()
    table = [(monomial_expr(mono), coeff) for mono, coeff in cs.table]
    pieces = (entropy_num, cs.residual_numerator, cs.denominator, *cs.nonzero,
              *(coeff for _, coeff in cs.table), *cs.constraints)
    atoms = sorted({a for p in pieces for a in p.atoms()}, key=lambda a: a.key)

    # Each constraint's repair list: the unknowns it holds to degree one,
    # least shared first.  Solving through an unknown private to a single
    # constraint cannot disturb constraints already zeroed.
    degrees: list[dict[Atom, int]] = []
    occurrence: dict[Atom, int] = {}
    for con in cs.constraints:
        deg: dict[Atom, int] = {}
        for mono in con.num:
            for a, k in mono:
                if isinstance(a, (ConstitSym, ConstitPartial)):
                    deg[a] = max(deg.get(a, 0), k)
        degrees.append(deg)
        for a in deg:
            occurrence[a] = occurrence.get(a, 0) + 1
    ranked = sorted(occurrence, key=lambda a: (occurrence[a], a.key))
    repairs = [
        (con, [x for x in ranked if deg.get(x) == 1])
        for con, deg in zip(cs.constraints, degrees)
    ]

    failures: list[OracleFailure] = []
    id_pass = var_pass = var_skip = 0

    for trial in range(trials):
        rnd = random.Random(seed * 1000003 + trial)
        point: dict[Atom, Q] = {}
        for _ in range(64):
            point = {a: _draw(rnd) for a in atoms}
            try:
                if all(eval_numeric(nz, point) for nz in cs.nonzero):
                    break
            except DenominatorVanishes:
                continue

        # Identity: numerator == sum over the table + constant term.
        lhs = eval_numeric(entropy_num, point)
        rhs = eval_numeric(cs.residual_numerator, point) + sum(
            (eval_numeric(c, point) * eval_numeric(mono, point)
             for mono, c in table),
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
        # constraints vanish, then entropy == residual at the point.  A
        # constraint a*x + b gives b at x = 0 and a + b at x = 1.
        repaired = dict(point)
        used: set[Atom] = set()
        solvable = True
        for con, candidates in repairs:
            if eval_numeric(con, repaired) == 0:
                continue
            for x in candidates:
                if x in used:
                    continue
                old = repaired[x]
                repaired[x] = Q(0)
                b = eval_numeric(con, repaired)
                repaired[x] = Q(1)
                a = eval_numeric(con, repaired) - b
                if a == 0:
                    repaired[x] = old
                    continue
                repaired[x] = -b / a
                used.add(x)
                break
            else:
                solvable = False
                break
        if not solvable or any(
            eval_numeric(con, repaired) != 0 for con in cs.constraints
        ):
            # No linear unknown left, or repair order interfered: a skip,
            # not a soundness failure.
            var_skip += 1
            continue
        lhs_v = eval_numeric(entropy_num, repaired)
        rhs_v = eval_numeric(cs.residual_numerator, repaired)
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
