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
from math import gcd, lcm

from ._ratio import Q, qdiv
from .algebra import Cancellation, nonzero_factors, normal_set
from .atoms import Atom, Constit, ConstitPartial, mi_unit
from .errors import DenominatorVanishes, EngineError, NotPolynomialInFreeElements
from .expr import (
    ONE,
    Expr,
    Monomial,
    PointEvaluator,
    ZERO,
    collect_coefficients,
    mono_key,
    substitute,
)
from .model import ModelDef
from .render import atom_str
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

# Oracle draws are never 0: a 0 would empty coefficient rows of the repair.
_NUMERATORS = (*range(-9, 0), *range(1, 10))
# every value a draw can give, keyed by its (numerator, denominator) draw
_DRAWS = {(n, d): Q(n, d) for n in _NUMERATORS for d in range(1, 10)}


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
    indep_names: tuple[str, ...] = ()  # so messages label atoms as written

    @property
    def residual(self) -> Expr:
        """The residual entropy production (>= 0 where denominator > 0)."""
        return self.residual_numerator / self.denominator


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
    free_set = {a for a in (*m.indep, *e.atoms()) if not isinstance(a, Constit)
                and not m.is_consequence(a) and a not in deps}
    free = sorted(free_set, key=lambda a: a.key)

    den = e.denominator_expr()
    for a in den.atoms():
        if a in free_set:
            label = atom_str(a, m.render_ctx())
            raise NotPolynomialInFreeElements(
                f"denominator contains the free element {label}"
            )
    coeffs = collect_coefficients(e, free)

    nonzero = list(dict.fromkeys(
        f for cond in (*m.nonzero, den) for f in nonzero_factors(cond)))

    table = sorted(
        ((mono, c) for mono, c in coeffs.items() if mono),
        key=lambda kv: mono_key(kv[0]),
    )
    residual_num = coeffs.get((), ZERO)

    constraints, cancellations = normal_set((c for _, c in table), nonzero)
    sym, _ = normal_set(symmetrization_constraints(m), nonzero)

    return ConstraintSystem(
        constraints=tuple(dict.fromkeys([*constraints, *sym])),
        residual_numerator=residual_num,
        denominator=den,
        nonzero=tuple(nonzero),
        free_elements=tuple(free),
        table=tuple(table),
        cancellations=tuple(cancellations),
        symmetrization=tuple(sym),
        args_of=tuple((d.name, d.args) for d in m.decls),
        indep_names=m.indep_names,
    )


# ---------------------------------------------------------------------------
# Randomized exact-arithmetic oracle.

@dataclass(frozen=True)
class OracleFailure:
    trial: int
    kind: str  # "point" | "identity" | "variety"
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


def _repair_layers(cs: ConstraintSystem) -> list[tuple[list[Expr], set[Atom]]]:
    """Each repair layer's constraints and the atoms it solves for.

    Unknown functions are coupled when one constraint monomial holds atoms
    of both.  While a remaining function is coupled with another remaining
    one, the first such function (in declaration order) is a layer of its
    own; the rest form the last layer.  A constraint joins the layer of its
    latest function.  A layer solves for its atoms that occur to the first
    power and never two to a monomial: its constraints are affine in them.
    """
    names = [name for name, _ in cs.args_of]
    coupled: dict[str, set[str]] = {f: set() for f in names}
    for fs in {
        frozenset(a.name for a, _ in mono if isinstance(a, Constit))
        for con in cs.constraints
        for mono in con.num
    }:
        for f in fs & coupled.keys():
            coupled[f] |= fs - {f}
    layer_of: dict[str, int] = {}
    rest = list(names)
    while first := next((f for f in rest if coupled[f].intersection(rest)), None):
        layer_of[first] = len(layer_of)
        rest.remove(first)
    out = [([], set()) for _ in range(len(layer_of) + 1)]
    layer_of.update(dict.fromkeys(rest, len(layer_of)))
    for con in cs.constraints:
        i = max((layer_of.get(a.name, 0) for a in con.atoms()
                 if isinstance(a, Constit)), default=0)
        out[i][0].append(con)
    for i, (cons, xs) in enumerate(out):
        nonlinear: set[Atom] = set()
        for mono in (mono for con in cons for mono in con.num):
            mine = [(a, k) for a, k in mono
                    if isinstance(a, Constit) and layer_of.get(a.name) == i]
            xs.update(a for a, _ in mine)
            if len(mine) > 1 or any(k > 1 for _, k in mine):
                nonlinear.update(a for a, _ in mine)
        xs -= nonlinear
    return out


def _layer_rows(ev: PointEvaluator, cons: list[Expr], xs: set[Atom]) -> list:
    """Each constraint of ``cons`` as its terms grouped by the atom of
    ``xs`` they hold (``None`` for none), in first-seen order, each group
    compiled by ``ev`` with that atom taken out."""
    rows = []
    for con in cons:
        groups: dict = {}
        for mono, c in con.num.items():
            x = next((a for a, _ in mono if a in xs), None)
            if x is not None:
                mono = tuple(key for key in mono if key[0] is not x)
            groups.setdefault(x, []).append((mono, c))
        rows.append([(x, ev.code(terms)) for x, terms in groups.items()])
    return rows


def _solve_layer(rows: list, ev: PointEvaluator, point: dict[Atom, Q]) -> bool:
    """Set atoms of ``point`` so that every constraint of ``rows`` (affine
    in them, see :func:`_layer_rows`) vanishes, by exact Gaussian
    elimination over Q, and refresh ``ev`` with them; atoms without a pivot
    keep their values.  False when inconsistent.

    Rows are kept in integers: a constraint's row is its coefficients and
    constant over one common denominator, and eliminating a pivot scales
    the row instead of dividing it.  A scaled row has the same pivots and
    the same solution as the monic one.  Back-substitution sums a pivot's
    row over the common denominator of the values it reads."""
    echelon = []  # (pivot, its coefficient, the rest with the constant at None)
    for groups in rows:
        sums = [(x, *ev.sum(code)) for x, code in groups]
        den = lcm(*(d for _, _, d in sums))
        row = {x: n * (den // d) for x, n, d in sums}
        for p, lead, prow in echelon:
            if f := row.pop(p, 0):
                g = gcd(f, lead)
                scale, f = lead // g, f // g
                row = {x: v * scale for x, v in row.items()}
                for x, v in prow.items():
                    row[x] = row.get(x, 0) - f * v
        const = row.pop(None, 0)
        row = {x: v for x, v in row.items() if v}
        if not row:
            if const:
                return False
            continue
        g = gcd(const, *row.values())
        p = min(row)
        lead = row.pop(p) // g
        row = {x: v // g for x, v in row.items()}
        row[None] = const // g
        echelon.append((p, lead, row))
    for p, lead, row in reversed(echelon):
        const = row.pop(None)
        values = [(v, point[x]) for x, v in row.items()]
        den = lcm(*(q.denominator for _, q in values))
        total = -const * den - sum(
            v * q.numerator * (den // q.denominator) for v, q in values)
        point[p] = qdiv(total, den * lead)
    ev.assign({p: point[p] for p, _, _ in echelon})
    return True


def numeric_oracle(
    m: ModelDef, s: SolvedSystem, cs: ConstraintSystem,
    trials: int = 100, seed: int = 0,
) -> OracleReport:
    """Point checks of the derivation at random solutions of the model.

    Per trial: draw a nonzero rational for every atom but the solved map's
    keys, set the keys from their values, and redraw (up to 64 times) while
    a denominator or a nonzero factor vanishes.  There every model and
    consequence equation must vanish, and the entropy production times the
    denominator must equal the residual numerator plus the table sum.  Then
    solve the constraints layer by layer (:func:`_repair_layers`); the table
    sum must vanish there.  An inconsistent layer, or a nonzero factor the
    repair zeroes, makes the trial a skip.

    Every expression is compiled once per call into one
    :class:`~entropik.expr.PointEvaluator`, the table as one polynomial
    whose terms are each row's monomial times a term of its coefficient
    (a polynomial, as :func:`split` collects it), so each point's powers
    are taken once and the table sum is never built as an ``Expr``.
    """
    solved = s.substitution
    equations = [(eq.label, eq.lhs) for eq in m.equations] + [
        (f"d{st.direction}({st.source})", st.equation) for st in s.consequence_log]
    pieces = (m.entropy_lhs, cs.residual_numerator, cs.denominator,
              *cs.nonzero, *cs.constraints, *solved.values(),
              *(e for _, e in equations), *(coeff for _, coeff in cs.table))
    found = {a for p in pieces for a in p.atoms()}
    found.update(a for mono, _ in cs.table for a, _ in mono)
    drawn = sorted(found - solved.keys(), key=lambda a: a.key)

    ev = PointEvaluator()
    values = [(k, ev.compile(v)) for k, v in solved.items()]
    nonzero = [ev.compile(nz) for nz in cs.nonzero]
    equations = [(label, ev.compile(e)) for label, e in equations]
    entropy, denominator, residual = map(
        ev.compile, (m.entropy_lhs, cs.denominator, cs.residual_numerator))
    if not all(coeff.is_polynomial() for _, coeff in cs.table):
        raise ValueError("table coefficients must be polynomials")
    table = (ev.code((mono + t, c) for mono, coeff in cs.table
                     for t, c in coeff.num.items()), ev.code(ONE.num.items()))
    layers = [_layer_rows(ev, cons, xs) for cons, xs in _repair_layers(cs)]

    failures: list[OracleFailure] = []
    id_pass = var_pass = var_skip = 0

    def fail(trial: int, kind: str, detail: str, point: dict[Atom, Q]) -> None:
        witness = {str(a): str(v) for a, v in point.items()}
        failures.append(OracleFailure(trial, kind, detail, witness))

    for trial in range(trials):
        rnd = random.Random(seed * 1000003 + trial)
        for _ in range(64):
            point = {a: _DRAWS[rnd.choice(_NUMERATORS), rnd.randint(1, 9)]
                     for a in drawn}
            ev.assign(point)
            try:
                for k, v in values:
                    point[k] = ev.value(v)
                    ev.assign({k: point[k]})
                if all(ev.value(nz) for nz in nonzero):
                    break
            except DenominatorVanishes:
                continue
        else:
            fail(trial, "point", "no admissible point in 64 draws", point)
            continue

        # The point solves the model; the table must rebuild its entropy.
        bad = [f"{label} is {v}" for label, e in equations if (v := ev.value(e))]
        lhs = ev.value(entropy) * ev.value(denominator)
        rhs = ev.value(residual) + ev.value(table)
        if lhs != rhs:
            bad.append(f"entropy numerator {lhs}, table {rhs}")
        if bad:
            fail(trial, "identity", "; ".join(bad), point)
            continue
        id_pass += 1

        if not all(_solve_layer(rows, ev, point) for rows in layers) or (
                not all(ev.value(nz) for nz in nonzero)):
            var_skip += 1
        elif (v := ev.value(table)) == 0:
            var_pass += 1
        else:
            fail(trial, "variety", f"table sum {v} != 0 on the variety", point)

    return OracleReport(trials, id_pass, var_pass, var_skip, tuple(failures))
