"""Solved form of a model on its solution manifold.

``solve_leading`` rewrites the chain-expanded equations as an explicit
substitution map for the chosen leading derivatives, using fraction-free
(Bareiss-style) Gaussian elimination over the polynomial ring to control
expression swell; divisions happen only at the very end and every
nonconstant divisor is recorded as a pivot.

``close_consequences`` extends the map with the differential consequences
the entropy lhs needs: whenever substitution leaves a jet variable
that dominates a leading derivative, the already-solved equation for that
leading derivative is differentiated in the missing direction and solved
for the new key (coefficient one, no new pivots).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import pivot_factors, settle
from .atoms import JetVar, mi_total
from .errors import (
    NonlinearInLeading,
    OrderCapExceeded,
    SingularConsequence,
    SingularSystem,
)
from .expr import (
    Expr,
    ONE,
    collect_coefficients,
    mono_key,
    poly_divexact,
    total_derivative,
)
from .model import ModelDef

__all__ = [
    "SolvedSystem",
    "ConsequenceStep",
    "solve_leading",
    "close_consequences",
    "expr_sort_key",
]


def expr_sort_key(e: Expr):
    """Deterministic sort key for canonical expressions."""
    return (
        tuple(sorted((mono_key(m), c) for m, c in e.num.items())),
        tuple(sorted((mono_key(m), c) for m, c in e.den.items())),
    )


@dataclass(frozen=True)
class ConsequenceStep:
    """One closure step: ``key`` was produced by differentiating the solved
    equation for ``source`` (an equation label for a leading derivative, or
    a previously added key) along ``direction``."""

    key: JetVar
    source: str
    direction: str
    equation: Expr  # the differentiated equation, pre-substitution (= 0)


@dataclass(frozen=True)
class SolvedSystem:
    substitution: dict[JetVar, Expr]
    pivots: tuple[Expr, ...]
    consequence_log: tuple[ConsequenceStep, ...] = ()
    determinant: Expr = ONE

    def keys(self) -> tuple[JetVar, ...]:
        return tuple(self.substitution)


def _divexact(a: Expr, b: Expr) -> Expr:
    return Expr.poly(poly_divexact(a.num, b.num))


def solve_leading(m: ModelDef) -> SolvedSystem:
    """Exact linear solve of the expanded equations for the leading
    derivatives; raises NonlinearInLeading / SingularSystem."""
    leading = list(m.leading)
    lead_set = set(leading)
    n = len(leading)
    pivot_exprs: list[Expr] = []

    # Row i: sum_j A[i][j] * leading_j + b[i] = 0, over cleared numerators.
    matrix: list[list[Expr]] = []
    for eq in m.equations:
        lhs = eq.lhs
        if not lhs.is_polynomial():
            # Clearing the denominator preserves the equation where the
            # denominator does not vanish; record it.
            pivot_exprs.extend(pivot_factors(lhs.denominator_expr()))
        coeffs = collect_coefficients(lhs.numerator_expr(), lead_set)
        row = [Expr.rational(0)] * (n + 1)
        for mono, coeff in coeffs.items():
            if not mono:
                row[n] = row[n] - coeff
                continue
            if len(mono) > 1 or mono[0][1] > 1:
                raise NonlinearInLeading(
                    f"equation {eq.label} is not linear in the leading derivatives"
                )
            atom = mono[0][0]
            row[leading.index(atom)] = coeff
        matrix.append(row)

    # Bareiss fraction-free elimination.
    prev = ONE
    diag: list[Expr] = []
    for k in range(n):
        pivot_row = None
        for r in range(k, len(matrix)):
            if not matrix[r][k].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise SingularSystem(
                "equations are structurally rank-deficient in the leading "
                f"derivatives (no pivot for {m.leading[k]})"
            )
        if pivot_row != k:
            matrix[k], matrix[pivot_row] = matrix[pivot_row], matrix[k]
        pk = matrix[k][k]
        diag.append(pk)
        for i in range(k + 1, len(matrix)):
            for j in range(k + 1, n + 1):
                num = pk * matrix[i][j] - matrix[i][k] * matrix[k][j]
                matrix[i][j] = _divexact(num, prev) if prev != ONE else num
            matrix[i][k] = Expr.rational(0)
        prev = pk

    # Back substitution (the only true divisions).
    solution: dict[JetVar, Expr] = {}
    for i in range(n - 1, -1, -1):
        acc = matrix[i][n]
        for j in range(i + 1, n):
            acc = acc - matrix[i][j] * solution[leading[j]]
        solution[leading[i]] = acc / matrix[i][i]
    solution = {ld: solution[ld] for ld in leading}

    for d in diag:
        pivot_exprs.extend(pivot_factors(d))
    pivots = {e for e in pivot_exprs if not e.is_rational()}

    return SolvedSystem(
        substitution=solution,
        pivots=tuple(sorted(pivots, key=expr_sort_key)),
        determinant=diag[-1] if diag else ONE,
    )


def close_consequences(m: ModelDef, s: SolvedSystem) -> SolvedSystem:
    """Fixed-point closure of ``s`` with respect to the entropy lhs.

    Adds keys for every jet variable dominated by a leading derivative
    that substitution leaves behind in ``m.entropy_lhs`` or in any
    right-hand side, then reduces all right-hand sides to a triangular
    form.
    """
    ctx = m.diff_ctx()
    pairs: dict[JetVar, Expr] = dict(s.substitution)
    log: list[ConsequenceStep] = list(s.consequence_log)
    # Source equation label for each key (leading keys come from their
    # equation by position).
    source: dict[JetVar, str] = {}
    for ld, eq in zip(m.leading, m.equations):
        source[ld] = eq.label
    for step in log:
        source[step.key] = step.source

    def ensure(a: JetVar) -> None:
        if a in pairs:
            return
        if mi_total(a.orders) > m.max_order:
            raise OrderCapExceeded(
                f"consequence closure needs derivative order {mi_total(a.orders)} "
                f"(> max_order {m.max_order})"
            )
        ld = m.dominated_leading(a)
        if ld is None:
            raise SingularConsequence(f"no leading derivative dominates {a}")
        # Step back one direction towards the dominated leading derivative.
        d = next(
            i for i in range(len(a.orders)) if a.orders[i] > ld.orders[i]
        )
        pred = JetVar(a.field, tuple(
            o - 1 if i == d else o for i, o in enumerate(a.orders)
        ))
        ensure(pred)
        iv = m.indep[d]
        rhs = total_derivative(pairs[pred], iv, ctx)
        pairs[a] = rhs
        src = source.get(pred)
        label = src if src is not None else str(pred)
        source[a] = label
        cons_eq = Expr.atom(a) - rhs  # holds on solutions by construction
        log.append(
            ConsequenceStep(key=a, source=label, direction=iv.name, equation=cons_eq)
        )

    # Fixed point: collect missing consequence atoms, add keys, repeat.
    while True:
        missing: set[JetVar] = set()
        scan = [m.entropy_lhs] + list(pairs.values())
        for e in scan:
            for a in e.atoms():
                if (
                    isinstance(a, JetVar)
                    and a not in pairs
                    and m.is_consequence(a)
                ):
                    missing.add(a)
        if not missing:
            break
        for a in sorted(missing, key=lambda j: j.key):
            ensure(a)

    # Reduce right-hand sides until no key remains in any of them.
    if not settle(pairs, len(pairs) + 2):
        raise SingularConsequence(
            "consequence substitution did not reach a fixed point"
        )

    return replace(s, substitution=pairs, consequence_log=tuple(log))
