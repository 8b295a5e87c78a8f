"""Binding files: concrete candidate solutions for a model's unknowns.

A bindings file assigns expressions to constitutive symbols, or directly
to their partial derivatives.  Direct partial bindings exist so that
families with non-rational closed forms stay inside the rational kernel:
a logarithmic entropy cannot be written down here, but its partial
derivatives can.  Named scalar parameters are opaque constants, with an
optional rational test value.

Format, one statement per line (``#`` comments)::

    parameter gamma = 7/5
    parameter Cv
    bind p = (gamma - 1)*rho*eps
    bind deta/deps = Cv/eps
    bind q1 = 0

Each target is bound, and each parameter declared, at most once.
Checking substitutes one table of the bindings and the parameters' test
values (:class:`~entropik.algebra.KnownPartials`) into every constraint,
deriving a partial from the highest-order bound value it dominates by
slot differentiation; a constraint passes when it normalizes to zero.  When
no binding refers back to itself, substitution settles in one pass per
bound name plus one; a file that does not is circular and fails with
``E052``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ._ratio import Q
from .algebra import KnownPartials, subst_known
from .atoms import Atom, Constit, ConstitSym
from .errors import (
    ModelError,
    NonRationalBinding,
    UnboundSymbol,
    UnsettledBindings,
)
from .expr import Expr, PointEvaluator
from .model import ModelDef
from .parser import (
    CompileEnv, ParseFailure, UnknownName, compile_node, model_env, parse_expr_text,
)
from .render import expr_str
from .solve import SolvedSystem
from .split import ConstraintSystem, entropy_on_solutions

__all__ = [
    "BindingSet",
    "ConstraintCheck",
    "CheckReport",
    "parse_bindings",
    "check_candidate",
    "sampled_production",
]

_TRANSCENDENTAL = {"log", "ln", "exp", "sin", "cos", "tan", "sqrt"}


@dataclass(frozen=True)
class BindingSet:
    parameters: tuple[tuple[str, Optional[Q]], ...]
    assignments: tuple[tuple[Atom, Expr], ...]

    def values(self) -> dict[Atom, Expr]:
        """The assignments and the parameters' test values, as one map."""
        return dict(self.assignments) | {
            ConstitSym(name): Expr.rational(v)
            for name, v in self.parameters
            if v is not None
        }


@dataclass(frozen=True)
class ConstraintCheck:
    constraint: str
    value: str
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[ConstraintCheck, ...]
    residual: str                    # substituted residual, sign not judged

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _compile(node, env: CompileEnv) -> Expr:
    try:
        return compile_node(node, env)
    except UnknownName as err:
        if err.what == "function" and err.name in _TRANSCENDENTAL:
            raise NonRationalBinding(
                f"'{err.name}' is outside the rational fragment; bind the "
                f"partial derivatives you need instead of the function"
            ) from err
        raise UnboundSymbol(str(err)) from err
    except ParseFailure as err:
        raise ModelError(str(err)) from err


def parse_bindings(
    text: str, m: ModelDef, filename: str = "<bindings>"
) -> BindingSet:
    params: list[tuple[str, Optional[Q]]] = []
    assigns: list[tuple[Atom, Expr]] = []
    env = model_env(m)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "parameter":
            name, eq, valtext = rest.partition("=")
            name = name.strip()
            if not name.isidentifier():
                raise ModelError(f"{filename}:{lineno}: bad parameter name {name!r}")
            if name in dict(params):
                raise ModelError(
                    f"{filename}:{lineno}: parameter {name!r} declared twice"
                )
            value = None
            if eq:
                try:
                    value = Q(valtext.strip())
                except (ValueError, ZeroDivisionError) as err:
                    raise NonRationalBinding(
                        f"{filename}:{lineno}: parameter test values must be "
                        f"rational, got {valtext.strip()!r}"
                    ) from err
            params.append((name, value))
            env = model_env(m, env.parameters | {name})
            continue
        if head == "bind":
            target_text, eq, value_text = rest.partition("=")
            if not eq:
                raise ModelError(f"{filename}:{lineno}: bind needs '='")
            try:
                target_node = parse_expr_text(
                    target_text.strip(), filename=filename, lineno=lineno
                )
                value_node = parse_expr_text(
                    value_text.strip(), filename=filename, lineno=lineno
                )
            except ParseFailure as err:
                raise ModelError(str(err)) from err
            target = _compile(target_node, env)
            atoms = list(target.atoms())
            if (
                len(atoms) != 1
                or not isinstance(atoms[0], Constit)
                or target != Expr.atom(atoms[0])
            ):
                raise ModelError(
                    f"{filename}:{lineno}: bind target must be a constitutive "
                    f"symbol or a single partial of one"
                )
            if isinstance(atoms[0], ConstitSym) and atoms[0].name in env.parameters:
                raise ModelError(
                    f"{filename}:{lineno}: cannot bind the parameter "
                    f"'{atoms[0].name}'"
                )
            if atoms[0] in dict(assigns):
                raise ModelError(
                    f"{filename}:{lineno}: {target_text.strip()!r} bound twice"
                )
            assigns.append((atoms[0], _compile(value_node, env)))
            continue
        raise ModelError(
            f"{filename}:{lineno}: expected 'bind' or 'parameter', got {head!r}"
        )
    return BindingSet(parameters=tuple(params), assignments=tuple(assigns))


def _substituter(m: ModelDef, bs: BindingSet) -> Callable[[Expr], Expr]:
    """Substitution of the bindings to a fixed point; the calls share one
    table of known partials and the partials derived into it."""
    known = KnownPartials({d.name: d.args for d in m.decls}, bs.values().items())
    passes = len(known.values) + 1

    def bound(e: Expr) -> Expr:
        v = subst_known(e, known, passes)
        if v is None:
            raise UnsettledBindings(
                f"bindings did not settle in {passes} substitution passes; "
                f"a binding refers back to itself"
            )
        return v

    return bound


def sampled_production(
    m: ModelDef, s: SolvedSystem, bs: BindingSet, trials: int, seed: int
) -> tuple[Q, ...]:
    """Entropy-production numerator on the solutions, under the bindings,
    at random exact rational points, one value per trial; the numerator is
    compiled once into a :class:`~entropik.expr.PointEvaluator`."""
    num = _substituter(m, bs)(entropy_on_solutions(m, s).numerator_expr())
    ev = PointEvaluator()
    compiled = ev.compile(num)
    out = []
    atoms = sorted(num.atoms(), key=lambda a: a.key)
    for trial in range(trials):
        rnd = random.Random(seed * 1000003 + trial)
        ev.assign({a: Q(rnd.randint(1, 9), rnd.randint(1, 9)) for a in atoms})
        out.append(ev.value(compiled))
    return tuple(out)


def check_candidate(
    m: ModelDef, cs: ConstraintSystem, bs: BindingSet
) -> CheckReport:
    """Evaluate every constraint under the bindings; pass = exactly zero."""
    bound = _substituter(m, bs)
    rc = m.render_ctx()
    checks = []
    for c in cs.constraints:
        v = bound(c)
        checks.append(
            ConstraintCheck(
                constraint=expr_str(c, rc),
                value=expr_str(v, rc),
                passed=v.is_zero(),
            )
        )
    return CheckReport(checks=tuple(checks), residual=expr_str(bound(cs.residual), rc))
