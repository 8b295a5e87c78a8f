"""Analysis reports: a stable, serializable record of an engine run.

A report stores only strings, numbers, and containers of them, so its
JSON holds its fields as they are.  Everything except the ``timings``
block is deterministic for a fixed model and seed; the model is
identified by a fingerprint of its canonical text, which changes exactly
when the canonical model does.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Optional, Sequence

from . import __version__ as ENGINE_VERSION
from .atoms import Atom, ConstitSym
from .expr import Expr
from .liu import (
    ComparisonReport,
    LiuResult,
    args_map,
    compare,
    eliminate_multipliers,
    liu_extended,
    liu_split,
)
from .model import ModelDef
from .parser import format_model
from .render import RenderContext, atom_str, expr_str
from .solve import SolvedSystem, close_consequences, solve_leading
from .split import ConstraintSystem, entropy_on_solutions, split

SCHEMA_VERSION = "report-v1"

__all__ = [
    "SCHEMA_VERSION",
    "AnalysisReport",
    "SolutionSetRun",
    "LiuRun",
    "model_fingerprint",
    "liu_render_ctx",
    "run_solution_set",
    "run_liu",
    "run_comparison",
    "build_report",
    "comparison_to_dict",
    "tree_to_dict",
]


def model_fingerprint(m: ModelDef) -> str:
    """Content digest of the canonical model text."""
    return hashlib.sha256(format_model(m).encode()).hexdigest()


def liu_render_ctx(
    m: ModelDef, multiplier_dep: Sequence[Atom]
) -> RenderContext:
    """Render context that also labels the multiplier argument slots, so
    multiplier partials print like ``dLam_energy/drho``."""
    return RenderContext.labelled(
        m.indep_names, args_map(m, multiplier_dep).items()
    )


# -- runs -----------------------------------------------------------------


@dataclass(frozen=True)
class SolutionSetRun:
    model: ModelDef
    solved: SolvedSystem
    system: ConstraintSystem
    timings: dict[str, float]


@dataclass(frozen=True)
class LiuRun:
    model: ModelDef
    result: LiuResult
    solved_multipliers: dict[ConstitSym, Expr] = field(default_factory=dict)
    physical: tuple[Expr, ...] = ()
    unsolved: tuple[ConstitSym, ...] = ()
    timings: dict[str, float] = field(default_factory=dict)


def run_solution_set(m: ModelDef) -> SolutionSetRun:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    s = solve_leading(m)
    timings["solve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    s = close_consequences(m, s)
    timings["closure"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    e = entropy_on_solutions(m, s)
    timings["substitute"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cs = split(m, e)
    timings["split"] = time.perf_counter() - t0
    return SolutionSetRun(model=m, solved=s, system=cs, timings=timings)


def run_liu(
    m: ModelDef, multiplier_dep: Optional[Sequence[Atom]] = None
) -> LiuRun:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    e = liu_extended(m)
    lr = liu_split(e, m, multiplier_dep)
    timings["liu_split"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    solved, physical, unsolved = eliminate_multipliers(lr, m.nonzero)
    timings["eliminate"] = time.perf_counter() - t0
    return LiuRun(
        model=m,
        result=lr,
        solved_multipliers=solved,
        physical=tuple(physical),
        unsolved=tuple(unsolved),
        timings=timings,
    )


def run_comparison(
    m: ModelDef, multiplier_dep: Optional[Sequence[Atom]] = None
) -> tuple[ComparisonReport, LiuResult]:
    """Compare eliminates the multipliers itself, under the solution set's
    nonzero assumptions, so the multiplier route stops at its split."""
    lr = liu_split(liu_extended(m), m, multiplier_dep)
    return compare(lr, run_solution_set(m).system), lr


# -- serialization --------------------------------------------------------


def _solved_section(s: SolvedSystem, rc: RenderContext) -> dict[str, Any]:
    return {
        "keys": [atom_str(k, rc) for k in s.keys()],
        "pivots": [expr_str(p, rc) for p in s.pivots],
        "determinant": expr_str(s.determinant, rc),
        "consequences": [
            {
                "key": atom_str(step.key, rc),
                "source": step.source,
                "direction": step.direction,
            }
            for step in s.consequence_log
        ],
    }


def _constraints_section(cs: ConstraintSystem, rc: RenderContext) -> dict[str, Any]:
    return {
        "constraints": [expr_str(c, rc) for c in cs.constraints],
        "residual": expr_str(cs.residual, rc),
        "denominator": expr_str(cs.denominator, rc),
        "nonzero": [expr_str(e, rc) for e in cs.nonzero],
        "free_elements": [atom_str(a, rc) for a in cs.free_elements],
        "symmetrization": [expr_str(e, rc) for e in cs.symmetrization],
        "cancellations": [
            {"factor": expr_str(c.factor, rc), "times": c.times}
            for c in cs.cancellations
        ],
    }


def _liu_section(run: LiuRun) -> dict[str, Any]:
    m, lr = run.model, run.result
    rc = liu_render_ctx(m, lr.multiplier_dep)
    return {
        "multipliers": [lam.name for lam in lr.multipliers],
        "multiplier_dep": [atom_str(a, rc) for a in lr.multiplier_dep],
        "identities": [expr_str(e, rc) for e in lr.identities],
        "residual": expr_str(lr.residual, rc),
        "derived_zeros": [atom_str(a, rc) for a in lr.derived_zeros],
        "generic_assumptions": [
            atom_str(a, rc) for a in lr.generic_assumptions
        ],
        "solved_multipliers": {
            lam.name: expr_str(v, rc)
            for lam, v in sorted(
                run.solved_multipliers.items(), key=lambda kv: kv[0].name
            )
        },
        "physical": [expr_str(e, rc) for e in run.physical],
        "unsolved": [lam.name for lam in run.unsolved],
    }


@dataclass(frozen=True)
class AnalysisReport:
    schema: str
    engine_version: str
    model: dict[str, Any]   # {"name", "fingerprint"}
    method: str             # "solution-set" | "mueller-liu"
    solved: dict[str, Any]
    system: dict[str, Any]
    timings: dict[str, float]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=indent)


def build_report(run, name: str = "<model>") -> AnalysisReport:
    if isinstance(run, SolutionSetRun):
        method = "solution-set"
        rc = run.model.render_ctx()  # one context: shared atoms render once
        system = _constraints_section(run.system, rc)
        solved = _solved_section(run.solved, rc)
    elif isinstance(run, LiuRun):
        method = "mueller-liu"
        system = _liu_section(run)
        solved = {"keys": [], "pivots": [], "determinant": "1",
                  "consequences": []}
    else:  # pragma: no cover - programming error
        raise TypeError(f"cannot report on {type(run).__name__}")
    return AnalysisReport(
        schema=SCHEMA_VERSION,
        engine_version=ENGINE_VERSION,
        model={"name": name, "fingerprint": model_fingerprint(run.model)},
        method=method,
        solved=solved,
        system=system,
        timings=dict(run.timings),
    )


def comparison_to_dict(
    rep: ComparisonReport, m: ModelDef, multiplier_dep: Sequence[Atom]
) -> dict[str, Any]:
    rc = liu_render_ctx(m, multiplier_dep)
    return {
        "verdict": rep.verdict,
        "multipliers": {
            lam.name: expr_str(v, rc)
            for lam, v in sorted(
                rep.multipliers.items(), key=lambda kv: kv[0].name
            )
        },
        "common": [expr_str(e, rc) for e in rep.common],
        "liu_only": [expr_str(e, rc) for e in rep.liu_only],
        "solution_only": [expr_str(e, rc) for e in rep.solution_only],
        "unsolved_multipliers": [lam.name for lam in rep.unsolved_multipliers],
        "incomplete": rep.incomplete,
        "generic_assumptions": [
            atom_str(a, rc) for a in rep.generic_assumptions
        ],
    }


def tree_to_dict(tree, m: ModelDef) -> dict[str, Any]:
    """JSON-ready view of a case tree (assumptions, status, reduced
    systems at the leaves)."""
    rc = m.render_ctx()

    def node_dict(n) -> dict[str, Any]:
        sys_d = {
            "constraints": [expr_str(c, rc) for c in n.system.constraints],
            "zeroed": sorted(atom_str(a, rc) for a in n.system.zeroed),
            "solved": {
                atom_str(k, rc): expr_str(v, rc)
                for k, v in sorted(n.system.solved, key=lambda kv: kv[0].key)
            },
            "inconsistent": n.system.inconsistent,
        }
        d: dict[str, Any] = {
            "assumptions": [
                {"expr": expr_str(a.expr, rc), "polarity": a.polarity}
                for a in n.assumptions
            ],
            "status": n.status,
            "system": sys_d,
        }
        if n.pivot is not None:
            d["pivot"] = expr_str(n.pivot, rc)
        if n.system.inconsistent:
            d["contradiction"] = n.system.inconsistent
        if n.capped is not None:
            d["capped"] = True
        if n.children:
            d["children"] = [node_dict(c) for c in n.children]
        return d

    return {
        "root": node_dict(tree.root),
        "pivots": [expr_str(p, rc) for p in tree.pivots],
        "leaf_count": len(tree.leaves()),
    }
