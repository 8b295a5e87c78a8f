"""Command-line interface.

Five subcommands over a model file: ``analyze`` (constraint extraction by
either method), ``compare`` (solution-set vs. multiplier identities),
``split`` (case analysis over undetermined coefficients), ``verify``
(randomized exact-arithmetic point checks), ``check`` (a concrete
candidate family against the constraints).

Exit status: 0 success, 1 diagnostics (parse errors, failed checks),
2 engine errors (reported with their stable error code).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import sys
from typing import Optional

import click

from . import __version__
from .atoms import Atom
from .bindings import (
    check_candidate,
    parse_bindings,
    sampled_production,
)
from .cases import (
    Assumption,
    build_tree,
    force_residual,
)
from .errors import EngineError
from .latex import relations_document
from .model import ModelDef
from .parser import ParseFailure, compile_node, model_env, parse_expr_text, parse_model
from .render import atom_str
from .report import (
    build_report,
    comparison_to_dict,
    liu_render_ctx,
    run_comparison,
    run_liu,
    run_solution_set,
    tree_to_dict,
)
from .split import numeric_oracle


def _fail_diag(message: str) -> "NoReturn":  # noqa: F821
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _read(path: str) -> str:
    """The text of an input file; an unreadable one is a diagnostic."""
    try:
        return pathlib.Path(path).read_text()
    except OSError as err:
        _fail_diag(str(err))


def _load_model(path: str, max_order: Optional[int]) -> ModelDef:
    pr = parse_model(_read(path), filename=path)
    for d in pr.diagnostics:
        click.echo(str(d), err=True)
    if not pr.ok:
        sys.exit(1)
    m = pr.model
    if max_order is not None:
        m = dataclasses.replace(m, max_order=max_order)
    return m


def _resolve_dep(m: ModelDef, spec: str) -> tuple[Atom, ...]:
    """Comma-separated dependency labels -> declared dependency atoms."""
    rc = m.render_ctx()
    by_label = {atom_str(a, rc): a for a in m.dependency_atoms()}
    out = []
    for label in (s.strip() for s in spec.split(",")):
        if not label:
            continue
        if label not in by_label:
            known = ", ".join(sorted(by_label))
            raise click.UsageError(
                f"unknown dependency {label!r}; model dependencies: {known}"
            )
        if by_label[label] in out:
            raise click.UsageError(f"dependency {label!r} is given twice")
        out.append(by_label[label])
    return tuple(out)


def _parse_assume(m: ModelDef, text: str, index: int) -> Assumption:
    """An assumption flag like ``dPhi1/deps = 0`` or ``deta/deps != 0``."""
    if "!=" in text:
        lhs, _, rhs = text.partition("!=")
        polarity = "nonzero"
    elif "=" in text:
        lhs, _, rhs = text.partition("=")
        polarity = "zero"
    else:
        lhs, rhs, polarity = text, "0", "nonzero"
    if rhs.strip() not in ("0", ""):
        raise click.UsageError(
            f"assumption {text!r}: right-hand side must be 0"
        )
    try:
        node = parse_expr_text(
            lhs.strip(), filename=f"<assume:{index}>", lineno=1
        )
        e = compile_node(node, model_env(m))
    except ParseFailure as err:
        _fail_diag(str(err.diag))
    if e.is_zero():
        raise click.UsageError(f"assumption {text!r} is identically zero")
    return Assumption.zero(e) if polarity == "zero" else Assumption.nonzero(e)


def _engine_errors(f):
    @functools.wraps(f)
    def wrapped(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except EngineError as err:
            click.echo(f"error[{err.code}]: {err}", err=True)
            sys.exit(2)

    return wrapped


@click.group()
@click.version_option(version=__version__, prog_name="entropik")
def main() -> None:
    """Entropy-principle analysis of constitutive models."""


_model_arg = click.argument("model_file", type=click.Path())
_max_order_opt = click.option(
    "--max-order", type=click.IntRange(min=0), default=None,
    help="Override the model's derivative-order cap.",
)
_dep_opt = click.option(
    "--multiplier-dep", default=None, metavar="ARGS",
    help="Comma-separated dependency labels for the multipliers "
    "(default: the entropy density's declared arguments).",
)


def _output_opt(*formats):
    return click.option(
        "--output", type=click.Choice(formats), default="text", show_default=True
    )


@main.command()
@_model_arg
@click.option(
    "--method", type=click.Choice(["solution-set", "mueller-liu"]),
    default="solution-set", show_default=True,
)
@_output_opt("text", "json", "latex")
@_max_order_opt
@_dep_opt
@_engine_errors
def analyze(model_file, method, output, max_order, multiplier_dep):
    """Extract constraint identities and the residual inequality."""
    m = _load_model(model_file, max_order)
    name = pathlib.Path(model_file).stem
    dep = _resolve_dep(m, multiplier_dep) if multiplier_dep else None
    if method == "solution-set":
        run = run_solution_set(m)
    else:
        run = run_liu(m, dep)

    if output == "latex":
        if method == "solution-set":
            rc = m.render_ctx()
            doc = relations_document(
                f"Constraint relations: {name}",
                run.system.constraints,
                run.system.residual,
                rc,
                run.system.nonzero,
            )
        else:
            rc = liu_render_ctx(m, run.result.multiplier_dep)
            doc = relations_document(
                f"Multiplier identities: {name}",
                run.result.identities,
                run.result.residual,
                rc,
                m.nonzero,
            )
        click.echo(doc, nl=False)
        return
    rep = build_report(run, name=name)
    if output == "json":
        click.echo(rep.to_json())
        return

    click.echo(f"model {name}  fingerprint {rep.model['fingerprint'][:16]}")
    click.echo(f"method {method}")
    if method == "solution-set":
        if rep.solved["consequences"]:
            keys = ", ".join(c["key"] for c in rep.solved["consequences"])
            click.echo(f"closure consequences: {keys}")
        click.echo(f"constraints ({len(run.system.constraints)}):")
        for c in rep.system["constraints"]:
            click.echo(f"  {c} = 0")
        click.echo(f"residual: {rep.system['residual']} >= 0")
        if rep.system["nonzero"]:
            click.echo("nonzero: " + ", ".join(rep.system["nonzero"]))
        if rep.system["symmetrization"]:
            click.echo(
                f"symmetrization constraints: "
                f"{len(rep.system['symmetrization'])}"
            )
    else:
        click.echo(f"multipliers: " + ", ".join(rep.system["multipliers"]))
        for lam, v in rep.system["solved_multipliers"].items():
            click.echo(f"  {lam} = {v}")
        click.echo(f"identities ({len(rep.system['identities'])}):")
        for c in rep.system["identities"]:
            click.echo(f"  {c} = 0")
        click.echo(f"residual: {rep.system['residual']} >= 0")
        if rep.system["generic_assumptions"]:
            click.echo(
                "generic assumptions: "
                + ", ".join(
                    f"{a} != 0" for a in rep.system["generic_assumptions"]
                )
            )
    click.echo(
        "timings: "
        + "  ".join(f"{k} {v * 1e3:.1f}ms" for k, v in rep.timings.items())
    )


@main.command("compare")
@_model_arg
@_output_opt("text", "json")
@_max_order_opt
@_dep_opt
@_engine_errors
def compare_cmd(model_file, output, max_order, multiplier_dep):
    """Compare multiplier identities against the solution-set constraints."""
    m = _load_model(model_file, max_order)
    dep = _resolve_dep(m, multiplier_dep) if multiplier_dep else None
    rep, lr = run_comparison(m, dep)
    d = comparison_to_dict(rep, m, lr.multiplier_dep)
    if output == "json":
        click.echo(json.dumps(d, sort_keys=True, indent=2))
        return
    click.echo(f"verdict: {d['verdict']}")
    click.echo("multipliers:")
    for lam, v in d["multipliers"].items():
        click.echo(f"  {lam} = {v}")
    if d["unsolved_multipliers"]:
        click.echo("unsolved: " + ", ".join(d["unsolved_multipliers"]))
    click.echo(f"common identities: {len(d['common'])}")
    for c in d["liu_only"]:
        click.echo(f"  multiplier-only: {c} = 0")
    for c in d["solution_only"]:
        click.echo(f"  solution-set-only: {c} = 0")
    if d["generic_assumptions"]:
        click.echo(
            "generic assumptions: "
            + ", ".join(f"{a} != 0" for a in d["generic_assumptions"])
        )



def _tree_text(node: dict, depth: int = 0) -> list[str]:
    """Text lines of one node of ``tree_to_dict`` and its subtree."""
    pad = "  " * depth
    sys_d = node["system"]
    if node["assumptions"]:
        a = node["assumptions"][-1]
        rel = "= 0" if a["polarity"] == "zero" else "!= 0"
        head = f"{pad}case {a['expr']} {rel}:"
    else:
        head = f"{pad}root:"
    status = node["status"]
    if sys_d["inconsistent"]:
        status = f"closed ({sys_d['inconsistent']})"
    lines = [f"{head} [{status}]"]
    if node["status"] == "leaf" or "children" not in node:
        lines += [f"{pad}  {c} = 0" for c in sys_d["constraints"]]
        lines += [f"{pad}  {z} = 0  (derived)" for z in sys_d["zeroed"]]
        lines += [f"{pad}  {k} = {v}" for k, v in sys_d["solved"].items()]
        if node.get("capped"):
            lines.append(f"{pad}  ... depth cap reached")
    for child in node.get("children", ()):
        lines.extend(_tree_text(child, depth + 1))
    return lines


@main.command()
@_model_arg
@click.option(
    "--assume", "assumes", multiple=True, metavar="EXPR(=|!=)0",
    help="Case assumption, e.g. \"dPhi1/deps = 0\"; repeatable.",
)
@click.option("--force-residual-zero", is_flag=True,
              help="Treat the residual as a constraint (no production).")
@click.option("--depth", type=click.IntRange(min=1), default=3,
              show_default=True)
@_output_opt("text", "json")
@_max_order_opt
@_engine_errors
def split(model_file, assumes, force_residual_zero, depth, output, max_order):
    """Case analysis: branch on undetermined coefficient factors."""
    m = _load_model(model_file, max_order)
    run = run_solution_set(m)
    cs = run.system
    if force_residual_zero:
        cs = force_residual(cs)
    assumptions = tuple(
        _parse_assume(m, text, i) for i, text in enumerate(assumes)
    )
    tree = build_tree(cs, depth=depth, assumptions=assumptions)
    d = tree_to_dict(tree, m)
    if output == "json":
        click.echo(json.dumps(d, sort_keys=True, indent=2))
        return
    for line in _tree_text(d["root"]):
        click.echo(line)
    closed = sum(1 for n in tree.root.walk() if n.system.inconsistent)
    click.echo(
        f"{d['leaf_count']} leaves"
        + (f", {closed} closed" if closed else "")
        + (", capped" if tree.capped() else "")
    )


@main.command()
@_model_arg
@click.option("--trials", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bindings", "bindings_file", type=click.Path(), default=None,
              help="Also sample entropy production under these bindings.")
@_max_order_opt
@_engine_errors
def verify(model_file, trials, seed, bindings_file, max_order):
    """Randomized exact-rational point checks on the model's solutions."""
    m = _load_model(model_file, max_order)
    bind_text = None if bindings_file is None else _read(bindings_file)
    run = run_solution_set(m)
    rep = numeric_oracle(m, run.solved, run.system, trials=trials, seed=seed)
    click.echo(
        f"identity {rep.identity_passes}/{trials}  "
        f"on-variety {rep.variety_passes}/{trials}"
        + (f"  (skipped {rep.variety_skips})" if rep.variety_skips else "")
    )
    for f in rep.failures[:5]:
        click.echo(f"trial {f.trial} {f.kind}: {f.detail}", err=True)
        click.echo(f"  witness: {json.dumps(f.witness, sort_keys=True)}",
                   err=True)
    if bind_text is not None:
        bs = parse_bindings(bind_text, m, filename=bindings_file)
        values = sampled_production(m, run.solved, bs, trials, seed)
        zeros = sum(1 for v in values if v == 0)
        click.echo(f"bound entropy production zero at {zeros}/{trials} points")
    if not rep.ok:
        sys.exit(1)
    if not rep.variety_passes:
        _fail_diag("no trial reached the constraint variety")


@main.command()
@_model_arg
@click.argument("bindings_file", type=click.Path())
@_max_order_opt
@_engine_errors
def check(model_file, bindings_file, max_order):
    """Check a concrete candidate family against every constraint."""
    m = _load_model(model_file, max_order)
    run = run_solution_set(m)
    bs = parse_bindings(_read(bindings_file), m, filename=bindings_file)
    rep = check_candidate(m, run.system, bs)
    for c in rep.checks:
        mark = "ok  " if c.passed else "FAIL"
        line = f"{mark} {c.constraint} = 0"
        if not c.passed:
            line += f"   -> {c.value}"
        click.echo(line)
    click.echo(f"residual under bindings: {rep.residual}")
    if rep.ok:
        click.echo(f"candidate passes all {len(rep.checks)} constraints")
    else:
        bad = sum(1 for c in rep.checks if not c.passed)
        click.echo(f"candidate fails {bad} of {len(rep.checks)} constraints")
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
