"""One benchmark process: set up, run the workload's batches, check them.

``run.py`` starts this script once per set-up, from the root of the
checkout.  It imports entropik from ``src/``, loads the inputs, runs one
warm-up batch (part of set-up), then timed batches until its share of the
run's seconds is used, and prints one JSON object on its last line of
standard output.

A batch runs every op of the workload once, in a fixed order (derive's
small-model ops three times, see DERIVE_SMALL_REPEATS), closed loop: the
next op starts when the previous one returned.  Each op starts from a
freshly collected heap, runs under a deadline, and has its output checked
after its timer stops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

STARTED = time.perf_counter()

MODELS = Path("src/entropik/models")
GOLDEN = Path("tests/golden")
REFERENCES = Path("perfbench/references.json")

ALL_MODELS = ("gas1d", "fluid2d", "nonsimple2d", "granular2d")
SMALL_MODELS = ALL_MODELS[:3]
VERDICTS = {
    "gas1d": "identical",
    "fluid2d": "identical",
    "nonsimple2d": "liu-over-restricts",
    "granular2d": "incomparable",
}
# verify trials per model: many on the small models, a few on granular2d.
TRIALS = {"gas1d": 50, "fluid2d": 50, "nonsimple2d": 20, "granular2d": 3}
BINDINGS = {"gas1d": "gas1d_ideal", "nonsimple2d": "nonsimple2d_family"}
# split ops of the cases workload.  `split nonsimple2d --force-residual-zero`
# is left out: its run time depends on the process's memory layout (the
# engine hashes atoms by identity, so set order varies), from about 1 s in
# some processes to 7 s in others, and no affordable number of runs gives a
# steady figure for it.
FRZ = ("--force-residual-zero",)
SPLITS = (
    ("gas1d", ()), ("gas1d", FRZ), ("fluid2d", ()), ("fluid2d", FRZ), ("nonsimple2d", ()),
)
# Runs of each small-model op in a derive batch.  Those ops take 4 to
# 110 ms, and with one run each, small_models_s spread by a quarter over ten
# runs; a batch counts the median of three.  The small-model ops of cases
# and verify are slower and steady with one run.
DERIVE_SMALL_REPEATS = 3
# No op is expected to take more than a few seconds; one that runs this long
# has stopped terminating.
OP_DEADLINE_S = 60.0

_VERIFY_RE = re.compile(
    r"identity (\d+)/(\d+)  on-variety (\d+)/(\d+)(?:  \(skipped (\d+)\))?"
)
_PRODUCTION_RE = re.compile(r"bound entropy production zero at (\d+)/(\d+) points")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class OpDeadline(BaseException):
    """Raised in the op when its deadline passes.  A BaseException, so the
    engine's own ``except Exception`` handlers cannot swallow it."""


@contextlib.contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise OpDeadline

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Ops.

@dataclass(frozen=True)
class Op:
    label: str                                  # key in references.json
    model: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]    # None when the output is right
    frozen: Optional[Callable[[object], object]] = None  # value kept as reference
    note: Optional[Callable[[object], Optional[str]]] = None  # finding, not a failure
    span: str = "cli"
    repeats: int = 1                            # runs per batch; counts their median

    @property
    def group(self) -> str:
        return "granular2d" if self.model == "granular2d" else "small"


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(args: list[str]) -> CliResult:
    """``entropik ARGS`` in this process, as the console script runs it."""
    from entropik import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="entropik", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(label, model, args, check, frozen=None, note=None) -> Op:
    def check_cli(r: CliResult) -> Optional[str]:
        if r.code != 0:
            return f"exit code {r.code}: {r.err.strip()[:200]}"
        return check(r)

    return Op(label, model, lambda: run_cli(args), check_cli, frozen, note)


def _epk(model: str) -> str:
    return str(MODELS / f"{model}.epk")


def _bind(name: str) -> str:
    return str(MODELS / f"{name}.bind")


def _expect(label: str, refs: dict, value) -> Optional[str]:
    if label not in refs:
        return f"no reference for {label!r}"
    if refs[label] != value:
        return f"output differs from the reference for {label!r}"
    return None


def derive_ops(seed: int, refs: dict) -> list[Op]:
    ops = []
    for model in ALL_MODELS:
        for method in ("solution-set", "mueller-liu"):
            golden = json.loads((GOLDEN / f"{model}.{method}.json").read_text())

            def check_report(r, golden=golden):
                payload = json.loads(r.out)
                payload.pop("timings")
                return None if payload == golden else "report digest payload != golden"

            ops.append(cli_op(
                f"analyze {model} --method {method}", model,
                ["analyze", _epk(model), "--method", method, "--output", "json"],
                check_report,
            ))

        label = f"compare {model}"

        def check_compare(r, label=label, model=model):
            d = json.loads(r.out)
            if d["verdict"] != VERDICTS[model]:
                return f"verdict {d['verdict']!r}, expected {VERDICTS[model]!r}"
            return _expect(label, refs, digest(d))

        ops.append(cli_op(
            label, model, ["compare", _epk(model), "--output", "json"],
            check_compare, lambda r: digest(json.loads(r.out)),
        ))
    return [
        replace(op, repeats=DERIVE_SMALL_REPEATS) if op.group == "small" else op
        for op in ops
    ]


def reduced_dict(rs, m) -> dict:
    """Rendered view of a ReducedSystem, for its reference digest."""
    from entropik.render import atom_str, expr_str

    rc = m.render_ctx()
    return {
        "constraints": [expr_str(c, rc) for c in rs.constraints],
        "nonzero": [expr_str(e, rc) for e in rs.nonzero],
        "zeroed": [atom_str(a, rc) for a in rs.zeroed],
        "solved": [[atom_str(k, rc), expr_str(v, rc)] for k, v in rs.solved],
        "derived_zeros": [atom_str(a, rc) for a in rs.derived_zeros],
        "certificates": [c.kind for c in rs.certificates],
        "inconsistent": rs.inconsistent,
    }


def solved_values(tree: dict, m) -> dict:
    """``tree`` with every solved value replaced by its exact values at two
    fixed rational points.

    The engine keeps rational functions without a full GCD, so one value
    can be written in several equal forms; which one a run prints depends
    on set iteration order, hence on PYTHONHASHSEED.  Values at points do
    not depend on the form."""
    from fractions import Fraction

    from entropik.errors import DenominatorVanishes
    from entropik.expr import eval_numeric
    from entropik.parser import CompileEnv, compile_node, parse_expr_text

    env = CompileEnv(
        indep=m.indep, fields=m.fields, decls={d.name: d for d in m.decls},
        extended=True,
    )

    def at_points(text: str) -> list[str]:
        e = compile_node(parse_expr_text(text, filename="<tree>", lineno=1), env)
        out = []
        for k in range(2):
            point = {}
            for a in e.atoms():
                rnd = random.Random(f"{a.key!r}/{k}")
                point[a] = Fraction(rnd.randint(-97, 97) or 1, rnd.randint(1, 97))
            try:
                out.append(str(eval_numeric(e, point)))
            except DenominatorVanishes:
                out.append("undefined")
        return out

    def node(n: dict) -> dict:
        n = dict(n)
        n["system"] = dict(n["system"])
        n["system"]["solved"] = {
            k: at_points(v) for k, v in n["system"]["solved"].items()
        }
        if "children" in n:
            n["children"] = [node(c) for c in n["children"]]
        return n

    return dict(tree, root=node(tree["root"]))


def _load(model: str):
    from entropik.parser import parse_model

    text = Path(_epk(model)).read_text()
    return parse_model(text, filename=f"{model}.epk").raise_on_error()


def cases_ops(seed: int, refs: dict) -> list[Op]:
    from entropik import cases
    from entropik.report import run_solution_set

    ops = []
    models = {model: _load(model) for model in SMALL_MODELS}
    for model, extra in SPLITS:
        m = models[model]
        label = " ".join(("split", model, *extra))

        def frozen(r, m=m):
            tree = json.loads(r.out)
            return {"text": digest(tree), "values": digest(solved_values(tree, m))}

        def check_tree(r, label=label, m=m):
            tree = json.loads(r.out)
            if label not in refs:
                return f"no reference for {label!r}"
            if digest(tree) == refs[label]["text"]:
                return None
            if digest(solved_values(tree, m)) != refs[label]["values"]:
                return f"case tree differs from the reference for {label!r}"
            return None

        def written_differently(r, label=label):
            if digest(json.loads(r.out)) != refs.get(label, {}).get("text"):
                return "solved values equal the reference but are written differently"
            return None

        ops.append(cli_op(
            label, model,
            ["split", _epk(model), "--output", "json", "--depth", "3", *extra],
            check_tree, frozen, written_differently,
        ))

    # `split granular2d` does not finish; its root reduction stands in.
    m = _load("granular2d")
    cs = run_solution_set(m).system
    label = "apply_assumptions granular2d root"
    ops.append(Op(
        label, "granular2d",
        lambda: cases.apply_assumptions(cs, ()),
        lambda rs: _expect(label, refs, digest(reduced_dict(rs, m))),
        lambda rs: digest(reduced_dict(rs, m)),
        span="op",
    ))
    return ops


def verify_ops(seed: int, refs: dict) -> list[Op]:
    ops = []

    def verify_check(trials, with_bindings):
        def check(r: CliResult) -> Optional[str]:
            got = _VERIFY_RE.search(r.out)
            if got is None:
                return "no verify summary line"
            ident, n1, var, n2, skips = got.groups()
            if not int(ident) == int(n1) == int(n2) == trials:
                return f"identity passes {ident}/{n1} of {trials} trials"
            if int(var) + int(skips or 0) != trials:
                return "on-variety passes and skips do not add up to the trials"
            if r.err:
                return f"trial failures reported: {r.err.strip()[:200]}"
            if with_bindings:
                zeros = _PRODUCTION_RE.search(r.out)
                if zeros is None or int(zeros.group(1)) != trials:
                    return "bound entropy production is not zero at every point"
            return None

        return check

    for model in ALL_MODELS:
        n = TRIALS[model]
        ops.append(cli_op(
            f"verify {model}", model,
            ["verify", _epk(model), "--seed", str(seed), "--trials", str(n)],
            verify_check(n, False),
        ))
    for model, bind in BINDINGS.items():
        n = TRIALS[model]
        ops.append(cli_op(
            f"verify {model} --bindings {bind}", model,
            ["verify", _epk(model), "--seed", str(seed), "--trials", str(n),
             "--bindings", _bind(bind)],
            verify_check(n, True),
        ))
        label = f"check {model} {bind}"

        def check_candidate(r, label=label):
            if not r.out.splitlines()[-1].startswith("candidate passes all"):
                return "candidate does not pass every constraint"
            return _expect(label, refs, digest(r.out))

        ops.append(cli_op(
            label, model, ["check", _epk(model), _bind(bind)],
            check_candidate, lambda r: digest(r.out),
        ))
    return ops


WORKLOADS = {"derive": derive_ops, "cases": cases_ops, "verify": verify_ops}


def oracle_counts(r) -> tuple[int, int]:
    """(trials, skipped) of a verify op's output."""
    got = _VERIFY_RE.search(r.out) if isinstance(r, CliResult) else None
    if got is None:
        return 0, 0
    return int(got.group(2)), int(got.group(5) or 0)


# ---------------------------------------------------------------------------
# Batches.

class Runner:
    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: set[str] = set()
        self.stopped = False      # set once an op passed its deadline
        self.trials = 0
        self.skips = 0

    def batch(self, tracer=None) -> dict:
        """Run every op; per-group seconds of this batch, each op counted
        at the median of its runs."""
        times = {"granular2d": 0.0, "small": 0.0}
        per_op = {}
        if tracer is not None:
            tracer.open()
        try:
            for op in self.ops:
                runs = []
                for _ in range(op.repeats):
                    runs.append(self._one(op, tracer))
                    if self.stopped:
                        break
                per_op[op.label] = statistics.median(runs)
                times[op.group] += per_op[op.label]
                if self.stopped:
                    break
        finally:
            if tracer is not None:
                tracer.close()
        return {
            "wall_s": times["granular2d"] + times["small"],
            "granular2d_s": times["granular2d"],
            "small_models_s": times["small"],
            "ops": per_op,
        }

    def _one(self, op: Op, tracer) -> float:
        self.attempted += 1
        error = None
        floats = 0
        # Each CLI command normally runs in a fresh process; start every op
        # from an empty collector rather than from the previous op's garbage.
        gc.collect()
        if tracer is not None:
            tracer.set_group(op.group)
            floats = tracer.float_coeffs
            span = tracer.begin(op.span)
        t0 = time.perf_counter()
        try:
            with deadline(OP_DEADLINE_S):
                result = op.run()
        except OpDeadline:
            error = f"deadline: ran past {OP_DEADLINE_S:g} s"
            self.stopped = True
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            if error is None and tracer.float_coeffs != floats:
                error = "a returned Expr has a float coefficient"
        if error is None:
            error = op.check(result)
            note = op.note(result) if op.note and error is None else None
            if note:
                self.notes.add(f"{op.label}: {note}")
            trials, skips = oracle_counts(result)
            self.trials += trials
            self.skips += skips
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return elapsed


def layer_metrics(tracer, batch: dict) -> dict[str, float]:
    """Per-layer numbers of one traced batch."""
    inc = tracer.inclusive()
    own = tracer.self_times()
    sizes = tracer.sizes
    count = tracer.count
    granular_trials = sizes["oracle_trials.granular2d"]
    oracle_granular = tracer.inclusive("granular2d")["split.numeric_oracle"]
    trials = granular_trials + sizes["oracle_trials.small"]
    divexact = count("poly_divexact")
    return {
        "parser.parse_model_s": inc["parser.parse_model"],
        "solve.solve_leading_s": inc["solve.solve_leading"],
        "solve.close_consequences_s": inc["solve.close_consequences"],
        "solve.rhs_terms_max": sizes["solve.rhs_terms_max"],
        "split.entropy_on_solutions_s": inc["split.entropy_on_solutions"],
        "split.split_s": inc["split.split"],
        "split.entropy_terms": sizes["split.entropy_terms"],
        "split.constraints": sizes["split.constraints"],
        "split.free_elements": sizes["split.free_elements"],
        "split.numeric_oracle_s": inc["split.numeric_oracle"],
        "split.numeric_oracle_s_per_trial": (
            oracle_granular / granular_trials if granular_trials else 0.0
        ),
        "split.numeric_oracle_variety_passes": sizes["split.numeric_oracle_variety_passes"],
        "split.numeric_oracle_variety_skips": sizes["split.numeric_oracle_variety_skips"],
        "split.numeric_oracle_variety_skip_ratio": (
            sizes["split.numeric_oracle_variety_skips"] / trials if trials else 0.0
        ),
        "liu.liu_split_s": inc["liu.liu_extended"] + inc["liu.liu_split"],
        "liu.eliminate_multipliers_s": inc["liu.eliminate_multipliers"],
        "liu.compare_s": inc["liu.compare"],
        "cases.apply_assumptions_s": inc["cases.apply_assumptions"],
        "cases.build_tree_s": inc["cases.build_tree"],
        "cases.nodes": sizes["cases.nodes"],
        "cases.leaves": sizes["cases.leaves"],
        "cases.pivot_candidates": sizes["cases.pivot_candidates"],
        "bindings.check_candidate_s": inc["bindings.check_candidate"],
        "bindings.sampled_production_s": inc["bindings.sampled_production"],
        "report.build_report_s": inc["report.build_report"] + inc["report.to_json"],
        "report.tree_to_dict_s": inc["report.tree_to_dict"],
        "report.comparison_to_dict_s": inc["report.comparison_to_dict"],
        "cli.self_s": own["cli"],
        "expr.p_mul_calls": count("p_mul"),
        "expr.p_add_calls": count("p_add"),
        "expr.poly_divexact_calls": divexact,
        "expr.poly_divexact_failures": count("poly_divexact_failures"),
        "expr.poly_divexact_useful_ratio": (
            1 - count("poly_divexact_failures") / divexact if divexact else 0.0
        ),
        "expr.granular2d_p_mul_calls": count("p_mul", "granular2d"),
        "expr.granular2d_poly_divexact_calls": count("poly_divexact", "granular2d"),
        "expr.granular2d_poly_divexact_failures": count(
            "poly_divexact_failures", "granular2d"
        ),
        "expr.eval_numeric_calls": count("eval_numeric"),
        "expr.substitute_calls": count("substitute"),
        "trace.inspect_s": inc["trace.inspect"],
        "trace.wall_s": batch["wall_s"],
    }


def timed_batches(runner: Runner, budget: float, tracer_factory=None) -> list:
    """Batches until ``budget`` seconds of op time are spent (none for a
    zero budget).  Each item is (batch seconds, tracer or None)."""
    done = []
    spent = 0.0
    while spent < budget and not runner.stopped:
        tracer = tracer_factory() if tracer_factory else None
        b = runner.batch(tracer)
        done.append((b, tracer))
        spent += b["wall_s"]
    return done


def stamp(seed: int) -> dict:
    import platform

    import entropik

    return {
        "backend": entropik.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds of timed batches after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, "src")
    from spans import Tracer

    import entropik.cli  # noqa: F401  (set-up includes importing the CLI)
    from entropik.atoms import Atom

    refs = json.loads(REFERENCES.read_text()).get(args.workload, {})
    ops = WORKLOADS[args.workload](args.seed, refs)
    runner = Runner(ops)
    warm_tracer = Tracer(kernel=False)
    warm = runner.batch(warm_tracer)  # also checks for floats
    setup_s = time.perf_counter() - STARTED

    # Timed batches are missing only when an op ran past its deadline (or
    # for a zero budget); such a run reports the warm-up batch instead.
    fallback = [(warm, warm_tracer)]
    result = {"setup_s": setup_s, "stamp": stamp(args.seed)}
    if args.trace:
        plain = timed_batches(runner, args.budget / 2) or fallback
        traced = timed_batches(runner, args.budget / 2, Tracer) or fallback
        per_batch = [layer_metrics(t, b) for b, t in traced]
        # median_low: a value one batch measured, so counts stay whole.
        layers = {k: statistics.median_low(d[k] for d in per_batch) for k in per_batch[0]}
        untraced = statistics.median(b["wall_s"] for b, _ in plain)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / untraced
        layers["atoms.interned"] = len(Atom._interned)
        from kernel import measure

        runner.attempted += 1
        kernel_us, kernel_bad = measure(args.seed)
        layers.update(kernel_us)
        if kernel_bad:
            runner.failures.append(
                f"kernel self-check: {kernel_bad[0]} ({len(kernel_bad)} in all)"
            )
        result["layers"] = layers
    else:
        timed = timed_batches(runner, args.budget)
        if runner.stopped and not timed:
            timed = fallback
        result["batches"] = [b for b, _ in timed]
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        notes=sorted(runner.notes),
        oracle_trials=runner.trials,
        oracle_skips=runner.skips,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
