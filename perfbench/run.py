#!/usr/bin/env python3
"""Outside-in benchmark of entropik.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 10 --trace 0

Workloads (see README.md): ``derive``, ``cases`` and ``verify``.  One
client, closed loop.  With ``--trace 0`` the run sets up three times, each
in a fresh process (``worker.py``) that then times batches for a third of
``--seconds`` (at least one); it prints the end-to-end metrics of
BENCHMARK.json.
With ``--trace 1`` one process times untraced batches, then traced ones,
and prints the per-layer metrics, including the tracing overhead.

Every line but the last is for people.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
whenever that line is printed; a checkout without entropik's sources, or a
worker that crashes, exits 1 without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# A run must end within 180 s; leave room to report.
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """The run cannot produce a result."""


def source_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "entropik"
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_worker(args, index: int, budget: float, timeout: float) -> dict:
    cmd = [
        sys.executable, "perfbench/worker.py",
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"set-up {index} ran past the run's {RUN_LIMIT_S:g} s") from None
    if proc.returncode != 0:
        raise RunError(
            f"set-up {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args) -> tuple[list[dict], list[str]]:
    """Worker results of the run, and failures of the run itself."""
    started = time.monotonic()
    setups = 1 if args.trace else SETUPS
    results: list[dict] = []
    problems: list[str] = []
    last = 0.0
    for i in range(setups):
        elapsed = time.monotonic() - started
        if i and elapsed + last > RUN_LIMIT_S:
            problems.append(f"set-up {i} skipped: the run would pass {RUN_LIMIT_S:g} s")
            break
        t0 = time.monotonic()
        res = run_worker(args, i, args.seconds / setups, RUN_LIMIT_S - elapsed)
        last = time.monotonic() - t0
        results.append(res)
        if any("deadline:" in f for f in res["failures"]):
            break  # an op stopped terminating; do not start another set-up
    return results, problems


def end_to_end(results: list[dict]) -> dict[str, float]:
    batches = [b for r in results for b in r["batches"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "granular2d_s": statistics.median(b["granular2d_s"] for b in batches),
        "small_models_s": statistics.median(b["small_models_s"] for b in batches),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("derive", "cases", "verify"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "entropik" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout of entropik with its src/ and "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        results, problems = collect(args)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    values = results[0]["layers"] if args.trace else end_to_end(results)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workers did not measure {missing}", file=sys.stderr)
        return 1

    stamp = dict(results[0]["stamp"], commit=git_commit(), source_sha256=source_sha256())
    attempted = sum(r["attempted"] for r in results) + len(problems)
    failures = [f for r in results for f in r["failures"]] + problems
    trials = sum(r["oracle_trials"] for r in results)
    skips = sum(r["oracle_skips"] for r in results)

    print("stamp " + json.dumps(stamp, sort_keys=True))
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}: {mode}, {len(results)} set-up(s), "
          "one client, closed loop")
    for m in wanted:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        batches = [b for r in results for b in r["batches"]]
        print(f"timed batches: {len(batches)} over {len(results)} set-ups")
        print("setup_s of each set-up: "
              + ", ".join(f"{r['setup_s']:.4g} s" for r in results))
        for label in sorted(batches[0]["ops"]):
            times = [b["ops"][label] for b in batches if label in b["ops"]]
            print(f"op {label}: {statistics.median(times):.4g} s "
                  f"(median of {len(times)})")
    print(f"fail_ratio {len(failures)}/{attempted}")
    if trials:
        print(f"variety_skip_ratio {skips}/{trials} = {skips / trials:.4f}")
    for i, r in enumerate(results):
        for n in r["notes"]:
            print(f"note (set-up {i}) {n}")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
