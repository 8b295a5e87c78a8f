"""Frozen oracle reports.

``golden/oracle_reports.json`` holds ``dataclasses.asdict`` of
:func:`numeric_oracle` for each case of :func:`oracle_cases`, written by
the oracle before its point evaluation moved to integers: the four models
at the verify benchmark's trial counts at seed 1, granular2d with 20
trials at seed 7, and three tampered gas1d systems whose failures carry
their kinds, details and witness points.  Any faster evaluation must
report every pass, skip, failure detail and witness the same.

Rewrite the file (only when a change to the oracle's outputs is meant)
with ``PYTHONPATH=src:tests python tests/test_oracle_reports.py``.
"""

import dataclasses
import json
import pathlib

import pytest

from entropik.algebra import normalize_constraint
from entropik.atoms import JetVar
from entropik.split import numeric_oracle

from conftest import load_model, solution_run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "oracle_reports.json"
# the verify benchmark's trials per model, at seed 1
VERIFY_TRIALS = {"gas1d": 50, "fluid2d": 50, "nonsimple2d": 20, "granular2d": 3}


def _gas_tampered(solved=None, **system_changes):
    run = solution_run("gas1d")
    return (load_model("gas1d"), solved or run.solved,
            dataclasses.replace(run.system, **system_changes), 20, 7)


def _flipped_coefficient():
    cs = solution_run("gas1d").system
    mono, coeff = cs.table[0]
    return _gas_tampered(table=((mono, -coeff), *cs.table[1:]))


def _dropped_row_and_constraint():
    cs = solution_run("gas1d").system
    con, _ = normalize_constraint(cs.table[0][1], cs.nonzero)
    kept = tuple(c for c in cs.constraints if c != con)
    return _gas_tampered(table=cs.table[1:], constraints=kept)


def _dropped_solved_entry():
    s = solution_run("gas1d").solved
    rho_t = JetVar("rho", (1, 0))
    dropped = {k: v for k, v in s.substitution.items() if k != rho_t}
    return _gas_tampered(solved=dataclasses.replace(s, substitution=dropped))


def _honest(name, trials, seed):
    run = solution_run(name)
    return load_model(name), run.solved, run.system, trials, seed


def oracle_cases():
    """Case name -> a thunk giving ``(m, solved, system, trials, seed)``."""
    cases = {
        f"{name}.seed1": (lambda name=name, n=n: _honest(name, n, 1))
        for name, n in VERIFY_TRIALS.items()
    }
    cases["granular2d.seed7.trials20"] = lambda: _honest("granular2d", 20, 7)
    cases["gas1d.flipped_coefficient"] = _flipped_coefficient
    cases["gas1d.dropped_row_and_constraint"] = _dropped_row_and_constraint
    cases["gas1d.dropped_solved_entry"] = _dropped_solved_entry
    return cases


def report_dict(case) -> dict:
    m, solved, cs, trials, seed = case()
    rep = numeric_oracle(m, solved, cs, trials=trials, seed=seed)
    # through JSON, so tuples compare as the lists the file holds
    return json.loads(json.dumps(dataclasses.asdict(rep)))


CASES = oracle_cases()


@pytest.mark.parametrize("name", list(CASES))
def test_oracle_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert report_dict(CASES[name]) == golden[name]


def test_golden_covers_every_case():
    assert list(json.loads(GOLDEN.read_text())) == list(CASES)


if __name__ == "__main__":
    doc = {name: report_dict(case) for name, case in CASES.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
