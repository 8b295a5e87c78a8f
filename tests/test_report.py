"""Report serialization: round-trip, determinism, schema, goldens."""

import dataclasses
import json
import pathlib
from collections.abc import Mapping
from fractions import Fraction

import jsonschema
import pytest

from entropik.expr import Expr
from entropik.model import ModelDef
from entropik.report import (
    SCHEMA_VERSION,
    AnalysisReport,
    build_report,
    model_fingerprint,
    run_liu,
    run_solution_set,
)

from conftest import liu_run, load_model, solution_run

HERE = pathlib.Path(__file__).resolve().parent
SCHEMA = json.loads(
    (HERE.parents[0] / "src" / "entropik" / "schema" / "report-v1.schema.json")
    .read_text()
)

ALL_MODELS = ["gas1d", "fluid2d", "nonsimple2d", "granular2d"]
METHODS = ["solution-set", "mueller-liu"]


def _report(name, method):
    run = solution_run(name) if method == "solution-set" else liu_run(name)
    return build_report(run, name=name)


def _without_timings(rep):
    """The report's JSON without its ``timings``, the part that must not
    change from run to run."""
    doc = json.loads(rep.to_json())
    doc.pop("timings")
    return doc


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("method", METHODS)
def test_json_round_trip_is_equal(name, method):
    rep = _report(name, method)
    assert json.loads(rep.to_json()) == dataclasses.asdict(rep)


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("method", METHODS)
def test_schema_validates(name, method):
    jsonschema.validate(json.loads(_report(name, method).to_json()), SCHEMA)


def test_schema_rejects_malformed():
    doc = json.loads(_report("gas1d", "solution-set").to_json())
    doc["method"] = "guesswork"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


def test_reports_are_deterministic(gas):
    # two fresh runs serialize byte-identically outside the timing block
    a = build_report(run_solution_set(gas), name="gas1d")
    b = build_report(run_solution_set(gas), name="gas1d")
    assert json.dumps(_without_timings(a)) == json.dumps(_without_timings(b))


def test_timings_excluded_from_digest(gas):
    rep = build_report(run_solution_set(gas), name="gas1d")
    other = AnalysisReport(
        schema=rep.schema,
        engine_version=rep.engine_version,
        model=rep.model,
        method=rep.method,
        solved=rep.solved,
        system=rep.system,
        timings={"solve": 99.0},
    )
    assert _without_timings(other) == _without_timings(rep)


def test_schema_version_field():
    rep = _report("gas1d", "solution-set")
    assert rep.schema == SCHEMA_VERSION == "report-v1"


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("method", METHODS)
def test_golden_reports(name, method):
    golden = json.loads((HERE / "golden" / f"{name}.{method}.json").read_text())
    assert _without_timings(_report(name, method)) == golden


def _coefficients(obj):
    """Every coefficient of every Expr reachable from ``obj`` through
    dataclass fields and containers."""
    stack, seen = [obj], set()
    while stack:
        x = stack.pop()
        if isinstance(x, str) or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Expr):
            for p in (x.num, x.den):
                yield from p.values()
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        elif isinstance(x, Mapping):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("method", METHODS)
def test_no_float_coefficients(name, method):
    # a reported 0 is an identity only while every coefficient is exact
    run = solution_run(name) if method == "solution-set" else liu_run(name)
    coeffs = list(_coefficients(run))
    assert coeffs
    assert not [c for c in coeffs if isinstance(c, float)]


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("method", METHODS)
def test_integral_coefficients_are_ints(name, method):
    # the int fast path: a Fraction only where the value is not an integer
    run = solution_run(name) if method == "solution-set" else liu_run(name)
    bad = [
        c
        for c in _coefficients(run)
        if type(c) is not int
        and not (type(c) is Fraction and c.denominator != 1)
    ]
    assert not bad


def test_fingerprint_is_content_digest(gas, fluid):
    assert model_fingerprint(gas) != model_fingerprint(fluid)
    assert len(model_fingerprint(gas)) == 64


def test_liu_report_carries_multiplier_labels():
    rep = _report("nonsimple2d", "mueller-liu")
    # multiplier partial derivatives print with their dependency labels
    text = json.dumps(rep.system)
    assert "dLam_energy/drho_t" in text


def test_solution_set_report_builds_one_render_context(gas, monkeypatch):
    # one context serves both sections, so a shared atom renders once
    run = run_solution_set(gas)
    calls = []
    real = ModelDef.render_ctx

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ModelDef, "render_ctx", counting)
    build_report(run, name="gas1d")
    assert len(calls) == 1
