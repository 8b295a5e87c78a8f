"""End-to-end command-line behaviour and exit codes."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from entropik import cases, cli
from entropik.cli import main

from conftest import MODELS
from test_split import tiny_model_text


def model(name):
    return str(MODELS / f"{name}.epk")


def bind(name):
    return str(MODELS / f"{name}.bind")


@pytest.fixture()
def runner():
    return CliRunner()


def test_analyze_text(runner):
    r = runner.invoke(main, ["analyze", model("gas1d")])
    assert r.exit_code == 0
    assert "rho^2*deta/drho + p*deta/deps = 0" in r.output
    assert "residual: 0 >= 0" in r.output


def test_analyze_json_validates(runner):
    r = runner.invoke(main, ["analyze", model("fluid2d"), "--output", "json"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["schema"] == "report-v1"
    assert len(doc["system"]["constraints"]) == 8


def test_analyze_json_deterministic(runner):
    args = ["analyze", model("gas1d"), "--output", "json"]
    a = json.loads(runner.invoke(main, args).output)
    b = json.loads(runner.invoke(main, args).output)
    a.pop("timings"), b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_analyze_latex(runner):
    r = runner.invoke(main, ["analyze", model("gas1d"), "--output", "latex"])
    assert r.exit_code == 0
    assert r.output.count("{") == r.output.count("}")
    assert "\\documentclass" in r.output


@pytest.mark.parametrize("method", ["solution-set", "mueller-liu"])
def test_analyze_latex_builds_no_report(runner, monkeypatch, method):
    def unused(*args, **kwargs):
        raise AssertionError("the LaTeX output reads no report")

    monkeypatch.setattr(cli, "build_report", unused)
    args = ["analyze", model("gas1d"), "--method", method, "--output", "latex"]
    r = runner.invoke(main, args)
    assert r.exit_code == 0, r.output
    assert "\\documentclass" in r.output


def test_analyze_prints_closure_consequences(runner):
    r = runner.invoke(main, ["analyze", model("nonsimple2d")])
    assert r.exit_code == 0
    assert "closure consequences: rho_ty, rho_tx, rho_tt, u_tx, v_ty\n" in r.output


def test_analyze_prints_symmetrization_count(runner):
    r = runner.invoke(main, ["analyze", model("granular2d")])
    assert r.exit_code == 0
    assert "symmetrization constraints: 12\n" in r.output


def test_analyze_mueller_liu(runner):
    r = runner.invoke(main, ["analyze", model("gas1d"), "--method", "mueller-liu"])
    assert r.exit_code == 0
    assert "Lam_energy = deta/deps" in r.output
    assert "Lam_momentum = 0" in r.output


def test_analyze_mueller_liu_prints_generic_assumptions(runner):
    args = ["analyze", model("nonsimple2d"), "--method", "mueller-liu"]
    r = runner.invoke(main, args)
    assert r.exit_code == 0
    assert "generic assumptions: dLam_energy/drho_t != 0\n" in r.output


def test_analyze_mueller_liu_multiplier_dep_resolves_labels(runner):
    args = ["analyze", model("gas1d"), "--method", "mueller-liu", "--output", "json"]
    r = runner.invoke(main, args + ["--multiplier-dep", "eps, rho"])
    assert r.exit_code == 0
    assert json.loads(r.output)["system"]["multiplier_dep"] == ["eps", "rho"]
    r = runner.invoke(main, args + ["--multiplier-dep", "rho,bogus"])
    assert r.exit_code == 2
    assert "unknown dependency 'bogus'; model dependencies: eps, rho" in r.output


def test_repeated_multiplier_dep_label_is_a_usage_error(runner):
    # analyze and compare both resolve the labels in one place
    analyze = ["analyze", model("gas1d"), "--method", "mueller-liu"]
    for cmd in (analyze, ["compare", model("gas1d")]):
        r = runner.invoke(main, cmd + ["--multiplier-dep", "rho, eps,rho"])
        assert r.exit_code == 2
        assert "dependency 'rho' is given twice" in r.output


def test_analyze_mueller_liu_latex(runner):
    args = ["analyze", model("gas1d"), "--method", "mueller-liu"]
    r = runner.invoke(main, args + ["--output", "latex"])
    assert r.exit_code == 0
    assert r.output.count("{") == r.output.count("}")
    assert "\\section*{Multiplier identities: gas1d}" in r.output
    assert "\\Lambda_{\\mathrm{momentum}} = 0" in r.output


def test_parse_error_exits_1(runner, tmp_path):
    bad = tmp_path / "bad.epk"
    bad.write_text("independent t\nfield a\nwhatever: 1\n")
    r = runner.invoke(main, ["analyze", str(bad)])
    assert r.exit_code == 1
    assert "bad.epk:3" in r.output


def test_deeply_nested_model_exits_1_with_a_diagnostic(runner, tmp_path):
    deep = "(" * 200 + "rho" + ")" * 200
    bad = tmp_path / "deep.epk"
    bad.write_text(
        (MODELS / "gas1d.epk").read_text().replace("dt(rho)", deep, 1))
    r = runner.invoke(main, ["analyze", str(bad)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "deep.epk:" in r.output
    assert "error: expression nested more than 64 levels deep" in r.output


def test_long_sum_analyzes_like_the_model_without_it(runner, tmp_path):
    # one stack frame per operator would pass Python's recursion limit
    text = (MODELS / "gas1d.epk").read_text()
    long = tmp_path / "long.epk"
    long.write_text(text.replace("dx(rho*u)", "dx(rho*u)" + " + 0*rho" * 1200, 1))
    r = runner.invoke(main, ["analyze", str(long)])
    assert r.exit_code == 0, r.output
    plain = runner.invoke(main, ["analyze", model("gas1d")]).output

    def body(out):
        lines = out.splitlines()
        return [ln for ln in lines if not ln.startswith(("model", "timings"))]

    assert body(r.output) == body(plain)


def test_engine_error_exits_2_with_code(runner):
    r = runner.invoke(
        main, ["analyze", model("nonsimple2d"), "--max-order", "1"]
    )
    assert r.exit_code == 2
    assert "error[E022]" in r.output


def test_max_order_rejects_a_negative_value(runner):
    r = runner.invoke(main, ["analyze", model("gas1d"), "--max-order", "-1"])
    assert r.exit_code == 2
    assert "Usage:" in r.output
    assert "Invalid value for '--max-order'" in r.output


@pytest.mark.parametrize("term, method, message", [
    ("1/dx(u)", "solution-set",
     "error[E030]: denominator contains the free element u_x"),
    ("dx(u)^2", "mueller-liu",
     "error[E040]: extended inequality is not linear in the split "
     "derivatives: monomial u_x^2"),
], ids=["E030", "E040"])
def test_entropy_outside_the_split_fragment_exits_2(
    runner, tmp_path, term, method, message
):
    bad = tmp_path / "bad.epk"
    bad.write_text((MODELS / "gas1d.epk").read_text().replace(
        "dx(Phi1) >= 0", f"dx(Phi1) + {term} >= 0"))
    r = runner.invoke(main, ["analyze", str(bad), "--method", method])
    assert r.exit_code == 2
    assert r.output == message + "\n"


def test_compare_identical(runner):
    r = runner.invoke(main, ["compare", model("fluid2d")])
    assert r.exit_code == 0
    assert "verdict: identical" in r.output


def test_compare_over_restriction(runner):
    r = runner.invoke(main, ["compare", model("nonsimple2d")])
    assert r.exit_code == 0
    assert "verdict: liu-over-restricts" in r.output
    assert "multiplier-only: T12 = 0" in r.output


def test_compare_prints_solution_set_only_identities(runner):
    r = runner.invoke(main, ["compare", model("granular2d")])
    assert r.exit_code == 0
    prefix = "  solution-set-only: "
    lines = [x for x in r.output.splitlines() if x.startswith(prefix)]
    doc = json.loads(
        runner.invoke(main, ["compare", model("granular2d"), "--output", "json"]).output
    )
    assert lines == [f"{prefix}{c} = 0" for c in doc["solution_only"]]
    assert len(lines) == 191
    assert f"{prefix}deps/dtheta_x*deta/dtheta_y - deps/dtheta_y*deta/dtheta_x = 0" in lines


def test_compare_json(runner):
    r = runner.invoke(main, ["compare", model("gas1d"), "--output", "json"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["verdict"] == "identical"
    assert doc["multipliers"] == {
        "Lam_energy": "deta/deps", "Lam_mass": "rho*deta/drho", "Lam_momentum": "0",
    }
    assert "rho^2*deta/drho + p*deta/deps" in doc["common"]
    assert doc["liu_only"] == doc["solution_only"] == []
    assert doc["incomplete"] is False


def test_compare_rejects_latex_output(runner):
    r = runner.invoke(main, ["compare", model("gas1d"), "--output", "latex"])
    assert r.exit_code == 2
    assert "Invalid value for '--output'" in r.output


def test_compare_unknown_dep_label(runner):
    r = runner.invoke(
        main, ["compare", model("gas1d"), "--multiplier-dep", "bogus"]
    )
    assert r.exit_code == 2
    assert "unknown dependency" in r.output


def test_split_tree(runner):
    r = runner.invoke(main, ["split", model("gas1d")])
    assert r.exit_code == 0
    assert "4 leaves" in r.output
    assert "case deta/deps = 0:" in r.output


def test_split_with_assumption(runner):
    r = runner.invoke(
        main, ["split", model("gas1d"), "--assume", "deta/deps = 0"]
    )
    assert r.exit_code == 0
    assert "1 leaves" in r.output


def test_split_contradictory_assumptions(runner):
    args = [
        "split", model("gas1d"),
        "--assume", "deta/deps = 0",
        "--assume", "deta/deps != 0",
    ]
    r = runner.invoke(main, args)
    assert r.exit_code == 0
    assert "0 leaves, 1 closed" in r.output
    # a closed root forks on nothing, so it reports no pivot pool
    r = runner.invoke(main, args + ["--output", "json"])
    assert r.exit_code == 0
    assert json.loads(r.output)["pivots"] == []


def test_split_reduces_each_node_once(runner, monkeypatch):
    calls = []
    reduce = cases._reduce

    def counting(st):
        calls.append(st)
        return reduce(st)

    monkeypatch.setattr(cases, "_reduce", counting)
    r = runner.invoke(
        main, ["split", model("gas1d"), "--depth", "3", "--output", "json"]
    )
    assert r.exit_code == 0

    def count(node):
        return 1 + sum(count(c) for c in node.get("children", ()))

    assert len(calls) == count(json.loads(r.output)["root"])


def test_split_reduction_cap_exits_2_with_code(runner, monkeypatch):
    monkeypatch.setattr(cases, "_MAX_ROUNDS", 1)
    r = runner.invoke(main, ["split", model("gas1d")])
    assert r.exit_code == 2
    assert "error[E060]" in r.output
    assert "assumptions: none" in r.output


def test_split_reduction_cap_names_assumptions_as_the_model_writes_them(
    runner, monkeypatch
):
    monkeypatch.setattr(cases, "_MAX_ROUNDS", 1)
    r = runner.invoke(
        main, ["split", model("nonsimple2d"), "--assume", "deps/drho_t != 0"]
    )
    assert r.exit_code == 2
    assert r.output == (
        "error[E060]: reduction reached no fixed point in 1 rounds; "
        "assumptions: deps/drho_t != 0\n"
    )


def test_split_rejects_depth_below_one(runner):
    r = runner.invoke(main, ["split", model("gas1d"), "--depth", "0"])
    assert r.exit_code == 2
    assert "--depth" in r.output


def test_split_force_residual_zero_json(runner):
    r = runner.invoke(
        main,
        ["split", model("fluid2d"), "--force-residual-zero",
         "--output", "json"],
    )
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["leaf_count"] == 4


def test_verify(runner):
    r = runner.invoke(
        main, ["verify", model("gas1d"), "--trials", "25", "--seed", "7"]
    )
    assert r.exit_code == 0
    assert "identity 25/25" in r.output
    assert "on-variety 25/25" in r.output


def test_verify_rejects_trials_below_one(runner):
    for trials in ("0", "-3"):
        r = runner.invoke(main, ["verify", model("gas1d"), "--trials", trials])
        assert r.exit_code == 2
        assert "--trials" in r.output


def test_verify_fails_when_no_trial_reaches_the_variety(runner, tmp_path):
    # the one constraint f^2 + g^2 + 1 has no linear unknown to repair
    path = tmp_path / "squares.epk"
    path.write_text(tiny_model_text("f^2 + g^2 + 1", "g"))
    r = runner.invoke(main, ["verify", str(path), "--trials", "5"])
    assert r.exit_code == 1
    assert "identity 5/5  on-variety 0/5  (skipped 5)" in r.output
    assert "error: no trial reached the constraint variety" in r.output


def test_verify_with_bindings(runner):
    r = runner.invoke(
        main,
        ["verify", model("gas1d"), "--trials", "10", "--seed", "1",
         "--bindings", bind("gas1d_ideal")],
    )
    assert r.exit_code == 0
    assert "zero at 10/10 points" in r.output


def test_check_passes(runner):
    r = runner.invoke(
        main, ["check", model("nonsimple2d"), bind("nonsimple2d_family")]
    )
    assert r.exit_code == 0
    assert "passes all 23 constraints" in r.output


def test_check_fails_on_bad_candidate(runner, tmp_path):
    text = (MODELS / "nonsimple2d_family.bind").read_text()
    bad = tmp_path / "bad.bind"
    bad.write_text(text.replace("bind T12 = 0", "bind T12 = 5"))
    r = runner.invoke(main, ["check", model("nonsimple2d"), str(bad)])
    assert r.exit_code == 1
    assert "FAIL T12*deta/dtheta" in r.output


def test_check_unbound_symbol_code(runner, tmp_path):
    bad = tmp_path / "bad.bind"
    bad.write_text("bind p = shrug\n")
    r = runner.invoke(main, ["check", model("gas1d"), str(bad)])
    assert r.exit_code == 2
    assert "error[E050]" in r.output


@pytest.mark.parametrize(
    "line", ["bind dfoo/drho = 1\n", "bind p = dfoo/drho\n"], ids=["target", "value"]
)
def test_check_unknown_partial_symbol_code(runner, tmp_path, line):
    # a partial of an undeclared function is an unknown name, as a bare one is
    bad = tmp_path / "bad.bind"
    bad.write_text(line)
    r = runner.invoke(main, ["check", model("gas1d"), str(bad)])
    assert r.exit_code == 2
    assert "error[E050]" in r.output
    assert "unknown constitutive symbol 'foo'" in r.output


def test_check_transcendental_code(runner, tmp_path):
    bad = tmp_path / "bad.bind"
    bad.write_text("bind eta = log(eps)\n")
    r = runner.invoke(main, ["check", model("gas1d"), str(bad)])
    assert r.exit_code == 2
    assert "error[E051]" in r.output


def test_check_missing_bindings_file(runner, tmp_path):
    missing = str(tmp_path / "none.bind")
    r = runner.invoke(main, ["check", model("gas1d"), missing])
    assert r.exit_code == 1
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "error: " in r.output and "none.bind" in r.output


def test_verify_missing_bindings_file(runner, tmp_path):
    missing = str(tmp_path / "none.bind")
    r = runner.invoke(
        main, ["verify", model("gas1d"), "--trials", "2", "--bindings", missing]
    )
    assert r.exit_code == 1
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "error: " in r.output and "none.bind" in r.output


def test_check_circular_bindings_code(runner, tmp_path):
    bad = tmp_path / "circular.bind"
    bad.write_text("bind p = q1\nbind q1 = p\n")
    r = runner.invoke(main, ["check", model("gas1d"), str(bad)])
    assert r.exit_code == 2
    assert "error[E052]" in r.output
    assert "FAIL" not in r.output


def test_version(runner):
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0
    assert "0.1.0" in r.output


def _stdout_under_hash_seed(args, hash_seed):
    env = dict(os.environ)
    src = str(MODELS.parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    r = subprocess.run(
        [sys.executable, "-m", "entropik.cli", *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return r.stdout


def test_split_output_is_the_same_in_every_process():
    # Atoms hash by identity, so iterating a set of them follows the
    # memory layout of the process; no output may depend on that order.
    args = ["split", model("nonsimple2d"), "--output", "json"]
    outputs = {_stdout_under_hash_seed(args, hash_seed) for hash_seed in range(4)}
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["split", model("nonsimple2d"), "--force-residual-zero", "--output", "json"],
        ["compare", model("granular2d"), "--output", "json"],
    ],
    ids=["split-nonsimple2d-forced", "compare-granular2d"],
)
def test_output_does_not_depend_on_the_hash_seed(args):
    assert _stdout_under_hash_seed(args, 0) == _stdout_under_hash_seed(args, 1)
