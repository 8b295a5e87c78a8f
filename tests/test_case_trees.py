"""Frozen case trees: ``split`` output and the granular2d root reduction.

The files under ``golden/`` were written by the reducer before it cached
any work; every later reducer must print them byte for byte.  For each
of the three small models, ``<model>.split.json`` and
``<model>.split-force-residual-zero.json`` are ``split --depth 3 --output
json``, plain and with ``--force-residual-zero``, and
``<model>.split-depth1.json`` is ``split --depth 1 --output json``, whose
open nodes the depth cap marks ``"capped"``.  ``gas1d.split-depth1.txt``
is the text of ``split gas1d --depth 1`` (with its ``... depth cap
reached`` lines), and ``gas1d.split-contradictory.json`` is ``split gas1d
--assume 'deta/deps = 0' --assume 'deta/deps != 0' --output json``, a
closed root with its ``"contradiction"``.  ``granular2d.root.json`` is the
root ``ReducedSystem`` of granular2d as :func:`render_reduced` prints it.
``granular2d.split-depth1.sha256`` is the SHA-256 of ``split granular2d
--depth 1 --output json``, whose output is too large to keep.
"""

import hashlib
import json
import pathlib

import pytest
from click.testing import CliRunner

from entropik.algebra import normalize_constraint
from entropik.cases import apply_assumptions, build_tree, force_residual
from entropik.cli import main
from entropik.render import atom_str, expr_str

from conftest import MODELS, solution_run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TREE_MODELS = ("gas1d", "fluid2d", "nonsimple2d")
TREES = [(name, forced) for name in TREE_MODELS for forced in (False, True)]


JSON = ["--output", "json"]
SPLITS = [
    pytest.param(
        name,
        ["--depth", "3", *JSON] + (["--force-residual-zero"] if forced else []),
        f"{name}.split{'-force-residual-zero' if forced else ''}.json",
        id=f"{name}-{forced}",
    )
    for name, forced in TREES
] + [
    pytest.param(name, ["--depth", "1", *JSON], f"{name}.split-depth1.json",
                 id=f"{name}-depth1")
    for name in TREE_MODELS
] + [
    pytest.param("gas1d", ["--depth", "1"], "gas1d.split-depth1.txt",
                 id="gas1d-depth1-text"),
    pytest.param(
        "gas1d",
        ["--assume", "deta/deps = 0", "--assume", "deta/deps != 0", *JSON],
        "gas1d.split-contradictory.json",
        id="gas1d-contradictory",
    ),
]


def render_reduced(rs, m) -> str:
    """Constraints, solved map, zeros and certificate kinds, as JSON."""
    rc = m.render_ctx()
    doc = {
        "constraints": [expr_str(c, rc) for c in rs.constraints],
        "solved": {atom_str(k, rc): expr_str(v, rc) for k, v in rs.solved},
        "zeroed": [atom_str(a, rc) for a in rs.zeroed],
        "certificates": [c.kind for c in rs.certificates],
        "inconsistent": rs.inconsistent,
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name,flags,golden", SPLITS)
def test_split_tree_matches_golden(name, flags, golden):
    r = CliRunner().invoke(main, ["split", str(MODELS / f"{name}.epk"), *flags])
    assert r.exit_code == 0, r.output
    assert r.output == (GOLDEN / golden).read_text()


def test_granular_depth1_split_matches_digest():
    model = str(MODELS / "granular2d.epk")
    r = CliRunner().invoke(main, ["split", model, "--depth", "1", *JSON])
    assert r.exit_code == 0, r.output
    digest = hashlib.sha256(r.output.encode()).hexdigest()
    assert digest == (GOLDEN / "granular2d.split-depth1.sha256").read_text().strip()


def test_granular_root_reduction_matches_golden(granular):
    rs = apply_assumptions(solution_run("granular2d").system, ())
    golden = (GOLDEN / "granular2d.root.json").read_text()
    assert render_reduced(rs, granular) == golden


@pytest.mark.parametrize("name,forced", TREES)
def test_reduced_constraints_are_in_normal_form(name, forced):
    # A refresh keeps a constraint it output before, unrenormalized, when
    # nothing was substituted into it; that is exact only while a normal
    # form normalizes to itself under the same nonzero list, with nothing
    # cancelled.
    cs = solution_run(name).system
    tree = build_tree(force_residual(cs) if forced else cs, depth=3)
    for node in tree.root.walk():
        rs = node.system
        for c in rs.constraints:
            assert normalize_constraint(c, rs.nonzero) == (c, [])
