"""Parse diagnostics, frozen.

``golden/diagnostics.json`` holds malformed model texts, at least one for
each diagnostic that ``parse_model`` or ``ModelDef.validate`` can emit,
with the diagnostics the parser gave for each: message, hint and span.
``ModelDef.validate`` keeps only the five checks a model text can reach
(``symmetric_pair_self``, ``leading_count_mismatch``,
``leading_not_independent``, ``equation_without_jet`` and
``leading_in_no_equation``); the checks the parser always made first
(duplicate names, repeated or non-jet arguments, multi-index length, a
symmetric pair outside the argument list, undeclared symbols) are deleted.

The ``*_trailing_input`` entries and ``granular2d_missing_comma`` pin the
end check every directive makes: nothing may follow a directive's last
item, so a missing comma in an ``assume nonzero:`` list is an error, not a
shorter list.  An entropy line with trailing input still counts as the
model's one entropy line, so no second error follows.

``expression_nested_too_deep`` pins the nesting limit: the opening
parenthesis that passes it is the error, where the recursive grammar once
ran out of stack.
"""

import dataclasses
import json
import pathlib

import pytest

from entropik.parser import parse_model

CORPUS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "golden" / "diagnostics.json")
    .read_text()
)


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_diagnostics_match_corpus(case):
    pr = parse_model(case["text"], filename=f"{case['name']}.epk")
    assert [dataclasses.asdict(d) for d in pr.diagnostics] == case["diagnostics"]
    assert pr.ok == case["ok"]
