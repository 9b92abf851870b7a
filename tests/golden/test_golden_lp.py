"""Golden LP-path agreement: same pivots, same answers.

``golden_lp.json`` pins the exact simplex's path, not only its verdicts:
branch-and-bound node and iteration counts with every start time of the
scheduling models, and status, values and iterations of seeded random
LPs.  A change to the simplex's arithmetic must leave all of it
unchanged; a change that picks other pivots shows up here even when it
lands on another optimal vertex of the same value.  Regenerate with
``generate_lp_goldens.py`` (and say so loudly in the PR) only when the
pivot rules change on purpose.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.golden.generate_lp_goldens import lp_entry, milp_entry, milp_specs

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "golden_lp.json")) as _handle:
    _GOLDEN = json.load(_handle)

MILP = {entry["id"]: entry for entry in _GOLDEN["milp"]}


@pytest.fixture(scope="module")
def specs():
    return {spec[0]: spec for spec in milp_specs()}


def test_the_fixture_covers_every_pinned_model(specs):
    assert list(specs) == list(MILP)


@pytest.mark.parametrize("case_id", list(MILP))
def test_milp_path_is_unchanged(case_id, specs):
    assert milp_entry(*specs[case_id]) == MILP[case_id]


@pytest.mark.parametrize("entry", _GOLDEN["lp"], ids=lambda entry: f"seed{entry['seed']}")
def test_random_lp_path_is_unchanged(entry):
    assert lp_entry(entry["seed"]) == entry
