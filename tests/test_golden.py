"""Every figure preset reproduces its recorded summary check values.

`golden_checks.json` pins the check values of all presets together with one
tolerance for every check, stated in the file.  A refactor of the numerical
engine that keeps the physics keeps every value within it.
"""

import json
from pathlib import Path

import pytest

from fsqubit.harness import presets

GOLDEN = json.loads((Path(__file__).parent / "golden_checks.json").read_text())


def test_golden_covers_every_preset():
    assert sorted(GOLDEN["checks"]) == sorted(presets.FIGURE_PRESETS)


@pytest.mark.parametrize("figure", sorted(GOLDEN["checks"]))
def test_preset_checks_match_golden(figure, tmp_path):
    ok = presets.reproduce(figure, tmp_path / figure)
    summary = json.loads((tmp_path / figure / "summary.json").read_text())
    got = {c["name"]: c["value"] for c in summary["checks"]}
    want = GOLDEN["checks"][figure]
    assert sorted(got) == sorted(want)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=GOLDEN["rtol"], abs=GOLDEN["atol"]), name
    assert ok
