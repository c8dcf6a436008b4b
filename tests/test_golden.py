"""Golden values of the default check battery.

Every ``CHECKS`` entry at its default parameters must reproduce the recorded
``worst_ratio``, ``fitted_constant``, ``residual_max`` (each to 1e-10
relative) and verdict, so a refactor that claims to leave check reports
unchanged is held to that claim here.  gamma_identity keeps its documented
``fail`` (README, acceptance criterion 4).

The values live in ``golden_checks.json`` beside this file.  Re-record them
only with a change that is meant to alter a report, and say so in it:

    PYTHONPATH=src python -m tests.test_golden
"""

import json
import warnings
from pathlib import Path

import pytest

from dispersivelab.checks import CHECKS, run_check

GOLDEN_FILE = Path(__file__).with_name("golden_checks.json")
NUMBERS = ("worst_ratio", "fitted_constant", "residual_max")
REL_TOL = 1e-10


def _measure(name: str) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_check(name, {})
    row = {key: float(getattr(report, key)) for key in NUMBERS}
    row["verdict"] = report.verdict
    return row


def test_golden_covers_every_check():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_default_check_matches_golden(name):
    want = json.loads(GOLDEN_FILE.read_text())[name]
    got = _measure(name)
    assert got["verdict"] == want["verdict"]
    for key in NUMBERS:
        assert abs(got[key] - want[key]) <= REL_TOL * abs(want[key]), (
            f"{name}.{key}: {got[key]!r} != recorded {want[key]!r}"
        )


def _record():
    golden = {name: _measure(name) for name in sorted(CHECKS)}
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    _record()
