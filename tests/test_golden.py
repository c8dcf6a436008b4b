"""Golden values of the default check battery and of the refine battery.

Every ``CHECKS`` entry at its default parameters must reproduce the recorded
``worst_ratio``, ``fitted_constant``, ``residual_max`` (each to 1e-10
relative) and verdict, so a refactor that claims to leave check reports
unchanged is held to that claim here.  gamma_identity keeps its documented
``fail`` (README, acceptance criterion 4).

The refine battery holds the same claim one refinement level up: every
check but ``persistence`` at n=4096 on its default L (``leibniz`` at
n=1024), on the corpus of seed 0x5EED.  These grids reach the operator
tables and Littlewood-Paley sums at the sizes where they cost most.

The values live in ``golden_checks.json`` and ``golden_refine.json`` beside
this file; each refine entry carries its own parameters.  Re-record them
only with a change that is meant to alter a report, and say so in it:

    PYTHONPATH=src python -m tests.test_golden

which prints each recorded value that moves beyond ``REL_TOL`` (old -> new,
with its relative deviation) and writes only those: a value within
``REL_TOL`` of its record keeps the recorded one.
"""

import inspect
import json
from pathlib import Path

import pytest

from dispersivelab.checks import CHECKS, run_check

GOLDEN_FILE = Path(__file__).with_name("golden_checks.json")
REFINE_FILE = Path(__file__).with_name("golden_refine.json")
NUMBERS = ("worst_ratio", "fitted_constant", "residual_max")
REL_TOL = 1e-10

REFINE_SEED = 0x5EED
REFINE_N = 4096
REFINE_N_OVERRIDE = {"leibniz": 1024}  # its square function costs seconds at 4096
REFINE_SKIP = ("persistence",)         # a stepper run, not an operator check


def _measure(name: str, params: dict | None = None) -> dict:
    report = run_check(name, params)
    row = {key: float(getattr(report, key)) for key in NUMBERS}
    row["verdict"] = report.verdict
    return row


def _holds(key: str, recorded, measured) -> bool:
    """Whether a recorded value still stands: a number within ``REL_TOL``
    of the measured one, anything else equal to it."""
    if key in NUMBERS:
        return abs(measured - recorded) <= REL_TOL * abs(recorded)
    return measured == recorded


def _assert_matches(name: str, got: dict, want: dict) -> None:
    assert got["verdict"] == want["verdict"]
    for key in NUMBERS:
        assert _holds(key, want[key], got[key]), (
            f"{name}.{key}: {got[key]!r} != recorded {want[key]!r}"
        )


def test_golden_covers_every_check():
    assert sorted(json.loads(GOLDEN_FILE.read_text())) == sorted(CHECKS)


def test_refine_golden_covers_every_operator_check():
    want = sorted(name for name in CHECKS if name not in REFINE_SKIP)
    assert sorted(json.loads(REFINE_FILE.read_text())) == want


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_default_check_matches_golden(name):
    want = json.loads(GOLDEN_FILE.read_text())[name]
    _assert_matches(name, _measure(name), want)


@pytest.mark.parametrize("name", sorted(n for n in CHECKS if n not in REFINE_SKIP))
def test_refine_check_matches_golden(name):
    want = json.loads(REFINE_FILE.read_text())[name]
    _assert_matches(name, _measure(name, want["params"]), want)


def _refine_params(name: str) -> dict:
    length = inspect.signature(CHECKS[name]).parameters["grid"].default.length
    n = REFINE_N_OVERRIDE.get(name, REFINE_N)
    return {"n": n, "L": length, "seed": REFINE_SEED}


def _moves(recorded: dict, measured: dict) -> list[str]:
    """One line per recorded number or verdict that ``measured`` moves
    beyond ``REL_TOL``: old -> new, with the deviation of a number."""
    lines = []
    for name, row in measured.items():
        was = recorded.get(name, {})
        for key in (*NUMBERS, "verdict"):
            if key not in was or _holds(key, was[key], row[key]):
                continue
            line = f"{name}.{key}: {was[key]!r} -> {row[key]!r}"
            if key != "verdict":
                dev = abs(row[key] - was[key])
                line += f" (relative {dev / abs(was[key]):.2e})" if was[key] else f" (absolute {dev:.2e})"
            lines.append(line)
    return lines


def _kept(recorded: dict, measured: dict) -> dict:
    """``measured`` with each value that ``recorded`` still holds replaced
    by the recorded one."""
    kept = {}
    for name, row in measured.items():
        was = recorded.get(name, {})
        kept[name] = {
            key: was[key] if key in was and _holds(key, was[key], value) else value
            for key, value in row.items()
        }
    return kept


def _write(path: Path, measured: dict) -> None:
    """Print every recorded value that ``measured`` moves, then record the
    moved values and keep the rest."""
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for line in _moves(recorded, measured):
        print(f"{path.name}: {line}")
    path.write_text(json.dumps(_kept(recorded, measured), indent=1) + "\n")


def test_moves_lists_each_changed_value_with_its_deviation():
    recorded = {"a": {"worst_ratio": 2.0, "fitted_constant": 0.0, "residual_max": 1.0, "verdict": "pass"}}
    measured = {"a": {"worst_ratio": 2.0, "fitted_constant": 1e-3, "residual_max": 1.5, "verdict": "fail"}}
    assert _moves(recorded, measured) == [
        "a.fitted_constant: 0.0 -> 0.001 (absolute 1.00e-03)",
        "a.residual_max: 1.0 -> 1.5 (relative 5.00e-01)",
        "a.verdict: 'pass' -> 'fail'",
    ]
    assert _moves(recorded, recorded) == []
    # a move within REL_TOL is neither listed nor written; one beyond it is
    measured["a"]["worst_ratio"] = 2.0 * (1.0 + 0.5 * REL_TOL)
    assert len(_moves(recorded, measured)) == 3
    assert _kept(recorded, measured) == {"a": {**measured["a"], "worst_ratio": 2.0}}
    measured["a"]["worst_ratio"] = 2.0 * (1.0 + 2.0 * REL_TOL)
    assert _moves(recorded, measured)[0].startswith("a.worst_ratio: 2.0 -> 2.0000000004 (relative 2.00e-10)")
    assert _kept(recorded, measured) == measured


def _record():
    _write(GOLDEN_FILE, {name: _measure(name) for name in sorted(CHECKS)})
    refine = {}
    for name in sorted(n for n in CHECKS if n not in REFINE_SKIP):
        params = _refine_params(name)
        refine[name] = {"params": params, **_measure(name, params)}
    _write(REFINE_FILE, refine)


if __name__ == "__main__":
    _record()
