"""Hostile inputs, generated from the parameter tables: every numeric check
parameter (``checks._parameters``) and every numeric config key (the
``RunConfig`` fields) is given non-finite, zero and negative values through
``cli.main``, and every check whose fields enter through the boundary gate
runs on a cell they do not fit.  A new parameter or key is covered without
an edit here."""

import dataclasses
import re

import pytest

from dispersivelab import checks
from dispersivelab.cli import RunConfig, _floats, main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

NON_FINITE = ("nan", "inf", "-inf")
EDGE = ("0", "-1")

# the numeric keys of each check; a str parameter (persistence's model) takes a name
CHECK_KEYS = {
    name: [key for key, default in checks._parameters(fn).items() if not isinstance(default, str)]
    for name, fn in checks.CHECKS.items()
}
# the numeric config keys, by field: float-parsed ones carry a non-finite
# value to the module that owns it, int-parsed ones reject it as they parse
CONFIG_KEYS = [
    f for f in dataclasses.fields(RunConfig) if f.metadata.get("parse") in (int, float, _floats)
]
# a solve config that runs in a few steps; NLS reads every equation key but k
SOLVE_BASE = {"command": "solve", "equation.model": "nls", "stepper.T": "0.01"}


def _names(key: str, err: str) -> bool:
    """``err`` names ``key`` as ``key=``."""
    return re.search(rf"(?<![\w.]){re.escape(key)}=", err) is not None


def _check(name, key, value, out, capsys):
    rc = main(["check", name, "--param", f"{key}={value}", "--out", str(out)])
    return rc, capsys.readouterr().err


def _solve(key, value, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**SOLVE_BASE, key: value}.items()))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CHECK_KEYS))
def test_non_finite_check_parameter_is_named(tmp_path, capsys, name):
    wrong = []
    for key in CHECK_KEYS[name]:
        for value in NON_FINITE:
            rc, err = _check(name, key, value, tmp_path, capsys)
            if rc != 2 or not _names(key, err):
                wrong.append((key, value, rc, err))
    assert not wrong


@pytest.mark.parametrize("name", sorted(CHECK_KEYS))
def test_zero_and_negative_check_parameters_exit_cleanly(tmp_path, capsys, name):
    for key in CHECK_KEYS[name]:
        for value in EDGE:
            rc, err = _check(name, key, value, tmp_path, capsys)
            assert rc in (0, 1, 2), (key, value, rc, err)


def test_config_keys_named_and_exit_cleanly(tmp_path, capsys):
    wrong = []
    for f in CONFIG_KEYS:
        key = f.metadata["key"]
        for value in NON_FINITE:
            rc, err = _solve(key, value, tmp_path, capsys)
            named = _names(f.name, err) if f.metadata["parse"] is not int else (
                f"bad value for {key}: " in err
            )
            if rc != 2 or not named:
                wrong.append((key, value, rc, err))
        for value in EDGE:
            rc, err = _solve(key, value, tmp_path, capsys)
            if rc not in (0, 1, 2):
                wrong.append((key, value, rc, err))
    assert not wrong


# chirp_stein's stationary chirp fills its cell by design and is not gated
@pytest.mark.parametrize("name", sorted(set(checks.CHECKS) - {"chirp_stein"}))
def test_field_failing_the_gate_is_a_parameter_error(tmp_path, capsys, name):
    rc, err = _check(name, "L", 3, tmp_path, capsys)
    assert rc == 2
    assert f"check error: {name}: " in err and "fails the boundary gate on the cell L=3: " in err
    assert not (tmp_path / "checks.csv").exists()
