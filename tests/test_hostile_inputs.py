"""Hostile inputs, generated from the parameter tables: every numeric check
parameter (``checks._parameters``, the corpus keys of every check included)
and every numeric config key (the ``RunConfig`` fields, each in a config of
the command that reads it) is given non-finite, zero, negative, least
subnormal and huge values through ``cli.main``, an int key also an integer
literal beyond the float range, and every check whose fields enter through
the boundary gate runs on a cell they do not fit.  A gKdV and a BO solve
that diverge until an invariant overflows are solver failures (exit 1).
An equation key runs
under a model that reads it (``propagators._READS``).  A new parameter or
key is covered without an edit here.  The work keys (n, corpus_size, pairs,
a step count T/dt, the gKdV degree k) have upper bounds, so a huge value of
one is an error, not that much work.  The module runs in about 6 s on a
2-vCPU x86_64 VM."""

import dataclasses
import re
import warnings

import pytest

from dispersivelab import checks
from dispersivelab.cli import RunConfig, _floats, main
from dispersivelab.propagators import _READS

NON_FINITE = ("nan", "inf", "-inf")
# the least subnormal: a cell, a step or an order that small leaves the float range
EDGE = ("0", "-1", "5e-324")
# huge and tiny values, where a cell, an order, a time or a count leaves the float range
HUGE = ("1e15", "1e300", "-1e300", "1e-300")
# an integer literal beyond the float range, which an int key reads exactly
HUGE_INT = str(10**400)
# the model that reads each equation key
READER = {key: model for model, keys in _READS.items() for key in keys}

# the numeric keys of each check with their defaults; a str parameter
# (persistence's model) takes a name
CHECK_KEYS = {
    name: {
        key: default for key, default in checks._parameters(fn).items() if not isinstance(default, str)
    }
    for name, fn in checks.CHECKS.items()
}
# the numeric config keys, by field: float-parsed ones carry a non-finite
# value to the module that owns it, int-parsed ones reject it as they parse;
# either way the error names the field as name=value
CONFIG_KEYS = [
    f for f in dataclasses.fields(RunConfig) if f.metadata.get("parse") in (int, float, _floats)
]
# a config of each command: a solve that runs in a few steps (under the
# model that reads its equation key, NLS for any other key) and a sweep of
# one fast check
BASE = {
    "solve": {"command": "solve", "equation.model": "nls", "stepper.T": "0.01"},
    "sweep": {"command": "sweep", "sweep.checks": "scaling"},
}


# a solve whose invariant overflows after t = 0: gKdV and BO at amplitude 400
DIVERGING = {
    "equation.k": "1", "grid.n": "512", "grid.L": "20", "stepper.dt": "0.001", "stepper.T": "0.05",
    "stepper.snapshots": ", ".join(f"{0.005 * i:g}" for i in range(11)), "solve.amplitude": "400",
}


def _names(key: str, err: str) -> bool:
    """``err`` names ``key`` as ``key=``."""
    return re.search(rf"(?<![\w.]){re.escape(key)}=", err) is not None


def _check(name, key, value, out, capsys):
    """Run check ``name`` with ``key`` at ``value``, an equation key under
    its reader when the check takes a model."""
    takes_model = "model" in checks._parameters(checks.CHECKS[name])
    reader = [f"model={READER[key]}"] if takes_model and key in READER else []
    params = [a for p in (*reader, f"{key}={value}") for a in ("--param", p)]
    rc = main(["check", name, *params, "--out", str(out)])
    return rc, capsys.readouterr().err


def _clean_exit(run, *args) -> tuple:
    """``run(*args)``'s exit code and stderr, with the RuntimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = run(*args)
    return rc, err, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def _config(f, value, tmp_path, capsys):
    """Run field ``f``'s key at ``value`` in a config of the command that reads it."""
    command = f.metadata["command"]
    path = tmp_path / "run.cfg"
    lines = {**BASE[command], f.metadata["key"]: value}
    if f.name in READER:
        lines["equation.model"] = READER[f.name]
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
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


@pytest.mark.parametrize("name", sorted(CHECK_KEYS))
def test_huge_check_parameters_exit_cleanly(tmp_path, capsys, name):
    """Exit 0, 1 or 2 with no traceback and no RuntimeWarning."""
    wrong = []
    for key, default in CHECK_KEYS[name].items():
        for value in HUGE + (HUGE_INT,) * isinstance(default, int):
            rc, err, leaked = _clean_exit(_check, name, key, value, tmp_path, capsys)
            if rc not in (0, 1, 2) or leaked:
                wrong.append((key, value, rc, err, leaked))
    assert not wrong


@pytest.mark.parametrize("name", sorted(CHECK_KEYS))
def test_corpus_keys_checked_for_every_check(tmp_path, capsys, name):
    """A negative or fractional seed or corpus size is a named parameter error
    for every check, one that takes no corpus included."""
    wrong = []
    for key in checks._CORPUS_KEYS:
        for value in ("-1", "0.5"):
            rc, err = _check(name, key, value, tmp_path, capsys)
            if rc != 2 or not _names(key, err):
                wrong.append((key, value, rc, err))
    assert not wrong


def test_config_keys_named_and_exit_cleanly(tmp_path, capsys):
    wrong = []
    for f in CONFIG_KEYS:
        key = f.metadata["key"]
        for value in NON_FINITE:
            rc, err = _config(f, value, tmp_path, capsys)
            if rc != 2 or not _names(f.name, err):
                wrong.append((key, value, rc, err))
        for value in EDGE:
            rc, err = _config(f, value, tmp_path, capsys)
            if rc not in (0, 1, 2):
                wrong.append((key, value, rc, err))
    assert not wrong


def test_huge_config_values_exit_cleanly(tmp_path, capsys):
    """Exit 0, 1 or 2 with no traceback and no RuntimeWarning."""
    wrong = []
    for f in CONFIG_KEYS:
        for value in HUGE + (HUGE_INT,) * (f.metadata["parse"] is int):
            rc, err, leaked = _clean_exit(_config, f, value, tmp_path, capsys)
            if rc not in (0, 1, 2) or leaked:
                wrong.append((f.metadata["key"], value, rc, err, leaked))
    assert not wrong


@pytest.mark.parametrize("model", ["gkdv", "bo"])
def test_diverging_solve_is_a_solver_failure(tmp_path, capsys, model):
    """Exit 1 naming the overflowing invariant, with no traceback and no
    RuntimeWarning."""
    path = tmp_path / "run.cfg"
    lines = {**BASE["solve"], "equation.model": model, **DIVERGING}
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))

    def run():
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        return rc, capsys.readouterr().err

    rc, err, leaked = _clean_exit(run)
    assert rc == 1 and not leaked
    assert err.splitlines()[-1].startswith(f"solver failure: the {model} invariant ")


# chirp_stein's stationary chirp fills its cell by design and is not gated
@pytest.mark.parametrize("name", sorted(set(checks.CHECKS) - {"chirp_stein"}))
def test_field_failing_the_gate_is_a_parameter_error(tmp_path, capsys, name):
    rc, err = _check(name, "L", 3, tmp_path, capsys)
    assert rc == 2
    assert f"check error: {name}: " in err and "fails the boundary gate on the cell L=3: " in err
    assert not (tmp_path / "checks.csv").exists()


# |f|^p of a unit-size field overflows or underflows at these exponents
@pytest.mark.parametrize("p", ["1e15", "1e300"])
@pytest.mark.parametrize("name", ["gn", "commutator_leibniz", "commutator_hilbert", "ap_hilbert"])
def test_lebesgue_exponent_out_of_float_range_is_named(tmp_path, capsys, name, p):
    rc, err = _check(name, "p", p, tmp_path, capsys)
    assert rc == 2 and _names("p", err), err
