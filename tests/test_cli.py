import dataclasses
import inspect
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from dispersivelab import cli
from dispersivelab.cli import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    emit_config,
    emit_reports,
    main,
    parse_config_text,
    run,
)
from dispersivelab.checks import CHECKS, CheckReport, _arguments
from dispersivelab.propagators import CFLWarning
from dispersivelab.spectral import Grid

SOLVE_CFG = """
# gKdV short run
command = solve
equation.model = gkdv
equation.k = 1
grid.n = 256
grid.L = 15
stepper.dt = 0.002
stepper.T = 0.1
stepper.snapshots = 0.0, 0.05, 0.1
solve.u0 = gaussian
solve.amplitude = 0.8
solve.s = 1.0
solve.m = 0.5
output.dir = out
"""


def test_parse_and_round_trip():
    cfg = parse_config_text(SOLVE_CFG)
    assert cfg.command == "solve"
    assert cfg.model == "gkdv" and cfg.k == 1
    assert cfg.n == 256 and cfg.L == 15.0
    assert cfg.snapshots == (0.0, 0.05, 0.1)
    echoed = emit_config(cfg)
    again = parse_config_text(echoed)
    assert again == cfg


# --print-config of SOLVE_CFG, recorded before the schema became one table
SOLVE_CFG_PRINTED = """\
command = solve
equation.model = gkdv
equation.a = 3
equation.mu = 1
equation.k = 1
grid.n = 256
grid.L = 15
stepper.dt = 0.002
stepper.T = 0.10000000000000001
stepper.dealias = 0.66666666666666663
stepper.snapshots = 0, 0.050000000000000003, 0.10000000000000001
solve.u0 = gaussian
solve.amplitude = 0.80000000000000004
sweep.jobs = 1
output.dir = out
solve.s = 1
solve.m = 0.5
"""

# every schema key away from its default in one of these configs (a command
# reads only its own keys, a model only its own equation keys), plus a
# check.params table
FULL_SOLVE_CFG = """
command = solve
equation.model = nls
equation.a = 5
equation.mu = -1
grid.n = 1024
grid.L = 12.5
stepper.dt = 0.0001
stepper.T = 2
stepper.dealias = 0.5
stepper.snapshots = 0, 1, 2
solve.u0 = sech2
solve.amplitude = 0.3
solve.s = 1.5
solve.m = 0.25
output.dir = results
"""
GKDV_CFG = "equation.model = gkdv\nequation.k = 3\n"
FULL_SWEEP_CFG = """
command = sweep
seed = 7
check.params.corpus_size = 5
check.params.alpha = 0.25
check.params.p = inf
check.params.q = -inf
check.params.label = word
sweep.checks = gn, leibniz
sweep.jobs = 3
output.dir = results
"""
FULL_CFGS = (FULL_SOLVE_CFG, GKDV_CFG, FULL_SWEEP_CFG)


def test_schema_covers_run_config():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert {name for name, _ in _SCHEMA.values()} == fields - {"check_params"}


def test_full_config_round_trip():
    cfgs = [parse_config_text(text) for text in FULL_CFGS]
    defaults = RunConfig()
    for name, _ in _SCHEMA.values():
        assert any(getattr(c, name) != getattr(defaults, name) for c in cfgs), name
    assert cfgs[-1].check_params == {
        "corpus_size": 5.0, "alpha": 0.25, "p": np.inf, "q": -np.inf, "label": "word"
    }
    for cfg in cfgs:
        assert parse_config_text(emit_config(cfg)) == cfg


def _key_lines(text: str) -> list:
    """The (command, line) pairs of config ``text`` whose line sets a key
    away from its default, but for the keys that both commands read."""
    cfg, default = parse_config_text(text), RunConfig()
    pairs = []
    for line in text.strip().splitlines():
        key = line.partition(" =")[0]
        if key in ("command", "output.dir"):
            continue
        name = _SCHEMA[key][0] if key in _SCHEMA else "check_params"
        if getattr(cfg, name) != getattr(default, name):
            pairs.append((cfg.command, line))
    return pairs


OTHER_COMMAND = {"solve": "sweep", "sweep": "solve"}
MINIMAL_CFG = {
    "solve": "command = solve\nstepper.T = 0.01\n",
    "sweep": "command = sweep\nsweep.checks = scaling\n",
}
KEY_LINES = [pair for text in FULL_CFGS for pair in _key_lines(text)]


@pytest.mark.parametrize(
    "command, line", KEY_LINES, ids=[line.partition(" =")[0] for _, line in KEY_LINES]
)
def test_key_of_the_other_command_is_a_config_error(tmp_path, capsys, command, line):
    other = OTHER_COMMAND[command]
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL_CFG[other] + line + "\n")
    out = tmp_path / "out"
    assert main([other, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    key = line.partition(" =")[0]
    assert err.startswith(f"config error: {path}: {key} = ")
    assert err.endswith(f" is not read by command = {other}\n")
    assert not out.exists()


def test_print_config_matches_recorded_text(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(SOLVE_CFG)
    assert main(["--print-config", str(path)]) == 0
    assert capsys.readouterr().out == SOLVE_CFG_PRINTED


@pytest.mark.parametrize(
    "text, cause",
    [
        ("command = solve\noutput.dir =\n", "bad value for output.dir"),
        ("command = sweep\n", "a sweep needs sweep.checks"),
        ("command = solve\nstepper.T = -1\n", "final time must be finite and nonnegative"),
        (
            "command = solve\nstepper.T = 0.01\nstepper.snapshots = 0, 0.5\n",
            "snapshot times must lie in [0, T=0.01], got snapshots=0, 0.5",
        ),
        (
            "command = solve\nequation.model = gkdv\ngrid.n = 64\nstepper.T = 0.0004\n",
            "final time T=0.0004 rounds to zero steps of dt=0.001",
        ),
        ("command = solve\nequation.model = nls\nequation.k = 3\n", "k=3 is not read by the nls model"),
        ("command = run\n", "bad value for command: expected solve|sweep, got 'run'"),
        ("command = check\n", "bad value for command: expected solve|sweep, got 'check'"),
        (
            "command = solve\nsolve.u0 = bump\n",
            "unknown initial data 'bump'; available: ['gaussian', 'gaussian_deriv', 'sech2']",
        ),
        ("command = solve\nsolve.amplitude = nan\n", "amplitude must be finite, got amplitude=nan"),
        ("command = solve\nsolve.amplitude = inf\n", "amplitude must be finite, got amplitude=inf"),
        ("command = solve\nsolve.s = nan\n", "Sobolev index must be finite, got s=nan"),
        ("command = solve\nsolve.s = inf\n", "Sobolev index must be finite, got s=inf"),
        ("command = solve\nsolve.m = -1\n", "weight exponent must be finite and >= 0, got m=-1.0"),
        ("command = solve\nsolve.m = nan\n", "weight exponent must be finite and >= 0, got m=nan"),
        (
            "command = solve\nequation.model = nls\nequation.a = inf\n",
            "NLS power must satisfy 1 < a < inf, got a=inf",
        ),
        ("command = solve\ngrid.n = 131072\n", "n must be at most 65536, got n=131072"),
        ("command = solve\nstepper.T = 1e15\n", "T/dt must be at most 1000000, got T/dt=1e+18"),
        (
            "command = solve\nequation.model = gkdv\nequation.k = 1000000000\n",
            "k must be at most 100, got k=1000000000",
        ),
    ],
    ids=[
        "output_dir", "sweep_checks", "negative_T", "snapshot_beyond_T",
        "zero_step_T", "off_model_key", "command", "check_command", "unknown_u0",
        "nan_amplitude",
        "inf_amplitude", "nan_s", "inf_s", "negative_m", "nan_m", "inf_a",
        "work_n", "work_steps", "work_k",
    ],
)
def test_bad_config_message_and_exit_code(tmp_path, capsys, text, cause):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and cause in err


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("command = solve\nwhatever = 3\n")


def test_parse_rejects_duplicate_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("grid.n = 256\ngrid.n = 512\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("this is not a key value line\n")


def test_parse_rejects_a_duplicate_check_parameter():
    text = "command = sweep\ncheck.params.a = 9\ncheck.params.a = 13\nsweep.checks = scaling\n"
    with pytest.raises(ConfigError, match=r"^<config>:3: duplicate key 'check.params.a' \(first at line 2\)$"):
        parse_config_text(text)


def test_parse_rejects_invariant_violations():
    with pytest.raises(ConfigError):
        parse_config_text("command = solve\nequation.model = gkdv\nequation.k = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("command = solve\ngrid.n = 100\n")
    with pytest.raises(ConfigError, match="unknown sweep check 'bogus'"):
        parse_config_text("command = sweep\nsweep.checks = bogus\n")


def test_solve_writes_trajectory_and_curves(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SOLVE_CFG)
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    assert rc == 0
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header[0] == "t"
    assert "I2" in header and "sobolev_1" in header and "weighted_0.5" in header
    assert len(csv) == 1 + 3  # header + three snapshots
    curves = sorted(p.name for p in (tmp_path / "out").iterdir() if p.suffix == ".dat")
    assert "trajectory_I2.dat" in curves
    # time column of every curve is monotone
    for name in curves:
        rows = (tmp_path / "out" / name).read_text().split()
        times = np.array([float(v) for v in rows[::2]])
        assert np.all(np.diff(times) > 0)


def test_empty_snapshots_single_row(tmp_path):
    cfg_text = SOLVE_CFG.replace("stepper.snapshots = 0.0, 0.05, 0.1\n", "")
    cfg_text = cfg_text.replace("stepper.T = 0.1", "stepper.T = 0.0")
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    assert rc == 0
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(csv) == 2


def test_infinite_step_size_is_a_config_error(tmp_path, capsys):
    # T = 0 passes the time checks at any dt; the step size itself is
    # refused before any phase or CFL ratio is formed from it
    path = tmp_path / "run.cfg"
    path.write_text(
        "command = solve\nequation.model = gkdv\ngrid.n = 64\nstepper.dt = inf\nstepper.T = 0\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert not caught
    message = "step size must be positive and finite, got dt=inf"
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not out.exists()


def test_check_command_reports(tmp_path):
    cfg_text = (
        "command = sweep\n"
        "sweep.checks = gamma_identity\n"
        "check.params.b = 1.0\n"
        "check.params.t = 0.5\n"
    )
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    assert rc == 0
    rows = (tmp_path / "out" / "checks.csv").read_text().splitlines()
    assert rows[0].startswith("check_id,params,")
    assert rows[1].startswith("gamma_identity,")
    assert rows[1].rstrip().endswith("pass")


def test_sweep_runs_concurrently(tmp_path):
    cfg_text = (
        "command = sweep\n"
        "sweep.checks = scaling, strichartz\n"
        "sweep.jobs = 2\n"
    )
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    assert rc == 0
    rows = (tmp_path / "out" / "checks.csv").read_text().splitlines()
    assert len(rows) == 3


@pytest.mark.parametrize("flag, jobs", [([], 2), (["--jobs", "1"], 1)])
def test_sweep_subcommand_takes_jobs_from_config_unless_given(tmp_path, monkeypatch, flag, jobs):
    seen = []
    monkeypatch.setattr(cli, "_run_checks", lambda names, params, out, jobs=1: seen.append(jobs) or 0)
    path = tmp_path / "run.cfg"
    path.write_text("command = sweep\nsweep.checks = scaling, strichartz\nsweep.jobs = 2\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), *flag]) == 0
    assert seen == [jobs]


def test_byte_identical_reruns(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SOLVE_CFG)
    rc1 = run(str(path), out_dir=str(tmp_path / "out1"))
    rc2 = run(str(path), out_dir=str(tmp_path / "out2"))
    assert rc1 == rc2 == 0
    a = (tmp_path / "out1" / "trajectory.csv").read_bytes()
    b = (tmp_path / "out2" / "trajectory.csv").read_bytes()
    assert a == b


def test_seed_env_override(tmp_path, monkeypatch):
    cfg_text = "command = sweep\nsweep.checks = scaling\ncheck.params.a = 5.0\n"
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    monkeypatch.setenv("DISPERSIVELAB_SEED", "42")
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    assert rc == 0


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["solve"],
            "command = sweep\nsweep.checks = scaling\n",
            "command = sweep runs under 'sweep --config', not 'solve --config'",
        ),
        (
            ["sweep", "--jobs", "2"],
            "command = solve\nstepper.T = 0.01\n",
            "command = solve runs under 'solve --config', not 'sweep --config'",
        ),
    ],
    ids=["sweep_under_solve", "solve_under_sweep"],
)
def test_subcommand_runs_only_its_commands(tmp_path, capsys, argv, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not out.exists()


NON_UTF8_SWEEP = b"command = sweep\nsweep.checks = scaling  # \xff\n"
NON_UTF8_CAUSE = "config error: cannot read config: 'utf-8' codec can't decode byte 0xff"
EMPTY_OUT_CAUSE = "config error: --out: the path is empty\n"
FILE_OUT_CAUSE = "config error: cannot create the output directory: [Errno 17] File exists: '{tmp}/run.cfg'\n"


@pytest.mark.parametrize(
    "argv, text, cause",
    [
        (["solve", "--config", "{tmp}/missing.cfg"], None, "config error: cannot read config: "),
        (["--print-config", "{tmp}/run.cfg"], "grid.n = 100\n", "power of two >= 8, got n=100"),
        (["sweep", "--config", "{tmp}/run.cfg"], "command = sweep\nsweep.checks = nosuch\n",
         "unknown sweep check 'nosuch'"),
        ([], None, "a subcommand is required: solve, check or sweep"),
        (["sweep", "--config", "{tmp}/run.cfg"], "command = sweep\nsweep.checks = scaling\n"
         "sweep.jobs = -1\n", "a sweep needs at least one worker, got jobs=-1"),
        (["sweep", "--config", "{tmp}/run.cfg", "--jobs", "0"],
         "command = sweep\nsweep.checks = scaling\n",
         "--jobs: a sweep needs at least one worker, got jobs=0"),
        (["sweep", "--config", "{tmp}/run.cfg"], NON_UTF8_SWEEP, NON_UTF8_CAUSE),
        (["--print-config", "{tmp}/run.cfg"], NON_UTF8_SWEEP, NON_UTF8_CAUSE),
        (["check", "scaling", "--out", ""], None, EMPTY_OUT_CAUSE),
        (["solve", "--config", "{tmp}/run.cfg", "--out", ""],
         "command = solve\nstepper.T = 0.01\noutput.dir = {tmp}/out\n", EMPTY_OUT_CAUSE),
        (["sweep", "--config", "{tmp}/run.cfg", "--out", ""],
         "command = sweep\nsweep.checks = scaling\noutput.dir = {tmp}/out\n", EMPTY_OUT_CAUSE),
        (["check", "scaling", "--out", "{tmp}/run.cfg"], "a file\n", FILE_OUT_CAUSE),
        (["solve", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run.cfg"],
         "command = solve\nstepper.T = 0.01\n", FILE_OUT_CAUSE),
        (["sweep", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run.cfg"],
         "command = sweep\nsweep.checks = scaling\n", FILE_OUT_CAUSE),
        # a diagnostic that cannot be evaluated stops a solve before its first step
        (["solve", "--config", "{tmp}/run.cfg"],
         "command = solve\nstepper.T = 0.01\nsolve.s = 400\noutput.dir = {tmp}/out\n",
         "config error: {tmp}/run.cfg: multiplier is not finite at xi=5.81195"),
        (["solve", "--config", "{tmp}/run.cfg"],
         "command = solve\nstepper.T = 0.01\nsolve.m = 200\noutput.dir = {tmp}/out\n",
         "config error: {tmp}/run.cfg: the weight |x|^(2m) overflows on the cell L=20, "
         "got m=200.0\n"),
        (["solve", "--config", "{tmp}/run.cfg"],
         "command = solve\nstepper.T = 0.01\nsolve.s = 400\noutput.dir = {tmp}/out\n",
         "config error: {tmp}/run.cfg: multiplier is not finite at xi=5.81195 (index 37); "
         "bessel_potential overflows there at s=400\n"),
        # an invariant that overflows on the initial data names itself
        (["solve", "--config", "{tmp}/run.cfg"],
         "command = solve\nequation.model = nls\nstepper.T = 0.01\nsolve.amplitude = 1e160\n"
         "output.dir = {tmp}/out\n",
         "config error: {tmp}/run.cfg: the nls invariant mass overflows at max|u|=1e+160\n"),
        (["solve", "--config", "{tmp}/run.cfg"],
         "command = solve\nequation.model = bo\nstepper.T = 0.01\nsolve.u0 = gaussian_deriv\n"
         "solve.amplitude = 1e200\noutput.dir = {tmp}/out\n",
         "config error: {tmp}/run.cfg: the bo invariant I2 overflows at max|u|=8.58e+199\n"),
        (["solve", "--config", "{tmp}/run.cfg"],
         "command = solve\nequation.model = nls\nstepper.T = 0.01\nsolve.amplitude = 1e100\n"
         "output.dir = {tmp}/out\n",
         "config error: {tmp}/run.cfg: the nls invariant energy overflows at max|u|=1e+100\n"),
    ],
    ids=[
        "unreadable_config",
        "print_bad_config",
        "unknown_sweep_check",
        "no_subcommand",
        "config_jobs_below_one",
        "flag_jobs_below_one",
        "sweep_non_utf8_config",
        "print_non_utf8_config",
        "check_empty_out",
        "solve_empty_out",
        "sweep_empty_out",
        "check_out_is_a_file",
        "solve_out_is_a_file",
        "sweep_out_is_a_file",
        "solve_sobolev_overflow",
        "solve_weight_overflow",
        "solve_sobolev_overflow_names_s",
        "solve_nls_mass_overflow",
        "solve_bo_i2_overflow",
        "solve_nls_energy_overflow",
    ],
)
def test_cli_input_errors_exit_2(tmp_path, capsys, argv, text, cause):
    if isinstance(text, bytes):
        (tmp_path / "run.cfg").write_bytes(text)
    elif text is not None:
        (tmp_path / "run.cfg").write_text(text.format(tmp=tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    # an input error goes to stderr, with nothing on stdout: no check or
    # solve has run, and no output directory is made
    assert cause.format(tmp=tmp_path) in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_bad_seed_env_is_a_config_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("command = sweep\nsweep.checks = scaling\n")
    monkeypatch.setenv("DISPERSIVELAB_SEED", "abc")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: DISPERSIVELAB_SEED='abc' is not an integer\n"
    assert not (tmp_path / "out").exists()


CORPUS_CHECKS = [name for name, fn in CHECKS.items() if "corpus" in inspect.signature(fn).parameters]


# each corpus check at its defaults, then gn under each way a config sets a
# corpus key: a one-check sweep writes the check command's checks.csv
@pytest.mark.parametrize(
    "name, config, env, params",
    [(name, "", None, []) for name in CORPUS_CHECKS]
    + [
        ("gn", "seed = 7\n", None, ["seed=7"]),
        ("gn", "check.params.corpus_size = 4\n", None, ["corpus_size=4"]),
        ("gn", "", "7", ["seed=7"]),
    ],
    ids=CORPUS_CHECKS + ["gn_seed", "gn_corpus_size", "gn_seed_env"],
)
def test_config_check_equals_check_command(tmp_path, monkeypatch, name, config, env, params):
    if env is not None:
        monkeypatch.setenv("DISPERSIVELAB_SEED", env)
    path = tmp_path / "run.cfg"
    path.write_text(f"command = sweep\nsweep.checks = {name}\n{config}")
    assert run(str(path), out_dir=str(tmp_path / "cfg")) == 0
    argv = ["check", name, *(a for p in params for a in ("--param", p))]
    assert main([*argv, "--out", str(tmp_path / "cli")]) == 0
    csv = [(tmp_path / out / "checks.csv").read_bytes() for out in ("cfg", "cli")]
    assert csv[0] == csv[1]


def test_main_print_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(SOLVE_CFG)
    rc = main(["--print-config", str(path)])
    assert rc == 0
    echoed = capsys.readouterr().out
    assert parse_config_text(echoed) == parse_config_text(SOLVE_CFG)


def test_main_check_with_params(tmp_path, capsys):
    rc = main(
        [
            "check",
            "gamma_identity",
            "--param",
            "b=1.0",
            "--param",
            "t=0.5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_main_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("command = solve\nequation.model = gkdv\nequation.k = 0\n")
    assert main(["solve", "--config", str(path)]) == 2


@pytest.mark.parametrize("checks", ["gn", "leibniz, gn"], ids=["check", "sweep"])
def test_config_check_error_exit_code(tmp_path, capsys, checks):
    # gn takes no parameter b: a message on stderr and exit 2, no traceback
    cfg_text = f"command = sweep\ncheck.params.b = 0.5\nsweep.checks = {checks}\n"
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    assert run(str(path), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("check error: ") and "unknown parameters: ['b']" in err
    assert not (tmp_path / "out" / "checks.csv").exists()


def _reworded(i: int, name: str, params: list, old: str, new: str):
    """Row ``i`` of the table below, whose message ``old`` is now ``new``:
    its id keeps the old message, then names the new one."""
    return pytest.param(name, params, new, id=f"{name}-params{i}-{old} -> {new}")


@pytest.mark.parametrize(
    "name, params, cause",
    [
        ("persistence", ["model=foo"], "unknown model 'foo'"),
        ("commutator_hilbert", ["l=1.5"], "l=1.5 is not an integer"),
        ("commutator_hilbert", ["l=inf"], "l=inf is not an integer"),
        ("persistence", ["model=gkdv", "k=2.5"], "k=2.5 is not an integer"),
        ("persistence", ["mu=0.5"], "mu=0.5 is not an integer"),
        ("chirp_stein", ["t=abc"], "t='abc' is not a number"),
        ("scaling", ["a=x"], "a='x' is not a number"),
        ("leibniz", ["corpus_size=2.7"], "corpus_size=2.7 is not an integer"),
        ("chirp_stein", ["n=512.5", "L=30"], "n=512.5 is not an integer"),
        ("persistence", ["model=bo", "a=5"], "a=5.0 is not read by the bo model"),
        ("persistence", ["model=nls", "k=2"], "k=2 is not read by the nls model"),
        ("scaling", ["b=1"], "unknown parameters: ['b']"),
        _reworded(
            12,
            "weighted_free",
            ["t=8"],
            "the free flow fails the boundary gate at t=1, three halvings of t=8 "
            "(outer-cell ratio 3.66e-05 >= 1e-10)",
            "the free flow at t=1, three halvings of t=8, fails the boundary gate on the cell "
            "L=20: outer-cell ratio 3.66e-05 >= 1e-10",
        ),
        _reworded(13, "leibniz", ["pairs=-3"], "pairs must be nonnegative, got pairs=-3", "pairs must lie in [0, inf), got pairs=-3"),
        ("gn", ["corpus_size=-2"], "corpus size must be nonnegative, got corpus_size=-2"),
        ("ap_hilbert", ["corpus_size=-1"], "corpus size must be nonnegative, got corpus_size=-1"),
        _reworded(16, "strichartz", ["T=0"], "horizon must be finite and positive, got T=0.0", "T must lie in (0, inf), got T=0.0"),
        _reworded(17, "strichartz", ["T=-1"], "horizon must be finite and positive, got T=-1.0", "T must lie in (0, inf), got T=-1.0"),
        _reworded(18, "strichartz", ["T=nan"], "horizon must be finite and positive, got T=nan", "T must lie in (0, inf), got T=nan"),
        _reworded(19, "strichartz", ["T=inf"], "horizon must be finite and positive, got T=inf", "T must lie in (0, inf), got T=inf"),
        _reworded(20, "weighted_free", ["t=-0.5"], "time must be finite and nonnegative, got t=-0.5", "t must lie in [0, inf), got t=-0.5"),
        _reworded(21, "weighted_free", ["t=nan"], "time must be finite and nonnegative, got t=nan", "t must lie in [0, inf), got t=nan"),
        ("gamma_identity", ["t=nan"], "group time must be finite, got t=nan"),
        ("gamma_identity", ["t=inf"], "group time must be finite, got t=inf"),
        (
            "ap_hilbert",
            ["alpha=nan"],
            "power weight needs a finite alpha > -1 to be locally integrable, got alpha=nan",
        ),
        (
            "ap_hilbert",
            ["alpha=inf"],
            "power weight needs a finite alpha > -1 to be locally integrable, got alpha=inf",
        ),
        ("gn", ["seed=-1"], "corpus seed must be nonnegative, got seed=-1"),
        ("persistence", ["m=-inf"], "weight exponent must be finite and >= 0, got m=-inf"),
        ("persistence", ["m=nan"], "weight exponent must be finite and >= 0, got m=nan"),
        ("persistence", ["s=nan"], "Sobolev index must be finite, got s=nan"),
        ("persistence", ["amplitude=nan"], "amplitude must be finite, got amplitude=nan"),
        (
            "strichartz",
            ["q=nan"],
            "inadmissible pair (q=nan, p=4.0): need 2/q + 1/p = 1/2 in one dimension",
        ),
        (
            "strichartz",
            ["p=nan"],
            "inadmissible pair (q=8.0, p=nan): need 2/q + 1/p = 1/2 in one dimension",
        ),
        _reworded(33, "chirp_stein", ["b=1"], "order must lie in (0,1), got b=1.0", "b must lie in (0, 1), got b=1.0"),
        _reworded(34, "chirp_stein", ["t=0"], "chirp time must be finite and positive, got t=0.0", "t must lie in (0, inf), got t=0.0"),
        _reworded(35, "weighted_free", ["b=1"], "order must lie in (0,1), got b=1.0", "b must lie in (0, 1), got b=1.0"),
        _reworded(36, "gamma_identity", ["b=1.5"], "order must lie in [0,1], got b=1.5", "b must lie in [0, 1], got b=1.5"),
        _reworded(37, "leibniz", ["b=0"], "order must lie in (0,1), got b=0.0", "b must lie in (0, 1), got b=0.0"),
        (
            "gn",
            ["alpha=1", "beta=0.5"],
            "orders must satisfy 0 <= alpha < beta < inf, got alpha=1.0, beta=0.5",
        ),
        (
            "gn",
            ["alpha=0", "beta=0.25", "q=2", "r=4"],
            "no admissible interpolation exponent for these indices",
        ),
        _reworded(40, "gn", ["r=1"], "exponent r must lie in (1, inf), got r=1.0", "r must lie in (1, inf), got r=1.0"),
        _reworded(41, "interpolation", ["a=0"], "orders must be positive and finite, got a=0.0, b=1.0", "a must lie in (0, inf), got a=0.0"),
        _reworded(42, "interpolation", ["theta=1.5"], "interpolation parameter must lie in [0,1], got theta=1.5", "theta must lie in [0, 1], got theta=1.5"),
        _reworded(43, "commutator_leibniz", ["alpha=1"], "order must lie in (0,1), got alpha=1.0", "alpha must lie in (0, 1), got alpha=1.0"),
        _reworded(44, "commutator_leibniz", ["p=1"], "exponent must lie in (1, inf), got p=1.0", "p must lie in (1, inf), got p=1.0"),
        _reworded(45, "commutator_hilbert", ["l=0", "m=0"], "need l, m >= 0 with l + m >= 1", "need l + m >= 1, got l=0, m=0"),
        _reworded(46, "commutator_hilbert", ["p=inf"], "exponent must lie in (1, inf), got p=inf", "p must lie in (1, inf), got p=inf"),
        _reworded(47, "ap_hilbert", ["p=1"], "exponent must lie in (1, inf), got p=1.0", "p must lie in (1, inf), got p=1.0"),
        ("scaling", ["a=inf"], "NLS power must satisfy 1 < a < inf, got a=inf"),
        ("persistence", ["a=inf"], "NLS power must satisfy 1 < a < inf, got a=inf"),
        (
            "strichartz",
            ["q=0"],
            "inadmissible pair (q=0.0, p=4.0): need 2/q + 1/p = 1/2 in one dimension",
        ),
        (
            "strichartz",
            ["p=0"],
            "inadmissible pair (q=8.0, p=0.0): need 2/q + 1/p = 1/2 in one dimension",
        ),
        ("gn", ["beta=inf"], "orders must satisfy 0 <= alpha < beta < inf, got alpha=0.5, beta=inf"),
        _reworded(53, "interpolation", ["b=inf"], "orders must be positive and finite, got a=1.0, b=inf", "b must lie in (0, inf), got b=inf"),
        # an integer literal beyond the float range reads as inf, as its digits do
        ("scaling", [f"a={10**400}"], "NLS power must satisfy 1 < a < inf, got a=inf"),
        (
            "gamma_identity",
            ["t=2"],
            "the free flow U(t)f at t=2 fails the boundary gate on the cell L=20: "
            "outer-cell ratio 7.25e-03 >= 1e-10",
        ),
        ("interpolation", ["b=400"], "the weight <x>^(2b) overflows on the cell L=20, got b=400.0"),
        (
            "gamma_identity",
            ["b=1", "t=0.9"],
            "the weighted flow U(t)(x f) at t=0.9 fails the boundary gate on the cell L=20: "
            "outer-cell ratio 9.17e-10 >= 1e-10",
        ),
        (
            "persistence",
            ["s=400"],
            "multiplier is not finite at xi=5.81195 (index 37); "
            "bessel_potential overflows there at s=400",
        ),
        (
            "interpolation",
            ["a=400"],
            "the multiplier J^a overflows on the refined lattice |xi| <= 80.4248, got a=400.0",
        ),
        ("interpolation", ["a=100"], "the norm ||J^a f|| overflows on the grid n=1024, got a=100.0"),
        ("interpolation", ["a=150"], "the norm ||J^a f|| overflows on the grid n=512, got a=150.0"),
        ("persistence", ["amplitude=1e200"], "the nls invariant mass overflows at max|u|=1e+200"),
        # an order whose multiplier overflows is named as its key
        (
            "gn",
            ["beta=1e15"],
            "the multiplier D^beta overflows on the refined lattice |xi| <= 80.4248, "
            "got beta=1000000000000000.0",
        ),
        (
            "commutator_hilbert",
            ["l=1e15"],
            "the multiplier d^(l+m) overflows on the refined lattice |xi| <= 80.4248, "
            "got l=1000000000000000, m=0",
        ),
        (
            "commutator_hilbert",
            ["m=1e15"],
            "the multiplier d^(l+m) overflows on the refined lattice |xi| <= 80.4248, "
            "got l=1, m=1000000000000000",
        ),
        # a cell where a field or a sum leaves the float range is named as L
        *(
            (name, ["L=1e300"], f"corpus member {member!r} at scale={scale} leaves the float "
             "range on the cell L=1e+300")
            for name, member, scale in (
                ("strichartz", "gaussian", 1),
                ("scaling", "gaussian", 0.5),
                ("weighted_free", "rand_cplx_0", 1),
                ("leibniz", "gaussian", 1),
                ("gn", "rand_cplx_0", 1),
                ("commutator_leibniz", "rand_cplx_0", 1),
                ("commutator_hilbert", "gaussian", 1),
                ("ap_hilbert", "rand_cplx_0", 1),
            )
        ),
        ("chirp_stein", ["L=1e-300"], "the square function overflows on the cell L=1e-300 at b=0.5"),
        # a group time whose phase angles carry no digit is not resolvable
        (
            "strichartz",
            ["T=1e300"],
            "the nls group phase at t=1e+300 is not resolvable on the lattice |xi| <= 40.2124: "
            "its angles round by 3.59e+287 rad, above 0.001",
        ),
        # an int order beyond the float range, 10^400, is named as its key
        *(
            pytest.param(
                "commutator_hilbert",
                [f"{key}={10**400}"],
                f"the multiplier d^(l+m) overflows on the refined lattice |xi| <= 80.4248, got {got}",
                id=f"commutator_hilbert-{key}=10^400",
            )
            for key, got in (("l", f"l={10**400}, m=0"), ("m", f"l=1, m={10**400}"))
        ),
        # the gKdV degree is a work key; its bound comes before the model's own rule
        ("persistence", ["model=gkdv", "k=1e15"], "k must be at most 100, got k=1000000000000000"),
        ("persistence", ["model=nls", "k=1e15"], "k must be at most 100, got k=1000000000000000"),
    ],
)
def test_bad_check_parameter_names_check_and_cause(tmp_path, capsys, name, params, cause):
    argv = ["check", name, *(a for p in params for a in ("--param", p)), "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == f"check error: {name}: {cause}\n"
    assert not (tmp_path / "checks.csv").exists()


def test_wide_cell_passes_without_a_warning(tmp_path, capsys):
    """sech2 at |x| > 355, where cosh(x)^2 overflows to its exact reciprocal
    0, is sampled without a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", "interpolation", "--param", "L=400", "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().out.startswith("interpolation: pass ")


@pytest.mark.parametrize("name, params", [("chirp_stein", ["t=1e-170"])])  # a trend of zeros
def test_degenerate_check_gets_a_verdict(tmp_path, capsys, name, params):
    argv = ["check", name, *(a for p in params for a in ("--param", p)), "--out", str(tmp_path)]
    assert main(argv) in (0, 1)
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{name}: ") and captured.err == ""


def test_param_without_equals_sign_is_rejected(tmp_path, capsys):
    assert main(["check", "scaling", "--param", "a5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "bad --param 'a5', expected KEY=VALUE\n"
    assert not (tmp_path / "checks.csv").exists()


def test_repeated_param_is_rejected(tmp_path, capsys):
    assert main(["check", "scaling", "--param", "a=9", "--param", "a=13", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "bad --param 'a=13', duplicate key 'a'\n"
    assert not (tmp_path / "checks.csv").exists()


BIG = 2**53 + 1  # the first integer that a float cannot hold


@pytest.mark.parametrize(
    "text, value",
    [
        (str(BIG), BIG),
        ("3", 3),
        ("-5", -5),
        ("0", 0),
        ("-0", -0.0),  # a signed zero keeps its sign as a float
        ("-0.0", -0.0),
        ("2.5", 2.5),
        ("1e3", 1000.0),
        ("inf", float("inf")),
        ("nls", "nls"),
    ],
)
def test_parse_scalar_reads_integer_literals_exactly(text, value):
    got = cli._parse_scalar(text)
    assert type(got) is type(value) and repr(got) == repr(value)


def _check_params(monkeypatch, argv) -> dict:
    """The parameter table that ``main(argv)`` passes to its checks."""
    seen = []
    monkeypatch.setattr(cli, "_run_checks", lambda names, params, out, jobs=1: seen.append(params) or 0)
    assert main(argv) == 0
    return seen[0]


@pytest.mark.parametrize("where", ["--param", "check.params.seed", "seed"])
def test_integer_seed_reaches_the_checks_exactly(tmp_path, monkeypatch, where):
    if where == "--param":
        argv = ["check", "gn", "--param", f"seed={BIG}"]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"command = sweep\nsweep.checks = gn\n{where} = {BIG}\n")
        argv = ["sweep", "--config", str(path)]
    params = _check_params(monkeypatch, [*argv, "--out", str(tmp_path / "out")])
    assert params == {"seed": BIG} and type(params["seed"]) is int
    assert _arguments(CHECKS["gn"], params, {})[1]["corpus"].seed == BIG


def test_bench_parameters_reach_the_checks_unchanged(tmp_path, monkeypatch):
    # the parameters of a refine op: a corpus seed, n and a float's repr as L
    argv = ["check", "gn", *("--param", "seed=101", "--param", "n=4096", "--param", "L=40.0")]
    params = _check_params(monkeypatch, [*argv, "--out", str(tmp_path)])
    assert params == {"seed": 101, "n": 4096, "L": 40.0}
    assert [type(v) for v in params.values()] == [int, int, float]
    _, kwargs = _arguments(CHECKS["gn"], params, {})
    assert kwargs["grid"] == Grid(4096, 40.0) and kwargs["corpus"].seed == 101


def test_integer_literal_of_a_string_parameter_keeps_its_digits(tmp_path, capsys):
    assert main(["check", "persistence", "--param", "model=3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "check error: persistence: unknown model '3'\n"


# the focusing quintic at a grossly unstable step: the stepper fails at t=0.5
BLOWUP_CFG = """
command = solve
equation.model = nls
equation.a = 5
equation.mu = -1
grid.n = 128
grid.L = 10
stepper.dt = 0.5
stepper.T = 50
solve.amplitude = 40
"""
BLOWUP_PARAMS = ["model=nls", "a=5", "mu=-1", "n=128", "L=10", "dt=0.5", "T=50", "amplitude=40"]


def test_solve_reports_solver_failure(tmp_path, capsys):
    path = tmp_path / "blowup.cfg"
    path.write_text(BLOWUP_CFG)
    with pytest.warns(CFLWarning):
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "solver failure at t=0.5\n"
    assert (tmp_path / "out" / "trajectory.csv").exists()


# gKdV and BO at amplitude 400 blow up within the first snapshots, and an
# invariant overflows after t = 0, where the parse-time probe does not look
DIVERGING_CFG = """
command = solve
equation.model = {model}
equation.k = 1
grid.n = 512
grid.L = 20
stepper.dt = 0.001
stepper.T = 0.05
stepper.snapshots = 0, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05
solve.amplitude = 400
"""
DIVERGING_CAUSES = {
    "gkdv": "the gkdv invariant I3 overflows at max|u|=8.95e+119",
    "bo": "the bo invariant I2 overflows at max|u|=8.57e+262",
}


@pytest.mark.parametrize("model", sorted(DIVERGING_CAUSES))
def test_invariant_overflowing_after_t0_is_a_solver_failure(tmp_path, capsys, model):
    """Exit 1 naming the cause after the CFL warning, and no trajectory."""
    path = tmp_path / "diverging.cfg"
    path.write_text(DIVERGING_CFG.format(model=model))
    with pytest.warns(CFLWarning):
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"solver failure: {DIVERGING_CAUSES[model]}\n"
    assert not any((tmp_path / "out").iterdir())


def test_persistence_fails_on_solver_failure(tmp_path, capsys):
    argv = ["check", "persistence", *(a for p in BLOWUP_PARAMS for a in ("--param", p))]
    with pytest.warns(CFLWarning):
        assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "persistence: fail (worst_ratio=1)\n"


def test_emit_reports_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_reports([], str(tmp_path))
    r = CheckReport("demo", {"p": 2.0}, 1, 1.0, 1.0, 0.0, [1.0], "report-only")
    path = emit_reports([r], str(tmp_path))
    assert os.path.exists(path)
    assert "report-only" in Path(path).read_text()
