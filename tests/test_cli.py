import dataclasses
import inspect
import os
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
from dispersivelab.checks import CHECKS, CheckReport
from dispersivelab.propagators import CFLWarning

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

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
stepper.linear_only = false
solve.u0 = gaussian
solve.amplitude = 0.80000000000000004
sweep.jobs = 1
output.dir = out
solve.s = 1
solve.m = 0.5
"""

# every schema key away from its default in one of the two configs (a model
# reads only its own equation keys), plus a check.params table
FULL_CFG = """
command = sweep
seed = 7
equation.model = nls
equation.a = 5
equation.mu = -1
grid.n = 1024
grid.L = 12.5
stepper.dt = 0.0001
stepper.T = 2
stepper.dealias = 0.5
stepper.snapshots = 0, 1, 2
stepper.linear_only = true
solve.u0 = sech2
solve.amplitude = 0.3
solve.s = 1.5
solve.m = 0.25
check.id = gn
check.params.corpus_size = 5
check.params.alpha = 0.25
check.params.p = inf
check.params.q = -inf
check.params.label = word
sweep.checks = gn, leibniz
sweep.jobs = 3
output.dir = results
"""
GKDV_CFG = "equation.model = gkdv\nequation.k = 3\n"


def test_schema_covers_run_config():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert {name for name, _ in _SCHEMA.values()} == fields - {"check_params"}


def test_full_config_round_trip():
    cfg, gkdv = parse_config_text(FULL_CFG), parse_config_text(GKDV_CFG)
    defaults = RunConfig()
    for name, _ in _SCHEMA.values():
        assert any(getattr(c, name) != getattr(defaults, name) for c in (cfg, gkdv)), name
    assert cfg.linear_only is True
    assert cfg.check_params == {
        "corpus_size": 5.0, "alpha": 0.25, "p": np.inf, "q": -np.inf, "label": "word"
    }
    assert parse_config_text(emit_config(cfg)) == cfg
    assert parse_config_text(emit_config(gkdv)) == gkdv


def test_print_config_matches_recorded_text(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(SOLVE_CFG)
    assert main(["--print-config", str(path)]) == 0
    assert capsys.readouterr().out == SOLVE_CFG_PRINTED


@pytest.mark.parametrize("value", ["1", "TRUE", "Yes", "0", "false", "NO"])
def test_linear_only_accepts_flags(value):
    cfg = parse_config_text(f"stepper.linear_only = {value}\n")
    assert cfg.linear_only is (value.lower() in ("1", "true", "yes"))


@pytest.mark.parametrize(
    "text, cause",
    [
        ("command = solve\nstepper.linear_only = maybe\n", "bad value for stepper.linear_only"),
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
        ("command = run\n", "bad value for command: expected solve|check|sweep, got 'run'"),
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
    ],
    ids=[
        "linear_only", "output_dir", "sweep_checks", "negative_T", "snapshot_beyond_T",
        "zero_step_T", "off_model_key", "command", "unknown_u0", "nan_amplitude",
        "inf_amplitude", "nan_s", "inf_s", "negative_m", "nan_m", "inf_a",
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


def test_parse_rejects_invariant_violations():
    with pytest.raises(ConfigError):
        parse_config_text("command = solve\nequation.model = gkdv\nequation.k = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("command = solve\ngrid.n = 100\n")
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config_text("command = check\ncheck.id = bogus\n")


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


def test_check_command_reports(tmp_path):
    cfg_text = (
        "command = check\n"
        "check.id = gamma_identity\n"
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
    cfg_text = "command = check\ncheck.id = scaling\ncheck.params.a = 5.0\n"
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    monkeypatch.setenv("DISPERSIVELAB_SEED", "42")
    rc = run(str(path), out_dir=str(tmp_path / "out"))
    assert rc == 0


def test_bad_seed_env_is_a_config_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sweep.cfg"
    path.write_text("command = sweep\nsweep.checks = scaling\n")
    monkeypatch.setenv("DISPERSIVELAB_SEED", "abc")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: DISPERSIVELAB_SEED='abc' is not an integer\n"
    assert not (tmp_path / "out").exists()


CORPUS_CHECKS = [name for name, fn in CHECKS.items() if "corpus" in inspect.signature(fn).parameters]


# each corpus check at its defaults, then gn under each way a config sets a corpus key
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
    path.write_text(f"command = check\ncheck.id = {name}\n{config}")
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


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_config_check_error_exit_code(tmp_path, capsys, command):
    # gn takes no parameter b: a message on stderr and exit 2, no traceback
    cfg_text = f"command = {command}\ncheck.params.b = 0.5\n" + (
        "check.id = gn\n" if command == "check" else "sweep.checks = leibniz, gn\n"
    )
    path = tmp_path / "run.cfg"
    path.write_text(cfg_text)
    assert run(str(path), out_dir=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("check error: ") and "unknown parameters: ['b']" in err
    assert not (tmp_path / "out" / "checks.csv").exists()


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
        (
            "weighted_free",
            ["t=8"],
            "the free flow fails the boundary gate at t=1, three halvings of t=8 "
            "(outer-cell ratio 3.66e-05 >= 1e-10)",
        ),
        ("leibniz", ["pairs=-3"], "pairs must be nonnegative, got pairs=-3"),
        ("gn", ["corpus_size=-2"], "corpus size must be nonnegative, got corpus_size=-2"),
        ("ap_hilbert", ["corpus_size=-1"], "corpus size must be nonnegative, got corpus_size=-1"),
        ("strichartz", ["T=0"], "horizon must be finite and positive, got T=0.0"),
        ("strichartz", ["T=-1"], "horizon must be finite and positive, got T=-1.0"),
        ("strichartz", ["T=nan"], "horizon must be finite and positive, got T=nan"),
        ("strichartz", ["T=inf"], "horizon must be finite and positive, got T=inf"),
        ("weighted_free", ["t=-0.5"], "time must be finite and nonnegative, got t=-0.5"),
        ("weighted_free", ["t=nan"], "time must be finite and nonnegative, got t=nan"),
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
        ("chirp_stein", ["b=1"], "order must lie in (0,1), got b=1.0"),
        ("chirp_stein", ["t=0"], "chirp time must be finite and positive, got t=0.0"),
        ("weighted_free", ["b=1"], "order must lie in (0,1), got b=1.0"),
        ("gamma_identity", ["b=1.5"], "order must lie in [0,1], got b=1.5"),
        ("leibniz", ["b=0"], "order must lie in (0,1), got b=0.0"),
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
        ("gn", ["r=1"], "exponent r must lie in (1, inf), got r=1.0"),
        ("interpolation", ["a=0"], "orders must be positive and finite, got a=0.0, b=1.0"),
        ("interpolation", ["theta=1.5"], "interpolation parameter must lie in [0,1], got theta=1.5"),
        ("commutator_leibniz", ["alpha=1"], "order must lie in (0,1), got alpha=1.0"),
        ("commutator_leibniz", ["p=1"], "exponent must lie in (1, inf), got p=1.0"),
        ("commutator_hilbert", ["l=0", "m=0"], "need l, m >= 0 with l + m >= 1"),
        ("commutator_hilbert", ["p=inf"], "exponent must lie in (1, inf), got p=inf"),
        ("ap_hilbert", ["p=1"], "exponent must lie in (1, inf), got p=1.0"),
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
        ("interpolation", ["b=inf"], "orders must be positive and finite, got a=1.0, b=inf"),
    ],
)
def test_bad_check_parameter_names_check_and_cause(tmp_path, capsys, name, params, cause):
    argv = ["check", name, *(a for p in params for a in ("--param", p)), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"check error: {name}: {cause}\n"
    assert not (tmp_path / "checks.csv").exists()


def test_param_without_equals_sign_is_rejected(tmp_path, capsys):
    assert main(["check", "scaling", "--param", "a5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "bad --param 'a5', expected KEY=VALUE\n"
    assert not (tmp_path / "checks.csv").exists()


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
    with pytest.warns(CFLWarning), np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "solver failure at t=0.5\n"
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_persistence_fails_on_solver_failure(tmp_path, capsys):
    argv = ["check", "persistence", *(a for p in BLOWUP_PARAMS for a in ("--param", p))]
    with pytest.warns(CFLWarning), np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "persistence: fail (worst_ratio=1)\n"


def test_emit_reports_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_reports([], str(tmp_path))
    r = CheckReport("demo", {"p": 2.0}, 1, 1.0, 1.0, 0.0, [1.0], "report-only")
    path = emit_reports([r], str(tmp_path))
    assert os.path.exists(path)
    assert "report-only" in Path(path).read_text()
