import os

import numpy as np
import pytest

from dispersivelab.cli import (
    ConfigError,
    emit_config,
    emit_reports,
    main,
    parse_config_text,
    run,
)
from dispersivelab.checks import CheckReport

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


def test_emit_reports_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_reports([], str(tmp_path))
    r = CheckReport("demo", {"p": 2.0}, 1, 1.0, 1.0, 0.0, [1.0], "report-only")
    path = emit_reports([r], str(tmp_path))
    assert os.path.exists(path)
    assert "report-only" in open(path).read()
