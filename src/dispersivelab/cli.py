"""Batch front-end: flat-file run configurations, solver dispatch, CSV and
curve-file emission.

Config format: `key = value` lines, `#` comments, dotted section keys:

    command = solve
    equation.model = gkdv
    equation.k = 1
    grid.n = 512
    grid.L = 20
    stepper.dt = 0.001
    stepper.T = 1.0
    stepper.snapshots = 0.0, 0.5, 1.0
    solve.u0 = gaussian
    solve.amplitude = 1.0
    output.dir = out

Values are scalars or comma-separated lists; floats are emitted with 17
significant digits so a printed config re-parses to the identical run.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import CHECKS, CheckReport, run_check
from .corpus import DEFAULT_SEED, gaussian, gaussian_deriv, sech2
from .laws import standard_diagnostics
from .propagators import EquationSpec, StepperConfig, evolve
from .spectral import Field, Grid

SEED_ENV = "DISPERSIVELAB_SEED"

_U0_LIBRARY = {"gaussian": gaussian, "sech2": sech2, "gaussian_deriv": gaussian_deriv}

_KNOWN_KEYS = {
    "command",
    "seed",
    "equation.model",
    "equation.a",
    "equation.mu",
    "equation.k",
    "grid.n",
    "grid.L",
    "stepper.dt",
    "stepper.T",
    "stepper.dealias",
    "stepper.snapshots",
    "stepper.linear_only",
    "solve.u0",
    "solve.amplitude",
    "solve.s",
    "solve.m",
    "check.id",
    "check.corpus_size",
    "sweep.checks",
    "sweep.jobs",
    "output.dir",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = "solve"
    model: str = "gkdv"
    a: float = 3.0
    mu: int = 1
    k: int = 1
    n: int = 512
    L: float = 20.0
    dt: float = 1e-3
    T: float = 1.0
    dealias: float = 2.0 / 3.0
    linear_only: bool = False
    snapshots: tuple = ()
    u0: str = "gaussian"
    amplitude: float = 1.0
    s: float | None = None
    m: float | None = None
    check_id: str = ""
    check_params: dict = field(default_factory=dict)
    corpus_size: int = 20
    seed: int = DEFAULT_SEED
    sweep_checks: tuple = ()
    jobs: int = 1
    out_dir: str = "out"

    def equation_spec(self) -> EquationSpec:
        if self.model == "nls":
            return EquationSpec.nls(a=self.a, mu=self.mu)
        if self.model == "gkdv":
            return EquationSpec.gkdv(k=self.k)
        if self.model == "bo":
            return EquationSpec.bo()
        raise ConfigError(f"unknown equation model {self.model!r}")


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("check.params."):
            cfg.check_params[key[len("check.params."):]] = _parse_scalar(value, path, lineno)
            continue
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = lineno
        _assign(cfg, key, value, path, lineno)
    _validate(cfg, path)
    return cfg


def _parse_scalar(value: str, path: str, lineno: int):
    low = value.lower()
    if low in ("inf", "+inf"):
        return np.inf
    try:
        f = float(value)
    except ValueError:
        return value  # bare string parameter
    return f


def _assign(cfg: RunConfig, key: str, value: str, path: str, lineno: int):
    try:
        if key == "command":
            if value not in ("solve", "check", "sweep"):
                raise ConfigError(f"command must be solve|check|sweep, got {value!r}")
            cfg.command = value
        elif key == "seed":
            cfg.seed = int(value)
        elif key == "equation.model":
            cfg.model = value
        elif key == "equation.a":
            cfg.a = float(value)
        elif key == "equation.mu":
            cfg.mu = int(value)
        elif key == "equation.k":
            cfg.k = int(value)
        elif key == "grid.n":
            cfg.n = int(value)
        elif key == "grid.L":
            cfg.L = float(value)
        elif key == "stepper.dt":
            cfg.dt = float(value)
        elif key == "stepper.T":
            cfg.T = float(value)
        elif key == "stepper.dealias":
            cfg.dealias = float(value)
        elif key == "stepper.linear_only":
            cfg.linear_only = value.lower() in ("1", "true", "yes")
        elif key == "stepper.snapshots":
            cfg.snapshots = tuple(float(v) for v in value.split(",") if v.strip())
        elif key == "solve.u0":
            cfg.u0 = value
        elif key == "solve.amplitude":
            cfg.amplitude = float(value)
        elif key == "solve.s":
            cfg.s = float(value)
        elif key == "solve.m":
            cfg.m = float(value)
        elif key == "check.id":
            cfg.check_id = value
        elif key == "check.corpus_size":
            cfg.corpus_size = int(value)
        elif key == "sweep.checks":
            cfg.sweep_checks = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "sweep.jobs":
            cfg.jobs = int(value)
        elif key == "output.dir":
            cfg.out_dir = value
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc


def _validate(cfg: RunConfig, path: str):
    # surface module invariant violations at parse time
    try:
        cfg.equation_spec()
        Grid(cfg.n, cfg.L)
        StepperConfig(dt=cfg.dt, dealias=cfg.dealias, linear_only=cfg.linear_only)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.command == "solve" and cfg.u0 not in _U0_LIBRARY:
        raise ConfigError(
            f"{path}: unknown initial data {cfg.u0!r}; available: {sorted(_U0_LIBRARY)}"
        )
    if cfg.command == "check" and cfg.check_id not in CHECKS:
        raise ConfigError(
            f"{path}: unknown check {cfg.check_id!r}; available: {sorted(CHECKS)}"
        )
    if cfg.command == "sweep":
        for name in cfg.sweep_checks:
            if name not in CHECKS:
                raise ConfigError(f"{path}: unknown sweep check {name!r}")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if np.isinf(v):
            return "inf"
        return f"{v:.17g}"
    return str(v)


def emit_config(cfg: RunConfig) -> str:
    lines = [
        f"command = {cfg.command}",
        f"seed = {cfg.seed}",
        f"equation.model = {cfg.model}",
        f"equation.a = {_fmt(cfg.a)}",
        f"equation.mu = {cfg.mu}",
        f"equation.k = {cfg.k}",
        f"grid.n = {cfg.n}",
        f"grid.L = {_fmt(cfg.L)}",
        f"stepper.dt = {_fmt(cfg.dt)}",
        f"stepper.T = {_fmt(cfg.T)}",
        f"stepper.dealias = {_fmt(cfg.dealias)}",
        f"stepper.linear_only = {_fmt(cfg.linear_only)}",
        f"solve.u0 = {cfg.u0}",
        f"solve.amplitude = {_fmt(cfg.amplitude)}",
        f"check.corpus_size = {cfg.corpus_size}",
        f"sweep.jobs = {cfg.jobs}",
        f"output.dir = {cfg.out_dir}",
    ]
    if cfg.snapshots:
        lines.insert(11, "stepper.snapshots = " + ", ".join(_fmt(t) for t in cfg.snapshots))
    if cfg.s is not None:
        lines.append(f"solve.s = {_fmt(cfg.s)}")
    if cfg.m is not None:
        lines.append(f"solve.m = {_fmt(cfg.m)}")
    if cfg.check_id:
        lines.append(f"check.id = {cfg.check_id}")
    for key in sorted(cfg.check_params):
        lines.append(f"check.params.{key} = {_fmt(cfg.check_params[key])}")
    if cfg.sweep_checks:
        lines.append("sweep.checks = " + ", ".join(cfg.sweep_checks))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- execution

def _run_solve(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.equation_spec()
    grid = Grid(cfg.n, cfg.L)
    fn = _U0_LIBRARY[cfg.u0]
    u0 = Field(grid, cfg.amplitude * np.asarray(fn(grid.x), dtype=complex))
    stepper = StepperConfig(dt=cfg.dt, dealias=cfg.dealias, linear_only=cfg.linear_only)
    snaps = list(cfg.snapshots) if cfg.snapshots else None
    diag = standard_diagnostics(spec, s=cfg.s, m=cfg.m)
    traj = evolve(u0, spec, stepper, cfg.T, snapshot_times=snaps, diagnostics=diag)
    _write_trajectory(traj, out_dir, "trajectory")
    if traj.failed:
        print(f"solver failure at t={traj.failure_time}", file=sys.stderr)
        return 1
    return 0


def _write_trajectory(traj, out_dir: str, stem: str):
    os.makedirs(out_dir, exist_ok=True)
    names = sorted(traj.diagnostics)
    rows = [["t"] + names]
    for i, t in enumerate(traj.times):
        rows.append([_fmt(float(t))] + [_fmt(float(traj.diagnostics[k][i])) for k in names])
    with open(os.path.join(out_dir, f"{stem}.csv"), "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    for name in names:
        curve = os.path.join(out_dir, f"{stem}_{name}.dat")
        with open(curve, "w") as fh:
            for t, v in zip(traj.times, traj.diagnostics[name]):
                fh.write(f"{_fmt(float(t))} {_fmt(float(v))}\n")


def emit_reports(reports: list[CheckReport], out_dir: str) -> str:
    """Write checks.csv; one row per report."""
    if not reports:
        raise ValueError("no reports to emit")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "checks.csv")
    with open(path, "w") as fh:
        fh.write("check_id,params,corpus_size,worst_ratio,fitted_constant,residual_max,verdict\n")
        for r in reports:
            params = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.params.items()))
            fh.write(
                ",".join(
                    [
                        r.check_id,
                        params,
                        str(r.corpus_size),
                        _fmt(float(r.worst_ratio)),
                        _fmt(float(r.fitted_constant)),
                        _fmt(float(r.residual_max)),
                        r.verdict,
                    ]
                )
                + "\n"
            )
    return path


def _run_checks(cfg: RunConfig, names, out_dir: str, jobs: int | None = None) -> int:
    def one(name: str) -> CheckReport:
        params = dict(cfg.check_params)
        params.setdefault("seed", cfg.seed)
        params.setdefault("corpus_size", cfg.corpus_size)
        return run_check(name, params)

    workers = jobs if jobs is not None else cfg.jobs
    try:
        if workers > 1 and len(names) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(one, names))
        else:
            reports = [one(name) for name in names]
    except ValueError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return 2
    return _emit_verdicts(reports, out_dir)


def _emit_verdicts(reports: list[CheckReport], out_dir: str) -> int:
    """Write checks.csv and one verdict line per report; exit 0 iff all pass."""
    emit_reports(reports, out_dir)
    for r in reports:
        print(f"{r.check_id}: {r.verdict} (worst_ratio={r.worst_ratio:.6g})")
    return 0 if all(r.verdict in ("pass", "report-only") for r in reports) else 1


def run(config_path: str, out_dir: str | None = None, jobs: int | None = None) -> int:
    """Execute a config file; exit 0 iff every pass-class verdict passed."""
    try:
        with open(config_path) as fh:
            cfg = parse_config_text(fh.read(), config_path)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        cfg = replace(cfg, seed=int(env_seed))
    out = out_dir or cfg.out_dir
    if cfg.command == "solve":
        return _run_solve(cfg, out)
    if cfg.command == "check":
        return _run_checks(cfg, [cfg.check_id], out)
    return _run_checks(cfg, list(cfg.sweep_checks), out, jobs=jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dispersivelab",
        description="dispersive-model solver runs and estimate checks",
    )
    parser.add_argument("--print-config", metavar="FILE", help="parse FILE and echo its canonical form")
    sub = parser.add_subparsers(dest="cmd")

    p_solve = sub.add_parser("solve", help="run a solver config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="run one named check")
    p_check.add_argument("name", choices=sorted(CHECKS))
    p_check.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p_check.add_argument("--out", default="out")

    p_sweep = sub.add_parser("sweep", help="run a sweep config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.print_config:
        try:
            with open(args.print_config) as fh:
                cfg = parse_config_text(fh.read(), args.print_config)
        except (OSError, ConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(emit_config(cfg))
        return 0

    if args.cmd == "solve":
        return run(args.config, args.out)
    if args.cmd == "check":
        params = {}
        for item in args.param:
            if "=" not in item:
                print(f"bad --param {item!r}, expected KEY=VALUE", file=sys.stderr)
                return 2
            key, _, value = item.partition("=")
            params[key.strip()] = _parse_scalar(value.strip(), "<cli>", 0)
        try:
            report = run_check(args.name, params)
        except ValueError as exc:
            print(f"check error: {exc}", file=sys.stderr)
            return 2
        return _emit_verdicts([report], args.out)
    if args.cmd == "sweep":
        return run(args.config, args.out, jobs=args.jobs)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
