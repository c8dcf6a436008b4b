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
from dataclasses import dataclass, field, fields, replace

from .checks import CHECKS, CheckReport, run_check
from .corpus import initial_data
from .laws import standard_diagnostics
from .propagators import EquationSpec, StepperConfig, check_times, evolve
from .spectral import Grid

__all__ = [
    "RunConfig",
    "ConfigError",
    "SEED_ENV",
    "parse_config_text",
    "emit_config",
    "emit_reports",
    "run",
    "main",
]

SEED_ENV = "DISPERSIVELAB_SEED"


class ConfigError(ValueError):
    pass


def _command(value: str) -> str:
    if value not in ("solve", "check", "sweep"):
        raise ValueError(f"expected solve|check|sweep, got {value!r}")
    return value


def _flag(value: str) -> bool:
    low = value.lower()
    if low not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")
    return low in ("1", "true", "yes")


def _names(value: str) -> tuple:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _floats(value: str) -> tuple:
    return tuple(float(v) for v in _names(value))


def _path(value: str) -> str:
    if not value:
        raise ValueError("the path is empty")
    return value


def _key(key: str, parse, default):
    """A RunConfig field read from config key ``key`` by ``parse``."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class RunConfig:
    """One run, declared once: each field carries its config key and the
    parser of its value, in --print-config order.  A field whose default is
    unset (None, "" or ()) is printed only when set.  ``check_params`` has
    no key: it holds the free-form check.params.* table, printed after
    check.id.

    Parsing checks what the modules would reject later: the equation, grid,
    stepper and times of every command and, for a solve, its initial data
    (a name of ``corpus.NAMED_FIELDS``, a finite amplitude) and its
    diagnostics (a finite ``s``, a finite ``m`` >= 0)."""

    command: str = _key("command", _command, "solve")
    seed: int | None = _key("seed", int, None)
    model: str = _key("equation.model", str, "gkdv")
    a: float = _key("equation.a", float, 3.0)
    mu: int = _key("equation.mu", int, 1)
    k: int = _key("equation.k", int, 1)
    n: int = _key("grid.n", int, 512)
    L: float = _key("grid.L", float, 20.0)
    dt: float = _key("stepper.dt", float, 1e-3)
    T: float = _key("stepper.T", float, 1.0)
    dealias: float = _key("stepper.dealias", float, 2.0 / 3.0)
    snapshots: tuple = _key("stepper.snapshots", _floats, ())
    linear_only: bool = _key("stepper.linear_only", _flag, False)
    u0: str = _key("solve.u0", str, "gaussian")
    amplitude: float = _key("solve.amplitude", float, 1.0)
    jobs: int = _key("sweep.jobs", int, 1)
    out_dir: str = _key("output.dir", _path, "out")
    s: float | None = _key("solve.s", float, None)
    m: float | None = _key("solve.m", float, None)
    check_id: str = _key("check.id", str, "")
    check_params: dict = field(default_factory=dict)
    sweep_checks: tuple = _key("sweep.checks", _names, ())

    def equation_spec(self) -> EquationSpec:
        return EquationSpec(self.model, a=self.a, mu=self.mu, k=self.k)

    def stepper_config(self) -> StepperConfig:
        return StepperConfig(dt=self.dt, dealias=self.dealias, linear_only=self.linear_only)


# the config schema, key -> (RunConfig field, parser), in --print-config order
_SCHEMA = {
    f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(RunConfig) if f.metadata
}
_PARAMS_PREFIX = "check.params."
_DEFAULTS = RunConfig()


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
        if key.startswith(_PARAMS_PREFIX):
            cfg.check_params[key[len(_PARAMS_PREFIX):]] = _parse_scalar(value)
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = lineno
        name, parse = _SCHEMA[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    _validate(cfg, path)
    return cfg


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text, path)


def _parse_scalar(value: str):
    try:
        return float(value)
    except ValueError:
        return value  # bare string parameter


def _validate(cfg: RunConfig, path: str):
    # surface module invariant violations at parse time
    try:
        spec = cfg.equation_spec()
        grid = Grid(cfg.n, cfg.L)
        cfg.stepper_config()
        check_times(cfg.T, cfg.snapshots, cfg.dt)
        if cfg.command == "solve":
            initial_data(cfg.u0, grid, cfg.amplitude)
            standard_diagnostics(spec, s=cfg.s, m=cfg.m)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.command == "check" and cfg.check_id not in CHECKS:
        raise ConfigError(
            f"{path}: unknown check {cfg.check_id!r}; available: {sorted(CHECKS)}"
        )
    if cfg.command == "sweep":
        if not cfg.sweep_checks:
            raise ConfigError(f"{path}: a sweep needs sweep.checks")
        for name in cfg.sweep_checks:
            if name not in CHECKS:
                raise ConfigError(f"{path}: unknown sweep check {name!r}")


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value, default = getattr(cfg, f.name), getattr(_DEFAULTS, f.name)
        if not f.metadata:  # the check.params.* table
            lines += [f"{_PARAMS_PREFIX}{k} = {_fmt(v)}" for k, v in sorted(value.items())]
        elif not (value == default and default in (None, "", ())):
            lines.append(f"{f.metadata['key']} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- execution

def _run_solve(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.equation_spec()
    grid = Grid(cfg.n, cfg.L)
    u0 = initial_data(cfg.u0, grid, cfg.amplitude)
    stepper = cfg.stepper_config()
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
            numbers = [_fmt(float(v)) for v in (r.worst_ratio, r.fitted_constant, r.residual_max)]
            fh.write(",".join([r.check_id, params, str(r.corpus_size), *numbers, r.verdict]) + "\n")
    return path


def _run_checks(names: list, params: dict, out_dir: str, jobs: int = 1) -> int:
    """Run the named checks with one parameter table, write checks.csv and
    one verdict line per report; exit 0 iff all pass, 2 on a parameter error."""
    try:
        if jobs > 1 and len(names) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(lambda name: run_check(name, params), names))
        else:
            reports = [run_check(name, params) for name in names]
    except ValueError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return 2
    emit_reports(reports, out_dir)
    for r in reports:
        print(f"{r.check_id}: {r.verdict} (worst_ratio={r.worst_ratio:.6g})")
    return 0 if all(r.verdict in ("pass", "report-only") for r in reports) else 1


def run(config_path: str, out_dir: str | None = None, jobs: int | None = None) -> int:
    """Execute a config file; exit 0 iff every pass-class verdict passed."""
    env_seed = os.environ.get(SEED_ENV)
    try:
        cfg = _load_config(config_path)
        if env_seed is not None:
            try:
                cfg = replace(cfg, seed=int(env_seed))
            except ValueError:
                raise ConfigError(f"{SEED_ENV}={env_seed!r} is not an integer") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = out_dir or cfg.out_dir
    if cfg.command == "solve":
        return _run_solve(cfg, out)
    params = dict(cfg.check_params) if cfg.seed is None else {"seed": cfg.seed, **cfg.check_params}
    if cfg.command == "check":
        return _run_checks([cfg.check_id], params, out)
    return _run_checks(list(cfg.sweep_checks), params, out, jobs=cfg.jobs if jobs is None else jobs)


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
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker threads (default: sweep.jobs)")
    p_sweep.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.print_config:
        try:
            cfg = _load_config(args.print_config)
        except ConfigError as exc:
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
            params[key.strip()] = _parse_scalar(value.strip())
        return _run_checks([args.name], params, args.out)
    if args.cmd == "sweep":
        return run(args.config, args.out, jobs=args.jobs)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
