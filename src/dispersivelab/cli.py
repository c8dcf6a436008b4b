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
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

from .checks import CHECKS, CheckReport, _require_work, run_check
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
    if value not in ("solve", "sweep"):
        raise ValueError(f"expected solve|sweep, got {value!r}")
    return value


def _names(value: str) -> tuple:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _floats(value: str) -> tuple:
    return tuple(float(v) for v in _names(value))


def _path(value: str) -> str:
    if not value:
        raise ValueError("the path is empty")
    return value


def _key(key: str, parse, default, command=None):
    """A RunConfig field read from config key ``key`` by ``parse`` and used
    by ``command`` (None: by both commands)."""
    return field(default=default, metadata={"key": key, "parse": parse, "command": command})


@dataclass
class RunConfig:
    """One run, declared once: each field carries its config key, the
    parser of its value and the command that reads it (None: both), in
    --print-config order.  A field whose default is unset (None, "" or ())
    is printed only when set.  ``check_params`` has no key: it holds the
    free-form check.params.* table that a sweep reads, printed after solve.m.

    Parsing checks what the modules would reject later: a key that the
    command does not read must keep its default; a solve's equation, grid,
    stepper, times, work keys (``equation.k``, ``grid.n`` and ``stepper.T``
    over ``stepper.dt``, bounded by ``checks._WORK``, the table that every
    check call reads too), initial data (a name of ``corpus.NAMED_FIELDS``,
    a finite amplitude) and diagnostics (a finite ``s``, a finite ``m`` >=
    0) are checked, and a sweep needs known ``sweep.checks``.  A solve runs
    the nonlinear flow; the exact linear flow is
    :func:`dispersivelab.propagators.linear_group`."""

    command: str = _key("command", _command, "solve")
    seed: int | None = _key("seed", int, None, "sweep")
    model: str = _key("equation.model", str, "gkdv", "solve")
    a: float = _key("equation.a", float, EquationSpec.a, "solve")
    mu: int = _key("equation.mu", int, EquationSpec.mu, "solve")
    k: int = _key("equation.k", int, EquationSpec.k, "solve")
    n: int = _key("grid.n", int, 512, "solve")
    L: float = _key("grid.L", float, 20.0, "solve")
    dt: float = _key("stepper.dt", float, 1e-3, "solve")
    T: float = _key("stepper.T", float, 1.0, "solve")
    dealias: float = _key("stepper.dealias", float, StepperConfig.dealias, "solve")
    snapshots: tuple = _key("stepper.snapshots", _floats, (), "solve")
    u0: str = _key("solve.u0", str, "gaussian", "solve")
    amplitude: float = _key("solve.amplitude", float, 1.0, "solve")
    jobs: int = _key("sweep.jobs", int, 1, "sweep")
    out_dir: str = _key("output.dir", _path, "out")
    s: float | None = _key("solve.s", float, None, "solve")
    m: float | None = _key("solve.m", float, None, "solve")
    check_params: dict = field(default_factory=dict, metadata={"command": "sweep"})
    sweep_checks: tuple = _key("sweep.checks", _names, (), "sweep")


# the config schema, key -> (RunConfig field, parser), in --print-config order
_SCHEMA = {
    f.metadata["key"]: (f.name, f.metadata["parse"])
    for f in fields(RunConfig)
    if "key" in f.metadata
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
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first at line {seen[key]})")
        seen[key] = lineno
        if key.startswith(_PARAMS_PREFIX):
            cfg.check_params[key[len(_PARAMS_PREFIX):]] = _parse_scalar(value)
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name, parse = _SCHEMA[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            cause = f"{name}={value} is not an integer" if parse is int else exc
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {cause}") from exc
    _validate(cfg, path)
    return cfg


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text, path)


def _output_dir(path: str) -> str:
    """``path``, created as the output directory of a run before anything
    runs; an empty path, or one that cannot be created, is a ConfigError."""
    if not path:
        raise ConfigError("--out: the path is empty")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from exc
    return path


def _parse_scalar(value: str):
    """A check parameter: an integer literal as an exact int (but ``-0`` as
    the float -0.0, whose sign a float parameter keeps), another number as
    a float, anything else as the string."""
    try:
        number = int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            return value  # bare string parameter
    return -0.0 if number == 0 and value.startswith("-") else number


def _validate(cfg: RunConfig, path: str):
    # a key that the command does not read must keep its default
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.metadata["command"] not in (None, cfg.command) and value != getattr(_DEFAULTS, f.name):
            line = _lines(f, value)[0]
            raise ConfigError(f"{path}: {line} is not read by command = {cfg.command}")
    if cfg.command == "sweep":
        if not cfg.sweep_checks:
            raise ConfigError(f"{path}: a sweep needs sweep.checks")
        _require_workers(cfg.jobs, path)
        for name in cfg.sweep_checks:
            if name not in CHECKS:
                raise ConfigError(f"{path}: unknown sweep check {name!r}")
        return
    # surface module invariant violations at parse time, the diagnostics'
    # among them by one evaluation on the initial data
    try:
        args = _evolve_arguments(cfg)
        args["diagnostics"](args["u0"], 0.0)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _evolve_arguments(cfg: RunConfig) -> dict:
    """The keyword arguments of :func:`evolve` for a solve config.  The spec,
    grid, stepper, times, work bounds (``checks._WORK``, as for a check call),
    initial data and diagnostics are built or checked in that order, so the
    first ValueError raised names the config's first error."""
    spec = EquationSpec(cfg.model, a=cfg.a, mu=cfg.mu, k=cfg.k)
    grid = Grid(cfg.n, cfg.L)
    stepper = StepperConfig(dt=cfg.dt, dealias=cfg.dealias)
    check_times(cfg.T, cfg.snapshots, cfg.dt)
    _require_work({"n": cfg.n, "T": cfg.T, "dt": cfg.dt, "k": cfg.k})  # before sampling u0
    return dict(
        u0=initial_data(cfg.u0, grid, cfg.amplitude), spec=spec, cfg=stepper, T=cfg.T,
        snapshot_times=list(cfg.snapshots) if cfg.snapshots else None,
        diagnostics=standard_diagnostics(spec, s=cfg.s, m=cfg.m),
    )


def _require_workers(jobs: int, where: str):
    if jobs < 1:
        raise ConfigError(f"{where}: a sweep needs at least one worker, got jobs={jobs}")


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _lines(f, value) -> list:
    """The config lines of RunConfig field ``f`` set to ``value``."""
    if "key" not in f.metadata:  # the check.params.* table
        return [f"{_PARAMS_PREFIX}{k} = {_fmt(v)}" for k, v in sorted(value.items())]
    return [f"{f.metadata['key']} = {_fmt(value)}"]


def emit_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value, default = getattr(cfg, f.name), getattr(_DEFAULTS, f.name)
        if "key" not in f.metadata or not (value == default and default in (None, "", ())):
            lines += _lines(f, value)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- execution

def _run_solve(cfg: RunConfig, out_dir: str) -> int:
    try:
        traj = evolve(**_evolve_arguments(cfg))
    except ValueError as exc:  # a diagnostic that overflows after t = 0, past _validate's probe
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    _write_trajectory(traj, out_dir, "trajectory")
    if traj.failed:
        print(f"solver failure at t={traj.failure_time}", file=sys.stderr)
        return 1
    return 0


def _write_trajectory(traj, out_dir: str, stem: str):
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
    return _run(config_path, out_dir, jobs, None)


def _run(config_path: str, out_dir: str | None, jobs: int | None, subcommand: str | None) -> int:
    """:func:`run` under ``subcommand``, a config error unless it equals
    the config's command; None runs either command."""
    env_seed = os.environ.get(SEED_ENV)
    try:
        cfg = _load_config(config_path)
        if subcommand not in (None, cfg.command):
            raise ConfigError(
                f"{config_path}: command = {cfg.command} runs under "
                f"'{cfg.command} --config', not '{subcommand} --config'"
            )
        if jobs is not None:
            _require_workers(jobs, "--jobs")
        if env_seed is not None:
            try:
                cfg = replace(cfg, seed=int(env_seed))
            except ValueError:
                raise ConfigError(f"{SEED_ENV}={env_seed!r} is not an integer") from None
        out = _output_dir(cfg.out_dir if out_dir is None else out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.command == "solve":
        return _run_solve(cfg, out)
    params = dict(cfg.check_params) if cfg.seed is None else {"seed": cfg.seed, **cfg.check_params}
    return _run_checks(list(cfg.sweep_checks), params, out, jobs=cfg.jobs if jobs is None else jobs)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parse leaves it
    unchanged (``--param`` appends to a copy of its default)."""
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
        return _run(args.config, args.out, None, "solve")
    if args.cmd == "check":
        params = {}
        for item in args.param:
            if "=" not in item:
                print(f"bad --param {item!r}, expected KEY=VALUE", file=sys.stderr)
                return 2
            key, _, value = item.partition("=")
            key = key.strip()
            if key in params:
                print(f"bad --param {item!r}, duplicate key {key!r}", file=sys.stderr)
                return 2
            params[key] = _parse_scalar(value.strip())
        try:
            out = _output_dir(args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _run_checks([args.name], params, out)
    if args.cmd == "sweep":
        return _run(args.config, args.out, args.jobs, "sweep")
    parser.print_usage(sys.stderr)
    print("dispersivelab: error: a subcommand is required: solve, check or sweep", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
