#!/usr/bin/env python3
"""End-to-end benchmark of dispersivelab.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 45 --trace 0

Each run is one fresh process that drives the package only through its
public entry points (``dispersivelab.cli.main``, and the public functions of
each module for the layer rows).  It imports the package from ``src/`` of the
checkout it sits in and exits non-zero, printing no result, when that source
is absent.

Workloads:

* ``sweep``:  one op is ``dispersivelab check <id> --param seed=<s>`` over the
  default check battery (leibniz twice per round); many small multiplier
  calls, so per-call overhead dominates.
* ``solve``:  one op is ``dispersivelab solve --config <generated>`` cycling
  NLS (a=3, mu=+1), gKdV (k=2) and BO at n=2048; the IF-RK4 stepper
  dominates and the square-function derivative never runs.
* ``refine``: the check ops one refinement level up (n=4096, leibniz at
  n=1024, persistence left out); few large FFTs and no stepper.

BENCHMARK.json lists ``solve`` and ``refine``.  ``sweep`` stays runnable but
is left out there: its small, interpreter-bound ops spread most from run to
run on a machine whose speed drifts (op_p50_ms up to 0.27 of its median on
a 2-vCPU VM), and ``refine`` runs the same check code.

``--trace 0`` times ops for ``--seconds`` of wall time in complete rounds and
prints the end-to-end metrics.  ``--trace 1`` runs the layer rows, then a
fixed op list once untraced and once traced, and prints the per-layer
metrics.  Every op's output is verified; a failed verification counts the op
as failed, and ``verified_frac`` is the share of ops that passed.  The last
stdout line is the result object; the line before it is the run record
(machine, versions, git SHA, seeds, warning counts, ``failed_frac``), which
is also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy

import layer_rows
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Corpus seed whose check reports were recorded in reference.json.
REFERENCE_SEED = 0x5EED
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Report numbers must match the recording to this tolerance.  Reordered
# arithmetic moves them by ~1e-13 relative; a changed result moves them more.
REF_REL_TOL = 1e-8
REF_ABS_TOL = 1e-10

# Expected verdict of every check at default parameters.  gamma_identity is
# expected to fail: its fractional residual floors near 1e-1 at these grids
# (README, acceptance criterion 4).
EXPECTED_VERDICT = {
    "chirp_stein": "pass",
    "weighted_free": "pass",
    "gamma_identity": "fail",
    "leibniz": "pass",
    "gn": "pass",
    "interpolation": "pass",
    "commutator_leibniz": "pass",
    "commutator_hilbert": "pass",
    "ap_hilbert": "pass",
    "strichartz": "pass",
    "scaling": "pass",
    "persistence": "pass",
}
# Half-length L of each check's default grid; refine keeps L and raises n.
DEFAULT_L = {
    "chirp_stein": 30.0,
    "weighted_free": 20.0,
    "gamma_identity": 20.0,
    "leibniz": 20.0,
    "gn": 40.0,
    "interpolation": 20.0,
    "commutator_leibniz": 20.0,
    "commutator_hilbert": 20.0,
    "ap_hilbert": 10.0,
    "strichartz": 40.0,
    "scaling": 160.0,
}
# The costliest check runs twice per round.  Holding 2 of 12 (refine) or 13
# (sweep) ops, its band contains the 90th percentile well inside it rather
# than at its edge, where a few slowed ops would move it.
TWICE_PER_ROUND = "leibniz"
REFINE_N = 4096
# the square function of leibniz costs seconds per op at n=4096
REFINE_N_OVERRIDE = {"leibniz": 1024}

CSV_HEADER = "check_id,params,corpus_size,worst_ratio,fitted_constant,residual_max,verdict"
REPORT_NUMBERS = ("worst_ratio", "fitted_constant", "residual_max")

SOLVE_MODELS = (
    ("nls", "equation.a = 3\nequation.mu = 1\n"),
    ("gkdv", "equation.k = 2\n"),
    ("bo", ""),
)
SOLVE_U0 = ("gaussian", "sech2", "gaussian_deriv")
# max|u0| <= 1.5 keeps dt=1e-3 far below the transport bound h/(pi max|u|)
# = 6.2e-3 at n=2048, L=20
SOLVE_AMPLITUDE = (0.5, 1.5)
SOLVE_SNAPSHOTS = tuple(0.02 * i for i in range(11))
# Conserved quantities may drift this much relative to t=0 over T=0.2; the
# stepper measures <= 2e-9.  I1 is bounded absolutely because it vanishes
# for odd data (gaussian_deriv), where a relative drift is meaningless.
DRIFT_REL_MAX = 1e-7
I1_ABS_MAX = 1e-10

POOL_ROUNDS = 4          # check rounds cycle this many corpus seeds
SETUP_SAMPLES = 4        # setup_s is the median over this many fresh processes
MIN_OPS = 100            # so that >= 10 timed ops lie beyond op_p90_ms


@dataclass
class Op:
    kind: str
    argv: list
    out_dir: Path
    expect: dict = field(default_factory=dict)


class OpResult(NamedTuple):
    latency: float
    ok: bool


# ----------------------------------------------------------------- package

def load_package():
    """Import dispersivelab from this checkout's src/, never from elsewhere."""
    init = SRC / "dispersivelab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import dispersivelab

    if Path(dispersivelab.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported dispersivelab from {dispersivelab.__file__}")
    return dispersivelab


# --------------------------------------------------------------- workloads

def corpus_seeds(seed: int) -> list:
    """Round 0 uses the recorded reference seed; the rest come from --seed."""
    rng = random.Random(seed)
    return [REFERENCE_SEED] + [rng.randrange(1, 2**31) for _ in range(POOL_ROUNDS - 1)]


def check_rounds(workload: str, seed: int, run_dir: Path, reference: dict) -> list:
    rounds = []
    for cseed in corpus_seeds(seed):
        ops = []
        for cid, verdict in EXPECTED_VERDICT.items():
            argv = ["check", cid, "--param", f"seed={cseed}"]
            n = None
            if workload == "refine":
                if cid not in DEFAULT_L:
                    continue
                n = REFINE_N_OVERRIDE.get(cid, REFINE_N)
                argv += ["--param", f"n={n}", "--param", f"L={DEFAULT_L[cid]!r}"]
            out = run_dir / cid
            argv += ["--out", str(out)]
            expect = {"verdict": verdict, "n": n}
            if cseed == REFERENCE_SEED:
                expect["reference"] = reference.get(workload, {}).get(cid)
            ops.append(Op(cid, argv, out, expect))
            if cid == TWICE_PER_ROUND:
                ops.append(ops[-1])
        rounds.append(ops)
    return rounds


def solve_draws(seed: int) -> list:
    """Rounds of (model, u0, amplitude).  Each model meets every u0 once per
    pool, in a seeded order: gKdV from gaussian_deriv costs ~35% more than
    from the other data, so a drawn mix would make run time seed-dependent."""
    rng = random.Random(seed)
    order = {model: rng.sample(SOLVE_U0, len(SOLVE_U0)) for model, _ in SOLVE_MODELS}
    return [
        [(model, order[model][r], rng.uniform(*SOLVE_AMPLITUDE)) for model, _ in SOLVE_MODELS]
        for r in range(len(SOLVE_U0))
    ]


def solve_rounds(seed: int, run_dir: Path) -> list:
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    snaps = ", ".join(f"{t:.2f}" for t in SOLVE_SNAPSHOTS)
    model_keys = dict(SOLVE_MODELS)
    rounds = []
    for r, draws in enumerate(solve_draws(seed)):
        ops = []
        for model, u0, amp in draws:
            path = cfg_dir / f"r{r}_{model}.cfg"
            path.write_text(
                "command = solve\n"
                f"equation.model = {model}\n{model_keys[model]}"
                "grid.n = 2048\ngrid.L = 20\n"
                "stepper.dt = 0.001\nstepper.T = 0.2\n"
                f"stepper.snapshots = {snaps}\n"
                f"solve.u0 = {u0}\nsolve.amplitude = {amp!r}\n"
                "solve.s = 2\nsolve.m = 1.5\n"
            )
            out = run_dir / f"solve_{model}"
            ops.append(Op(model, ["solve", "--config", str(path), "--out", str(out)], out))
        rounds.append(ops)
    return rounds


def build_rounds(workload: str, seed: int, run_dir: Path) -> list:
    if workload == "solve":
        return solve_rounds(seed, run_dir)
    reference = json.loads(REFERENCE_FILE.read_text())
    return check_rounds(workload, seed, run_dir, reference)


# ------------------------------------------------------------ verification

def report_numbers(row: list) -> dict:
    """The compared numbers of one split checks.csv row."""
    return dict(zip(REPORT_NUMBERS, map(float, row[3:6])))


def verify_check(op: Op, rc: int, stdout: str) -> str:
    """Return '' when the check op produced its pinned outputs, else why not."""
    verdict = op.expect["verdict"]
    want_rc = 0 if verdict in ("pass", "report-only") else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if not stdout.startswith(f"{op.kind}: {verdict} (worst_ratio="):
        return f"unexpected output {stdout.strip()!r}"
    lines = (op.out_dir / "checks.csv").read_text().splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        return "malformed checks.csv"
    row = lines[1].split(",")
    if len(row) != 7 or row[0] != op.kind or row[6] != verdict:
        return f"unexpected row {lines[1]!r}"
    params = dict(kv.split("=", 1) for kv in row[1].split(";") if kv)
    if op.expect["n"] is not None and params.get("n") != str(op.expect["n"]):
        return f"grid override ignored: params {row[1]!r}"
    numbers = report_numbers(row)
    if not all(math.isfinite(v) for v in numbers.values()):
        return f"non-finite report numbers {numbers}"
    if "reference" in op.expect:
        ref = op.expect["reference"]
        if ref is None:
            return "no recorded reference"
        for key, want in ref.items():
            if not math.isclose(numbers[key], want, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL):
                return f"{key}={numbers[key]!r} differs from reference {want!r}"
    return ""


def verify_solve(op: Op, rc: int, caught: list) -> str:
    if rc != 0:
        return f"exit {rc}"
    cfl = [w for w in caught if w.category.__name__ == "CFLWarning"]
    if cfl:
        return f"CFLWarning: {cfl[0].message}"
    with open(op.out_dir / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(SOLVE_SNAPSHOTS):
        return f"{len(rows)} snapshots, expected {len(SOLVE_SNAPSHOTS)}"
    times = [float(r["t"]) for r in rows]
    if any(abs(t - s) > 1e-9 for t, s in zip(times, SOLVE_SNAPSHOTS)):
        return f"snapshot times {times}"
    laws = ("mass", "energy") if op.kind == "nls" else ("I1", "I2", "I3")
    expected_cols = {"t", *laws, "sobolev_2", "weighted_1.5", "weighted_bracket_1.5"}
    if set(rows[0]) != expected_cols:
        return f"columns {sorted(rows[0])}"
    for col in expected_cols - {"t"}:
        vals = [float(r[col]) for r in rows]
        if not all(math.isfinite(v) for v in vals):
            return f"non-finite {col}"
        if col not in laws:
            continue
        drift = max(abs(v - vals[0]) for v in vals)
        if col == "I1":
            if drift > I1_ABS_MAX:
                return f"I1 drift {drift:.3e} > {I1_ABS_MAX:.0e}"
        elif drift > DRIFT_REL_MAX * abs(vals[0]):
            return f"{col} relative drift {drift / abs(vals[0]):.3e} > {DRIFT_REL_MAX:.0e}"
    return ""


# --------------------------------------------------------------- execution

class Runner:
    """Runs ops through ``dispersivelab.cli.main`` and keeps the tallies."""

    def __init__(self, cli_main):
        self.main = cli_main
        self.tracer = None     # set while a traced pass runs
        self.warnings = {"BoundaryWarning": 0, "CFLWarning": 0}
        self.failures = []
        self._op_id = 0

    def run(self, op: Op) -> OpResult:
        for stale in ("checks.csv", "trajectory.csv"):
            with contextlib.suppress(FileNotFoundError):
                (op.out_dir / stale).unlink()
        self._op_id += 1
        stdout = io.StringIO()
        rc, error = None, ""
        span = self.tracer.op_span(self._op_id, op.kind) if self.tracer else contextlib.nullcontext()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                with span:
                    rc = self.main(op.argv)
            except (Exception, SystemExit) as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        for w in caught:
            name = w.category.__name__
            if name in self.warnings:
                self.warnings[name] += 1
        if not error:
            try:
                if op.kind in EXPECTED_VERDICT:
                    error = verify_check(op, rc, stdout.getvalue())
                else:
                    error = verify_solve(op, rc, caught)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc}"
        if error:
            self.failures.append(f"{op.kind} {' '.join(op.argv[1:-2])}: {error}")
        return OpResult(latency, not error)


def set_up(workload: str, seed: int, run_dir: Path):
    """Import, build inputs and warm up each op kind once."""
    pkg = load_package()
    from dispersivelab.cli import main as cli_main

    missing = set(EXPECTED_VERDICT) - set(pkg.CHECKS)
    if missing:
        raise SystemExit(f"bench: checks missing from CHECKS: {sorted(missing)}")
    rounds = build_rounds(workload, seed, run_dir)
    runner = Runner(cli_main)
    warm = [runner.run(op) for op in {op.kind: op for op in rounds[0]}.values()]
    return pkg, rounds, runner, all(r.ok for r in warm)


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh process until its first op can run."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: setup probe failed (exit {proc.returncode})")
    return elapsed


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, run_dir, record):
    """Time complete rounds, cycling the pool, for ``seconds`` of timed wall
    and at least MIN_OPS ops.

    The set-up probes are spread over the run, between rounds and outside
    the timed wall, so setup_s samples the same machine as the ops do.
    """
    _, rounds, runner, warm_ok = set_up(workload, seed, run_dir)
    setup = []
    results = []
    wall = 0.0
    n_rounds = 0
    for i in range(1, SETUP_SAMPLES + 1):
        setup.append(probe_setup(workload, seed))
        while (n_rounds == 0 or wall < seconds * i / SETUP_SAMPLES
               or (i == SETUP_SAMPLES and len(results) < MIN_OPS)):
            start = time.perf_counter()
            results += [runner.run(op) for op in rounds[n_rounds % len(rounds)]]
            wall += time.perf_counter() - start
            n_rounds += 1
    lat = [r.latency for r in results]
    verified = sum(r.ok for r in results)
    p90 = percentile(lat, 90)
    record.update(
        rounds=n_rounds, timed_wall_s=wall, ops=len(results),
        failed_frac=(len(results) - verified) / len(results),
        p90_samples_beyond=sum(x > p90 for x in lat),
        setup_samples_s=setup, setup_warmup_ok=warm_ok,
    )
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(verified / sum(lat), "1/s"),
        "op_p50_ms": metric(percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": metric(p90 * 1e3, "ms"),
        "verified_frac": metric(verified / len(results), "fraction"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return results, runner, warm_ok, metrics


def traced(workload, seed, run_dir, record):
    pkg, rounds, runner, warm_ok = set_up(workload, seed, run_dir)
    metrics = layer_rows.measure(run_dir, list(EXPECTED_VERDICT), REFERENCE_SEED, record)
    # each pool round runs untraced, then traced, so both see the same ops
    tracer = Tracer(pkg)
    results = []
    wall = {False: 0.0, True: 0.0}
    for ops in rounds:
        for on in (False, True):
            runner.tracer = tracer if on else None
            with tracer.installed() if on else contextlib.nullcontext():
                start = time.perf_counter()
                results += [runner.run(op) for op in ops]
                wall[on] += time.perf_counter() - start
    runner.tracer = None
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = metric(wall[True] / wall[False], "ratio")
    spans_file = OUT / f"spans_{workload}_s{seed}.jsonl.gz"
    tracer.write(spans_file)
    record.update(
        rounds=2 * len(rounds), untraced_wall_s=wall[False], traced_wall_s=wall[True],
        spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)),
    )
    return results, runner, warm_ok, metrics


# -------------------------------------------------------------- run record

def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "inputs": solve_draws(args.seed) if args.workload == "solve" else corpus_seeds(args.seed),
    }


# -------------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description="dispersivelab benchmark")
    p.add_argument("--workload", required=True, choices=("sweep", "solve", "refine"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            # only times set-up; the measuring process verifies the outputs
            set_up(args.workload, args.seed, run_dir)
            print("ready", flush=True)
            return 0
        record = run_record(args)
        if args.trace:
            results, runner, warm_ok, metrics = traced(args.workload, args.seed, run_dir, record)
        else:
            results, runner, warm_ok, metrics = end_to_end(
                args.workload, args.seed, args.seconds, run_dir, record
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(not r.ok for r in results)
    record.update(warnings=runner.warnings, failures=runner.failures[:20])
    (OUT / f"record_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in runner.failures[:20]:
        print(f"bench: failed op: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
