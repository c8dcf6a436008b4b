"""Layer rows: single public calls timed at n in {512, 2048, 8192}.

Each row is the median per-call time over repeated calls, untraced:
``apply_multiplier`` with a callable symbol, the bare FFT pair it wraps,
``stein_deriv``, one stepper step per model (``evolve`` over K steps / K),
``lp_linf_l1`` and ``ap_constant``.  ``cli.sweep_jobs2_speedup`` times
``dispersivelab sweep`` with two worker threads against one on the check
list of the ``sweep`` workload.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
import warnings

import numpy as np

SIZES = (512, 2048, 8192)
HALF_LENGTH = 20.0
MIN_REPS = 3
MIN_SECONDS = 0.05       # per row, repeats until both minima are reached
STEP_COUNT = 20          # K in evolve over K steps / K
SPEEDUP_REPS = 2


def _median_call(fn) -> float:
    times = []
    total = 0.0
    while len(times) < MIN_REPS or total < MIN_SECONDS:
        start = time.perf_counter()
        fn()
        dt = time.perf_counter() - start
        times.append(dt)
        total += dt
    return statistics.median(times)


def _rows() -> dict:
    from dispersivelab import (
        EquationSpec, Field, Grid, StepperConfig, ap_constant, apply_multiplier,
        evolve, lp_linf_l1, power_weight, stein_deriv,
    )

    models = {"nls": EquationSpec.nls(a=3.0, mu=1), "gkdv": EquationSpec.gkdv(k=2),
              "bo": EquationSpec.bo()}
    cfg = StepperConfig(dt=1e-3)
    out = {}
    for n in SIZES:
        g = Grid(n, HALF_LENGTH)
        f = Field.from_function(g, lambda x: np.exp(-x**2) * (1.0 + 0.3 * np.cos(2.0 * x)))
        symbol = g.xi ** 2
        vals = f.values
        weight = power_weight(g, 0.5)
        out[f"spectral.apply_multiplier.t_n{n}"] = (
            _median_call(lambda: apply_multiplier(f, lambda xi: np.abs(xi) ** 0.5)), "us")
        out[f"spectral.fft_pair.t_n{n}"] = (
            _median_call(lambda: np.fft.ifft(symbol * np.fft.fft(vals))), "us")
        out[f"operators.stein_deriv.t_n{n}"] = (_median_call(lambda: stein_deriv(f, 0.5)), "ms")
        for model, spec in models.items():
            steps = _median_call(
                lambda: evolve(f, spec, cfg, STEP_COUNT * cfg.dt)) / STEP_COUNT
            out[f"propagators.step.{model}.t_n{n}"] = (steps, "us")
        out[f"operators.lp_linf_l1.t_n{n}"] = (_median_call(lambda: lp_linf_l1(f)), "ms")
        out[f"norms.ap_constant.t_n{n}"] = (_median_call(lambda: ap_constant(weight, 2.0)), "us")
    scale = {"us": 1e6, "ms": 1e3}
    return {name: {"value": t * scale[unit], "unit": unit} for name, (t, unit) in out.items()}


def _sweep_speedup(run_dir, checks, seed, record) -> float:
    from dispersivelab.cli import main

    jobs = min(2, len(os.sched_getaffinity(0)))
    cfg = run_dir / "sweep.cfg"
    cfg.write_text(f"command = sweep\nseed = {seed}\nsweep.checks = {', '.join(checks)}\n")
    # gamma_identity's expected fail verdict makes the sweep exit 1
    want_rc = 1 if "gamma_identity" in checks else 0
    walls = {1: [], jobs: []}
    for _ in range(SPEEDUP_REPS):
        for j in (1, jobs):
            argv = ["sweep", "--config", str(cfg), "--jobs", str(j), "--out", str(run_dir / "sweep")]
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                rc = main(argv)
                walls[j].append(time.perf_counter() - start)
            rows = (run_dir / "sweep" / "checks.csv").read_text().splitlines()
            if rc != want_rc or len(rows) != len(checks) + 1:
                raise SystemExit(f"bench: sweep --jobs {j} exited {rc} with {len(rows) - 1} rows")
    record["sweep_jobs"] = jobs
    return statistics.median(walls[1]) / statistics.median(walls[jobs])


def measure(run_dir, checks, seed, record) -> dict:
    """Every layer row and the sweep speedup, as result metrics."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics = _rows()
        speedup = _sweep_speedup(run_dir, checks, seed, record)
    metrics["cli.sweep_jobs2_speedup"] = {"value": speedup, "unit": "ratio"}
    return metrics
