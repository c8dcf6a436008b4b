"""Bit-identity fingerprint of the check reports, the solve outputs and the
operators' samples.

Run from the repository root:

    PYTHONPATH=src python -m tests.fingerprint > fingerprint.json

It prints one JSON document with three parts:

* ``checks``: 62 check cases, each as its report: ``float.hex`` of every
  report number, trend entry and note, with the verdict, corpus size and
  params (a case that raises records its error instead).  The cases are
  every entry of ``CHECKS`` at its defaults; the refine battery (every check
  but ``persistence`` at n=4096, ``leibniz`` at n=1024) at corpus seeds
  0x5EED and 101; ``gamma_identity`` at b in {0, 1/4, 1/2, 3/4, 1} and
  t in {1/2, -1/2, 2}; and edge parameters of ``strichartz``, ``scaling``,
  ``weighted_free`` (t=8 fails the boundary gate) and ``leibniz``.
* ``files``: the SHA-256 of ``checks.csv`` from a sweep of the default
  battery, and of ``trajectory.csv`` and every ``.dat`` of 15 solves, all
  written through ``cli.main``: NLS (a=3, mu=+1; a=5, mu=-1), gKdV k=1, 2
  and BO, each from ``gaussian``, ``sech2`` and ``gaussian_deriv`` at
  amplitude 1.2 (n=2048, L=20, dt=1e-3, T=0.2, 11 snapshots, s=2, m=1.5);
  and the exit code and last stderr line of two diverging solves, gKdV
  and BO at amplitude 400 (n=512, T=0.05), whose invariants overflow.
* ``operators``: 126 operator cases, each the SHA-256 of the output
  samples (of the values, for ``lp_linf_l1``): ``derivative`` of orders
  1, 2 and 3, ``riesz_deriv`` (b = 1/2, 3/2), ``bessel_potential``
  (s = 1, -1), ``hilbert``, every ``lp_block`` of the grid's range in one
  digest, ``lp_linf_l1`` and ``stein_deriv`` (b = 1/4, 3/4) with each tail,
  on a real field, a complex field and the block of the two, at n in
  {8, 512, 4096} on the cell L=10.

Two checkouts whose outputs are bit-identical print identical documents, so
a change that must move no arithmetic shows it as an empty ``diff`` of the
two.  A run takes about 4 s on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4).
pytest does not collect this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from dispersivelab import operators as ops
from dispersivelab.checks import CHECKS, run_check
from dispersivelab.cli import main
from dispersivelab.spectral import Field, Grid

REFINE_SEEDS = (0x5EED, 101)
GAMMA_ORDERS = (0.0, 0.25, 0.5, 0.75, 1.0)
GAMMA_TIMES = (0.5, -0.5, 2.0)
EDGE_CASES = (
    ("strichartz", {"q": np.inf, "p": 2.0, "T": 2.0}),
    ("strichartz", {"q": 4.0, "p": np.inf, "T": 1.0}),
    ("strichartz", {"q": 16.0, "p": 8.0 / 3.0, "T": 1.0}),
    ("scaling", {"a": 5.0}),
    ("scaling", {"a": 9.0}),
    ("scaling", {"a": 13.0}),
    ("scaling", {"a": 21.0}),
    ("weighted_free", {"t": 4.0}),
    ("weighted_free", {"t": 8.0}),
    ("weighted_free", {"t": 0.0, "b": 0.25}),
    ("leibniz", {"pairs": 0}),
    ("leibniz", {"b": 0.25, "pairs": 3}),
    ("leibniz", {"b": 0.75, "n": 256}),
)
SOLVE_MODELS = (
    ("nls_a3", "equation.model = nls\nequation.a = 3\nequation.mu = 1\n"),
    ("nls_a5_focusing", "equation.model = nls\nequation.a = 5\nequation.mu = -1\n"),
    ("gkdv_k1", "equation.model = gkdv\nequation.k = 1\n"),
    ("gkdv_k2", "equation.model = gkdv\nequation.k = 2\n"),
    ("bo", "equation.model = bo\n"),
)
SOLVE_U0 = ("gaussian", "sech2", "gaussian_deriv")
DIVERGING_SOLVE = (
    "grid.n = 512\ngrid.L = 20\nstepper.dt = 0.001\nstepper.T = 0.05\n"
    "stepper.snapshots = " + ", ".join(f"{0.005 * i:g}" for i in range(11)) + "\n"
    "solve.amplitude = 400\n"
)
OPERATOR_SIZES = (8, 512, 4096)
OPERATORS = {
    "derivative/1": lambda f: ops.derivative(f, 1),
    "derivative/2": lambda f: ops.derivative(f, 2),
    "derivative/3": lambda f: ops.derivative(f, 3),
    "riesz_deriv/0.5": lambda f: ops.riesz_deriv(f, 0.5),
    "riesz_deriv/1.5": lambda f: ops.riesz_deriv(f, 1.5),
    "bessel_potential/1": lambda f: ops.bessel_potential(f, 1.0),
    "bessel_potential/-1": lambda f: ops.bessel_potential(f, -1.0),
    "hilbert": ops.hilbert,
    "lp_block": lambda f: [ops.lp_block(f, N) for N in ops.lp_block_range(f.grid)],
    "lp_linf_l1": ops.lp_linf_l1,
    "stein_deriv/0.25,decay": lambda f: ops.stein_deriv(f, 0.25),
    "stein_deriv/0.75,decay": lambda f: ops.stein_deriv(f, 0.75),
    "stein_deriv/0.25,stationary": lambda f: ops.stein_deriv(f, 0.25, tail="stationary"),
    "stein_deriv/0.75,stationary": lambda f: ops.stein_deriv(f, 0.75, tail="stationary"),
}


def _hex(value):
    """A report value as text that keeps every bit of it."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _hex(v) for k, v in value.items()}
    return repr(value)


def _case(name: str, params: dict) -> dict:
    try:
        r = run_check(name, params)
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "check_id": r.check_id,
        "params": _hex(r.params),
        "corpus_size": r.corpus_size,
        "worst_ratio": _hex(r.worst_ratio),
        "fitted_constant": _hex(r.fitted_constant),
        "residual_max": _hex(r.residual_max),
        "refinement_trend": _hex(r.refinement_trend),
        "verdict": r.verdict,
        "notes": _hex(r.notes),
    }


def check_cases() -> dict:
    cases = {f"default/{name}": (name, {}) for name in CHECKS}
    for seed in REFINE_SEEDS:
        for name in CHECKS:
            if name != "persistence":
                n = 1024 if name == "leibniz" else 4096
                cases[f"refine/seed={seed}/{name}"] = (name, {"seed": seed, "n": n})
    for b in GAMMA_ORDERS:
        for t in GAMMA_TIMES:
            cases[f"gamma_identity/b={b:g},t={t:g}"] = ("gamma_identity", {"b": b, "t": t})
    for name, params in EDGE_CASES:
        label = ",".join(f"{k}={v:g}" for k, v in params.items())
        cases[f"edge/{name}/{label}"] = (name, params)
    return {key: _case(name, params) for key, (name, params) in cases.items()}


def _operator_fields(n: int) -> dict:
    """A real and a complex field on Grid(n, 10), and the block of the two."""
    x = Grid(n, 10.0).x
    real = np.exp(-(x**2) / 4.0) * (1.0 + 0.3 * np.sin(2.0 * x))
    cplx = np.exp(-((x - 1.0) ** 2) / 3.0 + 0.7j * x) / (1.0 + 0.2j * x)
    g = Grid(n, 10.0)
    return {"real": Field(g, real), "complex": Field(g, cplx), "block": Field(g, [real, cplx])}


def _digest(output) -> str:
    """SHA-256 of an operator's output: a field, a list of fields, or the
    numbers of a reduction."""
    items = output if isinstance(output, list) else [output]
    sha = hashlib.sha256()
    for item in items:
        values = item.values if isinstance(item, Field) else np.asarray(item, dtype=float)
        sha.update(np.ascontiguousarray(values).tobytes())
    return sha.hexdigest()


def operator_cases() -> dict:
    cases = {}
    for n in OPERATOR_SIZES:
        for kind, f in _operator_fields(n).items():
            for name, op in OPERATORS.items():
                cases[f"{name}/n={n}/{kind}"] = _digest(op(f))
    return cases


def _run_main(argv: list, stderr=None) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr or io.StringIO()):
        return main(argv)


def _digests(out: Path, label: str) -> dict:
    return {
        f"{label}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def output_files() -> dict:
    files = {}
    snapshots = ", ".join(f"{0.02 * i:.2f}" for i in range(11))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sweep = root / "sweep.cfg"
        sweep.write_text(f"command = sweep\nsweep.checks = {', '.join(CHECKS)}\n")
        files["sweep/exit"] = _run_main(["sweep", "--config", str(sweep), "--out", str(root / "sweep")])
        files.update(_digests(root / "sweep", "sweep"))
        for model, keys in SOLVE_MODELS:
            for u0 in SOLVE_U0:
                label = f"solve/{model}/{u0}"
                cfg = root / "solve.cfg"
                cfg.write_text(
                    f"command = solve\n{keys}grid.n = 2048\ngrid.L = 20\n"
                    f"stepper.dt = 0.001\nstepper.T = 0.2\nstepper.snapshots = {snapshots}\n"
                    f"solve.u0 = {u0}\nsolve.amplitude = 1.2\nsolve.s = 2\nsolve.m = 1.5\n"
                )
                out = root / label
                files[f"{label}/exit"] = _run_main(["solve", "--config", str(cfg), "--out", str(out)])
                files.update(_digests(out, label))
        for model in ("gkdv", "bo"):
            label = f"diverging/{model}"
            cfg = root / "diverging.cfg"
            cfg.write_text(f"command = solve\nequation.model = {model}\n{DIVERGING_SOLVE}")
            err = io.StringIO()
            files[f"{label}/exit"] = _run_main(["solve", "--config", str(cfg), "--out", str(root / label)], err)
            files[f"{label}/stderr"] = err.getvalue().splitlines()[-1]
    return files


if __name__ == "__main__":
    document = {"checks": check_cases(), "files": output_files(), "operators": operator_cases()}
    print(json.dumps(document, indent=1, sort_keys=True))
