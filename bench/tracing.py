"""Span tracer for dispersivelab's layers, installed from outside the package.

Each layer is one package module.  ``Tracer.installed()`` wraps the public
functions of every layer and the public methods of its public classes, and
rebinds each wrapper under every name the package binds the original to
(``checks`` and ``norms`` import by name, so patching ``operators`` alone
would miss their calls).  Spans (id, parent id, op id, name, start, end,
self time) are kept in memory and written out at the end; a span's self time
is its duration minus the time its child spans cover.  numpy's FFT entry
points and ``Field`` constructions are counted without spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spectral", "operators", "norms", "propagators", "laws", "corpus", "checks", "cli")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
MODELS = ("nls", "gkdv", "bo")


def _public_names(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return names


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []        # (id, parent id, op id, name, start, end, self)
        self._stack = []       # open frames: [span id, child time]
        self._next_id = 0
        self._op = None
        self._patches = []
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_bytes = 0
        self.field_constructions = 0
        self.steps = dict.fromkeys(MODELS, 0)
        self.step_self_s = dict.fromkeys(MODELS, 0.0)

    # -------------------------------------------------------------- spans

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, end):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self_s = dur - frame[1]
        self.spans.append((frame[0], parent, self._op, name, start, end, self_s))
        return self_s

    @contextlib.contextmanager
    def op_span(self, op_id, kind):
        """Root span of one op; every span inside it carries ``op_id``."""
        self._op = op_id
        frame, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, f"op.{kind}", start, time.perf_counter())
            self._op = None

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self_s = self._close(frame, parent, name, start, time.perf_counter())
            if after is not None:
                after(args, kwargs, result, self_s)
            return result

        return traced

    # ------------------------------------------------------------ counters

    def _count_fft(self, name, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.fft_calls += 1
            self.fft_points += np.size(a) if name == "rfft" else out.size
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def _count_field(self, fn):
        @functools.wraps(fn)
        def counted(obj):
            self.field_constructions += 1
            return fn(obj)

        return counted

    def _count_steps(self, signature):
        def after(args, kwargs, traj, self_s):
            bound = signature.bind(*args, **kwargs)
            spec, cfg = bound.arguments["spec"], bound.arguments["cfg"]
            if traj.failed:
                t_end = traj.failure_time
            else:
                t_end = float(traj.times[-1]) if len(traj.times) else 0.0
            self.steps[spec.model] += int(round(t_end / cfg.dt))
            self.step_self_s[spec.model] += self_s

        return after

    # --------------------------------------------------------- installing

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        pkg = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg}.{layer}")
            for attr in _public_names(mod):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    after = None
                    if (layer, attr) == ("propagators", "evolve"):
                        after = self._count_steps(inspect.signature(obj))
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj, after)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        # __init__ only when written in the module, not generated
                        own_init = meth == "__init__" and inspect.isfunction(fn) and (
                            fn.__code__.co_filename == mod.__file__
                        )
                        if inspect.isfunction(fn) and (not meth.startswith("_") or own_init):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != pkg and not modname.startswith(pkg + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        field_cls = importlib.import_module(f"{pkg}.spectral").Field
        self._patch(field_cls, "__post_init__", self._count_field(field_cls.__post_init__))
        for name in FFT_FUNCS:
            self._patch(np.fft, name, self._count_fft(name, getattr(np.fft, name)))
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, value = self._patches.pop()
                setattr(owner, attr, value)

    # ------------------------------------------------------------- results

    def metrics(self) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for _, _, _, name, _, _, s in self.spans:
            calls[name] += 1
            self_s[name] += s
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += s

        def m(value, unit):
            return {"value": value, "unit": unit}

        out = {
            "spectral.apply_multiplier.calls": m(calls["spectral.apply_multiplier"], "count"),
            "spectral.apply_multiplier.self_s": m(self_s["spectral.apply_multiplier"], "s"),
            "spectral.field.constructions": m(self.field_constructions, "count"),
            "spectral.fft.calls": m(self.fft_calls, "count"),
            "spectral.fft.points": m(self.fft_points, "count"),
            "spectral.fft.bytes_computed": m(self.fft_bytes, "B"),
            "operators.stein_deriv.calls": m(calls["operators.stein_deriv"], "count"),
            "operators.stein_deriv.self_s": m(self_s["operators.stein_deriv"], "s"),
            "operators.lp_linf_l1.self_s": m(self_s["operators.lp_linf_l1"], "s"),
            "norms.ap_constant.self_s": m(self_s["norms.ap_constant"], "s"),
            "propagators.evolve.calls": m(calls["propagators.evolve"], "count"),
            "propagators.evolve.self_s": m(self_s["propagators.evolve"], "s"),
            "propagators.steps": m(sum(self.steps.values()), "count"),
            "propagators.linear_group.calls": m(calls["propagators.linear_group"], "count"),
            "propagators.linear_group.self_s": m(self_s["propagators.linear_group"], "s"),
        }
        for model in MODELS:
            steps = self.steps[model]
            per_step = self.step_self_s[model] / steps * 1e6 if steps else 0.0
            out[f"propagators.step_us.{model}"] = m(per_step, "us")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = m(layer_self[layer], "s")
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, start, end, s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start - t0, "end": end - t0, "self": s,
                }) + "\n")
