"""Spans around zqdist's public functions, for the traced benchmark run.

`Tracer.install` wraps every public function of the traced modules at every
module binding site: `sphere` and `distset` call `forward` through their own
`from .fourier import forward` binding, so wrapping only the defining module
would miss those calls.  `PointSet` is traced through its `__init__`.

Each call appends one span (name, parent span, start, end) to flat arrays
kept in memory; self time is derived when the run ends, as a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("arith", "gauss", "fourier", "sphere", "distset", "cli")
SPECTRUM_ROUTES = ("sphere.sphere_fourier_direct", "sphere.sphere_spectrum_formula")

# (metric, unit) for every per-layer metric a traced run reports.
LAYER_METRICS = [
    *[(f"{m}.self_s", "s") for m in MODULES if m != "cli"],  # cli: only main is public
    ("gauss.gauss_brute.calls", "count"), ("gauss.gauss_brute.self_s", "s"),
    ("gauss.gauss_general.calls", "count"), ("gauss.gauss_general.self_s", "s"),
    ("gauss.gauss_closed.calls", "count"),
    ("fourier.forward.calls", "count"), ("fourier.forward.self_s", "s"),
    ("fourier.forward.grid_points", "count"), ("fourier.forward.cmacs_computed", "count"),
    ("fourier.inverse.calls", "count"), ("fourier.inverse.self_s", "s"),
    ("fourier.orthogonality_max_defect.self_s", "s"), ("fourier.plancherel_defect.self_s", "s"),
    ("sphere.sphere_fourier_direct.calls", "count"), ("sphere.sphere_fourier_direct.self_s", "s"),
    ("sphere.sphere_spectrum_formula.calls", "count"),
    ("sphere.sphere_spectrum_formula.self_s", "s"),
    ("sphere.sphere_spectrum.calls", "count"), ("sphere.sphere_spectrum.hit_ratio", "ratio"),
    ("sphere.sphere_counts_all.self_s", "s"),
    ("sphere.sphere_count_formula.calls", "count"), ("sphere.sphere_count_formula.self_s", "s"),
    ("sphere.sphere_size_bound_check.self_s", "s"), ("sphere.spectra_max_diff.self_s", "s"),
    ("sphere.decay_bound_check.self_s", "s"),
    ("distset.sample_random_set.self_s", "s"), ("distset.sample_random_set.points", "count"),
    ("distset.PointSet.self_s", "s"), ("distset.construct_even_weight.self_s", "s"),
    ("distset.nu_histogram.calls", "count"), ("distset.nu_histogram.self_s", "s"),
    ("distset.nu_histogram.pairs", "count"), ("distset.nu_histogram.pairs_per_s", "1/s"),
    ("distset.distance_set.self_s", "s"),
    ("distset.nu_spectral_sweep.calls", "count"), ("distset.nu_spectral_sweep.self_s", "s"),
    ("distset.nu_spectral_sweep.t_values", "count"),
    ("distset.nu_spectral_sweep.max_int_residual", "abs"),
    ("distset.certificate_check.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.rows", "count"), ("cli.bytes_out", "bytes"),
    ("arith.factorize.calls", "count"), ("arith.factorize.self_s", "s"),
    ("trace.spans", "count"),
]


def _forward_counts(counters, args, kwargs, result):
    q, d = result.q, result.d
    counters["fourier.forward.grid_points"] += q**d
    counters["fourier.forward.cmacs_computed"] += d * q ** (d + 1)


def _histogram_counts(counters, args, kwargs, result):
    counters["distset.nu_histogram.pairs"] += int(result.sum())


def _sample_counts(counters, args, kwargs, result):
    counters["distset.sample_random_set.points"] += result.size


def _sweep_counts(counters, args, kwargs, result):
    counters["distset.nu_spectral_sweep.t_values"] += len(result)
    worst = max((abs(r.main_term + r.r_t - r.nu) for r in result), default=0.0)
    key = "distset.nu_spectral_sweep.max_int_residual"
    counters[key] = max(counters[key], worst)


def _cli_output_counts(counters, args, kwargs, result):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        with open(path, "rb") as fh:
            data = fh.read()
        counters["cli.bytes_out"] += len(data)
        counters["cli.rows"] += max(0, data.count(b"\n") - 1)


HOOKS = {
    "fourier.forward": _forward_counts,
    "distset.nu_histogram": _histogram_counts,
    "distset.sample_random_set": _sample_counts,
    "distset.nu_spectral_sweep": _sweep_counts,
    "cli.main": _cli_output_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def _wrap(self, fn, label: str):
        nid = len(self.names)
        self.names.append(label)
        hook = HOOKS.get(label)
        counters, stack = self.counters, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of `package`'s traced modules wherever bound."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            names = list(getattr(mod, "__all__", ())) + (["main"] if mod.__name__.endswith(".cli") else [])
            for name in names:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in wrappers:
                    label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(fn, label)
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
        point_set = modules[MODULES.index("distset")].PointSet
        point_set.__init__ = self._wrap(point_set.__init__, "distset.PointSet")

    def spans(self) -> dict[str, np.ndarray]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {"name_id": name_id, "parent": parent, "start": np.frombuffer(self.start),
                "duration": dur, "self": dur - children}

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def metrics(self) -> dict[str, float]:
        sp = self.spans()
        n = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=n)
        self_s = np.bincount(sp["name_id"], weights=sp["self"], minlength=n)
        out = dict.fromkeys((name for name, _ in LAYER_METRICS), 0.0)
        out.update(self.counters)
        for i, label in enumerate(self.names):
            for key, value in ((f"{label}.calls", calls[i]), (f"{label}.self_s", self_s[i])):
                if key in out:
                    out[key] = float(value)
            module_key = label.split(".", 1)[0] + ".self_s"
            if module_key in out:
                out[module_key] += float(self_s[i])
        if out["distset.nu_histogram.self_s"] > 0:
            out["distset.nu_histogram.pairs_per_s"] = (
                out["distset.nu_histogram.pairs"] / out["distset.nu_histogram.self_s"])
        ss = self.names.index("sphere.sphere_spectrum")
        routes = [self.names.index(r) for r in SPECTRUM_ROUTES]
        under = np.isin(sp["name_id"], routes) & (sp["parent"] >= 0)
        misses = int(np.count_nonzero(sp["name_id"][sp["parent"][under]] == ss))
        if calls[ss]:
            out["sphere.sphere_spectrum.hit_ratio"] = (calls[ss] - misses) / calls[ss]
        out["trace.spans"] = float(sp["name_id"].size)
        return out
