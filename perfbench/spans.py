"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps every public function of the traced modules, and
the two hot methods ``BumpField.block_of`` and ``CanonicalForm.Q``,
with a span that measures its duration and its self time (duration
minus the time covered by its direct child spans).  A function is
replaced at every ``lawe_spectra`` module that holds it, so calls
through names imported with ``from .spectra import ...`` are traced
too.  Spans are aggregated per job in memory, by name, as they close.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "model", "discrete", "spectra", "ppmodes", "polytrans", "slform")

SLFORM_DIAGNOSTICS = ("slform.extend_trace_asymptotic", "slform.regularity_check",
                      "slform.trace_regularity", "slform.l2_growth", "slform.wkb_fit")

#: per-layer self-time metrics: metric name -> span names it sums
_SELF_METRICS = {
    "spectra.sturm_counts.self_s": ("spectra.sturm_counts",),
    "spectra.eigenvalues_bisect.self_s": ("spectra.eigenvalues_bisect",),
    "spectra.inverse_iteration.self_s": ("spectra.eigenvectors_inverse_iteration",),
    "spectra.jost_verify.self_s": ("spectra.jost_verify",),
    "ppmodes.detect_edge_eigenvalues.self_s": ("ppmodes.detect_edge_eigenvalues",),
    "ppmodes.block_of.self_s": ("ppmodes.block_of",),
    "ppmodes.theorem_model.self_s": ("ppmodes.theorem_model",),
    "polytrans.build_scaled_system.self_s": ("polytrans.build_scaled_system",),
    "polytrans.delta_r_growth.self_s": ("polytrans.delta_r_growth",),
    "polytrans.similarity_check.self_s": ("polytrans.similarity_check",),
    "slform.integrate_canonical.self_s": ("slform.integrate_canonical",),
    "slform.Q.self_s": ("slform.Q",),
    "slform.diagnostics.self_s": SLFORM_DIAGNOSTICS,
    "slform.classify_sl_case.self_s": ("slform.classify_sl_case",),
    "discrete.assemble_jacobi.self_s": ("discrete.assemble_jacobi",),
    "discrete.delta_r_from_X.self_s": ("discrete.delta_r_from_X",),
}


def _method_targets():
    from lawe_spectra import ppmodes, slform
    return ((ppmodes.BumpField, "block_of", "ppmodes.block_of"),
            (slform.CanonicalForm, "Q", "slform.Q"))


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` restores it."""

    def __init__(self):
        self.jobs = []          # per job: {"spans": {name: [calls, self, total]}, "counts": {}}
        self._current = None
        self._stack = []        # open spans: [child seconds, child sturm_counts calls]
        self._patches = []
        self.widest_sweep = None  # (rows*shifts, diag, off2, shifts) of the largest call

    def begin_job(self):
        self._current = {"spans": {}, "counts": {}}
        self.jobs.append(self._current)

    def _count(self, name, value):
        counts = self._current["counts"]
        counts[name] = counts.get(name, 0) + value

    # hooks run after a successful call, with the bound arguments
    def _on_sturm_counts(self, args, result, frame):
        rows = np.asarray(args["diag"]).shape[0]
        shifts = np.atleast_1d(args["shifts"]).size
        self._count("spectra.sturm_counts.row_shifts", rows * shifts)
        if self.widest_sweep is None or rows * shifts > self.widest_sweep[0]:
            self.widest_sweep = (rows * shifts, args["diag"], args["off2"],
                                 np.array(np.atleast_1d(args["shifts"]), dtype=float))

    def _on_bisect(self, args, result, frame):
        # one Sturm sweep per bisection round, plus one to count a window
        window_sweep = 1 if args.get("window") is not None else 0
        self._count("spectra.eigenvalues_bisect.rounds", frame[1] - window_sweep)

    def _on_inverse_iteration(self, args, result, frame):
        self._count("spectra.inverse_iteration.vectors",
                    np.atleast_1d(args["values"]).size)

    def _on_detect(self, args, result, frame):
        self._count("ppmodes.modes", result.count)

    def _wrap(self, name, fn):
        hook = {"spectra.sturm_counts": self._on_sturm_counts,
                "spectra.eigenvalues_bisect": self._on_bisect,
                "spectra.eigenvectors_inverse_iteration": self._on_inverse_iteration,
                "ppmodes.detect_edge_eigenvalues": self._on_detect}.get(name)
        sig = inspect.signature(fn) if hook else None
        is_sweep = name == "spectra.sturm_counts"
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                    if is_sweep:
                        stack[-1][1] += 1
                spans = tracer._current["spans"]
                agg = spans.get(name)
                if agg is None:
                    agg = spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[0]
                agg[2] += dur
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, frame)
            return result
        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"lawe_spectra.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "lawe_spectra" or n.startswith("lawe_spectra.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls, attr, name in _method_targets():
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self):
        while self._patches:
            holder, attr, orig = self._patches.pop()
            setattr(holder, attr, orig)


def _merge(jobs, key):
    out = {}
    for job in jobs:
        for name, val in job[key].items():
            if isinstance(val, list):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += val[k]
            else:
                out[name] = out.get(name, 0) + val
    return out


def layer_metrics(tracer):
    """Self times, exact counts and derived rates over all traced jobs."""
    spans = _merge(tracer.jobs, "spans")
    counts = _merge(tracer.jobs, "counts")

    def self_s(*names):
        return sum(spans[n][1] for n in names if n in spans)

    def calls(name):
        return spans[name][0] if name in spans else 0

    out = {metric: self_s(*names) for metric, names in _SELF_METRICS.items()}
    for layer in ("model", "cli"):
        out[f"{layer}.self_s"] = self_s(*[n for n in spans if n.startswith(layer + ".")])

    row_shifts = counts.get("spectra.sturm_counts.row_shifts", 0)
    out["spectra.sturm_counts.calls"] = calls("spectra.sturm_counts")
    out["spectra.sturm_counts.row_shifts"] = row_shifts
    out["spectra.sturm_counts.ns_per_row_shift"] = (
        1e9 * out["spectra.sturm_counts.self_s"] / row_shifts if row_shifts else 0.0)
    n_bisect = calls("spectra.eigenvalues_bisect")
    out["spectra.eigenvalues_bisect.rounds_per_call"] = (
        counts.get("spectra.eigenvalues_bisect.rounds", 0) / n_bisect if n_bisect else 0.0)
    out["spectra.inverse_iteration.vectors"] = counts.get(
        "spectra.inverse_iteration.vectors", 0)
    out["ppmodes.modes"] = counts.get("ppmodes.modes", 0)
    q_calls = calls("slform.Q")
    q_self = out.pop("slform.Q.self_s")
    out["slform.Q.calls"] = q_calls
    out["slform.Q.us_per_call"] = 1e6 * q_self / q_calls if q_calls else 0.0
    return out


def job_span_total(job, name):
    """Inclusive seconds of ``name`` spans within one traced job."""
    agg = job["spans"].get(name)
    return agg[2] if agg else 0.0


def job_span_calls(job, name):
    agg = job["spans"].get(name)
    return agg[0] if agg else 0
