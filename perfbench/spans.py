"""Spans and counters recorded around citefit's public entry points.

Nothing here lives in the library: :func:`installed` replaces each entry
point, for the duration of a ``with`` block, by a wrapper that records a
span (duration and self time) and the layer's work counts. Each name is
wrapped where its caller looks it up: a module-level function in the
namespace of every module that imported it (``citefit.gof.fit``,
``citefit.studies.fit``, ...), a constructor or method on its class
(``HookedPowerLaw.__init__`` serves every call site at once), and the
kernels through the ``citefit.distributions.kernels`` attribute. Names
missing from the code under test are skipped, so the harness survives
refactors; their metrics then read 0.

Spans are aggregated as they close rather than stored: per name the call
count and the summed self time, which is the span's duration minus the
durations of the spans it directly caused. Times are integer
nanoseconds, so a self time can only be negative or exceed its duration
through a nesting bug; every span is checked and a violation is counted
in ``Tracer.bad_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import types
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Per-name span calls and self time, plus deterministic work counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()     # work counts; deterministic at a fixed seed
        self.maxima = Counter()
        self.bad_spans = 0
        self._stack = []            # child-duration accumulator per open span

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped in a span; ``count(tracer, result, *args)`` adds work counts."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                self_ns = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not 0 <= self_ns <= duration:
                    self.bad_spans += 1
                self.calls[name] += 1
                self.self_ns[name] += self_ns
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper

    def deterministic(self) -> dict:
        """Everything that must repeat exactly for a fixed seed."""
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "maxima": dict(self.maxima)}


# --- work counters -------------------------------------------------------------

def _power_terms(tracer, result, alpha, b, start, stop):
    tracer.counts["kernels.power_sum.terms"] += int(stop) - int(start) + 1


def _interval_elems(tracer, result, z_lo, z_hi):
    tracer.counts["kernels.interval_masses.elems"] += int(np.size(z_lo))


def _draws(tracer, result, model, rng, n):
    tracer.counts["distributions.sample.draws"] += int(n)


def _ks_grid(tracer, result, model, sample):
    counts = getattr(sample, "counts", sample)
    m = int(np.max(counts))
    tracer.counts["gof.ks_statistic.grid_elems"] += m
    tracer.maxima["gof.ks_grid.max_elems"] = max(tracer.maxima["gof.ks_grid.max_elems"], m)


def _evals(tracer, result, *args, **kwargs):
    tracer.counts["simplex.nelder_mead.evals"] += int(result.evaluations)


def _fit_status(tracer, result, *args, **kwargs):
    tracer.counts[f"fitting.status.{result.status.value}"] += 1


def _file_bytes(tracer, result, path):
    tracer.counts["io.load_counts.bytes"] += os.path.getsize(path)


def _report_bytes(tracer, result, *args, **kwargs):
    tracer.counts["io.render_report.bytes"] += len(result.encode("utf-8"))


# (span name, counter, [(module, attribute path), ...]): every entry point the
# three workloads reach, at each place a caller looks it up.
ENTRY_POINTS = (
    ("distributions.hooked_init", None,
     [("citefit.distributions", "HookedPowerLaw.__init__")]),
    ("distributions.lognormal_init", None,
     [("citefit.distributions", "DiscretisedLognormal.__init__")]),
    ("distributions.sample", _draws,
     [("citefit.distributions", "_DiscreteModel.sample_with")]),
    ("sample.citation_sample", None,
     [("citefit.sample", "CitationSample.__init__")]),
    ("seeding.spawn_rng", None,
     [(m, "spawn_rng") for m in ("citefit.gof", "citefit.bootstrap", "citefit.studies")]),
    ("gof.ks_statistic", _ks_grid, [("citefit.gof", "ks_statistic")]),
    ("simplex.nelder_mead", _evals, [("citefit.fitting", "nelder_mead")]),
    ("fitting.fit", _fit_status, [("citefit.gof", "fit"), ("citefit.studies", "fit")]),
    ("vuong.vuong", None, [("citefit.studies", "vuong")]),
    ("bootstrap.bootstrap_study", None, [("citefit.studies", "bootstrap_study")]),
    # each workload calls exactly one study driver; its span is "studies.driver"
    ("studies.driver", None,
     [("citefit.studies", "bootstrap_vuong_study"), ("citefit.studies", "plausibility_row"),
      ("citefit.cli", "scale_ci_study")]),
    ("io.load_counts", _file_bytes, [("citefit.io", "load_counts")]),
    ("io.render_report", _report_bytes, [("citefit.io", "render_report")]),
)

# The compiled/NumPy kernel switch; these spans exist only while it does.
KERNEL_POINTS = (
    ("kernels.power_sum", _power_terms, "scaled_power_sum"),
    ("kernels.interval_masses", _interval_elems, "normal_interval_masses"),
)

POOL_MODULES = ("citefit.bootstrap", "citefit.studies")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


@contextlib.contextmanager
def _patched(replacements):
    """setattr every (owner, attr, value); restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def installed(tracer: Tracer):
    """Context manager that routes every entry point through ``tracer``."""
    replacements = []
    for name, count, sites in ENTRY_POINTS:
        for module_name, path in sites:
            owner, attr = _resolve(module_name, path)
            if owner is not None and attr in vars(owner):
                original = vars(owner)[attr]
                replacements.append((owner, attr, tracer.wrap(name, original, count)))
    distributions = importlib.import_module("citefit.distributions")
    kernels = getattr(distributions, "kernels", None)
    if kernels is not None:
        proxy = types.SimpleNamespace(**vars(kernels))
        for name, count, attr in KERNEL_POINTS:
            if hasattr(kernels, attr):
                setattr(proxy, attr, tracer.wrap(name, getattr(kernels, attr), count))
        replacements.append((distributions, "kernels", proxy))
    return _patched(replacements)


def counting_pools(counter: Counter):
    """Context manager counting process pools opened by the study drivers."""
    replacements = []
    for module_name in POOL_MODULES:
        module = importlib.import_module(module_name)
        executor = getattr(module, "ProcessPoolExecutor", None)
        if executor is None:
            continue

        def opened(*args, _executor=executor, **kwargs):
            counter["studies.pool_starts"] += 1
            return _executor(*args, **kwargs)

        replacements.append((module, "ProcessPoolExecutor", opened))
    return _patched(replacements)
