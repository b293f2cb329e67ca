"""Outside-in tracing of gaussn: spans and counts recorded from the benchmark.

``Tracer.install`` replaces each function in ``SPANNED`` at every ``gaussn.*``
module attribute bound to it, so calls the library makes to itself through
a module global (``minimal_n`` -> ``remainder_ratio``, ``divergence`` ->
``integrate``) are caught as well as the benchmark's own calls.  No file of
the library changes.

Each span records its name, start, end, parent span and sweep; spans stay in
memory until ``write_spans``.  Self time is a span's duration minus the
time covered by its direct children.  The quadrature wrappers pass the
library a counting wrapper of the caller's integrand, which yields the
integrand evaluations and abscissae; nested quadrature calls (an
``integrate`` inside ``integrate_with_log_singularity``) are counted once,
at the outermost call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import tracemalloc
import warnings
from array import array
from collections import Counter
from time import perf_counter

SPANNED = {
    "cli": ("main",),
    "criterion": ("minimal_n", "remainder_ratio", "criterion_report"),
    "divergence": ("max_abs_derivative", "h_functional", "h_derivative_numeric"),
    "information": ("fisher_gradient_form", "fisher_curvature_form"),
    "models": ("sample", "ml_estimate"),
    "posterior": ("posterior_from_observations", "compare_to_gaussian"),
    "quadrature": ("integrate", "integrate_with_log_singularity"),
}
MODELS = ("chi2log", "gauss", "trig", "binom")
CALL_COUNTS = (
    "criterion.remainder_ratio",
    "divergence.max_abs_derivative",
    "divergence.h_functional",
    "divergence.h_derivative_numeric",
    "quadrature.integrate",
    "quadrature.integrate_with_log_singularity",
)
WORK_COUNTS = (
    "quadrature.integrand_evals",
    "quadrature.abscissae",
    "quadrature.subdivisions",
    "quadrature.errors",
    "posterior.matrix_bytes_computed",
)
SELF_TIMES = (
    "cli.main",
    "criterion.minimal_n",
    "criterion.criterion_report",
    "divergence.max_abs_derivative",
    "divergence.h_functional",
    "divergence.h_derivative_numeric",
    "information.fisher_gradient_form",
    "information.fisher_curvature_form",
    *(f"models.{fn}.{m}" for fn in ("sample", "ml_estimate") for m in MODELS),
    "posterior.posterior_from_observations",
    "posterior.compare_to_gaussian",
)
# Counts that must repeat exactly when one sweep is run twice.
EXACT = (
    "criterion.remainder_ratio.calls",
    "quadrature.integrand_evals",
    "quadrature.subdivisions",
    "posterior.matrix_bytes_computed",
)


class Tracer:
    def __init__(self):
        # One entry per span, in start order; names are ids into name_table.
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.sweeps = array("q")
        self.sweep = -1
        self.counts: dict[int, Counter] = {}
        self.peak_alloc_mb = 0.0
        self._open: list[int] = []
        self._quad_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and counts ---------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.names)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        self.names.append(name_id)
        self.parents.append(self._open[-1] if self._open else -1)
        self.sweeps.append(self.sweep)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._open.pop()

    def count(self, key, amount=1):
        self.counts.setdefault(self.sweep, Counter())[key] += amount

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        if name in ("models.sample", "models.ml_estimate"):
            return self._wrap_per_model(name, fn)
        if name == "posterior.posterior_from_observations":
            return self._wrap_posterior(name, fn)
        if name.startswith("quadrature."):
            return self._wrap_quadrature(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_per_model(self, name, fn):
        sig = inspect.signature(fn)
        ambiguous = sys.modules["gaussn.models"].AmbiguousMaximumWarning

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = sig.bind(*args, **kwargs).arguments["model"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = self._call(f"{name}.{model.id.value}", fn, args, kwargs)
            for w in caught:  # count, then hand each warning on to the caller
                if issubclass(w.category, ambiguous):
                    self.count("models.ml_estimate.ambiguous_warnings")
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return wrapper

    def _wrap_posterior(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if a["model"].id.value != "binom":  # binom uses its score, no N x G matrix
                self.count("posterior.matrix_bytes_computed", a["obs"].n * a["grid_size"] * 8)
            if not tracemalloc.is_tracing():
                return self._call(name, fn, args, kwargs)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return self._call(name, fn, args, kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
                self.peak_alloc_mb = max(self.peak_alloc_mb, peak)

        return wrapper

    def _wrap_quadrature(self, name, fn):
        error_type = sys.modules["gaussn.errors"].QuadratureError

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            outer = self._quad_depth == 0
            if outer:
                inner = f

                def f(xs):
                    self.count("quadrature.integrand_evals")
                    self.count("quadrature.abscissae", int(xs.size))
                    return inner(xs)

            self._quad_depth += 1
            try:
                result = self._call(name, fn, (f, *args), kwargs)
            except error_type:
                if outer:
                    self.count("quadrature.errors")
                raise
            finally:
                self._quad_depth -= 1
            if outer:
                self.count("quadrature.subdivisions", result.subdivisions_used)
            return result

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "gaussn" or k.startswith("gaussn.")]
        for mod_name, fn_names in SPANNED.items():
            home = sys.modules[f"gaussn.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def sweep_counts(self, sweep) -> dict[str, int]:
        """Exact work counts of one sweep."""
        ids = Counter(n for n, s in zip(self.names, self.sweeps) if s == sweep)
        calls = Counter({self.name_table[n]: c for n, c in ids.items()})
        out = {f"{name}.calls": calls[name] for name in CALL_COUNTS}
        out["criterion.minimal_n.calls"] = calls["criterion.minimal_n"]
        work = self.counts.get(sweep, Counter())
        out.update({key: work[key] for key in WORK_COUNTS})
        return out

    def self_ms_per_sweep(self, sweeps) -> dict[str, float]:
        """Mean self time per sweep of each span name, over ``sweeps``."""
        child = [0.0] * len(self.names)
        for k, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[k] - self.starts[k]
        wanted = set(sweeps)
        total = Counter()
        for k, name_id in enumerate(self.names):
            if self.sweeps[k] in wanted:
                total[self.name_table[name_id]] += self.ends[k] - self.starts[k] - child[k]
        return {name: 1e3 * t / len(wanted) for name, t in total.items()}

    def write_spans(self, path):
        """Gzipped CSV, one row per span; times in seconds of perf_counter."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,sweep\n")
            for k, name_id in enumerate(self.names):
                fh.write(f"{k},{self.name_table[name_id]},{self.starts[k]!r},{self.ends[k]!r},"
                         f"{self.parents[k]},{self.sweeps[k]}\n")
