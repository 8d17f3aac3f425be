"""Instrumentation of survcheck from outside: a fit log and layer spans.

`Instrument.install` rebinds the public functions of each survcheck module
(plus the public methods listed in `METHODS`) to wrappers, in every
survcheck namespace that holds them, and `remove` puts the originals back.
Nothing under `src/` changes.

Two things are recorded:

* every `fit` call, always: preset name, wall seconds and the FitResult, so
  convergence and ESS per second are known in untraced runs too;
* spans, only while `tracing` is true: (id, parent, name, start, end, key).
  `PosteriorModel.log_posterior` runs tens of thousands of times per fit,
  so it is counted and timed in aggregate instead of spanned, and the calls
  it makes are not spanned either.

A span may carry a metric key.  A span without one inherits the key of its
nearest keyed ancestor, so the self times (duration minus direct child
spans) of all spans partition the traced time among the keys.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import warnings
from collections import Counter

LAYERS = ("simulate", "data", "models", "sampler", "loo", "checks", "series",
          "experiments", "cli")
METHODS = {
    "models": ("ModelDesign.__init__", "ModelDesign.matrix"),
    "sampler": ("PosteriorModel.__init__",),
}
HOT_METHOD = ("sampler", "PosteriorModel", "log_posterior")
PRESETS = ("exponential-gist", "weibull-gist", "bernoulli-gist")
KHAT_OK = 0.7

# span name -> metric key; names not listed inherit their parent's key
FIXED_KEYS = {
    "sampler.diagnose": "sampler.diagnose_s",
    "sampler.split_rhat": "sampler.diagnose_s",
    "sampler.bulk_ess": "sampler.diagnose_s",
    "models.ModelDesign.__init__": "models.design_matrix_s",
    "models.ModelDesign.matrix": "models.design_matrix_s",
    "models.posterior_predictive_times": "models.posterior_predictive_times_s",
    "models.impute_censored": "models.impute_censored_s",
    "loo.group_long_by_subject": "loo.bernoulli_loglik_s",
    "loo.grouped_units": "loo.bernoulli_loglik_s",
    "loo.bernoulli_dichotomized_loglik": "loo.bernoulli_dichotomized_loglik_s",
    "loo.psis_smooth": "loo.psis_smooth_s",
    "loo.elpd_loo": "loo.elpd_loo_s",
    "loo.compare": "loo.compare_s",
    "loo.exact_refit_loo": "loo.exact_refit_loo_s",
    "checks.km_overlay": "checks.km_overlay_s",
    "checks.pit_ecdf_check": "checks.pit_ecdf_check_s",
    "checks.intervals_data": "checks.intervals_data_s",
    "checks.calibration_check": "checks.calibration_check_s",
    "simulate.simulate_scenario": "simulate.simulate_scenario_s",
    "data.scale_covariates": "data.scale_covariates_s",
    "data.apply_scaling": "data.apply_scaling_s",
    "series.bundle_to_json": "series.bundle_to_json_s",
    "experiments.run_pipeline": "experiments.run_pipeline_s",
}
ITER_TIME_KEYS = tuple(f"sampler.fit_s.{p}" for p in PRESETS) + (
    "sampler.diagnose_s",
    "models.design_matrix_s",
    "models.posterior_predictive_times_s",
    "models.impute_censored_s",
    "loo.loglik_matrix_s.raw",
    "loo.loglik_matrix_s.interval",
    "loo.loglik_matrix_s.dichotomized",
    "loo.bernoulli_loglik_s",
    "loo.bernoulli_dichotomized_loglik_s",
    "loo.psis_smooth_s",
    "loo.elpd_loo_s",
    "loo.compare_s",
    "loo.exact_refit_loo_s",
    "checks.km_overlay_s",
    "checks.pit_ecdf_check_s",
    "checks.intervals_data_s",
    "checks.calibration_check_s",
    "series.bundle_to_json_s",
    "experiments.run_pipeline_s",
)
SETUP_TIME_KEYS = ("simulate.simulate_scenario_s", "data.scale_covariates_s",
                   "data.apply_scaling_s")
ITER_COUNTERS = ("sampler.log_posterior_evals", "models.design_rows", "loo.psis_columns",
                 "loo.degenerate_cols", "loo.refits_attempted", "loo.refit_failures")


def _spec_name(spec) -> str:
    return getattr(spec, "name", "") or getattr(spec, "family", "unknown")


class Instrument:
    """Wraps survcheck's public functions; see the module docstring.

    With ``trace`` false only ``fit`` is wrapped (the fit log).  With it
    true every public function is wrapped, and spans are recorded while the
    ``tracing`` attribute is true, so traced and untraced iterations can
    alternate in one process.
    """

    def __init__(self, package, trace: bool):
        self.package = package
        self.trace = trace
        self.tracing = False
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.fits: list[tuple] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._hot = 0
        self._restore: list[tuple] = []

    # -- patching ---------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"{self.package.__name__}.{name}")
                   for name in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self._span_wrapper(f"{layer}.{attr}", obj) if self.trace else obj
                if (layer, attr) == ("sampler", "fit"):
                    wrapped = self._fit_wrapper(wrapped)
                if wrapped is not obj:
                    wrappers[id(obj)] = wrapped
        for ns in (self.package, *modules):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        if not self.trace:
            return
        for layer, methods in METHODS.items():
            for qual in methods:
                cls_name, meth = qual.split(".")
                cls = getattr(getattr(self.package, layer), cls_name)
                self._patch(cls, meth, self._span_wrapper(f"{layer}.{qual}", cls.__dict__[meth]))
        layer, cls_name, meth = HOT_METHOD
        cls = getattr(getattr(self.package, layer), cls_name)
        self._patch(cls, meth, self._hot_wrapper(cls.__dict__[meth]))

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def remove(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------------

    def _fit_wrapper(self, fit):
        inst = self

        @functools.wraps(fit)
        def recorded_fit(spec, *args, **kwargs):
            start = time.perf_counter()
            result = None
            try:
                result = fit(spec, *args, **kwargs)
                return result
            finally:
                inst.fits.append((_spec_name(spec), time.perf_counter() - start, result,
                                  inst.tracing))

        return recorded_fit

    def _span_wrapper(self, name: str, fn):
        inst = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not inst.tracing or inst._hot:
                return fn(*args, **kwargs)
            sid = inst._next_id
            inst._next_id += 1
            parent = inst._stack[-1][0] if inst._stack else -1
            key = _key(name, signature, args, kwargs)
            inst._stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                inst._stack.pop()
                inst.spans.append((sid, parent, name, start, end, key))
            inst._count(name, signature, args, kwargs, result)
            return result

        return spanned

    def _hot_wrapper(self, fn):
        inst = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not inst.tracing:
                return fn(*args, **kwargs)
            inst._hot += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                inst.counters["sampler.log_posterior_s"] += time.perf_counter() - start
                inst.counters["sampler.log_posterior_evals"] += 1
                inst._hot -= 1

        return counted

    def _count(self, name, signature, args, kwargs, result):
        c = self.counters
        if name == "models.ModelDesign.matrix":
            c["models.design_rows"] += int(result.shape[0])
        elif name == "loo.psis_smooth":
            c["loo.psis_columns"] += int(result.khat.size)
            c["loo.khat_ok"] += int((result.khat <= KHAT_OK).sum())  # nan counts as not ok
            c["loo.degenerate_cols"] += int(result.degenerate.sum())
        elif name == "loo.exact_refit_loo":
            c["loo.refits_attempted"] += len(signature.bind(*args, **kwargs).arguments["unit_ids"])
            c["loo.refit_failures"] += len(result["failures"])

    # -- traced regions ---------------------------------------------------------

    @contextlib.contextmanager
    def traced(self):
        """Record spans, counters and per-layer warning counts inside the block."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._on_warning
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        layer = self._stack[-1][1].split(".", 1)[0] if self._stack else "bench"
        self.counters[f"{layer}.warnings"] += 1

    def mark(self) -> tuple[int, Counter]:
        """Start of a region: the span index and a copy of the counters."""
        return len(self.spans), Counter(self.counters)

    def region_metrics(self, mark, time_keys) -> dict:
        """Per-layer metrics of the spans and counts recorded since ``mark``."""
        start, before = mark
        spans = self.spans[start:]
        counts = Counter(self.counters)
        counts.subtract(before)
        selfs = self_times(spans)
        out = {key: selfs.get(key, 0.0) for key in time_keys}
        for key in ITER_COUNTERS:
            out[key] = counts.get(key, 0)
        evals = counts.get("sampler.log_posterior_evals", 0)
        out["sampler.log_posterior_us"] = (
            1e6 * counts.get("sampler.log_posterior_s", 0.0) / evals if evals else 0.0)
        cols = counts.get("loo.psis_columns", 0)
        out["loo.khat_ok_frac"] = counts.get("loo.khat_ok", 0) / cols if cols else 0.0
        out["cli.run_overhead_s"] = (inclusive_time(spans, "cli.main")
                                     - inclusive_time(spans, "experiments.run_pipeline"))
        for layer in LAYERS:
            out[f"{layer}.warnings"] = counts.get(f"{layer}.warnings", 0)
        out["trace.spans"] = len(spans)
        return out


def _key(name, signature, args, kwargs):
    if name == "sampler.fit":
        spec = signature.bind(*args, **kwargs).arguments["spec"]
        return f"sampler.fit_s.{_spec_name(spec)}"
    if name == "loo.loglik_matrix":
        bound = signature.bind(*args, **kwargs).arguments
        if bound["spec"].family == "bernoulli_logit":
            return "loo.bernoulli_loglik_s"
        return f"loo.loglik_matrix_s.{bound.get('mode', 'raw')}"
    return FIXED_KEYS.get(name)


def self_times(spans) -> Counter:
    """Self time per metric key over one slice of spans (see module docstring)."""
    ids = {s[0] for s in spans}
    child_time: Counter = Counter()
    for _sid, parent, _name, start, end, _key in spans:
        if parent in ids:
            child_time[parent] += end - start
    effective = {}
    for sid, parent, _name, _start, _end, key in sorted(spans):  # parents first
        effective[sid] = key if key is not None else effective.get(parent)
    out: Counter = Counter()
    for sid, _parent, _name, start, end, _key in spans:
        if effective[sid] is not None:
            out[effective[sid]] += (end - start) - child_time[sid]
    return out


def inclusive_time(spans, name: str) -> float:
    return sum(end - start for _sid, _p, n, start, end, _k in spans if n == name)
