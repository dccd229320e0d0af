"""Span tracer that wraps oscov's public functions from outside the package.

Nothing in ``src/`` is instrumented.  ``Tracer.install`` replaces each traced
function at every ``oscov`` module attribute that holds it (and on the class,
for methods), so callers that look the name up at call time reach the
wrapper.  The ``numpy.fft`` transforms are wrapped too, to count what
``simulate_field`` transforms.  Spans and counters stay in memory and are
written out once, when the traced process ends.  ``layer_metrics`` turns the
spans of a run into the per-layer numbers listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
import warnings

import numpy as np

from oscov.errors import EmptyBin, SpectralTruncationWarning
from oscov.kernel_core import Dispersion, OuParams, Regime, classify_regime

# A span is [name, parent index (-1 for none), start, end, tag].
NAME, PARENT, START, END, TAG = range(5)

VARIANTS = (
    "under-quad", "under-lin", "crit-quad", "crit-lin",
    "over-quad", "over-lin", "ou-quad", "ou-lin",
)
VARIOGRAMS = (
    "space_time_variogram", "spatial_marginal_variogram", "temporal_marginal_variogram",
)

# numpy.fft transforms whose calls inside simulate_field are counted
FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def variant_of(params) -> str:
    """Roster name of a parameter set, e.g. ``under-quad`` or ``ou-lin``."""
    disp = "quad" if params.dispersion is Dispersion.QUADRATIC else "lin"
    if isinstance(params, OuParams):
        return f"ou-{disp}"
    regime = {Regime.UNDERDAMPED: "under", Regime.CRITICAL: "crit",
              Regime.OVERDAMPED: "over"}[classify_regime(params)]
    return f"{regime}-{disp}"


class Tracer:
    """Records one span per call of each wrapped function, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self.active = True  # set False around untimed checks

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(idx)
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, out)
            return out

        return wrapper

    def _patch_function(self, module, attr, name, hook=None):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oscov" or mod_name.startswith("oscov.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, hook=None, classmethod_=False):
        original = cls.__dict__[attr]
        if classmethod_:
            wrapped = classmethod(self._wrap(name, original.__func__, hook))
        else:
            wrapped = self._wrap(name, original, hook)
        setattr(cls, attr, wrapped)

    def install(self):
        """Wrap every traced function.

        There is no uninstall: a traced process stays traced until it exits.
        """
        import oscov.estimate as estimate
        import oscov.gp as gp
        import oscov.simulate as simulate
        import oscov.spectral as spectral
        from oscov.kernel_core import KernelModel
        from oscov.simulate import FieldRealization

        counts, spans = self.counts, self.spans

        # the result has the broadcast shape of the lags (a float for scalars)
        def covariance(idx, args, kwargs, out):
            lags = np.size(out)
            variant = variant_of(args[0].params)
            spans[idx][TAG] = variant
            counts["kernel_core.lags"] += lags
            counts[f"kernel_core.lags.{variant}"] += lags

        def density(idx, args, kwargs, out):
            counts["spectral.density_points"] += np.size(out)

        def variogram(idx, args, kwargs, out):
            spans[idx][TAG] = "gridded" if isinstance(args[0], FieldRealization) else "scattered"
            counts["estimate.pairs_binned"] += int(out.counts.sum())

        def fit(idx, args, kwargs, out):
            # fit_full's count includes the marginal stage it started from;
            # that stage is counted once, where it ran.
            start = kwargs.get("theta0", args[1] if len(args) > 1 else None)
            evals = out.n_evaluations
            if isinstance(start, estimate.FitResult):
                evals -= start.n_evaluations
            elif spans[idx][NAME] == "fit_full":
                evals -= sum(
                    s[TAG] for s in spans[idx + 1:]
                    if s[NAME] == "fit_marginals" and s[PARENT] == idx
                )
            spans[idx][TAG] = out.n_evaluations
            counts["estimate.nm_evals"] += evals

        def gram(idx, args, kwargs, out):
            counts["gp.gram_entries"] += int(out.matrix.size)

        self._patch_method(KernelModel, "covariance", "covariance", covariance)
        self._patch_function(spectral, "st_spectral_density", "st_spectral_density", density)
        self._patch_function(simulate, "simulate_field", "simulate_field")
        for attr in ("empirical_covariance", "write_field", "load_field"):
            self._patch_function(simulate, attr, attr)
        for attr in VARIOGRAMS:
            self._patch_function(estimate, attr, attr, variogram)
        self._patch_function(estimate, "wls_objective", "wls_objective")
        self._patch_function(estimate, "fit_marginals", "fit_marginals", fit)
        self._patch_function(estimate, "fit_full", "fit_full", fit)
        self._patch_function(gp, "gram", "gram", gram)
        self._patch_function(gp, "predict", "predict")
        self._patch_method(gp.SpaceTimeDataset, "from_arrays", "dataset_build", classmethod_=True)
        self._patch_fft()

    def _patch_fft(self):
        """Counts the points and bytes of the transforms simulate_field runs.

        ``oscov.simulate`` looks the transforms up on ``numpy.fft`` at call
        time, so they are wrapped there; a call counts only while a
        ``simulate_field`` span is open.  Bytes are those of the transform's
        input and output arrays.
        """
        import numpy.fft as npfft

        counts, spans, stack = self.counts, self.spans, self._stack

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                if any(spans[i][NAME] == "simulate_field" for i in stack):
                    a = np.asarray(a)
                    counts["simulate.fft_points"] += a.size
                    counts["simulate.bytes_computed"] += a.nbytes + out.nbytes
                return out

            return wrapper

        for name in FFTS:
            setattr(npfft, name, wrap(getattr(npfft, name)))

    # -- output --------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def count_warnings(counts: collections.Counter):
    """Counts every oscov warning per layer into ``counts`` instead of printing it.

    Traced and untraced runs both call this, so they do the same warning work.
    """

    def show(message, category, filename, lineno, file=None, line=None):
        if issubclass(category, EmptyBin):
            counts["estimate.empty_bin_warnings"] += 1
        elif issubclass(category, SpectralTruncationWarning):
            counts["simulate.truncation_warnings"] += 1
        elif category.__module__.startswith("oscov"):
            counts["warnings.other_oscov"] += 1

    warnings.simplefilter("always")
    warnings.showwarning = show


def _own_duration(spans, i) -> float:
    return spans[i][END] - spans[i][START]


def _totals(spans):
    """Per-name totals (outermost spans only), self times and call counts.

    Also returns, per span index, the time of its variogram and marginal-stage
    children: a fit's search time is its duration minus that.
    """
    total = collections.Counter()
    self_time = collections.Counter()
    calls = collections.Counter()
    child_time = [0.0] * len(spans)
    stage_time = collections.Counter()
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += _own_duration(spans, i)
            if s[NAME] in VARIOGRAMS + ("fit_marginals",):
                stage_time[s[PARENT]] += _own_duration(spans, i)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_time[name] += _own_duration(spans, i) - child_time[i]
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total[name] += _own_duration(spans, i)
    return total, self_time, calls, stage_time


def layer_metrics(traces, cycles: int) -> dict:
    """Per-layer numbers, per cycle, from the dumps of one traced run.

    ``traces`` is a list of ``{"spans", "counts"}`` dicts (one per traced
    process); times and counts are summed over them and divided by
    ``cycles``.  Throughputs and per-call costs are ratios of those sums.
    """
    total = collections.Counter()
    self_time = collections.Counter()
    calls = collections.Counter()
    counts = collections.Counter()
    search = collections.Counter()
    tagged = collections.Counter()
    by_variant_s = collections.Counter()
    for trace in traces:
        spans = trace["spans"]
        t, st, c, stage_time = _totals(spans)
        total.update(t)
        self_time.update(st)
        calls.update(c)
        counts.update(trace["counts"])
        for i, s in enumerate(spans):
            dur = _own_duration(spans, i)
            if s[NAME] in ("fit_marginals", "fit_full"):
                search[s[NAME]] += dur - stage_time[i]
            elif s[NAME] in VARIOGRAMS:
                tagged[s[TAG]] += dur
            elif s[NAME] == "covariance":
                by_variant_s[s[TAG]] += dur
    n = float(max(cycles, 1))

    def per(x):
        return x / n

    def ratio(num, den):
        return num / den if den else 0.0

    cov_s = total["covariance"]
    out = {
        "kernel_core.covariance_calls": per(calls["covariance"]),
        "kernel_core.lags": per(counts["kernel_core.lags"]),
        "kernel_core.covariance_s": per(cov_s),
        "kernel_core.us_per_call": 1e6 * ratio(cov_s, calls["covariance"]),
        "kernel_core.mlags_per_s": 1e-6 * ratio(counts["kernel_core.lags"], cov_s),
    }
    for v in VARIANTS:
        out[f"kernel_core.mlags_per_s.{v}"] = 1e-6 * ratio(
            counts[f"kernel_core.lags.{v}"], by_variant_s[v]
        )
    out.update({
        "spectral.st_spectral_density_s": per(total["st_spectral_density"]),
        "spectral.density_points": per(counts["spectral.density_points"]),
        "simulate.simulate_field_s": per(total["simulate_field"]),
        "simulate.self_s": per(self_time["simulate_field"]),
        "simulate.fft_points": per(counts["simulate.fft_points"]),
        "simulate.bytes_computed": per(counts["simulate.bytes_computed"]),
        "simulate.empirical_covariance_s": per(total["empirical_covariance"]),
        "simulate.write_field_s": per(total["write_field"]),
        "simulate.load_field_s": per(total["load_field"]),
        "simulate.truncation_warnings": per(counts["simulate.truncation_warnings"]),
    })
    for name in VARIOGRAMS:
        out[f"estimate.{name}_s"] = per(total[name])
    out.update({
        "estimate.gridded_variogram_s": per(tagged["gridded"]),
        "estimate.scattered_variogram_s": per(tagged["scattered"]),
        "estimate.pairs_binned": per(counts["estimate.pairs_binned"]),
        "estimate.bins_dropped": per(counts["estimate.empty_bin_warnings"]),
        "estimate.fit_marginals_self_s": per(search["fit_marginals"]),
        "estimate.fit_full_self_s": per(search["fit_full"]),
        "estimate.nm_evals": per(counts["estimate.nm_evals"]),
        "estimate.wls_calls": per(calls["wls_objective"]),
        "estimate.wls_us": 1e6 * ratio(total["wls_objective"], calls["wls_objective"]),
        "gp.dataset_build_s": per(total["dataset_build"]),
        "gp.gram_s": per(total["gram"]),
        "gp.gram_entries": per(counts["gp.gram_entries"]),
        "gp.predict_self_s": per(self_time["predict"]),
        "gp.predict_calls": per(calls["predict"]),
        "warnings.other_oscov": per(counts["warnings.other_oscov"]),
        "trace.spans": per(sum(len(t["spans"]) for t in traces)),
    })
    return out
