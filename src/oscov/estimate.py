"""Method-of-moments hyperparameter estimation from space-time data.

The pipeline mirrors classical geostatistical practice: estimate empirical
semivariograms (marginal spatial, marginal temporal, and joint space-time),
then fit closed-form model variograms by approximate weighted least squares
with Cressie weights ``N (gamma_hat / gamma_model - 1)^2``.  Fitting happens
in two stages: the marginal variograms pin down the spatial and temporal
hyperparameters separately, and the joint variogram refines the full vector
starting from the marginal estimates.

All hyperparameters are positive, so each start runs one Nelder-Mead
search in log coordinates; the overdamped branch parametrizes the damping
ratio through a logistic map so the regime constraint never binds.  The
search is SciPy's Nelder-Mead reproduced step for step, so fits load no SciPy
optimizer.  Because the damping regime of real data is unknown a priori, the
fitting entry points try all three regimes and keep the lowest objective.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    AllBinsSkipped,
    DomainError,
    EmptyBin,
    EmptyBinError,
    OptimizerStalled,
    OscovError,
)
from .kernel_core import (
    Dispersion,
    KernelModel,
    LdhoParams,
    OuParams,
    Regime,
    _evaluate,
    _prepare_lags,
    _trusted,
    _undamped_frequency,
    damped_frequency,
    euclidean_length,
)
from .simulate import FieldRealization, _grid_steps

__all__ = [
    "VariogramKind",
    "EmpiricalVariogram",
    "WlsObjective",
    "FitResult",
    "spatial_marginal_variogram",
    "temporal_marginal_variogram",
    "space_time_variogram",
    "model_variogram",
    "wls_objective",
    "fit_marginals",
    "fit_full",
]

# Bins whose model variogram falls below this fraction of the sill carry no
# information for the relative-error weights and are skipped.
_WLS_FLOOR = 1e-12

# Objective calls allowed per start, and the search's stopping tolerance on
# the objective, relative to the start's value (or to 1, if that is smaller).
_MAX_EVALS = 10_000
_REL_TOL = 1e-4

# Default search box: a factor this large either side of each start value.
_BOUND_SPAN = 1e3


class VariogramKind(str, Enum):
    SPATIAL_MARGINAL = "spatial_marginal"
    TEMPORAL_MARGINAL = "temporal_marginal"
    SPACE_TIME = "space_time"


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned semivariance estimates with pair counts.

    ``r`` holds spatial bin centers, ``tau`` temporal ones; marginal kinds
    carry only the relevant axis (the other is ``None``).  Bins with no
    contributing pairs are dropped before construction, so every retained bin
    has ``counts >= 1``.
    """

    kind: VariogramKind
    gamma: np.ndarray
    counts: np.ndarray
    r: np.ndarray | None = None
    tau: np.ndarray | None = None
    tolerance: float = 0.0

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if gamma.shape != counts.shape or gamma.ndim != 1:
            raise DomainError("gamma and counts must be equal-length vectors")
        if gamma.size == 0:
            raise EmptyBinError("variogram has no populated bins")
        if not np.all(np.isfinite(gamma)):
            raise DomainError("semivariance estimates must be finite")
        if np.any(gamma < 0.0):
            raise DomainError("semivariance estimates cannot be negative")
        if np.any(counts < 1):
            raise DomainError("retained bins must have at least one pair")
        kind = VariogramKind(self.kind)
        r = None if self.r is None else np.asarray(self.r, dtype=float)
        tau = None if self.tau is None else np.asarray(self.tau, dtype=float)
        if kind is VariogramKind.SPATIAL_MARGINAL and (r is None or tau is not None):
            raise DomainError("spatial marginal variograms carry r bins only")
        if kind is VariogramKind.TEMPORAL_MARGINAL and (tau is None or r is not None):
            raise DomainError("temporal marginal variograms carry tau bins only")
        if kind is VariogramKind.SPACE_TIME and (r is None or tau is None):
            raise DomainError("space-time variograms need r and tau per bin")
        for arr in (r, tau):
            if arr is not None and arr.shape != gamma.shape:
                raise DomainError("bin centers must align with gamma")
        if r is not None and not np.all(np.isfinite(r) & (r >= 0.0)):
            raise DomainError("spatial lags r must be finite and >= 0")
        if tau is not None and not np.all(np.isfinite(tau)):
            raise DomainError("time lags tau must be finite")
        tolerance = float(self.tolerance)
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise DomainError(f"bin tolerance must be finite and >= 0, got {tolerance}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "tolerance", tolerance)

    def __len__(self) -> int:
        return self.gamma.size

    def lags(self) -> tuple[np.ndarray, np.ndarray]:
        """Spatial and temporal lag vectors, zero-filled on the missing axis."""
        n = self.gamma.size
        r = self.r if self.r is not None else np.zeros(n)
        tau = self.tau if self.tau is not None else np.zeros(n)
        return r, tau

    def to_dict(self) -> dict:
        bins = []
        for i in range(len(self)):
            entry: dict = {}
            if self.r is not None:
                entry["r"] = float(self.r[i])
            if self.tau is not None:
                entry["tau"] = float(self.tau[i])
            entry["gamma"] = float(self.gamma[i])
            entry["n"] = int(self.counts[i])
            bins.append(entry)
        return {"kind": self.kind.value, "bins": bins, "tolerance": self.tolerance}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "EmpiricalVariogram":
        try:
            kind = VariogramKind(data["kind"])
            bins = list(data["bins"])
            tol = float(data.get("tolerance", 0.0))
            gamma = [float(b["gamma"]) for b in bins]
            counts = [int(b["n"]) for b in bins]
            r = [float(b["r"]) for b in bins] if bins and "r" in bins[0] else None
            tau = [float(b["tau"]) for b in bins] if bins and "tau" in bins[0] else None
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed variogram description: {exc!r}") from exc
        return cls(kind=kind, gamma=gamma, counts=counts, r=r, tau=tau, tolerance=tol)

    @classmethod
    def from_json(cls, text: str) -> "EmpiricalVariogram":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DomainError(f"variogram JSON does not parse: {exc}") from exc


class WlsObjective(float):
    """WLS objective value that also reports how many bins were skipped."""

    n_skipped: int
    n_used: int

    def __new__(cls, value: float, n_skipped: int = 0, n_used: int = 0):
        obj = super().__new__(cls, value)
        obj.n_skipped = int(n_skipped)
        obj.n_used = int(n_used)
        return obj


@dataclass(frozen=True)
class FitResult:
    """Outcome of a variogram fit.

    ``objective`` is the WLS value at ``model``; it never exceeds the value
    at the initial guess because failed searches fall back to the guess.
    ``n_evaluations`` counts every objective call of every start searched;
    ``converged`` is False when a winning search ran out of evaluations.
    """

    model: KernelModel
    objective: float
    n_evaluations: int
    converged: bool
    theta0: dict
    theta_star: dict

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "objective": float(self.objective),
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "theta0": self.theta0,
            "theta_star": self.theta_star,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# empirical variograms
# ---------------------------------------------------------------------------


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer ``2^a 3^b 5^c >= n``: a fast real FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _sum_out(a: np.ndarray, axes: tuple) -> np.ndarray:
    """``a`` summed over ``axes``, which stay as length-1 axes."""
    return a.sum(axis=axes, keepdims=True) if axes else a


def _lag_table(f: FieldRealization, max_step: int, r_max: float):
    """Squared-increment sums and pair counts for every lattice shift in reach.

    Row ``m`` holds time shift ``m`` (0 to ``max_step``); the columns are the
    signed spatial shifts with ``|h_i| <= min(n_i - 1, r_max / ds_i)``, in C
    order, and ``dist`` holds their lengths.  Entry ``(m, h)`` is
    ``sum_x (z(x+h) - z(x))^2`` over the in-grid pairs and its pair count
    ``prod(n_i - |h_i|)``; the origin entry is zero, since a node never pairs
    with itself.

    The sums come from ``A(h) + B(h) - 2 X(h)`` (Marcotte 1996): ``X`` is
    the autocorrelation of the mean-removed field from real FFTs along the
    axes a kept shift moves, each padded by its reach (up to a fast FFT
    length) so that no kept shift wraps, and ``A``, ``B`` are box sums of
    ``z^2`` over the two overlap regions, taken from prefix sums.  An axis
    that no shift moves is summed out first, from the power spectrum and
    from ``z^2``, so the spatial marginal runs 2-D transforms per time slice
    and the temporal marginal 1-D ones per node.

    The spectrum lives in one zeroed, padded half-spectrum buffer: the
    field's real FFT along the last moved axis fills its data corner, and
    complex FFTs run in place along the other moved axes, last-but-one
    first, only over the lines that hold data.  The power replaces it in
    place.  The inverse runs one axis at a time, first axis first, and keeps
    only the shifts in reach before the next axis, ending with the real
    inverse along the last moved axis.  These are ``rfftn``'s and
    ``irfftn``'s passes, each 1-D line transformed alone, so every kept
    entry has their bits.
    """
    g = f.grid
    if not np.all(np.isfinite(f.values)):
        raise DomainError("field holds non-finite values")
    reach = (max_step,) + tuple(
        min(n - 1, int(math.floor(r_max / s + 1e-9))) for n, s in zip(g.ns, g.ds)
    )
    shifts = [np.arange(-r, r + 1) for r in reach]
    z = f.values - f.values.mean()
    moved = tuple(axis for axis, r in enumerate(reach) if r > 0)
    still = tuple(axis for axis, r in enumerate(reach) if r == 0)
    if moved:
        last = moved[-1]
        padded = [_fast_len(n + r) if r > 0 else n for n, r in zip(z.shape, reach)]
        spec = np.zeros(padded[:last] + [padded[last] // 2 + 1] + padded[last + 1:], complex)
        lines = [slice(n) for n in z.shape]
        lines[last] = slice(None)
        np.fft.rfft(z, n=padded[last], axis=last, out=spec[tuple(lines)])
        for axis in reversed(moved[:-1]):
            lines[axis] = slice(None)
            np.fft.fft(spec[tuple(lines)], axis=axis, out=spec[tuple(lines)])
        power = spec.real
        np.square(power, out=power)
        power += np.square(spec.imag, out=spec.imag)
        if still:
            spec = _sum_out(power, still).astype(complex)
        else:
            spec.imag[...] = 0.0
        del power
        # negative shifts index from the end, where the circular correlation keeps them
        for axis in moved[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
            spec = spec.take(shifts[axis], axis=axis)
        cross = np.fft.irfft(spec, n=padded[last], axis=last).take(shifts[last], axis=last)
        del spec
    else:
        cross = np.zeros((1,) * z.ndim)  # only the origin, which is zeroed below

    # B(h): sums of z^2 over the nodes x whose partner x + h is in the grid;
    # A(h), the sum over the partners, is B(-h)
    box = _sum_out(np.square(z, out=z), still)
    del z
    for axis in moved:
        n, h = g.shape[axis], shifts[axis]
        prefix = np.zeros(box.shape[:axis] + (n + 1,) + box.shape[axis + 1:])
        np.cumsum(box, axis=axis, out=prefix[(slice(None),) * axis + (slice(1, None),)])
        box = np.take(prefix, n - np.maximum(h, 0), axis=axis) - np.take(
            prefix, np.maximum(-h, 0), axis=axis
        )
    sums = (box + np.flip(box) - 2.0 * cross)[reach[0]:]
    counts = np.ones((), dtype=np.int64)
    for n, h in zip(g.shape, shifts):
        counts = np.multiply.outer(counts, n - np.abs(h))
    counts = counts[reach[0]:]
    origin = (0,) + tuple(reach[1:])
    sums[origin] = 0.0
    counts[origin] = 0

    offsets = np.stack(np.meshgrid(*shifts[1:], indexing="ij"), axis=-1)
    dist = euclidean_length(offsets * np.asarray(g.ds)).ravel()
    k = dist.size
    return sums.reshape(-1, k), counts.reshape(-1, k), dist


def _grid_table(f: FieldRealization, max_step, r_max: float):
    """:func:`_lag_table` up to ``max_step`` (at most ``nt - 1``); step 0 keeps
    one of ``h`` and ``-h`` and empties the other, so no pair repeats."""
    sums, counts, dist = _lag_table(f, int(min(max_step, f.grid.nt - 1)), r_max)
    # in C order the columns up to the origin mirror those past it
    half = dist.size // 2 + 1
    sums[0, :half], counts[0, :half] = 0.0, 0
    return sums, counts, dist


def _drop_empty(kind, centers_r, centers_t, sums, counts, tolerance):
    """Assemble an EmpiricalVariogram with ``gamma = sums / 2 counts`` per bin,
    warning for and dropping empty bins."""
    gamma = 0.5 * np.asarray(sums, dtype=float).ravel()
    counts = np.asarray(counts, dtype=np.int64).ravel()
    keep = counts >= 1
    for idx in np.nonzero(~keep)[0]:
        where = []
        if centers_r is not None:
            where.append(f"r={centers_r[idx]:g}")
        if centers_t is not None:
            where.append(f"tau={centers_t[idx]:g}")
        warnings.warn(f"variogram bin ({', '.join(where)}) has no pairs; dropped", EmptyBin)
    if not np.any(keep):
        raise EmptyBinError("every requested variogram bin is empty")
    return EmpiricalVariogram(
        kind=kind,
        gamma=gamma[keep] / np.maximum(counts[keep], 1),
        counts=counts[keep],
        r=None if centers_r is None else np.asarray(centers_r, dtype=float)[keep],
        tau=None if centers_t is None else np.asarray(centers_t, dtype=float)[keep],
        tolerance=tolerance,
    )


def _lag_bins(bins, name: str) -> np.ndarray:
    """Bin centers in ascending order; each must be a finite lag >= 0."""
    bins = np.sort(np.atleast_1d(np.asarray(bins, dtype=float)))
    if not np.all(np.isfinite(bins) & (bins >= 0.0)):
        raise DomainError(f"{name} must be finite and >= 0, got {bins}")
    return bins


def _spatial_tolerance(data, tolerance) -> float:
    """The spatial bin half-width: the given one, checked, or the default."""
    if tolerance is None:
        return _default_spatial_tolerance(data)
    tolerance = float(tolerance)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise DomainError(f"spatial tolerance must be finite and >= 0, got {tolerance}")
    return tolerance


def _default_spatial_tolerance(data) -> float:
    """Half the median nearest-neighbour distance over (a sample of) the points.

    A point's nearest non-zero distance is its distance to the nearest
    other site, so station data measure it against the sites alone.
    """
    if isinstance(data, FieldRealization):
        return 0.5 * min(data.grid.ds)
    coords = data.coords
    n = coords.shape[0]
    if n < 2:
        raise DomainError("need at least two points for spatial lags")
    sample = slice(None) if n <= 500 else slice(None, None, max(1, n // 500))
    others = coords if data.stations is None else data.stations.sites
    d = euclidean_length(coords[sample, None], others[None])
    d[d == 0.0] = np.inf
    tolerance = 0.5 * float(np.median(d.min(axis=1)))
    if not math.isfinite(tolerance):
        raise DomainError("need two distinct sites for a default spatial tolerance")
    return tolerance


def default_spatial_bins(data, n_bins: int = 8) -> np.ndarray:
    """Evenly spaced spatial lag centers suited to the sampling geometry.

    Scattered data span the 2 % to 60 % quantiles of the non-zero pair
    distances; station data weight each site distance by the point pairs
    it holds, ``n_a n_b``, and interpolate between the same two order
    statistics ``np.quantile`` would, to the same bits.
    """
    if isinstance(data, FieldRealization):
        g = data.grid
        step = min(g.ds)
        r_cap = 0.5 * min(n * s for n, s in zip(g.ns, g.ds))
        count = min(n_bins, int(r_cap / step))
        return step * np.arange(1, max(count, 1) + 1)
    quantiles = np.array([0.02, 0.6])
    table = data.stations
    if table is None:
        coords = data.coords
        d = np.concatenate([euclidean_length(x, coords[i + 1:]) for i, x in enumerate(coords)])
        d = d[d > 0]
        if d.size == 0:
            raise DomainError("need two distinct sites for spatial lags")
        lo, hi = np.quantile(d, quantiles)
        return np.linspace(lo, hi, n_bins)
    per_site = np.count_nonzero(data.station_values[1], axis=1)
    a, b = np.triu_indices(per_site.size, 1)
    d = euclidean_length(table.sites[a], table.sites[b])
    keep = d > 0
    if not keep.any():
        raise DomainError("need two distinct sites for spatial lags")
    d, weights = d[keep], (per_site[a] * per_site[b])[keep]
    order = np.argsort(d)
    d, ranks = d[order], np.cumsum(weights[order])
    # np.quantile's linear method: position (N - 1) q between two order statistics
    pos = (int(ranks[-1]) - 1) * quantiles
    below = np.floor(pos)
    ranked = np.searchsorted(ranks, np.stack([below, below + 1]), side="right")
    stats = d[np.minimum(ranked, d.size - 1)]
    lo, hi = (float(np.quantile(stats[:, k], pos[k] - below[k])) for k in range(2))
    return np.linspace(lo, hi, n_bins)


def default_temporal_bins(data) -> np.ndarray:
    """Temporal lag centers: up to 40 multiples of the grid step, or 12 even
    steps between the 2 % and 60 % quantiles of scattered data's time gaps.
    """
    if isinstance(data, FieldRealization):
        g = data.grid
        return g.dt * np.arange(1, min(40, g.nt - 1) + 1)
    times = np.unique(data.times)
    if times.size < 2:
        raise DomainError("need at least two distinct times for temporal lags")
    # ascending, so every gap between a time and a later one is positive
    gaps = np.concatenate([times[i + 1:] - t for i, t in enumerate(times)])
    lo, hi = np.quantile(gaps, [0.02, 0.6])
    return np.linspace(lo, hi, 12)


def _half_median_gap(times: np.ndarray) -> float:
    """Half the median gap between distinct times; zero for a single time."""
    gaps = np.diff(np.unique(times))
    return 0.5 * float(np.median(gaps)) if gaps.size else 0.0


def _as_time_steps(tau_bins: np.ndarray, dt: float) -> np.ndarray:
    """Each lag as a whole number of grid steps (as floats); off-grid lags raise."""
    steps, off = _grid_steps(tau_bins, dt)
    if off.any():
        raise DomainError(f"temporal lag {tau_bins[off][0]} is not a multiple of the grid step {dt}")
    return steps


def _ragged(lengths: np.ndarray, starts: np.ndarray):
    """Flattened runs: run ``k`` counts up from ``starts[k]`` for ``lengths[k]`` steps.

    Returns the run index and the value of every element.
    """
    owner = np.repeat(np.arange(lengths.size), lengths)
    values = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return owner, values + np.arange(owner.size)


def _pairs(labels: np.ndarray):
    """Indices ``(i, j)``, ``i < j``, of every pair of points with equal labels."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    n = labels.size
    partners = np.searchsorted(ranked, ranked, side="right") - np.arange(1, n + 1)
    a, b = _ragged(partners, np.arange(1, n + 1))
    return order[a], order[b]


def _windows(lags: np.ndarray, centers: np.ndarray, tol: float):
    """Every (lag, window) combination with ``c - tol <= lag <= c + tol``.

    ``centers`` must be ascending, so the windows holding a lag are a
    contiguous run found by two binary searches.  Returns the lag index and
    the window index of each combination.
    """
    first = np.searchsorted(centers + tol, lags, side="left")
    stop = np.searchsorted(centers - tol, lags, side="right")
    return _ragged(np.maximum(stop - first, 0), first)


def _window_sums(lags, sq, centers, tol: float, n=None, group=None, n_groups=None):
    """Sums of ``sq`` and pair counts per (group, window), shape ``(groups, windows)``.

    Row ``p`` of the table has the lag ``lags[p]`` and adds to every window
    that holds it.  Either ``sq`` is ``(rows, groups)``, a group per column
    (grid shifts or time steps, time slices, sites or temporal windows), or a
    vector of point pairs, row ``p`` in group ``group[p]`` of ``n_groups``.
    ``n``, shaped like ``sq``, holds the pairs each entry stands for (one by
    default).  Each (group, window) adds its entries in row order.
    """
    row, k = _windows(lags, centers, tol)
    if group is None:
        n_groups = sq.shape[1]
        key = (np.arange(n_groups) * centers.size + k[:, None]).ravel()
    else:
        key = group[row] * centers.size + k
    size = n_groups * centers.size
    sums = np.bincount(key, weights=sq[row].ravel(), minlength=size)
    if n is None:
        counts = np.bincount(key, minlength=size)
    else:
        # integer weights below 2**53 sum exactly in float64
        counts = np.bincount(key, weights=n[row].ravel(), minlength=size).astype(np.int64)
    shape = (n_groups, centers.size)  # no -1: a table may have no groups or no windows
    return sums.reshape(shape), counts.reshape(shape)


def _pair_group_sums(labels, values, lags_of, bins, tolerance: float):
    """Window sums and pair counts per group of points sharing a label, shape
    ``(groups, bins)``: pairs form within groups only, and ``lags_of(i, j)``
    gives their lags.
    """
    uniq, labels = np.unique(labels, axis=0, return_inverse=True)
    labels = labels.ravel()
    i, j = _pairs(labels)
    sq = (values[i] - values[j]) ** 2
    return _window_sums(lags_of(i, j), sq, bins, tolerance, group=labels[i], n_groups=len(uniq))


def _group_average(sums, counts):
    """Semivariance per bin, averaged over groups, from the ``(groups, bins)``
    window sums and pair counts.

    Each group's ratio ``sum / n`` counts in the bins it populates, and a
    bin's estimate is half the mean of those ratios.  Returns the mean times
    the pair count (the sums :func:`_drop_empty` takes) and the pair count.
    """
    hit = counts > 0
    ratios = np.where(hit, sums / np.maximum(counts, 1), 0.0)
    hits = hit.sum(axis=0)
    total = counts.sum(axis=0)
    mean = np.where(hits > 0, ratios.sum(axis=0) / np.maximum(hits, 1), 0.0)
    return mean * np.maximum(total, 1), total


# Elements of one site x site x time-pair block of differences (8 MB).
_STATION_BLOCK = 1 << 20


def _cell_pair_sums(z, seen, p, q, windows, n_windows):
    """Per window ``k``, the sums over its time pairs ``(p, q)`` of the squared
    increments ``(z[a, p] - z[b, q])^2`` between present cells, and their
    counts, for every ordered site pair: two arrays of shape ``(n_windows, S, S)``.
    """
    n_sites = z.shape[0]
    sums = np.zeros((n_windows, n_sites, n_sites))
    counts = np.zeros((n_windows, n_sites, n_sites), dtype=np.int64)
    step = max(1, _STATION_BLOCK // (n_sites * n_sites))
    for k in range(n_windows):
        mine = np.flatnonzero(windows == k)
        for lo in range(0, mine.size, step):
            pp, qq = p[mine[lo:lo + step]], q[mine[lo:lo + step]]
            both = seen[:, None, pp] & seen[None, :, qq]
            diff = np.where(both, z[:, None, pp] - z[None, :, qq], 0.0)
            sums[k] += np.einsum("abc,abc->ab", diff, diff)
            counts[k] += both.sum(axis=2)
    return sums, counts


def _station_window_sums(data, tau_bins, t_tol: float):
    """Squared-increment sums of station data per (site pair, temporal window).

    Site pairs ``a <= b`` (``a == b`` pairs a site's times with each other)
    take their point pairs from the dataset's S x T table of the values: for
    ``a < b`` every time pair ``(p, q)`` in a window, for ``a == b`` only
    ``p < q``.  Returns each site pair's distance and the site pair x window
    tables of the sums and the pair counts.
    """
    table = data.stations
    z, seen = data.station_values
    n_sites, n_times = z.shape
    n_windows = tau_bins.size
    # time pairs p < q pair every ordered site pair; p == q only a < b
    p, q = np.triu_indices(n_times, 1)
    pair, k = _windows(table.lags[table.lag_of[p, q]], tau_bins, t_tol)
    sums, counts = _cell_pair_sums(z, seen, p[pair], q[pair], k, n_windows)
    same, k = _windows(np.zeros(n_times), tau_bins, t_tol)
    sums0, counts0 = _cell_pair_sums(z, seen, same, same, k, n_windows)
    # site pairs: a == a first (distance 0), then a < b in condensed order
    a, b = np.triu_indices(n_sites, 1)
    sq, n_pairs = (
        np.hstack([np.diagonal(x, axis1=1, axis2=2), x[:, a, b] + x[:, b, a] + x0[:, a, b]])
        for x, x0 in ((sums, sums0), (counts, counts0))
    )
    dist = np.concatenate([np.zeros(n_sites), euclidean_length(table.sites[a], table.sites[b])])
    return dist, sq.T, n_pairs.T


def spatial_marginal_variogram(data, bins=None, tolerance=None) -> EmpiricalVariogram:
    """Omnidirectional spatial semivariance, averaged over time slices.

    Each bin collects pairs whose separation falls within ``tolerance`` of
    the bin center; pairs are formed within time slices only.  On a grid the
    per-slice geometry repeats, so the slice average reduces to one pooled
    ratio over the time-step-0 cells; for scattered data each slice is
    normalized separately and slices are averaged, matching the estimator's
    definition.  Station data take each slice's pairs from the dataset's
    S x T value table, site pair by site pair, to the same counts.
    """
    if bins is None:
        bins = default_spatial_bins(data)
    bins = _lag_bins(bins, "spatial bins")
    tolerance = _spatial_tolerance(data, tolerance)

    if isinstance(data, FieldRealization):
        # the shifts are the rows, time step 0 the one group
        sums, counts, dist = _grid_table(data, 0, bins.max(initial=0.0) + tolerance)
        sums, counts = _window_sums(dist, sums.T, bins, tolerance, counts.T)
    elif data.stations is None:
        pts = data.coords
        sums, counts = _group_average(*_pair_group_sums(
            data.times, data.values, lambda i, j: euclidean_length(pts[i], pts[j]), bins, tolerance
        ))
    else:
        # site pairs a < b, paired in every time slice
        sites, (z, seen) = data.stations.sites, data.station_values
        a, b = np.triu_indices(sites.shape[0], 1)
        both = seen[a] & seen[b]
        sq, dist = np.where(both, z[a] - z[b], 0.0) ** 2, euclidean_length(sites[a], sites[b])
        sums, counts = _group_average(*_window_sums(dist, sq, bins, tolerance, both))
    return _drop_empty(VariogramKind.SPATIAL_MARGINAL, bins, None, sums, counts, tolerance)


def temporal_marginal_variogram(data, bins=None) -> EmpiricalVariogram:
    """Temporal semivariance at each lag, averaged over locations.

    A grid bins its zero-distance cells on whole time steps, so a lag of zero
    or past the time axis finds none; scattered data bin the pairs within
    half the median time gap of a lag.  Station data take each site's pairs
    from the dataset's S x T value table, time pair by time pair.
    """
    if bins is None:
        bins = default_temporal_bins(data)
    bins = _lag_bins(bins, "temporal bins")

    if isinstance(data, FieldRealization):
        tolerance = 0.0
        # the time steps are the rows, the zero shift the one group
        steps = _as_time_steps(bins, data.grid.dt)
        sums, counts, _ = _grid_table(data, steps.max(initial=0.0), 0.0)
        sums, counts = _window_sums(np.arange(len(sums)), sums, steps, tolerance, counts)
    elif data.stations is None:
        times = data.times
        tolerance = _half_median_gap(times)
        sums, counts = _group_average(*_pair_group_sums(
            data.coords, data.values, lambda i, j: np.abs(times[i] - times[j]), bins, tolerance
        ))
    else:
        # time pairs p < q (ascending times, so positive gaps), paired at every site
        times, (z, seen) = data.stations.times, data.station_values
        tolerance = _half_median_gap(times)
        p, q = np.triu_indices(times.size, 1)
        z, seen = z.T, seen.T
        both = seen[p] & seen[q]
        sq, gaps = np.where(both, z[p] - z[q], 0.0) ** 2, times[q] - times[p]
        sums, counts = _group_average(*_window_sums(gaps, sq, bins, tolerance, both))
    return _drop_empty(VariogramKind.TEMPORAL_MARGINAL, None, bins, sums, counts, tolerance)


def space_time_variogram(data, r_bins=None, tau_bins=None, tolerance=None) -> EmpiricalVariogram:
    """Joint semivariance over a grid of spatial and temporal lag classes.

    The (0, 0) class is excluded by construction: a point is never paired
    with itself.  Temporal lags use their absolute value, so the estimate is
    symmetric under reversing the time ordering.  A bin counts each distinct
    pair of points once, except on grids at ``tau = 0``, where it counts each
    node pair twice (once per sign of the spatial shift): there the counts
    are twice the spatial marginal's per-slice ``N(r_k)`` times ``N_T``.

    Every input becomes spatial lags binned per temporal window.  A grid
    bins its lag-sum table's time steps into the windows, so a window past
    the time axis holds no step, and then the shift x window table on
    distance; station data bin their site pair x window table on distance;
    other scattered data bin each pair in the windows that hold its gap.
    """
    if r_bins is None:
        r_bins = np.concatenate([[0.0], default_spatial_bins(data, n_bins=6)])
    if tau_bins is None and isinstance(data, FieldRealization):
        tau_bins = data.grid.dt * np.arange(0, min(24, data.grid.nt - 1) + 1, 2)
    elif tau_bins is None:
        tau_bins = np.concatenate([[0.0], default_temporal_bins(data)])
    r_bins = _lag_bins(r_bins, "spatial bins")
    tau_bins = _lag_bins(tau_bins, "temporal bins")
    tolerance = _spatial_tolerance(data, tolerance)

    # bins in tau-major order, without the (0, 0) class
    grid_t, grid_r = np.meshgrid(tau_bins, r_bins, indexing="ij")
    keep = ~((grid_r == 0.0) & (grid_t == 0.0)).ravel()
    centers_r, centers_t = grid_r.ravel()[keep], grid_t.ravel()[keep]

    # spatial lags per temporal window: a table's columns, or each pair's own
    window = None
    if isinstance(data, FieldRealization):
        steps = _as_time_steps(tau_bins, data.grid.dt)
        sums, counts, dist = _grid_table(
            data, steps.max(initial=0.0), r_bins.max(initial=0.0) + tolerance
        )
        # as documented above: a tau = 0 node pair counts once per sign of h
        sums[0], counts[0] = 2.0 * sums[0], 2 * counts[0]
        # time steps into the temporal windows: shifts x windows
        sq, n = _window_sums(np.arange(len(sums)), sums, steps, 0.0, counts)
    elif data.stations is None:
        coords, times, values = data.coords, data.times, data.values
        i, j = np.triu_indices(len(times), 1)
        item, window = _windows(np.abs(times[i] - times[j]), tau_bins, _half_median_gap(times))
        i, j = i[item], j[item]
        dist, sq, n = euclidean_length(coords[i], coords[j]), (values[i] - values[j]) ** 2, None
    else:
        dist, sq, n = _station_window_sums(data, tau_bins, _half_median_gap(data.times))
    sums, counts = _window_sums(dist, sq, r_bins, tolerance, n, window, tau_bins.size)
    sums, counts = sums.ravel()[keep], counts.ravel()[keep]
    return _drop_empty(VariogramKind.SPACE_TIME, centers_r, centers_t, sums, counts, tolerance)


# ---------------------------------------------------------------------------
# model variogram and objective
# ---------------------------------------------------------------------------


def model_variogram(m: KernelModel, r, tau) -> np.ndarray | float:
    """Semivariance of a covariance model: ``C(0,0) - C(r,tau)`` plus nugget.

    The nugget contributes only away from the origin, producing the usual
    discontinuity at zero lag; the origin itself is exactly zero.
    """
    r_arr, tau_arr = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(tau, dtype=float))
    out, _ = _semivariance(m, _lay_out(r_arr, tau_arr))
    return float(out[0]) if r_arr.ndim == 0 else out.reshape(r_arr.shape)


class _Bins(NamedTuple):
    """Variogram bins laid out for repeated objective calls: the checked lags
    ``r`` and ``|tau|`` with the zero lag appended, the mask of bins off the
    origin, the estimates and their pair counts."""

    r: np.ndarray
    tau: np.ndarray
    off_origin: np.ndarray
    gamma: np.ndarray | None
    counts: np.ndarray | None


def _lay_out(r, tau, gamma=None, counts=None) -> _Bins:
    """Bins at the lags ``r``, ``tau`` (raveled), with the zero lag appended
    for the sill; the lags are checked here, once, as the kernels check them."""
    r, tau, _ = _prepare_lags(np.append(r, 0.0), np.append(tau, 0.0))
    return _Bins(r, tau, (r[:-1] != 0.0) | (tau[:-1] != 0.0), gamma, counts)


def _semivariance(m: KernelModel, bins: _Bins):
    """Model semivariance at the bins' lags, and the sill ``C(0, 0)`` from the
    same kernel call; the kernel runs on the checked lags, a surrogate
    through ``m.covariance``."""
    if m.surrogate:
        cov = np.asarray(m.covariance(bins.r, bins.tau), dtype=float)
    else:
        cov = _evaluate(m.params, bins.r, bins.tau)
    sill = cov[-1]
    return (sill - cov[:-1] + m.nugget) * bins.off_origin, sill


def wls_objective(m: KernelModel, v: EmpiricalVariogram | _Bins) -> WlsObjective:
    """Cressie's approximate weighted least squares criterion.

    ``sum_bins N (gamma_hat / gamma_model - 1)^2``; bins whose model value is
    below 1e-12 of the sill are skipped (their relative error is meaningless)
    and reported through the result's ``n_skipped``.  A search passes its
    variogram laid out once, lags checked, so each call costs the kernel on
    those lags and one sum: about 24 µs at the 90 bins of the acceptance-7
    joint variogram, of which the kernel is 15 µs.
    """
    bins = _lay_out(*v.lags(), v.gamma, v.counts) if isinstance(v, EmpiricalVariogram) else v
    gam_model, sill = _semivariance(m, bins)
    gamma, counts = bins.gamma, bins.counts
    usable = gam_model > _WLS_FLOOR * (sill + m.nugget)
    n_used = int(np.count_nonzero(usable))
    if n_used == 0:
        raise AllBinsSkipped(
            "model variogram vanishes on every bin; nothing to fit against"
        )
    if n_used < usable.size:
        gamma, counts, gam_model = gamma[usable], counts[usable], gam_model[usable]
    value = float((counts * (gamma / gam_model - 1.0) ** 2).sum())
    return WlsObjective(value, n_skipped=usable.size - n_used, n_used=n_used)


# ---------------------------------------------------------------------------
# simplex search in transformed coordinates
# ---------------------------------------------------------------------------


# Search-vector order of each fit branch: a stage searches the names it does
# not fix, in this order.
_BRANCH_PARAMS = {
    "underdamped": ("c0", "epsilon", "omega_d", "tau_c", "interaction", "nugget"),
    "critical": ("c0", "epsilon", "tau_c", "interaction", "nugget"),
    "overdamped": ("c0", "epsilon", "damping_ratio", "tau_c", "interaction", "nugget"),
    "ou": ("sigma0_sq", "beta", "tau_c", "scale", "nugget"),
}
_FAMILY_BRANCHES = {"ldho": ("underdamped", "critical", "overdamped"), "ou": ("ou",)}

# The spatial stage fits one branch per family with its temporal constants
# fixed at placeholders: the spatial marginal is independent of them in
# every regime.
_SPATIAL_STAGE = {
    "ldho": ("underdamped", {"omega_d": 1.0, "tau_c": 1.0, "interaction": 1.0}),
    "ou": ("ou", {"tau_c": 1.0, "scale": 1.0}),
}


# Parameter-class fields that must be positive; the others (interaction,
# scale) and the nugget must be >= 0.  All must be finite.
_POSITIVE = frozenset({"c0", "tau_c", "omega0", "epsilon", "sigma0_sq", "a", "beta"})

# Each oscillator branch's regime, by the branch's name.
_REGIMES = {regime.value: regime for regime in Regime}


def _branch_fields(branch: str, theta: dict):
    """The parameter class of one fit branch and its fields, from the full
    set of the branch's named parameters.

    O-U models pin ``a = 1``; the overdamped branch carries its damped
    frequency as ``damping_ratio = 2 tau_c omega_d`` in (0, 1).  A ``tau_c``
    that is not positive and finite, or a damped frequency outside its
    regime's range, raises :class:`DomainError`; the fields are not checked.
    """
    tau_c = theta["tau_c"]
    if not 0.0 < tau_c < math.inf:
        raise DomainError(f"tau_c must be a positive finite number, got {tau_c!r}")
    if branch == "ou":
        return OuParams, {
            "sigma0_sq": theta["sigma0_sq"], "tau_c": tau_c, "a": 1.0,
            "scale": theta["scale"], "beta": theta["beta"],
        }
    if branch == "underdamped":
        omega_d = theta["omega_d"]
    elif branch == "critical":
        omega_d = 0.0
    else:
        omega_d = theta["damping_ratio"] / (2.0 * tau_c)
    return LdhoParams, {
        "c0": theta["c0"], "tau_c": tau_c,
        "omega0": _undamped_frequency(tau_c, omega_d, _REGIMES[branch]),
        "epsilon": theta["epsilon"], "interaction": theta["interaction"],
    }


def _branch_model(branch: str, dispersion, dim: int, theta: dict) -> KernelModel:
    """The model of one fit branch (see :func:`_branch_fields`), checked by
    its classes: the model a fit returns."""
    cls, fields = _branch_fields(branch, theta)
    return KernelModel(params=cls(**fields, dispersion=dispersion, dim=dim), nugget=theta["nugget"])


def _search_model(branch: str, dispersion: Dispersion, dim: int, theta: dict) -> KernelModel:
    """:func:`_branch_model` for a search's evaluations: it refuses the same
    parameters, with :class:`DomainError`, but checks each value once, here,
    and skips the classes' checks and conversions, which the search's float
    values, ``dispersion`` and ``dim`` do not need.
    """
    cls, fields = _branch_fields(branch, theta)
    nugget = theta["nugget"]
    for name, value in fields.items():
        if not (0.0 < value < math.inf if name in _POSITIVE else 0.0 <= value < math.inf):
            raise DomainError(f"{name} is out of its range: {value!r}")
    if not 0.0 <= nugget < math.inf:
        raise DomainError(f"nugget is out of its range: {nugget!r}")
    params = _trusted(cls, fields, dispersion=dispersion, dim=dim)
    return _trusted(KernelModel, {"params": params, "nugget": nugget, "surrogate": False})


class _Wls:
    """Cressie's criterion on one variogram, built once per fit stage: the
    bins are laid out and their lags checked here, and each call returns one
    model's ``float(wls_objective(m, bins))``."""

    def __init__(self, v: EmpiricalVariogram):
        self.kind = v.kind
        self.bins = _lay_out(*v.lags(), v.gamma, v.counts)

    def __call__(self, m: KernelModel) -> float:
        return float(wls_objective(m, self.bins))


def _checked_bounds(bounds, family: str) -> dict:
    """``bounds`` as float ``(lo, hi)`` pairs, each on a parameter that some
    branch of ``family`` searches, with no NaN edge, ``lo < hi``, and values
    the search can reach: it keeps every parameter positive, and
    ``damping_ratio`` in (0, 1).
    """
    searched = {name for b in _FAMILY_BRANCHES[family] for name in _BRANCH_PARAMS[b]}
    checked = {}
    for name, edges in (bounds or {}).items():
        if name not in searched:
            raise DomainError(f"bound on {name!r}: no {family} branch searches it")
        try:
            lo, hi = (float(e) for e in edges)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bound on {name!r} is not a (lo, hi) pair") from exc
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError(f"bound on {name!r} has a NaN edge")
        if not lo < hi:
            raise DomainError(f"bound on {name!r} is empty: lo {lo:g} >= hi {hi:g}")
        top = 1.0 if name == "damping_ratio" else math.inf
        if not (hi > 0.0 and lo < top):
            raise DomainError(
                f"bound on {name!r} misses the range (0, {top:g}) the search keeps it in"
            )
        checked[name] = (lo, hi)
    return checked


class _BudgetSpent(Exception):
    """The search's call budget ran out in the middle of an iteration."""


def _nelder_mead(func, sim, maxfev: int, fatol: float, xatol: float):
    """Nelder & Mead (1965) from the simplex ``sim`` (N+1 rows of N), step
    for step as SciPy 1.17's ``minimize(method="Nelder-Mead")`` runs without
    bounds or adaptive coefficients, so its iterates match SciPy's bit for
    bit.  A call beyond ``maxfev`` ends its iteration.  Returns the best
    vertex, its value, the call count and whether the tolerances held.
    """
    sim = np.array(sim, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(x)

    with contextlib.suppress(_BudgetSpent):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    ind = fsim.argsort()
    sim, fsim = sim.take(ind, 0), fsim.take(ind)
    while calls < maxfev:
        with contextlib.suppress(_BudgetSpent):
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract outside the simplex or inside it; failing that, shrink
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind)
    return sim[0], np.min(fsim), calls, calls < maxfev


def _search(branch, dispersion, dim, theta0, fixed, criterion, bounds):
    """One Nelder-Mead search over the branch's parameters not in ``fixed``.

    ``criterion`` maps a model to its objective (a :class:`_Wls`, built once
    per fit stage).  Each evaluation checks the point against the box, builds
    its model with :func:`_search_model` and calls the criterion once; a
    point outside the box or refused, or an objective that raises, counts as
    ``inf``.  At the acceptance-7 joint variogram an evaluation costs about
    30 µs, nearly all of it the kernel and the sum.

    Plain parameters travel through ``log``; ``damping_ratio`` is a ratio in
    (0, 1) and travels through ``log(u/(1-u))``.  ``bounds`` overrides the
    default bounds (a factor 1e3 either side of the start) and applies to the
    searched parameters only; a start value outside its bound in ``bounds``
    moves to the nearer edge.  The initial simplex steps 0.25 from the start
    along each transformed axis.  Returns the searched parameters at the best
    point (the start when the search fails to improve on it), the objective,
    the number of objective calls, and whether the search met its
    tolerances within ``_MAX_EVALS`` calls.
    """
    names = [name for name in _BRANCH_PARAMS[branch] if name not in fixed]
    box = {
        name: (1e-6, 1.0 - 1e-6) if name == "damping_ratio" else (v / _BOUND_SPAN, v * _BOUND_SPAN)
        for name, v in theta0.items()
    }
    box.update(bounds)
    # per searched name: its logit flag and its box
    logit = [name == "damping_ratio" for name in names]
    edges = [box.get(name, (0.0, math.inf)) for name in names]

    def from_vector(x) -> dict:
        return {
            name: 1.0 / (1.0 + math.exp(-xi)) if lg else math.exp(xi)
            for name, lg, xi in zip(names, logit, x.tolist())
        }

    def func(x):
        try:
            theta = from_vector(x)
            for (lo, hi), value in zip(edges, theta.values()):
                if not (lo <= value <= hi) or not math.isfinite(value):
                    return math.inf
            return criterion(_search_model(branch, dispersion, dim, {**fixed, **theta}))
        except (OscovError, ValueError, ArithmeticError):
            return math.inf

    x0 = []
    start = dict(theta0)
    for name in names:
        v = float(theta0[name])
        lo, hi = bounds.get(name, (v, v))
        if not lo <= v <= hi:
            # to the nearer edge, 1e-12 inside it: the log/logit round trip
            # of the edge itself may land just outside
            v = start[name] = min(max(v, lo * (1.0 + 1e-12)), hi * (1.0 - 1e-12))
        if name == "damping_ratio":
            v = min(max(v, 1e-12), 1.0 - 1e-12)
            x0.append(math.log(v / (1.0 - v)))
        else:
            x0.append(math.log(max(v, 1e-300)))
    x0 = np.array(x0)
    f0 = func(x0)
    if not math.isfinite(f0):
        raise OptimizerStalled(
            f"objective is not finite at the initial guess {start}"
        )
    sim, fatol = np.vstack([x0, x0 + 0.25 * np.eye(x0.size)]), _REL_TOL * max(1.0, abs(f0))
    x, fun, nfev, success = _nelder_mead(func, sim, _MAX_EVALS - 1, fatol, 1e-4)
    x, f = (x, float(fun)) if fun < f0 else (x0, f0)
    return from_vector(x), f, 1 + nfev, success


def _best_branch(starts, dispersion, dim, fixed, criterion, bounds):
    """Search every ``(branch, theta0)`` start on the stage's one ``criterion``
    and keep the lowest objective.

    Each start is recorded under its branch name before it is searched, so a
    later start of a branch replaces an earlier one in the record, and a
    start whose objective is not finite is listed but skipped.  Returns the
    winning ``(branch, theta, objective, converged)``, the evaluation count
    of all searched starts, and the record of starts.
    """
    best = None
    evals = 0
    record = {}
    for branch, theta0 in starts:
        record[branch] = theta0
        try:
            theta, obj, n_ev, conv = _search(
                branch, dispersion, dim, theta0, fixed, criterion, bounds
            )
        except OptimizerStalled:
            continue
        evals += n_ev
        if best is None or obj < best[2]:
            best = (branch, theta, obj, conv)
    if best is None:
        raise OptimizerStalled(
            f"no start produced a finite objective on the {criterion.kind.value} variogram"
        )
    return best, evals, record


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------


def _sill_and_nugget_guess(v: EmpiricalVariogram) -> tuple[float, float]:
    gam = v.gamma
    sill = float(np.mean(gam[max(0, gam.size * 3 // 4):]))
    first = float(gam[0])
    nugget0 = max(min(0.5 * first, 0.9 * sill), 1e-6 * max(sill, 1e-300))
    return max(sill, 1e-300), nugget0


def _spatial_half_range(v: EmpiricalVariogram, sill: float, nugget0: float) -> float:
    """Lag where the centered variogram first crosses half its plateau."""
    r = v.r
    target = nugget0 + 0.5 * (sill - nugget0)
    above = np.nonzero(v.gamma >= target)[0]
    if above.size:
        return max(float(r[above[0]]), float(r[0]))
    return float(r[-1])


def _spatial_theta0(v, family, dispersion, dim) -> dict:
    sill, nugget0 = _sill_and_nugget_guess(v)
    r_half = _spatial_half_range(v, sill, nugget0)
    amp = max(sill - nugget0, 1e-6 * sill)
    if Dispersion(dispersion) is Dispersion.QUADRATIC:
        eps0 = r_half * r_half / (4.0 * math.log(2.0))
    else:
        eps0 = r_half / math.sqrt(2.0 ** (2.0 / (dim + 1)) - 1.0)
    eps0 = max(eps0, 1e-12)
    # c0 (or sigma0_sq) that puts the spatial marginal at r = 0 on amp
    if Dispersion(dispersion) is Dispersion.QUADRATIC:
        a0 = amp * (4.0 * math.pi * eps0) ** (0.5 * dim)
    else:
        gd = math.gamma(0.5 * (dim + 1))
        a0 = amp * math.pi ** (0.5 * (dim + 1)) * eps0**dim / gd
    if family == "ldho":
        return {"c0": a0, "epsilon": eps0, "nugget": nugget0}
    return {"sigma0_sq": a0, "beta": eps0, "nugget": nugget0}


def _temporal_frequency_guess(v: EmpiricalVariogram, sill: float) -> float | None:
    """Damped-oscillation frequency from the first overshoot of the sill.

    The variogram of an oscillatory kernel overshoots its plateau near the
    kernel's first hole; the overshoot peak sits close to half a period.
    Returns None when no overshoot is visible (monotone decay regimes).
    """
    tau = v.tau
    gam = v.gamma
    above = gam > 1.02 * sill
    if not np.any(above):
        return None
    start = np.argmax(above)
    # first local maximum at or after the crossing
    k = start
    while k + 1 < gam.size and gam[k + 1] >= gam[k]:
        k += 1
    t_peak = float(tau[k])
    if t_peak <= 0.0:
        return None
    return math.pi / t_peak


def _temporal_corr_time_guess(v: EmpiricalVariogram, sill: float, nugget0: float) -> float:
    target = nugget0 + (1.0 - math.exp(-1.0)) * (sill - nugget0)
    above = np.nonzero(v.gamma >= target)[0]
    t_corr = float(v.tau[above[0]]) if above.size else float(v.tau[-1])
    return max(0.5 * t_corr, float(v.tau[0]))


# ---------------------------------------------------------------------------
# fitting pipelines
# ---------------------------------------------------------------------------


def _temporal_starts(family, v_t, spatial):
    """Branch-tagged initial guesses for the temporal-stage search."""
    sill, nugget0 = _sill_and_nugget_guess(v_t)
    t_corr = _temporal_corr_time_guess(v_t, sill, nugget0)
    omega0 = _temporal_frequency_guess(v_t, sill)
    eps_like = spatial.get("epsilon", spatial.get("beta", 1.0))

    if family == "ou":
        theta = {"tau_c": t_corr, "scale": eps_like, "nugget": nugget0}
        return [("ou", theta)]

    starts = []
    if omega0 is not None:
        b0 = eps_like / (1.0 + omega0 * t_corr)
        for mult in (0.5, 1.0, 2.0):
            starts.append(
                (
                    "underdamped",
                    {
                        "omega_d": mult * omega0,
                        "tau_c": t_corr,
                        "interaction": b0,
                        "nugget": nugget0,
                    },
                )
            )
    else:
        starts.append(
            (
                "underdamped",
                {
                    "omega_d": 1.0 / max(t_corr, 1e-12),
                    "tau_c": t_corr,
                    "interaction": eps_like,
                    "nugget": nugget0,
                },
            )
        )
    starts.append(
        ("critical", {"tau_c": t_corr, "interaction": eps_like, "nugget": nugget0})
    )
    starts.append(
        (
            "overdamped",
            {
                "damping_ratio": 0.5,
                "tau_c": t_corr,
                "interaction": eps_like,
                "nugget": nugget0,
            },
        )
    )
    return starts


def fit_marginals(
    data,
    family: str = "ldho",
    dispersion=Dispersion.QUADRATIC,
    bounds=None,
    r_bins=None,
    tau_bins=None,
) -> FitResult:
    """Two-marginal estimation stage: spatial parameters, then temporal.

    The spatial marginal determines the amplitude, the spatial range, and a
    spatial nugget; the temporal marginal determines the oscillator (or
    relaxation) constants, the interaction strength, and a temporal nugget.
    The combined model takes the smaller of the two nuggets.  For oscillator
    models every damping regime is tried and the best temporal objective
    wins.  The reported objective is the sum of the two stage optima.

    ``bounds`` maps parameter names to ``(lo, hi)`` boxes that replace the
    default factor of 1e3 either side of each start; a name that no branch
    of the family searches, a NaN edge or ``lo >= hi`` raises
    :class:`DomainError` before any search.
    """
    if family not in _SPATIAL_STAGE:
        raise DomainError(f"unknown kernel family {family!r}")
    dispersion = Dispersion(dispersion)
    bounds = _checked_bounds(bounds, family)
    dim = data.grid.dim if isinstance(data, FieldRealization) else data.dim

    v_s = spatial_marginal_variogram(data, bins=r_bins)
    v_t = temporal_marginal_variogram(data, bins=tau_bins)

    # stage A: spatial marginal
    sp_branch, placeholders = _SPATIAL_STAGE[family]
    sp_theta0 = _spatial_theta0(v_s, family, dispersion, dim)
    sp_theta, sp_obj, sp_evals, sp_conv = _search(
        sp_branch, dispersion, dim, sp_theta0, placeholders, _Wls(v_s), bounds
    )
    nugget_s = sp_theta["nugget"]
    spatial = {k: v for k, v in sp_theta.items() if k != "nugget"}

    # stage B: temporal marginal, every branch of the family
    (branch, t_theta, t_obj, t_conv), t_evals, t_starts = _best_branch(
        _temporal_starts(family, v_t, spatial), dispersion, dim, spatial, _Wls(v_t), bounds
    )
    nugget = min(nugget_s, t_theta["nugget"])
    model = _branch_model(branch, dispersion, dim, {**spatial, **t_theta, "nugget": nugget})
    return FitResult(
        model=model,
        objective=float(sp_obj + t_obj),
        n_evaluations=sp_evals + t_evals,
        converged=bool(sp_conv and t_conv),
        theta0={"spatial": sp_theta0, "temporal": t_starts},
        theta_star={"spatial": spatial, "temporal": t_theta, "nugget": nugget},
    )


def _full_theta_from_model(m: KernelModel, branch: str) -> dict:
    """Joint-stage start for one branch, derived from a model of its family."""
    p = m.params
    if branch == "ou":
        # the kernel depends on a only through a/tau_c and scale/tau_c, so a
        # is pinned to 1 and the two ratios are preserved
        return {
            "sigma0_sq": p.sigma0_sq,
            "beta": p.beta,
            "tau_c": p.tau_c / p.a,
            "scale": p.scale / p.a if p.scale > 0 else 1e-6,
            "nugget": max(m.nugget, 1e-12),
        }
    omega_d = damped_frequency(p)
    theta = {
        "c0": p.c0,
        "epsilon": p.epsilon,
        "tau_c": p.tau_c,
        "interaction": p.interaction,
        "nugget": max(m.nugget, 1e-12),
    }
    if branch == "underdamped":
        theta["omega_d"] = omega_d if omega_d > 0.0 else 0.25 / p.tau_c
    elif branch == "overdamped":
        u = 2.0 * p.tau_c * omega_d
        theta["damping_ratio"] = min(max(u, 0.05), 0.95)
    return theta


def fit_full(
    data,
    theta0: KernelModel | FitResult,
    bounds=None,
    r_bins=None,
    tau_bins=None,
) -> FitResult:
    """Joint space-time variogram fit, warm-started from a model.

    ``theta0`` is the start: a model, or a fit result such as that of
    :func:`fit_marginals`, whose evaluations the returned count then
    includes.  The start sets the family and the dispersion, and seeds every
    damping regime of its family.  The winning branch's objective never
    exceeds the objective of the start, because each branch falls back to
    its start on failure.  ``bounds`` is checked as in :func:`fit_marginals`.
    """
    if isinstance(theta0, FitResult):
        start_model, evals0 = theta0.model, theta0.n_evaluations
    else:
        start_model, evals0 = theta0, 0
    p = start_model.params
    bounds = _checked_bounds(bounds, start_model.family)

    v_st = space_time_variogram(data, r_bins=r_bins, tau_bins=tau_bins)

    branches = _FAMILY_BRANCHES[start_model.family]
    starts = [(b, _full_theta_from_model(start_model, b)) for b in branches]
    (branch, theta, obj, conv), evals, record = _best_branch(
        starts, p.dispersion, p.dim, {}, _Wls(v_st), bounds
    )
    return FitResult(
        model=_branch_model(branch, p.dispersion, p.dim, theta),
        objective=float(obj),
        n_evaluations=evals0 + evals,
        converged=bool(conv),
        theta0=record,
        theta_star=theta,
    )
