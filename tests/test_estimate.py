"""Empirical variograms, model variograms, and the WLS fitting pipeline.

The estimator tests compare the production code against deliberately naive
pair loops on tiny grids and scattered datasets, so the binning, ordering,
and normalization conventions are pinned independently of the vectorized
implementation.
"""

import functools
import json
import math
import warnings

import numpy as np
import pytest
from conftest import peak_bytes, station_arrays
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

import oscov.estimate as estimate
from oscov.errors import (
    AllBinsSkipped,
    BoundaryWarning,
    DomainError,
    EmptyBin,
    EmptyBinError,
    SpectralTruncationWarning,
)
from oscov.estimate import (
    EmpiricalVariogram,
    VariogramKind,
    WlsObjective,
    _default_spatial_tolerance,
    _fast_len,
    _lag_table,
    default_spatial_bins,
    default_temporal_bins,
    fit_full,
    fit_marginals,
    model_variogram,
    space_time_variogram,
    spatial_marginal_variogram,
    temporal_marginal_variogram,
    wls_objective,
)
from oscov.gp import SpaceTimeDataset
from oscov.presets import preset_model
from oscov.kernel_core import (
    Dispersion,
    KernelModel,
    LdhoParams,
    OuParams,
    Regime,
    damped_frequency,
    euclidean_length,
)
from oscov.simulate import FieldRealization, GridSpec, simulate_field


@pytest.fixture(scope="module")
def tiny_field():
    """A 5 x 4 x 6 random field plus flattened views for brute-force loops."""
    ns, ds, nt, dt = (5, 4), (1.0, 1.5), 6, 0.5
    g = GridSpec(ns=ns, ds=ds, nt=nt, dt=dt, seed=0)
    z = np.random.default_rng(7).standard_normal((nt,) + ns)
    f = FieldRealization(values=z, grid=g, provenance={})
    coords = np.array(
        [(i * ds[0], j * ds[1]) for i in range(ns[0]) for j in range(ns[1])]
    )
    flat = z.reshape(nt, -1)
    return f, coords, flat


@pytest.fixture(scope="module")
def scattered_data():
    """Four irregular locations observed at three times."""
    locs = np.array([(0.0, 0.0), (1.2, 0.0), (0.0, 2.1), (2.4, 1.8)])
    times = np.array([0.0, 1.0, 2.0])
    coords = np.vstack([locs] * times.size)
    t = np.repeat(times, locs.shape[0])
    values = np.random.default_rng(3).standard_normal(coords.shape[0])
    data = SpaceTimeDataset.from_arrays(coords, t, values)
    return data, locs, times, coords, t, values


# ---------------------------------------------------------------------------
# estimators vs naive pair loops, gridded data
# ---------------------------------------------------------------------------


def test_spatial_estimate_matches_ordered_pair_sums(tiny_field):
    f, coords, flat = tiny_field
    nt = flat.shape[0]
    dists = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    r_bins = np.array([1.0, 1.5, 2.0, 3.0])
    tol = 0.5
    v = spatial_marginal_variogram(f, bins=r_bins, tolerance=tol)
    assert v.kind is VariogramKind.SPATIAL_MARGINAL
    assert v.tau is None and v.tolerance == tol
    for rk, gam, cnt in zip(v.r, v.gamma, v.counts):
        mask = (dists >= rk - tol) & (dists <= rk + tol)
        np.fill_diagonal(mask, False)
        n_ordered = int(mask.sum())
        num = sum(
            float(((flat[t][:, None] - flat[t][None, :]) ** 2)[mask].sum())
            for t in range(nt)
        )
        brute = num / (2.0 * n_ordered * nt)
        assert gam == pytest.approx(brute, rel=1e-12)
        assert cnt == (n_ordered // 2) * nt


def test_temporal_estimate_matches_shifted_differences(tiny_field):
    f, coords, flat = tiny_field
    nt, dt = flat.shape[0], f.grid.dt
    v = temporal_marginal_variogram(f, bins=dt * np.arange(1, 4))
    assert v.kind is VariogramKind.TEMPORAL_MARGINAL
    assert v.r is None
    for tauk, gam, cnt in zip(v.tau, v.gamma, v.counts):
        m = round(tauk / dt)
        num = float(((flat[m:] - flat[: nt - m]) ** 2).sum())
        brute = num / (2.0 * (nt - m) * coords.shape[0])
        assert gam == pytest.approx(brute, rel=1e-12)
        assert cnt == (nt - m) * coords.shape[0]


def test_joint_estimate_matches_pair_loops(tiny_field):
    f, coords, flat = tiny_field
    nt, dt = flat.shape[0], f.grid.dt
    dists = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    tol = 0.5
    v = space_time_variogram(
        f,
        r_bins=np.array([0.0, 1.0, 2.0]),
        tau_bins=dt * np.array([0.0, 1.0, 2.0]),
        tolerance=tol,
    )
    got = {
        (round(r, 6), round(t, 6)): (gam, cnt)
        for r, t, gam, cnt in zip(v.r, v.tau, v.gamma, v.counts)
    }
    assert (0.0, 0.0) not in got
    for rk in (0.0, 1.0, 2.0):
        mask = (dists >= rk - tol) & (dists <= rk + tol)
        for m in (0, 1, 2):
            if rk == 0.0 and m == 0:
                continue
            num, count = 0.0, 0
            for l in range(nt - m):
                mm = mask.copy()
                if m == 0:
                    np.fill_diagonal(mm, False)
                d2 = (flat[l + m][:, None] - flat[l][None, :]) ** 2
                num += float(d2[mm].sum())
                count += int(mm.sum())
            gam, cnt = got[(rk, round(m * dt, 6))]
            assert gam == pytest.approx(num / (2.0 * count), rel=1e-12)
            assert cnt == count


# Grids for the lag-sum table: 1-d and 2-d space, unequal counts and steps.
TABLE_GRIDS = (
    GridSpec(ns=(6,), ds=(0.7,), nt=5, dt=0.3),
    GridSpec(ns=(4, 3), ds=(1.0, 1.6), nt=4, dt=0.5),
)


def _random_field(g: GridSpec) -> FieldRealization:
    z = 3.0 + np.random.default_rng(g.n_total).standard_normal(g.shape)
    return FieldRealization(values=z, grid=g, provenance={})


def _shift_pairs(f: FieldRealization):
    """Brute force over every node x and nonzero shift h = (m, h_1, ..., h_d)
    with m >= 0 and x + h in the grid: ``{h: (sum (z[x+h] - z[x])^2, count)}``."""
    g, z = f.grid, f.values
    out = {}
    for x in np.ndindex(g.shape):
        for y in np.ndindex(g.shape):
            h = tuple(b - a for a, b in zip(x, y))
            if h[0] < 0 or not any(h):
                continue
            s, n = out.get(h, (0.0, 0))
            out[h] = (s + (z[y] - z[x]) ** 2, n + 1)
    return out


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 5001)] == [
        next_fast_len(n, real=True) for n in range(1, 5001)
    ]


@pytest.mark.parametrize("g", TABLE_GRIDS, ids=("1d", "2d"))
def test_lag_table_matches_shifted_differences(g):
    f = _random_field(g)
    # the reach covers every shift up to n_i - 1 on every axis
    sums, counts, dist = _lag_table(f, g.nt - 1, 1e6)
    offsets = list(np.ndindex(*(2 * n - 1 for n in g.ns)))
    assert sums.shape == counts.shape == (g.nt, len(offsets)) == (g.nt, dist.size)
    brute = _shift_pairs(f)
    for m in range(g.nt):
        for k, idx in enumerate(offsets):
            h = (m,) + tuple(i - (n - 1) for i, n in zip(idx, g.ns))
            s, n = brute.get(h, (0.0, 0))
            assert counts[m, k] == n
            assert sums[m, k] == pytest.approx(s, rel=1e-12, abs=0.0)
            steps = np.asarray(h[1:]) * np.asarray(g.ds)
            assert dist[k] == pytest.approx(math.sqrt(float(steps @ steps)), rel=1e-15)


def _whole_transform_lag_table(f: FieldRealization, max_step: int, r_max: float):
    """The lag table as first written: whole-field ``rfftn``, the power
    summed over the still axes, ``irfftn`` of every point, then the kept
    shifts."""
    g = f.grid
    reach = (max_step,) + tuple(
        min(n - 1, int(math.floor(r_max / s + 1e-9))) for n, s in zip(g.ns, g.ds)
    )
    shifts = [np.arange(-r, r + 1) for r in reach]
    z = f.values - f.values.mean()
    moved = tuple(axis for axis, r in enumerate(reach) if r > 0)
    still = tuple(axis for axis, r in enumerate(reach) if r == 0)
    if moved:
        padded = tuple(_fast_len(z.shape[axis] + reach[axis]) for axis in moved)
        spec = np.fft.rfftn(z, s=padded, axes=moved)
        spec = estimate._sum_out(spec.real**2 + spec.imag**2, still)
        cross = np.fft.irfftn(spec, s=padded, axes=moved)
    else:
        cross = np.zeros((1,) * z.ndim)
    cross = cross[np.ix_(*shifts)]
    box = estimate._sum_out(z * z, still)
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


@pytest.mark.parametrize(
    "g",
    [
        GridSpec(ns=(7,), ds=(0.7,), nt=11, dt=0.3),
        GridSpec(ns=(11, 6), ds=(1.0, 1.6), nt=8, dt=0.5),
        GridSpec(ns=(7, 4, 5), ds=(1.0, 0.5, 1.2), nt=13, dt=0.5),
        GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=48, dt=0.4),
    ],
    ids=("1d", "2d", "3d", "16x16x48"),
)
@pytest.mark.parametrize(
    "max_step, r_max",
    [(0, 2.6), (5, 0.0), (0, 0.0), (3, 2.6), (1, 1.0), (100, 1e6)],
    ids=("spatial", "temporal", "origin", "joint", "short", "capped"),
)
def test_lag_table_matches_the_whole_field_transform_byte_for_byte(g, max_step, r_max):
    """The one-buffer forward pass and the partial inverse keep every kept
    entry's bits: 1- to 3-D grids with odd, even and non-5-smooth axis
    lengths, each reach zero in turn, and reaches capped at ``n - 1``."""
    f = _random_field(g)
    max_step = min(max_step, g.nt - 1)
    got, want = _lag_table(f, max_step, r_max), _whole_transform_lag_table(f, max_step, r_max)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "max_step, r_max, bound", [(24, 6.0, 3.5), (40, 0.0, 3.0)], ids=("joint", "temporal")
)
def test_lag_table_allocates_little_beyond_its_spectrum(max_step, r_max, bound):
    """The padded half spectrum is the one field-sized transform buffer:
    about 1.6 fields for the joint table's reach and 1.4 for the temporal
    marginal's, beside the mean-removed copy of the field."""
    f = _random_field(GridSpec(ns=(64, 64), ds=(1.0, 1.0), nt=128, dt=0.4))
    _, peak = peak_bytes(_lag_table, f, max_step, r_max)
    assert peak <= bound * f.values.nbytes


def test_station_joint_variogram_allocates_no_site_by_site_table_per_window():
    """Many sites and few times: beside the site pair x window tables of the
    sums and counts, and the spatial binning over them, each window holds
    only S x S temporaries, so no (windows, S, S) array is built."""
    data = _station_sample(np.random.default_rng(5), 600, 6, keep=0.9)
    tau_bins = [0.0, 0.3, 0.6, 0.9]
    data.station_values  # built once per dataset, outside the trace
    _, peak = peak_bytes(
        space_time_variogram, data, [0.0, 0.5, 1.0, 2.0], tau_bins, 0.25
    )
    n_pairs = 600 * 599 // 2
    assert peak <= 6 * n_pairs * len(tau_bins) * 8


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-3.0, 3.5, 0.5))
def test_field_constant_in_time_has_zero_temporal_semivariance(scale):
    """Sums of squared increments that are zero come out of the identity as
    rounding noise on either side of 0; the clamp keeps every estimate >= 0,
    and the zero-distance ones stay at the rounding level."""
    g = GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=0.5)
    pattern = 3.0 + np.random.default_rng(7).standard_normal(g.shape[1:])
    f = FieldRealization(values=np.broadcast_to(scale * pattern, g.shape), grid=g, provenance={})
    limit = 1e-12 * f.values.var()
    v_t = temporal_marginal_variogram(f)
    assert np.all(v_t.tau > 0.0) and np.all(v_t.gamma <= limit)
    assert np.all(spatial_marginal_variogram(f).gamma > limit)
    v_st = space_time_variogram(f)
    at_origin = (v_st.r == 0.0) & (v_st.tau > 0.0)
    assert at_origin.any() and np.all(v_st.gamma[at_origin] <= limit)


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-3.0, 3.5, 0.5))
def test_station_field_constant_in_space_has_zero_spatial_semivariance(scale):
    """The station identity clamps as the grid's does: sites that agree at
    every time give equal-time estimates >= 0 at the rounding level."""
    rng = np.random.default_rng(11)
    n_sites, n_times = 10, 12
    site, step = np.divmod(np.arange(n_sites * n_times), n_times)
    series = scale * (3.0 + rng.standard_normal(n_times))
    data = SpaceTimeDataset.from_arrays(
        rng.uniform(0.0, 5.0, (n_sites, 2))[site], 0.3 * step, series[step]
    )
    assert data.stations is not None
    v = space_time_variogram(data, r_bins=[0.0, 1.0, 2.0, 3.0], tau_bins=[0.0, 0.3, 0.6])
    same_time = v.tau == 0.0
    assert same_time.any() and np.all(v.gamma[same_time] <= 1e-12 * data.values.var())


@pytest.mark.parametrize("g", TABLE_GRIDS, ids=("1d", "2d"))
def test_gridded_estimators_match_brute_force_bins(g):
    f = _random_field(g)
    tol = 0.45 * min(g.ds)
    pairs = [
        (h[0], math.sqrt(sum((hi * si) ** 2 for hi, si in zip(h[1:], g.ds))), s, n)
        for h, (s, n) in _shift_pairs(f).items()
    ]

    def brute(select):
        s = sum(p[2] for p in pairs if select(p[0], p[1]))
        n = sum(p[3] for p in pairs if select(p[0], p[1]))
        return s, n

    def check(v, expected, n_empty, record):
        kept = [(key, s, n) for key, (s, n) in expected.items() if n > 0]
        assert len(record) == n_empty == len(expected) - len(kept)
        assert all(issubclass(w.category, EmptyBin) for w in record)
        assert len(v) == len(kept)
        for (key, s, n), gam, cnt in zip(kept, v.gamma, v.counts):
            assert cnt == n
            assert gam == pytest.approx(s / (2.0 * n), rel=1e-12)

    # the corner shift n_i - 1 is the longest in the grid: lags past it drop;
    # each unordered pair counts once
    corner = math.sqrt(sum(((n - 1) * s) ** 2 for n, s in zip(g.ns, g.ds)))
    r_bins = np.array([0.0, min(g.ds), corner, corner + 1.0])
    spatial = {}
    for rk in r_bins:
        s, n = brute(lambda m, d: m == 0 and rk - tol <= d <= rk + tol)
        spatial[rk] = (s / 2.0, n // 2)
    with pytest.warns(EmptyBin) as record:
        v = spatial_marginal_variogram(f, bins=r_bins, tolerance=tol)
    check(v, spatial, 2, record)
    assert np.array_equal(v.r, r_bins[1:3])

    # temporal lags of zero or past the time axis drop
    steps = [0, 1, g.nt - 1, g.nt]
    temporal = {m: brute(lambda mm, d, m=m: m > 0 and mm == m and d == 0.0) for m in steps}
    with pytest.warns(EmptyBin) as record:
        v = temporal_marginal_variogram(f, bins=g.dt * np.array(steps))
    check(v, temporal, 2, record)

    # joint lags: the origin class and every class past an axis drop
    tau_bins = g.dt * np.array([0, 1, g.nt - 1, g.nt])
    joint = {}
    for m in (0, 1, g.nt - 1, g.nt):
        for rk in r_bins:
            if not (rk == 0.0 and m == 0):
                joint[(m, rk)] = brute(
                    lambda mm, d, m=m, rk=rk: mm == m and rk - tol <= d <= rk + tol
                )
    n_empty = sum(n == 0 for _, n in joint.values())
    with pytest.warns(EmptyBin) as record:
        v = space_time_variogram(f, r_bins=r_bins, tau_bins=tau_bins, tolerance=tol)
    check(v, joint, n_empty, record)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize(
    "estimator",
    (spatial_marginal_variogram, temporal_marginal_variogram, space_time_variogram),
)
def test_gridded_estimators_reject_non_finite_fields(tiny_field, estimator, bad):
    f = tiny_field[0]
    z = f.values.copy()
    z[2, 1, 3] = bad
    with pytest.raises(DomainError, match="non-finite"):
        estimator(FieldRealization(values=z, grid=f.grid, provenance={}))


# ---------------------------------------------------------------------------
# estimators vs naive pair loops, scattered data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_aligned_data():
    """Six lattice locations (spacing 0.5) observed at uneven subsets of four times.

    Time slices hold 5, 4, 3 and 3 points and locations 4, 2, 2, 3, 1 and 3.
    Distances and time gaps are exact binary fractions, so with half-widths
    0.5 in space and 0.25 in time many of them sit exactly on a window edge,
    and neighbouring windows overlap: one pair counts in several bins.
    """
    locs = np.array([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 1.5), (1.5, 2.0), (0.5, 0.5)])
    times = np.array([0.0, 0.5, 1.0, 1.5])
    seen = np.array(
        [[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 0, 1]],
        dtype=bool,
    )
    loc_idx, time_idx = np.nonzero(seen)
    coords, t = locs[loc_idx], times[time_idx]
    values = np.random.default_rng(5).standard_normal(coords.shape[0])
    data = SpaceTimeDataset.from_arrays(coords, t, values)
    return data, locs, times, coords, t, values


def _pair_lags(coords, t, values):
    """Distance, time gap and squared increment of every pair i < j."""
    iu = np.triu_indices(coords.shape[0], 1)
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)[iu]
    gaps = np.abs(t[:, None] - t[None, :])[iu]
    sq = (values[:, None] - values[None, :])[iu] ** 2
    return d, gaps, sq


def test_scattered_spatial_averages_slice_ratios(scattered_data, grid_aligned_data):
    for inputs, bins, tol in (
        (scattered_data, [1.5, 2.5], 0.7),
        (grid_aligned_data, [0.5, 1.0, 1.5, 2.5], 0.5),
    ):
        _check_spatial_against_slice_loops(inputs, bins, tol)


def _check_spatial_against_slice_loops(inputs, bins, tol):
    data, locs, times, coords, t, values = inputs
    v = spatial_marginal_variogram(data, bins=np.array(bins), tolerance=tol)
    expected = []
    for rk in bins:
        ratios, n_total = [], 0
        for tk in times:
            d, _, sq = _pair_lags(coords[t == tk], t[t == tk], values[t == tk])
            in_bin = (d >= rk - tol) & (d <= rk + tol)
            n = int(in_bin.sum())
            if n:
                ratios.append(float(sq[in_bin].sum()) / (2.0 * n))
                n_total += n
        if n_total:
            expected.append((rk, np.mean(ratios), n_total))
    assert len(v) == len(expected)
    for (rk, gam, cnt), got in zip(expected, zip(v.r, v.gamma, v.counts)):
        assert got[0] == rk
        assert got[1] == pytest.approx(gam, rel=1e-12)
        assert got[2] == cnt


def _in_window(lags, center, tol):
    """The estimators' window ``center - tol <= lag <= center + tol``, with
    their rounding: ``|lag - center| <= tol`` differs from it at the edges.
    """
    return (lags >= center - tol) & (lags <= center + tol)


def test_scattered_temporal_averages_location_ratios(scattered_data, grid_aligned_data):
    for inputs, bins, tol in (
        (scattered_data, [1.0, 2.0], 0.5),
        (grid_aligned_data, [0.5, 0.75, 1.0], 0.25),
    ):
        _check_temporal_against_location_loops(inputs, bins, tol)


def _check_temporal_against_location_loops(inputs, bins, tol):
    data, locs, times, coords, t, values = inputs
    v = temporal_marginal_variogram(data, bins=np.array(bins))
    # default tolerance: half the median gap between distinct times
    assert v.tolerance == tol
    expected = []
    for tauk in bins:
        ratios, n_total = [], 0
        for loc in locs:
            sel = np.all(coords == loc, axis=1)
            _, gaps, sq = _pair_lags(coords[sel], t[sel], values[sel])
            in_bin = _in_window(gaps, tauk, tol)
            n = int(in_bin.sum())
            if n:
                ratios.append(float(sq[in_bin].sum()) / (2.0 * n))
                n_total += n
        if n_total:
            expected.append((tauk, np.mean(ratios), n_total))
    assert len(v) == len(expected)
    for (tauk, gam, cnt), got in zip(expected, zip(v.tau, v.gamma, v.counts)):
        assert got[0] == tauk
        assert got[1] == pytest.approx(gam, rel=1e-12)
        assert got[2] == cnt


def test_scattered_joint_matches_pair_mask(scattered_data, grid_aligned_data):
    # t_tol is the default: half the median gap between distinct times
    for inputs, r_bins, tau_bins, tol, t_tol in (
        (scattered_data, [0.0, 1.5], [0.0, 1.0], 0.7, 0.5),
        (grid_aligned_data, [0.0, 0.5, 1.0], [0.0, 0.25, 0.5], 0.5, 0.25),
    ):
        _check_joint_against_pair_mask(inputs, r_bins, tau_bins, tol, t_tol)


def _check_joint_against_pair_mask(inputs, r_bins, tau_bins, tol, t_tol):
    data, locs, times, coords, t, values = inputs
    v = space_time_variogram(
        data, r_bins=np.array(r_bins), tau_bins=np.array(tau_bins), tolerance=tol
    )
    d, gaps, sq = _pair_lags(coords, t, values)
    expected = []
    for tm in tau_bins:  # bins run tau-major
        for rk in r_bins:
            mask = _in_window(d, rk, tol) & _in_window(gaps, tm, t_tol)
            if (rk, tm) != (0.0, 0.0) and mask.any():
                expected.append((rk, tm, float(sq[mask].sum()) / (2.0 * mask.sum()), mask.sum()))
    assert len(v) == len(expected)
    for (rk, tm, gam, cnt), got in zip(expected, zip(v.r, v.tau, v.gamma, v.counts)):
        assert (got[0], got[1]) == (rk, tm)
        assert got[2] == pytest.approx(gam, rel=1e-12)
        assert got[3] == cnt


# r bins, tau bins and spatial half-width: windows that overlap on both
# axes, so one pair counts in several bins
_JOINT_BINS = ([0.0, 1.0, 2.5, 4.0], [0.0, 0.3, 0.5, 0.9, 1.5, 2.7], 0.75)


def _check_joint_on_arrays(coords, t, values):
    """The scattered joint variogram of the arrays against the pair mask."""
    data = SpaceTimeDataset.from_arrays(coords, t, values)
    gaps = np.diff(np.unique(t))
    t_tol = 0.5 * float(np.median(gaps)) if gaps.size else 0.0
    inputs = (data, None, None, coords, t, values)
    r_bins, tau_bins, tol = _JOINT_BINS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyBin)
        try:
            _check_joint_against_pair_mask(inputs, r_bins, tau_bins, tol, t_tol)
        except EmptyBinError:
            # no pair in any bin: the pair mask must agree
            d, gaps, _ = _pair_lags(coords, t, values)
            assert not any(
                (_in_window(d, rk, tol) & _in_window(gaps, tm, t_tol)).any()
                for tm in tau_bins for rk in r_bins if (rk, tm) != (0.0, 0.0)
            )
    return data


@settings(max_examples=80, deadline=None)
@given(arrays=station_arrays(min_times=5, min_keep=0.7))
def test_station_joint_variogram_matches_pair_mask(arrays):
    assume(SpaceTimeDataset.from_arrays(*arrays).stations is not None)
    _check_joint_on_arrays(*arrays)


@settings(max_examples=30, deadline=None)
@given(arrays=station_arrays(max_sites=1, min_times=6, min_keep=0.7))
def test_station_joint_variogram_of_one_site_series(arrays):
    assume(SpaceTimeDataset.from_arrays(*arrays).stations is not None)
    _check_joint_on_arrays(*arrays)


@pytest.mark.parametrize("n_sites, keep", ((12, 0.8), (6, 0.7), (4, 0.7)))
@pytest.mark.parametrize("regular", (True, False), ids=("regular", "gappy"))
def test_station_joint_variogram_with_missing_cells_at_the_zero_gap(n_sites, keep, regular):
    """A window that holds the zero gap pairs the sites' equal times through
    the identity, p == q included, over a table with missing cells.  The
    times are steps of 0.3, whose gaps differ in the last bit, or a sorted
    subset of steps of 0.25, whose gaps are exact and so few."""
    rng = np.random.default_rng(n_sites)
    n_times = 12
    if regular:
        stamps = 0.3 * np.arange(n_times)
    else:
        stamps = 0.25 * np.sort(rng.choice(20, n_times, replace=False))
    seen = rng.random((n_sites, n_times)) < keep
    assert not seen.all()
    site, step = np.nonzero(seen)
    coords, t = rng.uniform(0.0, 5.0, (n_sites, 2))[site], stamps[step]
    assert (seen.sum(axis=0) >= 2).any()  # two sites share a time
    data = _check_joint_on_arrays(coords, t, 1e3 + rng.standard_normal(site.size))
    assert data.stations is not None


@pytest.mark.parametrize("n", (2, 40))
def test_joint_variogram_without_station_structure_matches_pair_mask(n):
    rng = np.random.default_rng(n)
    coords, t = rng.uniform(0.0, 4.0, (n, 2)), rng.uniform(0.0, 3.0, n)
    data = _check_joint_on_arrays(coords, t, 1e3 + rng.standard_normal(n))
    assert data.stations is None


def _window_sums_by_loop(lags, sq, centers, tol, n=None, group=None, n_groups=1):
    """``estimate._window_sums`` as a loop over rows, windows and groups."""
    if group is None:
        n_groups = sq.shape[1]
    sums = np.zeros((n_groups, centers.size))
    counts = np.zeros((n_groups, centers.size), dtype=np.int64)
    for p, lag in enumerate(lags):
        for k, c in enumerate(centers):
            if not c - tol <= lag <= c + tol:
                continue
            for g in range(n_groups) if group is None else [group[p]]:
                entry = (p, g) if group is None else p
                sums[g, k] += sq[entry]
                counts[g, k] += 1 if n is None else n[entry]
    return sums, counts


@pytest.mark.parametrize("rows", (0, 1, 40))
@pytest.mark.parametrize(
    "centers", ([], [0.0, 0.5, 0.7, 1.5, 2.0]), ids=("no-windows", "overlapping")
)
@pytest.mark.parametrize("form", ("columns", "no-columns", "pairs", "weighted-pairs"))
def test_window_sums_match_a_loop(form, centers, rows):
    rng = np.random.default_rng(rows)
    centers, tol = np.array(centers), 0.4  # the windows at 0.5 and 0.7 overlap
    # lags on a lattice hit window edges and repeat; uniform ones fall between
    lags = np.where(rng.random(rows) < 0.5, 0.1 * rng.integers(0, 25, rows), rng.uniform(0, 2.5, rows))
    if form.endswith("columns"):
        shape = (rows, 3 if form == "columns" else 0)
        n = rng.integers(0, 4, shape)  # pair counts, some entries empty
        sq, kwargs = np.where(n > 0, rng.uniform(0.0, 2.0, shape), 0.0), {"n": n}
    else:
        sq = rng.uniform(0.0, 2.0, rows)
        kwargs = {"group": rng.integers(0, 4, rows), "n_groups": 5}  # group 4 stays empty
        if form == "weighted-pairs":
            kwargs["n"] = rng.integers(1, 6, rows)
    sums, counts = estimate._window_sums(lags, sq, centers, tol, **kwargs)
    expected_sums, expected_counts = _window_sums_by_loop(lags, sq, centers, tol, **kwargs)
    assert sums.shape == counts.shape == expected_sums.shape
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected_counts)
    # each (group, window) adds its entries in row order, as the loop does
    np.testing.assert_array_equal(sums, expected_sums)


def _without_table(data):
    """A copy of ``data`` whose station table is hidden, so every estimator
    takes the pair pass."""
    twin = SpaceTimeDataset.from_arrays(data.coords, data.times, data.values, data.mean)
    twin.__dict__["stations"] = None
    return twin


def _check_marginals_against_pair_pass(data):
    """Both scattered marginals from the station table against the pair pass:
    equal counts and bins, gamma within 1e-12 relative (or both empty)."""
    assert data.stations is not None
    twin = _without_table(data)
    for estimator, kwargs in (
        (spatial_marginal_variogram, dict(bins=[0.5, 1.0, 2.0, 3.5], tolerance=0.75)),
        (temporal_marginal_variogram, dict(bins=[0.3, 0.6, 0.9, 1.5, 2.7])),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyBin)
            try:
                got = estimator(data, **kwargs)
            except EmptyBinError:
                with pytest.raises(EmptyBinError):
                    estimator(twin, **kwargs)
                continue
            expected = estimator(twin, **kwargs)
        assert np.array_equal(got.counts, expected.counts)
        assert got.tolerance == expected.tolerance
        for a, b in ((got.r, expected.r), (got.tau, expected.tau)):
            assert (a is None and b is None) or np.array_equal(a, b)
        np.testing.assert_allclose(got.gamma, expected.gamma, rtol=1e-12, atol=0.0)


def _station_sample(rng, n_sites, n_times, keep=1.0, shuffle=False):
    sites = rng.uniform(0.0, 5.0, (n_sites, 2))
    site, step = np.divmod(np.arange(n_sites * n_times), n_times)
    kept = np.flatnonzero(rng.random(site.size) < keep)
    if shuffle:
        kept = rng.permutation(kept)
    coords, t = sites[site[kept]], 0.3 * step[kept]
    return SpaceTimeDataset.from_arrays(coords, t, 1e3 + rng.standard_normal(kept.size))


@pytest.mark.parametrize(
    "n_sites, keep, shuffle",
    ((12, 1.0, False), (12, 0.8, False), (12, 1.0, True), (12, 0.8, True), (1, 1.0, False)),
    # one site: the spatial marginal's site-pair table has no rows
    ids=("complete", "missing-cells", "shuffled", "missing-shuffled", "one-site"),
)
def test_station_marginals_match_the_pair_pass(n_sites, keep, shuffle):
    _check_marginals_against_pair_pass(
        _station_sample(np.random.default_rng(17), n_sites, 15, keep, shuffle)
    )


@settings(max_examples=60, deadline=None)
@given(arrays=station_arrays(min_times=5, min_keep=0.5))
def test_station_marginals_of_drawn_tables_match_the_pair_pass(arrays):
    data = SpaceTimeDataset.from_arrays(*arrays)
    assume(data.stations is not None)
    _check_marginals_against_pair_pass(data)


def test_station_value_table_is_built_once_per_dataset(monkeypatch):
    data = _station_sample(np.random.default_rng(2), 10, 12, keep=0.8, shuffle=True)
    table = data.stations
    built = []
    real = SpaceTimeDataset.station_values.func

    def counting(self):
        built.append(self)
        return real(self)

    spy = functools.cached_property(counting)
    spy.__set_name__(SpaceTimeDataset, "station_values")
    monkeypatch.setattr(SpaceTimeDataset, "station_values", spy)
    spatial_marginal_variogram(data)
    temporal_marginal_variogram(data)
    space_time_variogram(data)
    assert built == [data]
    z, seen = data.station_values
    assert z.shape == seen.shape == (10, 12) and seen.sum() == len(data)
    assert np.array_equal(z[table.site_of, table.time_of], data.values)
    assert not np.any(z[~seen]) and not (z.flags.writeable or seen.flags.writeable)
    assert _without_table(data).station_values is None


def _quantile_bins(coords):
    d = pdist(coords)
    return np.linspace(*np.quantile(d[d > 0], [0.02, 0.6]), 8)


@settings(max_examples=80, deadline=None)
@given(arrays=station_arrays(min_times=5, min_keep=0.7))
def test_station_default_bins_are_the_pair_quantiles(arrays):
    coords, t, values = arrays
    data = SpaceTimeDataset.from_arrays(coords, t, values)
    assume(data.stations is not None)
    if data.stations.sites.shape[0] < 2:
        with pytest.raises(DomainError, match="two distinct sites"):
            default_spatial_bins(data)
    else:
        assert np.array_equal(default_spatial_bins(data), _quantile_bins(coords))


@pytest.mark.parametrize("n", (1, 2, 40))
def test_default_bins_without_station_structure_are_the_pair_quantiles(n):
    rng = np.random.default_rng(n)
    data = SpaceTimeDataset.from_arrays(
        rng.uniform(0.0, 4.0, (n, 2)), rng.uniform(0.0, 3.0, n), np.zeros(n)
    )
    assert data.stations is None
    if n == 1:
        with pytest.raises(DomainError, match="two distinct sites"):
            default_spatial_bins(data)
    else:
        assert np.array_equal(default_spatial_bins(data), _quantile_bins(data.coords))


@pytest.mark.parametrize("sites, times", ((60, 24), (1200, 1)))
def test_default_tolerance_is_half_the_median_nearest_neighbour(sites, times):
    # over 1 000 points, so the median runs over every second one; 60 sites
    # x 24 times take the station table, 1 200 lone points the pair path
    rng = np.random.default_rng(sites)
    locs = rng.uniform(0.0, 10.0, (sites, 2))
    # time-major order, so the sample favours some sites over others
    step, site = np.divmod(np.arange(sites * times), sites)
    keep = rng.random(site.size) < 0.95
    coords, t = locs[site[keep]], 0.4 * step[keep]
    data = SpaceTimeDataset.from_arrays(coords, t, np.zeros(coords.shape[0]))
    assert (data.stations is None) == (times == 1)
    sample = coords[:: max(1, coords.shape[0] // 500)]
    d = cdist(sample, coords)
    d[d == 0.0] = np.inf
    assert _default_spatial_tolerance(data) == 0.5 * float(np.median(d.min(axis=1)))


def test_one_site_has_no_default_tolerance():
    # every distance is zero, so no nearest-neighbour distance sets a width
    data = SpaceTimeDataset.from_arrays(np.zeros((6, 2)), 0.5 * np.arange(6), np.arange(6.0))
    with pytest.raises(DomainError, match="two distinct sites"):
        space_time_variogram(data, r_bins=[0.0, 1.0], tau_bins=[0.0, 0.5])


def test_white_noise_semivariance_is_unbiased():
    # iid noise has a flat variogram at the marginal variance, so any
    # systematic offset in the estimators shows up as seed-averaged bias
    var_true = 2.3
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=24, dt=1.0, seed=0)
    errs_s, errs_t = [], []
    for seed in range(20):
        z = math.sqrt(var_true) * np.random.default_rng(100 + seed).standard_normal(
            (24, 16, 16)
        )
        f = FieldRealization(values=z, grid=g, provenance={})
        errs_s.append(
            spatial_marginal_variogram(f, bins=np.arange(1.0, 5.0)).gamma - var_true
        )
        errs_t.append(
            temporal_marginal_variogram(f, bins=np.arange(1.0, 5.0)).gamma - var_true
        )
    for errs in (np.asarray(errs_s), np.asarray(errs_t)):
        bias = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / math.sqrt(errs.shape[0])
        assert np.all(np.abs(bias) <= 3.0 * se)


# ---------------------------------------------------------------------------
# model variogram
# ---------------------------------------------------------------------------


UNDER = LdhoParams.from_damped_frequency(
    c0=2.0,
    tau_c=3.0,
    omega_d=1.5 * math.pi,
    regime=Regime.UNDERDAMPED,
    epsilon=1.0,
    interaction=0.4,
    dispersion=Dispersion.QUADRATIC,
    dim=2,
)
UNDER_MODEL = KernelModel(params=UNDER, nugget=0.3)


def test_model_variogram_is_zero_at_the_origin():
    assert model_variogram(UNDER_MODEL, 0.0, 0.0) == 0.0
    # C(0, 0) and the sill round differently for this model; the origin must
    # still be exactly zero, with or without a nugget
    m = KernelModel(LdhoParams(2.1, 1.2, 2.5, 0.6, 0.5))
    assert model_variogram(m, 0.0, 0.0) == 0.0
    nug = KernelModel(m.params, nugget=0.3)
    gam = model_variogram(nug, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 0.0]))
    assert gam[0] == 0.0 and np.all(gam[1:] > 0.3)


def test_model_variogram_spatial_axis_closed_form():
    r = np.linspace(0.0, 5.0, 11)
    gam = model_variogram(UNDER_MODEL, r, 0.0)
    p = UNDER
    c1 = p.c0 / (4.0 * math.pi * p.epsilon) ** (0.5 * p.dim)
    printed = c1 * (1.0 - np.exp(-r * r / (4.0 * p.epsilon)))
    printed += UNDER_MODEL.nugget * (r > 0)
    assert np.max(np.abs(gam - printed)) < 1e-12


def test_model_variogram_temporal_axis_closed_form():
    p = OuParams(
        sigma0_sq=1.3,
        tau_c=0.8,
        a=0.7,
        scale=0.45,
        beta=0.6,
        dispersion=Dispersion.LINEAR,
        dim=3,
    )
    m = KernelModel(params=p, nugget=0.25)
    tau = np.array([0.0, 0.1, 0.5, 1.0, 3.0])
    d = p.dim
    cd = math.gamma(0.5 * (d + 1)) / math.pi ** (0.5 * (d + 1))
    cov = (
        p.sigma0_sq
        * cd
        * np.exp(-p.a * tau / p.tau_c)
        / (p.beta + p.scale * tau / p.tau_c) ** d
    )
    printed = (cov[0] - cov) + m.nugget * (tau > 0)
    assert np.max(np.abs(model_variogram(m, 0.0, tau) - printed)) < 1e-12


def test_model_variogram_approaches_sill_plus_nugget():
    sill = UNDER_MODEL.variance() + UNDER_MODEL.nugget
    assert model_variogram(UNDER_MODEL, 80.0, 200.0) == pytest.approx(sill, rel=1e-9)


def test_model_variogram_scalar_and_array_shapes():
    out = model_variogram(UNDER_MODEL, 1.0, 0.5)
    assert isinstance(out, float)
    vec = model_variogram(UNDER_MODEL, np.linspace(0, 3, 7), 0.5)
    assert vec.shape == (7,)
    grid = model_variogram(
        UNDER_MODEL, np.linspace(0, 3, 4)[:, None], np.linspace(0, 2, 5)[None, :]
    )
    assert grid.shape == (4, 5)


# ---------------------------------------------------------------------------
# WLS objective
# ---------------------------------------------------------------------------


def _synthetic_variogram(m, r_centers, t_centers, counts=200):
    rr, tt = [], []
    for tau in t_centers:
        for r in r_centers:
            if not (r == 0.0 and tau == 0.0):
                rr.append(r)
                tt.append(tau)
    rr, tt = np.asarray(rr), np.asarray(tt)
    gam = model_variogram(m, rr, tt)
    return EmpiricalVariogram(
        kind=VariogramKind.SPACE_TIME,
        gamma=gam,
        counts=np.full(gam.size, counts),
        r=rr,
        tau=tt,
    )


def test_wls_zero_at_generating_model():
    v = _synthetic_variogram(UNDER_MODEL, np.arange(0.0, 4.0), 0.3 * np.arange(0, 9))
    w = wls_objective(UNDER_MODEL, v)
    assert isinstance(w, WlsObjective) and isinstance(w, float)
    assert float(w) == 0.0
    assert w.n_skipped == 0 and w.n_used == len(v)


def test_wls_weights_scale_linearly_with_counts():
    r = np.linspace(0.5, 5.0, 10)
    gam = np.asarray(model_variogram(UNDER_MODEL, r, 0.0)) * 1.1
    v1 = EmpiricalVariogram(
        kind=VariogramKind.SPATIAL_MARGINAL, gamma=gam, counts=np.full(10, 50), r=r
    )
    v2 = EmpiricalVariogram(
        kind=VariogramKind.SPATIAL_MARGINAL, gamma=gam, counts=np.full(10, 100), r=r
    )
    w1, w2 = wls_objective(UNDER_MODEL, v1), wls_objective(UNDER_MODEL, v2)
    assert float(w1) > 0.0
    assert float(w2) == pytest.approx(2.0 * float(w1), rel=1e-12)


def test_wls_skips_bins_below_floor():
    # without a nugget the model variogram at a vanishing lag is far below
    # the relative-error floor, so that bin carries no usable information
    bare = KernelModel(params=UNDER, nugget=0.0)
    r = np.array([1e-8, 1.0, 2.0])
    gam = np.asarray(model_variogram(bare, r, 0.0))
    v = EmpiricalVariogram(
        kind=VariogramKind.SPATIAL_MARGINAL, gamma=gam, counts=np.full(3, 5), r=r
    )
    w = wls_objective(bare, v)
    assert w.n_skipped == 1 and w.n_used == 2
    assert float(w) == 0.0


def test_wls_all_bins_skipped_raises():
    bare = KernelModel(params=UNDER, nugget=0.0)
    r = np.array([1e-8, 2e-8])
    v = EmpiricalVariogram(
        kind=VariogramKind.SPATIAL_MARGINAL,
        gamma=np.zeros(2),
        counts=np.ones(2, dtype=int),
        r=r,
    )
    with pytest.raises(AllBinsSkipped):
        wls_objective(bare, v)


def _parent_wls(m, v):
    """The WLS objective as written before searches laid their bins out once:
    ``(value.hex(), n_skipped, n_used)``, or None where every bin is skipped."""
    r, tau = v.lags()
    cov = np.asarray(m.covariance(np.append(r, 0.0), np.append(tau, 0.0)), dtype=float)
    sill = cov[-1]
    gam = (sill - cov[:-1].reshape(r.shape) + m.nugget) * ((r != 0.0) | (tau != 0.0))
    usable = gam > 1e-12 * (sill + m.nugget)
    n_used = int(np.count_nonzero(usable))
    if n_used == 0:
        return None
    ratio = v.gamma[usable] / gam[usable]
    value = float((v.counts[usable] * (ratio - 1.0) ** 2).sum())
    return value.hex(), usable.size - n_used, n_used


def _parent_residuals(m, v):
    """Cressie's residuals ``sqrt(N) (gamma_hat / gamma - 1)`` on the terms of
    ``_parent_wls``, 0 on each bin it skips, or None where it skips them all."""
    r, tau = v.lags()
    cov = np.asarray(m.covariance(np.append(r, 0.0), np.append(tau, 0.0)), dtype=float)
    sill = cov[-1]
    gam = (sill - cov[:-1].reshape(r.shape) + m.nugget) * ((r != 0.0) | (tau != 0.0))
    usable = gam > 1e-12 * (sill + m.nugget)
    if not usable.any():
        return None
    out = np.zeros(r.size)
    out[usable] = np.sqrt(v.counts[usable].astype(float)) * (v.gamma[usable] / gam[usable] - 1.0)
    return out


def _bits(w):
    return None if w is None else (float(w).hex(), w.n_skipped, w.n_used)


def _assert_parent_bits(m, v):
    """``wls_objective`` on the variogram and on its laid-out bins equals the
    parent formula bit for bit, or raises AllBinsSkipped where it skipped all."""
    want = _parent_wls(m, v)
    got = []
    for arg in (v, estimate._lay_out(*v.lags(), v.gamma, v.counts)):
        try:
            got.append(_bits(wls_objective(m, arg)))
        except AllBinsSkipped:
            got.append(None)
    assert got == [want, want], m


def test_wls_matches_the_parent_formula_bit_for_bit(tiny_field, variants_2d):
    f, coords, flat = tiny_field
    variograms = (
        spatial_marginal_variogram(f),
        temporal_marginal_variogram(f),
        space_time_variogram(f, r_bins=[0.0, 1.0, 2.5], tau_bins=[0.0, 0.5, 1.0, 2.0]),
    )
    models = [KernelModel(params=p, nugget=0.3) for _, p in variants_2d]
    models.append(KernelModel.surrogate_of(models[0]))
    for v in variograms:
        for m in models:
            _assert_parent_bits(m, v)
    # bins under the floor: a vanishing lag and the origin of a nugget-free model
    bare = KernelModel(params=UNDER, nugget=0.0)
    r, tau = np.array([0.0, 1e-8, 1.0, 2.0, 0.5]), np.array([0.0, 0.0, 0.0, 0.3, 0.9])
    v = EmpiricalVariogram(
        kind=VariogramKind.SPACE_TIME, gamma=1.1 * model_variogram(bare, r, tau) + 0.01,
        counts=np.arange(1, 6), r=r, tau=tau,
    )
    assert wls_objective(bare, v).n_skipped == 2
    _assert_parent_bits(bare, v)
    # every bin under the floor
    v = EmpiricalVariogram(
        kind=VariogramKind.SPATIAL_MARGINAL, gamma=np.zeros(2), counts=np.ones(2), r=[1e-8, 2e-8]
    )
    assert _parent_wls(bare, v) is None
    _assert_parent_bits(bare, v)


_SMALL_JOINT_BINS = dict(r_bins=np.arange(0.0, 5.0), tau_bins=0.4 * np.arange(0, 12, 2))


def _small_field():
    """A seeded 16 x 16 x 48 oscillator field."""
    truth = LdhoParams.from_damped_frequency(
        c0=2.0, tau_c=2.0, omega_d=1.2, regime=Regime.UNDERDAMPED, epsilon=1.0,
        interaction=0.5, dispersion=Dispersion.QUADRATIC, dim=2,
    )
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=48, dt=0.4, seed=5)
    return simulate_field(KernelModel(params=truth, nugget=0.1), g)


def _small_field_fits():
    """Both fit stages on the small field."""
    f = _small_field()
    res_m = fit_marginals(f, r_bins=np.arange(1.0, 6.0), tau_bins=0.4 * np.arange(1, 13))
    return res_m, fit_full(f, theta0=res_m, **_SMALL_JOINT_BINS)


def test_each_residual_call_is_one_kernel_call_with_the_parent_value(monkeypatch):
    """A fit's search calls the stage criterion's residuals once per
    evaluation that its box admits, and each call runs the kernel once, on
    the criterion's checked lags.  Every kernel value equals
    ``KernelModel.covariance`` on the variogram's lags, and every residual
    vector the parent formula's, bit for bit.  The search makes no public
    ``wls_objective`` call, which the benchmark counts from outside."""
    kernels, records, public = [], [], []
    evaluate, objective, criterion = estimate._evaluate, estimate.wls_objective, estimate._Wls

    class RecordedWls(criterion):
        def __init__(self, v):
            super().__init__(v)
            self.variogram = v

        def residuals(self, m):
            try:
                out = super().residuals(m)
            except AllBinsSkipped:
                records.append((m, self.variogram, None))
                raise
            records.append((m, self.variogram, out))
            return out

    def counted_evaluate(p, r, ata):
        out = evaluate(p, r, ata)
        kernels.append((p, out))
        return out

    def recorded_objective(m, v):
        public.append(m)
        return objective(m, v)

    monkeypatch.setattr(estimate, "_evaluate", counted_evaluate)
    monkeypatch.setattr(estimate, "wls_objective", recorded_objective)
    monkeypatch.setattr(estimate, "_Wls", RecordedWls)
    _, res_f = _small_field_fits()
    assert len(kernels) == len(records) > 200
    assert len(records) <= res_f.n_evaluations
    assert public == []
    monkeypatch.undo()
    for (params, cov), (m, v, out) in zip(kernels, records):
        assert params is m.params
        r, tau = v.lags()
        assert cov.tobytes() == m.covariance(np.append(r, 0.0), np.append(tau, 0.0)).tobytes()
        want = _parent_residuals(m, v)
        assert (out is None and want is None) or out.tobytes() == want.tobytes()


# A start per branch, in the joint stage's names and search order.
_STARTS = {
    "underdamped": {"c0": 2.0, "epsilon": 1.0, "omega_d": 1.2, "tau_c": 2.0,
                    "interaction": 0.5, "nugget": 0.1},
    "critical": {"c0": 2.0, "epsilon": 1.0, "tau_c": 2.0, "interaction": 0.5, "nugget": 0.1},
    "overdamped": {"c0": 2.0, "epsilon": 1.0, "damping_ratio": 0.5, "tau_c": 2.0,
                   "interaction": 0.5, "nugget": 0.1},
    "ou": {"sigma0_sq": 4.0, "beta": 1.0, "tau_c": 1.5, "scale": 0.6, "nugget": 0.1},
}


def _parent_model(branch, dispersion, dim, theta):
    """A branch's model through the public constructors, as fits built it
    before their searches skipped the checks."""
    if branch == "ou":
        params = OuParams(
            sigma0_sq=theta["sigma0_sq"], tau_c=theta["tau_c"], a=1.0, scale=theta["scale"],
            beta=theta["beta"], dispersion=dispersion, dim=dim,
        )
    else:
        if branch == "underdamped":
            omega_d = theta["omega_d"]
        elif branch == "critical":
            omega_d = 0.0
        else:
            omega_d = theta["damping_ratio"] / (2.0 * theta["tau_c"])
        params = LdhoParams.from_damped_frequency(
            c0=theta["c0"], tau_c=theta["tau_c"], omega_d=omega_d, regime=branch,
            epsilon=theta["epsilon"], interaction=theta["interaction"],
            dispersion=dispersion, dim=dim,
        )
    return KernelModel(params=params, nugget=theta["nugget"])


def _parent_evaluation(branch, dispersion, dim, box, v, x):
    """A search's residuals at the transformed point ``x`` on the parent's
    terms: the box, the checked model, then Cressie's residuals through
    ``KernelModel.covariance``, with the parent WLS value beside them; None
    wherever one refuses."""
    try:
        theta = {
            name: 1.0 / (1.0 + math.exp(-xi)) if name == "damping_ratio" else math.exp(xi)
            for name, xi in zip(_STARTS[branch], x)
        }
    except OverflowError:
        return None
    for name, value in theta.items():
        lo, hi = box[name]
        if not (lo <= value <= hi) or not math.isfinite(value):
            return None
    try:
        m = _parent_model(branch, dispersion, dim, theta)
    except (DomainError, ZeroDivisionError):
        # an overdamped tau_c of 0.0 divided by zero, which the search refuses
        return None
    out = _parent_wls(m, v)
    return None if out is None else (_parent_residuals(m, v), float.fromhex(out[0]))


def _search_function(branch, dispersion, dim, bounds, v):
    """The residual function of the transformed point that ``_Search`` hands
    to the Levenberg-Marquardt routine for a joint-stage search of
    ``branch`` on ``v``."""
    captured = []

    def capture(residuals, *args):
        captured.append(residuals)
        return iter(())

    real = estimate._levenberg_marquardt
    estimate._levenberg_marquardt = capture
    try:
        estimate._Search(
            branch, dispersion, dim, dict(_STARTS[branch]), {}, estimate._Wls(v), bounds
        )
    finally:
        estimate._levenberg_marquardt = real
    return captured[0]


# Parameter values at the edges of the builders' checks.
_EDGES = (0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.0, 1.0 - 2.0**-53, math.inf, -math.inf, math.nan)


def _assert_builders_agree(branch, dispersion, dim, theta):
    """The fits' one model builder raises DomainError where the public
    constructors refuse, and otherwise builds their model."""
    try:
        want = _parent_model(branch, dispersion, dim, theta)
    except (DomainError, ZeroDivisionError):
        with pytest.raises(DomainError):
            estimate._search_model(branch, dispersion, dim, theta)
        return
    got = estimate._search_model(branch, dispersion, dim, theta)
    assert type(got.params) is type(want.params)
    assert got.model_key() == want.model_key()


@pytest.mark.parametrize("branch", tuple(_STARTS))
def test_search_model_refuses_each_edge_the_checked_model_refuses(branch):
    for dispersion in Dispersion:
        for dim in (1, 2, 3):
            for name in _STARTS[branch]:
                for edge in _EDGES:
                    _assert_builders_agree(
                        branch, dispersion, dim, dict(_STARTS[branch], **{name: edge})
                    )


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from(tuple(_STARTS)),
    dispersion=st.sampled_from(Dispersion),
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_search_model_refuses_what_the_checked_model_refuses(branch, dispersion, dim, data):
    values = st.one_of(st.floats(1e-3, 1e3), st.floats(allow_nan=True, allow_infinity=True))
    theta = {name: data.draw(values, label=name) for name in _STARTS[branch]}
    _assert_builders_agree(branch, dispersion, dim, theta)


# Offsets from the start in transformed coordinates: inside the default box
# (|offset| < log 1e3 = 6.9) and outside it, plus the edges: exp underflow to
# 0.0 (reached only under a bound with lo <= 0), overflow, a damping ratio of
# exactly 1 (omega_d = 1/(2 tau_c)), and +-inf.
_OFFSETS = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([-800.0, 800.0, 40.0, -40.0, math.inf, -math.inf]),
)


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("dispersion", (Dispersion.QUADRATIC, Dispersion.LINEAR))
@pytest.mark.parametrize("branch", tuple(_STARTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_search_criterion_equals_the_checked_model_and_parent_formula(branch, dispersion, dim, data):
    """Each evaluation of a search, on the criterion built once, equals the
    parent's: the box check, the checked model and Cressie's residuals
    through ``KernelModel.covariance``, bit for bit, or both refuse.  The
    squares sum to the parent WLS value, in another order, so to 1e-13."""
    start = _STARTS[branch]
    assert tuple(start) == estimate._BRANCH_PARAMS[branch]
    r, tau = np.meshgrid([0.0, 0.5, 1.0, 2.0, 3.5], [0.0, 0.4, 1.2, 2.4], indexing="ij")
    r, tau = r.ravel()[1:], tau.ravel()[1:]
    truth = _parent_model(branch, dispersion, dim, start)
    v = EmpiricalVariogram(
        kind=VariogramKind.SPACE_TIME, gamma=1.1 * model_variogram(truth, r, tau) + 0.01,
        counts=np.arange(1, r.size + 1), r=r, tau=tau,
    )
    box = {
        name: (1e-6, 1.0 - 1e-6) if name == "damping_ratio" else (s / 1e3, s * 1e3)
        for name, s in start.items()
    }
    bounds = {}
    if data.draw(st.booleans(), label="bounds with lo <= 0"):
        lo = data.draw(st.sampled_from([0.0, -1.0]), label="lo")
        bounds = {name: (lo, 2.0 if name == "damping_ratio" else 1e6) for name in start}
        box.update(bounds)
    func = _search_function(branch, dispersion, dim, bounds, v)
    x0 = [0.0 if name == "damping_ratio" else math.log(s) for name, s in start.items()]
    x = np.array([xi + data.draw(_OFFSETS, label=name) for name, xi in zip(start, x0)])
    got, want = func(x), _parent_evaluation(branch, dispersion, dim, box, v, x.tolist())
    if want is None:
        assert got is None
    else:
        assert got.tobytes() == want[0].tobytes()
        assert math.isclose(float(got @ got), want[1], rel_tol=1e-13)


def test_small_field_fits_are_pinned_bit_for_bit():
    """Both stages' evaluation counts, objectives and parameters, exactly.

    A fit's cost moves with its evaluation count, so a speed-up that claims
    unchanged output must leave every search step as it was; any change in
    the variograms' or the residuals' last bits moves these pins.
    """
    pins = (
        (215, "0x1.b407836079369p+5", "0x1.cb0d9f0a1bc25p-4", {
            "c0": "0x1.8fbea74148d73p+0", "tau_c": "0x1.64d9f1acbc74bp+0",
            "omega0": "0x1.7066bc4149d3cp+0", "epsilon": "0x1.cc602346f110ap-1",
            "b_or_xi": "0x1.f1a7658a7b7adp-3",
        }),
        (348, "0x1.331a3f2fdb069p+8", "0x1.bf02bac88a152p-4", {
            "c0": "0x1.64461698b707dp+0", "tau_c": "0x1.0c6855cddcaa1p+1",
            "omega0": "0x1.2a44ed277724ep+0", "epsilon": "0x1.9721174add0d8p-1",
            "b_or_xi": "0x1.127d949eecfdfp-1",
        }),
    )
    for res, (n_evaluations, objective, nugget, params) in zip(_small_field_fits(), pins):
        model = res.model.to_dict()
        assert model["family"] == "ldho"
        assert res.n_evaluations == n_evaluations
        assert float(res.objective).hex() == objective
        assert model["nugget"].hex() == nugget
        assert {name: v.hex() for name, v in model["params"].items()} == params


def _pins(res):
    """A fit's family, evaluation count, objective, nugget and parameters, in hex."""
    model = res.model.to_dict()
    return (
        model["family"], res.n_evaluations, float(res.objective).hex(), model["nugget"].hex(),
        {name: v.hex() for name, v in model["params"].items()},
    )


def _relaxation_fits():
    """Both O-U fit stages on a seeded 16 x 16 x 48 field."""
    truth = OuParams(sigma0_sq=4.0, tau_c=1.5, a=1.0, scale=0.6, beta=1.0, dim=2)
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=48, dt=0.4, seed=7)
    f = simulate_field(KernelModel(params=truth, nugget=0.1), g)
    res_m = fit_marginals(
        f, family="ou", r_bins=np.arange(1.0, 6.0), tau_bins=0.4 * np.arange(1, 13)
    )
    res_f = fit_full(
        f, theta0=res_m, r_bins=np.arange(0.0, 5.0), tau_bins=0.4 * np.arange(0, 12, 2)
    )
    return res_m, res_f


def _linear_fits():
    """Both linear-dispersion oscillator fit stages on a seeded 16 x 16 x 48 field."""
    truth = LdhoParams.from_damped_frequency(
        c0=10.0, tau_c=2.0, omega_d=1.2, regime=Regime.UNDERDAMPED, epsilon=1.5,
        interaction=0.5, dispersion=Dispersion.LINEAR, dim=2,
    )
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=48, dt=0.4, seed=11)
    f = simulate_field(KernelModel(params=truth, nugget=0.1), g)
    res_m = fit_marginals(
        f, dispersion=Dispersion.LINEAR, r_bins=np.arange(1.0, 6.0),
        tau_bins=0.4 * np.arange(1, 13),
    )
    res_f = fit_full(
        f, theta0=res_m, r_bins=np.arange(0.0, 5.0), tau_bins=0.4 * np.arange(0, 12, 2)
    )
    return res_m, res_f


def _station_fit():
    """``fit_marginals`` with default bins on 20 sites x 12 times (90 % of the
    cells kept) sampled from a seeded 16 x 16 x 16 oscillator field."""
    truth = LdhoParams.from_damped_frequency(
        c0=2.0, tau_c=2.0, omega_d=1.2, regime=Regime.UNDERDAMPED, epsilon=1.0,
        interaction=0.5, dispersion=Dispersion.QUADRATIC, dim=2,
    )
    g = GridSpec(ns=(16, 16), ds=(0.5, 0.5), nt=16, dt=0.4, seed=13)
    field = simulate_field(KernelModel(params=truth, nugget=0.05), g).values
    rng = np.random.default_rng(13)
    ix, iy = np.unravel_index(rng.choice(16 * 16, size=20, replace=False), (16, 16))
    site, step = np.divmod(np.arange(20 * 12), 12)
    keep = rng.random(site.size) < 0.9
    site, step = site[keep], step[keep]
    coords = 0.5 * np.stack([ix[site], iy[site]], axis=1).astype(float)
    data = SpaceTimeDataset.from_arrays(coords, 0.4 * step, field[step, ix[site], iy[site]])
    assert data.stations is not None
    return (fit_marginals(data),)


@pytest.mark.parametrize(
    "fits, pins",
    (
        (_relaxation_fits, (
            ("ou", 180, "0x1.1af16869f32f6p+8", "0x1.09abc176dd5e4p-3", {
                "sigma0_sq": "0x1.b9700bfa5e8f5p+1", "tau_c": "0x1.43b1d392074bbp+0",
                "a": "0x1.0000000000000p+0", "scale": "0x1.16ce6e9ee75eap-10",
                "beta": "0x1.104598072cc71p+0",
            }),
            ("ou", 241, "0x1.0b2e2cdf19872p+8", "0x1.107859eac3a7cp-3", {
                "sigma0_sq": "0x1.ded2954c608ebp+1", "tau_c": "0x1.991a18fd6b5a3p+0",
                "a": "0x1.0000000000000p+0", "scale": "0x1.1cd4e9dd52025p-1",
                "beta": "0x1.25b0047b172f8p+0",
            }),
        )),
        (_linear_fits, (
            ("ldho", 236, "0x1.c7933f6f60175p+2", "0x1.82cfaf5289d49p-4", {
                "c0": "0x1.a8ab90f52996fp+2", "tau_c": "0x1.318e82b8181aep+1",
                "omega0": "0x1.3874a259cc401p+0", "epsilon": "0x1.468997feea47ap+0",
                "b_or_xi": "0x1.a8a8ac1e57eefp-2",
            }),
            ("ldho", 411, "0x1.a27285a11358ap+8", "0x1.8d3769df1dce4p-5", {
                "c0": "0x1.8030a7eb28ef2p+2", "tau_c": "0x1.d2920f1eddddfp+0",
                "omega0": "0x1.55c56d31b0f38p+0", "epsilon": "0x1.2d7c6c1162ad7p+0",
                "b_or_xi": "0x1.4cf3f0c691037p-2",
            }),
        )),
        (_station_fit, (
            ("ldho", 552, "0x1.1d7c766843e57p+4", "0x1.710af075551bbp-5", {
                "c0": "0x1.06726b99586bfp-1", "tau_c": "0x1.05b1a2fa2ff3bp-1",
                "omega0": "0x1.fd6af72946909p+0", "epsilon": "0x1.8ef80bf91030cp-2",
                "b_or_xi": "0x1.adcff010703c6p-13",
            }),
        )),
    ),
    ids=("relaxation", "linear", "station"),
)
@pytest.mark.filterwarnings("ignore::oscov.errors.SpectralTruncationWarning")
def test_other_fits_are_pinned_bit_for_bit(fits, pins):
    """Fits the small-field pins do not reach, pinned the same way: an O-U
    fit, a linear-dispersion fit, and the marginal fit of station data."""
    assert tuple(_pins(res) for res in fits()) == pins


@pytest.mark.parametrize("dispersion", [Dispersion.QUADRATIC, Dispersion.LINEAR])
def test_true_parameters_beat_random_probes(dispersion):
    """The WLS objective has its global minimum at the generating model."""
    truth = {
        "c0": 2.0,
        "tau_c": 3.0,
        "omega_d": 1.5 * math.pi,
        "epsilon": 1.0,
        "interaction": 0.4,
        "nugget": 0.3,
    }

    def build(theta):
        p = LdhoParams.from_damped_frequency(
            c0=theta["c0"],
            tau_c=theta["tau_c"],
            omega_d=theta["omega_d"],
            regime=Regime.UNDERDAMPED,
            epsilon=theta["epsilon"],
            interaction=theta["interaction"],
            dispersion=dispersion,
            dim=2,
        )
        return KernelModel(params=p, nugget=theta["nugget"])

    m_true = build(truth)
    v = _synthetic_variogram(
        m_true, np.array([0.0, 0.8, 1.6, 2.4, 3.2]), 0.3 * np.arange(0, 9)
    )
    assert float(wls_objective(m_true, v)) == 0.0

    rng = np.random.default_rng(11)
    span = math.log(30.0)
    probes = []
    for _ in range(1000):
        theta = {
            k: val * math.exp(rng.uniform(-span, span)) for k, val in truth.items()
        }
        probes.append(float(wls_objective(build(theta), v)))
    probes = np.asarray(probes)
    assert np.all(probes > 1.0)


# ---------------------------------------------------------------------------
# the Levenberg-Marquardt search and the race
# ---------------------------------------------------------------------------


def _weighted_linear(x):
    return np.sqrt(np.arange(1, x.size + 1)) * (x - 0.3)


def _rosenbrock(x):
    y = np.append(x, 1.0)
    return np.concatenate([10.0 * (y[1:] - y[:-1] ** 2), 1.0 - y[:-1]])


def _overdetermined_linear(x):
    rng = np.random.default_rng(x.size)
    a, b = rng.standard_normal((2 * x.size + 3, x.size)), rng.standard_normal(2 * x.size + 3)
    return a @ x - b


_DECAY_T = np.linspace(0.0, 3.0, 25)


def _decay_fit(x):
    # relative residuals of a sum of decays, as in Cressie's criterion
    basis = np.exp(-np.outer(_DECAY_T, np.arange(1.0, x.size + 1)))
    data = basis @ np.linspace(1.0, 2.0, x.size) * (1.0 + 0.05 * np.sin(7.0 * _DECAY_T))
    return data / (basis @ np.exp(x) + 0.1) - 1.0


@pytest.mark.parametrize("case", ["open", "boxed", "walled", "capped"])
@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize(
    "residuals", [_weighted_linear, _rosenbrock, _overdetermined_linear, _decay_fit]
)
def test_levenberg_marquardt_matches_scipy_least_squares(residuals, dim, case):
    """The search reaches SciPy's bounded least-squares minimum and its box
    edges; it never ends above its start, reports the residuals of the point
    it ends at, counts every call, stays below a wall of refused points, and
    stops unconverged where the call budget runs out."""
    from scipy.optimize import least_squares

    x0 = np.random.default_rng(dim).uniform(-1.5, -0.1, dim)
    lo, hi = (np.full(dim, -2.0), np.full(dim, 0.2)) if case == "boxed" else (
        np.full(dim, -8.0), np.full(dim, 8.0)
    )
    # a wall at -0.05: points beyond it are refused, as a fit refuses a model
    fn = (lambda x: None if np.any(x > -0.05) else residuals(x)) if case == "walled" else residuals
    calls0 = estimate._MAX_EVALS - (dim + 2) if case == "capped" else 1
    made = []

    def counted(x):
        made.append(x.copy())
        return fn(x)

    r0 = residuals(x0)
    steps = list(estimate._levenberg_marquardt(counted, x0.copy(), r0, lo, hi, calls0))
    last = steps[-1]
    assert last.done and not any(s.done for s in steps[:-1])
    assert last.calls == calls0 + len(made) <= estimate._MAX_EVALS
    assert np.all((lo <= last.x) & (last.x <= hi))
    r = fn(last.x)
    assert r is not None and float(r @ r) == last.f
    fs = [float(r0 @ r0)] + [s.f for s in steps]
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    if case == "capped":
        assert last.calls == estimate._MAX_EVALS and not last.converged
        return
    assert last.converged
    if case == "walled":
        return
    ref = least_squares(
        residuals, x0, bounds=(lo, hi), method="trf",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=10_000,
    )
    assert last.f == pytest.approx(2.0 * ref.cost, rel=1e-5, abs=1e-12)
    assert last.x == pytest.approx(ref.x, abs=1e-3)
    # where SciPy's minimum lies on an edge, the search ends on it, frozen
    for edge in (lo, hi):
        on = np.abs(ref.x - edge) < 1e-9
        assert np.all(last.x[on] == edge[on]) and np.all(last.active[on])


@pytest.mark.parametrize("dispersion", (Dispersion.QUADRATIC, Dispersion.LINEAR))
@pytest.mark.parametrize("branch", tuple(_STARTS))
def test_search_recovers_a_model_from_its_own_variogram(branch, dispersion):
    """On a variogram equal to a model's, a search that starts every axis
    30 % off recovers the model to 1e-6 and drives the objective to 0."""
    r, tau = np.meshgrid([0.0, 0.5, 1.0, 2.0, 3.5], [0.0, 0.4, 1.2, 2.4, 3.6], indexing="ij")
    r, tau = r.ravel()[1:], tau.ravel()[1:]
    truth = _STARTS[branch]
    v = EmpiricalVariogram(
        kind=VariogramKind.SPACE_TIME,
        gamma=model_variogram(_parent_model(branch, dispersion, 2, truth), r, tau),
        counts=np.full(r.size, 10), r=r, tau=tau,
    )
    for mult in (1.3, 0.7):
        start = {name: mult * value for name, value in truth.items()}
        search = estimate._Search(
            branch, dispersion, 2, start, {}, estimate._Wls(v), {}
        ).run(estimate._MAX_EVALS)
        assert search.step.done and search.step.converged
        assert search.step.f < 1e-10
        theta = search.theta()
        for name, value in truth.items():
            assert theta[name] == pytest.approx(value, rel=1e-6), name


def test_small_field_fits_stay_under_their_evaluation_ceiling():
    """Both stages of the small-field fits together, every start counted."""
    _, res_f = _small_field_fits()
    assert res_f.n_evaluations <= 600


def test_branch_record_lists_every_start_and_the_winner_is_lowest():
    res_m, res_f = _small_field_fits()
    # the temporal stage: three underdamped starts around the overshoot's
    # frequency, then one critical and one overdamped start
    regimes = [b["regime"] for b in res_m.branches]
    assert regimes == ["underdamped"] * 3 + ["critical", "overdamped"]
    assert regimes[-3:] == list(res_m.theta0["temporal"])
    assert [b["regime"] for b in res_f.branches] == list(res_f.theta0)
    assert res_f.n_evaluations == res_m.n_evaluations + sum(
        b["evaluations"] for b in res_f.branches
    )
    for res in (res_m, res_f):
        best = min(b["objective"] for b in res.branches)
        for b in res.branches:
            # a start is dropped only when it lies beyond twice the best;
            # the others ran to their end
            assert b["converged"] is not b["dropped"]
            assert b["objective"] > 2.0 * best if b["dropped"] else b["objective"] >= best
    # the joint winner is the lowest start
    assert res_f.objective == min(b["objective"] for b in res_f.branches)
    assert json.loads(res_f.to_json())["branches"] == res_f.branches


def test_a_bound_that_excludes_the_optimum_ends_on_its_edge_and_warns():
    """The joint optimum's nugget is near 0.11; a box from 0.15 up holds the
    search on its lower edge, which the fit reports and warns about once."""
    f = _small_field()
    res_m, res_f = _small_field_fits()
    assert res_f.at_edge == {"joint": []} and res_f.model.nugget < 0.15
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit_full(f, theta0=res_m, bounds={"nugget": (0.15, 1.0)}, **_SMALL_JOINT_BINS)
    edge = [w for w in caught if issubclass(w.category, BoundaryWarning)]
    assert len(edge) == 1 and "joint: nugget" in str(edge[0].message)
    assert res.at_edge == {"joint": ["nugget"]}
    assert res.model.nugget == pytest.approx(0.15, rel=1e-11)
    # no worse than the start, moved onto the bound's edge
    start = KernelModel(params=res_m.model.params, nugget=0.15 * (1.0 + 1e-12))
    v = space_time_variogram(f, **_SMALL_JOINT_BINS)
    assert res.objective <= float(wls_objective(start, v))


# ---------------------------------------------------------------------------
# fitting pipelines
# ---------------------------------------------------------------------------


_OSCILLATOR_JOINT_BINS = dict(r_bins=np.arange(0.0, 7.0), tau_bins=0.4 * np.arange(0, 26, 2))


@pytest.fixture(scope="module")
def oscillator_fit():
    """One simulated oscillator field pushed through both fitting stages."""
    truth = LdhoParams.from_damped_frequency(
        c0=50.0,
        tau_c=2.0,
        omega_d=1.2,
        regime=Regime.UNDERDAMPED,
        epsilon=2.0,
        interaction=0.5,
        dispersion=Dispersion.QUADRATIC,
        dim=2,
    )
    model_true = KernelModel(params=truth, nugget=0.5)
    g = GridSpec(ns=(64, 64), ds=(1.0, 1.0), nt=128, dt=0.4, seed=101)
    f = simulate_field(model_true, g)
    res_m = fit_marginals(f, r_bins=np.arange(1.0, 9.0), tau_bins=0.4 * np.arange(1, 41))
    res_f = fit_full(f, theta0=res_m, **_OSCILLATOR_JOINT_BINS)
    v_joint = space_time_variogram(f, **_OSCILLATOR_JOINT_BINS)
    return model_true, res_m, res_f, v_joint, f


def test_two_stage_fit_recovers_oscillator_parameters(oscillator_fit):
    model_true, res_m, res_f, v_joint, f = oscillator_fit
    p_true, p = model_true.params, res_f.model.params
    assert isinstance(p, LdhoParams)
    assert abs(p.c0 - p_true.c0) / p_true.c0 <= 0.20
    assert abs(p.tau_c - p_true.tau_c) / p_true.tau_c <= 0.15
    assert abs(damped_frequency(p) - 1.2) / 1.2 <= 0.15
    assert abs(p.epsilon - p_true.epsilon) / p_true.epsilon <= 0.15
    assert abs(p.interaction - p_true.interaction) / p_true.interaction <= 0.25
    assert abs(res_f.model.nugget - model_true.nugget) / model_true.nugget <= 0.75


def test_joint_stage_never_degrades_the_marginal_model(oscillator_fit):
    model_true, res_m, res_f, v_joint, f = oscillator_fit
    obj_marginal = float(wls_objective(res_m.model, v_joint))
    obj_full = float(wls_objective(res_f.model, v_joint))
    assert obj_full < obj_marginal
    assert res_f.objective == pytest.approx(obj_full, rel=1e-12)


def test_fit_result_records_the_search(oscillator_fit):
    model_true, res_m, res_f, v_joint, f = oscillator_fit
    for res in (res_m, res_f):
        assert res.n_evaluations > 0
        assert math.isfinite(res.objective) and res.objective >= 0.0
        assert isinstance(res.converged, bool)
    # the joint stage counts the marginal stage's evaluations as its own
    assert res_f.n_evaluations > res_m.n_evaluations


def test_joint_fit_from_its_own_optimum_finds_no_lower_objective(oscillator_fit):
    # a second search from the joint optimum, on the same bins, must not
    # find a markedly lower objective
    model_true, res_m, res_f, v_joint, f = oscillator_fit
    again = fit_full(f, theta0=res_f.model, **_OSCILLATOR_JOINT_BINS)
    assert again.objective >= res_f.objective * (1.0 - 1e-5)


def test_fit_result_json_round_trip(oscillator_fit):
    model_true, res_m, res_f, v_joint, f = oscillator_fit
    d = json.loads(res_f.to_json())
    assert set(d) == {
        "model",
        "objective",
        "n_evaluations",
        "converged",
        "theta0",
        "theta_star",
        "branches",
        "at_edge",
    }
    rebuilt = KernelModel.from_dict(d["model"])
    assert rebuilt.to_dict() == res_f.model.to_dict()
    assert d["objective"] == pytest.approx(res_f.objective, rel=1e-15)


def test_full_fit_infers_relaxation_family_from_start_model():
    truth = OuParams(
        sigma0_sq=4.0,
        tau_c=1.5,
        a=1.0,
        scale=0.6,
        beta=1.0,
        dispersion=Dispersion.QUADRATIC,
        dim=2,
    )
    g = GridSpec(ns=(32, 32), ds=(1.0, 1.0), nt=64, dt=0.5, seed=5)
    # slowly decaying temporal spectral tails fall outside this coarse grid,
    # which is fine here: the test only exercises the fitting mechanics
    with pytest.warns(SpectralTruncationWarning):
        f = simulate_field(KernelModel(params=truth, nugget=0.1), g)
    start = KernelModel(
        params=OuParams(
            sigma0_sq=3.0,
            tau_c=1.0,
            a=1.0,
            scale=1.0,
            beta=0.7,
            dispersion=Dispersion.QUADRATIC,
            dim=2,
        ),
        nugget=0.05,
    )
    jr = np.arange(0.0, 5.0)
    jt = 0.5 * np.arange(0, 13, 2)
    v = space_time_variogram(f, r_bins=jr, tau_bins=jt)
    # the start model sets the family
    for start, expected in ((start, OuParams), (preset_model("fig1"), LdhoParams)):
        res = fit_full(f, theta0=start, r_bins=jr, tau_bins=jt)
        assert isinstance(res.model.params, expected)
        assert res.objective < float(wls_objective(start, v))


# temporal names searched per branch once the spatial stage fixed its own
_TEMPORAL_NAMES = {
    "underdamped": {"omega_d", "tau_c", "interaction", "nugget"},
    "critical": {"tau_c", "interaction", "nugget"},
    "overdamped": {"damping_ratio", "tau_c", "interaction", "nugget"},
    "ou": {"tau_c", "scale", "nugget"},
}


@pytest.mark.parametrize(
    "family, dispersion",
    [("ou", Dispersion.QUADRATIC), ("ou", Dispersion.LINEAR), ("ldho", Dispersion.LINEAR)],
)
def test_relaxation_and_linear_fits(family, dispersion):
    if family == "ou":
        params = OuParams(
            sigma0_sq=4.0, tau_c=1.5, a=1.0, scale=0.6, beta=1.0, dispersion=dispersion, dim=2
        )
        spatial_names, branches = {"sigma0_sq", "beta"}, {"ou"}
    else:
        params = LdhoParams.from_damped_frequency(
            c0=10.0, tau_c=2.0, omega_d=1.2, regime=Regime.UNDERDAMPED, epsilon=1.5,
            interaction=0.5, dispersion=dispersion, dim=2,
        )
        spatial_names, branches = {"c0", "epsilon"}, {"underdamped", "critical", "overdamped"}
    g = GridSpec(ns=(24, 24), ds=(1.0, 1.0), nt=48, dt=0.4, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTruncationWarning)
        f = simulate_field(KernelModel(params=params, nugget=0.1), g)
    bins = dict(r_bins=np.arange(1.0, 9.0), tau_bins=0.4 * np.arange(1, 21))
    joint = dict(r_bins=np.arange(0.0, 6.0), tau_bins=0.4 * np.arange(0, 16, 2))

    res = fit_marginals(f, family=family, dispersion=dispersion, **bins)
    assert res.model.family == family
    assert res.model.params.dispersion is dispersion
    if family == "ou":
        assert res.model.params.a == 1.0
    assert set(res.theta0) == {"spatial", "temporal"}
    assert set(res.theta0["spatial"]) == spatial_names | {"nugget"}
    assert set(res.theta0["temporal"]) == branches
    for branch, start in res.theta0["temporal"].items():
        assert set(start) == _TEMPORAL_NAMES[branch]
    assert set(res.theta_star) == {"spatial", "temporal", "nugget"}
    assert set(res.theta_star["spatial"]) == spatial_names
    assert set(res.theta_star["temporal"]) in [_TEMPORAL_NAMES[b] for b in branches]

    # a bound on a temporal parameter leaves the spatial stage alone
    tau0 = next(iter(res.theta0["temporal"].values()))["tau_c"]
    bound = (0.5 * tau0, 1.5 * tau0)
    res_b = fit_marginals(f, family=family, dispersion=dispersion, bounds={"tau_c": bound}, **bins)
    assert res_b.theta0["spatial"] == res.theta0["spatial"]
    assert res_b.theta_star["spatial"] == res.theta_star["spatial"]
    assert bound[0] <= res_b.theta_star["temporal"]["tau_c"] <= bound[1]
    if family == "ldho":
        # a bound that excludes every automatic temporal start moves the
        # starts inside it
        box = (0.5, 3.0)
        res_x = fit_marginals(f, dispersion=dispersion, bounds={"tau_c": box})
        assert all(t["tau_c"] < box[0] for t in res_x.theta0["temporal"].values())
        assert box[0] <= res_x.theta_star["temporal"]["tau_c"] <= box[1]

    res_f = fit_full(f, theta0=res, **joint)
    assert res_f.model.family == family
    assert res_f.model.params.dispersion is dispersion
    assert set(res_f.theta0) == branches
    v_joint = space_time_variogram(f, **joint)
    assert res_f.objective <= float(wls_objective(res.model, v_joint))


def test_fit_rejects_unknown_family(tiny_field):
    f, coords, flat = tiny_field
    with pytest.raises(DomainError, match="family"):
        fit_marginals(f, family="matern")


def test_bounds_excluding_the_start_move_it_inside(tiny_field):
    # the automatic spatial start lies far below the bound on c0; the search
    # starts on the bound's edge instead of failing
    f, coords, flat = tiny_field
    res = fit_marginals(
        f,
        r_bins=np.array([1.0, 2.0]),
        tau_bins=np.array([0.5, 1.0]),
        bounds={"c0": (1e9, 1e10)},
    )
    assert res.theta0["spatial"]["c0"] < 1e9
    assert 1e9 <= res.theta_star["spatial"]["c0"] <= 1e10


@pytest.mark.parametrize(
    "family, bounds, match",
    (
        ("ldho", {"tauc": (0.5, 3.0)}, "'tauc'.*no ldho branch"),
        ("ldho", {"sigma0_sq": (0.5, 3.0)}, "'sigma0_sq'.*no ldho branch"),
        ("ou", {"c0": (0.5, 3.0)}, "'c0'.*no ou branch"),
        ("ldho", {"c0": (math.nan, 1e9)}, "'c0'.*NaN"),
        ("ou", {"tau_c": (1.0, math.nan)}, "'tau_c'.*NaN"),
        ("ldho", {"c0": (5.0, 1.0)}, "'c0'.*empty"),
        ("ldho", {"epsilon": (2.0, 2.0)}, "'epsilon'.*empty"),
        ("ldho", {"nugget": 0.5}, "'nugget'.*pair"),
        # every searched value is positive, and a damping ratio in (0, 1)
        ("ldho", {"tau_c": (-2.0, -1.0)}, "'tau_c'.*misses the range"),
        ("ldho", {"interaction": (-1.0, 0.0)}, "'interaction'.*misses the range"),
        ("ou", {"scale": (-1.0, 0.0)}, "'scale'.*misses the range"),
        ("ldho", {"damping_ratio": (1.5, 2.0)}, "'damping_ratio'.*misses the range"),
        ("ldho", {"damping_ratio": (1.0, 2.0)}, "'damping_ratio'.*misses the range"),
        ("ldho", {"damping_ratio": (-1.0, 0.0)}, "'damping_ratio'.*misses the range"),
    ),
)
def test_bad_bounds_raise_before_any_search(tiny_field, monkeypatch, family, bounds, match):
    def no_search(*args, **kwargs):
        raise AssertionError("the criterion ran before the bounds were checked")

    monkeypatch.setattr(estimate, "_semivariance", no_search)
    f, coords, flat = tiny_field
    if family == "ldho":
        params = LdhoParams.from_damped_frequency(
            c0=1.0, tau_c=1.0, omega_d=1.0, regime=Regime.UNDERDAMPED,
            epsilon=1.0, interaction=0.5,
        )
    else:
        params = OuParams(sigma0_sq=1.0, tau_c=1.0, a=1.0, scale=0.5, beta=1.0)
    with pytest.raises(DomainError, match=match):
        fit_marginals(f, family=family, bounds=bounds)
    with pytest.raises(DomainError, match=match):
        fit_full(f, theta0=KernelModel(params=params, nugget=0.1), bounds=bounds)


# ---------------------------------------------------------------------------
# bin bookkeeping and containers
# ---------------------------------------------------------------------------


def test_unreachable_bins_warn_and_drop(tiny_field):
    f, coords, flat = tiny_field
    with pytest.warns(EmptyBin):
        v = spatial_marginal_variogram(f, bins=np.array([1.0, 50.0]), tolerance=0.5)
    assert np.array_equal(v.r, [1.0])


def test_all_bins_unreachable_raises(tiny_field):
    f, coords, flat = tiny_field
    with pytest.warns(EmptyBin):
        with pytest.raises(EmptyBinError):
            spatial_marginal_variogram(f, bins=np.array([50.0, 80.0]), tolerance=0.5)
    # the origin class alone is no bin at all
    with pytest.raises(EmptyBinError):
        space_time_variogram(f, r_bins=np.array([0.0]), tau_bins=np.array([0.0]))
    with pytest.raises(EmptyBinError):
        temporal_marginal_variogram(f, bins=np.array([]))


def test_temporal_zero_and_overlong_bins_drop(tiny_field):
    f, coords, flat = tiny_field
    dt, nt = f.grid.dt, f.grid.nt
    with pytest.warns(EmptyBin):
        v = temporal_marginal_variogram(f, bins=np.array([0.0, dt, nt * dt]))
    assert np.array_equal(v.tau, [dt])


def test_temporal_bins_must_align_with_the_grid(tiny_field):
    f, coords, flat = tiny_field
    with pytest.raises(DomainError, match="multiple"):
        temporal_marginal_variogram(f, bins=np.array([0.3]))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, -1.0))
def test_estimators_reject_bad_bins_and_tolerances(tiny_field, scattered_data, bad):
    # grid and scattered data alike, before any binning pass
    for data in (tiny_field[0], scattered_data[0]):
        calls = (
            lambda: spatial_marginal_variogram(data, bins=[1.0, bad], tolerance=0.5),
            lambda: spatial_marginal_variogram(data, bins=[1.0, 2.0], tolerance=bad),
            lambda: temporal_marginal_variogram(data, bins=[0.5, bad]),
            lambda: space_time_variogram(data, r_bins=[0.0, bad], tau_bins=[0.0, 0.5]),
            lambda: space_time_variogram(data, r_bins=[0.0, 1.0], tau_bins=[bad, 0.5]),
            lambda: space_time_variogram(
                data, r_bins=[0.0, 1.0], tau_bins=[0.0, 0.5], tolerance=bad
            ),
        )
        for call in calls:
            with pytest.raises(DomainError, match="must be finite and >= 0"):
                call()


def _lattice_and_dataset(ns, ds, nt, dt, seed):
    """A random field on a lattice and the same nodes as a scattered dataset."""
    g = GridSpec(ns=ns, ds=ds, nt=nt, dt=dt, seed=0)
    z = np.random.default_rng(seed).standard_normal((nt,) + ns)
    idx = np.indices(z.shape).reshape(z.ndim, -1)
    coords = np.stack([i * s for i, s in zip(idx[1:], ds)], axis=1)
    data = SpaceTimeDataset.from_arrays(coords, dt * idx[0], z.ravel())
    return FieldRealization(values=z, grid=g, provenance={}), data


@pytest.mark.parametrize(
    "ns, ds, nt, dt, r_bins, tol",
    (
        ((6, 5), (1.0, 1.0), 7, 0.5, [1.0, 2.0, 3.0, 4.0], 0.5),
        ((9,), (0.5,), 6, 0.25, [0.5, 1.0, 1.5, 2.0, 3.5], 0.5),
    ),
    ids=("6x5x7", "9x6"),
)
def test_gridded_marginals_equal_the_scattered_ones(ns, ds, nt, dt, r_bins, tol):
    # every slice and every location holds the same pairs, so the scattered
    # estimators' slice and location averages equal the grid's pooled ratios;
    # power-of-two steps make every lag exact, window edges included
    f, data = _lattice_and_dataset(ns, ds, nt, dt, seed=len(ns))
    assert data.stations is not None
    tau_bins = dt * np.arange(1, nt)
    for grid_v, scattered_v in (
        (spatial_marginal_variogram(f, r_bins, tol), spatial_marginal_variogram(data, r_bins, tol)),
        (temporal_marginal_variogram(f, tau_bins), temporal_marginal_variogram(data, tau_bins)),
    ):
        assert np.array_equal(grid_v.counts, scattered_v.counts)
        np.testing.assert_allclose(grid_v.gamma, scattered_v.gamma, rtol=1e-12, atol=0.0)
        for a, b in ((grid_v.r, scattered_v.r), (grid_v.tau, scattered_v.tau)):
            assert (a is None and b is None) or np.array_equal(a, b)

    # the joint estimators agree too, except that the grid counts each
    # tau = 0 node pair twice, once per sign of the spatial shift
    joint = dict(r_bins=[0.0] + r_bins, tau_bins=dt * np.arange(0, nt, 2), tolerance=tol)
    grid_v, scattered_v = space_time_variogram(f, **joint), space_time_variogram(data, **joint)
    assert np.array_equal(grid_v.tau, scattered_v.tau)
    twice = np.where(grid_v.tau == 0.0, 2, 1)
    assert np.array_equal(grid_v.counts, twice * scattered_v.counts)
    np.testing.assert_allclose(grid_v.gamma, scattered_v.gamma, rtol=1e-12, atol=0.0)


def test_variogram_container_validation():
    good = dict(gamma=[0.5, 0.7], counts=[3, 4], r=[1.0, 2.0])
    EmpiricalVariogram(kind=VariogramKind.SPATIAL_MARGINAL, **good)
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.SPATIAL_MARGINAL, gamma=[-0.1, 0.7], counts=[3, 4], r=[1, 2]
        )
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.SPATIAL_MARGINAL, gamma=[0.5, 0.7], counts=[3, 0], r=[1, 2]
        )
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.SPATIAL_MARGINAL, gamma=[0.5], counts=[3, 4], r=[1.0]
        )
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.SPATIAL_MARGINAL,
            gamma=[0.5, 0.7],
            counts=[3, 4],
            r=[1.0, 2.0],
            tau=[0.0, 0.5],
        )
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.TEMPORAL_MARGINAL, gamma=[0.5], counts=[3], r=[1.0]
        )
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.SPACE_TIME, gamma=[0.5], counts=[3], r=[1.0]
        )
    with pytest.raises(DomainError):
        EmpiricalVariogram(
            kind=VariogramKind.SPATIAL_MARGINAL, gamma=[0.5, 0.7], counts=[3, 4], r=[1.0]
        )
    with pytest.raises(EmptyBinError):
        EmpiricalVariogram(
            kind=VariogramKind.SPATIAL_MARGINAL, gamma=[], counts=[], r=[]
        )
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            EmpiricalVariogram(
                kind=VariogramKind.SPATIAL_MARGINAL, gamma=[0.5, bad], counts=[3, 4], r=[1, 2]
            )
    # bad lags fail at construction, including through the JSON literals
    # NaN and Infinity that from_json accepts
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="spatial lags"):
            EmpiricalVariogram(
                kind=VariogramKind.SPATIAL_MARGINAL, gamma=[0.5, 0.7], counts=[3, 4], r=[1, bad]
            )
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="time lags"):
            EmpiricalVariogram(
                kind=VariogramKind.SPACE_TIME,
                gamma=[0.5, 0.7],
                counts=[3, 4],
                r=[0.0, 1.0],
                tau=[bad, 0.5],
            )
    for literal in ("NaN", "Infinity", "-1.0"):
        text = (
            '{"kind": "spatial_marginal", "bins": [{"r": 1.0, "gamma": 0.5, "n": 3}, '
            f'{{"r": {literal}, "gamma": 0.7, "n": 4}}]}}'
        )
        with pytest.raises(DomainError, match="spatial lags"):
            EmpiricalVariogram.from_json(text)
    text = '{"kind": "temporal_marginal", "bins": [{"tau": Infinity, "gamma": 0.5, "n": 3}]}'
    with pytest.raises(DomainError, match="time lags"):
        EmpiricalVariogram.from_json(text)
    for literal in ("NaN", "Infinity", "-0.5"):
        text = (
            '{"kind": "spatial_marginal", "bins": [{"r": 1.0, "gamma": 0.5, "n": 3}], '
            f'"tolerance": {literal}}}'
        )
        with pytest.raises(DomainError, match="tolerance"):
            EmpiricalVariogram.from_json(text)


def test_variogram_json_round_trip(tiny_field):
    f, coords, flat = tiny_field
    v = space_time_variogram(
        f,
        r_bins=np.array([0.0, 1.0, 2.0]),
        tau_bins=0.5 * np.array([0.0, 1.0]),
        tolerance=0.5,
    )
    back = EmpiricalVariogram.from_json(v.to_json())
    assert back.kind is v.kind
    assert np.array_equal(back.gamma, v.gamma)
    assert np.array_equal(back.counts, v.counts)
    assert np.array_equal(back.r, v.r)
    assert np.array_equal(back.tau, v.tau)
    assert back.tolerance == v.tolerance


def test_malformed_variogram_json_raises():
    with pytest.raises(DomainError):
        EmpiricalVariogram.from_json("not json at all {")
    with pytest.raises(DomainError):
        EmpiricalVariogram.from_dict({"kind": "spatial_marginal"})
    with pytest.raises(DomainError):
        EmpiricalVariogram.from_dict(
            {"kind": "no_such_kind", "bins": [{"r": 1.0, "gamma": 0.5, "n": 3}]}
        )
    # malformed bins: no gamma, bins not a list, a later bin without tau
    malformed = (
        {"kind": "spatial_marginal", "bins": [{"r": 1.0, "n": 3}]},
        {"kind": "spatial_marginal", "bins": 5},
        {
            "kind": "temporal_marginal",
            "bins": [{"tau": 0.5, "gamma": 0.5, "n": 3}, {"gamma": 0.7, "n": 2}],
        },
        {"kind": "spatial_marginal", "bins": [{"r": 1.0, "gamma": "high", "n": 3}]},
    )
    for data in malformed:
        with pytest.raises(DomainError, match="malformed"):
            EmpiricalVariogram.from_dict(data)
        with pytest.raises(DomainError, match="malformed"):
            EmpiricalVariogram.from_json(json.dumps(data))


def test_default_bins_respect_the_sampling_geometry(tiny_field, scattered_data):
    f, coords, flat = tiny_field
    r_grid = default_spatial_bins(f)
    # half the shortest box side caps the spatial reach
    assert np.array_equal(r_grid, [1.0, 2.0])
    t_grid = default_temporal_bins(f)
    assert np.array_equal(t_grid, 0.5 * np.arange(1, 6))

    data = scattered_data[0]
    r_sc = default_spatial_bins(data)
    assert r_sc.size == 8 and np.all(np.diff(r_sc) > 0) and r_sc[0] > 0
    t_sc = default_temporal_bins(data)
    assert np.all(np.diff(t_sc) > 0) and t_sc[0] > 0
