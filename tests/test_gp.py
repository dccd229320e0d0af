"""Gram construction, GP prediction, point sets as tables, and the CSV interfaces."""

import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import peak_bytes, station_arrays
from hypothesis import assume, given, settings
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist, pdist, squareform

import oscov.gp as gp
from oscov import (
    DimensionMismatch,
    DomainError,
    IllConditionedWarning,
    JitterWarning,
    KernelModel,
    LdhoParams,
    NotPositiveDefinite,
    OuParams,
    Posterior,
    SpaceTimeDataset,
    SpaceTimePoint,
    gram,
    load_dataset_csv,
    predict,
    preset_model,
    write_predictions_csv,
)
from oscov.gp import _chol_with_jitter

UNDER = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4)


def random_arrays(rng, n, dim, box=10.0, t_span=20.0):
    coords = rng.uniform(0.0, box, (n, dim))
    times = rng.uniform(0.0, t_span, n)
    return coords, times


def points_of(coords, times):
    return [SpaceTimePoint(tuple(c), float(t)) for c, t in zip(coords, times)]


def random_points(rng, n, dim, box=10.0, t_span=20.0):
    return points_of(*random_arrays(rng, n, dim, box, t_span))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def test_gram_single_point():
    m = KernelModel(UNDER, nugget=0.3)
    K = gram(m, [SpaceTimePoint((0.0, 0.0), 0.0)]).matrix
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(m.variance() + 0.3, rel=1e-14)


def test_gram_coincident_pair_is_rank_one():
    m = KernelModel(UNDER, nugget=0.0)
    p = SpaceTimePoint((1.0, 2.0), 0.5)
    K = gram(m, [p, p]).matrix
    v0 = m.variance()
    eigs = np.sort(np.linalg.eigvalsh(K))
    assert eigs[0] == pytest.approx(0.0, abs=1e-12 * v0)
    assert eigs[1] == pytest.approx(2 * v0, rel=1e-12)


def test_gram_symmetry_and_diagonal():
    rng = np.random.default_rng(7)
    m = KernelModel(UNDER, nugget=0.2)
    # 700 points take several blocks of rows
    for n in (40, 700):
        coords, times = random_arrays(rng, n, 2)
        K = gram(m, points_of(coords, times)).matrix
        assert np.array_equal(K, K.T)
        assert np.allclose(np.diag(K), m.variance() + 0.2, rtol=1e-14)
        # bit for bit the full kernel matrix plus the nugget on the diagonal,
        # from a point list and from a dataset alike
        brute = m.covariance(cdist(coords, coords), times[:, None] - times[None, :])
        brute[np.diag_indices(n)] += 0.2
        assert np.array_equal(K, brute)
        data = SpaceTimeDataset.from_arrays(coords, times, np.zeros(n))
        assert np.array_equal(gram(m, data).matrix, brute)


def test_gram_psd_for_all_variants(variants_2d):
    rng = np.random.default_rng(11)
    pts = random_points(rng, 120, 2)
    for name, params in variants_2d:
        K = gram(KernelModel(params), pts).matrix
        min_eig = float(np.linalg.eigvalsh(K).min())
        assert min_eig >= -1e-8 * float(np.trace(K)), name


def _pairwise_gram(m, coords, times):
    K = squareform(m.covariance(pdist(coords), pdist(times[:, None], "cityblock")))
    np.fill_diagonal(K, m.variance() + m.nugget)
    return K


@settings(max_examples=80, deadline=None)
@given(arrays=station_arrays(min_times=5, min_keep=0.7))
def test_station_gram_is_the_pairwise_kernel(arrays):
    coords, times, values = arrays
    data = SpaceTimeDataset.from_arrays(coords, times, values)
    assume(data.stations is not None)
    m = KernelModel(UNDER, nugget=0.1)
    expected = _pairwise_gram(m, coords, times)
    assert np.array_equal(gram(m, data).matrix, expected)
    # a point list builds its own table
    assert np.array_equal(gram(m, points_of(coords, times)).matrix, expected)


@settings(max_examples=30, deadline=None)
@given(arrays=station_arrays(max_sites=1, min_times=6, min_keep=0.7))
def test_station_gram_of_one_site_series(arrays):
    coords, times, values = arrays
    data = SpaceTimeDataset.from_arrays(coords, times, values)
    assume(data.stations is not None)
    m = KernelModel(UNDER)
    assert np.array_equal(gram(m, data).matrix, _pairwise_gram(m, coords, times))


@pytest.mark.parametrize("n", (1, 2, 30))
def test_gram_without_station_structure_is_the_pairwise_kernel(n):
    # every point its own site: S^2 T >= n(n - 1)/2, so the pair path runs
    coords, times = random_arrays(np.random.default_rng(n), n, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, np.zeros(n))
    assert data.stations is None
    m = KernelModel(UNDER, nugget=0.1)
    assert np.array_equal(gram(m, data).matrix, _pairwise_gram(m, coords, times))


def test_a_repeated_cell_keeps_the_pair_path():
    # 4 sites x 6 times would take the table, but one cell is observed twice
    site, step = np.divmod(np.arange(24), 6)
    coords = np.stack([site, site % 2], axis=1).astype(float)
    times = 0.5 * step
    assert SpaceTimeDataset.from_arrays(coords, times, np.zeros(24)).stations is not None
    coords, times = np.vstack([coords, coords[:1]]), np.append(times, times[0])
    data = SpaceTimeDataset.from_arrays(coords, times, np.zeros(25))
    assert data.stations is None
    m = KernelModel(UNDER, nugget=0.1)
    assert np.array_equal(gram(m, data).matrix, _pairwise_gram(m, coords, times))


def test_station_table_is_built_once_per_dataset():
    coords = np.repeat([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], 8, axis=0)
    data = SpaceTimeDataset.from_arrays(coords, np.tile(np.arange(8.0), 3), np.zeros(24))
    table = data.stations
    assert table is data.stations
    assert table.sites.shape == (3, 2) and table.times.size == 8 and table.lags.size == 8
    assert np.array_equal(table.sites[table.site_of], coords)
    assert np.array_equal(table.lags[table.lag_of[table.time_of[3], table.time_of[13]]], 2.0)


def test_gram_dimension_mismatch():
    m = KernelModel(UNDER)  # dim 2
    with pytest.raises(DimensionMismatch):
        gram(m, [SpaceTimePoint((1.0, 2.0, 3.0), 0.0)])
    mixed = [SpaceTimePoint((1.0,), 0.0), SpaceTimePoint((1.0, 2.0), 0.0)]
    with pytest.raises(DimensionMismatch):
        gram(m, mixed)
    data = SpaceTimeDataset.from_arrays([[1.0, 2.0]], [0.0], [1.0])
    with pytest.raises(DimensionMismatch):
        predict(m, data, mixed)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def test_prediction_interpolates_noise_free_data():
    rng = np.random.default_rng(3)
    m = KernelModel(UNDER, nugget=0.0)
    coords, times = random_arrays(rng, 25, 2)
    values = rng.normal(0.0, 1.0, 25)
    data = SpaceTimeDataset.from_arrays(coords, times, values)
    means, variances = predict(m, data, points_of(coords, times))
    scale = float(np.max(np.abs(values)))
    assert np.max(np.abs(means - values)) <= 1e-8 * scale
    assert np.all(variances >= 0.0)
    assert np.max(variances) <= 1e-8 * m.variance()


def test_prediction_reverts_to_prior_far_away():
    rng = np.random.default_rng(5)
    m = KernelModel(UNDER, nugget=0.1)
    coords, times = random_arrays(rng, 15, 2)
    values = rng.normal(2.5, 1.0, 15)
    data = SpaceTimeDataset.from_arrays(coords, times, values, mean=2.5)
    far = [SpaceTimePoint((500.0, 500.0), 1000.0)]
    means, variances = predict(m, data, far)
    prior = m.variance() + m.nugget
    assert means[0] == pytest.approx(2.5, abs=1e-9)
    assert variances[0] == pytest.approx(prior, rel=1e-9)


def test_far_prediction_variance_is_the_gram_diagonal():
    # the spatial marginal at 0 differs from the kernel at (0, 0) in the last
    # bit for this model; variance() is the latter, and it is the Gram
    # diagonal and the prior alike
    m = KernelModel(LdhoParams(2.1, 1.2, 2.5, 0.6, 0.5), nugget=0.1)
    assert m.variance() == float(m.covariance(0.0, 0.0))
    rng = np.random.default_rng(8)
    coords, times = random_arrays(rng, 12, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.0, 1.0, 12))
    K = gram(m, data).matrix
    assert np.all(np.diag(K) == m.variance() + m.nugget)
    far = SpaceTimePoint((500.0, 500.0), 10.0)
    assert np.all(m.covariance(cdist([far.s], coords), far.t - times) == 0.0)
    means, variances = predict(m, data, [far])
    assert variances[0] == K[0, 0]


def test_prediction_permutation_equivariance():
    rng = np.random.default_rng(19)
    m = KernelModel(UNDER, nugget=0.05)
    coords, times = random_arrays(rng, 40, 2)
    values = rng.normal(0.0, 1.0, 40)
    queries = random_points(rng, 7, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, values)
    base_means, base_vars = predict(m, data, queries)

    perm = rng.permutation(40)
    shuffled = SpaceTimeDataset.from_arrays(coords[perm], times[perm], values[perm])
    perm_means, perm_vars = predict(m, shuffled, queries)
    scale = float(np.max(np.abs(base_means)))
    assert np.max(np.abs(perm_means - base_means)) <= 1e-12 * max(scale, 1.0)
    assert np.max(np.abs(perm_vars - base_vars)) <= 1e-12 * (m.variance() + m.nugget)


def test_duplicate_points_need_a_nugget():
    q = SpaceTimePoint((4.0, 1.0), 2.0)
    data = SpaceTimeDataset.from_arrays(
        [(1.0, 2.0), (1.0, 2.0), q.s], [0.5, 0.5, q.t], [1.0, 1.0, 2.0]
    )
    with pytest.raises(DomainError):
        predict(KernelModel(UNDER, nugget=0.0), data, [q])
    means, variances = predict(KernelModel(UNDER, nugget=0.2), data, [q])
    assert np.all(np.isfinite(means)) and np.all(variances >= 0.0)
    # the error names the first coincident pair in row-major order
    coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (3.0, 0.0), (2.0, 0.5)]
    times = [0.0, 0.0, 1.0, 1.0, 1.0]
    data = SpaceTimeDataset.from_arrays(coords, times, np.arange(5.0))
    with pytest.raises(DomainError, match="points 2 and 4 coincide"):
        Posterior(KernelModel(UNDER), data)
    coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (2.0, 0.5), (1.0, 0.0)]
    data = SpaceTimeDataset.from_arrays(coords, np.ones(5), np.arange(5.0))
    with pytest.raises(DomainError, match="points 1 and 4 coincide"):
        Posterior(KernelModel(UNDER), data)


def test_duplicates_are_found_in_row_order_without_pair_arrays():
    # 2 000 points take 63 blocks of rows; two coincident pairs lie in
    # different blocks, and the first in row-major order is named
    rng = np.random.default_rng(3)
    coords, times = random_arrays(rng, 2000, 2)
    for i, j in ((1900, 1950), (300, 1999)):
        coords[j], times[j] = coords[i], times[i]
    found, peak = peak_bytes(gp._find_duplicates, coords, times)
    assert found == (300, 1999)
    # less than one float per pair (16 MB)
    assert peak < 2000 * 1999 // 2 * 8
    coords[1999] += 1e-6
    assert gp._find_duplicates(coords, times) == (1900, 1950)
    assert gp._find_duplicates(coords[:1900], times[:1900]) is None


def test_factorization_failure_names_a_pivot():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite) as excinfo:
        _chol_with_jitter(indefinite, KernelModel(UNDER))
    assert excinfo.value.pivot == 1


def _near_duplicates(rng, n):
    """``n`` random points, three of them 1e-9 apart at one time: the
    nugget-free Gram matrix needs a jitter to factorize."""
    coords, times = random_arrays(rng, n, 2)
    coords[1:3] = coords[0] + [[1e-9, 0.0], [2e-9, 0.0]]
    times[1:3] = times[0]
    return SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.2, 1.0, n), mean=0.2)


def test_a_jitter_retry_factorizes_the_fresh_jittered_gram():
    from scipy.linalg.lapack import dpotrf, dtrtrs

    data = _near_duplicates(np.random.default_rng(21), 120)
    m = KernelModel(UNDER)
    with pytest.warns(JitterWarning), pytest.warns(IllConditionedWarning):
        post = Posterior(m, data)
    assert post.jitter > 0.0
    # the retry rebuilt K + jitter I in the failed attempt's buffer
    fresh = gram(m, data).matrix + post.jitter * np.eye(len(data))
    factor, info = dpotrf(fresh, lower=1, clean=0)
    assert info == 0
    assert np.array_equal(np.tril(post.factor), np.tril(factor))
    w = dtrtrs(factor, data.values - data.mean, lower=1)[0]
    assert np.array_equal(post.alpha, dtrtrs(factor, w, lower=1, trans=1)[0])


def test_the_factor_overwrites_the_gram_matrix():
    # 40 stations x 25 times; a small posterior loads the kernel and LAPACK
    # first, so the trace sees the Gram matrix and what is made beside it
    rng = np.random.default_rng(4)
    m = KernelModel(UNDER, nugget=0.05)
    sites = rng.uniform(0.0, 10.0, (40, 2))
    site, step = np.divmod(np.arange(1000), 25)
    Posterior(m, SpaceTimeDataset.from_arrays(sites[site[:50]], 0.4 * step[:50], np.zeros(50)))
    data = SpaceTimeDataset.from_arrays(sites[site], 0.4 * step, rng.normal(size=1000))
    assert data.stations is not None
    post, peak = peak_bytes(Posterior, m, data)
    # one n x n buffer, not K beside a copy of it (2.0)
    assert peak < 1.25 * 1000 * 1000 * 8
    assert post.factor.flags.f_contiguous


def test_jitter_is_recorded_and_reported():
    # points 1e-9 apart are no duplicates, but C(r, 0) rounds to C(0, 0)
    # there, so the nugget-free Gram matrix is singular to working precision
    coords = [[0.0, 0.0], [1e-9, 0.0], [2e-9, 0.0], [3.0, 1.0]]
    data = SpaceTimeDataset.from_arrays(coords, [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.5])
    m = KernelModel(UNDER, nugget=0.0)
    K = gram(m, data).matrix
    with pytest.raises(LinAlgError):
        cho_factor(K, lower=True)
    # the jittered matrix is still ill-conditioned, and says so too
    with pytest.warns(JitterWarning, match="jitter"), pytest.warns(IllConditionedWarning):
        post = Posterior(m, data)
    assert 0.0 < post.jitter <= 1e-6 * K[0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", JitterWarning)
        assert Posterior(replace(m, nugget=0.1), data).jitter == 0.0


def test_an_ill_conditioned_gram_is_reported():
    # two points 1e-9 apart factorize without jitter, but the Gram matrix is
    # singular to working precision and the predicted mean is wild
    m = KernelModel(UNDER)
    times, values = [0.0, 0.0, 1.0], [1.0, 1.2, 0.5]
    data = SpaceTimeDataset.from_arrays([[0.0, 0.0], [1e-9, 0.0], [3.0, 1.0]], times, values)
    with pytest.warns(IllConditionedWarning, match="ill-conditioned"):
        post = Posterior(m, data)
    assert post.jitter == 0.0 and post.rcond < 1e-15
    data = SpaceTimeDataset.from_arrays([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]], times, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        post = Posterior(m, data)
    K = gram(m, data).matrix
    assert post.rcond == pytest.approx(1.0 / np.linalg.cond(K, 1), rel=1e-6)


def test_prediction_dimension_mismatch():
    m = KernelModel(UNDER)
    data = SpaceTimeDataset.from_arrays([[1.0, 2.0]], [0.0], [1.0])
    with pytest.raises(DimensionMismatch):
        predict(m, data, [SpaceTimePoint((1.0,), 0.0)])


def test_non_finite_query_points_are_refused():
    # refused where the point is made, before the kernel sees it: no
    # RuntimeWarning, and no NaN mean or variance
    rng = np.random.default_rng(6)
    coords, times = random_arrays(rng, 10, 2)
    post = Posterior(KernelModel(UNDER, nugget=0.1), SpaceTimeDataset.from_arrays(
        coords, times, rng.normal(0.0, 1.0, 10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, t in (((np.nan, 0.0), 0.1), ((0.0, 1.0), np.inf), ((-np.inf, 0.0), 0.0)):
            with pytest.raises(DomainError, match="not finite"):
                SpaceTimePoint(s, t)
            with pytest.raises(DomainError, match="not finite"):
                post.predict([((1.0, 1.0), 0.5), (s, t)])


def _station_case(rng):
    """12 sites x 15 times, a tenth of the cells unobserved."""
    site, step = np.divmod(np.arange(180), 15)
    keep = rng.random(180) < 0.9
    coords = rng.uniform(0.0, 10.0, (12, 2))[site[keep]]
    return coords, 0.4 * step[keep].astype(float)


@pytest.mark.parametrize("stations", (True, False))
def test_triangular_solve_is_the_cholesky_solve(stations):
    rng = np.random.default_rng(13)
    coords, times = _station_case(rng) if stations else random_arrays(rng, 150, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.5, 1.0, times.size), 0.5)
    assert (data.stations is not None) == stations
    m = KernelModel(UNDER, nugget=0.05)
    post = Posterior(m, data)
    factor = (post.factor, True)
    expected = cho_solve(factor, data.values - data.mean)
    assert np.max(np.abs(post.alpha - expected)) <= 1e-12 * np.max(np.abs(expected))
    q_coords, q_times = random_arrays(rng, 40, 2, t_span=6.0)
    _, variances = post.predict(points_of(q_coords, q_times))
    k_star = m.covariance(cdist(q_coords, coords), q_times[:, None] - times[None, :])
    direct = post.prior - np.einsum("ij,ji->i", k_star, cho_solve(factor, k_star.T))
    assert np.max(np.abs(variances - direct)) <= 1e-13 * post.prior


def test_station_queries_match_the_pair_path():
    # the station Gram matrix and the site distances have the bits of the
    # pair path's, so the factor and the predictions do too
    rng = np.random.default_rng(23)
    coords, times = _station_case(rng)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(size=times.size))
    twin = SpaceTimeDataset.from_arrays(coords, times, data.values)
    twin.__dict__["stations"] = None
    m = KernelModel(UNDER, nugget=0.05)
    post, pair_post = Posterior(m, data), Posterior(m, twin)
    assert post.stations is data.stations and pair_post.stations is None
    assert np.array_equal(np.tril(post.factor), np.tril(pair_post.factor))
    queries = random_points(rng, 30, 2, t_span=6.0) + points_of(coords[:5], times[:5])
    for got, expected in zip(post.predict(queries), pair_post.predict(queries)):
        assert np.array_equal(got, expected)


def test_a_jittered_posterior_predicts_variances_within_the_prior():
    coords = [[0.0, 0.0], [1e-9, 0.0], [2e-9, 0.0], [3.0, 1.0]]
    data = SpaceTimeDataset.from_arrays(coords, [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.5])
    with pytest.warns(JitterWarning), pytest.warns(IllConditionedWarning):
        post = Posterior(KernelModel(UNDER), data)
    assert post.jitter > 0.0
    queries = random_points(np.random.default_rng(9), 20, 2, box=3.0, t_span=1.0)
    _, variances = post.predict(queries + points_of(coords, [0.0, 0.0, 0.0, 1.0]))
    assert np.all(variances >= 0.0) and np.all(variances <= post.prior)


# ---------------------------------------------------------------------------
# posterior reuse
# ---------------------------------------------------------------------------


@pytest.fixture
def krige_case(monkeypatch):
    """A model, a dataset and a query batch, with predict's cache emptied and
    every ``gram`` call recorded in the returned list."""
    rng = np.random.default_rng(41)
    coords, times = random_arrays(rng, 60, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.3, 1.0, 60), mean=0.3)
    calls = []
    real_gram = gp.gram

    def counting_gram(m, points):
        calls.append(m.model_key())
        return real_gram(m, points)

    monkeypatch.setattr(gp, "_cached", None)
    monkeypatch.setattr(gp, "gram", counting_gram)
    return KernelModel(UNDER, nugget=0.05), data, random_points(rng, 9, 2), calls


def copy_of(data):
    return SpaceTimeDataset.from_arrays(data.coords, data.times, data.values, mean=data.mean)


def test_repeated_predict_reuses_one_posterior(krige_case, monkeypatch):
    m, data, queries, calls = krige_case
    first = predict(m, data, queries)
    again = predict(m, data, queries)
    assert len(calls) == 1
    # a model equal in value, not in identity, reuses it too
    other_batch = predict(replace(m), data, queries[:4])
    assert len(calls) == 1
    direct = Posterior(m, data).predict(queries)
    monkeypatch.setattr(gp, "_cached", None)
    fresh = predict(m, data, queries)
    assert len(calls) == 3
    for means, variances in (again, direct, fresh):
        assert np.array_equal(means, first[0]) and np.array_equal(variances, first[1])
    assert np.array_equal(other_batch[0], first[0][:4])
    assert np.array_equal(other_batch[1], first[1][:4])


def test_predict_rows_do_not_depend_on_batch_size():
    # 30 stations x 20 times, and a batch of 50 queries: every prefix of the
    # batch gets the full batch's rows, bit for bit
    rng = np.random.default_rng(8)
    sites = rng.uniform(0.0, 10.0, (30, 2))
    coords = np.repeat(sites, 20, axis=0)
    times = np.tile(0.5 * np.arange(20.0), 30)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(size=600))
    assert data.stations is not None
    post = Posterior(KernelModel(UNDER, nugget=0.05), data)
    queries = random_points(rng, 50, 2)
    means, variances = post.predict(queries)
    for k in range(1, 50):
        head = post.predict(queries[:k])
        assert np.array_equal(head[0], means[:k]) and np.array_equal(head[1], variances[:k]), k


def test_a_new_model_or_dataset_rebuilds_the_posterior(krige_case):
    m, data, queries, calls = krige_case
    predict(m, data, queries)
    wetter = replace(m, nugget=0.06)
    predict(wetter, data, queries)
    assert calls == [m.model_key(), wetter.model_key()]
    # datasets compare by identity: equal arrays are a new dataset
    twin = copy_of(data)
    predict(wetter, twin, queries)
    predict(wetter, twin, queries)
    assert len(calls) == 3
    predict(wetter, data, queries)
    assert len(calls) == 4


def test_cached_posterior_dies_with_its_dataset(krige_case):
    m, data, queries, calls = krige_case
    short_lived = copy_of(data)
    predict(m, short_lived, queries)
    post = weakref.ref(gp._cached[2])
    del short_lived
    gc.collect()
    assert gp._cached is None and post() is None


def test_a_dead_old_dataset_keeps_the_newer_posterior(krige_case):
    m, data, queries, calls = krige_case
    old = copy_of(data)
    predict(m, old, queries)
    stale = gp._cached  # keeps the old reference, and so its callback, alive
    predict(m, data, queries)
    newer = gp._cached
    del old
    gc.collect()
    assert stale[1]() is None
    assert gp._cached is newer
    predict(m, data, queries)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# dataset plumbing
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(DomainError):
        SpaceTimeDataset.from_arrays(np.zeros((0, 1)), [], [])
    with pytest.raises(DomainError):
        SpaceTimeDataset.from_arrays([[1.0]], [0.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        SpaceTimeDataset.from_arrays([[1.0], [2.0]], [0.0], [1.0, 2.0])
    good = ([[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0], [1.0, 2.0])
    for pos, bad in ((0, [[0.0, np.nan], [2.0, 3.0]]), (1, [0.0, np.inf]), (2, [np.nan, 2.0])):
        args = list(good)
        args[pos] = bad
        with pytest.raises(DomainError, match="not all finite"):
            SpaceTimeDataset.from_arrays(*args)
    with pytest.raises(DomainError, match="not finite"):
        SpaceTimeDataset.from_arrays(*good, mean=np.nan)
    # the dataset keeps read-only copies of its arrays
    coords = np.array(good[0])
    data = SpaceTimeDataset.from_arrays(coords, *good[1:])
    coords[0, 0] = 9.0
    assert data.coords[0, 0] == 0.0 and not data.values.flags.writeable


def test_dataset_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "s1,s2,t,z\n"
        "0.5,1.5,0.25,1.125\n"
        "2.0,0.0,0.5,-0.75\n"
    )
    data = load_dataset_csv(path, mean=0.3)
    assert len(data) == 2
    assert data.dim == 2
    assert data.mean == 0.3
    assert np.array_equal(data.coords, [[0.5, 1.5], [2.0, 0.0]])
    assert np.array_equal(data.times, [0.25, 0.5])
    assert np.array_equal(data.values, [1.125, -0.75])


def test_dataset_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("s1,s2,t,z\n")
    with pytest.raises(DomainError, match="zero observations"):
        load_dataset_csv(empty)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("x,y,t,z\n1,2,3,4\n")
    with pytest.raises(DomainError):
        load_dataset_csv(bad_header)

    bad_cell = tmp_path / "cell.csv"
    bad_cell.write_text("s1,t,z\n1,2,oops\n")
    with pytest.raises(DomainError):
        load_dataset_csv(bad_cell)

    for cell in ("nan", "inf"):
        nan_cell = tmp_path / f"{cell}.csv"
        nan_cell.write_text(f"s1,t,z\n1,2,3\n1,3,{cell}\n")
        with pytest.raises(DomainError, match="not all finite"):
            load_dataset_csv(nan_cell)

    short_row = tmp_path / "short.csv"
    short_row.write_text("s1,t,z\n1,2\n")
    with pytest.raises(DomainError, match="3-column header"):
        load_dataset_csv(short_row)


def test_predictions_csv(tmp_path):
    rng = np.random.default_rng(2)
    m = preset_model("fig1")
    coords, times = random_arrays(rng, 10, 2)
    values = rng.normal(0.0, 0.3, 10)
    data = SpaceTimeDataset.from_arrays(coords, times, values)
    queries = random_points(rng, 4, 2)
    means, variances = predict(m, data, queries)
    out = tmp_path / "pred.csv"
    write_predictions_csv(out, queries, means, variances)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s1,s2,t,mean,variance"
    assert len(lines) == 5
    row = [float(c) for c in lines[1].split(",")]
    assert row[3] == pytest.approx(means[0], rel=1e-15)
    assert row[4] == pytest.approx(variances[0], rel=1e-15)


def test_predictions_csv_refuses_unequal_columns(tmp_path):
    # three queries, two means and one variance: no row may be dropped silently
    queries = random_points(np.random.default_rng(4), 3, 2)
    out = tmp_path / "pred.csv"
    with pytest.raises(DimensionMismatch, match="3 queries"):
        write_predictions_csv(out, queries, [0.1, 0.2], [0.3])
    assert not out.exists()


# ---------------------------------------------------------------------------
# point sets as tables
# ---------------------------------------------------------------------------


def test_a_point_needs_a_flat_numeric_location():
    for s, t in (([[1.0, 2.0]], 0.0), (("a",), 0.0), ((1.0, 2.0), "noon"), ((), 0.0)):
        with pytest.raises(DomainError):
            SpaceTimePoint(s, t)


def _krige_shaped(rng):
    """80 sites of a 32 x 32 lattice (spacing 0.5) observed at 25 times 0.4
    apart, and 50 queries at 20 held-out sites and 4 forecast times."""
    nodes = rng.choice(32 * 32, size=100, replace=False)
    locs = 0.5 * np.stack(np.unravel_index(nodes, (32, 32)), axis=1).astype(float)
    site, step = np.divmod(np.arange(80 * 25), 25)
    pool = [(i, k) for i in range(80, 100) for k in range(29)]
    pool += [(i, k) for i in range(80) for k in range(25, 29)]
    chosen = rng.choice(len(pool), size=50, replace=False)
    q_site, q_step = np.array([pool[j] for j in chosen]).T
    return (locs[site], 0.4 * step), (locs[q_site], 0.4 * q_step)


@pytest.mark.parametrize("stations", (True, False))
def test_a_table_gives_the_bits_of_its_points(stations, tmp_path, monkeypatch):
    rng = np.random.default_rng(28)
    if stations:
        (coords, times), (q_coords, q_times) = _krige_shaped(rng)
    else:
        coords, times = random_arrays(rng, 300, 2)
        q_coords, q_times = random_arrays(rng, 50, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.3, 1.0, times.size), 0.3)
    assert (data.stations is not None) == stations
    m = KernelModel(UNDER, nugget=0.05)
    table, q_table = np.column_stack([coords, times]), np.column_stack([q_coords, q_times])
    points, q_points = points_of(coords, times), points_of(q_coords, q_times)

    # the table's own columns, not copies
    got_coords, got_times = gp._arrays(q_table)
    assert np.shares_memory(got_coords, q_table) and np.shares_memory(got_times, q_table)
    assert np.array_equal(gram(m, table).matrix, gram(m, points).matrix)
    post = Posterior(m, data)
    for got, expected in zip(post.predict(q_table), post.predict(q_points)):
        assert np.array_equal(got, expected)
    monkeypatch.setattr(gp, "_cached", None)
    means, variances = predict(m, data, q_table)
    expected_means, expected_variances = predict(m, data, q_points)
    assert np.array_equal(means, expected_means)
    assert np.array_equal(variances, expected_variances)

    write_predictions_csv(tmp_path / "table.csv", q_table, means, variances)
    write_predictions_csv(tmp_path / "points.csv", q_points, means, variances)
    written = (tmp_path / "table.csv").read_bytes()
    assert written == (tmp_path / "points.csv").read_bytes()
    assert written.count(b"\r\n") == 51


BAD_TABLES = {
    "nan": np.array([[0.0, 1.0, 0.5], [1.0, np.nan, 0.5]]),
    "inf": np.array([[0.0, 1.0, np.inf]]),
    "no rows": np.empty((0, 3)),
    "one column": np.zeros((4, 1)),
    "1-D": np.zeros(3),
    "3-D": np.zeros((2, 4, 3)),
    "object": np.array([[0.0, 1.0, "a"]], dtype=object),
    "string": np.array([["0", "1", "0.5"]]),
}


@pytest.mark.parametrize("name", BAD_TABLES)
def test_a_bad_table_is_refused_before_any_kernel(name, tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    coords, times = random_arrays(rng, 10, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.0, 1.0, 10))
    m = KernelModel(UNDER, nugget=0.1)
    post = Posterior(m, data)
    monkeypatch.setattr(gp, "_cached", (m.model_key(), weakref.ref(data), post))

    def no_kernel(*args):
        raise AssertionError("the kernel ran on a refused table")

    monkeypatch.setattr(KernelModel, "covariance", no_kernel)
    bad = BAD_TABLES[name]
    for call in (
        lambda: gram(m, bad),
        lambda: post.predict(bad),
        lambda: predict(m, data, bad),
        lambda: write_predictions_csv(tmp_path / "pred.csv", bad, [0.0], [1.0]),
    ):
        with pytest.raises(DomainError):
            call()
    assert not (tmp_path / "pred.csv").exists()


def test_a_table_of_the_wrong_dimension_is_refused():
    rng = np.random.default_rng(9)
    coords, times = random_arrays(rng, 10, 2)
    data = SpaceTimeDataset.from_arrays(coords, times, rng.normal(0.0, 1.0, 10))
    m = KernelModel(UNDER, nugget=0.1)
    table = np.zeros((4, 4))  # three spatial columns for a 2-D model
    with pytest.raises(DimensionMismatch):
        gram(m, table)
    with pytest.raises(DimensionMismatch):
        Posterior(m, data).predict(table)
