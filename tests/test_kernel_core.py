"""Closed-form kernel behavior: regimes, marginals, interaction, serialization."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscov import (
    DegenerateMarginal,
    Dispersion,
    DomainError,
    KernelModel,
    LdhoParams,
    OuParams,
    Regime,
    RegimeError,
    available_presets,
    classify_regime,
    damped_frequency,
    fast_slow_times,
    interaction_functions_quadratic,
    interaction_ratio,
    ldho_kernel,
    marginal_spatial,
    marginal_temporal,
    ou_kernel,
    preset_model,
    separable_surrogate,
    temporal_kernel,
    vlrt_kernel,
)
from oscov.kernel_core import (
    DELTA_CRIT,
    _OVERDAMPED_SERIES_CUT,
    _prepare_lags,
    euclidean_length,
)

UNDER = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4)


def covariance_of(params, r, tau):
    if isinstance(params, OuParams):
        return ou_kernel(params, r, tau)
    return ldho_kernel(params, r, tau)


# ---------------------------------------------------------------------------
# regimes and characteristic times
# ---------------------------------------------------------------------------


def test_regime_classification():
    assert classify_regime(LdhoParams(1.0, 1.0, 1.0, 1.0, 0.1)) is Regime.UNDERDAMPED
    assert classify_regime(LdhoParams(1.0, 0.5, 1.0, 1.0, 0.1)) is Regime.CRITICAL
    assert classify_regime(LdhoParams(1.0, 0.8, 0.3125, 1.0, 0.1)) is Regime.OVERDAMPED


def test_regime_classification_tolerance_band():
    # a 1e-10 excursion from the boundary stays critical, 1e-8 does not
    assert classify_regime(LdhoParams(1.0, 1.0, 0.5 + 1e-10, 1.0, 0.1)) is Regime.CRITICAL
    assert classify_regime(LdhoParams(1.0, 1.0, 0.5 + 1e-8, 1.0, 0.1)) is Regime.UNDERDAMPED
    assert classify_regime(LdhoParams(1.0, 1.0, 0.5 - 1e-8, 1.0, 0.1)) is Regime.OVERDAMPED


def test_damped_frequency_values():
    assert damped_frequency(LdhoParams(1.0, 0.5, 1.0, 1.0, 0.1)) == 0.0
    wd = damped_frequency(LdhoParams(1.0, 1.0, 5.0, 1.0, 0.1))
    assert wd == pytest.approx(math.sqrt(24.75), rel=1e-15)
    # weak damping: the damped frequency approaches the natural frequency
    wd_limit = damped_frequency(LdhoParams(1.0, 1e8, 1.0, 1.0, 0.1))
    assert wd_limit == pytest.approx(1.0, rel=1e-12)


def test_damped_frequency_overdamped_magnitude():
    p = LdhoParams(1.0, 0.8, 0.3125, 1.0, 0.1)
    expected = math.sqrt(1.0 / (4 * 0.64) - 0.3125**2)
    assert damped_frequency(p) == pytest.approx(expected, rel=1e-14)


def test_fast_slow_times_arithmetic():
    # 2 tau_c |omega_d| = 0.5 with tau_c = 1
    p = LdhoParams.from_damped_frequency(1.0, 1.0, 0.25, Regime.OVERDAMPED, 1.0, 0.1)
    tau_s, tau_f = fast_slow_times(p)
    assert tau_s == pytest.approx(4.0, rel=1e-12)
    assert tau_f == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_fast_slow_times_near_critical_limit():
    p = LdhoParams.from_damped_frequency(1.0, 1.0, 1e-4, Regime.OVERDAMPED, 1.0, 0.1)
    tau_s, tau_f = fast_slow_times(p)
    assert tau_s == pytest.approx(2.0, rel=1e-3)
    assert tau_f == pytest.approx(2.0, rel=1e-3)
    assert tau_s > tau_f


def test_fast_slow_times_requires_overdamped():
    with pytest.raises(RegimeError):
        fast_slow_times(UNDER)
    with pytest.raises(RegimeError):
        fast_slow_times(LdhoParams(1.0, 0.5, 1.0, 1.0, 0.1))


@given(
    tau_c=st.floats(0.1, 10.0),
    u=st.floats(1e-3, 1.0 - 1e-3),  # u = 2 tau_c |omega_d| in (0, 1)
)
def test_fast_slow_times_ordering_property(tau_c, u):
    omega_d = u / (2.0 * tau_c)
    p = LdhoParams.from_damped_frequency(1.0, tau_c, omega_d, Regime.OVERDAMPED, 1.0, 0.1)
    if classify_regime(p) is not Regime.OVERDAMPED:
        return  # landed inside the critical tolerance band
    tau_s, tau_f = fast_slow_times(p)
    assert tau_s > tau_f > 0.0


# ---------------------------------------------------------------------------
# temporal kernel
# ---------------------------------------------------------------------------


def test_temporal_kernel_zero_lag_is_amplitude(variants_2d):
    for name, params in variants_2d:
        if isinstance(params, OuParams):
            continue
        assert temporal_kernel(params, 0.0) == pytest.approx(params.c0, rel=1e-14), name


def test_temporal_kernel_critical_closed_form():
    p = LdhoParams(1.7, 2.0, 0.25, 1.0, 0.1)
    assert classify_regime(p) is Regime.CRITICAL
    for tau in (0.3, 1.0, 4.0, 2 * p.tau_c):
        x = abs(tau) / (2 * p.tau_c)
        expected = p.c0 * math.exp(-x) * (1 + x)
        assert temporal_kernel(p, tau) == pytest.approx(expected, rel=1e-14)
    assert temporal_kernel(p, 2 * p.tau_c) == pytest.approx(2 * p.c0 / math.e, rel=1e-14)


def test_temporal_kernel_even(variants_2d):
    taus = np.linspace(0.1, 8.0, 17)
    for name, params in variants_2d:
        if isinstance(params, OuParams):
            continue
        plus = temporal_kernel(params, taus)
        minus = temporal_kernel(params, -taus)
        assert np.array_equal(plus, minus), name


# ---------------------------------------------------------------------------
# interaction functions (quadratic, underdamped)
# ---------------------------------------------------------------------------


def test_interaction_functions_zero_lag():
    f = interaction_functions_quadratic(UNDER, 0.0)
    assert f.kappa_sq == 0.0
    assert f.lambda_sq == pytest.approx(1.0 / (4 * UNDER.epsilon), rel=1e-15)
    assert f.phi == 0.0


def test_interaction_functions_decouple_without_interaction():
    p = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.0)
    for tau in (0.0, 0.7, 3.0, 12.0):
        f = interaction_functions_quadratic(p, tau)
        assert f.kappa_sq == 0.0
        assert f.lambda_sq == pytest.approx(1.0 / (4 * p.epsilon), rel=1e-15)
        assert f.phi == 0.0


def test_interaction_functions_substitution_point():
    # b=0.4, eps=1, tau_c=3, omega_d=3*pi/2, tau=1; reference values evaluated
    # at 50 digits from the three displayed formulas
    p = LdhoParams.from_damped_frequency(
        1.0, 3.0, 1.5 * math.pi, Regime.UNDERDAMPED, 1.0, 0.4
    )
    f = interaction_functions_quadratic(p, 1.0)
    assert f.kappa_sq == pytest.approx(0.10045948357916301773, rel=1e-14)
    assert f.lambda_sq == pytest.approx(0.056848438727405809951, rel=1e-14)
    assert f.phi == pytest.approx(-1.0558397654512981528, rel=1e-14)


def test_interaction_functions_phase_branch():
    # the numerator is non-positive, so the phase stays in (-pi, 0]
    taus = np.linspace(0.0, 30.0, 301)
    phi = interaction_functions_quadratic(UNDER, taus).phi
    assert np.all(phi <= 0.0)
    assert np.all(phi > -math.pi)


def test_interaction_functions_regime_errors():
    critical = LdhoParams(1.0, 0.5, 1.0, 1.0, 0.1)
    overdamped = LdhoParams(1.0, 0.8, 0.3125, 1.0, 0.1)
    linear = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4, Dispersion.LINEAR)
    for p in (critical, overdamped, linear):
        with pytest.raises(RegimeError):
            interaction_functions_quadratic(p, 1.0)


# ---------------------------------------------------------------------------
# full kernels: symmetry, marginals, bounds
# ---------------------------------------------------------------------------


def test_kernel_even_in_time(variants_2d):
    rs = np.linspace(0.0, 6.0, 7)
    taus = np.linspace(0.25, 9.0, 12)
    for name, params in variants_2d:
        plus = covariance_of(params, rs[:, None], taus[None, :])
        minus = covariance_of(params, rs[:, None], -taus[None, :])
        assert np.array_equal(plus, minus), name


def test_kernel_rejects_negative_distance():
    ou = OuParams(1.0, 0.8, 0.5, 0.4, 8.0)
    # a negative or NaN distance and a NaN time lag, also inside an array
    for r, tau in ((-0.5, 1.0), (np.nan, 1.0), (0.5, np.nan), ([0.5, np.nan], [1.0, 2.0]),
                   ([0.5, 1.0], [np.nan, 2.0])):
        with pytest.raises(DomainError):
            ldho_kernel(UNDER, r, tau)
        with pytest.raises(DomainError):
            ou_kernel(ou, r, tau)
        with pytest.raises(DomainError):
            KernelModel(UNDER).covariance(r, tau)
    # the one-lag entry points follow the same rule
    for r in (-0.5, np.nan, [0.5, np.nan]):
        for params in (UNDER, ou):
            with pytest.raises(DomainError):
                marginal_spatial(params, r)
    for tau in (np.nan, [1.0, np.nan]):
        for func, params in ((marginal_temporal, UNDER), (marginal_temporal, ou),
                             (temporal_kernel, UNDER), (interaction_functions_quadratic, UNDER)):
            with pytest.raises(DomainError):
                func(params, tau)


def _parent_prepare_lags(r, tau):
    """Lag preparation as written before equal shapes skipped the broadcast."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0.0):
        raise DomainError("spatial distance r must be >= 0 and not NaN")
    tau_arr = np.asarray(tau, dtype=float)
    if np.isnan(tau_arr).any():
        raise DomainError("time lag tau must not be NaN")
    scalar = r_arr.ndim == 0 and tau_arr.ndim == 0
    r_b, tau_b = np.broadcast_arrays(np.atleast_1d(r_arr), np.atleast_1d(tau_arr))
    return r_b, np.abs(tau_b), scalar


def _same_lags(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert got[2] is want[2]


@pytest.mark.parametrize(
    "form",
    (float, np.asarray, lambda x: [x, 1.0], lambda x: np.array([[1.0, 2.0], [x, 3.0]])),
    ids=("scalar", "0-d", "list", "2-D"),
)
def test_prepare_lags_rejects_bad_lags_in_every_form(form):
    r_msg, tau_msg = "spatial distance r must be >= 0 and not NaN", "time lag tau must not be NaN"
    for r, tau, msg in ((-0.5, 1.0, r_msg), (np.nan, 1.0, r_msg), (0.5, np.nan, tau_msg)):
        with pytest.raises(DomainError, match=msg):
            _prepare_lags(form(r), form(tau))


def test_prepare_lags_broadcasts_and_keeps_the_parent_values():
    r = np.linspace(0.0, 2.0, 3)[:, None]
    tau = np.array([-1.5, 0.0, 0.5, 3.0])
    r_b, tau_b = np.broadcast_arrays(r, tau)
    got = _prepare_lags(r, tau)
    _same_lags(got, (r_b, np.abs(tau_b), False))
    _same_lags(got, _parent_prepare_lags(r, tau))
    # a signed zero distance and infinite time lags pass as before
    for r, tau in ((-0.0, np.inf), (-0.0, -np.inf), (np.asarray(-0.0), np.asarray(-np.inf)),
                   ([-0.0, 1.0], [np.inf, -np.inf]), (np.array([[-0.0]]), [-np.inf, 2.0])):
        _same_lags(_prepare_lags(r, tau), _parent_prepare_lags(r, tau))


def test_marginal_consistency_all_variants(variants_by_dim):
    rs = np.linspace(0.0, 5.0, 11)
    taus = np.linspace(0.0, 8.0, 11)
    for dim in (1, 2, 3):
        for name, params in variants_by_dim(dim):
            v0 = float(marginal_spatial(params, 0.0))
            sp = covariance_of(params, rs, np.zeros_like(rs))
            assert np.max(np.abs(sp - marginal_spatial(params, rs))) <= 1e-12 * v0, name
            tm = covariance_of(params, np.zeros_like(taus), taus)
            assert np.max(np.abs(tm - marginal_temporal(params, taus))) <= 1e-12 * v0, name


def test_marginal_spatial_zero_lag_closed_forms():
    for d in (1, 2, 3):
        quad = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.3, 0.4, Dispersion.QUADRATIC, d)
        expected = quad.c0 / (4 * math.pi * quad.epsilon) ** (d / 2)
        assert marginal_spatial(quad, 0.0) == pytest.approx(expected, rel=1e-13)

        lin = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.3, 0.4, Dispersion.LINEAR, d)
        expected = (
            lin.c0 * math.gamma((d + 1) / 2)
            / (math.pi ** ((d + 1) / 2) * lin.epsilon**d)
        )
        assert marginal_spatial(lin, 0.0) == pytest.approx(expected, rel=1e-13)

        ou = OuParams(1.4, 0.8, 0.5, 0.4, 2.0, Dispersion.QUADRATIC, d)
        expected = ou.sigma0_sq / (4 * math.pi * ou.beta) ** (d / 2)
        assert marginal_spatial(ou, 0.0) == pytest.approx(expected, rel=1e-13)


def test_variance_is_the_kernel_at_the_zero_lag(variants_by_dim):
    # one C(0, 0): every sill, Gram diagonal and prior reads variance(), so it
    # must be the kernel's own zero-lag value to the last bit
    rng = np.random.default_rng(8)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    models = [preset_model(name) for name in available_presets()]
    for dim in (1, 2, 3):
        models += [KernelModel(params) for _, params in variants_by_dim(dim)]
        for dispersion in Dispersion:
            for i in range(60):
                tau_c = log_uniform(0.1, 10.0)
                # omega0 * tau_c spans both regimes, the critical band and the
                # overdamped series branch next to it
                product = (
                    log_uniform(0.05, 5.0),
                    0.5,
                    0.5 * (1.0 - log_uniform(1e-8, 1e-6)),
                )[i % 3]
                models.append(KernelModel(LdhoParams(
                    log_uniform(0.1, 10.0), tau_c, product / tau_c,
                    log_uniform(0.1, 10.0), log_uniform(1e-3, 3.0), dispersion, dim,
                )))
                models.append(KernelModel(OuParams(
                    log_uniform(0.1, 10.0), tau_c, log_uniform(0.1, 10.0),
                    log_uniform(1e-3, 3.0), log_uniform(0.1, 10.0), dispersion, dim,
                )))
    models += [KernelModel.surrogate_of(m) for m in models]
    zeros = np.zeros(8)
    for m in models:
        assert m.variance() == float(m.covariance(0.0, 0.0)), m.model_key()
        # NumPy's array loops may round apart from its scalar ones: the zero
        # lag must not depend on the input's shape
        assert np.all(m.covariance(zeros, zeros) == m.variance()), m.model_key()


def test_ou_linear_spatial_marginal_profile():
    for d in (1, 2, 3):
        ou = OuParams(1.4, 0.8, 0.5, 0.4, 2.0, Dispersion.LINEAR, d)
        for r in (0.0, 0.7, 2.5):
            expected = (
                ou.sigma0_sq * math.gamma((d + 1) / 2) * ou.beta
                / (math.pi ** ((d + 1) / 2) * (r * r + ou.beta**2) ** ((d + 1) / 2))
            )
            assert ou_kernel(ou, r, 0.0) == pytest.approx(expected, rel=1e-13)


def test_ou_quadratic_without_interaction_is_separable_product():
    ou = OuParams(1.4, 0.8, 0.5, 0.0, 2.0, Dispersion.QUADRATIC, 2)
    rs = np.linspace(0.0, 4.0, 9)
    taus = np.linspace(0.0, 5.0, 9)
    vals = ou_kernel(ou, rs[:, None], taus[None, :])
    spatial = marginal_spatial(ou, rs)[:, None]
    temporal = np.exp(-ou.a * np.abs(taus) / ou.tau_c)[None, :]
    assert np.max(np.abs(vals - spatial * temporal)) <= 1e-13 * float(vals[0, 0])


def test_quadratic_zero_time_slice_is_square_exponential():
    rs = np.linspace(0.0, 6.0, 13)
    d = UNDER.dim
    expected = (
        UNDER.c0
        * np.exp(-(rs**2) / (4 * UNDER.epsilon))
        / (4 * math.pi * UNDER.epsilon) ** (d / 2)
    )
    got = ldho_kernel(UNDER, rs, 0.0)
    assert np.max(np.abs(got - expected)) <= 1e-13 * expected[0]


def test_regime_continuity_at_boundary():
    critical = LdhoParams(1.0, 2.0, 0.25, 1.5, 0.7)
    taus = np.linspace(0.0, 10.0, 21)
    rs = np.linspace(0.0, 5.0, 11)
    v0 = float(marginal_spatial(critical, 0.0))
    for sign in (+1.0, -1.0):
        nearby = LdhoParams(1.0, 2.0, 0.25 * (1 + sign * 2e-6), 1.5, 0.7)
        expected_regime = Regime.UNDERDAMPED if sign > 0 else Regime.OVERDAMPED
        assert classify_regime(nearby) is expected_regime
        diff = ldho_kernel(nearby, rs[:, None], taus[None, :]) - ldho_kernel(
            critical, rs[:, None], taus[None, :]
        )
        assert np.max(np.abs(diff)) <= 1e-4 * v0


def test_kernel_steps_linearly_across_the_critical_band():
    """Just outside the ``DELTA_CRIT`` band, which fits search across, the
    underdamped and overdamped forms lie within 1e-8 of C(0, 0) of the
    critical form, and the step grows linearly in omega0 tau_c - 1/2."""
    rs, taus = np.linspace(0.0, 5.0, 11)[:, None], np.linspace(0.0, 24.0, 25)[None, :]
    edge = 1.01 * DELTA_CRIT
    for dispersion in Dispersion:
        for dim in (1, 2, 3):
            critical = LdhoParams(1.0, 2.0, 0.25, 1.5, 0.7, dispersion, dim)
            c = ldho_kernel(critical, rs, taus)
            for sign, regime in ((1.0, Regime.UNDERDAMPED), (-1.0, Regime.OVERDAMPED)):
                def step(delta):
                    p = replace(critical, omega0=(0.5 + sign * delta) / critical.tau_c)
                    assert classify_regime(p) is regime
                    return np.max(np.abs(ldho_kernel(p, rs, taus) - c))

                assert step(edge) <= 1e-8 * c[0, 0], (dispersion, dim, regime)
                assert step(1e3 * edge) == pytest.approx(1e3 * step(edge), rel=0.02)


def test_overdamped_collapses_to_critical_as_damped_frequency_vanishes():
    critical = LdhoParams(1.2, 2.0, 0.25, 1.5, 0.7)
    near = LdhoParams.from_damped_frequency(
        1.2, 2.0, 1e-8, Regime.OVERDAMPED, 1.5, 0.7
    )
    rs = np.linspace(0.0, 5.0, 10)
    taus = np.linspace(0.0, 10.0, 10)
    a = ldho_kernel(near, rs[:, None], taus[None, :])
    b = ldho_kernel(critical, rs[:, None], taus[None, :])
    assert np.max(np.abs(a - b)) <= 1e-5 * float(marginal_spatial(critical, 0.0))

    # across the switch to the near-critical form: the kernel is even in
    # u = 2 tau_c omega_d, so C(u) = C(0) + c u^2 + O(u^4); c measured below
    # the switch must predict C above it (the u^2 change alone is 2e-10 C(0,0))
    below, above = 0.99 * _OVERDAMPED_SERIES_CUT, 1.01 * _OVERDAMPED_SERIES_CUT
    for dispersion in Dispersion:
        for dim in (1, 2, 3):
            def kernel_at(u):
                p = replace(critical, dispersion=dispersion, dim=dim)
                if u > 0.0:
                    p = LdhoParams.from_damped_frequency(
                        p.c0, p.tau_c, u / (2.0 * p.tau_c), Regime.OVERDAMPED,
                        p.epsilon, p.interaction, dispersion, dim,
                    )
                return ldho_kernel(p, rs[:, None], taus[None, :])

            c0, c_below, c_above = kernel_at(0.0), kernel_at(below), kernel_at(above)
            predicted = c0 + (c_below - c0) * (above / below) ** 2
            scale = KernelModel(replace(critical, dispersion=dispersion, dim=dim)).variance()
            assert np.max(np.abs(c_above - predicted)) <= 1e-10 * scale, (dispersion, dim)


_REGIME_STRATEGY = st.sampled_from(["under", "critical", "over"])


@settings(max_examples=150, deadline=None)
@given(
    regime=_REGIME_STRATEGY,
    dispersion=st.sampled_from([Dispersion.QUADRATIC, Dispersion.LINEAR]),
    c0=st.floats(0.1, 10.0),
    tau_c=st.floats(0.1, 10.0),
    product=st.floats(0.02, 30.0),
    epsilon=st.floats(0.1, 5.0),
    interaction=st.floats(0.0, 3.0),
    dim=st.integers(1, 3),
    r=st.floats(0.0, 20.0),
    tau=st.floats(-20.0, 20.0),
)
def test_boundedness_property(
    regime, dispersion, c0, tau_c, product, epsilon, interaction, dim, r, tau
):
    # map the regime choice onto an omega0 that realizes it
    if regime == "under":
        omega0 = (0.5 + 0.01 + product) / tau_c
    elif regime == "critical":
        omega0 = 0.5 / tau_c
    else:
        omega0 = (0.5 / (1.0 + product)) / tau_c
    p = LdhoParams(c0, tau_c, omega0, epsilon, interaction, dispersion, dim)
    v0 = float(marginal_spatial(p, 0.0))
    assert v0 > 0.0
    val = float(ldho_kernel(p, r, tau))
    assert abs(val) <= v0 * (1.0 + 1e-9)


@settings(max_examples=80, deadline=None)
@given(
    dispersion=st.sampled_from([Dispersion.QUADRATIC, Dispersion.LINEAR]),
    sigma0=st.floats(0.1, 10.0),
    tau_c=st.floats(0.1, 5.0),
    a=st.floats(0.1, 4.0),
    scale=st.floats(0.0, 3.0),
    beta=st.floats(0.2, 6.0),
    dim=st.integers(1, 3),
    r=st.floats(0.0, 20.0),
    tau=st.floats(-20.0, 20.0),
)
def test_ou_boundedness_property(dispersion, sigma0, tau_c, a, scale, beta, dim, r, tau):
    p = OuParams(sigma0, tau_c, a, scale, beta, dispersion, dim)
    v0 = float(marginal_spatial(p, 0.0))
    assert v0 > 0.0
    assert abs(float(ou_kernel(p, r, tau))) <= v0 * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# VLRT limit
# ---------------------------------------------------------------------------


def test_vlrt_zero_time_is_spatial_marginal():
    rs = np.linspace(0.0, 6.0, 13)
    got = vlrt_kernel(UNDER, rs, 0.0)
    expected = marginal_spatial(UNDER, rs)
    assert np.max(np.abs(got - expected)) <= 1e-12 * float(expected[0])


def test_vlrt_without_interaction_is_cosine_product():
    p = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.0)
    rs = np.linspace(0.0, 4.0, 9)
    taus = np.linspace(0.0, 3.0, 13)
    got = vlrt_kernel(p, rs[:, None], taus[None, :])
    expected = marginal_spatial(p, rs)[:, None] * np.cos(p.omega0 * taus)[None, :]
    assert np.max(np.abs(got - expected)) <= 1e-12 * float(marginal_spatial(p, 0.0))


def test_vlrt_is_the_large_relaxation_limit():
    rs = np.linspace(0.0, 4.0, 10)
    taus = np.linspace(0.0, 4.0, 10)
    sups = []
    for k in range(2, 7):
        p = LdhoParams(2.0, 10.0**k, 1.5 * math.pi, 1.0, 0.4)
        diff = ldho_kernel(p, rs[:, None], taus[None, :]) - vlrt_kernel(
            p, rs[:, None], taus[None, :]
        )
        sups.append(float(np.max(np.abs(diff))))
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1e-5 * float(marginal_spatial(p, 0.0))


def test_vlrt_rejects_linear_dispersion():
    p = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4, Dispersion.LINEAR)
    with pytest.raises(RegimeError):
        vlrt_kernel(p, 1.0, 1.0)


# ---------------------------------------------------------------------------
# interaction ratio and the separable surrogate
# ---------------------------------------------------------------------------


def test_interaction_ratio_is_one_on_the_axes():
    m = KernelModel(UNDER)
    for r in (0.0, 0.5, 2.0):
        assert interaction_ratio(m, r, 0.0) == pytest.approx(1.0, abs=1e-12)
    for tau in (0.0, 0.05, 0.15):
        assert interaction_ratio(m, 0.0, tau) == pytest.approx(1.0, abs=1e-12)


def test_interaction_ratio_is_one_for_separable_models(variants_2d):
    rs = np.linspace(0.0, 4.0, 20)
    taus = np.linspace(0.0, 0.2, 20)
    for name, params in variants_2d:
        if isinstance(params, OuParams):
            sep = OuParams(
                params.sigma0_sq, params.tau_c, params.a, 0.0, params.beta,
                params.dispersion, params.dim,
            )
        else:
            sep = LdhoParams(
                params.c0, params.tau_c, params.omega0, params.epsilon, 0.0,
                params.dispersion, params.dim,
            )
        q = interaction_ratio(KernelModel(sep), rs[:, None], taus[None, :])
        assert np.max(np.abs(q - 1.0)) <= 1e-10, name


def test_interaction_ratio_flags_degenerate_marginals():
    m = KernelModel(UNDER)
    # the temporal marginal has a zero crossing near tau = 0.2492
    with pytest.warns(DegenerateMarginal):
        q = interaction_ratio(m, 1.0, 0.2491973978616282)
    assert not np.isfinite(q)


def test_surrogate_matches_marginals_and_ratio():
    m = KernelModel(UNDER)
    rs = np.linspace(0.0, 4.0, 8)
    taus = np.linspace(0.0, 0.2, 8)
    v0 = m.variance()

    assert np.max(np.abs(separable_surrogate(m, 0.0, taus) - marginal_temporal(UNDER, taus))) <= 1e-12 * v0
    assert np.max(np.abs(separable_surrogate(m, rs, 0.0) - marginal_spatial(UNDER, rs))) <= 1e-12 * v0

    full = ldho_kernel(UNDER, rs[:, None], taus[None, :])
    sur = separable_surrogate(m, rs[:, None], taus[None, :])
    q = interaction_ratio(m, rs[:, None], taus[None, :])
    assert np.max(np.abs(full / sur - q)) <= 1e-12 * np.max(np.abs(q))


def test_surrogate_model_wrapping():
    m = KernelModel(UNDER, nugget=0.3)
    s = KernelModel.surrogate_of(m)
    assert s.surrogate and not m.surrogate
    rs = np.linspace(0.0, 3.0, 5)
    taus = np.linspace(0.0, 0.2, 5)
    a = s.covariance(rs[:, None], taus[None, :])
    b = separable_surrogate(m, rs[:, None], taus[None, :])
    assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        KernelModel.surrogate_of(s)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_euclidean_length_has_scipys_bits(dim, scale):
    # SciPy serves as the reference only; the package computes no distance with it
    from scipy.spatial.distance import cdist, pdist

    rng = np.random.default_rng(dim)
    x = scale * rng.normal(size=(60, dim))
    y = scale * rng.normal(size=(25, dim))
    i, j = np.triu_indices(60, 1)
    assert np.array_equal(euclidean_length(x[i], x[j]), pdist(x))
    assert np.array_equal(euclidean_length(x[:, None], x[None])[i, j], pdist(x))
    assert np.array_equal(euclidean_length(y[:, None], x[None]), cdist(y, x))
    # one axis: the absolute difference, as the time lags are
    t = x[:, :1]
    assert np.array_equal(euclidean_length(t[i], t[j]), pdist(t, "cityblock"))
    assert np.array_equal(np.abs(t[i, 0] - t[j, 0]), pdist(t, "cityblock"))


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(DomainError):
        LdhoParams(-1.0, 3.0, 1.0, 1.0, 0.4)
    with pytest.raises(DomainError):
        LdhoParams(1.0, 0.0, 1.0, 1.0, 0.4)
    with pytest.raises(DomainError):
        LdhoParams(1.0, 3.0, 1.0, -1.0, 0.4)
    with pytest.raises(DomainError):
        LdhoParams(1.0, 3.0, 1.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        LdhoParams(1.0, 3.0, 1.0, 1.0, 0.4, Dispersion.QUADRATIC, 0)
    with pytest.raises(DomainError):
        OuParams(1.0, 0.8, 0.0, 0.4, 8.0)
    with pytest.raises(DomainError):
        KernelModel(UNDER, nugget=-0.1)


def test_from_damped_frequency_regime_consistency():
    p = LdhoParams.from_damped_frequency(1.0, 3.0, 1.5 * math.pi, Regime.UNDERDAMPED, 1.0, 0.4)
    assert damped_frequency(p) == pytest.approx(1.5 * math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        LdhoParams.from_damped_frequency(1.0, 3.0, 0.0, Regime.UNDERDAMPED, 1.0, 0.4)
    with pytest.raises(DomainError):
        LdhoParams.from_damped_frequency(1.0, 3.0, 0.5, Regime.CRITICAL, 1.0, 0.4)
    with pytest.raises(DomainError):
        # overdamped needs omega_d < 1/(2 tau_c)
        LdhoParams.from_damped_frequency(1.0, 1.0, 0.6, Regime.OVERDAMPED, 1.0, 0.4)


def test_model_json_round_trip(variants_2d):
    for name, params in variants_2d:
        m = KernelModel(params, nugget=0.25)
        blob = m.to_json()
        again = KernelModel.from_json(blob)
        assert again == m, name
        doc = json.loads(blob)
        assert set(doc) >= {"family", "dispersion", "dim", "params", "nugget"}
        if doc["family"] == "ldho":
            assert set(doc["params"]) == {"c0", "tau_c", "omega0", "epsilon", "b_or_xi"}
        else:
            assert set(doc["params"]) == {"sigma0_sq", "tau_c", "a", "scale", "beta"}


def test_surrogate_json_round_trip():
    s = KernelModel.surrogate_of(KernelModel(UNDER, nugget=0.1))
    again = KernelModel.from_dict(s.to_dict())
    assert again == s
    assert again.surrogate
