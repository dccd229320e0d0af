"""Spectral densities, Fourier modes, the quadrature oracle, and ODE residuals."""

import math
from functools import partial

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from oscov import (
    Dispersion,
    DomainError,
    KernelModel,
    LdhoParams,
    OuParams,
    QuadratureFailure,
    admissibility_scan,
    bessel_j,
    hankel_ift_oracle,
    ldho_kernel,
    marginal_spatial,
    ode_residual,
    ou_kernel,
    preset_model,
    st_spectral_density,
    temporal_fourier_mode,
    temporal_kernel,
    temporal_spectral_density,
)

UNDER = LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4)
OU = OuParams(1.0, 0.8, 0.5, 0.4, 8.0)


# ---------------------------------------------------------------------------
# temporal spectral density
# ---------------------------------------------------------------------------


def test_temporal_density_zero_frequency():
    sigma_sq = 2.0 * UNDER.c0 * UNDER.omega0**2 * UNDER.tau_c
    expected = sigma_sq / (UNDER.tau_c**2 * UNDER.omega0**4)
    assert temporal_spectral_density(UNDER, 0.0) == pytest.approx(expected, rel=1e-14)


def test_temporal_density_even_and_positive():
    omegas = np.linspace(0.01, 50.0, 400)
    plus = temporal_spectral_density(UNDER, omegas)
    minus = temporal_spectral_density(UNDER, -omegas)
    assert np.array_equal(plus, minus)
    assert np.all(plus > 0.0)


def test_temporal_density_peaks_near_natural_frequency():
    p = LdhoParams(1.0, 50.0, 2.0, 1.0, 0.1)  # omega0 tau_c = 100 >> 1
    omegas = np.linspace(0.0, 8.0, 16001)
    peak = omegas[int(np.argmax(temporal_spectral_density(p, omegas)))]
    assert peak == pytest.approx(p.omega0, rel=0.01)


def test_temporal_density_integrates_to_variance(variants_2d):
    for name, params in variants_2d:
        if isinstance(params, OuParams):
            continue
        split = 4.0 * params.omega0 + 20.0 / params.tau_c
        head, _ = quad(
            lambda w: temporal_spectral_density(params, w),
            0.0,
            split,
            points=[params.omega0, 2 * params.omega0],
            limit=200,
        )
        tail, _ = quad(
            lambda w: temporal_spectral_density(params, w), split, np.inf, limit=200
        )
        assert (head + tail) / math.pi == pytest.approx(params.c0, rel=1e-6), name


# ---------------------------------------------------------------------------
# space-time spectral density
# ---------------------------------------------------------------------------


def test_st_density_reduces_to_temporal_at_zero_wavenumber():
    omegas = np.linspace(0.0, 30.0, 100)
    a = st_spectral_density(UNDER, 0.0, omegas)
    b = temporal_spectral_density(UNDER, omegas)
    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(b)


def test_st_density_nonnegative_over_six_decades(variants_2d):
    k = np.logspace(-3, 3, 100)
    w = np.logspace(-3, 3, 100)
    for name, params in variants_2d:
        vals = st_spectral_density(params, k[:, None], w[None, :])
        assert np.all(vals >= 0.0), name


def test_st_density_tail_envelope():
    # log-density slope against k^2 (quadratic) or k (linear) approaches -eps
    w = 1.3
    k1, k2 = 10.0, 14.0
    quad_p = LdhoParams(2.0, 3.0, 1.5 * math.pi, 0.7, 0.4, Dispersion.QUADRATIC)
    f1 = float(st_spectral_density(quad_p, k1, w))
    f2 = float(st_spectral_density(quad_p, k2, w))
    slope = (math.log(f2) - math.log(f1)) / (k2**2 - k1**2)
    assert slope == pytest.approx(-quad_p.epsilon, rel=0.1)

    lin_p = LdhoParams(2.0, 3.0, 1.5 * math.pi, 0.7, 0.4, Dispersion.LINEAR)
    k1, k2 = 40.0, 60.0
    f1 = float(st_spectral_density(lin_p, k1, w))
    f2 = float(st_spectral_density(lin_p, k2, w))
    slope = (math.log(f2) - math.log(f1)) / (k2 - k1)
    assert slope == pytest.approx(-lin_p.epsilon, rel=0.1)


# ---------------------------------------------------------------------------
# temporal Fourier modes
# ---------------------------------------------------------------------------


def test_mode_at_zero_wavenumber_is_temporal_kernel(variants_2d):
    taus = np.linspace(0.0, 8.0, 17)
    for name, params in variants_2d:
        got = temporal_fourier_mode(params, 0.0, taus)
        if isinstance(params, OuParams):
            expected = params.sigma0_sq * np.exp(-params.a * taus / params.tau_c)
        else:
            expected = temporal_kernel(params, taus)
        assert np.max(np.abs(got - expected)) <= 1e-14 * float(np.max(np.abs(expected))), name


def test_mode_equals_kernel_with_substituted_hyperparameters(variants_2d):
    # sigma^2 -> sigma0^2 A(k), tau_c -> tau_c / B(k), omega0 -> omega0 B(k)
    taus = np.linspace(0.0, 6.0, 13)
    for name, params in variants_2d:
        if isinstance(params, OuParams):
            continue
        for k in (0.3, 1.0, 2.2):
            if params.dispersion is Dispersion.QUADRATIC:
                b_k = 1.0 + params.interaction * k * k
                env = math.exp(-params.epsilon * k * k)
            else:
                b_k = 1.0 + params.interaction * k
                env = math.exp(-params.epsilon * k)
            subbed = LdhoParams(
                params.c0 * env,
                params.tau_c / b_k,
                params.omega0 * b_k,
                params.epsilon,
                params.interaction,
                params.dispersion,
                params.dim,
            )
            got = temporal_fourier_mode(params, k, taus)
            expected = temporal_kernel(subbed, taus)
            assert np.max(np.abs(got - expected)) <= 1e-12 * params.c0, (name, k)


def test_mode_zero_lag_quadratic_collapses_to_envelope():
    ks = np.linspace(0.0, 4.0, 17)
    got = temporal_fourier_mode(UNDER, ks, 0.0)
    expected = UNDER.c0 * np.exp(-UNDER.epsilon * ks**2)
    assert np.max(np.abs(got - expected)) <= 1e-13 * UNDER.c0


def test_ou_mode_closed_form():
    ks = np.linspace(0.0, 3.0, 13)
    for tau in (0.0, 0.7, 2.5):
        got = temporal_fourier_mode(OU, ks, tau)
        a_k = np.exp(-OU.beta * ks**2)
        b_k = OU.a + OU.scale * ks**2
        expected = OU.sigma0_sq * a_k * np.exp(-abs(tau) * b_k / OU.tau_c)
        assert np.max(np.abs(got - expected)) <= 1e-14 * OU.sigma0_sq


# ---------------------------------------------------------------------------
# the quadrature oracle
# ---------------------------------------------------------------------------


def test_oracle_gaussian_transform_pairs():
    for d in (1, 2, 3):
        for a in (0.7, 1.3):
            for r in (0.0, 0.5, 2.0):
                mode = lambda k, tau, a=a: np.exp(-a * a * k * k / 4.0)
                val, err = hankel_ift_oracle(mode, d, r, 0.0)
                exact = math.exp(-((r / a) ** 2)) / (a * math.sqrt(math.pi)) ** d
                assert abs(val - exact) <= max(1e-12, 5 * err), (d, a, r)


def test_oracle_exponential_transform_pairs():
    for d in (1, 2, 3):
        for a in (0.7, 1.6):
            for r in (0.0, 0.9, 3.0):
                mode = lambda k, tau, a=a: np.exp(-a * k)
                val, err = hankel_ift_oracle(mode, d, r, 0.0)
                exact = (
                    math.gamma((d + 1) / 2) * a
                    / (math.pi ** ((d + 1) / 2) * (a * a + r * r) ** ((d + 1) / 2))
                )
                assert abs(val - exact) <= max(1e-12, 5 * err), (d, a, r)


def test_oracle_matches_closed_form_at_a_spot_check():
    mode = partial(temporal_fourier_mode, UNDER)
    val, err = hankel_ift_oracle(mode, UNDER.dim, 1.0, 0.5)
    closed = float(ldho_kernel(UNDER, 1.0, 0.5))
    v0 = float(marginal_spatial(UNDER, 0.0))
    assert abs(val - closed) <= max(1e-6 * v0, 5 * err)


def test_oracle_matches_ou_closed_form():
    mode = partial(temporal_fourier_mode, OU)
    val, err = hankel_ift_oracle(mode, OU.dim, 1.3, 0.8)
    closed = float(ou_kernel(OU, 1.3, 0.8))
    v0 = float(marginal_spatial(OU, 0.0))
    assert abs(val - closed) <= max(1e-6 * v0, 5 * err)


def test_oracle_rejects_bad_inputs():
    mode = partial(temporal_fourier_mode, UNDER)
    with pytest.raises(DomainError):
        hankel_ift_oracle(mode, 0, 1.0, 0.5)
    for r, tau in ((-1.0, 0.5), (np.nan, 0.5), (1.0, np.nan)):
        with pytest.raises(DomainError):
            hankel_ift_oracle(mode, 2, r, tau)


def test_oracle_quadrature_failures():
    with pytest.raises(QuadratureFailure):
        hankel_ift_oracle(lambda k, tau: np.zeros_like(k), 2, 1.0, 0.0)
    with pytest.raises(QuadratureFailure):
        hankel_ift_oracle(lambda k, tau: np.ones_like(k), 2, 1.0, 0.0)


def test_densities_and_modes_reject_bad_lags():
    # a negative or NaN wavenumber and a NaN frequency or time lag, also
    # inside an array
    for k in (-1.0, np.nan, [0.5, np.nan]):
        for p in (UNDER, OU):
            with pytest.raises(DomainError):
                st_spectral_density(p, k, 1.0)
            with pytest.raises(DomainError):
                temporal_fourier_mode(p, k, 1.0)
    for lag in (np.nan, [1.0, np.nan]):
        with pytest.raises(DomainError):
            temporal_spectral_density(UNDER, lag)
        for p in (UNDER, OU):
            with pytest.raises(DomainError):
                st_spectral_density(p, 1.0, lag)
            with pytest.raises(DomainError):
                temporal_fourier_mode(p, 1.0, lag)


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


def test_bessel_j_against_reference():
    x = np.concatenate([np.linspace(0.0, 2.0, 41), np.linspace(2.1, 60.0, 200)])
    for nu in (-0.5, 0.0, 0.5, 1.0, 1.5):
        got = bessel_j(nu, x[x > 0] if nu < 0 else x)
        ref = special.jv(nu, x[x > 0] if nu < 0 else x)
        assert np.max(np.abs(got - ref)) <= 1e-12, nu


def test_bessel_j_unsupported_order():
    with pytest.raises(DomainError):
        bessel_j(0.3, 1.0)


# ---------------------------------------------------------------------------
# admissibility scans
# ---------------------------------------------------------------------------


def _scan_grids(m: KernelModel):
    p = m.params
    if isinstance(p, OuParams):
        decay, rate = p.beta, 20.0 / p.tau_c
    else:
        decay, rate = p.epsilon, 1.5 * p.omega0 + 20.0 / p.tau_c
    if p.dispersion is Dispersion.QUADRATIC:
        k_max = math.sqrt(45.0 / decay)
        b_top = 1.0 + (p.scale if isinstance(p, OuParams) else p.interaction) * k_max**2
    else:
        k_max = 45.0 / decay
        b_top = 1.0 + (p.scale if isinstance(p, OuParams) else p.interaction) * k_max
    k = np.linspace(0.0, k_max, 240)
    w = np.linspace(0.0, rate * b_top, 241)
    return k, w


def test_admissibility_passes_for_presets():
    for name in ("fig1", "fig2", "fig3", "ou1", "ou2"):
        m = preset_model(name)
        k, w = _scan_grids(m)
        report = admissibility_scan(m, k, w)
        assert report.passed, name
        assert report.min_spectral_value >= 0.0, name
        assert report.integrability_proxy > m.dim, name


def test_admissibility_fails_without_variance_decay():
    # strip the amplitude envelope: the omega-integrated spectrum no longer
    # decays in k, so the integrability proxy must reject it
    density = lambda k, w: (1.0 + 0.4 * k * k) / (1.0 + w * w)
    k = np.linspace(0.0, 20.0, 200)
    w = np.linspace(0.0, 30.0, 201)
    report = admissibility_scan(density, k, w, dim=2)
    assert not report.passed
    assert report.integrability_proxy <= 2.0


def test_admissibility_scan_validation():
    m = KernelModel(UNDER)
    with pytest.raises(DomainError):
        admissibility_scan(m, [0.0, 1.0], np.linspace(0, 5, 20))  # too few k points
    with pytest.raises(DomainError):
        admissibility_scan(m, np.linspace(5, 0, 20), np.linspace(0, 5, 20))
    for k, w in ((np.linspace(-1, 5, 20), np.linspace(0, 5, 20)),
                 (np.append(np.linspace(0, 5, 20), np.nan), np.linspace(0, 5, 20)),
                 (np.linspace(0, 5, 20), np.append(np.linspace(0, 5, 20), np.nan))):
        with pytest.raises(DomainError):
            admissibility_scan(m, k, w)
    with pytest.raises(DomainError):
        admissibility_scan(lambda k, w: k + w, np.linspace(0, 5, 20), np.linspace(0, 5, 20))


# ---------------------------------------------------------------------------
# generative ODE residual
# ---------------------------------------------------------------------------


def test_ode_residual_is_small_on_the_kernel():
    under = LdhoParams(1.0, 1.0, 4.5, 1.0, 0.1)
    assert abs(ode_residual(under, 1.0, 1e-3)) <= 1e-4 * under.c0 * under.omega0**4
    over = LdhoParams.from_damped_frequency(1.0, 0.1, 2.0, "overdamped", 1.0, 0.1)
    assert abs(ode_residual(over, 2.0, 1e-3)) <= 1e-4 * over.c0 * over.omega0**4


def test_ode_residual_second_order_convergence():
    cases = [
        LdhoParams(1.0, 1.0, 4.5, 1.0, 0.1),  # underdamped
        LdhoParams(1.0, 0.125, 4.0, 1.0, 0.1),  # critical
        LdhoParams.from_damped_frequency(1.0, 0.1, 2.0, "overdamped", 1.0, 0.1),
    ]
    for p in cases:
        h = min(0.1 / p.omega0, 0.2 * p.tau_c)
        tau = 8.0 * h
        r1 = abs(ode_residual(p, tau, h))
        r2 = abs(ode_residual(p, tau, h / 2))
        assert r1 / r2 == pytest.approx(4.0, rel=0.15), p


def test_ode_residual_domain_errors():
    with pytest.raises(DomainError):
        ode_residual(UNDER, 4e-3, 1e-3)
    with pytest.raises(DomainError):
        ode_residual(UNDER, 1.0, 0.0)
