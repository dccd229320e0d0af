"""Spectral densities, per-wavenumber modes, and an independent transform oracle.

The closed-form kernels in ``kernel_core`` are inverse Fourier transforms of
explicit spectral densities.  This module provides those densities, the
temporal Fourier modes ``C(k, tau)`` they factor through, and a numerical
radial (Hankel-type) inverse transform that evaluates the same kernels by
quadrature alone.  The quadrature path shares no algebra with the closed
forms beyond the mode definition, so agreement between the two is a genuine
cross-check of every sign, branch, and prefactor.

For an isotropic density the d-dimensional inverse transform reduces to

    C(r, tau) = (2 pi)^{-d/2} r^{-nu} Int_0^inf k^{d/2} J_nu(k r) M(k, tau) dk

with ``nu = d/2 - 1`` and ``M`` the temporal Fourier mode; at ``r = 0`` the
Bessel factor is replaced by its series limit, giving a plain radial moment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure
from .kernel_core import (
    Dispersion,
    KernelModel,
    LdhoParams,
    OuParams,
    _as_distance,
    _as_lag,
    _temporal_kernel_core,
    classify_regime,
    damped_frequency,
    temporal_kernel,
)

__all__ = [
    "AdmissibilityReport",
    "bessel_j",
    "temporal_spectral_density",
    "st_spectral_density",
    "temporal_fourier_mode",
    "hankel_ift_oracle",
    "admissibility_scan",
    "ode_residual",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------


def temporal_spectral_density(p: LdhoParams, omega) -> np.ndarray | float:
    """Power spectral density of the temporal oscillator process.

    ``S(omega) = sigma^2 / (tau_c^2 (omega^2 - omega0^2)^2 + omega^2)`` with
    the forcing variance fixed by the zero-lag variance:
    ``sigma^2 = 2 c0 omega0^2 tau_c``.  Normalized so that
    ``(1/pi) Int_0^inf S(omega) d omega = c0``.
    """
    if not isinstance(p, LdhoParams):
        raise TypeError("temporal_spectral_density expects LdhoParams")
    w = _as_lag(omega, "angular frequency omega")
    scalar = w.ndim == 0
    sigma_sq = 2.0 * p.c0 * p.omega0 ** 2 * p.tau_c
    val = sigma_sq / (p.tau_c ** 2 * (w * w - p.omega0 ** 2) ** 2 + w * w)
    return float(val) if scalar else val


def _dispersion_factors(p: LdhoParams | OuParams, k: np.ndarray):
    """Amplitude ``A(k)`` and stiffness ``B(k)`` of the dispersion family."""
    if isinstance(p, LdhoParams):
        if p.dispersion is Dispersion.QUADRATIC:
            b_k = 1.0 + p.interaction * k * k
            a_k = np.exp(-p.epsilon * k * k) * b_k
        else:
            b_k = 1.0 + p.interaction * k
            a_k = np.exp(-p.epsilon * k) * b_k
    else:
        if p.dispersion is Dispersion.QUADRATIC:
            b_k = p.a + p.scale * k * k
            a_k = np.exp(-p.beta * k * k)
        else:
            b_k = p.a + p.scale * k
            a_k = np.exp(-p.beta * k)
    return a_k, b_k


def st_spectral_density(p: LdhoParams | OuParams, k, omega) -> np.ndarray | float:
    """Space-time spectral density ``C~(k, omega)`` (radial in ``k``).

    For the oscillator kernels the temporal density is evaluated with the
    dispersed constants ``sigma^2 -> sigma0^2 A(k)``,
    ``tau_c -> tau_c / B(k)``, ``omega0 -> omega0 B(k)``; at ``k = 0`` this
    reduces to ``temporal_spectral_density``.  The first-order kernels have
    the Lorentzian ``sigma0^2 A(k) 2 lam / (lam^2 + omega^2)`` with
    ``lam = B(k) / tau_c``.  Nonnegative everywhere by construction.
    """
    k_arr = _as_distance(k, "radial wavenumber k")
    w_arr = _as_lag(omega, "angular frequency omega")
    scalar = k_arr.ndim == 0 and w_arr.ndim == 0
    # A(k) and B(k) on k's own shape: broadcast against omega first, they
    # would each cost a full-grid temporary
    a_k, b_k = _dispersion_factors(p, k_arr)
    w_sq = w_arr * w_arr
    if isinstance(p, LdhoParams):
        sigma0_sq = 2.0 * p.c0 * p.omega0 ** 2 * p.tau_c
        num = sigma0_sq * a_k
        den = (p.tau_c ** 2 / (b_k * b_k)) * (w_sq - p.omega0 ** 2 * b_k * b_k) ** 2 + w_sq
        val = num / den
    elif isinstance(p, OuParams):
        lam = b_k / p.tau_c
        val = p.sigma0_sq * a_k * 2.0 * lam / (lam * lam + w_sq)
    else:
        raise TypeError("st_spectral_density expects LdhoParams or OuParams")
    return float(val) if scalar else val


def temporal_fourier_mode(p: LdhoParams | OuParams, k, tau) -> np.ndarray | float:
    """Per-wavenumber temporal covariance ``M(k, tau)``.

    This is the temporal kernel with the dispersed constants substituted:
    amplitude ``c0 A(k)/B(k)``, relaxation ``tau_c/B(k)``, frequency
    ``omega_d B(k)``.  The damping regime is wavenumber-invariant because
    ``omega0 tau_c`` is unchanged by the substitution, and so is the bracket
    variable ``u = 2 tau_c omega_d``.
    The full kernel is the radial inverse transform of ``M`` over ``k``.
    """
    k_arr = _as_distance(k, "radial wavenumber k")
    ata = np.abs(_as_lag(tau, "time lag tau"))
    scalar = k_arr.ndim == 0 and ata.ndim == 0
    k_b, ata_b = np.broadcast_arrays(k_arr, ata)
    a_k, b_k = _dispersion_factors(p, k_b)
    if isinstance(p, OuParams):
        val = p.sigma0_sq * a_k * np.exp(-ata_b * b_k / p.tau_c)
    elif isinstance(p, LdhoParams):
        val = _temporal_kernel_core(
            p.c0 * a_k / b_k,
            p.tau_c / b_k,
            classify_regime(p),
            2.0 * p.tau_c * damped_frequency(p),
            ata_b,
        )
    else:
        raise TypeError("temporal_fourier_mode expects LdhoParams or OuParams")
    return float(val) if scalar else val


# ---------------------------------------------------------------------------
# Bessel functions of the orders the radial transform needs
# ---------------------------------------------------------------------------


def bessel_j(nu: float, x) -> np.ndarray | float:
    """Bessel ``J_nu`` for the half/small-integer orders of radial transforms.

    Half-integer orders use their exact trigonometric closed forms; integer
    orders 0 and 1 delegate to the library implementations, which are
    well beyond the 1e-12 accuracy target.  Supported: -1/2, 0, 1/2, 1, 3/2
    (spatial dimensions 1 through 5).
    """
    from scipy.special import j0, j1

    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if nu == -0.5:
            val = np.sqrt(2.0 / (math.pi * x_arr)) * np.cos(x_arr)
        elif nu == 0.0:
            val = j0(x_arr)
        elif nu == 0.5:
            val = np.where(
                x_arr == 0.0, 0.0, np.sqrt(2.0 / (math.pi * x_arr)) * np.sin(x_arr)
            )
        elif nu == 1.0:
            val = j1(x_arr)
        elif nu == 1.5:
            val = np.where(
                x_arr == 0.0,
                0.0,
                np.sqrt(2.0 / (math.pi * x_arr)) * (np.sin(x_arr) / x_arr - np.cos(x_arr)),
            )
        else:
            raise DomainError(f"unsupported Bessel order nu={nu!r}")
    return float(val) if scalar else val


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


# Adaptive quadrature: the total evaluation budget of the panel scheme, and
# the absolute and relative error targets of the transform value.
_NODE_COUNT = 65536
_ABS_TOL = 1e-15
_REL_TOL = 1e-9


@functools.cache
def _panel_rules():
    """The 32- and 16-node Gauss-Legendre rules of the per-panel error estimate.

    Built on first use, not at import: the eigenvalue solve behind each rule
    would add time and memory to every process that imports the package.
    """
    return np.polynomial.legendre.leggauss(32), np.polynomial.legendre.leggauss(16)


def _auto_kmax(mode, tau) -> float:
    """Expand the cutoff until the mode envelope drops below 1e-16 of k=0.

    Uses the zero-lag mode as the envelope; for every supported family it is
    positive and monotone decreasing in ``k`` (amplitude ``A(k)/B(k)`` times
    a constant), so doubling out is safe.
    """
    ref = abs(float(mode(np.array([0.0]), 0.0)[0]))
    if not ref > 0.0:
        raise QuadratureFailure("mode amplitude at k = 0 is zero; nothing to transform")
    k_hi = 1.0
    for _ in range(80):
        val = abs(float(mode(np.array([k_hi]), 0.0)[0]))
        if val <= 1e-16 * ref:
            return k_hi
        k_hi *= 2.0
    raise QuadratureFailure("mode amplitude does not decay; cannot find a cutoff")


def _integrand_factory(mode, d: int, r: float, tau: float):
    nu = 0.5 * d - 1.0
    if r == 0.0:
        # J_nu(kr)/r^nu -> (k/2)^nu / Gamma(nu+1), leaving a radial moment
        pref = (_TWO_PI) ** (-0.5 * d) * 2.0 ** (-nu) / math.gamma(0.5 * d)

        def integrand(k):
            return k ** (d - 1) * mode(k, tau)

    else:
        pref = (_TWO_PI) ** (-0.5 * d) * r ** (-nu)

        def integrand(k):
            return k ** (0.5 * d) * bessel_j(nu, k * r) * mode(k, tau)

    return integrand, pref


def _initial_breakpoints(integrand, k_max: float) -> np.ndarray:
    """Panel boundaries from an empirical probe of the integrand's sign changes.

    A uniform probe grid locates oscillations of both the Bessel factor and
    the mode itself; each sign-change interval becomes a panel boundary, so
    panels contain at most about one half-oscillation and the Gauss rule on
    each is effectively exact.  The adaptive loop afterwards repairs anything
    the probe missed.
    """
    n_probe = 4096
    grid = np.linspace(0.0, k_max, n_probe + 1)
    vals = integrand(np.maximum(grid, 1e-300 * k_max))
    signs = np.sign(vals)
    flips = np.nonzero(signs[1:] * signs[:-1] < 0.0)[0]
    cuts = 0.5 * (grid[flips] + grid[flips + 1])
    base = np.linspace(0.0, k_max, 17)
    points = np.unique(np.concatenate([base, cuts]))
    # respect the evaluation budget: a panel costs 48 evaluations up front
    max_panels = max(16, _NODE_COUNT // 96)
    if points.size - 1 > max_panels:
        idx = np.linspace(0, points.size - 1, max_panels + 1).round().astype(int)
        points = points[np.unique(idx)]
    return points


def _panel_sums(integrand, lo: np.ndarray, hi: np.ndarray):
    """32- and 16-node Gauss-Legendre sums on each [lo, hi] panel."""
    (x32, w32), (x16, w16) = _panel_rules()
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    n32 = (mid + half * x32[None, :]).ravel()
    n16 = (mid + half * x16[None, :]).ravel()
    f32 = integrand(n32).reshape(lo.size, 32)
    f16 = integrand(n16).reshape(lo.size, 16)
    s32 = (f32 * w32[None, :]).sum(axis=1) * half[:, 0]
    s16 = (f16 * w16[None, :]).sum(axis=1) * half[:, 0]
    return s32, np.abs(s32 - s16)


def hankel_ift_oracle(
    mode,
    d: int,
    r: float,
    tau: float,
) -> tuple[float, float]:
    """Radial inverse Fourier transform of a temporal mode, by quadrature.

    Parameters
    ----------
    mode : callable
        ``mode(k, tau) -> array`` for a radial wavenumber array ``k``.
        Typically ``functools.partial(temporal_fourier_mode, params)``.
    d : int
        Spatial dimension (1 through 5).
    r, tau : float
        Evaluation lag.

    Returns
    -------
    (value, error_estimate) : tuple of float
        The transform value and a conservative quadrature error estimate
        (sum of per-panel 16-vs-32-node differences).

    Raises
    ------
    QuadratureFailure
        If the error estimate cannot be brought below
        ``max(1e-15, 1e-9 |value|)`` within 65 536 integrand evaluations.
        The cutoff wavenumber is found automatically (see ``_auto_kmax``).
    """
    if d < 1 or d > 5 or int(d) != d:
        raise DomainError("oracle supports spatial dimensions 1 through 5")
    _as_distance(r, "spatial distance r")

    k_max = _auto_kmax(mode, tau)
    integrand, pref = _integrand_factory(mode, int(d), float(r), float(tau))

    points = _initial_breakpoints(integrand, k_max)
    lo, hi = points[:-1], points[1:]
    sums, errs = _panel_sums(integrand, lo, hi)
    evals = 48 * lo.size

    while True:
        total = float(sums.sum())
        err_tot = float(errs.sum())
        tol = max(_ABS_TOL / max(abs(pref), 1e-300), _REL_TOL * abs(total))
        if err_tot <= tol:
            break
        if evals >= _NODE_COUNT:
            raise QuadratureFailure(
                f"adaptive quadrature exhausted its {_NODE_COUNT}-evaluation "
                f"budget at error {pref * err_tot:.3e} (value {pref * total:.6e})"
            )
        # bisect the panels carrying the bulk of the error estimate
        order = np.argsort(errs)[::-1]
        worst = order[: max(1, order.size // 8)]
        keep = np.setdiff1d(np.arange(lo.size), worst, assume_unique=False)
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[keep], lo[worst], mid])
        new_hi = np.concatenate([hi[keep], mid, hi[worst]])
        new_sums, new_errs = _panel_sums(integrand, new_lo[keep.size:], new_hi[keep.size:])
        sums = np.concatenate([sums[keep], new_sums])
        errs = np.concatenate([errs[keep], new_errs])
        lo, hi = new_lo, new_hi
        evals += 48 * 2 * worst.size

    return pref * total, pref * err_tot


# ---------------------------------------------------------------------------
# admissibility scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of a spectral admissibility scan.

    ``min_spectral_value`` is the smallest density value seen on the scan
    grid (a valid density never goes negative); ``integrability_proxy`` is
    the fitted high-``k`` decay exponent of the omega-integrated density,
    which must exceed the spatial dimension for the radial integral
    ``Int k^{d-1} F(k) dk`` to converge.
    """

    min_spectral_value: float
    integrability_proxy: float
    passed: bool


def admissibility_scan(
    m,
    k_grid,
    omega_grid,
    *,
    dim: int | None = None,
) -> AdmissibilityReport:
    """Scan a spectral density for nonnegativity and high-``k`` integrability.

    ``m`` may be a ``KernelModel``, a parameter object, or a raw callable
    ``density(k, omega)`` (the callable form needs ``dim``; it exists so that
    hand-built densities, e.g. with the amplitude envelope removed, can be
    shown to fail).
    """
    k_arr = _as_distance(k_grid, "k_grid")
    w_arr = _as_lag(omega_grid, "omega_grid")
    if k_arr.ndim != 1 or w_arr.ndim != 1 or k_arr.size < 8 or w_arr.size < 2:
        raise DomainError("k_grid and omega_grid must be 1-d with enough points")
    if np.any(np.diff(k_arr) <= 0.0):
        raise DomainError("k_grid must be strictly increasing")

    if isinstance(m, KernelModel):
        params = m.params
        density = lambda k, w: st_spectral_density(params, k, w)  # noqa: E731
        dim = params.dim
    elif isinstance(m, (LdhoParams, OuParams)):
        density = lambda k, w: st_spectral_density(m, k, w)  # noqa: E731
        dim = m.dim
    elif callable(m):
        if dim is None:
            raise DomainError("a raw density callable needs an explicit dim")
        density = m
    else:
        raise TypeError("admissibility_scan expects a model, params, or callable")

    vals = np.asarray(density(k_arr[:, None], w_arr[None, :]), dtype=float)
    min_val = float(vals.min())

    # omega-integrated spectrum, used only for its shape in k
    f_k = np.trapezoid(vals, w_arr, axis=1)
    k_top = k_arr[-1]
    tail = (k_arr >= k_top / math.sqrt(10.0)) & (k_arr > 0.0) & (f_k > 0.0)
    if tail.sum() >= 3:
        slope = np.polyfit(np.log(k_arr[tail]), np.log(f_k[tail]), 1)[0]
        exponent = -float(slope)
    elif np.all(f_k[k_arr >= k_top / math.sqrt(10.0)] == 0.0):
        exponent = math.inf  # decayed below the floating-point floor
    else:
        exponent = 0.0
    passed = (min_val >= 0.0) and (exponent > dim)
    return AdmissibilityReport(
        min_spectral_value=min_val, integrability_proxy=exponent, passed=passed
    )


# ---------------------------------------------------------------------------
# generative ODE residual
# ---------------------------------------------------------------------------


def ode_residual(p: LdhoParams, tau: float, h: float) -> float:
    """Residual of the fourth-order covariance equation at lag ``tau``.

    Away from ``tau = 0`` the temporal kernel satisfies

        C'''' + (2 omega0^2 - 1/tau_c^2) C'' + omega0^4 C = 0,

    so the residual of a finite-difference discretization measures both the
    kernel and the stencil.  Central differences on five points are used:
    the O(h^2) fourth difference and the O(h^4) second difference, giving a
    residual that shrinks like h^2.  Requires ``|tau| > 5 h`` so the stencil
    stays clear of the ``|tau|`` kink at the origin.
    """
    if not isinstance(p, LdhoParams):
        raise TypeError("ode_residual expects LdhoParams")
    if h <= 0.0:
        raise DomainError("step h must be positive")
    if abs(tau) <= 5.0 * h:
        raise DomainError("need |tau| > 5 h to keep the stencil away from the origin")
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    c = np.asarray(temporal_kernel(p, tau + h * offsets), dtype=float)
    d4 = (c[0] - 4.0 * c[1] + 6.0 * c[2] - 4.0 * c[3] + c[4]) / h ** 4
    d2 = (-c[0] + 16.0 * c[1] - 30.0 * c[2] + 16.0 * c[3] - c[4]) / (12.0 * h ** 2)
    coeff = 2.0 * p.omega0 ** 2 - 1.0 / p.tau_c ** 2
    return float(d4 + coeff * d2 + p.omega0 ** 4 * c[2])
