"""Closed-form space-time covariance kernels driven by a damped oscillator.

The temporal axis follows a linearly damped, white-noise-forced harmonic
oscillator, so the purely temporal covariance comes in three damping regimes
(underdamped, critically damped, overdamped).  Space enters by letting the
oscillator constants disperse with wavenumber ``k = |k|``: the stiffness is
scaled by a factor ``B(k)`` and the forcing variance by ``A(k)``, with
``A(0) = B(0) = 1``.  Two dispersion families are implemented:

* ``quadratic``: ``B(k) = 1 + b k^2``,  ``A(k) = exp(-eps k^2) B(k)``
* ``linear``:    ``B(k) = 1 + xi k``,   ``A(k) = exp(-eps k) B(k)``

Each space-time kernel below is the ``d``-dimensional radial inverse Fourier
transform of the per-wavenumber temporal covariance, evaluated in closed form,
so the kernels are positive definite by construction.  They are generally
*non-separable*: the interaction parameter (``b`` or ``xi``) couples spatial
and temporal decay, and setting it to zero makes the kernel an exact product
of its marginals.

Every oscillator kernel is one formula (see ``_oscillator``): with the
oscillator's roots ``beta = 1 -+ u``, ``u = 2 tau_c omega_d``, and the
dispersion's branch factor ``g(beta)`` (the radial transform of a mode damped
at root ``beta``), ``C = K [(1+u) g(1-u) - (1-u) g(1+u)] / 2u``.  Underdamped
roots are complex, ``1 -+ iv``; evaluating at ``beta = 1 - iv`` puts the
transforms in the lower half plane, which fixes the phase branch below.

A first-order (Ornstein-Uhlenbeck) analog with the same two dispersion
families is included; it has no oscillation and serves as the
monotone-covariance counterpart.

Conventions used throughout:

* ``r >= 0`` is spatial distance, ``tau`` is the (signed) time lag; kernels
  are even in ``tau`` and all formulas use ``|tau|``.
* ``omega0`` is the undamped angular frequency, ``tau_c`` the relaxation time.
  The regime is decided by the product ``omega0 * tau_c`` against ``1/2``.
* Phase angles are taken on the negative branch, ``phi in (-pi, 0]``,
  matching ``atan2`` with a negated numerator.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateMarginal, DomainError, RegimeError

__all__ = [
    "DELTA_CRIT",
    "Dispersion",
    "Regime",
    "LdhoParams",
    "OuParams",
    "KernelModel",
    "InteractionFunctions",
    "classify_regime",
    "damped_frequency",
    "temporal_kernel",
    "fast_slow_times",
    "interaction_functions_quadratic",
    "ldho_kernel",
    "ou_kernel",
    "marginal_spatial",
    "marginal_temporal",
    "vlrt_kernel",
    "interaction_ratio",
    "separable_surrogate",
]

# Half-width of the band around omega0 * tau_c = 1/2 inside which parameters
# are treated as critically damped.  Within the band the underdamped and
# overdamped forms agree with the critical one to O(band^2) ~ 1e-18 relative,
# far below double precision, so evaluating the critical form there is exact
# for all practical purposes and removes the 0/0 hazards of the other two.
DELTA_CRIT = 1e-9

# Below this value of u = 2 * tau_c * omega_d the overdamped bracket loses
# more than half its digits to cancellation of the slow/fast branches, so the
# kernels switch to its reflection 2 B(0) - B(iu), which is exact up to
# O(u^4) ~ 1e-16 relative at the switch point because B is even in u.
_OVERDAMPED_SERIES_CUT = 1e-4

# Relative threshold below which a marginal product is considered degenerate
# when forming the interaction ratio.
_DEGENERATE_TOL = 1e-12


class Dispersion(enum.Enum):
    """Wavenumber dispersion family coupling space to the oscillator."""

    QUADRATIC = "quadratic"
    LINEAR = "linear"


class Regime(enum.Enum):
    """Damping regime of the temporal oscillator."""

    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


def _as_dispersion(value) -> Dispersion:
    if isinstance(value, Dispersion):
        return value
    return Dispersion(str(value).lower())


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _check_nonnegative(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def _check_dim(dim) -> int:
    if int(dim) != dim or int(dim) < 1:
        raise DomainError(f"dim must be an integer >= 1, got {dim!r}")
    return int(dim)


@dataclass(frozen=True)
class LdhoParams:
    """Hyperparameters of the damped-oscillator space-time kernel.

    Parameters
    ----------
    c0 : float
        Variance of the zero-wavenumber temporal process; the field variance
        is ``c0`` times a dispersion-dependent normalization (see
        ``marginal_spatial`` at ``r=0``).
    tau_c : float
        Relaxation time of the oscillator (energy decay time).
    omega0 : float
        Undamped angular frequency.  ``omega0 * tau_c`` sets the regime:
        ``> 1/2`` underdamped, ``< 1/2`` overdamped, ``= 1/2`` critical
        (within a ``DELTA_CRIT`` band).
    epsilon : float
        Spatial amplitude-decay scale; units of length^2 for the quadratic
        family and length for the linear family.
    interaction : float
        Space-time coupling strength (``b``, length^2, for quadratic;
        ``xi``, length, for linear).  Zero gives a separable kernel.
    dispersion : Dispersion
        Which dispersion family the spatial axis uses.
    dim : int
        Spatial dimension ``d >= 1``.
    """

    c0: float
    tau_c: float
    omega0: float
    epsilon: float
    interaction: float
    dispersion: Dispersion = Dispersion.QUADRATIC
    dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "c0", _check_positive("c0", self.c0))
        object.__setattr__(self, "tau_c", _check_positive("tau_c", self.tau_c))
        object.__setattr__(self, "omega0", _check_positive("omega0", self.omega0))
        object.__setattr__(self, "epsilon", _check_positive("epsilon", self.epsilon))
        object.__setattr__(
            self, "interaction", _check_nonnegative("interaction", self.interaction)
        )
        object.__setattr__(self, "dispersion", _as_dispersion(self.dispersion))
        object.__setattr__(self, "dim", _check_dim(self.dim))

    @classmethod
    def from_damped_frequency(
        cls,
        c0: float,
        tau_c: float,
        omega_d: float,
        regime: Regime | str,
        epsilon: float,
        interaction: float,
        dispersion: Dispersion | str = Dispersion.QUADRATIC,
        dim: int = 2,
    ) -> "LdhoParams":
        """Build parameters from the damped frequency instead of ``omega0``.

        The damped frequency is what an empirical variogram actually shows
        (oscillation period for underdamped data, branch splitting for
        overdamped data), so estimation code prefers this parametrization.

        Notes
        -----
        * underdamped: ``omega_d > 0`` and ``omega0 = sqrt(omega_d^2 + 1/(4 tau_c^2))``
        * critical:    ``omega_d`` must be 0; ``omega0 = 1/(2 tau_c)``
        * overdamped:  ``0 < omega_d < 1/(2 tau_c)`` and
          ``omega0 = sqrt(1/(4 tau_c^2) - omega_d^2)``

        Requests with ``omega_d`` small enough that ``omega0 * tau_c`` lands
        inside the critical band collapse to the critical regime when
        classified; that is intentional (the forms agree there to roundoff).
        """
        regime = Regime(regime) if not isinstance(regime, Regime) else regime
        tau_c = _check_positive("tau_c", tau_c)
        omega_d = float(omega_d)
        half_rate = 0.5 / tau_c
        if regime is Regime.UNDERDAMPED:
            if omega_d <= 0.0:
                raise DomainError("underdamped regime needs omega_d > 0")
            omega0 = math.hypot(omega_d, half_rate)
        elif regime is Regime.CRITICAL:
            if omega_d != 0.0:
                raise DomainError("critical regime has omega_d = 0 exactly")
            omega0 = half_rate
        else:
            if not 0.0 < omega_d < half_rate:
                raise DomainError(
                    "overdamped regime needs 0 < omega_d < 1/(2 tau_c), "
                    f"got omega_d={omega_d!r} with 1/(2 tau_c)={half_rate!r}"
                )
            omega0 = math.sqrt((half_rate - omega_d) * (half_rate + omega_d))
        return cls(
            c0=c0,
            tau_c=tau_c,
            omega0=omega0,
            epsilon=epsilon,
            interaction=interaction,
            dispersion=dispersion,
            dim=dim,
        )


@dataclass(frozen=True)
class OuParams:
    """Hyperparameters of the first-order (Ornstein-Uhlenbeck) analog.

    The temporal covariance at wavenumber ``k`` is
    ``sigma0_sq * A(k) * exp(-|tau| * B(k) / tau_c)`` with

    * ``quadratic``: ``A(k) = exp(-beta k^2)``, ``B(k) = a + scale * k^2``
    * ``linear``:    ``A(k) = exp(-beta k)``,   ``B(k) = a + scale * k``

    ``a`` is the dimensionless relaxation offset (``B(0) = a``), ``beta``
    plays the role ``epsilon`` plays for the oscillator kernels, and
    ``scale`` (``b`` or ``xi``) is the space-time coupling; ``scale = 0``
    gives a separable kernel, which is why zero is allowed there.
    """

    sigma0_sq: float
    tau_c: float
    a: float
    scale: float
    beta: float
    dispersion: Dispersion = Dispersion.QUADRATIC
    dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "sigma0_sq", _check_positive("sigma0_sq", self.sigma0_sq))
        object.__setattr__(self, "tau_c", _check_positive("tau_c", self.tau_c))
        object.__setattr__(self, "a", _check_positive("a", self.a))
        object.__setattr__(self, "scale", _check_nonnegative("scale", self.scale))
        object.__setattr__(self, "beta", _check_positive("beta", self.beta))
        object.__setattr__(self, "dispersion", _as_dispersion(self.dispersion))
        object.__setattr__(self, "dim", _check_dim(self.dim))


@dataclass(frozen=True)
class InteractionFunctions:
    """Lag-dependent Gaussian-phase functions of the quadratic underdamped kernel.

    ``lambda_sq`` is the Gaussian spatial decay rate, ``kappa_sq`` the
    spatial chirp (phase curvature in ``r^2``) and ``phi`` the bulk phase,
    all evaluated at the requested time lags.  The kernel reads

    ``C = c0 e^{-|tau|/2 tau_c} |.|^{-d/2} e^{-lambda_sq r^2}
        [cos(...) + sin(...)/(2 omega_d tau_c)]``

    with phase argument ``omega_d |tau| - kappa_sq r^2 - d phi / 2`` folded
    into the two trigonometric terms.
    """

    kappa_sq: np.ndarray | float
    lambda_sq: np.ndarray | float
    phi: np.ndarray | float


# ---------------------------------------------------------------------------
# regime machinery
# ---------------------------------------------------------------------------


def classify_regime(p: LdhoParams) -> Regime:
    """Classify the damping regime from the product ``omega0 * tau_c``.

    Products within ``DELTA_CRIT`` of ``1/2`` are reported critical so the
    near-degenerate forms are never evaluated in their unstable region.
    """
    product = p.omega0 * p.tau_c
    if abs(product - 0.5) <= DELTA_CRIT:
        return Regime.CRITICAL
    return Regime.UNDERDAMPED if product > 0.5 else Regime.OVERDAMPED


def damped_frequency(p: LdhoParams) -> float:
    """Damped angular frequency ``omega_d``.

    Underdamped: ``sqrt(omega0^2 - 1/(4 tau_c^2))``.  Critical: exactly 0.
    Overdamped: the magnitude of the imaginary frequency, i.e.
    ``sqrt(1/(4 tau_c^2) - omega0^2)``; it controls the slow/fast branch split.
    """
    return _damped_frequency(p, classify_regime(p))


def _damped_frequency(p: LdhoParams, regime: Regime) -> float:
    """:func:`damped_frequency` of ``p`` in its regime ``regime``."""
    if regime is Regime.CRITICAL:
        return 0.0
    half_rate = 0.5 / p.tau_c
    # factored form avoids cancellation when the two rates are close
    if regime is Regime.UNDERDAMPED:
        return math.sqrt((p.omega0 - half_rate) * (p.omega0 + half_rate))
    return math.sqrt((half_rate - p.omega0) * (half_rate + p.omega0))


def fast_slow_times(p: LdhoParams) -> tuple[float, float]:
    """Slow and fast relaxation times ``(tau_s, tau_f)`` of the overdamped kernel.

    ``tau_s = 2 tau_c / (1 - 2 tau_c omega_d)`` and
    ``tau_f = 2 tau_c / (1 + 2 tau_c omega_d)``; as ``omega_d -> 0`` both
    tend to ``2 tau_c``.  Raises ``RegimeError`` outside the overdamped regime.
    """
    if classify_regime(p) is not Regime.OVERDAMPED:
        raise RegimeError("fast/slow relaxation times exist only in the overdamped regime")
    u = 2.0 * p.tau_c * damped_frequency(p)
    return 2.0 * p.tau_c / (1.0 - u), 2.0 * p.tau_c / (1.0 + u)


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _as_distance(x, name: str) -> np.ndarray:
    """A distance or wavenumber as floats; negative or NaN raises :class:`DomainError`."""
    arr = np.asarray(x, dtype=float)
    # written so that a NaN fails the test too
    if not (arr >= 0.0).all():
        raise DomainError(f"{name} must be >= 0 and not NaN")
    return arr


def _as_lag(x, name: str) -> np.ndarray:
    """A time lag or frequency as floats; NaN raises :class:`DomainError`."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise DomainError(f"{name} must not be NaN")
    return arr


def _prepare_lags(r, tau):
    """Validate and broadcast lag inputs; returns (r, |tau|, scalar_flag).

    Scalars become 1-element arrays: NumPy's scalar and array loops may round
    apart, and one path gives every input shape the same value.  Equal-shape
    arrays, the hot path of a fit, skip the broadcast.
    """
    r_arr = _as_distance(r, "spatial distance r")
    tau_arr = _as_lag(tau, "time lag tau")
    scalar = r_arr.ndim == 0 and tau_arr.ndim == 0
    if scalar or r_arr.shape != tau_arr.shape:
        r_arr, tau_arr = np.broadcast_arrays(np.atleast_1d(r_arr), np.atleast_1d(tau_arr))
    return r_arr, np.abs(tau_arr), scalar


def _ret(value: np.ndarray, scalar: bool):
    return value.item() if scalar else value


def _gd(dim: int) -> float:
    """Gamma((d+1)/2), the constant of the linear-family transform lemma."""
    return math.gamma(0.5 * (dim + 1))


# ---------------------------------------------------------------------------
# the oscillator bracket
# ---------------------------------------------------------------------------


def _oscillator(regime: Regime, u: float, g, slope):
    """The bracket ``B(u) = [(1+u) g(1-u) - (1-u) g(1+u)] / 2u`` of the roots ``1 -+ u``.

    ``g(beta)`` is the branch factor of one root and ``slope()`` returns
    ``(log g)'(1)``; ``u = 2 tau_c omega_d`` is passed as a magnitude.  The
    regime picks a form of ``B`` that cancels nowhere:

    * underdamped, roots ``1 -+ iu``: the two branches are conjugate, so
      ``B = Im[(1+iu) g(1-iu)] / u``;
    * critical: the limit ``u -> 0``, ``B = g(1) (1 - slope())``;
    * overdamped below ``_OVERDAMPED_SERIES_CUT``: ``B`` is even in ``u``, so
      ``B(u) = 2 B(0) - B(iu) + O(u^4)``;
    * overdamped above it: the bracket as written.
    """
    if regime is Regime.UNDERDAMPED:
        z = g(1.0 - 1j * u)
        return z.real + z.imag / u
    if regime is Regime.CRITICAL:
        return g(1.0) * (1.0 - slope())
    if u < _OVERDAMPED_SERIES_CUT:
        b0 = _oscillator(Regime.CRITICAL, 0.0, g, slope)
        return 2.0 * b0 - _oscillator(Regime.UNDERDAMPED, u, g, slope)
    return ((1.0 + u) * g(1.0 - u) - (1.0 - u) * g(1.0 + u)) / (2.0 * u)


def _half_power(z, n: int):
    """``z ** (n / 2)`` on the principal branch; products beat a complex ``**`` severalfold."""
    out = np.sqrt(z) if n % 2 else z
    for _ in range((n - 1) // 2):
        out = out * z
    return out


# ---------------------------------------------------------------------------
# temporal kernels (zero wavenumber)
# ---------------------------------------------------------------------------


def temporal_kernel(p: LdhoParams, tau) -> np.ndarray | float:
    """Stationary covariance of the oscillator displacement at time lag ``tau``.

    All three regimes have variance ``c0`` at zero lag.  The underdamped
    kernel oscillates under an exponential envelope, the critical kernel is
    the tangent case ``(1 + |tau|/2 tau_c) e^{-|tau|/2 tau_c}`` and the
    overdamped kernel is the difference of a slow and a fast exponential.
    """
    if not isinstance(p, LdhoParams):
        raise TypeError("temporal_kernel expects LdhoParams")
    tau_arr = np.abs(_as_lag(tau, "time lag tau"))
    scalar = tau_arr.ndim == 0
    out = _temporal_kernel_core(
        p.c0, p.tau_c, classify_regime(p), 2.0 * p.tau_c * damped_frequency(p),
        np.atleast_1d(tau_arr),
    )
    return float(out[0]) if scalar else out


def _temporal_kernel_core(c0, tau_c, regime, u, ata):
    """Temporal covariance on ``|tau|`` arrays; shared with the Fourier modes.

    The oscillator bracket with branch factor ``g(beta) = exp(-beta s)``,
    ``s = |tau| / 2 tau_c``.  The Fourier modes call this with
    wavenumber-scaled (array-valued) amplitude and relaxation time; ``u`` is
    invariant under that scaling, which is why it is a scalar.
    """
    s = ata / (2.0 * tau_c)
    return c0 * _oscillator(regime, u, lambda beta: np.exp(-beta * s), lambda: -s)


# ---------------------------------------------------------------------------
# oscillator space-time kernels
# ---------------------------------------------------------------------------


def interaction_functions_quadratic(p: LdhoParams, tau) -> InteractionFunctions:
    """Gaussian decay, chirp, and phase functions of the quadratic underdamped kernel.

    With ``a_re = eps + b|tau|/(2 tau_c)`` and ``a_im = b omega_d |tau|``:

    * ``lambda_sq = a_re / (4 (a_re^2 + a_im^2))`` (spatial Gaussian rate)
    * ``kappa_sq = a_im / (4 (a_re^2 + a_im^2))`` (spatial chirp)
    * ``phi = atan2(-2 b omega_d |tau| tau_c, b|tau| + 2 eps tau_c)``,
      kept in ``(-pi/2, 0]``.

    Only defined for the quadratic dispersion in the underdamped regime.
    """
    if p.dispersion is not Dispersion.QUADRATIC:
        raise RegimeError("interaction functions are specific to the quadratic dispersion")
    if classify_regime(p) is not Regime.UNDERDAMPED:
        raise RegimeError("interaction functions are specific to the underdamped regime")
    ata = np.abs(_as_lag(tau, "time lag tau"))
    scalar = ata.ndim == 0
    omega_d = damped_frequency(p)
    a_re = p.epsilon + p.interaction * ata / (2.0 * p.tau_c)
    a_im = p.interaction * omega_d * ata
    den = 4.0 * (a_re * a_re + a_im * a_im)
    # the 2 tau_c scaling below leaves the angle unchanged but matches the
    # form in which the phase is usually quoted
    phi = np.arctan2(
        -2.0 * p.interaction * omega_d * ata * p.tau_c,
        p.interaction * ata + 2.0 * p.epsilon * p.tau_c,
    )
    return InteractionFunctions(
        kappa_sq=_ret(a_im / den, scalar),
        lambda_sq=_ret(a_re / den, scalar),
        phi=_ret(phi, scalar),
    )


def _ldho(p: LdhoParams, r, ata):
    """Oscillator kernel: each dispersion's branch factor, slope and constant.

    With ``s = |tau| / 2 tau_c``, the radial transform of the mode
    ``(A(k)/B(k)) exp(-beta s B(k))`` is ``K g(beta) / c0``:

    * quadratic: ``g = exp(-beta s - r^2 tau_c / 2D) / (2 pi D)^{d/2}``,
      ``D = b beta |tau| + 2 eps tau_c``, ``K = c0 tau_c^{d/2}``;
    * linear: ``g = a e^{-beta s} (a^2 + r^2)^{-(d+1)/2}``,
      ``a = xi beta s + eps``, ``K = c0 Gamma((d+1)/2) / pi^{(d+1)/2}``.

    The kernel is ``K`` times the oscillator bracket of ``g``.
    """
    d = p.dim
    tau_c = p.tau_c
    s = ata / (2.0 * tau_c)
    rr = r * r
    if p.dispersion is Dispersion.QUADRATIC:
        widen = p.interaction * ata  # dD/dbeta
        base = 2.0 * p.epsilon * tau_c
        half_rr = 0.5 * tau_c * rr
        const = p.c0 * tau_c ** (0.5 * d)

        def g(beta):
            den = widen * beta + base
            return np.exp(-beta * s - half_rr / den) / _half_power(2.0 * math.pi * den, d)

        def slope():
            den = widen + base
            return -s + (half_rr / den - 0.5 * d) * widen / den

    else:
        q = p.interaction * s  # da/dbeta
        const = p.c0 * _gd(d) / math.pi ** (0.5 * (d + 1))

        def g(beta):
            a = q * beta + p.epsilon
            return a * np.exp(-beta * s) / _half_power(a * a + rr, d + 1)

        def slope():
            a = q + p.epsilon
            return q / a - s - (d + 1) * a * q / (a * a + rr)

    regime = classify_regime(p)
    return const * _oscillator(regime, 2.0 * tau_c * _damped_frequency(p, regime), g, slope)


# ---------------------------------------------------------------------------
# first-order (Ornstein-Uhlenbeck) space-time kernels
# ---------------------------------------------------------------------------


def _ou(p: OuParams, r, ata):
    """First-order kernel: a Gaussian (quadratic) or rational (linear) profile widening with ``|tau|``."""
    d = p.dim
    if p.dispersion is Dispersion.QUADRATIC:
        width = p.beta + p.scale * ata / p.tau_c
        decay = p.sigma0_sq * np.exp(-p.a * ata / p.tau_c)
        return decay * np.exp(-r * r / (4.0 * width)) / (4.0 * math.pi * width) ** (0.5 * d)
    q = p.beta + p.scale * ata / p.tau_c
    amp = p.sigma0_sq * _gd(d) / math.pi ** (0.5 * (d + 1))
    return amp * q * np.exp(-p.a * ata / p.tau_c) / (q * q + r * r) ** (0.5 * (d + 1))


# ---------------------------------------------------------------------------
# public kernel evaluation
# ---------------------------------------------------------------------------


def _kernel(p: LdhoParams | OuParams, r, tau) -> np.ndarray | float:
    r_b, ata, scalar = _prepare_lags(r, tau)
    return _ret((_ldho if isinstance(p, LdhoParams) else _ou)(p, r_b, ata), scalar)


def ldho_kernel(p: LdhoParams, r, tau) -> np.ndarray | float:
    """Space-time covariance ``C(r, tau)`` of the damped-oscillator kernel.

    ``r`` and ``tau`` broadcast against each other; ``r`` must be >= 0.
    The form is chosen by the dispersion family and damping regime.
    """
    if not isinstance(p, LdhoParams):
        raise TypeError("ldho_kernel expects LdhoParams")
    return _kernel(p, r, tau)


def ou_kernel(p: OuParams, r, tau) -> np.ndarray | float:
    """Space-time covariance of the first-order (Ornstein-Uhlenbeck) kernel.

    ``r`` and ``tau`` broadcast against each other; ``r`` must be >= 0.
    The form is chosen by the dispersion family.
    """
    if not isinstance(p, OuParams):
        raise TypeError("ou_kernel expects OuParams")
    return _kernel(p, r, tau)


def vlrt_kernel(p: LdhoParams, r, tau) -> np.ndarray | float:
    """Very-long-relaxation-time limit of the quadratic underdamped kernel.

    As ``tau_c -> infinity`` the temporal envelope disappears and the kernel
    becomes a pure spatial-chirped cosine:

    ``C* = c0 e^{-lam0 r^2} cos(omega0 tau - kap0 r^2 - d phi0 / 2)
           / ((4 pi)^{d/2} (eps^2 + b^2 omega0^2 tau^2)^{d/4})``

    with ``lam0 = eps / (4 den)``, ``kap0 = b omega0 |tau| / (4 den)``,
    ``phi0 = atan2(-b omega0 |tau|, eps)`` and
    ``den = eps^2 + b^2 omega0^2 tau^2``.  Only the quadratic dispersion has
    this closed limit; ``RegimeError`` otherwise.
    """
    if not isinstance(p, LdhoParams):
        raise TypeError("vlrt_kernel expects LdhoParams")
    if p.dispersion is not Dispersion.QUADRATIC:
        raise RegimeError("the long-relaxation-time limit is quadratic-dispersion only")
    r_b, ata, scalar = _prepare_lags(r, tau)
    d = p.dim
    b = p.interaction
    a_im = b * p.omega0 * ata
    den = p.epsilon * p.epsilon + a_im * a_im
    lam0 = p.epsilon / (4.0 * den)
    kap0 = a_im / (4.0 * den)
    phi0 = np.arctan2(-a_im, p.epsilon)
    val = (
        p.c0
        * np.exp(-lam0 * r_b * r_b)
        * np.cos(p.omega0 * ata - kap0 * r_b * r_b - 0.5 * d * phi0)
        / ((4.0 * math.pi) ** (0.5 * d) * den ** (0.25 * d))
    )
    return _ret(val, scalar)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def marginal_spatial(p: LdhoParams | OuParams, r) -> np.ndarray | float:
    """Purely spatial covariance ``C(r, 0)``, in closed form.

    The oscillator kernels share one spatial marginal per dispersion family
    across all three regimes: a Gaussian ``c0 e^{-r^2/4 eps}/(4 pi eps)^{d/2}``
    for the quadratic family and the rational profile
    ``c0 G eps (eps^2 + r^2)^{-(d+1)/2}`` for the linear family.
    """
    r_arr = _as_distance(r, "spatial distance r")
    scalar = r_arr.ndim == 0
    d = p.dim
    if isinstance(p, LdhoParams):
        amp, width = p.c0, p.epsilon
    elif isinstance(p, OuParams):
        amp, width = p.sigma0_sq, p.beta
    else:
        raise TypeError("marginal_spatial expects LdhoParams or OuParams")
    if p.dispersion is Dispersion.QUADRATIC:
        val = amp * np.exp(-r_arr * r_arr / (4.0 * width)) / (4.0 * math.pi * width) ** (
            0.5 * d
        )
    else:
        val = (
            amp
            * _gd(d)
            / math.pi ** (0.5 * (d + 1))
            * width
            / (width * width + r_arr * r_arr) ** (0.5 * (d + 1))
        )
    return _ret(val, scalar)


def marginal_temporal(p: LdhoParams | OuParams, tau) -> np.ndarray | float:
    """Purely temporal covariance ``C(0, tau)``, in closed form.

    Written out independently of the full space-time kernels (rather than as
    their ``r = 0`` slice) wherever a compact expression exists, so that the
    two code paths cross-check each other; the overdamped slices are the
    kernel's own at ``r = 0``, since they have no simpler form.
    """
    ata = np.abs(_as_lag(tau, "time lag tau"))
    scalar = ata.ndim == 0
    d = p.dim

    if isinstance(p, OuParams):
        decay = np.exp(-p.a * ata / p.tau_c)
        if p.dispersion is Dispersion.QUADRATIC:
            width = p.beta + p.scale * ata / p.tau_c
            val = p.sigma0_sq * decay / (4.0 * math.pi * width) ** (0.5 * d)
        else:
            q = p.beta + p.scale * ata / p.tau_c
            val = p.sigma0_sq * _gd(d) * decay / (math.pi ** (0.5 * (d + 1)) * q ** d)
        return _ret(val, scalar)

    if not isinstance(p, LdhoParams):
        raise TypeError("marginal_temporal expects LdhoParams or OuParams")

    regime = classify_regime(p)
    if regime is Regime.OVERDAMPED:
        return _ret(_ldho(p, 0.0, ata), scalar)
    omega_d = damped_frequency(p)
    tau_c = p.tau_c
    eps = p.epsilon
    s = ata / (2.0 * tau_c)

    if p.dispersion is Dispersion.QUADRATIC:
        b = p.interaction
        if regime is Regime.UNDERDAMPED:
            # envelope written in eps-normalized form
            e1 = b * ata / (2.0 * tau_c * eps) + 1.0
            e2 = b * omega_d * ata / eps
            phi = np.arctan2(-e2, e1)
            # at r = 0 the transform phase collapses to -d * phi / 2
            ang = omega_d * ata - 0.5 * d * phi
            env = (4.0 * math.pi * eps) ** (0.5 * d) * (e1 * e1 + e2 * e2) ** (0.25 * d)
            val = (
                p.c0
                * np.exp(-s)
                * (np.cos(ang) + np.sin(ang) / (2.0 * omega_d * tau_c))
                / env
            )
        else:
            denom = b * ata + 2.0 * eps * tau_c
            val = (
                p.c0
                * (tau_c / (2.0 * math.pi * denom)) ** (0.5 * d)
                * np.exp(-s)
                * (1.0 + s + d * b * ata / (2.0 * denom))
            )
    else:
        xi = p.interaction
        g = _gd(d) / math.pi ** (0.5 * (d + 1))
        if regime is Regime.UNDERDAMPED:
            a_re = eps + xi * ata / (2.0 * tau_c)
            a_im = xi * omega_d * ata
            phi = np.arctan2(-a_im, a_re)
            # at r = 0 the transform phase collapses to -d * phi
            ang = omega_d * ata - d * phi
            val = (
                p.c0
                * np.exp(-s)
                * g
                * (a_re * a_re + a_im * a_im) ** (-0.5 * d)
                * (np.cos(ang) + np.sin(ang) / (2.0 * omega_d * tau_c))
            )
        else:
            q = xi * s
            a = q + eps
            val = p.c0 * g * np.exp(-s) / a ** d * (1.0 + s + q * d / a)
    return _ret(val, scalar)


# ---------------------------------------------------------------------------
# model container, surrogate, interaction ratio
# ---------------------------------------------------------------------------


# Each family's parameter class and its JSON field -> attribute names, in
# serialization order.
_JSON_FIELDS = {
    "ldho": (LdhoParams, {
        "c0": "c0", "tau_c": "tau_c", "omega0": "omega0", "epsilon": "epsilon",
        "b_or_xi": "interaction",
    }),
    "ou": (OuParams, {name: name for name in ("sigma0_sq", "tau_c", "a", "scale", "beta")}),
}


@dataclass(frozen=True)
class KernelModel:
    """A covariance model: kernel parameters plus an observation nugget.

    ``surrogate=True`` turns the model into the separable surrogate of its
    parameters: ``C_S(r) C_T(tau) / C(0,0)``, which shares both marginals and
    the variance of the full kernel but drops all space-time interaction.
    """

    params: LdhoParams | OuParams
    nugget: float = 0.0
    surrogate: bool = False

    def __post_init__(self):
        if not isinstance(self.params, (LdhoParams, OuParams)):
            raise TypeError("params must be LdhoParams or OuParams")
        object.__setattr__(self, "nugget", _check_nonnegative("nugget", self.nugget))

    # -- structure ---------------------------------------------------------

    @property
    def family(self) -> str:
        return "ldho" if isinstance(self.params, LdhoParams) else "ou"

    @property
    def dim(self) -> int:
        return self.params.dim

    @classmethod
    def surrogate_of(cls, model: "KernelModel") -> "KernelModel":
        """The separable surrogate sharing the base model's marginals."""
        if model.surrogate:
            raise DomainError("surrogate models wrap a non-surrogate model")
        return replace(model, surrogate=True)

    # -- evaluation --------------------------------------------------------

    def covariance(self, r, tau) -> np.ndarray | float:
        """Noise-free covariance at the given lags (nugget not included)."""
        if self.surrogate:
            return separable_surrogate(self, r, tau)
        return _kernel(self.params, r, tau)

    def marginal_spatial(self, r) -> np.ndarray | float:
        return marginal_spatial(self.params, r)

    def marginal_temporal(self, tau) -> np.ndarray | float:
        return marginal_temporal(self.params, tau)

    def variance(self) -> float:
        """Field variance ``C(0, 0)`` (nugget not included).

        The covariance at the zero lag, which every input shape evaluates on
        the same array path, so ``covariance`` at any zero lag equals it bit
        for bit.
        """
        if self.surrogate:
            return float(separable_surrogate(self, 0.0, 0.0))
        return float(_kernel(self.params, 0.0, 0.0))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        names = _JSON_FIELDS[self.family][1]
        out = {
            "family": self.family,
            "dispersion": self.params.dispersion.value,
            "dim": self.params.dim,
            "params": {key: getattr(self.params, attr) for key, attr in names.items()},
            "nugget": self.nugget,
        }
        if self.surrogate:
            out["surrogate"] = True
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "KernelModel":
        try:
            family = data["family"]
            dispersion = data["dispersion"]
            dim = data["dim"]
            fields = data["params"]
            nugget = data.get("nugget", 0.0)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed model description: missing {exc}") from exc
        if not isinstance(family, str) or family not in _JSON_FIELDS:
            raise DomainError(f"unknown kernel family {family!r}")
        params_cls, names = _JSON_FIELDS[family]
        try:
            values = {attr: fields[key] for key, attr in names.items()}
        except KeyError as exc:
            raise DomainError(f"model params missing field {exc}") from exc
        params = params_cls(**values, dispersion=dispersion, dim=dim)
        return cls(params=params, nugget=nugget, surrogate=bool(data.get("surrogate", False)))

    @classmethod
    def from_json(cls, text: str) -> "KernelModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"model JSON does not parse: {exc}") from exc
        return cls.from_dict(data)

    def model_key(self) -> str:
        """Stable one-line identifier used to tag derived artifacts."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def separable_surrogate(m: KernelModel, r, tau) -> np.ndarray | float:
    """Covariance of the separable surrogate ``C_S(r) C_T(tau) / C(0, 0)``."""
    if m.surrogate:
        m = replace(m, surrogate=False)
    r_b, ata, scalar = _prepare_lags(r, tau)
    val = m.marginal_spatial(r_b) * m.marginal_temporal(ata) / m.variance()
    return _ret(np.asarray(val, dtype=float), scalar)


def interaction_ratio(m: KernelModel, r, tau) -> np.ndarray | float:
    """Non-separability ratio ``Q = C(0,0) C(r,tau) / (C_S(r) C_T(tau))``.

    Equals 1 identically for separable kernels and at zero lags.  Where a
    marginal is within ``1e-12`` (relative) of zero the ratio diverges; those
    entries are returned as NaN and a ``DegenerateMarginal`` warning is
    issued, mirroring the poles this quantity genuinely has at marginal
    zero crossings.
    """
    r_b, ata, scalar = _prepare_lags(r, tau)
    variance = m.variance()
    product = np.asarray(m.marginal_spatial(r_b) * m.marginal_temporal(ata), dtype=float)
    cov = np.asarray(m.covariance(r_b, ata), dtype=float)
    degenerate = np.abs(product) <= _DEGENERATE_TOL * variance * variance
    if np.any(degenerate):
        warnings.warn(
            "interaction ratio undefined where a marginal vanishes; returning NaN there",
            DegenerateMarginal,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        q = variance * cov / product
    q = np.where(degenerate, np.nan, q)
    return _ret(q, scalar)


def euclidean_length(a, b=None) -> np.ndarray:
    """Euclidean lengths of the vectors ``a - b`` (of ``a`` if ``b`` is None).

    The vectors run along the last axis; the others broadcast, so
    ``euclidean_length(x[:, None], y[None])`` is a distance matrix.  The
    squares are added in place, axis by axis, as SciPy's pairwise distances
    add them to zero, so the lengths carry the same bits.
    """
    a = np.asarray(a, dtype=float)
    b = np.zeros(a.shape[-1]) if b is None else np.asarray(b, dtype=float)
    total = np.asarray(a[..., 0] - b[..., 0])
    total *= total
    for k in range(1, a.shape[-1]):
        part = a[..., k] - b[..., k]
        part *= part
        total += part
    return np.sqrt(total, out=total)
