"""Space-time covariance kernels of damped stochastic oscillators.

Closed-form non-separable covariance models (second-order oscillator and
first-order relaxation variants, each with two wavenumber dispersion
families), together with spectral cross-validation tools, dense Gaussian
process prediction, FFT-based field simulation, and variogram-based
hyperparameter estimation.

The public names resolve on first use (PEP 562), so ``import oscov`` loads
none of the submodules, and none of SciPy, until a name is needed.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "AllBinsSkipped",
            "BoundaryWarning",
            "DegenerateMarginal",
            "DimensionMismatch",
            "DomainError",
            "EmptyBin",
            "EmptyBinError",
            "IllConditionedWarning",
            "JitterWarning",
            "LagOutOfRange",
            "NegativeVariance",
            "NotPositiveDefinite",
            "OptimizerStalled",
            "OscovError",
            "QuadratureFailure",
            "RegimeError",
            "SpectralTruncationWarning",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "DELTA_CRIT",
            "Dispersion",
            "InteractionFunctions",
            "KernelModel",
            "LdhoParams",
            "OuParams",
            "Regime",
            "classify_regime",
            "damped_frequency",
            "fast_slow_times",
            "interaction_functions_quadratic",
            "interaction_ratio",
            "ldho_kernel",
            "marginal_spatial",
            "marginal_temporal",
            "ou_kernel",
            "separable_surrogate",
            "temporal_kernel",
            "vlrt_kernel",
        ),
        "kernel_core",
    ),
    **dict.fromkeys(
        (
            "AdmissibilityReport",
            "admissibility_scan",
            "bessel_j",
            "hankel_ift_oracle",
            "ode_residual",
            "st_spectral_density",
            "temporal_fourier_mode",
            "temporal_spectral_density",
        ),
        "spectral",
    ),
    **dict.fromkeys(
        (
            "GramMatrix",
            "Posterior",
            "SpaceTimeDataset",
            "SpaceTimePoint",
            "gram",
            "load_dataset_csv",
            "predict",
            "write_predictions_csv",
        ),
        "gp",
    ),
    **dict.fromkeys(
        (
            "FieldRealization",
            "GridSpec",
            "empirical_covariance",
            "load_field",
            "simulate_field",
            "write_field",
        ),
        "simulate",
    ),
    **dict.fromkeys(
        (
            "EmpiricalVariogram",
            "FitResult",
            "VariogramKind",
            "WlsObjective",
            "fit_full",
            "fit_marginals",
            "model_variogram",
            "space_time_variogram",
            "spatial_marginal_variogram",
            "temporal_marginal_variogram",
            "wls_objective",
        ),
        "estimate",
    ),
    **dict.fromkeys(("available_presets", "preset_model"), "presets"),
}
_SUBMODULES = ("errors", "kernel_core", "spectral", "gp", "simulate", "estimate", "presets")

__all__ = [*_EXPORTS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
