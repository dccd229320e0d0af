"""Space-time covariance kernels of damped stochastic oscillators.

Closed-form non-separable covariance models (second-order oscillator and
first-order relaxation variants, each with two wavenumber dispersion
families), together with spectral cross-validation tools, dense Gaussian
process prediction, FFT-based field simulation, and variogram-based
hyperparameter estimation.
"""

from .errors import (
    AllBinsSkipped,
    DegenerateMarginal,
    DimensionMismatch,
    DomainError,
    EmptyBin,
    EmptyBinError,
    LagOutOfRange,
    NegativeVariance,
    NotPositiveDefinite,
    OptimizerStalled,
    OscovError,
    QuadratureFailure,
    RegimeError,
    SpectralTruncationWarning,
)
from .kernel_core import (
    DELTA_CRIT,
    Dispersion,
    InteractionFunctions,
    KernelModel,
    LdhoParams,
    OuParams,
    Regime,
    anisotropic_distance,
    classify_regime,
    damped_frequency,
    fast_slow_times,
    interaction_functions_quadratic,
    interaction_ratio,
    ldho_kernel,
    marginal_spatial,
    marginal_temporal,
    ou_kernel,
    separable_surrogate,
    temporal_kernel,
    vlrt_kernel,
)
from .spectral import (
    AdmissibilityReport,
    QuadratureSpec,
    admissibility_scan,
    bessel_j,
    hankel_ift_oracle,
    ode_residual,
    st_spectral_density,
    temporal_fourier_mode,
    temporal_spectral_density,
)
from .gp import (
    GramMatrix,
    SpaceTimeDataset,
    SpaceTimePoint,
    gram,
    load_dataset_csv,
    predict,
    prediction_ratio,
    write_predictions_csv,
)
from .simulate import (
    FieldRealization,
    GridSpec,
    empirical_covariance,
    load_field,
    simulate_field,
    write_field,
)
from .estimate import (
    EmpiricalVariogram,
    FitResult,
    VariogramKind,
    WlsObjective,
    fit_full,
    fit_marginals,
    model_variogram,
    space_time_variogram,
    spatial_marginal_variogram,
    temporal_marginal_variogram,
    wls_objective,
)
from .presets import available_presets, preset_model

__version__ = "0.1.0"
