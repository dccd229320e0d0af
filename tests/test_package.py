"""The package namespace: public names resolve lazily, on first use."""

import subprocess
import sys

import numpy as np

import oscov

# the names ``from oscov import *`` bound when every submodule was loaded
# eagerly by ``oscov/__init__``
EXPORTED = {
    "AdmissibilityReport", "AllBinsSkipped", "BoundaryWarning", "DELTA_CRIT", "DegenerateMarginal",
    "DimensionMismatch", "Dispersion", "DomainError", "EmpiricalVariogram", "EmptyBin",
    "EmptyBinError", "FieldRealization", "FitResult", "GramMatrix", "GridSpec",
    "IllConditionedWarning", "InteractionFunctions", "JitterWarning", "KernelModel", "LagOutOfRange", "LdhoParams",
    "NegativeVariance", "NotPositiveDefinite", "OptimizerStalled", "OscovError",
    "OuParams", "Posterior", "QuadratureFailure", "Regime", "RegimeError",
    "SpaceTimeDataset", "SpaceTimePoint", "SpectralTruncationWarning", "VariogramKind",
    "WlsObjective", "admissibility_scan", "available_presets",
    "bessel_j", "classify_regime", "damped_frequency", "empirical_covariance", "errors",
    "estimate", "fast_slow_times", "fit_full", "fit_marginals", "gp", "gram",
    "hankel_ift_oracle", "interaction_functions_quadratic", "interaction_ratio",
    "kernel_core", "ldho_kernel", "load_dataset_csv", "load_field", "marginal_spatial",
    "marginal_temporal", "model_variogram", "ode_residual", "ou_kernel", "predict",
    "preset_model", "presets", "separable_surrogate", "simulate",
    "simulate_field", "space_time_variogram", "spatial_marginal_variogram", "spectral",
    "st_spectral_density", "temporal_fourier_mode", "temporal_kernel",
    "temporal_marginal_variogram", "temporal_spectral_density", "vlrt_kernel",
    "wls_objective", "write_field", "write_predictions_csv",
}


def _fresh_python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_import_loads_no_submodule_and_no_scipy():
    loaded = _fresh_python("import sys, oscov; print(*sorted(sys.modules))").split()
    assert "oscov" in loaded
    for name in ("oscov.estimate", "oscov.spectral", "scipy.optimize", "scipy.special"):
        assert name not in loaded


def test_simulation_loads_no_scipy(tmp_path):
    """Field synthesis, in the library and through the CLI, a file round trip
    and the empirical covariance need numpy only."""
    field = str(tmp_path / "field.bin")
    out = _fresh_python(
        "import sys\n"
        "from oscov.cli import main\n"
        "from oscov.simulate import empirical_covariance, load_field\n"
        "assert main(['simulate', '--figure', 'fig1', '--ns', '8,8', '--nt', '8',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        f"f = load_field({field!r})\n"
        "assert len(empirical_covariance(f, [(0.0, 0.0, 0.0), (f.grid.dt, 0.0, 0.0)])) == 2\n"
        "print(*sorted(sys.modules))"
    )
    loaded = out.splitlines()[-1].split()
    assert "oscov.simulate" in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []


def test_gridded_variogram_loads_no_optimizer_pair_distances_or_gp(tmp_path):
    """A variogram of a field file needs neither the fit, the scattered-data
    pair distances nor the GP module, in any of its three kinds: it loads no
    SciPy at all."""
    g = oscov.GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=8, dt=1.0)
    field = str(tmp_path / "field.bin")
    values = np.random.default_rng(0).normal(size=g.shape)
    oscov.write_field(oscov.FieldRealization(values, g, {}), field)
    out = _fresh_python(
        "import sys\n"
        "from oscov.cli import main\n"
        "for kind in ('spatial', 'temporal', 'space_time'):\n"
        f"    assert main(['variogram', '--field', {field!r}, '--kind', kind,"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "print(*sorted(sys.modules))"
    )
    loaded = out.splitlines()[-1].split()
    assert "oscov.estimate" in loaded
    assert "oscov.gp" not in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []


def test_fits_load_no_optimizer(tmp_path):
    """Both fit stages, on a field file and on scattered data, need numpy
    only: the fit loads no SciPy optimizer, and scattered data no SciPy."""
    g = oscov.GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=1.0)
    field = str(tmp_path / "field.bin")
    values = np.random.default_rng(0).normal(size=g.shape)
    oscov.write_field(oscov.FieldRealization(values, g, {}), field)
    data = tmp_path / "obs.csv"
    data.write_text("s1,s2,t,z\n" + "".join(
        f"{x},{y},{k},{float(values[k, x, y])!r}\n"
        for k in range(16) for x in range(0, 8, 2) for y in range(0, 8, 2)
    ))
    runs = {
        "marginals": ["--field", field, "--stage", "marginals"],
        "full": ["--field", field, "--stage", "full"],
        "scattered": ["--data", str(data)],
    }
    loaded = {}
    for name, argv in runs.items():
        out = _fresh_python(
            "import sys\n"
            "from oscov.cli import main\n"
            f"assert main(['fit', *{argv!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(*sorted(sys.modules))"
        )
        loaded[name] = out.splitlines()[-1].split()
    for name in ("marginals", "full", "scattered"):
        assert "oscov.estimate" in loaded[name]
        assert [m for m in loaded[name] if m.startswith("scipy")] == []
    assert "oscov.gp" in loaded["scattered"]


def test_scattered_data_load_scipy_only_to_factorize(tmp_path):
    """Variograms of scattered data, on stations and off them, compute their
    distances with numpy and load no SciPy; a prediction loads SciPy's
    LAPACK wrappers, but not ``scipy.spatial``."""
    rng = np.random.default_rng(5)
    stations = np.repeat(rng.uniform(0.0, 8.0, (12, 2)), 10, axis=0)
    # half the points at the stations, half anywhere: no station table
    scattered = np.where(np.arange(120)[:, None] % 2, stations, rng.uniform(0.0, 8.0, (120, 2)))
    times = np.tile(np.arange(10.0), 12)
    paths = []
    for name, coords in (("stations", stations), ("scattered", scattered)):
        path = tmp_path / f"{name}.csv"
        path.write_text("s1,s2,t,z\n" + "".join(
            f"{x:.17g},{y:.17g},{t:.17g},{z:.17g}\n"
            for (x, y), t, z in zip(coords, times, rng.normal(size=120))
        ))
        paths.append(str(path))
    out = _fresh_python(
        "import sys\n"
        "from oscov.cli import main\n"
        f"for data in {paths!r}:\n"
        "    for kind in ('spatial', 'temporal', 'space_time'):\n"
        "        assert main(['variogram', '--data', data, '--kind', kind,"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "print(*sorted(sys.modules))"
    )
    loaded = out.splitlines()[-1].split()
    assert "oscov.gp" in loaded and "oscov.estimate" in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []
    query = tmp_path / "query.csv"
    query.write_text("s1,s2,t\n1.5,2.5,4.5\n6.0,1.0,9.5\n")
    out = _fresh_python(
        "import sys\n"
        "from oscov.cli import main\n"
        f"assert main(['predict', '--figure', 'fig1', '--data', {paths[1]!r},"
        f" '--query', {str(query)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(*sorted(sys.modules))"
    )
    loaded = out.splitlines()[-1].split()
    assert "scipy.linalg" in loaded
    assert [name for name in loaded if name.startswith("scipy.spatial")] == []


def test_every_exported_name_still_resolves():
    assert set(oscov.__all__) == EXPORTED
    assert set(dir(oscov)) == EXPORTED
    assert oscov.__version__ == "0.1.0"
    for name in EXPORTED:
        value = getattr(oscov, name)
        if name in oscov._SUBMODULES:
            assert value is sys.modules[f"oscov.{name}"]
        else:
            assert value is getattr(sys.modules[f"oscov.{oscov._EXPORTS[name]}"], name)
    star = _fresh_python(
        "ns = {}\nexec('from oscov import *', ns)\n"
        "print(*sorted(k for k in ns if k != '__builtins__'))"
    ).split()
    assert set(star) == EXPORTED
