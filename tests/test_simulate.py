"""Spectral field synthesis: determinism, fidelity, and file interchange."""

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import peak_bytes

from oscov import (
    DomainError,
    FieldRealization,
    GridSpec,
    KernelModel,
    LagOutOfRange,
    LdhoParams,
    Regime,
    SpectralTruncationWarning,
    empirical_covariance,
    ldho_kernel,
    load_field,
    simulate_field,
    write_field,
)
from oscov import simulate
from oscov.spectral import st_spectral_density

# moderate oscillation and short memory keep periodic wraparound far below
# the Monte-Carlo noise floor on the grids used here
LOOP_PARAMS = LdhoParams.from_damped_frequency(
    1.0, 1.0, 2.0, Regime.UNDERDAMPED, 1.0, 0.3
)
LOOP_MODEL = KernelModel(LOOP_PARAMS)


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(ns=(1, 8), ds=(1.0, 1.0), nt=16, dt=0.5)
    with pytest.raises(DomainError):
        GridSpec(ns=(8, 8), ds=(1.0, -1.0), nt=16, dt=0.5)
    with pytest.raises(DomainError):
        GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=1, dt=0.5)
    with pytest.raises(DomainError):
        GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=0.0)
    with pytest.raises(DomainError):
        GridSpec(ns=(8, 8, 8, 8), ds=(1.0,) * 4, nt=16, dt=0.5)
    with pytest.raises(DomainError):
        GridSpec(ns=(8,), ds=(1.0, 1.0), nt=16, dt=0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(ns=(8, 8), ds=(1.0, bad), nt=16, dt=0.5)
        with pytest.raises(DomainError, match="finite"):
            GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=bad)
    # Philox takes a non-negative integer; int() would turn 2.5 into 2
    for bad in (-3, 2.5, math.nan, math.inf, "3"):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=0.5, seed=bad)
    for good in (2.0, np.int64(2), np.float64(2.0)):
        seed = GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=0.5, seed=good).seed
        assert seed == 2 and type(seed) is int
    # node counts follow the seed's rule: int() would truncate 2.5 and raise
    # its own error on NaN or infinity
    for bad in (2.5, math.nan, math.inf, "3", None):
        with pytest.raises(DomainError, match="ns must hold whole node counts"):
            GridSpec(ns=(bad, 3), ds=(1.0, 1.0), nt=16, dt=0.5)
        with pytest.raises(DomainError, match="nt must hold whole node counts"):
            GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=bad, dt=0.5)
    g = GridSpec(ns=(8.0, np.int64(6)), ds=(1.0, 1.0), nt=np.float64(16.0), dt=0.5)
    assert g.ns == (8, 6) and g.nt == 16
    assert all(type(n) is int for n in g.ns + (g.nt,))


def test_grid_spec_round_trip_and_shape():
    g = GridSpec(ns=(8, 12), ds=(0.5, 1.0), nt=16, dt=0.25, seed=42)
    assert g.shape == (16, 8, 12)
    assert g.n_total == 16 * 8 * 12
    assert g.dim == 2
    assert GridSpec.from_dict(g.to_dict()) == g
    with pytest.raises(DomainError):
        GridSpec.from_dict({"ns": [8, 8]})


def test_field_shape_must_match_grid():
    g = GridSpec(ns=(4, 4), ds=(1.0, 1.0), nt=8, dt=0.5)
    with pytest.raises(DomainError):
        FieldRealization(values=np.zeros((8, 4, 5)), grid=g, provenance={})


def test_simulate_rejects_dimension_mismatch():
    g = GridSpec(ns=(8,), ds=(1.0,), nt=16, dt=0.5)
    with pytest.raises(DomainError):
        simulate_field(LOOP_MODEL, g)  # 2-d model on a 1-d grid


def test_simulate_rejects_a_separable_surrogate():
    # the synthesis samples the full model's spectral density, so a surrogate
    # field would carry the full model's covariance under a surrogate label
    g = GridSpec(ns=(8, 8), ds=(1.0, 1.0), nt=16, dt=0.5)
    with pytest.raises(DomainError, match="surrogate"):
        simulate_field(KernelModel.surrogate_of(LOOP_MODEL), g)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_simulation_is_deterministic():
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=32, dt=0.25, seed=99)
    a = simulate_field(LOOP_MODEL, g)
    b = simulate_field(LOOP_MODEL, g)
    assert np.array_equal(a.values, b.values)
    assert a.provenance == b.provenance
    c = simulate_field(LOOP_MODEL, GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=32, dt=0.25, seed=100))
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "nugget, grid, pinned",
    [
        (
            0.1,
            GridSpec(ns=(8, 6), ds=(1.0, 1.0), nt=32, dt=0.25, seed=21),
            {
                (0, 0, 0): -0.44216034726008907,
                (13, 2, 5): -0.15600647362950593,
                (31, 7, 2): -0.6546696841163916,
            },
        ),
        (
            0.0,
            GridSpec(ns=(9, 7), ds=(1.0, 1.0), nt=31, dt=0.25, seed=4),
            {
                (0, 0, 1): 0.2828631812406917,
                (17, 4, 6): 0.39650710302311476,
                (30, 8, 3): 0.30643121649617766,
            },
        ),
    ],
    ids=["even-nugget", "odd"],
)
def test_seeded_field_values_are_pinned(nugget, grid, pinned):
    # seeded realizations are reproducible across versions: a change to the
    # draw order, the amplitude scaling or the transform moves these values
    z = simulate_field(KernelModel(LOOP_PARAMS, nugget=nugget), grid).values
    for index, value in pinned.items():
        assert z[index] == pytest.approx(value, rel=1e-12)


def _full_grid_variances(m: KernelModel, g: GridSpec) -> np.ndarray:
    # the documented Riemann cell 1 / (N dt prod(ds)) on every (omega, k) node
    omega = 2.0 * np.pi * np.fft.fftfreq(g.nt, g.dt)
    ks = [2.0 * np.pi * np.fft.fftfreq(n, s) for n, s in zip(g.ns, g.ds)]
    k_mag = np.sqrt(sum(k * k for k in np.meshgrid(*ks, indexing="ij")))
    dens = st_spectral_density(m.params, k_mag[None], omega.reshape((-1,) + (1,) * g.dim))
    return dens / (g.n_total * g.dt * math.prod(g.ds))


def _half_spectrum_draws(rng, g: GridSpec) -> np.ndarray:
    # one complex normal per half-spectrum bin, Re and Im interleaved in C order
    half = g.shape[:-1] + (g.shape[-1] // 2 + 1,)
    return rng.standard_normal(2 * math.prod(half)).view(complex).reshape(half)


def _mirror(a: np.ndarray) -> np.ndarray:
    # a[-k] on every axis, -k taken modulo the axis length
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


@pytest.mark.parametrize("nugget", [0.0, 0.1], ids=["no-nugget", "nugget"])
@pytest.mark.parametrize(
    "ns, nt",
    [((16,), 24), ((9,), 15), ((8, 6), 10), ((7, 5), 9), ((4, 6, 5), 8), ((5, 3, 4), 7)],
    ids=["1d-even", "1d-odd", "2d-even", "2d-odd", "3d-mixed", "3d-odd"],
)
def test_half_spectrum_synthesis_matches_the_complex_transform(ns, nt, nugget):
    # the field is the complex inverse FFT of the full Hermitian spectrum H,
    # built from the same draws: each half-spectrum bin, mirrored and
    # conjugated, with the last axis's 0 and Nyquist planes symmetrised
    params = LdhoParams.from_damped_frequency(
        1.0, 1.0, 2.0, Regime.UNDERDAMPED, 1.0, 0.3, dim=len(ns)
    )
    m = KernelModel(params, nugget=nugget)
    g = GridSpec(ns=ns, ds=(0.5,) * len(ns), nt=nt, dt=0.25, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTruncationWarning)
        got = simulate_field(m, g).values

    rng = np.random.Generator(np.random.Philox(g.seed))
    c = np.zeros(g.shape, dtype=complex)
    h = g.shape[-1] // 2 + 1
    c[..., :h] = _half_spectrum_draws(rng, g)
    mate = _mirror(c).conj()  # conj(c(-k)) wherever c(-k) was drawn
    planes = [0, h - 1] if g.shape[-1] % 2 == 0 else [0]
    c[..., h:] = mate[..., h:]
    c[..., planes] = 0.5 * (c[..., planes] + mate[..., planes])
    spec = np.sqrt(_full_grid_variances(m, g) / 2.0) * c
    spec[..., planes] *= math.sqrt(2.0)
    assert np.array_equal(spec, _mirror(spec).conj())
    full = np.fft.ifftn(spec) * g.n_total
    expected = full.real
    if nugget > 0.0:
        expected += math.sqrt(nugget) * rng.standard_normal(g.shape)
    assert np.max(np.abs(full.imag)) <= 1e-13 * np.std(expected)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.std(expected)


class _UnitDraws:
    """Stands in for ``np.random.Generator``: the stream reads 1 at draw
    ``index`` and 0 everywhere else, across all calls; ``read`` counts the
    draws of the last generator made."""

    index = 0
    read = 0

    def __init__(self, bit_generator):
        type(self).read = 0

    def standard_normal(self, out):
        out[...] = 0.0
        if 0 <= self.index - self.read < out.size:
            out.flat[self.index - self.read] = 1.0
        type(self).read += out.size
        return out


@pytest.mark.parametrize("nugget", [0.0, 0.3], ids=["no-nugget", "nugget"])
@pytest.mark.parametrize(
    "ns, nt",
    [((2,), 3), ((5,), 4), ((6,), 5), ((3, 2), 4), ((2, 5), 3), ((3, 4), 2),
     ((2, 3, 2), 3), ((2, 2, 3), 2), ((3, 2, 4), 2)],
    ids=["1d-two", "1d-odd", "1d-even", "2d-two", "2d-odd", "2d-even",
         "3d-two", "3d-odd", "3d-even"],
)
def test_draws_map_to_the_exact_lattice_covariance(monkeypatch, ns, nt, nugget):
    # the field is a linear map A of the draws, whatever their layout: so its
    # covariance is A A^T, which must be the circulant of the lattice
    # covariance N_total Re ifftn(var) plus the nugget on the diagonal
    params = LdhoParams.from_damped_frequency(
        1.0, 1.0, 2.0, Regime.UNDERDAMPED, 1.0, 0.3, dim=len(ns)
    )
    m = KernelModel(params, nugget=nugget)
    g = GridSpec(ns=ns, ds=(0.7,) * len(ns), nt=nt, dt=0.3, seed=1)
    monkeypatch.setattr(np.random, "Generator", _UnitDraws)
    columns = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTruncationWarning)
        _UnitDraws.index = -1
        simulate_field(m, g)  # counts the draws
        for index in range(_UnitDraws.read):
            _UnitDraws.index = index
            columns.append(simulate_field(m, g).values.reshape(-1).copy())
    a = np.array(columns).T
    lattice = np.fft.ifftn(_full_grid_variances(m, g)).real * g.n_total
    nodes = np.indices(g.shape).reshape(g.dim + 1, -1)
    lags = tuple((nodes[:, :, None] - nodes[:, None, :]) % np.array(g.shape)[:, None, None])
    expected = lattice[lags] + nugget * np.eye(g.n_total)
    assert np.max(np.abs(a @ a.T - expected)) <= 1e-13 * lattice.flat[0]


@pytest.mark.parametrize(
    "ns, nt",
    [((16,), 24), ((9,), 15), ((2,), 3), ((8, 6), 10), ((7, 5), 9), ((4, 6, 5), 8), ((5, 3, 3), 7)],
    ids=["1d-even", "1d-odd", "1d-two", "2d-even", "2d-odd", "3d-mixed", "3d-odd"],
)
def test_spectral_mass_fraction_is_the_full_grid_sum(ns, nt):
    # the synthesis holds only the half spectrum; its mass must still be the
    # sum over every node of the full grid
    params = LdhoParams.from_damped_frequency(
        1.0, 1.0, 2.0, Regime.UNDERDAMPED, 1.0, 0.3, dim=len(ns)
    )
    m = KernelModel(params)
    g = GridSpec(ns=ns, ds=(0.5,) * len(ns), nt=nt, dt=0.25, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTruncationWarning)
        got = simulate_field(m, g).provenance["spectral_mass_fraction"]
    expected = float(_full_grid_variances(m, g).sum()) / m.variance()
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("nugget", [0.0, 0.5], ids=["no-nugget", "nugget"])
def test_synthesis_allocates_under_three_and_a_half_fields(nugget):
    # the draws, the half spectrum and its variances, never a full-grid copy
    # of each: the traced peak stays a small multiple of the field's bytes
    m = KernelModel(LOOP_PARAMS, nugget=nugget)
    g = GridSpec(ns=(64, 64), ds=(1.0, 1.0), nt=128, dt=0.25, seed=8)
    simulate_field(m, g)  # first-call set-up stays out of the measurement
    f, peak = peak_bytes(simulate_field, m, g)
    assert peak <= 3.5 * f.values.nbytes


@pytest.mark.parametrize("nugget", [0.0, 0.5], ids=["no-nugget", "nugget"])
def test_synthesis_holds_one_spectrum_and_its_variances(nugget):
    # the half spectrum (which becomes the field and takes the draws) and its
    # variances: no full grid of draws, noise or transform output
    m = KernelModel(LOOP_PARAMS, nugget=nugget)
    g = GridSpec(ns=(128, 128), ds=(0.5, 0.5), nt=128, dt=0.1, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTruncationWarning)
        simulate_field(m, g)
        f, peak = peak_bytes(simulate_field, m, g)
    assert peak <= 1.75 * f.values.nbytes


def test_nugget_noise_adds_nothing_to_the_peak():
    # the noise is drawn a block at a time, once the variances are freed, and
    # scaled in place, so the synthesis's own peak still bounds it
    g = GridSpec(ns=(64, 64), ds=(1.0, 1.0), nt=128, dt=0.25, seed=8)
    peaks = []
    for nugget in (0.0, 0.5):
        m = KernelModel(LOOP_PARAMS, nugget=nugget)
        simulate_field(m, g)
        peaks.append(peak_bytes(simulate_field, m, g)[1])
    assert peaks[1] <= 1.01 * peaks[0]


def _whole_array_synthesis(m: KernelModel, g: GridSpec):
    """The synthesis without blocks: the full half-spectrum variances, one
    inverse pass on the last axis, one nugget draw.  Returns the field and
    the spectral mass fraction."""
    omega = 2.0 * np.pi * np.fft.fftfreq(g.nt, g.dt)
    ks = [2.0 * np.pi * np.fft.fftfreq(n, s) for n, s in zip(g.ns, g.ds)]
    ks[-1] = ks[-1][: g.ns[-1] // 2 + 1]
    k_mag = np.sqrt(sum(k * k for k in np.meshgrid(*ks, indexing="ij")))
    dens = st_spectral_density(m.params, k_mag[None], omega.reshape((-1,) + (1,) * g.dim))
    var = np.asarray(dens, dtype=float) * (1.0 / (g.n_total * g.dt * float(np.prod(g.ds))))
    partners = var[..., 1 : (g.shape[-1] + 1) // 2].sum()
    mass_fraction = float(var.sum() + partners) / m.variance()

    rng = np.random.Generator(np.random.Philox(g.seed))
    spec = _half_spectrum_draws(rng, g)
    scale = 2.0 * var
    scale[..., [0, -1] if g.shape[-1] % 2 == 0 else [0]] *= 2.0
    spec *= np.sqrt(scale)
    for axis in range(g.dim):
        np.fft.ifft(spec, axis=axis, out=spec)
    z = np.fft.irfft(spec, n=g.shape[-1], axis=-1)
    z *= 0.5 * g.n_total
    if m.nugget > 0.0:
        noise = rng.standard_normal(g.shape)
        noise *= np.sqrt(m.nugget)
        z += noise
    return z, mass_fraction


_BLOCK_GRIDS = (
    (2,), (3,), (4,), (5,), (8,), (9,),
    (2, 9), (9, 2), (3, 8), (8, 3), (4, 5), (5, 4),
    (2, 3, 4), (9, 8, 5), (5, 2, 9), (4, 9, 3), (3, 4, 8),
)


@pytest.mark.parametrize("nugget", [0.0, 0.3], ids=["no-nugget", "nugget"])
@pytest.mark.parametrize("slices", [1, 3, None], ids=["one-slice", "three-slice", "one-block"])
def test_blocks_reproduce_the_whole_array_synthesis(monkeypatch, slices, nugget):
    # a block boundary may fall anywhere in the time axis; every bin, the
    # spectral mass and the noise keep their bits
    monkeypatch.setattr(simulate, "_BLOCK_SHARE", 64)  # above every nt here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTruncationWarning)
        for ns, nt in itertools.product(_BLOCK_GRIDS, (2, 3, 4, 7, 8, 11)):
            block = 8 * math.prod(ns) * (slices or nt)
            monkeypatch.setattr(simulate, "_BLOCK_BYTES", block)
            params = LdhoParams.from_damped_frequency(
                1.0, 1.0, 2.0, Regime.UNDERDAMPED, 1.0, 0.3, dim=len(ns)
            )
            m = KernelModel(params, nugget=nugget)
            g = GridSpec(ns=ns, ds=(0.5,) * len(ns), nt=nt, dt=0.25, seed=len(ns) + nt)
            f = simulate_field(m, g)
            z, mass_fraction = _whole_array_synthesis(m, g)
            assert f.values.flags.c_contiguous, (ns, nt)
            assert f.values.tobytes() == z.tobytes(), (ns, nt)
            assert f.provenance["spectral_mass_fraction"] == mass_fraction, (ns, nt)


def test_provenance_records_the_recipe():
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=32, dt=0.25, seed=5)
    f = simulate_field(KernelModel(LOOP_PARAMS, nugget=0.1), g)
    assert f.provenance["seed"] == 5
    assert f.provenance["generator"] == "numpy.random.Philox"
    # a field recorded without this entry read the stream in another order
    assert f.provenance["draws"] == (
        "half-spectrum complex normals (Re, Im interleaved, C order), then nugget noise"
    )
    assert f.provenance["model"] == KernelModel(LOOP_PARAMS, nugget=0.1).to_dict()
    assert f.provenance["spectral_mass_fraction"] >= 0.99


def test_single_realization_variance_and_correlation():
    g = GridSpec(ns=(64, 64), ds=(1.0, 1.0), nt=128, dt=0.25, seed=12)
    m = KernelModel(LOOP_PARAMS, nugget=0.1)
    f = simulate_field(m, g)
    total = m.variance() + m.nugget
    sample_var = float(np.var(f.values))
    assert abs(sample_var - total) <= 0.10 * total

    rho_hat = empirical_covariance(f, [(0.0, 1.0, 0.0)])[0] / sample_var
    rho = float(ldho_kernel(LOOP_PARAMS, 1.0, 0.0)) / total
    assert abs(rho_hat - rho) <= 0.05


def test_coarse_grid_triggers_truncation_warning():
    wide = KernelModel(LdhoParams(1.0, 1.0, 2.0, 0.05, 0.0))
    g = GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=16, dt=0.25, seed=3)
    with pytest.warns(SpectralTruncationWarning):
        simulate_field(wide, g)


def test_excess_spectral_mass_triggers_truncation_warning():
    # aliasing can also push the discrete mass, which is the field's node
    # variance, above the model variance
    g = GridSpec(ns=(8, 6), ds=(1.0, 1.0), nt=24, dt=0.25, seed=3)
    with pytest.warns(SpectralTruncationWarning, match="101.57%"):
        f = simulate_field(LOOP_MODEL, g)
    assert f.provenance["spectral_mass_fraction"] > 1.01


def test_twenty_seed_fidelity_against_target_kernel():
    g0 = GridSpec(ns=(32, 32), ds=(1.0, 1.0), nt=96, dt=0.25)
    lags = [
        (0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, 1.0),
        (0.0, 2.0, 0.0),
        (0.25, 0.0, 0.0),
        (0.5, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.25, 1.0, 0.0),
        (0.5, 1.0, 1.0),
        (0.75, 2.0, 1.0),
    ]
    # the divide-by-N estimator tapers each lag by prod(1 - |h_i|/n_i);
    # undo that factor so the comparison targets the kernel itself
    taper = []
    for tau, s1, s2 in lags:
        shifts = (tau / g0.dt, s1 / g0.ds[0], s2 / g0.ds[1])
        factor = 1.0
        for h, n in zip(shifts, (g0.nt,) + g0.ns):
            factor *= 1.0 - abs(round(h)) / n
        taper.append(factor)
    taper = np.asarray(taper)

    estimates = []
    for seed in range(20):
        g = GridSpec(ns=g0.ns, ds=g0.ds, nt=g0.nt, dt=g0.dt, seed=seed)
        f = simulate_field(LOOP_MODEL, g)
        estimates.append(empirical_covariance(f, lags) / taper)
    estimates = np.asarray(estimates)
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(estimates.shape[0])
    target = np.array(
        [float(ldho_kernel(LOOP_PARAMS, math.hypot(s1, s2), tau)) for tau, s1, s2 in lags]
    )
    assert np.all(np.abs(mean - target) <= 4.0 * se)


def test_white_noise_has_flat_empirical_covariance():
    # a vanishing continuous part leaves only the nugget channel
    tiny = KernelModel(LdhoParams(1e-12, 1.0, 2.0, 1.0, 0.0), nugget=1.0)
    g = GridSpec(ns=(32, 32), ds=(1.0, 1.0), nt=32, dt=0.5, seed=17)
    f = simulate_field(tiny, g)
    for lag in [(0.0, 1.0, 0.0), (0.5, 0.0, 0.0), (1.0, 2.0, 1.0)]:
        n_pairs = 1
        for h, n in zip(lag, (g.nt,) + g.ns):
            steps = round(h / (g.dt if n == g.nt else 1.0))
            n_pairs *= n - abs(steps)
        est = empirical_covariance(f, [lag])[0]
        assert abs(est) <= 3.0 / math.sqrt(n_pairs)


# ---------------------------------------------------------------------------
# empirical covariance
# ---------------------------------------------------------------------------


def test_empirical_covariance_matches_hand_loop():
    # the product-sum follows the grid's rank: cover 1, 2 and 3 spatial axes,
    # with shifts of either sign on every axis
    cases = [
        ((6,), [(1, 0), (0, 2), (-2, 3), (3, -5)]),
        ((4, 3), [(1, 0, 0), (0, 2, 0), (0, 0, 1), (2, 1, -1), (-1, -2, 1)]),
        ((3, 4, 2), [(1, 0, 0, 0), (0, -2, 3, 1), (-3, 1, -1, -1), (2, 2, 0, -1)]),
    ]
    rng = np.random.default_rng(8)
    for ns, shifts in cases:
        g = GridSpec(ns=ns, ds=(1.0, 0.5, 2.0)[: len(ns)], nt=5, dt=0.25)
        values = rng.normal(0.0, 1.0, g.shape)
        f = FieldRealization(values=values, grid=g, provenance={})
        z = values - values.mean()
        steps = (g.dt,) + g.ds

        for shift in shifts:
            lag = tuple(h * step for h, step in zip(shift, steps))
            acc = 0.0
            for i in itertools.product(*(range(n) for n in g.shape)):
                j = tuple(a + h for a, h in zip(i, shift))
                if all(0 <= b < n for b, n in zip(j, g.shape)):
                    acc += z[i] * z[j]
            expected = acc / g.n_total
            got = empirical_covariance(f, [lag])[0]
            assert got == pytest.approx(expected, rel=1e-12), (ns, shift)


def test_empirical_covariance_zero_lag_is_sample_variance():
    rng = np.random.default_rng(21)
    g = GridSpec(ns=(6, 6), ds=(1.0, 1.0), nt=8, dt=0.5)
    values = rng.normal(0.0, 2.0, g.shape)
    f = FieldRealization(values=values, grid=g, provenance={})
    got = empirical_covariance(f, [(0.0, 0.0, 0.0)])[0]
    assert got == pytest.approx(float(np.var(values)), rel=1e-12)


def test_empirical_covariance_lag_validation():
    g = GridSpec(ns=(6, 6), ds=(1.0, 1.0), nt=8, dt=0.5)
    f = FieldRealization(values=np.zeros(g.shape), grid=g, provenance={})
    with pytest.raises(LagOutOfRange):
        empirical_covariance(f, [(0.3, 0.0, 0.0)])  # not a step multiple
    with pytest.raises(LagOutOfRange):
        empirical_covariance(f, [(0.0, 6.0, 0.0)])  # beyond the axis
    with pytest.raises(LagOutOfRange):
        empirical_covariance(f, [(0.0, 1.0)])  # wrong arity
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(LagOutOfRange, match="non-finite"):
            empirical_covariance(f, [(0.0, bad, 0.0)])
        with pytest.raises(LagOutOfRange, match="non-finite"):
            empirical_covariance(f, [(bad, 0.0, 0.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_covariance_rejects_a_non_finite_field(bad):
    g = GridSpec(ns=(6, 6), ds=(1.0, 1.0), nt=8, dt=0.5)
    values = np.zeros(g.shape)
    values[3, 1, 4] = bad
    f = FieldRealization(values=values, grid=g, provenance={})
    with pytest.raises(DomainError, match="non-finite"):
        empirical_covariance(f, [(0.0, 0.0, 0.0)])


# ---------------------------------------------------------------------------
# file interchange
# ---------------------------------------------------------------------------


def test_field_write_load_round_trip(tmp_path):
    # a grid that holds the model's spectral mass to within 1%, so the round
    # trip runs without a truncation warning
    g = GridSpec(ns=(10, 8), ds=(1.0, 1.0), nt=12, dt=0.5, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpectralTruncationWarning)
        f = simulate_field(KernelModel(LOOP_PARAMS, nugget=0.05), g)
    bin_path = str(tmp_path / "field.bin")
    sidecar = write_field(f, bin_path)
    assert sidecar.endswith(".json")
    again = load_field(bin_path)
    assert np.array_equal(again.values, f.values)
    assert again.grid == f.grid
    assert again.provenance == f.provenance


def test_field_load_errors(tmp_path):
    g = GridSpec(ns=(4, 4), ds=(1.0, 1.0), nt=4, dt=0.5)
    f = FieldRealization(values=np.zeros(g.shape), grid=g, provenance={})
    bin_path = str(tmp_path / "field.bin")
    write_field(f, bin_path)

    orphan = str(tmp_path / "orphan.bin")
    with open(orphan, "wb") as fh:
        fh.write(b"\x00" * 64)
    with pytest.raises(DomainError):
        load_field(orphan)

    with open(bin_path, "wb") as fh:
        fh.write(b"\x00" * 8)  # truncated payload
    with pytest.raises(DomainError):
        load_field(bin_path)

    values = np.zeros(g.shape)
    values[1, 2, 3] = np.nan
    values.astype("<f8").tofile(bin_path)
    with pytest.raises(DomainError, match="not all finite"):
        load_field(bin_path)

    # a sidecar without its grid or shape, with a non-finite step (json
    # writes and reads Infinity and NaN), a fractional or non-finite count,
    # a shape off its grid, or a layout write_field never writes
    sidecar_path = write_field(f, bin_path)
    with open(sidecar_path) as fh:
        good = fh.read()
    for edit in (
        lambda side: side.pop("grid"),
        lambda side: side.pop("shape"),
        lambda side: side["grid"].update(dt=math.inf),
        lambda side: side["grid"].update(ds=[1.0, math.nan]),
        lambda side: side["grid"].update(seed=-3),
        lambda side: side["grid"].update(seed=2.5),
        lambda side: side["grid"].update(ns=[4.5, 4]),
        lambda side: side["grid"].update(nt=math.nan),
        lambda side: side.update(shape=[4, 4, 5]),
        lambda side: side.update(dtype=">f4"),
        lambda side: side.update(order="F"),
        lambda side: side.pop("dtype"),
    ):
        sidecar = json.loads(good)
        edit(sidecar)
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh)
        with pytest.raises(DomainError, match=re.escape(sidecar_path)):
            load_field(bin_path)

    # integral floats are the same counts, in the shape as in the grid
    sidecar = json.loads(good)
    sidecar["shape"] = [float(n) for n in sidecar["shape"]]
    sidecar["grid"]["ns"] = [float(n) for n in sidecar["grid"]["ns"]]
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh)
    loaded = load_field(bin_path)
    assert loaded.values.shape == g.shape and loaded.grid == g
    with open(sidecar_path, "w") as fh:
        fh.write(good)
    assert np.array_equal(loaded.values, load_field(bin_path).values)
