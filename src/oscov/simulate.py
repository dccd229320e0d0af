"""Spectral (FFT) simulation of Gaussian space-time fields on regular grids.

The synthesis samples the model's spectral density on the discrete
(k, omega) grid.  It draws one complex standard normal ``c = a + i b`` per
bin of the half spectrum (the last axis cut to ``n // 2 + 1`` bins) and
builds the Hermitian spectrum

    H(k) = sqrt(var(k) / 2) * c(k),                    0 < k_last < n/2,
    H(k) = sqrt(var(k)) / 2 * (c(k) + conj(c(-k))),    k_last in {0, n/2},

with ``H(-k) = conj(H(k))`` and ``-k`` taken modulo each axis length
(``var`` is even in k).  The field is ``N_total * ifftn(H)``, which is real;
every bin of the full grid gets ``E|H(k)|^2 = var(k)``.  The per-node
variance is the Riemann cell of the spectral representation,

    var(k, omega) = C~(k, omega) * dk^d * dw / (2 pi)^(d+1)
                  = C~(k, omega) / (N_total * dt * prod(ds)),

and its sum over the grid (the discrete spectral mass) is the field's
variance at every node.  The lattice covariance of the output is
``N_total * Re ifftn(var)``, which converges to the model kernel as the
grid grows and refines.  Nugget noise is added independently per node.

The half spectrum is allocated first and becomes the field's buffer; the
draws go straight into it.  The variances are filled a block of time
slices at a time; the inverse FFT runs in place on every axis but the
last, and the last pass, whose ``irfft`` keeps only the Hermitian part of
the 0 and Nyquist planes, runs a block at a time, its output closed up into
the rows already read.  So a synthesis holds the spectrum and its
variances, never a full grid of draws.

Realizations are reproducible byte-for-byte: the generator is the
counter-based Philox engine seeded from the grid spec, and the draw order
(the half spectrum's complex amplitudes, Re and Im interleaved per bin in
C order, then nugget noise in C order) is fixed and recorded in the
provenance.  The nugget draws come a block at a time, which only splits
the stream, so the field does not depend on the block size.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LagOutOfRange, SpectralTruncationWarning
from .kernel_core import KernelModel
from .spectral import st_spectral_density

import warnings

__all__ = [
    "GridSpec",
    "FieldRealization",
    "simulate_field",
    "empirical_covariance",
    "write_field",
    "load_field",
]

_GENERATOR_NAME = "numpy.random.Philox"
# the order in which the synthesis reads the generator's stream; a field
# recorded without it was drawn in another order and does not regenerate
_DRAW_ORDER = "half-spectrum complex normals (Re, Im interleaved, C order), then nugget noise"

# Relative gap between the discrete spectral mass and the closed-form variance
# beyond which the grid is flagged as unfit for the model.
_TRUNCATION_TOL = 0.01

# Block size of the synthesis's time pass (see _time_blocks): small enough to
# keep one block's temporaries far below the field, large enough that each
# block's numpy calls work on about a megabyte.
_BLOCK_SHARE = 16
_BLOCK_BYTES = 1 << 20


def _integral(value) -> bool:
    real = isinstance(value, numbers.Real)
    return isinstance(value, numbers.Integral) or (real and float(value).is_integer())


@dataclass(frozen=True)
class GridSpec:
    """A regular space-time grid with sampling steps and an RNG seed.

    Parameters
    ----------
    ns : tuple of int
        Node counts along each spatial axis (1 to 3 axes, each >= 2).
    ds : tuple of float
        Spacing along each spatial axis.
    nt : int
        Number of time steps (>= 2).
    dt : float
        Time step.
    seed : int
        Seed for the counter-based generator.
    """

    ns: tuple[int, ...]
    ds: tuple[float, ...]
    nt: int
    dt: float
    seed: int = 0

    def __post_init__(self):
        raw_ns = tuple(np.atleast_1d(self.ns).tolist())
        for name, counts in (("ns", raw_ns), ("nt", (self.nt,))):
            if not all(_integral(n) for n in counts):  # int() would truncate 2.5
                raise DomainError(f"{name} must hold whole node counts, got {counts!r}")
        ns = tuple(int(n) for n in raw_ns)
        ds = tuple(float(s) for s in np.atleast_1d(self.ds))
        if not 1 <= len(ns) <= 3:
            raise DomainError(f"grids support 1 to 3 spatial axes, got {len(ns)}")
        if len(ds) != len(ns):
            raise DomainError(
                f"{len(ns)} spatial counts but {len(ds)} spacings"
            )
        if any(n < 2 for n in ns) or int(self.nt) < 2:
            raise DomainError("every grid axis needs at least 2 nodes")
        if not all(0.0 < s < math.inf for s in ds + (float(self.dt),)):
            raise DomainError("grid spacings must be positive and finite")
        seed = self.seed
        if not _integral(seed) or seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "ds", ds)
        object.__setattr__(self, "nt", int(self.nt))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "seed", int(seed))

    @property
    def dim(self) -> int:
        return len(self.ns)

    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape of a realization, time axis first."""
        return (self.nt,) + self.ns

    @property
    def n_total(self) -> int:
        return int(np.prod(self.shape))

    def to_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "ds": list(self.ds),
            "nt": self.nt,
            "dt": self.dt,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        try:
            return cls(
                ns=tuple(data["ns"]),
                ds=tuple(data["ds"]),
                nt=data["nt"],
                dt=data["dt"],
                seed=data.get("seed", 0),
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed grid description: {exc}") from exc


@dataclass(frozen=True)
class FieldRealization:
    """One synthesized field with everything needed to regenerate it."""

    values: np.ndarray = field(repr=False)
    grid: GridSpec
    provenance: dict

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DomainError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)


def _node_variances(m: KernelModel, g: GridSpec, rows: slice) -> np.ndarray:
    """Per-node spectral variances of the time slices ``rows``, in FFT order,
    the last axis cut to ``n // 2 + 1`` bins.

    The density's temporaries are the size of the slices asked for, so a
    caller filling the half spectrum block by block never holds a full-grid
    one.  Each node's value does not depend on the range it comes in.
    """
    omega = 2.0 * np.pi * np.fft.fftfreq(g.nt, g.dt)[rows]
    ks = [2.0 * np.pi * np.fft.fftfreq(n, s) for n, s in zip(g.ns, g.ds)]
    ks[-1] = ks[-1][: g.ns[-1] // 2 + 1]
    mesh = np.meshgrid(*ks, indexing="ij")
    k_mag = np.sqrt(sum(km * km for km in mesh))
    dens = st_spectral_density(m.params, k_mag[None, ...], omega.reshape((-1,) + (1,) * g.dim))
    cell = 1.0 / (g.n_total * g.dt * float(np.prod(g.ds)))
    return np.asarray(dens, dtype=float) * cell


def _time_blocks(g: GridSpec):
    """Consecutive ranges of time slices, each about ``1/_BLOCK_SHARE`` of
    the time axis but at least ``_BLOCK_BYTES`` of float64 slices."""
    slice_bytes = 8 * math.prod(g.ns)
    size = max(-(-g.nt // _BLOCK_SHARE), -(-_BLOCK_BYTES // slice_bytes))
    return [slice(t, min(t + size, g.nt)) for t in range(0, g.nt, size)]


def simulate_field(m: KernelModel, g: GridSpec) -> FieldRealization:
    """Draw one zero-mean Gaussian field with target covariance ``m``.

    Returns
    -------
    FieldRealization
        Values of shape ``(nt, *ns)`` (C-order, time axis first) plus
        provenance: model, grid, seed, generator identity, draw order and
        the discrete spectral mass as a fraction of the closed-form
        variance.  The field reads one complex normal per half-spectrum
        bin, then one normal per node when the model has a nugget.  The
        values are a view of the half spectrum's buffer, which holds
        ``2 * (n // 2 + 1) / n`` of their bytes for ``n = ns[-1]``
        (``(n + 2) / n`` for even ``n``).

    Warns
    -----
    SpectralTruncationWarning
        When the discrete spectral mass, which is the field's variance at
        every node, differs from the model variance by more than 1%: the
        grid is too coarse or too small for the model.
    """
    # the synthesis samples the full model's spectral density; a surrogate has none
    if m.surrogate:
        raise DomainError("cannot simulate a separable surrogate model")
    if m.dim != g.dim:
        raise DomainError(
            f"model is {m.dim}-dimensional but the grid has {g.dim} spatial axes"
        )
    half = g.shape[:-1] + (g.shape[-1] // 2 + 1,)
    spec = np.empty(half, dtype=complex)  # allocated first: it becomes the field
    blocks = _time_blocks(g)
    var = np.empty(half)
    for rows in blocks:
        var[rows] = _node_variances(m, g, rows)
    # last-axis bins between 0 and the Nyquist also stand for their -k partners
    partners = var[..., 1 : (g.shape[-1] + 1) // 2].sum()
    mass_fraction = float(var.sum() + partners) / m.variance()
    if abs(mass_fraction - 1.0) > _TRUNCATION_TOL:
        warnings.warn(
            f"discrete spectrum holds {100 * mass_fraction:.2f}% of the model "
            "variance; the grid is too coarse or too small for this model",
            SpectralTruncationWarning,
        )

    rng = np.random.Generator(np.random.Philox(g.seed))
    rng.standard_normal(out=spec.view(float))  # one complex normal per bin
    # a bin between 0 and the Nyquist on the last axis also stands for its
    # conjugate at -k, so it takes sqrt(2 var); the last irfft pass keeps only
    # the Hermitian part (H(k) + conj H(-k)) / 2 of the last axis's 0 and
    # Nyquist planes, which halves their draws' variance, so they take 2 sqrt(var)
    var *= 2.0
    var[..., 0] *= 2.0
    if g.shape[-1] % 2 == 0:
        var[..., -1] *= 2.0
    spec *= np.sqrt(var, out=var)
    del var
    # irfftn's own passes, each in place but the last
    for axis in range(g.dim):
        np.fft.ifft(spec, axis=axis, out=spec)
    # the last pass runs block by block; a block's output lands in the
    # spectrum's own buffer below the rows not yet transformed, closed up
    # into a C-order field
    z = spec.view(float).reshape(-1)[: g.n_total].reshape(g.shape)
    for rows in blocks:
        # the 1/2 of H joins the inverse transform's scale
        np.multiply(np.fft.irfft(spec[rows], n=g.shape[-1], axis=-1), 0.5 * g.n_total, out=z[rows])
    del spec
    if m.nugget > 0.0:
        # drawn a block at a time and scaled in place
        draw = np.empty((blocks[0].stop,) + g.ns)
        for rows in blocks:
            noise = draw[: rows.stop - rows.start]
            rng.standard_normal(out=noise)
            noise *= np.sqrt(m.nugget)
            z[rows] += noise

    provenance = {
        "model": m.to_dict(),
        "grid": g.to_dict(),
        "seed": g.seed,
        "generator": _GENERATOR_NAME,
        "draws": _DRAW_ORDER,
        "spectral_mass_fraction": mass_fraction,
    }
    return FieldRealization(values=z, grid=g, provenance=provenance)


def _grid_steps(lags, step):
    """Lags in whole grid steps (floats, half to even), and whether each lies
    off the grid: more than 1e-9 max(1, |ratio|) away."""
    ratio = np.asarray(lags, dtype=float) / step
    steps = np.round(ratio)
    return steps, np.abs(ratio - steps) > 1e-9 * np.maximum(1.0, np.abs(ratio))


def _lag_to_shift(lag, g: GridSpec) -> tuple[int, ...]:
    lag = np.atleast_1d(np.asarray(lag, dtype=float))
    if lag.size != g.dim + 1:
        raise LagOutOfRange(
            f"lag needs {g.dim + 1} components (tau, then {g.dim} spatial), "
            f"got {lag.size}"
        )
    if not np.all(np.isfinite(lag)):
        raise LagOutOfRange(f"lag {lag.tolist()} has a non-finite component")
    steps = (g.dt,) + g.ds
    shift, off = _grid_steps(lag, np.array(steps))
    shift = [int(h) for h in shift]
    for value, step, count, h, bad in zip(lag, steps, (g.nt,) + g.ns, shift, off):
        if bad:
            raise LagOutOfRange(
                f"lag component {value} is not a multiple of grid step {step}"
            )
        if abs(h) >= count:
            raise LagOutOfRange(
                f"lag component {value} spans {abs(h)} steps but the axis "
                f"has only {count} nodes"
            )
    return tuple(shift)


def empirical_covariance(f: FieldRealization, lags) -> np.ndarray:
    """Biased stationary covariance estimates at grid-aligned lags.

    Each lag is a tuple ``(tau, r1, ..., rd)`` in physical units, which must
    be integer multiples of the grid steps.  The estimate at each lag sums
    the products of sample-mean-centered values over all in-grid pairs and
    divides by the total node count (the biased convention, which keeps the
    lag-covariance sequence positive semidefinite).

    Raises
    ------
    DomainError
        When the field holds a non-finite value.
    LagOutOfRange
        When a lag is non-finite, off the grid steps or beyond an axis.
    """
    g = f.grid
    mean = f.values.mean()
    # one NaN or infinity makes the mean non-finite, so this costs no extra pass
    if not math.isfinite(mean):
        raise DomainError("field holds non-finite values")
    z = f.values - mean
    n_total = g.n_total
    # one fused product-sum over the two overlapping views, no product array
    axes = "tijk"[: z.ndim]
    subscripts = f"{axes},{axes}->"
    out = np.empty(len(lags), dtype=float)
    for i, lag in enumerate(lags):
        shift = _lag_to_shift(lag, g)
        head = []
        tail = []
        for h, count in zip(shift, (g.nt,) + g.ns):
            if h >= 0:
                head.append(slice(None, count - h))
                tail.append(slice(h, None))
            else:
                head.append(slice(-h, None))
                tail.append(slice(None, count + h))
        out[i] = float(np.einsum(subscripts, z[tuple(head)], z[tuple(tail)])) / n_total
    return out


# ---------------------------------------------------------------------------
# binary field interchange
# ---------------------------------------------------------------------------


def _sidecar_path(bin_path: str) -> str:
    root, _ = os.path.splitext(bin_path)
    return root + ".json"


def write_field(f: FieldRealization, bin_path: str) -> str:
    """Write a realization as flat little-endian float64 plus a JSON sidecar.

    The binary holds the values in C order with the time axis major.  The
    sidecar (same name, ``.json`` extension) carries the grid, provenance,
    and shape needed to reload.  Returns the sidecar path.
    """
    values = np.ascontiguousarray(f.values, dtype="<f8")
    with open(bin_path, "wb") as fh:
        values.tofile(fh)
    sidecar = {
        "binary": os.path.basename(bin_path),
        "dtype": "<f8",
        "order": "C",
        "shape": list(f.grid.shape),
        "grid": f.grid.to_dict(),
        "provenance": f.provenance,
    }
    sidecar_path = _sidecar_path(bin_path)
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar_path


def load_field(bin_path: str) -> FieldRealization:
    """Reload a realization written by :func:`write_field`."""
    sidecar_path = _sidecar_path(bin_path)
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
    except FileNotFoundError as exc:
        raise DomainError(f"missing field sidecar {sidecar_path}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{sidecar_path}: sidecar does not parse: {exc}") from exc
    try:
        grid = GridSpec.from_dict(sidecar["grid"])
        shape = tuple(sidecar["shape"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"{sidecar_path}: sidecar lacks its grid or shape: {exc!r}") from exc
    except DomainError as exc:
        raise DomainError(f"{sidecar_path}: {exc}") from exc
    if shape != grid.shape:
        raise DomainError(
            f"{sidecar_path}: sidecar shape {shape} disagrees with its grid {grid.shape}"
        )
    layout = (sidecar.get("dtype"), sidecar.get("order"))
    if layout != ("<f8", "C"):  # the only layout write_field writes
        raise DomainError(f"{sidecar_path}: sidecar layout {layout} is not ('<f8', 'C')")
    raw = np.fromfile(bin_path, dtype="<f8")
    if raw.size != grid.n_total:
        raise DomainError(
            f"{bin_path}: {raw.size} values on disk but the sidecar says {grid.n_total}"
        )
    if not np.all(np.isfinite(raw)):
        raise DomainError(f"{bin_path}: field values are not all finite")
    # the grid's counts are ints; the sidecar's may be integral floats
    values = raw.reshape(grid.shape)
    return FieldRealization(
        values=values, grid=grid, provenance=sidecar.get("provenance", {})
    )
