"""Gaussian-process regression on space-time data with oscillator kernels.

The module covers the dense, desk-scale workflow: build the Gram matrix of a
covariance model over scattered space-time points, factorize it, and compute
conditional means and variances at query points; :class:`Posterior` keeps one
factorization for any number of query batches.  A point set is a dataset, an
``(m, d + 1)`` table whose rows are ``s1, ..., sd, t``, or a sequence of
:class:`SpaceTimePoint`.

The process mean is a known constant; estimating it is out of scope, as are
sparse or inducing-point approximations.
"""

from __future__ import annotations

import csv
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    IllConditionedWarning,
    JitterWarning,
    NegativeVariance,
    NotPositiveDefinite,
)
from .kernel_core import KernelModel, euclidean_length

__all__ = [
    "SpaceTimePoint",
    "SpaceTimeDataset",
    "GramMatrix",
    "gram",
    "Posterior",
    "predict",
    "load_dataset_csv",
    "write_predictions_csv",
]

# Relative tolerance used to flag coincident sample points when the model has
# no nugget to absorb them.
_DUPLICATE_RTOL = 1e-12

# Predictive variances may undershoot zero by a tiny amount through rounding;
# anything below -_VARIANCE_SLACK * prior variance is treated as a failure.
_VARIANCE_SLACK = 1e-10

# Reciprocal condition numbers below this are reported: healthy Grams measure
# 1e-10 and above, two points 1e-9 apart under a smooth kernel 4e-17.
_RCOND_FLOOR = 1e-12


@dataclass(frozen=True)
class SpaceTimePoint:
    """A location ``s`` in R^d paired with a time instant ``t``; a location
    that is not a flat vector of numbers, or a non-numeric or non-finite
    coordinate or time, raises :class:`DomainError`."""

    s: tuple[float, ...]
    t: float

    def __post_init__(self):
        try:
            s = np.atleast_1d(np.asarray(self.s, dtype=float))
            t = float(self.t)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"space-time point ({self.s!r}, {self.t!r}) is not numeric") from exc
        if s.ndim != 1 or s.size == 0:
            raise DomainError(
                f"a space-time point needs a flat vector of spatial coordinates, got {self.s!r}"
            )
        coords = tuple(s.tolist())
        if not np.all(np.isfinite(coords + (t,))):
            raise DomainError(f"space-time point ({coords}, {self.t}) is not finite")
        object.__setattr__(self, "s", coords)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return len(self.s)


@dataclass(frozen=True, eq=False)
class SpaceTimeDataset:
    """Observations ``z_i`` of a weakly stationary field at scattered points.

    The arrays are validated once (non-finite entries raise
    :class:`DomainError`), copied, and stored read-only.

    Parameters
    ----------
    coords : array of shape (n, d)
        Sample locations, one row per observation.
    times : array of shape (n,)
        Sample times.
    values : array of shape (n,)
        Observed values.
    mean : float, optional
        Known constant mean of the process.  Defaults to zero.

    Notes
    -----
    Coincident points are legal only for models with a positive nugget;
    :func:`predict` enforces this because the nugget lives on the model,
    not on the data.
    """

    coords: np.ndarray
    times: np.ndarray
    values: np.ndarray
    mean: float = 0.0

    def __post_init__(self):
        coords = np.atleast_2d(np.array(self.coords, dtype=float))
        times = np.array(self.times, dtype=float).ravel()
        values = np.array(self.values, dtype=float).ravel()
        n = times.size
        if n == 0:
            raise DomainError("a dataset needs at least one observation")
        if coords.ndim != 2 or coords.shape[1] == 0:
            raise DomainError("coordinates must be an (n, d) array with d >= 1")
        if coords.shape[0] != n:
            raise DimensionMismatch(f"{coords.shape[0]} coordinate rows but {n} times")
        if values.size != n:
            raise DomainError(f"{n} points but {values.size} values; they must pair up")
        mean = float(self.mean)
        if not np.isfinite(mean):
            raise DomainError(f"dataset mean {mean} is not finite")
        for name, arr in (("coords", coords), ("times", times), ("values", values)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"dataset {name} are not all finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mean", mean)

    def __len__(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def stations(self) -> "StationTable | None":
        """The dataset's sites x times structure, or ``None`` where it does not pay.

        Built on first use and kept; see :class:`StationTable`.
        """
        return _station_table(self.coords, self.times)

    @cached_property
    def station_values(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """The values as an S x T table over :attr:`stations`, zero in the
        unobserved cells, and the S x T mask of the observed cells; ``None``
        where there is no station table.

        Built on first use and kept, read-only.
        """
        table = self.stations
        if table is None:
            return None
        shape = (table.sites.shape[0], table.times.size)
        z, seen = np.zeros(shape), np.zeros(shape, dtype=bool)
        z[table.site_of, table.time_of] = self.values
        seen[table.site_of, table.time_of] = True
        z.setflags(write=False)
        seen.setflags(write=False)
        return z, seen

    @classmethod
    def from_arrays(cls, coords, times, values, mean: float = 0.0) -> "SpaceTimeDataset":
        """Build a dataset from an ``(n, d)`` coordinate array and flat vectors."""
        return cls(coords, times, values, mean)


@dataclass(frozen=True, eq=False)
class StationTable:
    """Scattered points as fixed sites sampled at shared times.

    Point ``i`` is the cell ``(site_of[i], time_of[i])`` of a sites x times
    table, and the time pair ``(p, q)`` lies ``lags[lag_of[p, q]]`` apart.
    Every point pair's lag is a site-pair distance paired with one of the U
    distinct gaps ``|times[p] - times[q]|``, so pair statistics cost
    O(S^2 U) instead of O(n^2).

    Attributes
    ----------
    sites : array of shape (S, d)
        The distinct sample locations.
    site_of, time_of : int arrays of shape (n,)
        Each point's row in ``sites`` and in ``times``.
    times : array of shape (T,)
        The distinct sample times, ascending.
    lags : array of shape (U,)
        The distinct time gaps between them, ascending.
    lag_of : int array of shape (T, T)
        The index in ``lags`` of each time pair's gap.
    """

    sites: np.ndarray
    site_of: np.ndarray
    times: np.ndarray
    time_of: np.ndarray
    lags: np.ndarray
    lag_of: np.ndarray


def _station_table(coords: np.ndarray, times: np.ndarray) -> StationTable | None:
    """The station table of a point set, if it has fewer site-pair x lag
    cells than point pairs (``S^2 U < n(n-1)/2``) and no repeated cell.

    ``S^2 T`` bounds ``S^2 U`` from below, so data without station structure
    are turned away after two ``np.unique`` calls, before any T x T table.
    """
    n = times.size
    pairs = n * (n - 1) // 2
    sites, site_of = np.unique(coords, axis=0, return_inverse=True)
    uniq, time_of = np.unique(times, return_inverse=True)
    site_of, time_of = site_of.ravel(), time_of.ravel()
    n_sites = sites.shape[0]
    if n_sites * n_sites * uniq.size >= pairs:
        return None
    if np.unique(site_of * uniq.size + time_of).size < n:
        return None  # coincident points: cells cannot hold them apart
    lags, lag_of = np.unique(np.abs(uniq[:, None] - uniq[None, :]), return_inverse=True)
    if n_sites * n_sites * lags.size >= pairs:
        return None
    return StationTable(sites, site_of, uniq, time_of, lags, lag_of.reshape(uniq.size, -1))


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric covariance matrix of a point set under one model."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"Gram matrix must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _arrays(points) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and times of a dataset, of a sequence of SpaceTimePoint,
    or of an ``(m, d + 1)`` table whose rows are ``s1, ..., sd, t``.

    A table's coordinates and times are its views ``[:, :-1]`` and
    ``[:, -1]``; one that is not 2-D, has no rows or fewer than two columns,
    is not numeric or holds a non-finite entry raises :class:`DomainError`.
    """
    if isinstance(points, SpaceTimeDataset):
        return points.coords, points.times
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] < 2:
            raise DomainError(
                f"a point table must be (m, d + 1) with m >= 1 and d >= 1, "
                f"got shape {points.shape}"
            )
        if points.dtype.kind not in "iuf":
            raise DomainError(f"a point table must be numeric, got dtype {points.dtype}")
        table = points.astype(float, copy=False)
        if not np.all(np.isfinite(table)):
            raise DomainError("a point table's entries are not all finite")
        return table[:, :-1], table[:, -1]
    pts = [p if isinstance(p, SpaceTimePoint) else SpaceTimePoint(*p) for p in points]
    if len(pts) == 0:
        raise DomainError("need at least one point")
    dims = sorted({p.dim for p in pts})
    if len(dims) > 1:
        raise DimensionMismatch(f"points mix spatial dimensions {dims[0]} and {dims[-1]}")
    coords = np.array([p.s for p in pts], dtype=float)
    times = np.array([p.t for p in pts], dtype=float)
    return coords, times


def _check_dim(m: KernelModel, coords: np.ndarray, what: str) -> None:
    if coords.shape[1] != m.dim:
        raise DimensionMismatch(
            f"model is {m.dim}-dimensional but {what} points have "
            f"{coords.shape[1]} spatial coordinates"
        )


def gram(m: KernelModel, points) -> GramMatrix:
    """Covariance (Gram) matrix ``K_ij = C(|s_i - s_j|, t_i - t_j)``.

    ``points`` is a :class:`SpaceTimeDataset`, an ``(n, d + 1)`` table whose
    rows are ``s1, ..., sd, t``, or a sequence of :class:`SpaceTimePoint`.
    The kernel runs on the pairs ``i <= j`` in blocks of rows and is
    mirrored, so the result is exactly symmetric; the diagonal holds
    ``m.variance()`` plus the nugget.  Station data (see
    :class:`StationTable`) evaluate the kernel once per site pair and time
    gap instead, and the matrix is gathered from that table, to the same bits.
    """
    coords, times = _arrays(points)
    _check_dim(m, coords, "sample")
    if isinstance(points, SpaceTimeDataset):
        table = points.stations
    else:
        table = _station_table(coords, times)
    if table is None:
        K = np.empty((times.size, times.size))
        for lo, hi, r, tau in _row_blocks(coords, times):
            K[lo:hi, lo:] = m.covariance(r, tau)
            K[hi:, lo:hi] = K[lo:hi, hi:].T
    else:
        K = _gather_gram(m, table)
    np.fill_diagonal(K, m.variance() + m.nugget)
    return GramMatrix(matrix=K)


def _gather_gram(m: KernelModel, table: StationTable) -> np.ndarray:
    """The Gram matrix (diagonal unset) from the kernel on site pairs x time gaps.

    A site pair's distance has the bits of its points' distance, and each
    unordered site pair is evaluated once and mirrored.
    """
    n_sites, n_lags = table.sites.shape[0], table.lags.size
    a, b = np.triu_indices(n_sites)
    r = euclidean_length(table.sites[a], table.sites[b])
    c = np.asarray(
        m.covariance(np.repeat(r, n_lags), np.tile(table.lags, a.size)), dtype=float
    ).reshape(a.size, n_lags)
    cells = np.empty((n_sites, n_sites, n_lags))
    cells[a, b] = c
    cells[b, a] = c
    cells = cells.ravel()
    site, time_of = table.site_of, table.time_of
    # flat offset of cell (site_i, site_j, lag_of[t_i, t_j]): row part, and
    # column part per row time
    row = site * (n_sites * n_lags)
    col = site * n_lags + table.lag_of[:, time_of]
    K = np.empty((site.size, site.size))
    for i in range(site.size):
        K[i] = cells[col[time_of[i]] + row[i]]
    return K


def _row_blocks(coords: np.ndarray, times: np.ndarray):
    """The lags of the point pairs ``i <= j``, a block of rows at a time:
    ``(lo, hi, r, tau)``, the distances and absolute time gaps from the points
    ``lo:hi`` to the points ``lo:``, arrays of shape ``(hi - lo, n - lo)``.
    """
    n = times.size
    step = max(1, (1 << 16) // n)  # about 0.5 MB per lag array
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        r = euclidean_length(coords[lo:hi, None], coords[None, lo:])
        yield lo, hi, r, np.abs(times[lo:hi, None] - times[None, lo:])


def _find_duplicates(coords: np.ndarray, times: np.ndarray) -> tuple[int, int] | None:
    """First pair ``i < j``, in row-major order, of points coinciding within rounding."""
    s_tol = _DUPLICATE_RTOL * (1.0 + float(np.abs(coords).max()))
    t_tol = _DUPLICATE_RTOL * (1.0 + float(np.abs(times).max()))
    for lo, _, r, tau in _row_blocks(coords, times):
        hits = np.flatnonzero(np.triu((r <= s_tol) & (tau <= t_tol), 1))
        if hits.size:
            i, j = divmod(int(hits[0]), r.shape[1])
            return lo + i, lo + j
    return None


def _chol_with_jitter(K: np.ndarray, m: KernelModel):
    """Cholesky factorization with an escalating diagonal jitter, in place.

    The first attempt factorizes ``K`` as assembled (the nugget is already on
    the diagonal).  On failure a jitter is added, starting at the nugget (or
    at 1e-12 C(0,0) for nugget-free models, since escalating from zero goes
    nowhere) and growing tenfold until it would exceed 1e-6 C(0,0).  Beyond
    the ceiling the matrix is declared not positive definite, naming the
    offending pivot (zero-based).

    ``K`` must be exactly symmetric, and C-ordered to be factorized without a
    copy: LAPACK overwrites the lower triangle of ``K.T``, its Fortran-ordered
    view, and never reads or writes the strict upper one.  A retry rebuilds
    ``K + jitter I`` from that untouched triangle and ``K``'s diagonal, kept
    aside, so it factorizes the same bits as a fresh ``K + jitter I``.

    Returns the lower factor ``L`` (its strict upper triangle holds ``K``'s)
    and the jitter it applied; a jitter above zero is reported as a
    :class:`JitterWarning`.  ``L`` is Fortran-ordered, as LAPACK reads it.
    """
    from scipy.linalg.lapack import dpotrf

    a = K.T
    diag = a.diagonal().copy()
    c00 = m.variance()
    jitter = 0.0
    ceiling = 1e-6 * c00
    while True:
        if jitter > 0.0:
            # column j's lower part is row j's upper part, which LAPACK left alone
            for j in range(a.shape[0] - 1):
                a[j + 1:, j] = a[j, j + 1:]
            np.fill_diagonal(a, diag + jitter)
        factor, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            if jitter > 0.0:
                warnings.warn(
                    f"Gram matrix factorized only with a diagonal jitter of "
                    f"{jitter:.3e} ({jitter / c00:.1e} C(0,0))",
                    JitterWarning,
                    stacklevel=3,
                )
            return factor, jitter
        if jitter == 0.0:
            jitter = m.nugget if m.nugget > 0.0 else 1e-12 * c00
        else:
            jitter *= 10.0
        if jitter > ceiling:
            break
    # LAPACK's info is the one-based order of the first minor that failed
    raise NotPositiveDefinite(
        f"Gram matrix is not positive definite (jitter escalated to "
        f"{ceiling:.3e} without success)",
        pivot=info - 1,
    )


class Posterior:
    """The GP posterior of one model conditioned on one dataset.

    Building it checks the data, assembles the Gram matrix ``K``, factorizes
    it as ``K = L L^T`` (with jitter if needed) and solves
    ``alpha = K^{-1} (z - m)``, once, at O(n^3/3); :meth:`predict` then
    serves any number of query batches from the factor.  A batch of m
    queries costs O(n^2 m) through one triangular solve ``v = L^{-1} k*``:
    the variances are ``prior - |v|^2`` (Rasmussen & Williams 2006,
    Algorithm 2.1).  ``L`` overwrites ``K`` in its one n x n buffer, so
    building the posterior peaks at about one Gram matrix.  The posterior
    keeps ``L``, ``alpha``, the prior variance, the dataset's coordinate,
    time and mean arrays and its station table (query distances are then
    taken to the sites alone), but not the dataset itself.

    Attributes
    ----------
    factor : ndarray
        The lower Cholesky factor ``L`` of the (jittered) Gram matrix; its
        strict upper triangle holds no meaning.
    jitter : float
        Diagonal jitter the factorization needed on top of the nugget; 0.0
        for a healthy model.  A jitter above zero is also reported as a
        :class:`JitterWarning`.
    rcond : float
        LAPACK ``dpocon``'s estimate of the reciprocal 1-norm condition
        number of the factorized matrix.  Below 1e-12 the predictions lose
        most of their digits, which is reported as an
        :class:`IllConditionedWarning`.  Its last bits can differ between
        runs on the same data, even on one BLAS thread, so it is compared
        only against that floor, never for equality.
    prior : float
        Prior variance of an observation, ``m.variance() + m.nugget``: the
        Gram diagonal.

    Raises
    ------
    DomainError
        If the data contain coincident points and the model has no nugget.
    NotPositiveDefinite
        If the factorization fails even after jitter escalation.
    """

    def __init__(self, m: KernelModel, data: SpaceTimeDataset):
        # dtrtrs, not solve_triangular: it reads L's lower triangle and scans
        # no operand for non-finite entries (queries are checked by _arrays)
        from scipy.linalg.lapack import dlange, dpocon, dtrtrs

        coords, times = data.coords, data.times
        _check_dim(m, coords, "sample")
        if m.nugget == 0.0:
            pair = _find_duplicates(coords, times)
            if pair is not None:
                raise DomainError(
                    f"data points {pair[0]} and {pair[1]} coincide; with a zero "
                    "nugget the Gram matrix is singular"
                )
        K = gram(m, data).matrix
        # K is symmetric, so K.T is its Fortran-ordered view and LAPACK copies
        # nothing; the norm is taken before the factor overwrites K, and the
        # jitter adds itself to every column sum
        anorm = dlange("1", K.T)
        self.factor, self.jitter = _chol_with_jitter(K, m)
        anorm += self.jitter
        self.rcond = float(dpocon(self.factor, anorm, uplo="L")[0])
        if self.rcond < _RCOND_FLOOR:
            warnings.warn(
                f"Gram matrix is ill-conditioned (reciprocal condition number "
                f"{self.rcond:.1e}); predictions may carry few correct digits",
                IllConditionedWarning,
                stacklevel=2,
            )
        # alpha = L^{-T} (L^{-1} (z - m))
        w = dtrtrs(self.factor, data.values - data.mean, lower=1)[0]
        self.alpha = dtrtrs(self.factor, w, lower=1, trans=1)[0]
        self.prior = m.variance() + m.nugget
        self.model = m
        self.coords, self.times, self.mean = coords, times, data.mean
        self.stations = data.stations

    def predict(self, query) -> tuple[np.ndarray, np.ndarray]:
        """Conditional means and variances at ``query`` (see :func:`predict`)."""
        from scipy.linalg.lapack import dtrtrs

        q_coords, q_times = _arrays(query)
        _check_dim(self.model, q_coords, "query")

        table = self.stations
        if table is None:
            r_star = euclidean_length(q_coords[:, None], self.coords[None])
        else:
            # a site's distance has the bits of its points' distance; take,
            # unlike [:, site_of], keeps the block C-ordered like dt_star
            r_sites = euclidean_length(q_coords[:, None], table.sites[None])
            r_star = np.take(r_sites, table.site_of, axis=1)
        dt_star = q_times[:, None] - self.times[None, :]
        k_star = np.asarray(self.model.covariance(r_star, dt_star), dtype=float)

        # numpy's pairwise row sums, unlike BLAS gemv, give each query's mean
        # the same bits in a batch of any size, and round less
        means = self.mean + (k_star * self.alpha).sum(axis=1)

        prior = self.prior
        v = dtrtrs(self.factor, k_star.T, lower=1)[0]
        variances = prior - np.einsum("ij,ij->j", v, v)
        floor = -_VARIANCE_SLACK * prior
        if np.any(variances < floor):
            worst = float(variances.min())
            raise NegativeVariance(
                f"predictive variance {worst:.6e} is below the rounding slack "
                f"{floor:.6e}; the system is too ill-conditioned to trust"
            )
        return means, np.maximum(variances, 0.0)


# The last posterior predict() built, as (model key, weak reference to the
# dataset, posterior), or None.  The reference's callback drops the entry
# when the dataset dies, so the factor does not outlive its data.  Readers
# take the tuple once, so concurrent callers need no lock: a race costs at
# most a rebuild, never a posterior of the wrong model or data.
_cached: tuple[str, weakref.ref, Posterior] | None = None


def _release(ref: weakref.ref) -> None:
    global _cached
    # a dead older dataset must not evict a newer entry
    if _cached is not None and _cached[1] is ref:
        _cached = None


def predict(m: KernelModel, data: SpaceTimeDataset, query) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and variance of the field at query points.

    The posterior of the last ``(m, data)`` pair is kept, so repeated calls
    with an equal model (same :meth:`KernelModel.model_key`) and the same
    dataset object factorize the Gram matrix once.  Only one posterior is
    kept, and it is released when its dataset is garbage-collected.  Use
    :class:`Posterior` to hold several at once.

    Parameters
    ----------
    m : KernelModel
        Covariance model; its nugget acts as observation noise.
    data : SpaceTimeDataset
        Conditioning observations with known constant mean.
    query : array of shape (q, d + 1), or sequence of SpaceTimePoint
        Points at which to predict; a table's rows are ``s1, ..., sd, t``.

    Returns
    -------
    means, variances : ndarray
        Conditional mean ``m + k*^T K^{-1} (z - m)`` and variance
        ``C(0,0) + nugget - k*^T K^{-1} k*`` for each query point.

    Raises
    ------
    DomainError
        If the data contain coincident points and the model has no nugget.
    NotPositiveDefinite
        If the factorization fails even after jitter escalation.
    NegativeVariance
        If a predictive variance undershoots zero beyond rounding slack.
    """
    global _cached
    key = m.model_key()
    entry = _cached
    if entry is None or entry[0] != key or entry[1]() is not data:
        # release the old factor before the new Gram matrix is assembled
        _cached = entry = None
        post = Posterior(m, data)
        _cached = (key, weakref.ref(data, _release), post)
    else:
        post = entry[2]
    return post.predict(query)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def _read_csv_table(path, tails, what: str) -> tuple[int, np.ndarray]:
    """Spatial dimension and numeric body of a CSV file with header
    ``s1,...,sd`` followed by one of the column-name sequences in ``tails``.

    Blank lines are skipped; every row must be as wide as the header and
    every cell a finite number.  ``what`` names the rows in error messages.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DomainError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    for tail in tails:
        d = len(header) - len(tail)
        if d >= 1 and header == [f"s{i + 1}" for i in range(d)] + list(tail):
            break
    else:
        expected = " or ".join("s1,...,sd," + ",".join(tail) for tail in tails)
        raise DomainError(f"{path}: expected header {expected}, got {','.join(header)}")
    if len(rows) == 1:
        raise DomainError(f"{path}: contains zero {what}")
    if any(len(r) != len(header) for r in rows[1:]):
        raise DomainError(f"{path}: rows do not match the {len(header)}-column header")
    try:
        table = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    except ValueError as exc:
        raise DomainError(f"{path}: non-numeric cell ({exc})") from exc
    if not np.all(np.isfinite(table)):
        raise DomainError(f"{path}: cells are not all finite")
    return d, table


def load_dataset_csv(path, mean: float = 0.0) -> SpaceTimeDataset:
    """Read a dataset from CSV with header ``s1,...,sd,t,z``."""
    d, table = _read_csv_table(path, [("t", "z")], "observations")
    return SpaceTimeDataset.from_arrays(
        table[:, :d], table[:, d], table[:, d + 1], mean=mean
    )


def write_predictions_csv(path, query, means, variances) -> None:
    """Write predictions as CSV with header ``s1,...,sd,t,mean,variance``.

    ``query`` is an ``(m, d + 1)`` table whose rows are ``s1, ..., sd, t``,
    or a sequence of :class:`SpaceTimePoint`.  Lines end in CRLF, as
    :func:`csv.writer` writes them.
    """
    coords, times = _arrays(query)
    d = coords.shape[1]
    means = np.asarray(means, dtype=float).ravel()
    variances = np.asarray(variances, dtype=float).ravel()
    if not times.size == means.size == variances.size:
        raise DimensionMismatch(
            f"{times.size} queries but {means.size} means and {variances.size} variances"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"s{i + 1}" for i in range(d)] + ["t", "mean", "variance"])
        for row, t, mu, var in zip(coords, times, means, variances):
            writer.writerow(
                [f"{c:.17g}" for c in row] + [f"{t:.17g}", f"{mu:.17g}", f"{var:.17g}"]
            )
