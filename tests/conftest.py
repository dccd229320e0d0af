"""Shared fixtures: the kernel variant roster, the acceptance report hook and
the traced-allocation helper."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from oscov import Dispersion, LdhoParams, OuParams

# The tests' subprocesses (`python -m oscov.cli`, fresh interpreters) import
# the package from this tree, as the tests themselves do.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Filled by the acceptance tests through the `acceptance` fixture; printed as
# one line per criterion in the terminal summary.
_ACCEPTANCE_LINES: list[tuple[int, bool, str]] = []


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for acceptance criteria: logs one PASS/FAIL line, then asserts."""

    def record(number: int, passed: bool, detail: str) -> None:
        _ACCEPTANCE_LINES.append((number, bool(passed), detail))
        assert passed, f"acceptance criterion {number}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(_ACCEPTANCE_LINES):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} {status} - {detail}")


def peak_bytes(fn, *args):
    """``fn(*args)`` and the peak of the bytes it allocated, as ``tracemalloc`` saw them."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def variant_params(dim: int):
    """All eight kernel variants (3 LDHO regimes x 2 dispersions, 2 O-U).

    The parameter values keep each variant well inside its regime and give
    order-one correlation scales, so the same roster serves the closed-form
    consistency tests, the quadrature cross-checks, and the Gram probes.
    """
    over_omega0 = math.sqrt(1.0 / (4 * 0.64) - (math.pi / 10.0) ** 2)
    return (
        ("under-quad", LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4, Dispersion.QUADRATIC, dim)),
        ("crit-quad", LdhoParams(1.5, 2.0, 0.25, 1.5, 0.7, Dispersion.QUADRATIC, dim)),
        ("over-quad", LdhoParams(1.0, 0.8, over_omega0, 8.0, 0.4, Dispersion.QUADRATIC, dim)),
        ("under-lin", LdhoParams(2.0, 3.0, 1.5 * math.pi, 1.0, 0.4, Dispersion.LINEAR, dim)),
        ("crit-lin", LdhoParams(1.5, 2.0, 0.25, 1.5, 0.7, Dispersion.LINEAR, dim)),
        ("over-lin", LdhoParams(1.0, 0.8, over_omega0, 8.0, 0.4, Dispersion.LINEAR, dim)),
        ("ou-quad", OuParams(1.0, 0.8, 0.5, 0.4, 8.0, Dispersion.QUADRATIC, dim)),
        ("ou-lin", OuParams(1.0, 0.8, 0.5, 0.4, 8.0, Dispersion.LINEAR, dim)),
    )


@pytest.fixture(scope="session")
def variants_2d():
    return variant_params(2)


@pytest.fixture(scope="session")
def variants_by_dim():
    return variant_params


def random_lag_points(rng: np.random.Generator, n: int, r_max=5.0, tau_max=5.0):
    """Pseudo-random nonnegative (r, tau) pairs for cross-check sweeps."""
    return [
        (float(r), float(t))
        for r, t in zip(rng.uniform(0.0, r_max, n), rng.uniform(0.0, tau_max, n))
    ]


@st.composite
def station_arrays(draw, max_sites=7, min_times=1, max_times=10, min_keep=0.2):
    """Coordinates, times and values of sites observed at shared times.

    Sites lie in a 5 x 5 square; the times are regular (multiples of 0.3,
    whose gaps differ in the last bit) or uniform random.  Each cell is kept
    with one drawn probability of at least ``min_keep`` (and one cell always
    is), the points come shuffled, and the values carry an offset of 1e3.
    """
    n_sites = draw(st.integers(1, max_sites))
    n_times = draw(st.integers(min_times, max_times))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    locs = rng.uniform(0.0, 5.0, (n_sites, 2))
    if draw(st.booleans()):
        stamps = 0.3 * np.arange(n_times)
    else:
        stamps = np.sort(rng.uniform(0.0, 6.0, n_times))
    seen = rng.random((n_sites, n_times)) < draw(st.floats(min_keep, 1.0))
    seen.flat[rng.integers(seen.size)] = True
    site, step = np.nonzero(seen)
    order = rng.permutation(site.size)
    site, step = site[order], step[order]
    return locs[site], stamps[step], 1e3 + rng.standard_normal(site.size)
