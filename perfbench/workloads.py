"""The four benchmark workloads.

Each workload is a closed loop: one caller sends the next operation only when
the last one has finished.  ``setup`` builds every input from the workload
seed; ``cycle`` runs one pass of the loop on those inputs and returns its
outputs; ``check`` verifies the outputs without being timed.  Every cycle of
a run repeats the same work on the same inputs, so per-cycle counts repeat
exactly.  Between operations, at most every ``speed.GAP_S`` seconds, a cycle
times the reference computation of ``speed.py``, so that each operation's
time can be scaled to nominal machine speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import filecmp
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

import oscov.estimate as estimate
import oscov.gp as gp
import oscov.simulate as simulate
from oscov.kernel_core import Dispersion, KernelModel, LdhoParams, Regime, damped_frequency
from oscov.presets import preset_model
from speed import GAP_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Cycle:
    """Times the operations of one cycle and records which of them failed.

    With a ``reference``, the cycle also times it before an operation when
    ``GAP_S`` has passed since it last did, and once more at ``close``:
    operation ``[name, seconds, ok, k]`` ran between reference times
    ``refs[k]`` and ``refs[k + 1]``.
    """

    def __init__(self, tracer=None, reference=None):
        self.ops: list[list] = []  # [name, seconds, ok, segment]
        self.errors: list[str] = []
        self.tracer = tracer
        self.reference = reference
        self.refs: list[float] = []
        self._last_ref = 0.0

    def _measure_speed(self):
        self.refs.append(self.reference())
        self._last_ref = time.perf_counter()

    def close(self):
        """Times the reference after the cycle's last operation."""
        if self.reference is not None and self.ops:
            self._measure_speed()

    @contextlib.contextmanager
    def unmeasured(self):
        """Runs a check: outside the operation timers and the tracer."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def run(self, name, fn, *args, **kwargs):
        if self.reference is not None and (
                not self.refs or time.perf_counter() - self._last_ref >= GAP_S):
            self._measure_speed()
        segment = len(self.refs) - 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.ops.append([name, time.perf_counter() - t0, False, segment])
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise
        self.ops.append([name, time.perf_counter() - t0, True, segment])
        return out

    def fail(self, index: int, message: str):
        """Mark the operation at ``index`` failed by an output check."""
        if self.ops[index][2]:
            self.ops[index][2] = False
            self.errors.append(f"{self.ops[index][0]}: check failed: {message}")


def _seed(seed: int) -> int:
    """A non-negative generator seed for any integer workload seed."""
    return seed % 2**32


def acceptance7_truth() -> KernelModel:
    """The truth model of the acceptance-7 closed loop."""
    params = LdhoParams.from_damped_frequency(
        c0=50.0, tau_c=2.0, omega_d=1.2, regime=Regime.UNDERDAMPED,
        epsilon=2.0, interaction=0.5, dispersion=Dispersion.QUADRATIC, dim=2,
    )
    return KernelModel(params=params, nugget=0.5)


# ---------------------------------------------------------------------------


class GridFit:
    """Acceptance-7 loop for one seed: simulate 64x64x128, fit both stages."""

    min_cycles = 2

    def __init__(self, seed: int, work: str):
        self.seed = seed

    def setup(self):
        self.truth = acceptance7_truth()
        self.grid = simulate.GridSpec(
            ns=(64, 64), ds=(1.0, 1.0), nt=128, dt=0.4, seed=_seed(self.seed)
        )
        self.marginal_bins = dict(r_bins=np.arange(1.0, 9.0), tau_bins=0.4 * np.arange(1, 41))
        self.joint_bins = dict(r_bins=np.arange(0.0, 7.0), tau_bins=0.4 * np.arange(0, 26, 2))
        self._reference = None  # (field bytes, joint variogram) of the first cycle

    def cycle(self, c: Cycle):
        f = c.run("simulate_field", simulate.simulate_field, self.truth, self.grid)
        res_m = c.run("fit_marginals", estimate.fit_marginals, f, **self.marginal_bins)
        res_f = c.run("fit_full", estimate.fit_full, f, theta0=res_m, **self.joint_bins)
        return f, res_m, res_f

    def check(self, c: Cycle, out) -> dict:
        f, res_m, res_f = out
        # the joint variogram is rebuilt only when the field changed
        field_bytes = f.values.tobytes()
        if self._reference is None or self._reference[0] != field_bytes:
            v_joint = estimate.space_time_variogram(f, **self.joint_bins)
            self._reference = (field_bytes, v_joint)
        v_joint = self._reference[1]
        for idx, res in ((1, res_m), (2, res_f)):
            values = [v for v in dataclasses.asdict(res.model.params).values()
                      if isinstance(v, float)]
            if not all(math.isfinite(v) for v in values + [res.model.nugget]):
                c.fail(idx, f"non-finite parameters {res.model.to_dict()}")
        joint = float(estimate.wls_objective(res_f.model, v_joint))
        marginal = float(estimate.wls_objective(res_m.model, v_joint))
        if not joint <= marginal:
            c.fail(2, f"joint objective {joint:.6g} worse than the marginal model's {marginal:.6g}")
        return {"fit_param_err": self._param_err(res_f.model)}

    def _param_err(self, model: KernelModel) -> float:
        """Mean relative error of the six parameters acceptance 7 scores."""
        t, p = self.truth.params, model.params
        if not isinstance(p, LdhoParams):
            return float("inf")
        errs = [
            abs(p.c0 - t.c0) / t.c0,
            abs(p.tau_c - t.tau_c) / t.tau_c,
            abs(damped_frequency(p) - damped_frequency(t)) / damped_frequency(t),
            abs(p.epsilon - t.epsilon) / t.epsilon,
            abs(p.interaction - t.interaction) / t.interaction,
            abs(model.nugget - self.truth.nugget) / self.truth.nugget,
        ]
        return float(np.mean(errs))


# ---------------------------------------------------------------------------


class StationKrige:
    """80 stations x 25 times sampled from a simulated field, then kriged."""

    min_cycles = 3
    sites, held_out, times, forecast = 80, 20, 25, 4
    batches, batch_size = 4, 50

    def __init__(self, seed: int, work: str):
        self.seed = seed

    def setup(self):
        shape = dict(tau_c=2.0, omega_d=1.2, regime=Regime.UNDERDAMPED, epsilon=4.0,
                     interaction=0.5, dispersion=Dispersion.QUADRATIC, dim=2)
        unit = KernelModel(params=LdhoParams.from_damped_frequency(c0=1.0, **shape))
        # unit field variance, nugget 5 % of it
        params = LdhoParams.from_damped_frequency(c0=1.0 / unit.variance(), **shape)
        self.truth = KernelModel(params=params, nugget=0.05)
        g = simulate.GridSpec(ns=(32, 32), ds=(0.5, 0.5), nt=32, dt=0.4, seed=_seed(self.seed))
        field = simulate.simulate_field(self.truth, g).values
        rng = np.random.default_rng(_seed(self.seed))
        nodes = rng.choice(32 * 32, size=self.sites + self.held_out, replace=False)
        ix, iy = np.unravel_index(nodes, (32, 32))
        obs, held = np.arange(self.sites), np.arange(self.sites, self.sites + self.held_out)
        steps = np.tile(np.arange(self.times), self.sites)
        site = np.repeat(obs, self.times)
        self.coords = 0.5 * np.stack([ix[site], iy[site]], axis=1).astype(float)
        self.t = g.dt * steps
        self.z = field[steps, ix[site], iy[site]]
        # queries: held-out sites at every step, observed sites at forecast steps
        horizon = self.times + self.forecast
        pool = [(i, k) for i in held for k in range(horizon)]
        pool += [(i, k) for i in obs for k in range(self.times, horizon)]
        pick = rng.choice(len(pool), size=self.batches * self.batch_size, replace=False)
        chosen = [pool[j] for j in pick]
        self.queries = [
            [gp.SpaceTimePoint((0.5 * ix[i], 0.5 * iy[i]), g.dt * k)
             for i, k in chosen[b * self.batch_size:(b + 1) * self.batch_size]]
            for b in range(self.batches)
        ]
        self.truth_values = np.array([field[k, ix[i], iy[i]] for i, k in chosen])
        self.query_coords = np.array([0.5 * np.array([ix[i], iy[i]]) for i, _ in chosen])
        self.query_t = np.array([g.dt * k for _, k in chosen])
        self._reference = None  # (model JSON, means, variances) of the direct solve

    def cycle(self, c: Cycle):
        data = c.run("dataset", gp.SpaceTimeDataset.from_arrays, self.coords, self.t, self.z)
        c.run("spatial_marginal_variogram", estimate.spatial_marginal_variogram, data)
        c.run("temporal_marginal_variogram", estimate.temporal_marginal_variogram, data)
        c.run("space_time_variogram", estimate.space_time_variogram, data)
        res = c.run("fit_marginals", estimate.fit_marginals, data)
        preds = [c.run("predict", gp.predict, res.model, data, q) for q in self.queries]
        return res, preds

    def check(self, c: Cycle, out) -> dict:
        res, preds = out
        prior = res.model.variance() + res.model.nugget
        ref_means, ref_var = self._direct_solve(res.model)
        first = len(c.ops) - len(preds)
        for b, (means, var) in enumerate(preds):
            # predictive variances may exceed the prior only by rounding
            ok = (np.all(np.isfinite(means)) and np.all(np.isfinite(var))
                  and var.min() >= 0.0 and var.max() <= prior * (1.0 + 1e-12))
            if not ok:
                c.fail(first + b, f"variances outside [0, {prior:.6g}]: "
                                  f"[{var.min():.6g}, {var.max():.6g}]")
            rows = slice(b * self.batch_size, (b + 1) * self.batch_size)
            tol = 1e-8 * prior
            if not (np.allclose(means, ref_means[rows], rtol=1e-8, atol=tol)
                    and np.allclose(var, ref_var[rows], rtol=1e-8, atol=tol)):
                c.fail(first + b, "means or variances differ from a direct dense solve")
        err = np.concatenate([m for m, _ in preds]) - self.truth_values
        sd = math.sqrt(self.truth.variance() + self.truth.nugget)
        return {"krige_nrmse": float(np.sqrt(np.mean(err**2)) / sd)}

    def _direct_solve(self, model: KernelModel):
        """Kriging means and variances of every query by a dense LU solve.

        Independent of ``gp``: the covariance matrix is evaluated in full with
        ``KernelModel.covariance``, in row blocks so that the check's memory
        stays below the workload's own peak.  Computed once per fitted model.
        """
        key = model.to_json()
        if self._reference is None or self._reference[0] != key:
            def cov(coords, t):
                return np.vstack([
                    np.asarray(model.covariance(cdist(coords[i:i + 250], self.coords),
                                                t[i:i + 250, None] - self.t[None, :]))
                    for i in range(0, len(t), 250)
                ])

            K = cov(self.coords, self.t)
            K[np.diag_indices_from(K)] += model.nugget
            k_star = cov(self.query_coords, self.query_t)
            lu = scipy.linalg.lu_factor(K, overwrite_a=True)
            solved = scipy.linalg.lu_solve(lu, np.column_stack([self.z, k_star.T]))
            means = k_star @ solved[:, 0]
            prior = model.variance() + model.nugget
            variances = prior - np.einsum("ij,ji->i", k_star, solved[:, 1:])
            self._reference = (key, means, variances)
        return self._reference[1], self._reference[2]


# ---------------------------------------------------------------------------


def _ldho(regime, dispersion, omega_d) -> KernelModel:
    params = LdhoParams.from_damped_frequency(
        c0=1.0, tau_c=3.0, omega_d=omega_d, regime=regime, epsilon=1.0,
        interaction=0.4, dispersion=dispersion, dim=2,
    )
    return KernelModel(params=params)


def ensemble_models() -> dict:
    """One model per kernel variant: presets where they exist, else fig1's shape."""
    lin, quad = Dispersion.LINEAR, Dispersion.QUADRATIC
    return {
        "under-quad": preset_model("fig1"),
        "under-lin": _ldho(Regime.UNDERDAMPED, lin, 1.5 * math.pi),
        "crit-quad": _ldho(Regime.CRITICAL, quad, 0.0),
        "crit-lin": _ldho(Regime.CRITICAL, lin, 0.0),
        "over-quad": preset_model("fig2"),
        "over-lin": _ldho(Regime.OVERDAMPED, lin, 0.1),
        "ou-quad": preset_model("ou1"),
        "ou-lin": preset_model("ou2"),
    }


class FieldEnsemble:
    """One 128^3 realisation per kernel variant, round-tripped and compared."""

    min_cycles = 2
    window = 32  # closed-form lag table: window^3 lattice lags from the origin
    compared = [(t, x, 0) for t in (0, 1, 2, 5, 10) for x in (0, 1, 2, 4)]

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def setup(self):
        self.models = ensemble_models()
        self.grid = simulate.GridSpec(
            ns=(128, 128), ds=(0.5, 0.5), nt=128, dt=0.1, seed=_seed(self.seed)
        )
        g, w = self.grid, self.window
        tau, x, y = np.meshgrid(*(np.arange(w),) * 3, indexing="ij")
        self.table_tau = g.dt * tau
        self.table_r = np.hypot(g.ds[0] * x, g.ds[1] * y)
        self.lags = [(g.dt * t, g.ds[0] * x, g.ds[1] * y) for t, x, y in self.compared]
        for sub in ("a", "b"):
            os.makedirs(os.path.join(self.work, sub), exist_ok=True)

    def cycle(self, c: Cycle):
        """Runs the eight variants; each one is checked (untimed) before the next.

        Checking inline keeps one field in memory at a time instead of eight.
        """
        errors = {}
        path = os.path.join(self.work, "a", "field.bin")
        for name, m in self.models.items():
            f = c.run("simulate_field", simulate.simulate_field, m, self.grid)
            c.run("write_field", simulate.write_field, f, path)
            back = c.run("load_field", simulate.load_field, path)
            load_idx = len(c.ops) - 1
            emp = c.run("empirical_covariance", simulate.empirical_covariance, back, self.lags)
            table = c.run("covariance", m.covariance, self.table_r, self.table_tau)
            with c.unmeasured():
                ok = self._round_trip_ok(f, back)
            if not ok:
                c.fail(load_idx, f"{name}: round trip changed the field or its sidecar")
            closed = np.array([table[t, x, y] for t, x, y in self.compared])
            errors[name] = float(np.max(np.abs(emp - closed)) / m.variance())
        return errors

    def _round_trip_ok(self, f, back) -> bool:
        """Identical array and grid, and a re-written sidecar identical to the first."""
        simulate.write_field(back, os.path.join(self.work, "b", "field.bin"))
        return (
            back.values.tobytes() == f.values.tobytes()
            and back.grid == f.grid
            and filecmp.cmp(os.path.join(self.work, "a", "field.json"),
                            os.path.join(self.work, "b", "field.json"), shallow=False)
        )

    def check(self, c: Cycle, errors) -> dict:
        return {"sim_cov_err": max(errors.values()), "nodes": len(errors) * self.grid.n_total}


# ---------------------------------------------------------------------------


class CliCold:
    """A fixed session of fresh-interpreter CLI commands on small inputs."""

    min_cycles = 2

    def __init__(self, seed: int, work: str, traced: bool = False):
        self.seed = seed
        self.work = work
        self.traced = traced
        self.trace_files: list[str] = []
        self.command_times: dict[str, list[float]] = {}

    def setup(self):
        os.makedirs(self.work, exist_ok=True)
        self.model_path = os.path.join(self.work, "model.json")
        truth = acceptance7_truth()
        with open(self.model_path, "w") as fh:
            fh.write(truth.to_json())
        # 400 observations and 50 queries from a small field of the same model
        g = simulate.GridSpec(ns=(16, 16), ds=(1.0, 1.0), nt=16, dt=0.4, seed=_seed(self.seed))
        field = simulate.simulate_field(truth, g).values
        rng = np.random.default_rng(_seed(self.seed))
        picks = rng.choice(field.size, size=450, replace=False)
        k, x, y = np.unravel_index(picks, field.shape)
        self.data_path = os.path.join(self.work, "obs.csv")
        self.query_path = os.path.join(self.work, "query.csv")
        with open(self.data_path, "w") as fh:
            fh.write("s1,s2,t,z\n")
            for i in range(400):
                fh.write(f"{x[i]:.17g},{y[i]:.17g},{g.dt * k[i]:.17g},{field[k[i], x[i], y[i]]:.17g}\n")
        with open(self.query_path, "w") as fh:
            fh.write("s1,s2,t\n")
            for i in range(400, 450):
                fh.write(f"{x[i] + 0.5:.17g},{y[i] + 0.5:.17g},{g.dt * k[i]:.17g}\n")
        self.grid = simulate.GridSpec(ns=(32, 32), ds=(1.0, 1.0), nt=64, dt=0.4,
                                      seed=_seed(self.seed))
        self.truth = truth
        self._reference = None

    def _commands(self, out_dir):
        field = os.path.join(out_dir, "field.bin")
        common = ["--out", out_dir]
        g = self.grid
        grid = ["--ns", ",".join(map(str, g.ns)), "--ds", ",".join(map(repr, g.ds)),
                "--nt", str(g.nt), "--dt", repr(g.dt), "--seed", str(g.seed)]
        return [
            ("simulate", ["simulate", "--model", self.model_path, *grid, *common]),
            ("variogram", ["variogram", "--field", field, *common]),
            ("fit", ["fit", "--field", field, "--stage", "marginals", *common]),
            ("eval", ["eval", "--model", self.model_path, *common]),
            ("predict", ["predict", "--model", self.model_path, "--data", self.data_path,
                         "--query", self.query_path, *common]),
        ]

    def cycle(self, c: Cycle):
        out_dir = os.path.join(self.work, "session")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        codes = []
        for name, args in self._commands(out_dir):
            if self.traced:
                spans = os.path.join(self.work, f"spans-{len(self.trace_files)}.json")
                self.trace_files.append(spans)
                argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli",
                        "--spans", spans, "--", *args]
            else:
                argv = [sys.executable, "-m", "oscov.cli", *args]
            proc = c.run("command", subprocess.run, argv, env=env, cwd=ROOT,
                         stdout=subprocess.DEVNULL, timeout=120)
            self.command_times.setdefault(name, []).append(c.ops[-1][1])
            codes.append((name, len(c.ops) - 1, proc.returncode))
        return out_dir, codes

    def check(self, c: Cycle, out) -> dict:
        out_dir, codes = out
        for name, idx, code in codes:
            if code != 0:
                c.fail(idx, f"oscov {name} exited with {code}")
        if self._reference is None:
            ref = simulate.simulate_field(self.truth, self.grid).values
            self._reference = np.ascontiguousarray(ref, dtype="<f8").tobytes()
        try:
            with open(os.path.join(out_dir, "field.bin"), "rb") as fh:
                same = fh.read() == self._reference
        except OSError:
            same = False
        if not same:
            c.fail(codes[0][1], "CLI field.bin differs from in-process simulate_field")
        return {}


WORKLOADS = {
    "grid_fit": GridFit,
    "station_krige": StationKrige,
    "field_ensemble": FieldEnsemble,
    "cli_cold": CliCold,
}
