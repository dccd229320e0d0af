"""End-to-end command-line tests running the installed package in subprocesses.

Each test drives ``python -m oscov.cli`` the way a user would, then checks
exit codes, written artifacts, and agreement with direct library calls.
"""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from oscov.cli import _CHECK_SEED
from oscov.estimate import EmpiricalVariogram, VariogramKind, fit_full, fit_marginals
from oscov.gp import (
    SpaceTimeDataset,
    SpaceTimePoint,
    gram,
    load_dataset_csv,
    predict,
    write_predictions_csv,
)
from oscov.kernel_core import (
    Dispersion,
    KernelModel,
    LdhoParams,
    Regime,
    interaction_ratio,
)
from oscov.presets import preset_model
from oscov.simulate import load_field


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "oscov.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def model_file(workdir):
    p = LdhoParams.from_damped_frequency(
        c0=1.0,
        tau_c=1.0,
        omega_d=2.0,
        regime=Regime.UNDERDAMPED,
        epsilon=1.0,
        interaction=0.3,
        dispersion=Dispersion.QUADRATIC,
        dim=2,
    )
    path = workdir / "model.json"
    path.write_text(KernelModel(params=p, nugget=0.1).to_json())
    return path


@pytest.fixture(scope="module")
def sim_dir(workdir, model_file):
    """One simulated field shared by the variogram and fit tests."""
    out = workdir / "sim"
    res = run_cli(
        "simulate",
        "--model", model_file,
        "--ns", "16,16",
        "--ds", "1.0,1.0",
        "--nt", "32",
        "--dt", "0.25",
        "--seed", "7",
        "--out", out,
        "--prefix", "field",
    )
    assert res.returncode == 0, res.stderr
    return out


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_no_command_prints_help_and_exits_config():
    res = run_cli()
    assert res.returncode == 1
    assert "usage" in res.stdout.lower()


def test_unknown_flag_exits_config():
    res = run_cli("eval", "--no-such-flag")
    assert res.returncode == 1
    # only `simulate` draws random numbers, so only it takes a seed
    res = run_cli("fit", "--seed", "3")
    assert res.returncode == 1
    assert "unrecognized arguments: --seed" in res.stderr


@pytest.mark.parametrize(
    "args",
    (("variogram",), ("fit", "--stage", "marginals")),
    ids=("variogram", "fit"),
)
def test_commands_without_a_model_refuse_one(tmp_path, sim_dir, args):
    # variogram and fit estimate from data alone; a model flag would go unread
    res = run_cli(
        *args, "--field", sim_dir / "field.bin",
        "--model", tmp_path / "nope.json", "--out", tmp_path,
    )
    assert res.returncode == 1
    assert "unrecognized arguments: --model" in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_eval_requires_a_model(tmp_path):
    res = run_cli("eval", "--out", tmp_path)
    assert res.returncode == 1
    assert "--model" in res.stderr


def test_model_and_figure_are_mutually_exclusive(tmp_path, model_file):
    res = run_cli("eval", "--model", model_file, "--figure", "fig1", "--out", tmp_path)
    assert res.returncode == 1
    assert "not both" in res.stderr


def test_missing_model_file_exits_config(tmp_path):
    res = run_cli("eval", "--model", tmp_path / "nope.json", "--out", tmp_path)
    assert res.returncode == 1
    assert "not found" in res.stderr


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_degenerate_grid_is_the_origin(tmp_path):
    res = run_cli(
        "eval", "--figure", "fig1", "--nr", 1, "--ntau", 1,
        "--r-max", 0, "--tau-max", 0, "--out", tmp_path,
    )
    assert res.returncode == 0
    lines = (tmp_path / "kernel_grid.csv").read_text().splitlines()
    assert lines[0] == "r,tau,C,C_norm,Cs,Ct,Qint"
    assert len(lines) == 2
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == 0.0 and row[1] == 0.0
    assert row[3] == 1.0  # normalized covariance at the origin
    assert row[6] == 1.0  # interaction ratio at the origin
    assert (tmp_path / "kernel_grid.csv").read_bytes() == _savetxt_bytes(np.array([row]))


def _savetxt_bytes(table) -> bytes:
    """The grid file as ``np.savetxt`` writes its rows under the header."""
    out = io.BytesIO()
    out.write(b"r,tau,C,C_norm,Cs,Ct,Qint\n")
    np.savetxt(out, table, fmt="%.17g", delimiter=",")
    return out.getvalue()


@pytest.mark.parametrize("value", ("inf", "nan", "-1"))
@pytest.mark.parametrize("flag", ("--r-max", "--tau-max"))
def test_eval_refuses_a_bad_lag_range(tmp_path, flag, value):
    res = run_cli("eval", "--figure", "fig1", flag, value, "--out", tmp_path)
    assert res.returncode == 1
    assert res.stderr.splitlines() == [
        f"oscov eval: {flag} must be finite and >= 0, got {float(value)}"
    ]
    assert not (tmp_path / "kernel_grid.csv").exists()


def test_eval_grid_matches_direct_library_calls(tmp_path, model_file):
    res = run_cli(
        "eval", "--model", model_file, "--nr", 5, "--ntau", 4,
        "--r-max", 2.0, "--tau-max", 0.4, "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    table = np.loadtxt(tmp_path / "kernel_grid.csv", delimiter=",", skiprows=1)
    assert table.shape == (20, 7)

    m = KernelModel.from_json(model_file.read_text())
    rs = np.linspace(0.0, 2.0, 5)
    taus = np.linspace(0.0, 0.4, 4)
    r_grid, tau_grid = np.meshgrid(rs, taus)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(table[:, 0].reshape(4, 5), r_grid)
    assert np.array_equal(table[:, 1].reshape(4, 5), tau_grid)
    c = np.asarray(m.covariance(r_grid, tau_grid), dtype=float)
    assert np.array_equal(table[:, 2].reshape(4, 5), c)
    assert np.array_equal(table[:, 3].reshape(4, 5), c / m.variance())
    assert np.array_equal(
        table[:, 4].reshape(4, 5), np.asarray(m.marginal_spatial(r_grid), dtype=float)
    )
    assert np.array_equal(
        table[:, 5].reshape(4, 5), np.asarray(m.marginal_temporal(tau_grid), dtype=float)
    )
    assert np.array_equal(
        table[:, 6].reshape(4, 5),
        np.asarray(interaction_ratio(m, r_grid, tau_grid), dtype=float),
    )
    # the text itself: one row per lag, temporal lag outermost, every value
    # at 17 significant digits
    expected = "r,tau,C,C_norm,Cs,Ct,Qint\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in table
    )
    assert (tmp_path / "kernel_grid.csv").read_text() == expected
    assert (tmp_path / "kernel_grid.csv").read_bytes() == _savetxt_bytes(table)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_is_byte_deterministic(workdir, model_file, sim_dir):
    rerun = workdir / "sim_again"
    res = run_cli(
        "simulate",
        "--model", model_file,
        "--ns", "16,16",
        "--ds", "1.0,1.0",
        "--nt", "32",
        "--dt", "0.25",
        "--seed", "7",
        "--out", rerun,
        "--prefix", "field",
    )
    assert res.returncode == 0, res.stderr
    assert (rerun / "field.bin").read_bytes() == (sim_dir / "field.bin").read_bytes()
    assert (rerun / "field.json").read_bytes() == (sim_dir / "field.json").read_bytes()


def test_simulate_different_seed_changes_the_field(workdir, model_file, sim_dir):
    other = workdir / "sim_seed8"
    res = run_cli(
        "simulate",
        "--model", model_file,
        "--ns", "16,16",
        "--ds", "1.0,1.0",
        "--nt", "32",
        "--dt", "0.25",
        "--seed", "8",
        "--out", other,
        "--prefix", "field",
    )
    assert res.returncode == 0, res.stderr
    assert (other / "field.bin").read_bytes() != (sim_dir / "field.bin").read_bytes()


def test_simulate_grid_model_dimension_mismatch(tmp_path, model_file):
    res = run_cli(
        "simulate", "--model", model_file, "--ns", "16", "--ds", "1.0",
        "--nt", "8", "--dt", "0.5", "--out", tmp_path,
    )
    assert res.returncode == 1
    assert "2-dimensional" in res.stderr


def test_simulate_rejects_a_surrogate_model(tmp_path):
    path = tmp_path / "surrogate.json"
    path.write_text(KernelModel.surrogate_of(preset_model("fig1")).to_json())
    res = run_cli(
        "simulate", "--model", path, "--ns", "8,8", "--nt", "8", "--out", tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["oscov simulate: cannot simulate a separable surrogate model"]
    assert not (tmp_path / "field.bin").exists()


@pytest.mark.parametrize("dt", ("inf", "nan"))
def test_simulate_rejects_a_non_finite_step(tmp_path, model_file, dt):
    res = run_cli(
        "simulate", "--model", model_file, "--ns", "8,8", "--ds", "1.0,1.0",
        "--nt", "8", "--dt", dt, "--out", tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [
        "oscov simulate: grid spacings must be positive and finite"
    ]
    assert not (tmp_path / "field.bin").exists()


def test_simulate_rejects_a_negative_seed(tmp_path, model_file):
    res = run_cli(
        "simulate", "--model", model_file, "--ns", "8,8", "--ds", "1.0,1.0",
        "--nt", "8", "--dt", "0.5", "--seed", "-3", "--out", tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.splitlines() == [
        "oscov simulate: seed must be a non-negative integer, got -3"
    ]
    assert not (tmp_path / "field.bin").exists()


# ---------------------------------------------------------------------------
# variogram
# ---------------------------------------------------------------------------


def test_variogram_writes_loadable_json(tmp_path, sim_dir):
    res = run_cli(
        "variogram",
        "--field", sim_dir / "field.bin",
        "--kind", "space_time",
        "--r-bins", "0,1,2",
        "--tau-bins", "0,0.5",
        "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    v = EmpiricalVariogram.from_json(
        (tmp_path / "variogram_space_time.json").read_text()
    )
    assert v.kind is VariogramKind.SPACE_TIME
    assert len(v) == 5  # 3 x 2 lag classes minus the excluded origin
    assert np.all(v.counts >= 1) and np.all(v.gamma >= 0.0)


def test_variogram_with_unreachable_bins_exits_numerical(tmp_path, sim_dir):
    res = run_cli(
        "variogram",
        "--field", sim_dir / "field.bin",
        "--kind", "spatial",
        "--r-bins", "500",
        "--out", tmp_path,
    )
    assert res.returncode == 2
    assert "empty" in res.stderr


def test_variogram_on_a_nan_field_exits_config(tmp_path, sim_dir):
    values = np.fromfile(sim_dir / "field.bin", dtype="<f8")
    values[7] = np.nan
    values.tofile(tmp_path / "field.bin")
    (tmp_path / "field.json").write_text((sim_dir / "field.json").read_text())
    res = run_cli(
        "variogram", "--field", tmp_path / "field.bin", "--kind", "spatial",
        "--out", tmp_path,
    )
    assert res.returncode == 1
    assert "not all finite" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "edit",
    (
        lambda side: side["grid"].update(dt=math.inf),
        lambda side: side.pop("shape"),
        lambda side: side.pop("grid"),
        lambda side: side["grid"].update(seed=-3),
        lambda side: side["grid"].update(nt=2.5),
        lambda side: side.update(dtype=">f4"),
        lambda side: side.update(order="F"),
    ),
    ids=("dt-inf", "no-shape", "no-grid", "seed-negative", "nt-fraction", "dtype-f4", "order-F"),
)
def test_variogram_on_a_bad_sidecar_exits_config(tmp_path, sim_dir, edit):
    (tmp_path / "field.bin").write_bytes((sim_dir / "field.bin").read_bytes())
    sidecar = json.loads((sim_dir / "field.json").read_text())
    edit(sidecar)
    (tmp_path / "field.json").write_text(json.dumps(sidecar))
    res = run_cli(
        "variogram", "--field", tmp_path / "field.bin", "--kind", "spatial",
        "--out", tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert str(tmp_path / "field.json") in res.stderr
    assert not (tmp_path / "variogram_spatial.json").exists()


def test_variogram_reads_a_sidecar_shape_of_integral_floats(tmp_path, sim_dir):
    (tmp_path / "field.bin").write_bytes((sim_dir / "field.bin").read_bytes())
    sidecar = json.loads((sim_dir / "field.json").read_text())
    sidecar["shape"] = [float(n) for n in sidecar["shape"]]
    (tmp_path / "field.json").write_text(json.dumps(sidecar))
    res = run_cli(
        "variogram", "--field", tmp_path / "field.bin", "--kind", "spatial",
        "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "variogram_spatial.json").exists()


def test_temporal_variogram_refuses_a_tolerance(tmp_path, sim_dir):
    # the tolerance is a spatial half-width the temporal estimator never takes
    res = run_cli(
        "variogram", "--field", sim_dir / "field.bin", "--kind", "temporal",
        "--tolerance", "0.1", "--out", tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and "--tolerance" in res.stderr
    assert not (tmp_path / "variogram_temporal.json").exists()


@pytest.mark.parametrize(
    "flags",
    (
        ("--kind", "spatial", "--tolerance", "nan"),
        ("--kind", "space_time", "--tolerance", "-1"),
        ("--kind", "spatial", "--r-bins", "1,inf"),
        ("--kind", "temporal", "--tau-bins", "0.25,nan"),
    ),
    ids=("tolerance-nan", "tolerance-negative", "r-bins-inf", "tau-bins-nan"),
)
def test_variogram_refuses_bad_bins_and_tolerances(tmp_path, sim_dir, flags):
    res = run_cli("variogram", "--field", sim_dir / "field.bin", *flags, "--out", tmp_path)
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and "must be finite and >= 0" in res.stderr
    assert not list(tmp_path.glob("variogram_*.json"))


@pytest.mark.parametrize(
    "kind, flag, value",
    (("temporal", "--r-bins", "1,2"), ("spatial", "--tau-bins", "0.5,1")),
)
def test_variogram_refuses_the_bins_of_the_other_axis(tmp_path, sim_dir, kind, flag, value):
    # each marginal reads the bins of its own axis only
    res = run_cli(
        "variogram", "--field", sim_dir / "field.bin", "--kind", kind,
        flag, value, "--out", tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1 and flag in res.stderr
    assert not (tmp_path / f"variogram_{kind}.json").exists()


def test_variogram_requires_input(tmp_path):
    res = run_cli("variogram", "--kind", "spatial", "--out", tmp_path)
    assert res.returncode == 1
    assert "--field" in res.stderr


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_is_byte_deterministic(workdir, sim_dir):
    args = (
        "fit",
        "--field", sim_dir / "field.bin",
        "--stage", "marginals",
        "--r-bins", "1,2,3",
        "--tau-bins", "0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0",
    )
    out_a, out_b = workdir / "fit_a", workdir / "fit_b"
    res_a = run_cli(*args, "--out", out_a)
    res_b = run_cli(*args, "--out", out_b)
    assert res_a.returncode == 0, res_a.stderr
    assert res_b.returncode == 0, res_b.stderr
    assert (out_a / "fit.json").read_bytes() == (out_b / "fit.json").read_bytes()
    result = json.loads((out_a / "fit.json").read_text())
    assert math.isfinite(result["objective"]) and result["objective"] >= 0.0
    rebuilt = KernelModel.from_dict(result["model"])
    assert rebuilt.dim == 2


@pytest.mark.parametrize("family, dispersion", [("ldho", "quadratic"), ("ou", "linear")])
def test_default_fit_stage_refines_the_marginal_fit(tmp_path, sim_dir, family, dispersion):
    # the joint bins reach the joint stage only; the marginal start keeps its defaults
    r_bins, tau_bins = "0,1,2,3", "0,0.5,1,1.5,2"
    res = run_cli(
        "fit", "--field", sim_dir / "field.bin", "--family", family,
        "--dispersion", dispersion, "--r-bins", r_bins, "--tau-bins", tau_bins,
        "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    f = load_field(str(sim_dir / "field.bin"))
    expected = fit_full(
        f,
        fit_marginals(f, family, dispersion),
        r_bins=np.array(r_bins.split(","), dtype=float),
        tau_bins=np.array(tau_bins.split(","), dtype=float),
    )
    assert (tmp_path / "fit.json").read_text() == expected.to_json() + "\n"


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_interpolates_observations(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text(
        "s1,s2,t,z\n"
        "0.0,0.0,0.0,1.2\n"
        "1.0,0.0,0.5,-0.4\n"
        "0.0,1.0,1.0,0.7\n"
        "1.5,1.5,0.25,0.3\n"
    )
    query = tmp_path / "query.csv"
    query.write_text("s1,s2,t\n0.0,0.0,0.0\n20.0,20.0,50.0\n")
    res = run_cli(
        "predict", "--figure", "fig1", "--data", data, "--query", query,
        "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "s1,s2,t,mean,variance"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 2
    # fig1 carries no nugget, so the mean interpolates the observed value
    assert rows[0][3] == pytest.approx(1.2, abs=1e-8)
    assert abs(rows[0][4]) <= 1e-10
    # nearly decorrelated from every observation (|C|/C00 ~ 2e-6 at this
    # lag), the prediction relaxes to the prior mean and variance
    c00 = preset_model("fig1").variance()
    assert abs(rows[1][3]) < 1e-4
    assert rows[1][4] == pytest.approx(c00, rel=1e-5)


def test_predict_with_zero_observations_names_the_file(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("s1,s2,t,z\n")
    query = tmp_path / "query.csv"
    query.write_text("s1,s2,t\n0.0,0.0,0.5\n")
    res = run_cli(
        "predict", "--figure", "fig1", "--data", data, "--query", query,
        "--out", tmp_path,
    )
    assert res.returncode == 1
    assert "empty.csv" in res.stderr and "zero observations" in res.stderr

    nan_data = tmp_path / "nan.csv"
    nan_data.write_text("s1,s2,t,z\n0.0,0.0,0.0,1.0\n1.0,0.0,0.5,nan\n")
    res = run_cli(
        "predict", "--figure", "fig1", "--data", nan_data, "--query", query,
        "--out", tmp_path,
    )
    assert res.returncode == 1
    assert "nan.csv" in res.stderr and "not all finite" in res.stderr
    assert "Traceback" not in res.stderr and len(res.stderr.splitlines()) == 1


def test_predict_rejects_malformed_query_header(tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("s1,s2,t,z\n0.0,0.0,0.0,1.0\n")
    query = tmp_path / "query.csv"
    query.write_text("x,y,when\n0.0,0.0,0.5\n")
    res = run_cli(
        "predict", "--figure", "fig1", "--data", data, "--query", query,
        "--out", tmp_path,
    )
    assert res.returncode == 1
    assert "header" in res.stderr

    # malformed cells under a good header
    for cell, message in (("oops", "non-numeric cell"), ("nan", "not all finite")):
        query.write_text(f"s1,s2,t\n0.0,0.0,0.5\n0.0,{cell},0.5\n")
        res = run_cli(
            "predict", "--figure", "fig1", "--data", data, "--query", query,
            "--out", tmp_path,
        )
        assert res.returncode == 1
        assert message in res.stderr
        assert "Traceback" not in res.stderr and len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("z_column", (False, True))
def test_predict_writes_the_bytes_of_the_point_path(tmp_path, z_column):
    rng = np.random.default_rng(17)
    obs, queries = rng.uniform(0.0, 5.0, (40, 4)), rng.uniform(0.0, 5.0, (15, 4))
    data = tmp_path / "obs.csv"
    data.write_text("s1,s2,t,z\n" + "".join(
        ",".join(f"{c:.17g}" for c in row) + "\n" for row in obs))
    query = tmp_path / "query.csv"
    width = 4 if z_column else 3
    query.write_text(("s1,s2,t,z\n" if z_column else "s1,s2,t\n") + "".join(
        ",".join(f"{c:.17g}" for c in row[:width]) + "\n" for row in queries))
    res = run_cli(
        "predict", "--figure", "fig1", "--data", data, "--query", query, "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr

    points = [SpaceTimePoint(tuple(row[:2]), row[2]) for row in queries]
    means, variances = predict(preset_model("fig1"), load_dataset_csv(data), points)
    expected = tmp_path / "expected.csv"
    write_predictions_csv(expected, points, means, variances)
    written = (tmp_path / "predictions.csv").read_bytes()
    assert written == expected.read_bytes()
    assert written.count(b"\r\n") == 16 and written.count(b"\n") == 16


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def test_checks_pass_for_a_named_preset(tmp_path):
    res = run_cli("checks", "--figure", "fig1", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "checks.json").read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {"admissibility", "oracle_agreement", "ode_order", "gram_psd"}
    assert res.stdout.count(" pass") == 4


def test_checks_gram_psd_is_the_gram_of_a_zero_valued_dataset(tmp_path):
    res = run_cli("checks", "--figure", "fig1", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "checks.json").read_text())
    m = preset_model("fig1")
    draws = np.random.default_rng(_CHECK_SEED).uniform(0.0, 4.0, (60, m.dim + 1))
    k = gram(m, SpaceTimeDataset.from_arrays(draws[:, :-1], draws[:, -1], np.zeros(60))).matrix
    (psd,) = [c for c in report["checks"] if c["name"] == "gram_psd"]
    assert psd["min_eigenvalue"] == float(np.linalg.eigvalsh(k).min())
    assert psd["trace"] == float(np.trace(k))


def test_checks_run_every_preset_by_default(tmp_path):
    res = run_cli("checks", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "checks.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 20  # five presets, four checks each
    assert {c["model"] for c in report["checks"]} == {
        "fig1", "fig2", "fig3", "ou1", "ou2"
    }


def test_checks_flag_a_separable_surrogate(tmp_path):
    # the surrogate shares the marginals but not the joint structure, so the
    # spectral oracle must catch the disagreement at mixed lags
    surrogate = KernelModel.surrogate_of(preset_model("fig1"))
    path = tmp_path / "surrogate.json"
    path.write_text(surrogate.to_json())
    res = run_cli("checks", "--model", path, "--out", tmp_path)
    assert res.returncode == 3
    report = json.loads((tmp_path / "checks.json").read_text())
    assert report["all_passed"] is False
    by_name = {c["name"]: c["passed"] for c in report["checks"]}
    assert by_name["oracle_agreement"] is False
    assert by_name["admissibility"] is True
