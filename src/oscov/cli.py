"""Command-line front end for kernel evaluation, simulation, and fitting.

Subcommands
-----------
eval        evaluate a kernel over a lag grid, writing ``kernel_grid.csv``
simulate    draw a Gaussian field on a space-time grid, writing binary + sidecar
variogram   estimate an empirical variogram from a field or dataset
fit         fit kernel hyperparameters to a field or dataset
predict     GP conditional mean/variance at query points
checks      self-verification report (admissibility, oracle, ODE, PSD)

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 failed verification check.  All floating-point output uses 17 significant
digits, and every command is deterministic given its configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERICAL = 2
_EXIT_CHECK = 3

_CHECK_SEED = 2024


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_list(text: str, cast, flag: str):
    try:
        return [cast(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated list, got {text!r}")


class _UsageError(Exception):
    """Configuration problem detected after argparse."""


def _add_common(sub: argparse.ArgumentParser, model: bool = True):
    if model:
        sub.add_argument("--model", help="path to a kernel model JSON file")
        sub.add_argument(
            "--figure",
            choices=("fig1", "fig2", "fig3", "ou1", "ou2"),
            help="named preset instead of --model",
        )
    sub.add_argument("--out", default=".", help="output directory (default: .)")


def build_parser() -> _Parser:
    parser = _Parser(prog="oscov", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = subs.add_parser("eval", help="kernel values on a lag grid")
    _add_common(p)
    p.add_argument("--r-max", type=float, default=None, help="largest spatial lag")
    p.add_argument("--tau-max", type=float, default=None, help="largest temporal lag")
    p.add_argument("--nr", type=int, default=121, help="spatial grid size")
    p.add_argument("--ntau", type=int, default=121, help="temporal grid size")

    p = subs.add_parser("simulate", help="draw a Gaussian field")
    _add_common(p)
    p.add_argument("--ns", default="64,64", help="spatial node counts, e.g. 64,64")
    p.add_argument("--ds", default="1.0,1.0", help="spatial spacings, e.g. 1.0,1.0")
    p.add_argument("--nt", type=int, default=128, help="temporal node count")
    p.add_argument("--dt", type=float, default=1.0, help="temporal spacing")
    p.add_argument("--prefix", default="field", help="output file stem")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    p = subs.add_parser("variogram", help="empirical variogram")
    _add_common(p, model=False)
    p.add_argument("--field", help="field binary written by `simulate`")
    p.add_argument("--data", help="observation CSV (s1,...,sd,t,z)")
    p.add_argument(
        "--kind",
        choices=("spatial", "temporal", "space_time"),
        default="space_time",
    )
    p.add_argument("--r-bins", help="comma-separated spatial lag centers")
    p.add_argument("--tau-bins", help="comma-separated temporal lag centers")
    p.add_argument("--tolerance", type=float, default=None, help="spatial bin half-width")

    p = subs.add_parser("fit", help="fit hyperparameters")
    _add_common(p, model=False)
    p.add_argument("--field", help="field binary written by `simulate`")
    p.add_argument("--data", help="observation CSV (s1,...,sd,t,z)")
    p.add_argument("--family", choices=("ldho", "ou"), default="ldho")
    p.add_argument("--dispersion", choices=("quadratic", "linear"), default="quadratic")
    p.add_argument(
        "--stage",
        choices=("marginals", "full"),
        default="full",
        help="stop after the marginal stage or run the joint refinement",
    )
    p.add_argument("--r-bins", help="comma-separated spatial lag centers")
    p.add_argument("--tau-bins", help="comma-separated temporal lag centers")

    p = subs.add_parser("predict", help="GP prediction")
    _add_common(p)
    p.add_argument("--data", required=True, help="observation CSV (s1,...,sd,t,z)")
    p.add_argument("--query", required=True, help="query CSV (s1,...,sd,t)")
    p.add_argument("--mean", type=float, default=0.0, help="known constant mean")

    p = subs.add_parser("checks", help="self-verification report")
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _resolve_model(args):
    from .kernel_core import KernelModel
    from .presets import preset_model

    if args.figure and args.model:
        raise _UsageError("give either --model or --figure, not both")
    if args.figure:
        return preset_model(args.figure)
    if args.model:
        try:
            with open(args.model) as fh:
                return KernelModel.from_json(fh.read())
        except FileNotFoundError:
            raise _UsageError(f"model file not found: {args.model}")
    raise _UsageError("a model is required (--model <json> or --figure <name>)")


def _resolve_data(args):
    if args.field and args.data:
        raise _UsageError("give either --field or --data, not both")
    if args.field:
        from .simulate import load_field

        if not os.path.exists(args.field):
            raise _UsageError(f"field file not found: {args.field}")
        return load_field(args.field)
    if args.data:
        from .gp import load_dataset_csv

        if not os.path.exists(args.data):
            raise _UsageError(f"data file not found: {args.data}")
        return load_dataset_csv(args.data)
    raise _UsageError("input data required (--field <bin> or --data <csv>)")


def _parse_bins(args):
    """The ``--r-bins`` and ``--tau-bins`` lag centers, ``None`` where not given."""
    return tuple(
        None if text is None else _parse_list(text, float, flag)
        for text, flag in ((args.r_bins, "--r-bins"), (args.tau_bins, "--tau-bins"))
    )


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_query_csv(path):
    """The ``(m, d + 1)`` table of a query CSV with header ``s1,...,sd,t``
    (a z column is dropped)."""
    from .gp import _read_csv_table

    d, table = _read_csv_table(path, [("t",), ("t", "z")], "query points")
    return table[:, : d + 1]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    import numpy as np

    from .kernel_core import interaction_ratio
    from .presets import DEFAULT_R_MAX, DEFAULT_TAU_MAX

    m = _resolve_model(args)
    if args.nr < 1 or args.ntau < 1:
        raise _UsageError("--nr and --ntau must be at least 1")
    r_max = DEFAULT_R_MAX if args.r_max is None else args.r_max
    tau_max = DEFAULT_TAU_MAX if args.tau_max is None else args.tau_max
    for flag, value in (("--r-max", r_max), ("--tau-max", tau_max)):
        if not 0.0 <= value < math.inf:
            raise _UsageError(f"{flag} must be finite and >= 0, got {value}")
    rs = np.linspace(0.0, r_max, args.nr) if args.nr > 1 else np.array([0.0])
    taus = np.linspace(0.0, tau_max, args.ntau) if args.ntau > 1 else np.array([0.0])

    r_grid, tau_grid = np.meshgrid(rs, taus)  # tau varies along rows
    c = np.asarray(m.covariance(r_grid, tau_grid), dtype=float)
    c00 = m.variance()
    cs = np.asarray(m.marginal_spatial(r_grid), dtype=float)
    ct = np.asarray(m.marginal_temporal(tau_grid), dtype=float)
    q = np.asarray(interaction_ratio(m, r_grid, tau_grid), dtype=float)

    # one row per lag, temporal lag outermost
    rows = np.column_stack([a.ravel() for a in (r_grid, tau_grid, c, c / c00, cs, ct, q)])
    path = _out_path(args, "kernel_grid.csv")
    # np.savetxt's text at 17 significant digits, formatted in one pass
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    text = (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("r,tau,C,C_norm,Cs,Ct,Qint\n")
        fh.write(text)
    print(f"wrote {path} ({taus.size * rs.size} rows)")
    return _EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import GridSpec, simulate_field, write_field

    m = _resolve_model(args)
    ns = _parse_list(args.ns, int, "--ns")
    ds = _parse_list(args.ds, float, "--ds")
    if len(ns) != len(ds):
        raise _UsageError("--ns and --ds must have the same number of axes")
    grid = GridSpec(ns=tuple(ns), ds=tuple(ds), nt=args.nt, dt=args.dt, seed=args.seed)
    if grid.dim != m.dim:
        raise _UsageError(
            f"model is {m.dim}-dimensional but the grid has {grid.dim} spatial axes"
        )
    field = simulate_field(m, grid)
    bin_path = _out_path(args, args.prefix + ".bin")
    sidecar = write_field(field, bin_path)
    print(f"wrote {bin_path} and {sidecar}")
    return _EXIT_OK


def cmd_variogram(args) -> int:
    from .estimate import (
        space_time_variogram,
        spatial_marginal_variogram,
        temporal_marginal_variogram,
    )

    if args.kind == "temporal" and args.tolerance is not None:
        raise _UsageError("--tolerance is a spatial bin half-width; --kind temporal takes none")
    if args.kind == "temporal" and args.r_bins is not None:
        raise _UsageError("--r-bins are spatial lags; --kind temporal takes none")
    if args.kind == "spatial" and args.tau_bins is not None:
        raise _UsageError("--tau-bins are time lags; --kind spatial takes none")
    data = _resolve_data(args)
    r_bins, tau_bins = _parse_bins(args)
    if args.kind == "spatial":
        v = spatial_marginal_variogram(data, bins=r_bins, tolerance=args.tolerance)
    elif args.kind == "temporal":
        v = temporal_marginal_variogram(data, bins=tau_bins)
    else:
        v = space_time_variogram(
            data, r_bins=r_bins, tau_bins=tau_bins, tolerance=args.tolerance
        )
    path = _out_path(args, f"variogram_{args.kind}.json")
    with open(path, "w") as fh:
        fh.write(v.to_json())
        fh.write("\n")
    print(f"wrote {path} ({len(v)} bins)")
    return _EXIT_OK


def cmd_fit(args) -> int:
    from .estimate import fit_full, fit_marginals

    data = _resolve_data(args)
    r_bins, tau_bins = _parse_bins(args)
    if args.stage == "marginals":
        result = fit_marginals(data, args.family, args.dispersion, r_bins=r_bins, tau_bins=tau_bins)
    else:
        # the bins are the joint stage's; the marginal start uses its defaults
        start = fit_marginals(data, args.family, args.dispersion)
        result = fit_full(data, start, r_bins=r_bins, tau_bins=tau_bins)
    path = _out_path(args, "fit.json")
    with open(path, "w") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    print(
        f"wrote {path} (objective {result.objective:.6g}, "
        f"{result.n_evaluations} evaluations, converged={result.converged})"
    )
    return _EXIT_OK


def cmd_predict(args) -> int:
    from .gp import load_dataset_csv, predict, write_predictions_csv

    m = _resolve_model(args)
    if not os.path.exists(args.data):
        raise _UsageError(f"data file not found: {args.data}")
    if not os.path.exists(args.query):
        raise _UsageError(f"query file not found: {args.query}")
    data = load_dataset_csv(args.data, mean=args.mean)
    query = _load_query_csv(args.query)
    means, variances = predict(m, data, query)
    path = _out_path(args, "predictions.csv")
    write_predictions_csv(path, query, means, variances)
    print(f"wrote {path} ({len(query)} predictions)")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# self-verification
# ---------------------------------------------------------------------------


def _check_admissibility(m) -> dict:
    import numpy as np

    from .kernel_core import Dispersion, LdhoParams
    from .spectral import admissibility_scan

    p = m.params
    width = p.epsilon if isinstance(p, LdhoParams) else p.beta
    if p.dispersion is Dispersion.QUADRATIC:
        k_max = (45.0 / width) ** 0.5
    else:
        k_max = 45.0 / width
    if isinstance(p, LdhoParams):
        disp = 1.0 + p.interaction * (k_max**2 if p.dispersion is Dispersion.QUADRATIC else k_max)
        omega_max = 1.5 * p.omega0 * disp + 20.0 / p.tau_c
    else:
        disp = p.a + p.scale * (k_max**2 if p.dispersion is Dispersion.QUADRATIC else k_max)
        omega_max = 20.0 * disp / p.tau_c
    report = admissibility_scan(
        m, np.linspace(0.0, k_max, 320), np.linspace(-omega_max, omega_max, 321)
    )
    return {
        "passed": bool(report.passed),
        "min_spectral_value": report.min_spectral_value,
        "integrability_proxy": report.integrability_proxy,
    }


def _check_oracle(m) -> dict:
    from functools import partial

    from .spectral import hankel_ift_oracle, temporal_fourier_mode

    mode = partial(temporal_fourier_mode, m.params)
    c00 = m.variance()
    worst = 0.0
    for r, tau in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.5, 0.8), (2.5, 2.0)):
        ref, err = hankel_ift_oracle(mode, m.dim, r, tau)
        val = float(m.covariance(r, tau))
        tol = max(1e-6 * c00, 5.0 * err)
        worst = max(worst, abs(val - ref) / tol)
    return {"passed": bool(worst <= 1.0), "worst_diff_over_tol": worst}


def _check_ode_order(m) -> dict:
    import math

    from .kernel_core import LdhoParams
    from .spectral import ode_residual

    if not isinstance(m.params, LdhoParams):
        return {"passed": True, "skipped": "first-order kernel has no fourth-order equation"}
    p = m.params
    # step scaled to the kernel's own time constants: small enough for the
    # truncation expansion, large enough that the h^-4 roundoff amplification
    # stays below the h^2 signal
    h = min(0.1 / p.omega0, 0.2 * p.tau_c)
    tau = 8.0 * h
    res = [abs(ode_residual(p, tau, h * s)) for s in (1.0, 0.5, 0.25)]
    if min(res) == 0.0:
        return {"passed": True, "residuals": res, "note": "residuals at roundoff floor"}
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    order = sum(orders) / len(orders)
    return {"passed": bool(abs(order - 2.0) <= 0.2), "order": order, "residuals": res}


def _check_gram_psd(m, seed: int) -> dict:
    import numpy as np

    from .gp import gram

    # row i holds point i's coordinates, then its time
    draws = np.random.default_rng(seed).uniform(0.0, 4.0, (60, m.dim + 1))
    k = gram(m, draws).matrix
    eig_min = float(np.linalg.eigvalsh(k).min())
    trace = float(np.trace(k))
    return {"passed": bool(eig_min >= -1e-8 * trace), "min_eigenvalue": eig_min, "trace": trace}


def cmd_checks(args) -> int:
    from .presets import available_presets, preset_model

    if args.figure or args.model:
        models = [(args.figure or os.path.basename(args.model), _resolve_model(args))]
    else:
        models = [(name, preset_model(name)) for name in available_presets()]

    checks = []
    for name, m in models:
        for check_name, runner in (
            ("admissibility", _check_admissibility),
            ("oracle_agreement", _check_oracle),
            ("ode_order", _check_ode_order),
            ("gram_psd", lambda mm: _check_gram_psd(mm, _CHECK_SEED)),
        ):
            try:
                detail = runner(m)
            except Exception as exc:  # a crash is a failed check, not a crash of the report
                detail = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
            entry = {"model": name, "name": check_name}
            entry.update(detail)
            checks.append(entry)
            status = "pass" if entry["passed"] else "FAIL"
            print(f"{name:6s} {check_name:18s} {status}")

    all_passed = all(c["passed"] for c in checks)
    report = {"all_passed": all_passed, "checks": checks}
    path = _out_path(args, "checks.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    if not all_passed:
        print(f"{sum(not c['passed'] for c in checks)} check(s) failed", file=sys.stderr)
        return _EXIT_CHECK
    return _EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "eval": cmd_eval,
    "simulate": cmd_simulate,
    "variogram": cmd_variogram,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "checks": cmd_checks,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return _EXIT_CONFIG

    from .errors import DomainError, OscovError

    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, DomainError, OSError) as exc:
        print(f"oscov {args.command}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OscovError as exc:
        print(f"oscov {args.command}: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
