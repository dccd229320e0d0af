"""Benchmark of oscov's simulate -> variogram -> fit -> predict paths.

    python3 perfbench/run.py --workload grid_fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run runs the workload's closed loop in a fresh interpreter for about
``--seconds`` seconds and checks its outputs; around it, eight more fresh
interpreters each set the workload up (``setup_s`` is their median).  Every
process of a run is pinned to one core, and every time is scaled to nominal
machine speed by the reference computation of ``speed.py``, timed on that
core around the work (the wall times are reported too).  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  ``--workload all`` runs the four workloads
in turn and reports the eleven named metrics of the workloads (with
``--trace 1`` also the tracing overhead: traced minus untraced cycle time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
every output check passed, 1 that an operation failed or a check did not
hold, 2 that the benchmark could not run (no ``src/oscov`` next to this
directory, for instance); code 2 prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed import NOMINAL_S, Reference, pin_to_one_core, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 8
RUN_LIMIT_S = 170.0

# the operation whose median time is ``op_s``, per workload
KEY_OP = {
    "grid_fit": "fit_full",
    "station_krige": "predict",
    "field_ensemble": "simulate_field",
    "cli_cold": "command",
}


class HarnessError(Exception):
    """The benchmark itself could not run."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # one core, so one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(argv, timeout, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` that, on timeout, kills the child's whole process group."""
    with subprocess.Popen(argv, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _check_import_path(probe: dict):
    if not os.path.abspath(probe["path"]).startswith(SRC + os.sep):
        raise HarnessError(f"oscov was imported from {probe['path']}, not from {SRC}")


def _run_processes(name, seed, seconds, trace, deadline, reference) -> tuple[list, list, dict]:
    """Set-up probes around the workload process; returns walls, probes, result.

    Half the probes run before the workload process and half after it, so a
    burst of host noise a few seconds long cannot slow all of them.  Each
    wall is ``(seconds, reference before, reference after)``.
    """
    tag = f"{name}-seed{seed}-trace{trace}"
    work = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = _env()
    walls, probes = [], []

    def probe(i):
        argv = [sys.executable, WORKER, "setup", "--workload", name, "--seed", str(seed),
                "--work", os.path.join(work, f"setup-{i}")]
        before = reference()
        t0 = time.perf_counter()
        proc = _run(argv, deadline - time.monotonic(), env=env, cwd=ROOT,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        walls.append((time.perf_counter() - t0, before, reference()))
        if proc.returncode != 0:
            raise HarnessError(f"set-up of {name} failed:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _check_import_path(result)
        probes.append(result)

    try:
        for i in range(SETUP_PROBES // 2):
            probe(i)
        out = os.path.join(OUT, f"{tag}.json")
        argv = [sys.executable, WORKER, "run", "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--work", os.path.join(work, "run"), "--out", out]
        if trace:
            argv += ["--spans", os.path.join(OUT, f"{tag}-spans.json")]
        os.makedirs(os.path.join(work, "run"))
        proc = _run(argv, deadline - time.monotonic(), env=env, cwd=ROOT, stdout=sys.stderr)
        if proc.returncode != 0 or not os.path.exists(out):
            raise HarnessError(f"the {name} process exited with {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        for i in range(SETUP_PROBES // 2, SETUP_PROBES):
            probe(i)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{name} did not finish in time: {exc}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return walls, probes, result


def _scaled_ops(cycle: list, refs: list) -> list:
    """The cycle's operations as ``(name, wall, scaled, ok)``."""
    out = []
    for name, wall, ok, k in cycle:
        nominal = scaled(wall, refs[k], refs[k + 1]) if 0 <= k < len(refs) - 1 else wall
        out.append((name, wall, nominal, ok))
    return out


def run_workload(name, seed, seconds, trace, deadline, reference) -> dict:
    """Runs one workload and derives every metric it reports."""
    walls, probes, result = _run_processes(name, seed, seconds, trace, deadline, reference)
    cycles = [_scaled_ops(c, r) for c, r in zip(result["cycles"], result["refs"])]
    ops = [op for c in cycles for op in c]
    failed = sum(1 for op in ops if not op[3])
    cycle_s = [sum(op[2] for op in c) for c in cycles]
    quality = result["quality"]
    e2e = {
        "cycle_s": _median(cycle_s),
        "op_s": _median([op[2] for op in ops if op[0] == KEY_OP[name]]),
        "setup_s": _median([scaled(*w) for w in walls]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    refs = [r for rs in result["refs"] for r in rs] + [r for w in walls for r in w[1:]]
    wall = {
        "cycle_s": _median([sum(op[1] for op in c) for c in cycles]),
        "setup_s": _median([w[0] for w in walls]),
        "slowdown": _median(refs) / NOMINAL_S if refs else 1.0,
    }
    named = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
             "fail_frac": failed / len(ops)}
    if name == "grid_fit":
        named.update(fit_loop_s=e2e["cycle_s"], fit_param_err=quality.get("fit_param_err"))
    elif name == "station_krige":
        named.update(krige_s=e2e["cycle_s"], predict_batch_s=e2e["op_s"],
                     krige_nrmse=quality.get("krige_nrmse"))
    elif name == "field_ensemble":
        rates = [quality["nodes"] / sum(op[2] for op in c if op[0] == "simulate_field") / 1e6
                 for c in cycles
                 if "nodes" in quality and any(op[0] == "simulate_field" for op in c)]
        named.update(sim_mnodes_per_s=_median(rates), sim_cov_err=quality.get("sim_cov_err"))
    else:
        named.update(cli_session_s=e2e["cycle_s"])
    layers = None
    if trace:
        layers = dict(result["layers"])
        layers["import.oscov_s"] = _median([p["oscov_s"] for p in probes])
        layers["import.modules_loaded"] = max(p["modules_loaded"] for p in probes)
        for cmd in ("simulate", "variogram", "fit", "eval", "predict"):
            layers[f"cli.{cmd}_s"] = _median(result.get("command_s", {}).get(cmd, []))
        for q in ("fit_param_err", "krige_nrmse", "sim_cov_err"):
            layers[f"quality.{q}"] = quality.get(q, 0.0)
        layers["run.fail_frac"] = named["fail_frac"]
        layers["trace.cycle_s"] = e2e["cycle_s"]
        layers["wall.cycle_s"] = wall["cycle_s"]
        layers["wall.setup_s"] = wall["setup_s"]
        layers["speed.slowdown"] = wall["slowdown"]
    return {
        "workload": name, "seed": seed, "cycles": len(cycles), "attempted": len(ops),
        "failed": failed, "errors": result["errors"], "machine": result["machine"],
        "quality": quality, "e2e": e2e, "wall": wall, "named": named, "layers": layers,
    }


def _metric_block(values: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        missing, extra = set(names) - set(values), set(values) - set(names)
        raise HarnessError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                           f"unlisted {sorted(extra)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


NAMED_UNITS = {
    "fit_loop_s": "s", "fit_param_err": "ratio", "krige_s": "s", "predict_batch_s": "s",
    "krige_nrmse": "ratio", "sim_mnodes_per_s": "Mnode/s", "sim_cov_err": "ratio",
    "cli_session_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
}


def _report(run: dict):
    m = run["machine"]
    print(f"workload {run['workload']}  seed {run['seed']}  cycles {run['cycles']}  "
          f"operations {run['attempted']} ({run['failed']} failed)")
    print(f"machine  nproc {m['nproc']}  core {m['cores_used']}  {m['cpu']}  "
          f"python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}  {m['blas']}  "
          f"blas_threads {m['blas_threads']}")
    w = run["wall"]
    print(f"wall     cycle {w['cycle_s']:.4f} s  setup {w['setup_s']:.4f} s  "
          f"slowdown {w['slowdown']:.3f} (reference time / {NOMINAL_S} s)")
    for key, value in run["named"].items():
        print(f"  {key:<18} {value!r:>24} {NAMED_UNITS[key]}")
    for err in run["errors"]:
        print(f"  error: {err.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*KEY_OP, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="how long the loop runs (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "oscov", "__init__.py")):
            raise HarnessError(f"no oscov sources under {SRC}")
        bench = _load_benchmark()
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        os.makedirs(OUT, exist_ok=True)
        pin_to_one_core()
        reference = Reference()
        if args.workload != "all":
            deadline = time.monotonic() + RUN_LIMIT_S
            run = run_workload(args.workload, args.seed, seconds, args.trace, deadline,
                               reference)
            _report(run)
            if args.trace:
                metrics = _metric_block(run["layers"], bench["per_layer"])
            else:
                metrics = _metric_block(run["e2e"], bench["end_to_end"])
            runs = [run]
        else:
            runs, metrics = [], {}
            for name in KEY_OP:
                deadline = time.monotonic() + RUN_LIMIT_S
                run = run_workload(name, args.seed, seconds, 0, deadline, reference)
                _report(run)
                runs.append(run)
                for key, value in run["named"].items():
                    shared = key in ("setup_s", "peak_rss_mb", "fail_frac")
                    metrics[f"{key}.{name}" if shared else key] = {
                        "value": value, "unit": NAMED_UNITS[key]}
                if args.trace:
                    deadline = time.monotonic() + RUN_LIMIT_S
                    traced = run_workload(name, args.seed, seconds, 1, deadline, reference)
                    runs.append(traced)
                    overhead = traced["e2e"]["cycle_s"] - run["e2e"]["cycle_s"]
                    print(f"  {'trace_overhead_s':<18} {overhead!r:>24} s "
                          f"({100 * overhead / run['e2e']['cycle_s']:+.1f} % of the cycle)")
                    metrics[f"trace_overhead_s.{name}"] = {"value": overhead, "unit": "s"}
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
