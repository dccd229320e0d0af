"""One benchmark process: a set-up probe, a workload run, or a traced CLI call.

    worker.py setup --workload W --seed N --work DIR
    worker.py run --workload W --seed N --seconds S --trace 0|1 --work DIR --out FILE
                  [--spans FILE]
    worker.py cli --spans FILE -- <oscov command line>

``run.py`` starts these with ``PYTHONPATH`` set to the checkout's ``src``.
``import oscov`` is the first thing a process does after interpreter start,
so the time and module count it reports are those of the import alone.
"""

import sys
import time


def _import_oscov() -> dict:
    before = len(sys.modules)
    t0 = time.perf_counter()
    import oscov

    seconds = time.perf_counter() - t0
    return {"oscov_s": seconds, "modules_loaded": len(sys.modules) - before,
            "path": oscov.__file__}


def _machine(seed: int) -> dict:
    """What the numbers depend on: cores, library versions, BLAS threads."""
    import ctypes
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
        if threads is not None:
            break
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cores_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
    }


def _setup(args, probe) -> None:
    import json

    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.work).setup()
    print(json.dumps(probe))


def _run(args) -> None:
    import collections
    import json
    import os
    import resource
    import statistics
    import traceback

    from spans import Tracer, count_warnings, layer_metrics
    from speed import Reference
    from workloads import WORKLOADS, CliCold, Cycle

    cls = WORKLOADS[args.workload]
    traced = bool(args.trace)
    wl = cls(args.seed, args.work, traced=traced) if cls is CliCold else cls(args.seed, args.work)
    wl.setup()
    tracer = None
    if traced and cls is not CliCold:
        tracer = Tracer()
        tracer.install()
    count_warnings(tracer.counts if tracer is not None else collections.Counter())
    reference = Reference()

    cycles, walls, errors, quality = [], [], [], {}
    start = time.perf_counter()
    while True:
        c = Cycle(tracer, reference)
        out = None
        t0 = time.perf_counter()
        try:
            out = wl.cycle(c)
        except Exception:
            if not c.errors:  # raised outside an operation
                c.errors.append(traceback.format_exc(limit=3))
        finally:
            c.close()
        walls.append(time.perf_counter() - t0)
        if out is not None:
            try:
                with c.unmeasured():
                    quality = wl.check(c, out)
            except Exception:
                for i in range(len(c.ops)):
                    c.fail(i, traceback.format_exc(limit=3))
        if not c.ops:
            c.ops.append(["cycle", 0.0, False, -1])
        cycles.append(c)
        errors.extend(c.errors)
        elapsed = time.perf_counter() - start
        if len(cycles) >= cls.min_cycles and elapsed + statistics.median(walls) > args.seconds:
            break
        if elapsed > 120.0:
            break

    who = resource.RUSAGE_CHILDREN if cls is CliCold else resource.RUSAGE_SELF
    result = {
        "workload": args.workload,
        "cycles": [c.ops for c in cycles],
        "refs": [c.refs for c in cycles],
        "errors": errors[:20],
        "quality": quality,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "machine": _machine(args.seed),
    }
    if cls is CliCold:
        result["command_s"] = wl.command_times
    if traced:
        if tracer is not None:
            traces = [{"spans": tracer.spans, "counts": tracer.counts}]
        else:
            traces = []
            for path in wl.trace_files:
                if os.path.exists(path):  # a command killed early writes none
                    with open(path) as fh:
                        traces.append(json.load(fh))
        result["layers"] = layer_metrics(traces, len(cycles))
        with open(args.spans, "w") as fh:
            json.dump(traces, fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def _cli(argv) -> int:
    """Runs one oscov CLI command under the tracer and dumps its spans."""
    spans_path = argv[argv.index("--spans") + 1]
    command = argv[argv.index("--") + 1:]
    from spans import Tracer, count_warnings

    import oscov.cli

    tracer = Tracer()
    tracer.install()
    count_warnings(tracer.counts)
    try:
        return oscov.cli.main(command)
    finally:
        tracer.dump(spans_path)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    probe = _import_oscov()
    if argv and argv[0] == "cli":
        return _cli(argv[1:])
    import argparse

    parser = argparse.ArgumentParser(prog="worker.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    setup = modes.add_parser("setup")
    run = modes.add_parser("run")
    for p in (setup, run):
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--work", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args, probe)
    else:
        _run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
