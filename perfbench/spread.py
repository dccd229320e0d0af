"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workloads all --seeds 1-10 --against 11-20
    python3 perfbench/spread.py --workloads grid_fit --seeds 101,101 --trace 1

Runs ``run.py`` once per (workload, seed) and prints for each metric the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The runs go round
robin: the first seed of every workload, then the second, and so on, so a
slow spell of the host falls on every workload alike.  With ``--against`` a
second set of seeds runs interleaved with the first (the two sides alternate
which goes first) and each metric's change of median from the first set to
the second is printed beside its bound.  With ``--trace 1`` it also reports
which count metrics differ between runs of the same seed (they must repeat
exactly).  The summary goes to ``.perfbench-out/spread-<workloads>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_fit", "station_krige", "field_ensemble", "cli_cold")


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def _stats(runs, spec) -> dict:
    rows = {}
    for m in spec:
        values = [r[m["name"]] for _, r in runs]
        if len(values) < 2:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0,
                           "bound": m.get("bound"), "values": values}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated, or 'all'")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", help="seeds of a second set, run interleaved")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = str(bench["run_seconds"])
    spec = bench["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    sets = {"a": _seeds(args.seeds)}
    if args.against:
        sets["b"] = _seeds(args.against)
        if len(sets["b"]) != len(sets["a"]):
            parser.error("--against needs as many seeds as --seeds")
    runs = {(name, s): [] for name in names for s in sets}
    status = 0
    for i in range(len(sets["a"])):
        order = list(sets) if i % 2 == 0 else list(reversed(sets))
        for name in names:
            for side in order:
                seed = sets[side][i]
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    status = 1
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                runs[(name, side)].append((seed, values))
                print(f"{name} set {side} seed {seed}: " + "  ".join(
                    f"{m['name']}={values[m['name']]:.4g}" for m in spec[:6]), flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        for side in sets:
            rows = _stats(runs[(name, side)], spec)
            summary[name][side] = {"seeds": [s for s, _ in runs[(name, side)]], "metrics": rows}
            print(f"\n{name} set {side}: {len(runs[(name, side)])} runs")
            for key, row in rows.items():
                if args.trace and not row["median"]:
                    continue
                bound = f"  bound {row['bound']}" if row["bound"] is not None else ""
                print(f"  {key:<40} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                      f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f}{bound}")
        if "b" in sets:
            a, b = summary[name]["a"]["metrics"], summary[name]["b"]["metrics"]
            print(f"\n{name}: set b median against set a")
            for key in a.keys() & b.keys():
                change = b[key]["median"] / a[key]["median"] - 1.0 if a[key]["median"] else 0.0
                summary[name].setdefault("change", {})[key] = change
                bound = a[key]["bound"]
                verdict = "" if bound is None else (
                    "  within bound" if abs(change) <= bound else f"  OUTSIDE bound {bound}")
                print(f"  {key:<40} {100 * change:+.1f} %{verdict}")
        if args.trace:
            by_seed = {}
            for side in sets:
                for seed, r in runs[(name, side)]:
                    by_seed.setdefault(seed, []).append(r)
            counts = [m["name"] for m in spec if m["unit"] == "count"]
            for seed, rs in by_seed.items():
                if len(rs) > 1:
                    differ = [k for k in counts if len({r[k] for r in rs}) > 1]
                    print(f"  seed {seed}: {len(rs)} traced runs; counts that differ: "
                          f"{differ or 'none'}")
                    summary[name].setdefault("count_mismatch", {})[str(seed)] = differ
    out = os.path.join(ROOT, ".perfbench-out",
                       f"spread-{args.workloads.replace(',', '_')}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nwrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
