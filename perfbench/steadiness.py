"""Steadiness report: does the benchmark repeat within its own bounds?

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --seconds 30

Runs ``run.py`` (untraced) for every workload over ``--seeds`` seeds, in
``--sets`` sets one after another, seeds interleaved across workloads
within a set.  For each end-to-end metric it prints, per set, the
spread (quartile distance / median, as ``statistics.quantiles(n=4)``
gives the quartiles) and the change of the median from the first set,
normalised and raw side by side, against the metric's bound in
``BENCHMARK.json``.  A metric is steady when, in every set, its spread
and the size of its median change (either direction) are within the
bound; the exit code is non-zero when any metric is not.  Each run's
values are printed to standard error as it finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: float) -> dict:
    began = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {process.returncode}:\n"
            f"{process.stdout[-2000:]}\n{process.stderr[-2000:]}"
        )
    final = json.loads(lines[-1])
    detail = next(json.loads(line)["detail"] for line in lines if line.startswith('{"detail"'))
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
        "raw": detail["raw"],
        "probe": detail["probe"],
        "samples": detail["samples"],
        "wall_s": time.perf_counter() - began,
    }


def summarise(runs_by_set: list[list[dict]], bounds: dict) -> list[dict]:
    rows = []
    for name, (better, bound) in bounds.items():
        row = {"metric": name, "bound": bound, "sets": []}
        first = {}
        for index, runs in enumerate(runs_by_set):
            entry = {}
            for kind in ("metrics", "raw"):
                values = [run[kind][name] for run in runs if name in run[kind]]
                if len(values) < 2:
                    continue
                median = statistics.median(values)
                entry[kind] = {"median": median, "spread": spread(values)}
                if index == 0:
                    first[kind] = median
                elif first.get(kind):
                    change = (median - first[kind]) / first[kind]
                    entry[kind]["worse_by"] = change if better == "lower" else -change
            row["sets"].append(entry)
        rows.append(row)
    return rows


def verdict(row: dict) -> bool:
    for entry in row["sets"]:
        norm = entry.get("metrics")
        if norm is None:
            continue
        if norm["spread"] > row["bound"] or abs(norm.get("worse_by", 0.0)) > row["bound"]:
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in config["end_to_end"]}
    seeds = range(1, args.seeds + 1)
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for set_index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed, seconds)
                runs[workload][set_index].append(result)
                print(f"set {set_index + 1} seed {seed} {workload} "
                      f"{json.dumps({k: result[k] for k in ('metrics', 'raw', 'samples')})}",
                      file=sys.stderr, flush=True)
    steady = True
    for workload in workloads:
        print(f"\n{workload}: spread = IQR/median per set; worse = median change vs set 1")
        print(f"  {'metric':<16}{'bound':>6}  " + "  ".join(
            f"{'set' + str(i + 1) + ' norm':>22}{'raw':>22}" for i in range(args.sets)
        ) + "  ok")
        for row in summarise(runs[workload], bounds):
            cells = []
            for entry in row["sets"]:
                for kind in ("metrics", "raw"):
                    stats = entry.get(kind)
                    if stats is None:
                        cells.append(f"{'-':>22}")
                        continue
                    worse = stats.get("worse_by")
                    worse_text = f" {worse:+.3f}" if worse is not None else ""
                    cells.append(f"{stats['median']:>10.4g} {stats['spread']:.3f}{worse_text:>7}")
            ok = verdict(row)
            steady &= ok
            print(f"  {row['metric']:<16}{row['bound']:>6}  " + "  ".join(cells)
                  + ("  yes" if ok else "  NO"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
