"""The repo benchmark: one command per workload run.

    python3 perfbench/run.py --workload full_sample --seed 1 --seconds 42 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``full_sample``  — monolithic 2e4-item catalog, every request a k-DPP sample;
* ``funnel_mixed`` — sharded 1e5-item catalog behind the retrieval funnel,
  mixed modes and session requests;
* ``train_lkp``    — ``Trainer.fit`` of MF with the LkP-NPS criterion.

A run is a sequence of interleaved rounds (set-up, load, host probe).
Every timing metric is reported at reference host speed: raw x
(reference probe / the round's smoothed probe), using the probe parts
that match where the workload spends its time.  The raw values and the
probe readings are printed beside them.  ``peak_rss_mb`` is the peak
resident memory the program adds once the harness's inputs exist; the
harness's own share is printed beside it.  ``--trace 1`` records spans
around the program's public seams and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any output fails the correctness gate.
"""

import os

# One process, one worker, BLAS capped at one thread: set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _declared() -> tuple[dict, dict, tuple]:
    """Metric units and workload names, as ``BENCHMARK.json`` declares them."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in config[kind]}
             for kind in ("end_to_end", "per_layer")}
    names = tuple(w["name"] for w in config["workloads"])
    return units["end_to_end"], units["per_layer"], names


END_TO_END, PER_LAYER, WORKLOADS = _declared()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the full result."""
    from hostprobe import HostProbe
    from spans import Tracer

    probe = HostProbe()
    tracer = Tracer() if trace else None
    span_cost = tracer.calibrate() if tracer is not None else 0.0
    if workload == "train_lkp":
        import training_load

        result = training_load.run(seed, seconds, probe, tracer)
        parts = training_load.PROBE_PARTS
    else:
        import serving_load

        spec = serving_load.SPECS[workload]
        result = serving_load.run(spec, seed, seconds, probe, tracer)
        parts = serving_load.PROBE_PARTS
    host = probe.summary()
    result["probe"] = {
        "parts": parts,
        "summary": host,
        "readings": [
            [round(wall, 3), *(round(reading[p], 4) for p in ("py", "blas", "mem"))]
            for wall, reading in probe.readings
        ],
    }
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(result["layers"])
    layers.update({
        "host.probe_py_ms": host["py"],
        "host.probe_blas_ms": host["blas"],
        "host.probe_mem_ms": host["mem"],
        "host.probe_spread": host["spread"],
    })
    if tracer is not None:
        layers["trace.overhead_frac"] = len(tracer.spans) * span_cost / result["measured_s"]
        layers["trace.missing"] = len(tracer.missing)
        result["tracer"] = tracer
    result["layers"] = layers
    return result


def report(args, result) -> dict:
    """Print the human-readable report; return the final JSON object."""
    from measure import environment

    gate = result["gate"]
    timings = result["timings"]
    e2e = result["end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  env {json.dumps(environment())}")
    print(f"{'metric':<16}{'value':>14}{'raw':>14}  unit")
    for name, unit in END_TO_END.items():
        raw = timings["raw"].get(name)
        raw_text = f"{raw:14.4f}" if raw is not None else f"{'':14}"
        print(f"{name:<16}{e2e[name]:14.4f}{raw_text}  {unit}")
    probe = result["probe"]
    host = probe["summary"]
    print(f"host probe ({len(probe['readings'])} readings; timings divided by "
          f"{'+'.join(probe['parts'])}): py {host['py']:.3f} ms  blas {host['blas']:.3f} ms  "
          f"mem {host['mem']:.3f} ms  spread {host['spread']:.3f}")
    print(f"samples {json.dumps(timings['samples'])}  measured_s {result['measured_s']:.2f}  "
          f"memory {json.dumps(result['memory'])}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30}{result['layers'][name]:14.4f}  {unit}")
    for error in gate.errors:
        print(f"GATE FAILURE: {error}")
    print(json.dumps({"detail": {
        "raw": timings["raw"], "normalised": timings["normalised"],
        "samples": timings["samples"], "probe": host, "memory": result["memory"],
        "probe_readings": result["probe"]["readings"],
    }}))
    chosen = PER_LAYER if args.trace else END_TO_END
    source = result["layers"] if args.trace else e2e
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": float(source[name]), "unit": unit}
            for name, unit in chosen.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    final = report(args, result)
    if args.trace:
        result["tracer"].write(
            ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "layers": result["layers"]},
        )
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
