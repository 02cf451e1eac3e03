"""Run one workload of the STRIPES benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-50k --seed 7 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing attached;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  BENCHMARK.json lists the workloads and metrics; sizes, limits
and metric definitions live in ``perfbench/spec.json``.
Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Results,
their definitions and (traced runs) the spans are also written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: spec.json's)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: {src}/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import measure
    import workloads

    spec = workloads.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    kind = spec["workloads"][args.workload]["kind"]
    if kind == "library":
        import library as runner
    else:
        import openloop as runner
    gc.collect()
    outcome = runner.run(spec, args.workload, seed, args.seconds,
                         bool(args.trace), OUT_DIR)
    for line in outcome["notes"]:
        print(line)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(outcome["metrics"]):
        print(f"perfbench: metrics {sorted(outcome['metrics'])} do not "
              f"match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 3
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": outcome["correct"],
              "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "finished_at": time.time(),
                   "machine": measure.machine(),
                   "params": spec["workloads"][args.workload],
                   "definitions": spec["metrics"],
                   "result": result, "details": outcome["details"],
                   "notes": outcome["notes"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
