"""Run one workload of the poclkit benchmark and print its result.

    python3 perfbench/run.py --workload suite-plain --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` and
the problems are read from ``tests/fixtures/``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The lines before it describe the
machine and the run. Outputs go to ``.perfbench-out/<workload>/``.

``--write-golden`` records the run's fingerprint as the golden one for the
workload (the seed only orders the work, so any seed gives the same).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def load_metric_units(path: str, trace: bool) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (os.path.join(src, "poclkit"), os.path.join(ROOT, "tests", "fixtures"),
                   spec_path):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from a poclkit checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    golden_doc = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden_doc = json.load(fh)
    golden = None if args.write_golden else golden_doc.get(args.workload, {})

    units = load_metric_units(spec_path, bool(args.trace))
    out_dir = os.path.join(ROOT, ".perfbench-out", args.workload)
    result = workloads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace),
                           out_dir, golden)

    if args.write_golden:
        if result["errors"]:
            print("perfbench: golden needs a run without errors", file=sys.stderr)
            return 2
        golden_doc[args.workload] = result["fingerprint"]
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden_doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    missing = set(units) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 2
    print("machine:", json.dumps(machine()))
    print("units_s:", json.dumps(result["units"]), "traced_units_s:",
          json.dumps(result["traced_units"]))
    for error in result["errors"][:20]:
        print("error:", error)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
