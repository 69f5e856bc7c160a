"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads b1 ladder64] [--first-seed 1]

Each run is one `run.py` call with its own seed, exactly as BENCHMARK.json's
command is invoked.  Prints, per workload and end-to-end metric, the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound ("ok" below a third of it),
then one JSON line with the same numbers, as stored in `trajectory.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    point, worst_fail = {}, 0
    for name in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            worst_fail = max(worst_fail, result["failed"])
            for key in values:
                values[key].append(result["metrics"][key]["value"])
            print(f"{name} seed {args.first_seed + i}: " + " ".join(
                f"{key}={result['metrics'][key]['value']:.6g}" for key in values), flush=True)
        point[name] = {}
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            point[name][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "runs": len(vals), "unit": m["unit"]}
            bound = m.get("bound")
            flag = "" if bound is None else (
                f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}")
            print(f"  {m['name']:<16} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}{flag}")
    print(json.dumps(point))
    return 1 if worst_fail else 0


if __name__ == "__main__":
    sys.exit(main())
