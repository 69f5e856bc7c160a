"""Study benchmark for chanhom: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload ladder64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --summary          # every workload, every metric

Run from the root of a checkout.  The workload runs in a child process
(`worker.py`) with OPENBLAS/OMP/MKL threads pinned to 1, one study at a
time.  Before it, `setup_s` is measured as the median over fresh
interpreters of the time to `import chanhom` and `load_config` the
workload's generated config.  The last line of standard output is the
result: `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics of BENCHMARK.json for `--trace 0` and the per-layer ones for
`--trace 1`; the line before it records the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
WORK = ".perfbench_work"   # everything a run writes, under the checkout root
RUN_LIMIT_S = 175          # whole invocation, child processes included
SETUP_PROBES = 5
PROBE = ("import sys, time\n"
         "from chanhom import harness\n"
         "harness.load_config(sys.argv[1])\n"
         "print(time.monotonic())\n")


def pinned_env(root) -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def setup_seconds(root, config, env, probes=SETUP_PROBES, timeout=60) -> float:
    """Median time from a fresh interpreter to a parsed StudyConfig.

    One discarded probe first, so bytecode caches are written before timing.
    """
    values = []
    for i in range(probes + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE, str(config)], env=env, cwd=root,
                              capture_output=True, text=True, timeout=timeout, check=True)
        if i:
            values.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(values)


def _child(args, env, root, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"), "--root", str(root)]
    done = subprocess.run(cmd + args, env=env, cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: worker exited with {done.returncode}")
    return done.stdout


def run_workload(root, bench, name, seed, seconds, trace, shrink=False):
    """Run one workload; returns (result line, environment and per-op details)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work_root = Path(root) / WORK
    run_dir = work_root / f"run-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = pinned_env(root)
    try:
        config = workloads.write_config(root, run_dir, name, seed, shrink)
        common = ["--work", str(run_dir), "--workload", name] + (["--shrink"] if shrink else [])
        if name == "certify":
            _child(common + ["--prepare"], env, root, deadline)
        values = {}
        if not trace:
            values["setup_s"] = setup_seconds(root, config, env)
        args = common + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            (work_root / "traces").mkdir(exist_ok=True)
            args += ["--spans", str(work_root / "traces" / f"{name}-seed{seed}.jsonl")]
        out = json.loads(_child(args, env, root, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values.update(out["metrics"])
    for line in out["failures"]:
        print(f"perfbench: check failed on {name}: {line}", file=sys.stderr)
    details = dict(out["environment"], fired_spans=out["fired"], op_seconds=out["op_seconds"])
    return result_line(bench, values, out, trace), details


def result_line(bench, values, out, trace) -> dict:
    """The contract's result object; every metric named in BENCHMARK.json, with its unit."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {missing}")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _check_checkout(root):
    needed = ["BENCHMARK.json", "src/chanhom/__init__.py", str(workloads.BASE_CONFIG)]
    missing = [rel for rel in needed if not (Path(root) / rel).is_file()]
    if missing:
        raise SystemExit(f"perfbench: {root} is not a chanhom checkout (missing {missing})")


def summary(root, bench, seed, seconds):
    """Every end-to-end metric by name and unit, plus fail_ratio, per workload."""
    worst = 0
    for w in bench["workloads"]:
        result, env = run_workload(root, bench, w["name"], seed, seconds, 0)
        print(f"{w['name']}: {w['why']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<14} {m['value']:>14.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'fail_ratio':<14} {ratio:>14.6g} ({result['failed']} of "
              f"{result['attempted']} operations and checks)")
        worst = max(worst, result["failed"])
    print(json.dumps({key: env[key] for key in ("nproc", "cpu_model", "python", "numpy",
                                                "scipy", "threads")}))
    return 1 if worst else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="chanhom study benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true", help="run every workload, print a table")
    args = p.parse_args(argv)
    _check_checkout(ROOT)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.summary:
        return summary(ROOT, bench, args.seed, args.seconds)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        p.error(f"--workload must be one of {[w['name'] for w in bench['workloads']]}")
    result, env = run_workload(ROOT, bench, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
