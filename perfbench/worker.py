"""Child process of the benchmark: one workload's timed loop, or certify set-up.

`run.py` starts this file with the BLAS/OpenMP thread variables pinned to 1
and `PYTHONPATH` pointing at the checkout's `src/`.  The last line of
standard output is one JSON object with the raw metric values, the check
counts and the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program(root):
    """Import chanhom from this checkout's src/ and nowhere else."""
    import chanhom

    found = Path(chanhom.__file__).resolve().parent
    if found != (Path(root) / "src" / "chanhom").resolve():
        raise SystemExit(f"worker: chanhom imported from {found}, not from this checkout")


def environment() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _source_key(root, raw_config) -> str:
    h = hashlib.sha256(json.dumps(raw_config, sort_keys=True).encode())
    src = Path(root) / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare_certify_study(root, work_root, shrink=False) -> bool:
    """Write the ladder64 study certify reads; reuse one from the same source.

    Returns True when the study was (re)written.
    """
    from chanhom import harness

    study = workloads.certify_study_dir(work_root, shrink)
    raw = workloads.make_config(root, "certify", 0, shrink)
    key = _source_key(root, raw)
    stamp = study.with_name(study.name + ".key")
    if stamp.is_file() and stamp.read_text() == key and (study / "manifest.json").is_file():
        files = json.loads((study / "manifest.json").read_text())["files"]
        if all((study / rel).is_file() and workloads.sha256_file(study / rel) == digest
               for rel, digest in files.items()):
            return False
    stamp.unlink(missing_ok=True)
    shutil.rmtree(study, ignore_errors=True)
    harness.run_study(harness.parse_config(raw), out_dir=study, threads=1)
    stamp.write_text(key)
    return True


def measure(name, work, seed, seconds, trace, shrink=False, after_op=None, spans_path=None):
    """Repeat the workload's operation until `seconds` of timed work are done.

    At least one operation runs, even when it takes longer than `seconds`.
    With `trace` the operations alternate between untraced and traced, so
    one run yields both the study time and the per-layer breakdown.
    `after_op(workload)` runs between an operation and its checks (the
    self-test corrupts a field file there).
    """
    checks = workloads.Checks()
    wl = workloads.WORKLOADS[name](name, work, shrink)
    wl.setup(checks)
    tracer = spans.Tracer() if trace else None
    plain, traced, cpu, out_bytes, layers = [], [], [], [], []
    fired = set()
    ops = failed_ops = 0
    errors = []
    while True:
        use_trace = trace and len(traced) < len(plain)
        wl.before_op()
        if use_trace:
            tracer.run_id = f"{name}-seed{seed}-op{ops}"
            tracer.install()
        ops += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if use_trace:
                with tracer.span(spans.ROOT_SPAN):
                    wl.op()
            else:
                wl.op()
        except Exception as exc:  # a failed operation is counted, not timed
            failed_ops += 1
            errors.append(f"operation failed: {type(exc).__name__}: {exc}")
            break
        finally:
            wall, cpu_s = time.perf_counter() - t0, time.process_time() - c0
            if use_trace:
                tracer.uninstall()
        if use_trace:
            traced.append(wall)
            metrics, names = spans.layer_metrics(tracer.spans, tracer.run_id)
            layers.append(metrics)
            fired |= names
        else:
            plain.append(wall)
            cpu.append(cpu_s)
            out_bytes.append(wl.output_bytes())
        if after_op is not None:
            after_op(wl)
        wl.check(checks)
        if sum(plain) + sum(traced) >= seconds and plain and (traced or not trace):
            break

    result = {
        "attempted": ops + checks.attempted,
        "failed": failed_ops + len(checks.failures),
        "failures": errors + checks.failures,
        "fired": sorted(fired),
        "op_seconds": {"untraced": plain, "traced": traced},
        "metrics": {},
    }
    if not plain or (trace and not traced):
        return result
    study_s = statistics.median(plain)
    if not trace:
        result["metrics"] = {
            "study_s": study_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "output_mb": statistics.median(out_bytes) / 1e6,
        }
        return result
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - study_s
    metrics["process.cpu_s"] = statistics.median(cpu)
    metrics["process.cpu_over_wall"] = statistics.median(c / w for c, w in zip(cpu, plain))
    metrics["study.unknown_steps_per_s"] = metrics["linsolve.solve_spd.unknowns"] / study_s
    result["metrics"] = metrics
    if spans_path is not None:
        tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout root")
    p.add_argument("--work", required=True, help="run directory holding <workload>.json")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", action="store_true", help="tiny sizes for the self-test")
    p.add_argument("--prepare", action="store_true", help="only write certify's stored study")
    p.add_argument("--spans", default=None, help="where to write the traced spans")
    args = p.parse_args(argv)

    import_program(args.root)
    if args.prepare:
        prepare_certify_study(args.root, Path(args.work).parent, args.shrink)
        return 0
    result = measure(args.workload, Path(args.work), args.seed, args.seconds, bool(args.trace),
                     args.shrink, spans_path=args.spans)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
