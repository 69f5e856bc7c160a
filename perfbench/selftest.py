"""Shrunk self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at self-test size (`--shrink`), untraced and traced,
through the same child processes as a real run, and checks that

- every metric of BENCHMARK.json is emitted with its unit and no check fails;
- every named span fires on each workload that uses it, and the tracer puts
  back every function it wrapped;
- a corrupted field file makes the failure count positive (b1 and certify).

Exits 0 when all of that holds.
"""

import json
import os
import shutil
import sys

import run
import spans
import workloads
import worker

STUDY_SPANS = set(spans.span_names()) - {"harness.rederive_report", "harness.verify_operators"}
USES = {
    "b1": STUDY_SPANS,
    "ladder64": STUDY_SPANS,
    "limit_fine": {"grid.wall_faces", "linsolve.solve_spd", "macrosim.MacroSimulation.init",
                   "macrosim.step", "macrosim.explicit_rate", "harness.field_csv",
                   "harness.StudyWriter.write"},
    "certify": {"geometry.build_micro_geometry", "grid.build_micro_grid", "grid.wall_faces",
                "macrosim.MacroSimulation.init", "twoscale.Unfolder.init", "twoscale.ts_error",
                "twoscale.shift_diagnostic", "twoscale.trace_inequality_diagnostic",
                "harness.compute_report", "harness.rederive_report", "harness.verify_operators"},
}


def corrupt_first_field(wl):
    """Change the last digit of the first stored field file."""
    path = sorted((wl.out / "fields").glob("*.csv"))[0]
    data = bytearray(path.read_bytes())
    data[-2] = ord("8") if data[-2] == ord("9") else ord("9")
    path.write_bytes(bytes(data))


def main() -> int:
    root = run.ROOT
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    expect(set().union(*USES.values()) == set(spans.span_names()),
           "every named span is used by some workload")
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, env = run.run_workload(root, bench, name, 7, 0, trace, shrink=True)
            kind = "per-layer" if trace else "end-to-end"
            units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            emitted = {key: m["unit"] for key, m in result["metrics"].items()}
            expect(emitted == units and all(isinstance(m["value"], (int, float))
                                            for m in result["metrics"].values()),
                   f"{name}: every {kind} metric emitted with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name}: {result['failed']} of {result['attempted']} operations and checks "
                   f"failed (trace {trace})")
            if trace:
                missing = USES[name] - set(env["fired_spans"])
                expect(not missing, f"{name}: named spans fired (missing {sorted(missing)})")
            else:
                expect(env["threads"] == dict.fromkeys(worker.THREAD_VARS, "1"),
                       f"{name}: worker ran with BLAS/OpenMP threads pinned to 1")

    # in-process: corrupted outputs must be counted, wrapped functions restored
    os.environ.update(dict.fromkeys(worker.THREAD_VARS, "1"))
    sys.path.insert(0, str(root / "src"))
    worker.import_program(root)
    work_root = root / run.WORK
    for name in ("b1", "certify"):
        run_dir = work_root / f"selftest-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        workloads.write_config(root, run_dir, name, 7, shrink=True)
        if name == "certify":
            worker.prepare_certify_study(root, work_root, shrink=True)
        res = worker.measure(name, run_dir, 7, 0, True, shrink=True,
                             after_op=corrupt_first_field)
        expect(res["failed"] > 0, f"{name}: corrupted field file counted as failure "
                                  f"({res['failed']} of {res['attempted']})")
        shutil.rmtree(run_dir)
    # the corrupted shrunk study must not be reused
    expect(worker.prepare_certify_study(root, work_root, shrink=True),
           "certify: a study failing its manifest hashes is rewritten in set-up")

    from chanhom import grid, harness, linsolve, microsim, twoscale

    restored = (microsim.wall_faces is grid.wall_faces
                and twoscale.wall_faces is grid.wall_faces
                and not hasattr(linsolve.solve_spd, "__wrapped__")
                and not hasattr(harness.StudyWriter.write, "__wrapped__")
                and not hasattr(microsim.MicroSimulation.step, "__wrapped__"))
    expect(restored, "tracer restored every wrapped function")

    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
