"""Record the reference values the benchmark's correctness checks compare to.

    PYTHONPATH=src python3 perfbench/reference.py --commit <sha>

Writes `perfbench/reference.json`: the report.csv lines of b1 and ladder64
(certify re-derives ladder64, so it shares that reference) and a summary of
the final limit-model state of limit_fine, at full and self-test sizes.
Record it only from a commit whose results are trusted, and say why in the
change that re-records it.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import workloads
from worker import import_program

ROOT = Path(__file__).resolve().parent.parent


def record(root, shrink):
    from chanhom import harness

    out = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name in ("b1", "ladder64"):
            cfg = harness.parse_config(workloads.make_config(root, name, 0, shrink))
            rep, _ = harness.run_study(cfg, out_dir=Path(tmp) / name)
            out[name] = {"report": harness.report_csv_text(rep).strip().split("\n")}
    cfg = harness.parse_config(workloads.make_config(root, "limit_fine", 0, shrink))
    sim, snaps = harness.run_macro_study(cfg)
    out["limit_fine"] = {"final": workloads.macro_summary(sim, snaps[-1])}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--commit", required=True, help="commit the values are recorded at")
    args = p.parse_args(argv)
    import_program(ROOT)
    ref = {"recorded_at": args.commit,
           "full": record(ROOT, False),
           "shrunk": record(ROOT, True)}
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
