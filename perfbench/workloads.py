"""The four benchmark workloads: generated configs, timed operation, checks.

Every config derives from the shipped `configs/b1.json`; the workload seed
only replaces the config's `seed`, which draws the random fields of
`verify_operators`, so the physics and the reference values are the same for
every seed.  `--shrink` swaps in tiny sizes for the self-test.
"""

import hashlib
import json
import math
import shutil
from pathlib import Path

BASE_CONFIG = Path("configs") / "b1.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

LADDER = ["1/4", "1/8", "1/16", "1/32", "1/64"]
# per workload: full size, then the self-test size
SIZES = {
    "b1": ({}, {"epsilon": ["1/4", "1/8"], "n_sigma": 8, "T": 0.125, "dt": 1 / 64}),
    "ladder64": ({"epsilon": LADDER, "n_sigma": 64, "dt": 1 / 512},
                 {"epsilon": ["1/4", "1/8", "1/16"], "n_sigma": 16, "T": 0.125, "dt": 1 / 64}),
    "limit_fine": ({"n_sigma": 128, "dt": 1 / 512},
                   {"epsilon": ["1/4", "1/8"], "n_sigma": 16, "T": 0.125, "dt": 1 / 64}),
}
SIZES["certify"] = SIZES["ladder64"]

REPORT_RTOL = 1e-6   # report.csv against the recorded reference
REPORT_ATOL = 1e-9   # shift_ratio sits at round-off level (~1e-11)
FLUX_TOL = 1e-9      # per-side interface flux balance, as in the acceptance gate
IDENTITY_TOL = 1e-12  # verify_operators residual


def make_config(root, workload, seed, shrink=False) -> dict:
    raw = json.loads((Path(root) / BASE_CONFIG).read_text())
    size = SIZES[workload][1 if shrink else 0]
    if "epsilon" in size:
        raw["epsilon"] = size["epsilon"]
    if "n_sigma" in size:
        raw["refinement"]["n_sigma"] = size["n_sigma"]
    if "T" in size:
        raw["time"]["T"] = size["T"]
    if "dt" in size:
        raw["time"]["dt"] = {"rule": "fixed", "value": size["dt"]}
    raw["seed"] = seed
    return raw


def write_config(root, work, workload, seed, shrink=False) -> Path:
    path = Path(work) / f"{workload}.json"
    path.write_text(json.dumps(make_config(root, workload, seed, shrink), indent=2) + "\n")
    return path


def certify_study_dir(work_root, shrink=False) -> Path:
    """The stored ladder64 study that certify reads, kept beside the run dirs."""
    return Path(work_root) / ("certify_study_shrunk" if shrink else "certify_study")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def load_reference(size_key, workload):
    return json.loads(REFERENCE.read_text())[size_key][workload]


class Checks:
    """Correctness checks of one run; each one counts as an attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def hashes(self, out_dir, files):
        bad = [rel for rel, digest in files.items()
               if not (out_dir / rel).is_file() or sha256_file(out_dir / rel) != digest]
        self.expect("sha256 matches the bytes on disk", bool(files) and not bad,
                    f"{len(bad)} of {len(files)} files differ, first {bad[:1]}")

    def report(self, text, ref_lines):
        lines = text.strip().split("\n")
        ok = len(lines) == len(ref_lines) and lines[0] == ref_lines[0]
        pairs = [(a, b) for line, ref in zip(lines[1:], ref_lines[1:])
                 for a, b in zip(map(float, line.split(",")), map(float, ref.split(",")))]
        self.close("report.csv within tolerance of the reference", ok, pairs)

    def close(self, name, ok, pairs):
        """|got - ref| <= REPORT_RTOL * |ref| + REPORT_ATOL for every pair."""
        bad = [(a, b) for a, b in pairs if not abs(a - b) <= REPORT_RTOL * abs(b) + REPORT_ATOL]
        self.expect(name, ok and bool(pairs) and not bad, f"first deviation (got, ref) {bad[:1]}")


def macro_summary(sim, state) -> dict:
    """Sum, L2 norm, min and max of each block of a limit-model state."""
    out = {}
    for name in ("bulk_plus", "bulk_minus", "v_plus", "v_minus", "cells"):
        v = getattr(state, name).ravel()
        out[name] = [float(v.sum()), float(math.sqrt((v * v).sum())),
                     float(v.min()), float(v.max())]
    out["weighted_mass"] = [sim.weighted_mass(state.u)]
    return out


# ---------------------------------------------------------------------------
# workloads: setup() once, then before_op() / op() / check() per repetition.
# Only op() is timed.  `out` is the directory the operation writes.

class _Workload:
    def __init__(self, name, work, shrink):
        from chanhom import harness  # imported inside the pinned child only

        self.harness = harness
        self.name = name
        self.work = Path(work)
        self.shrink = shrink
        self.size_key = "shrunk" if shrink else "full"
        self.cfg = harness.load_config(self.work / f"{name}.json")  # see write_config
        self.out = self.work / "out"

    def setup(self, checks):
        pass

    def before_op(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def output_bytes(self) -> int:
        return dir_bytes(self.out)


class StudyWorkload(_Workload):
    """`harness.run_study`: micro ladder, limit model, report, fields, manifest."""

    def op(self):
        self.rep, self.manifest = self.harness.run_study(self.cfg, out_dir=self.out, threads=1)

    def check(self, checks):
        checks.hashes(self.out, self.manifest["files"])
        checks.report((self.out / "report.csv").read_text(),
                      load_reference(self.size_key, self.name)["report"])
        if self.name == "ladder64":
            e = self.rep.e_chan
            checks.expect("E_chan decreases strictly along the rungs",
                          all(b < a for a, b in zip(e, e[1:])), f"E_chan {e}")


class LimitWorkload(_Workload):
    """The limit model alone plus its three field writers, as `chanhom macro`."""

    def op(self):
        h = self.harness
        self.sim, snaps = h.run_macro_study(self.cfg)
        self.writer = h.StudyWriter(self.out)
        for idx, state in enumerate(snaps):
            self.writer.write(f"fields/macro_bulk_s{idx:04d}.csv",
                              h.macro_bulk_csv(self.sim, state))
            self.writer.write(f"fields/macro_cells_s{idx:04d}.csv",
                              h.macro_cells_csv(self.sim, state))
            self.writer.write(f"fields/macro_traces_s{idx:04d}.csv",
                              h.macro_traces_csv(self.sim, state))
        self.final = snaps[-1]

    def check(self, checks):
        checks.hashes(self.out, self.writer.files)
        rp, rm = self.sim.flux_balance_residuals(self.final)
        worst = max(float(rp.max()), float(rm.max()))
        checks.expect("final flux_balance_residuals within tolerance", worst <= FLUX_TOL,
                      f"max residual {worst:.3e}")
        ref = load_reference(self.size_key, self.name)["final"]
        got = macro_summary(self.sim, self.final)
        checks.close("final limit-model state within tolerance of the reference",
                     got.keys() == ref.keys(),
                     [pair for key in ref for pair in zip(got[key], ref[key])])


class CertifyWorkload(_Workload):
    """Read path: re-derive a stored ladder64 study and verify the operators.

    The stored study is written in set-up (untimed) by a separate process and
    kept between runs of the same checkout while its source hash matches.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.out = certify_study_dir(self.work.parent, self.shrink)

    def setup(self, checks):
        manifest = json.loads((self.out / "manifest.json").read_text())
        self.files = manifest["files"]
        checks.hashes(self.out, self.files)
        self.stored = (self.out / "report.csv").read_bytes()

    def before_op(self):
        pass

    def op(self):
        self.rep = self.harness.rederive_report(self.out)
        _, self.residual, self.identities_ok = self.harness.verify_operators(self.cfg)

    def check(self, checks):
        text = self.harness.report_csv_text(self.rep)
        checks.expect("re-derived report matches the stored one byte for byte",
                      text.encode() == self.stored)
        checks.hashes(self.out, self.files)
        checks.report(text, load_reference(self.size_key, "ladder64")["report"])
        checks.expect("verify_operators residual <= 1e-12",
                      self.identities_ok and self.residual <= IDENTITY_TOL,
                      f"residual {self.residual:.3e}")

    def output_bytes(self) -> int:
        return (self.out / "report.csv").stat().st_size


WORKLOADS = {
    "b1": StudyWorkload,
    "ladder64": StudyWorkload,
    "limit_fine": LimitWorkload,
    "certify": CertifyWorkload,
}
