import argparse
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import re
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from chanhom import cli, harness, linsolve, microsim
from chanhom import grid as grid_module
from chanhom.errors import ConfigError, SolverError
from chanhom.microsim import snapshot_steps
from test_microsim import _scaled_coupling

REPO = Path(__file__).resolve().parents[1]
B1 = REPO / "configs" / "b1.json"


def mini_config(**overrides):
    raw = json.loads(B1.read_text())
    raw["epsilon"] = ["1/4"]
    raw["time"] = {"T": 0.125, "dt": {"rule": "fixed", "value": 1 / 128}}
    raw["refinement"] = {"k": 4, "m": 4, "n_sigma": 8}
    raw["snapshot_stride"] = 4
    raw.update(overrides)
    return raw


def test_b1_config_parses_and_echoes_defaults():
    cfg = harness.load_config(B1)
    assert [str(e) for e in cfg.epsilons] == ["1/4", "1/8", "1/16"]
    assert cfg.dt == pytest.approx(1 / 128)  # eps_min / 8
    assert cfg.echo["time"]["dt"] == {"rule": "fixed", "value": cfg.dt}
    assert cfg.echo["refinement"]["n_sigma"] == 32
    # the echo is itself a valid config and parses to the same study
    again = harness.parse_config(cfg.echo)
    assert again.echo == cfg.echo


def test_invalid_epsilon_is_named_in_the_error():
    raw = mini_config(epsilon=["1/4", "0.3"])
    with pytest.raises(ConfigError, match=r"epsilon\[1\]"):
        harness.parse_config(raw)


def test_missing_channel_diffusivity_is_named():
    raw = mini_config()
    del raw["diffusivity"]["channel"]
    with pytest.raises(ConfigError, match="diffusivity.channel required"):
        harness.parse_config(raw)


def test_missing_kinetics_entry_is_named():
    raw = mini_config()
    del raw["kinetics"]["g"]
    with pytest.raises(ConfigError, match="kinetics.g required"):
        harness.parse_config(raw)


def test_misaligned_refinement_is_rejected_with_path():
    raw = mini_config()
    raw["geometry"]["profile"]["segments"] = [
        {"interval": ["-1", "-1/4"], "width": "3/4"},
        {"interval": ["-1/4", "1/4"], "width": "1/4"},
        {"interval": ["1/4", "1"], "width": "3/4"},
    ]
    raw["diffusivity"]["channel"] = [[0.5, 0.5]] * 3
    raw["refinement"] = {"k": 2, "m": 2, "n_sigma": 8}
    with pytest.raises(ConfigError, match="refinement.k"):
        harness.parse_config(raw)


def test_decreasing_epsilon_required():
    raw = mini_config(epsilon=["1/8", "1/4"])
    with pytest.raises(ConfigError, match="decreasing"):
        harness.parse_config(raw)


def test_non_integer_step_count_rejected():
    raw = mini_config(time={"T": 0.1, "dt": {"rule": "fixed", "value": 1 / 128}})
    with pytest.raises(ConfigError, match="integer multiple"):
        harness.parse_config(raw)


@pytest.mark.parametrize("section, value", [
    pytest.param("time", {"T": T, "dt": {"rule": "fixed", "value": dt}}, id=f"{T}-{dt}")
    for T, dt in [(1e300, 1 / 128), (2.0 ** 63, 1 / 128), (0.125, 1e-300)]
] + [
    # 1e20 columns and, by default, as many interface nodes
    pytest.param("epsilon", ["1/100000000000000000000"], id="eps_1e-20_default_n_sigma"),
])
def test_long_schedule_parses_without_listing_its_steps(section, value):
    """A schedule of up to 2**63 steps, or a rung of 1e20 columns, parses in O(1)."""
    raw = mini_config(**{section: value})
    raw["refinement"] = {"k": 4, "m": 4}
    start = time.perf_counter()
    cfg = harness.parse_config(raw)
    assert time.perf_counter() - start < 1.0
    assert cfg.echo[section] == value


def test_snapshot_steps_are_zero_every_stride_and_the_last():
    for n_steps in range(40):
        for stride in range(1, 7):
            want = [n for n in range(n_steps + 1) if n % stride == 0 or n == n_steps]
            assert snapshot_steps(n_steps / 128, 1 / 128, stride) == want
    assert snapshot_steps(0.0, 1 / 128, 4) == [0]


def leaves(obj, path=()):
    """The path of every non-container value in a JSON value."""
    for key, val in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(val, (dict, list)):
            yield from leaves(val, path + (key,))
        else:
            yield path + (key,)


def dotted(path):
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path).lstrip(".")


# one value put in place of every leaf of the mini config in turn (42 leaves)
HOSTILE = [10**400, -10**400, 2**63, -2**63, 1e300, 1e-300, True, "x", None, [], {}]


@pytest.mark.parametrize("value", HOSTILE, ids=["ten_to_400", "minus_ten_to_400", "two_to_63",
                                             "minus_two_to_63", "1e300", "1e-300", "true",
                                             "string", "null", "array", "object"])
def test_hostile_leaf_parses_or_is_named(value):
    """parse_config returns, or names the leaf or one of its ancestors; nothing is run
    (refinement.k = 2**63 parses, and a run would allocate that grid)."""
    for path in leaves(mini_config()):
        raw = mini_config()
        obj = raw
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = value
        try:
            harness.parse_config(raw)
        except ConfigError as exc:
            names = [dotted(path[:i]) for i in range(1, len(path) + 1)]
            assert any(re.search(rf"(?<![\w.[]){re.escape(name)}(?!\w)", str(exc))
                       for name in names), (dotted(path), str(exc)[:200])


# one misspelled key in every kind of config object: (where it goes, the key)
MISSPELT = [
    ((), "snapshot_strid"),
    (("geometry",), "h"),
    (("geometry", "profile"), "segment"),
    (("geometry", "profile", "segments", 0), "widht"),
    (("diffusivity",), "bulk_pluss"),
    (("kinetics",), "f_plu"),
    (("kinetics", "f_plus"), "cap"),
    (("kinetics", "h", "modulation"), "amp"),
    (("initial",), "chanel"),
    (("initial", "bulk_plus"), "val"),
    (("initial", "channel"), "slop"),
    (("time",), "t"),
    (("time", "dt"), "valu"),
    (("refinement",), "nsigma"),
    (("diagnostics",), "shift_hh"),
]


@pytest.mark.parametrize("where, key", MISSPELT, ids=[".".join(map(str, w + (k,)))
                                                      for w, k in MISSPELT])
def test_unknown_config_key_is_named(where, key):
    raw = mini_config()
    raw["kinetics"]["h"]["modulation"] = {"kind": "cos_ybar", "amplitude": 0.5}
    harness.parse_config(raw)  # every known key parses
    obj = raw
    for step in where:
        obj = obj[step]
    obj[key] = 1
    path = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where + (key,))
    with pytest.raises(ConfigError, match=f"^{re.escape(path.lstrip('.'))}: unknown key$"):
        harness.parse_config(raw)


def test_unknown_config_key_exits_one(tmp_path, capsys):
    raw = mini_config()
    raw["refinement"]["nsigma"] = 128
    p = write_config(tmp_path, raw)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
    assert "refinement.nsigma: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_benchmark_configs_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    workloads = importlib.import_module("workloads")
    for name in workloads.SIZES:
        for shrink in (False, True):
            cfg = harness.parse_config(workloads.make_config(REPO, name, 3, shrink))
            assert harness.parse_config(cfg.echo).echo == cfg.echo


def run_mini(tmp_path, name="run1"):
    cfg = harness.parse_config(mini_config())
    out = tmp_path / name
    rep, manifest = harness.run_study(cfg, out_dir=out)
    return cfg, out, rep, manifest


def test_study_writes_report_fields_and_complete_manifest(tmp_path):
    _, out, rep, manifest = run_mini(tmp_path)
    assert len(rep.eps) == 1
    text = (out / "report.csv").read_text()
    assert text.splitlines()[0] == harness.REPORT_HEADER
    assert len(text.splitlines()) == 2
    for rel, digest in manifest["files"].items():
        data = (out / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    listed = set(manifest["files"])
    on_disk = {
        str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()
    } - {"manifest.json"}
    assert listed == on_disk


def test_stored_rows_are_the_snapshots_of_the_run(tmp_path):
    """Each run is one file whose rows are its snapshots bit for bit, hashed as stored."""
    cfg, out, _, manifest = run_mini(tmp_path)
    (eps,) = cfg.epsilons
    runs = {harness.field_path(): [s.u for s in harness.run_macro_study(cfg)[1]],
            harness.field_path(eps): [s.values for s in harness.run_micro_study(cfg, eps)[3]]}
    assert sorted(rel for rel in manifest["files"] if rel.endswith(".npy")) == sorted(runs)
    for rel, snaps in runs.items():
        data = (out / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == manifest["files"][rel]
        stored = np.load(io.BytesIO(data))
        assert stored.shape == (len(snaps), len(snaps[0])) == (5, len(snaps[0]))
        assert [row.tobytes() for row in stored] == [v.tobytes() for v in snaps]


def test_rerun_is_bit_identical(tmp_path):
    _, out1, _, _ = run_mini(tmp_path, "a")
    _, out2, _, _ = run_mini(tmp_path, "b")
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    man1 = json.loads((out1 / "manifest.json").read_text())
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert man1["files"] == man2["files"]


def test_manifest_records_blas_threading_that_report_does_not_read(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _, out, _, manifest = run_mini(tmp_path)
    versions = manifest["versions"]
    assert versions["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": None}
    assert versions["cpu_count"] == os.cpu_count()
    original = (out / "report.csv").read_bytes()
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["versions"] == versions
    on_disk["versions"] = {"blas_threads": "anything", "cpu_count": -1}
    (out / "manifest.json").write_text(json.dumps(on_disk))
    harness.rederive_report(out)
    assert (out / "report.csv").read_bytes() == original


def test_run_holds_at_most_two_micro_snapshots(tmp_path, monkeypatch):
    """Weak references count the live micro snapshots (`MicroState`s, stored ones too) and
    the live `Field`s of their values whenever one is made, at every solve and around
    `compute_report`; the most seen is the most ever alive: the state a step starts
    from and the one it makes, and in `compute_report` the snapshot a diagnostic reads
    and the next."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    live, seen, phase = {"states": [], "fields": []}, {"step": [], "report": []}, ["step"]

    def count():
        for refs in live.values():
            refs[:] = [ref for ref in refs if ref() is not None]
        seen[phase[0]].append(max(len(refs) for refs in live.values()))

    def tracking(kind, init):
        def tracked(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            live[kind].append(weakref.ref(obj))
            count()
        return tracked

    for cls in (microsim.MicroState, *microsim.MicroState.__subclasses__()):
        monkeypatch.setattr(cls, "__init__", tracking("states", vars(cls)["__init__"]))
    field = grid_module.Field
    monkeypatch.setattr(field, "__post_init__", tracking("fields", field.__post_init__))
    solve, compute_report = linsolve.solve_spd, harness.compute_report

    def solve_counted(*args, **kwargs):
        count()
        return solve(*args, **kwargs)

    def report_counted(*args):
        phase[0] = "report"
        count()
        compute_report(*args)
        count()
        phase[0] = "step"

    monkeypatch.setattr(linsolve, "solve_spd", solve_counted)
    monkeypatch.setattr(harness, "compute_report", report_counted)
    harness.run_study(cfg, out_dir=tmp_path / "study")
    assert max(seen["step"]) == 2 and max(seen["report"]) <= 2
    n_steps = round(cfg.T / cfg.dt)
    # each rung: the initial state, then a solve, a field and a state per step
    assert len(seen["step"]) >= len(cfg.epsilons) * (3 * n_steps + 2)
    assert len(seen["report"]) > 4 * len(cfg.epsilons)


@pytest.mark.parametrize("entry", ["rederive_report", "export_study"])
def test_stored_study_holds_at_most_two_micro_rows(tmp_path, monkeypatch, entry):
    """Weak references count the live micro rows a stored study's rungs hand out, at
    every row read, around `compute_report` and at every micro CSV: `report` and
    `export` hold at most two (the row a pass reads and the next), each a row of its
    own, not a view of a held file."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    out = tmp_path / "study"
    harness.run_study(cfg, out_dir=out)
    original = (out / "report.csv").read_bytes()
    live, seen = [], []

    def count():
        live[:] = [ref for ref in live if ref() is not None]
        seen.append(len(live))

    init = harness.SnapshotRows.__init__

    def tracked(rows, grid, times, read):
        def counted(i):
            row = read(i)
            assert row.base is None and not row.flags.writeable
            live.append(weakref.ref(row))
            count()
            return row
        init(rows, grid, times, counted)

    def counting(fn):
        def counted(*args):
            count()
            out = fn(*args)
            count()
            return out
        return counted

    monkeypatch.setattr(harness.SnapshotRows, "__init__", tracked)
    for name in ("compute_report", "micro_field_csv"):
        monkeypatch.setattr(harness, name, counting(getattr(harness, name)))
    if entry == "rederive_report":
        harness.rederive_report(out)
    else:
        harness.export_study(out, tmp_path / "csv")
    assert 1 <= max(seen) <= 2
    # each rung: 5 snapshots, read three times by the report and once by export
    reads = 3 if entry == "rederive_report" else 1
    assert len(seen) >= len(cfg.epsilons) * 5 * reads
    assert (out / "report.csv").read_bytes() == original


def test_cli_report_refuses_a_rung_written_while_it_is_read(tmp_path, capsys, monkeypatch):
    """A rung file rewritten in place while its report row is computed is refused, by
    name, and report.csv is left as it was."""
    out = run_mini(tmp_path, "study")[1]
    report = (out / "report.csv").read_bytes()
    compute_report = harness.compute_report

    def rewriting(*args):
        with open(out / MICRO, "r+b") as fh:  # the last value, one bit changed
            fh.seek(-8, os.SEEK_END)
            value = bytearray(fh.read(8))
            value[0] ^= 1
            fh.seek(-8, os.SEEK_END)
            fh.write(value)
        compute_report(*args)

    monkeypatch.setattr(harness, "compute_report", rewriting)
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {MICRO}: the field file changed while it was read")
    assert "Traceback" not in err
    assert (out / "report.csv").read_bytes() == report


class OpenFiles:
    """Every rung file `harness` opens for reading by name, and which are open now."""

    def __init__(self, monkeypatch):
        self.files = []
        monkeypatch.setattr(harness, "open", self.open, raising=False)

    def open(self, *args, **kwargs):
        fh = open(*args, **kwargs)
        if fh.mode == "rb":
            self.files.append(fh)
        return fh

    def opened(self):
        return [f"fields/{Path(fh.name).name}" for fh in self.files]

    def held(self):
        return [name for name, fh in zip(self.opened(), self.files) if not fh.closed]


TWO_RUNGS = ["fields/micro_eps4.npy", "fields/micro_eps8.npy"]


def two_rungs(tmp_path, stored):
    """The config of a two-rung study and its directory, with the study in it if `stored`."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    if stored:
        harness.run_study(cfg, out_dir=tmp_path / "study")
    return cfg, tmp_path / "study"


def run_entry(entry, cfg, out, tmp_path):
    if entry == "run_study":
        return harness.run_study(cfg, out_dir=out)
    if entry == "rederive_report":
        return harness.rederive_report(out)
    return harness.export_study(out, tmp_path / "csv")


@pytest.mark.parametrize("entry", ["run_study", "rederive_report", "export_study"])
def test_every_rung_file_is_closed_after_its_rung(tmp_path, monkeypatch, entry):
    """`run` and `report` hold only the rung they compute the row of; `export` holds every
    rung while it writes the micro CSVs, checked before any write, and none after."""
    cfg, out = two_rungs(tmp_path, stored=entry != "run_study")
    files, held = OpenFiles(monkeypatch), []
    for name in ("compute_report", "macro_bulk_csv"):
        def holding(*args, fn=getattr(harness, name)):
            held.append(files.held())
            return fn(*args)
        monkeypatch.setattr(harness, name, holding)
    run_entry(entry, cfg, out, tmp_path)
    if entry == "export_study":
        assert held == [[]] * 5  # one bulk CSV per limit-model snapshot
    else:
        assert held == [TWO_RUNGS[:1], TWO_RUNGS[1:]]
    assert files.opened() == TWO_RUNGS and files.held() == []


def forge_in_place(path, edit):
    """Replace the second rung's file `path` by edit(its bytes), rehashed in the manifest."""
    data = edit(path.read_bytes())
    path.write_bytes(data)
    manifest = path.parents[1] / "manifest.json"
    files = json.loads(manifest.read_text())
    files["files"][TWO_RUNGS[1]] = hashlib.sha256(data).hexdigest()
    manifest.write_text(json.dumps(files))


# each refusal of the second rung's file, made after the first rung's file was opened
REFUSALS = {
    "content_mismatch": lambda path: path.write_bytes(path.read_bytes()[:-8] + bytes(8)),
    "unreadable_header": lambda path: forge_in_place(path, lambda data: data[:20]),
    "wrong_shape": lambda path: forge_in_place(
        path, lambda data: npy_of(np.load(io.BytesIO(data))[:, :-1])),
    "trailing_bytes": lambda path: forge_in_place(path, lambda data: data + bytes(8)),
    "nan_values": lambda path: forge_in_place(
        path, lambda data: data[:-8] + np.float64(np.nan).tobytes()),
}


@pytest.mark.parametrize("entry", ["rederive_report", "export_study"])
@pytest.mark.parametrize("refusal", REFUSALS.values(), ids=list(REFUSALS))
def test_every_rung_file_is_closed_when_a_rung_is_refused(tmp_path, monkeypatch, entry,
                                                         refusal):
    """Checked while the refusal's traceback still holds every frame it left."""
    cfg, out = two_rungs(tmp_path, stored=True)
    refusal(out / TWO_RUNGS[1])
    files = OpenFiles(monkeypatch)
    with pytest.raises(ConfigError, match=f"^{TWO_RUNGS[1]}: ") as refused:
        run_entry(entry, cfg, out, tmp_path)
    assert refused.traceback and files.opened() == TWO_RUNGS and files.held() == []
    assert not (tmp_path / "csv").exists()  # export checks every rung before any write


@pytest.mark.parametrize("entry", ["run_study", "rederive_report"])
def test_every_rung_file_is_closed_when_compute_report_raises(tmp_path, monkeypatch, entry):
    """Checked while the error's traceback still holds every frame it left."""
    cfg, out = two_rungs(tmp_path, stored=entry == "rederive_report")
    compute_report, calls = harness.compute_report, []

    def failing(*args):
        calls.append(args[2])
        if len(calls) == 2:
            raise ValueError("a diagnostic failed")
        compute_report(*args)

    monkeypatch.setattr(harness, "compute_report", failing)
    files = OpenFiles(monkeypatch)
    with pytest.raises(ValueError, match="a diagnostic failed") as failed:
        run_entry(entry, cfg, out, tmp_path)
    assert failed.traceback and files.opened() == TWO_RUNGS and files.held() == []


def test_run_study_takes_only_one_thread(tmp_path):
    cfg = harness.parse_config(mini_config())
    with pytest.raises(ValueError, match="threads=2"):
        harness.run_study(cfg, out_dir=tmp_path / "x", threads=2)
    assert not (tmp_path / "x").exists()


def test_report_rederivation_is_bit_exact(tmp_path):
    _, out, _, _ = run_mini(tmp_path)
    original = (out / "report.csv").read_bytes()
    harness.rederive_report(out)
    assert (out / "report.csv").read_bytes() == original


def test_hourglass_profile_study_end_to_end(tmp_path):
    raw = mini_config(epsilon=["1/4", "1/8"])
    raw["geometry"]["profile"]["segments"] = [
        {"interval": ["-1", "-1/4"], "width": "3/4"},
        {"interval": ["-1/4", "1/4"], "width": "1/4"},
        {"interval": ["1/4", "1"], "width": "3/4"},
    ]
    raw["diffusivity"]["channel"] = [[0.5, 0.5], [0.8, 0.3], [0.5, 0.5]]
    raw["kinetics"]["h"]["modulation"] = {"kind": "arc_cos", "amplitude": 0.3}
    raw["refinement"] = {"k": 8, "m": 8, "n_sigma": 8}
    cfg = harness.parse_config(raw)
    rep, _ = harness.run_study(cfg, out_dir=tmp_path / "hg")
    for row in rep.rows():
        assert all(np.isfinite(v) and v >= 0 for v in row)
    assert rep.e_chan[1] < rep.e_chan[0]  # wall ledges included in the remap
    report = (tmp_path / "hg" / "report.csv").read_bytes()
    assert harness.report_csv_text(harness.rederive_report(tmp_path / "hg")).encode() == report
    assert (tmp_path / "hg" / "report.csv").read_bytes() == report
    worst, flat_max, ok = harness.verify_operators(cfg, n_fields=10)
    assert ok, worst


def test_verify_operators_residuals_are_tiny():
    cfg = harness.load_config(B1)
    cfg.epsilons = cfg.epsilons[:2]
    worst, flat_max, ok = harness.verify_operators(cfg, n_fields=10)
    assert ok
    assert flat_max <= 1e-12
    # every per-entry statement and every random-field identity, on every rung
    assert all(len(res) == 12 for res in worst.values()), worst


class _BulkColumn(harness.Unfolder):
    def __init__(self, *args):
        """The first channel cell of the first column replaced by a bulk cell."""
        super().__init__(*args)
        self.columns = self.columns.copy()
        self.columns[0, 0] = np.flatnonzero(self.grid.cell_tag != harness.CHAN)[0]


class _RolledUnfold(harness.Unfolder):
    def unfold(self, u):
        """Each column's reference field read from its neighbour column."""
        return np.roll(super().unfold(u), 1, axis=0)


class _LongMicroWalls(harness.Unfolder):
    def __init__(self, *args):
        super().__init__(*args)
        self.micro_wall_len = 1.01 * self.micro_wall_len


class _ScaledPairing(harness.Unfolder):
    def ts_inner(self, phi, psi):
        return 1.000001 * super().ts_inner(phi, psi)


class _ScaledAverage(harness.Unfolder):
    def average(self, phi):
        return 1.01 * super().average(phi)


class _OneLongMicroWall(harness.Unfolder):
    def __init__(self, *args):
        super().__init__(*args)
        self.micro_wall_len = self.micro_wall_len.copy()
        self.micro_wall_len[0] *= 1 + 1e-11


def tripped(worst):
    """The statements of each rung that deviate by more than 1e-12."""
    return {eps: [name for name, val in res.items() if val > 1e-12]
            for eps, res in worst.items()}


# each broken Unfolder, the statements a default call trips on every rung (the rest read
# exactly 0), and the identities the random fields trip; together they trip all five
@pytest.mark.parametrize("mutant, statements, identities", [
    (_BulkColumn, ["bijection", "pairing", "cell_volume", "weighted_volume"],
     ["inner_product", "round_trip"]),
    (_RolledUnfold, ["bijection"], ["gradient_commutation", "adjoint", "round_trip"]),
    (_LongMicroWalls, ["wall_length"], ["boundary_norm"]),
    (_ScaledPairing, ["pairing"], ["inner_product", "adjoint"]),
    (_ScaledAverage, ["bijection"], ["adjoint", "round_trip"]),
], ids=["bulk_column", "rolled_unfold", "long_micro_walls", "scaled_pairing",
        "scaled_average"])
def test_verify_operators_catches_a_broken_unfolder(monkeypatch, mutant, statements,
                                                    identities):
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    monkeypatch.setattr(harness, "Unfolder", mutant)
    worst, flat_max, ok = harness.verify_operators(cfg)
    assert not ok
    assert tripped(worst) == {"1/4": statements, "1/8": statements}, worst
    assert all(val == 0.0 for res in worst.values() for name, val in res.items()
               if name not in statements), worst
    worst, flat_max, ok = harness.verify_operators(cfg, n_fields=3)
    assert not ok and flat_max > 1e-9
    for res in worst.values():
        assert all(res[name] > 1e-9 for name in identities), res


def _one_long_wall_face(grid):
    """The micro model's walls, the first length x (1 + 1e-11)."""
    walls = grid_module.wall_faces(grid)
    length = walls.length.copy()
    length[0, 0] *= 1 + 1e-11
    return dataclasses.replace(walls, length=length)


# one wall off in the unfolder's lengths, or in the micro model's own
@pytest.mark.parametrize("name, mutant", [("Unfolder", _OneLongMicroWall),
                                          ("wall_faces", _one_long_wall_face)],
                         ids=["unfolder", "micro_model"])
def test_verify_operators_sees_one_micro_wall_off_by_1e_11(monkeypatch, name, mutant):
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    monkeypatch.setattr(harness, name, mutant)
    worst, flat_max, ok = harness.verify_operators(cfg)
    assert not ok
    assert tripped(worst) == {"1/4": ["wall_length"], "1/8": ["wall_length"]}, worst
    assert all(res["wall_length"] == pytest.approx(1e-11, rel=1e-3) for res in worst.values())


def test_verify_operators_sees_one_channel_volume_off_by_1e_11(monkeypatch):
    """Entry by entry the one cell shows in full; the random pairings dilute it below 1e-12."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    rung_grid = harness._rung_grid

    def mutant(cfg, eps):
        geom, grid = rung_grid(cfg, eps)
        vol = grid.cell_vol.copy()
        vol[np.flatnonzero(grid.cell_tag == harness.CHAN)[0]] *= 1 + 1e-11
        grid.cell_vol = vol
        return geom, grid

    monkeypatch.setattr(harness, "_rung_grid", mutant)
    worst, flat_max, ok = harness.verify_operators(cfg)
    assert not ok
    assert tripped(worst) == dict.fromkeys(worst, ["cell_volume", "weighted_volume"]), worst
    assert all(res["cell_volume"] == pytest.approx(1e-11, rel=1e-3) for res in worst.values())
    random = ("inner_product", "boundary_norm", "gradient_commutation", "adjoint", "round_trip")
    worst = harness.verify_operators(cfg, n_fields=100)[0]
    assert max(res[name] for res in worst.values() for name in random) <= 1e-12, worst


def test_verify_operators_is_deterministic():
    """By default nothing is drawn: the seed changes no deviation."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    results = []
    for seed in (0, 3, 20240901):
        cfg.seed = seed
        results.append(harness.verify_operators(cfg))
    assert results[0] == results[1] == results[2]
    assert results[0][1] == 0.0 and results[0][2]  # exact at power-of-two eps


def test_verify_operators_draws_only_channel_values(monkeypatch):
    """By default no generator is built; with n_fields, v, w and phi draw three normal
    values per channel cell, per field and rung."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    default_rng, rngs = np.random.default_rng, []

    class CountingRng:  # any draw but `normal` is an AttributeError
        def __init__(self, seed):
            self.rng, self.drawn = default_rng(seed), 0
            rngs.append(self)

        def normal(self, size):
            self.drawn += int(np.prod(size))
            return self.rng.normal(size=size)

    monkeypatch.setattr(harness.np.random, "default_rng", CountingRng)
    assert harness.verify_operators(cfg)[2]
    assert rngs == []
    assert harness.verify_operators(cfg, n_fields=3)[2]
    chan = sum(int(np.sum(harness._rung_grid(cfg, eps)[1].cell_tag == harness.CHAN))
               for eps in cfg.epsilons)
    assert [rng.drawn for rng in rngs] == [3 * 3 * chan]


def test_verify_operators_builds_no_field(monkeypatch):
    """The identity suite passes plain value vectors: no Field is built, none validated."""
    cfg = harness.parse_config(mini_config())
    built, post_init = [], harness.Field.__post_init__

    def counted(field):
        built.append(field)
        post_init(field)

    monkeypatch.setattr(harness.Field, "__post_init__", counted)
    assert harness.verify_operators(cfg)[2]
    assert built == []
    grid = harness._rung_grid(cfg, cfg.epsilons[0])[1]
    harness.Field(grid, np.zeros(grid.n_cells))
    assert len(built) == 1  # the guard sees a Field when one is built


def write_config(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return p


def test_cli_run_and_report_round_trip(tmp_path, capsys):
    p = write_config(tmp_path, mini_config())
    out = tmp_path / "study"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert harness.REPORT_HEADER in captured.out
    assert cli.main(["report", str(out)]) == 0


def test_cli_verify_operators_exit_zero(tmp_path, capsys):
    p = write_config(tmp_path, mini_config())
    assert cli.main(["verify-operators", str(p)]) == 0
    assert "max identity residual" in capsys.readouterr().out


def test_cli_verify_operators_refuses_a_negative_seed(tmp_path, capsys):
    p = write_config(tmp_path, mini_config())
    assert cli.main(["verify-operators", str(p), "--seed", "-1"]) == 1
    assert "error: --seed:" in capsys.readouterr().err


def test_cli_verify_operators_takes_a_seed(tmp_path, capsys):
    p = write_config(tmp_path, mini_config())
    assert cli.main(["verify-operators", str(p), "--seed", "3"]) == 0
    assert "max identity residual" in capsys.readouterr().out


# the config's seed draws only the optional random fields of verify_operators, and run
# echoes it; a study runs its rungs one after another
@pytest.mark.parametrize("option", [["--seed", "3"], ["--threads", "2"]], ids=["seed", "threads"])
def test_cli_run_has_no_seed_option(tmp_path, capsys, option):
    p = write_config(tmp_path, mini_config())
    assert cli.main(["run", str(p), "--out", str(tmp_path / "x"), *option]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and f"unrecognized arguments: {' '.join(option)}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["frobnicate", "micro", "macro"])
def test_cli_unknown_subcommand_exits_one(tmp_path, capsys, command):
    p = write_config(tmp_path, mini_config())
    assert cli.main([command, str(p), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and f"invalid choice: '{command}'" in err
    assert not (tmp_path / "x").exists()


def test_readme_command_lines_are_the_subcommands():
    """README's `## Command line` block shows one `chanhom <command>` line per sub-command,
    and every `--option` the section names is an option of some sub-command."""
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("chanhom ")]
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)
    options = {opt for parser in sub.choices.values() for action in parser._actions
               for opt in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named <= options, f"README names options no sub-command has: {named - options}"


def test_cli_validation_failure_exits_one(tmp_path, capsys):
    raw = mini_config(epsilon=["0.3"])
    p = write_config(tmp_path, raw)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
    assert "epsilon[0]" in capsys.readouterr().err


def test_cli_misaligned_refinement_exits_one(tmp_path, capsys):
    raw = mini_config()
    raw["geometry"]["profile"]["segments"] = [
        {"interval": ["-1", "0"], "width": "1/3"},
        {"interval": ["0", "1"], "width": "2/3"},
    ]
    raw["diffusivity"]["channel"] = [[0.5, 0.5]] * 2
    p = write_config(tmp_path, raw)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "refinement.k" in err and "a channel wall would fall inside a cell" in err


@pytest.mark.parametrize("command", ["run", "verify-operators"])
def test_cli_without_a_config_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main([command]) == 1
    assert "the following arguments are required: config" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


NOT_UTF8 = b'{"output_dir": "\xff"}'


def a_file(path, data=b"not a directory\n"):
    path.write_bytes(data)
    return path


def bare_study(tmp_path, manifest):
    """A study directory holding only `manifest` (bytes) as its manifest.json."""
    (tmp_path / "study").mkdir()
    a_file(tmp_path / "study" / "manifest.json", manifest)
    return tmp_path / "study"


def field_is_a_directory(tmp_path):
    out = run_mini(tmp_path, "study")[1]
    field = out / "fields" / "macro.npy"
    field.unlink()
    field.mkdir()
    return ["report", out], "fields/macro.npy"


# each case makes its input under tmp_path and returns the command line and what the
# error must name
UNREADABLE = {
    "run_config_not_utf8": lambda tmp: (
        ["run", a_file(tmp / "cfg.json", NOT_UTF8), "--out", tmp / "x"], tmp / "cfg.json"),
    "verify_config_not_utf8": lambda tmp: (
        ["verify-operators", a_file(tmp / "cfg.json", NOT_UTF8)], tmp / "cfg.json"),
    "run_config_is_a_directory": lambda tmp: (["run", tmp, "--out", tmp / "x"], tmp),
    "report_manifest_not_utf8": lambda tmp: (
        ["report", bare_study(tmp, NOT_UTF8)], tmp / "study" / "manifest.json"),
    "export_manifest_not_utf8": lambda tmp: (
        ["export", bare_study(tmp, NOT_UTF8), "--out", tmp / "x"],
        tmp / "study" / "manifest.json"),
    "report_config_not_an_object": lambda tmp: (
        ["report", bare_study(tmp, b'{"schema": 3, "config": 5}')], "manifest.json.config:"),
    "report_field_is_a_directory": field_is_a_directory,
    "run_out_is_a_file": lambda tmp: (
        ["run", write_config(tmp, mini_config()), "--out", a_file(tmp / "taken")],
        tmp / "taken"),
    "export_out_is_a_file": lambda tmp: (
        ["export", run_mini(tmp, "study")[1], "--out", a_file(tmp / "taken")], tmp / "taken"),
    "run_config_integer_too_long": lambda tmp: (
        ["run", a_file(tmp / "cfg.json", b'{"seed": ' + b"7" * 5000 + b"}"), "--out", tmp / "x"],
        tmp / "cfg.json"),
    "run_step_count_overflows": lambda tmp: (
        ["run", write_config(tmp, mini_config(time={"T": 1e300, "dt": {
            "rule": "fixed", "value": 1e-10}})), "--out", tmp / "x"], "time:"),
}


def tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("case", UNREADABLE.values(), ids=list(UNREADABLE))
def test_cli_unreadable_input_exits_one_naming_it(tmp_path, capsys, case):
    argv, named = case(tmp_path)
    before = tree(tmp_path)
    capsys.readouterr()
    assert cli.main([str(arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert "Traceback" not in err
    assert tree(tmp_path) == before  # refused before anything is written


# |base| + |amplitude| overflows, though both values are finite
OVERFLOWING_COSINE = {"kind": "cosine_xbar", "base": 1e308, "amplitude": 1e308}


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda raw: raw["diffusivity"].update(bulk_plus=float("nan")),
         "diffusivity.bulk_plus"),
        (lambda raw: raw["kinetics"].update(
            g={"kind": "tabulated", "u": [1.0, 0.0], "rate": [0.0, 1.0]}), "kinetics.g"),
        (lambda raw: raw["kinetics"]["f_plus"].update(u_cap=0), "kinetics.f_plus"),
        (lambda raw: raw["diffusivity"].update(bulk_plus="abc"), "diffusivity.bulk_plus"),
        (lambda raw: raw["diffusivity"].update(channel=[[0.5, None]]),
         "diffusivity.channel[0][1]"),
        (lambda raw: raw["initial"]["bulk_plus"].update(value="one"), "initial.bulk_plus.value"),
        (lambda raw: raw["kinetics"]["g"].update(modulation={"kind": "yn", "amplitude": "x"}),
         "kinetics.g.modulation.amplitude"),
        (lambda raw: raw["kinetics"]["f_plus"].update(r="fast"), "kinetics.f_plus.r"),
        (lambda raw: raw["kinetics"]["f_minus"].update(clamp=-1.0), "kinetics.f_minus"),
        (lambda raw: raw["time"].update(T=float("inf")), "time.T"),
        (lambda raw: raw["refinement"].update(k="four"), "refinement.k"),
        (lambda raw: raw["refinement"].update(n_sigma=8.5), "refinement.n_sigma"),
        (lambda raw: raw["time"].update(dt={"rule": "eps_min_over", "factor": 0}),
         "time.dt.factor"),
        (lambda raw: raw.update(geometry=5), "geometry"),
        (lambda raw: raw.update(refinement=[]), "refinement"),
        (lambda raw: raw["time"].update(dt=5), "time.dt"),
        (lambda raw: raw["diffusivity"].update(channel=5), "diffusivity.channel"),
        (lambda raw: raw["geometry"]["profile"].update(segments=5), "geometry.profile.segments"),
        (lambda raw: raw["geometry"]["profile"]["segments"][0].update(interval=["-1"]),
         "geometry.profile.segments[0].interval"),
        (lambda raw: raw["diagnostics"].update(theta=0), "diagnostics.theta"),
        (lambda raw: raw["diagnostics"].update(shift_h=-1), "diagnostics.shift_h"),
        (lambda raw: raw["diagnostics"].update(shift_l=100), "diagnostics"),
        (lambda raw: raw["kinetics"].update(
            g={"kind": "tabulated", "u": [0, float("nan")], "rate": [0, 1]}), "kinetics.g.u[1]"),
        (lambda raw: raw["kinetics"].update(
            g={"kind": "tabulated", "u": [0, 1], "rate": [0, float("inf")]}),
         "kinetics.g.rate[1]"),
        (lambda raw: raw["kinetics"]["g"].update(kind=[]), "kinetics.g.kind"),
        (lambda raw: raw.update(output_dir=5), "output_dir"),
        (lambda raw: raw["refinement"].update(k=0, m=0), "refinement.k"),
        (lambda raw: raw["refinement"].update(k=-4, m=-4), "refinement.k"),
        (lambda raw: raw.update(seed=-1), "seed"),
        (lambda raw: raw["time"].update(T=False), "time.T"),
        (lambda raw: raw.update(snapshot_stride=True), "snapshot_stride"),
        (lambda raw: raw.update(seed=True), "seed"),
        (lambda raw: raw["diffusivity"].update(bulk_plus=True), "diffusivity.bulk_plus"),
        (lambda raw: raw["diagnostics"].update(theta=True), "diagnostics.theta"),
        (lambda raw: raw["diffusivity"].update(bulk_plus="2.5"), "diffusivity.bulk_plus"),
        (lambda raw: raw.update(seed="7"), "seed"),
        (lambda raw: raw.update(snapshot_stride="4"), "snapshot_stride"),
        (lambda raw: raw["kinetics"]["f_plus"].update(
            modulation={"kind": "cos_ybar", "amplitude": 0.5}), "kinetics.f_plus.modulation"),
        (lambda raw: raw["kinetics"]["g"].update(
            modulation={"kind": "arc_cos", "amplitude": 0.3}), "kinetics.g.modulation.kind"),
        (lambda raw: raw["initial"].update(bulk_plus=OVERFLOWING_COSINE), "initial.bulk_plus"),
        (lambda raw: (raw["initial"].update(bulk_plus=OVERFLOWING_COSINE),
                      raw["time"].update(T=0)), "initial.bulk_plus"),
        (lambda raw: raw["initial"].update(
            channel={"kind": "affine_yn", "base": -1e308, "slope": 1e308}), "initial.channel"),
        (lambda raw: raw["initial"].update(
            channel={"kind": "affine_yn_cosine_xbar", "base": 1e300, "slope": 0.0,
                     "amplitude": 1e10}), "initial.channel"),
        (lambda raw: raw.update(seed=10**400), "seed"),
        (lambda raw: raw["refinement"].update(k=10**400), "refinement.k"),
        (lambda raw: raw["time"].update(T=-10**400), "time.T"),
        (lambda raw: raw["initial"].update(
            bulk_plus={"kind": "cosine_xbar", "base": 0, "amplitude": 1, "frequency": 10**400}),
         "initial.bulk_plus.frequency"),
        (lambda raw: raw["kinetics"]["f_plus"].update(r=10**400), "kinetics.f_plus.r"),
        (lambda raw: raw["geometry"].update(H="1e400"), "geometry.H"),
        (lambda raw: raw["geometry"].update(H="1e-99999999"), "geometry.H"),
        (lambda raw: raw["geometry"]["profile"]["segments"][0].update(interval=["-1", 10**400]),
         "geometry.profile.segments[0].interval[1]"),
        (lambda raw: raw["diagnostics"].update(shift_l=10**30), "diagnostics"),
        (lambda raw: raw["diagnostics"].update(shift_l=-10**30), "diagnostics"),
        (lambda raw: raw["diagnostics"].update(shift_l=2**63), "diagnostics"),
    ],
    ids=["nan_diffusivity", "decreasing_knots", "zero_u_cap", "string_diffusivity",
         "null_channel_diffusivity", "string_initial_value", "string_amplitude",
         "string_rate", "negative_clamp", "infinite_horizon", "string_refinement",
         "fractional_n_sigma", "zero_dt_factor", "number_geometry", "array_refinement",
         "number_dt", "number_channel_diffusivity", "number_segments", "short_interval",
         "zero_theta", "negative_shift_h", "empty_shift_margin", "nan_tabulated_knot",
         "infinite_tabulated_rate", "array_kinetics_kind", "number_output_dir",
         "zero_refinement", "negative_refinement", "negative_seed", "boolean_horizon",
         "boolean_stride", "boolean_seed", "boolean_diffusivity", "boolean_theta",
         "numeric_string_diffusivity", "numeric_string_seed", "numeric_string_stride",
         "bulk_rate_modulation", "channel_rate_arc_modulation", "overflowing_cosine",
         "overflowing_cosine_at_t0", "overflowing_affine_channel",
         "overflowing_modulated_channel", "int_seed_beyond_floats", "int_k_beyond_floats",
         "int_horizon_beyond_floats", "int_frequency_beyond_floats", "int_rate_beyond_floats",
         "rational_H_beyond_floats", "rational_H_exponent_too_long",
         "int_interval_end_beyond_floats", "shift_l_1e30", "shift_l_minus_1e30",
         "shift_l_2_to_63"],
)
def test_cli_bad_value_exits_one_with_path(tmp_path, capsys, edit, path):
    raw = mini_config()
    edit(raw)
    p = write_config(tmp_path, raw)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}:" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()  # rejected before any solve


def overflowing_config(tmp_path):
    """A one-rung study whose limit-model solve fails on its first step."""
    raw = mini_config(epsilon=["1/4"], time={"T": 1 / 16, "dt": {"rule": "fixed", "value": 1 / 64}})
    raw["initial"]["bulk_plus"] = {"kind": "constant", "value": 1e308}
    return write_config(tmp_path, raw)


# the limit model's right-hand sides overflow to inf
def test_cli_run_on_data_that_overflows_a_solve_exits_two(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["run", str(overflowing_config(tmp_path)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "numerical failure: right-hand side is not finite" in captured.err
    assert "Traceback" not in captured.err
    assert not (out / "report.csv").exists() and "inf" not in captured.out


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["run", str(overflowing_config(tmp_path)), "--out", str(out)]) == 2
    assert "numerical failure: right-hand side is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_failing_on_a_later_rung_removes_every_written_file(tmp_path, capsys, monkeypatch):
    """A step of the second rung fails after that rung's file was opened and its first
    rows written: the partly written file goes with the rest."""
    raw = mini_config(epsilon=["1/4", "1/8"])
    second = harness.parse_config(raw).epsilons[1]
    step, partial = microsim.MicroSimulation.step, []
    out = tmp_path / "study"

    def failing(sim, state, dt):
        if sim.geom.eps == second and state.t >= 6 * dt:
            partial.append((out / harness.field_path(second)).is_file())
            raise SolverError("injected failure")
        return step(sim, state, dt)

    monkeypatch.setattr(microsim.MicroSimulation, "step", failing)
    assert cli.main(["run", str(write_config(tmp_path, raw)), "--out", str(out)]) == 2
    assert "numerical failure: injected failure" in capsys.readouterr().err
    assert partial == [True]
    assert list(tmp_path.rglob("*.npy")) == [] and not out.exists()


def test_run_whose_factor_the_probe_refuses_exits_two(tmp_path, capsys, monkeypatch):
    """A micro stiffness with one bulk x-coupling scaled by 1 + 1e-6: its factor reads
    grid column 0's rows, which are intact, and the build's probe solve refuses it."""
    assemble = microsim.assemble_micro_operator

    def off_by_one_coupling(geom, grid, diff):
        A, weights = assemble(geom, grid, diff)
        # bulk cells below the channels, in grid columns 5 and 6
        return _scaled_coupling(A, grid.index[5, 0], grid.index[6, 0], 1e-6), weights

    monkeypatch.setattr(microsim, "assemble_micro_operator", off_by_one_coupling)
    out = tmp_path / "x"
    assert cli.main(["run", str(write_config(tmp_path, mini_config())), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: OpeningCapacitance does not invert its matrix" in err
    assert "Traceback" not in err and not out.exists()


def test_failed_run_keeps_what_was_in_the_output_directory(tmp_path, capsys):
    out = tmp_path / "x"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert cli.main(["run", str(overflowing_config(tmp_path)), "--out", str(out)]) == 2
    capsys.readouterr()
    assert list(out.iterdir()) == [out / "notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


def test_cli_report_without_manifest_exits_one(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path)]) == 1
    assert "manifest.json" in capsys.readouterr().err


def test_cli_report_refuses_an_edited_field_file(tmp_path, capsys):
    p = write_config(tmp_path, mini_config())
    out = tmp_path / "study"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    report = (out / "report.csv").read_bytes()
    field = out / "fields" / "micro_eps4.npy"
    data = bytearray(field.read_bytes())
    data[-2] = ord("8") if data[-2] == ord("9") else ord("9")  # last digit of one value
    field.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    assert "fields/micro_eps4.npy" in capsys.readouterr().err
    assert (out / "report.csv").read_bytes() == report


def with_time(manifest, i, value):
    times = list(manifest["snapshot_times"])
    times[i] = value
    return dict(manifest, snapshot_times=times)


def with_horizon(manifest, T, n_times):
    """config.time.T edited to T, snapshot_times cut to their first n_times."""
    config = dict(manifest["config"], time=dict(manifest["config"]["time"], T=T))
    return dict(manifest, config=config, snapshot_times=manifest["snapshot_times"][:n_times])


def with_config(manifest, section, **edit):
    """config.<section> updated with `edit`, config_sha256 left as the run wrote it."""
    config = dict(manifest["config"], **{section: dict(manifest["config"][section], **edit)})
    return dict(manifest, config=config)


# the mini study runs 16 steps of 1/128 and stores steps 0, 4, 8, 12 and 16
@pytest.mark.parametrize("edit, named", [
    (lambda manifest: {}, "manifest.json.config required"),
    (lambda manifest: [1], "manifest.json: expected an object"),
    (lambda manifest: dict(manifest, snapshot_times=3), "manifest.json.snapshot_times"),
    (lambda manifest: dict(manifest, files=[]), "manifest.json.files"),
    (lambda manifest: with_time(manifest, 1, "soon"), "manifest.json.snapshot_times[1]"),
    (lambda manifest: with_time(manifest, 1, None), "manifest.json.snapshot_times[1]"),
    (lambda manifest: with_time(manifest, 1, float("nan")), "manifest.json.snapshot_times[1]"),
    (lambda manifest: dict(manifest, snapshot_times=manifest["snapshot_times"][:2]),
     "manifest.json.snapshot_times: 2 entries"),
    (lambda manifest: with_horizon(manifest, 15 / 128, 5), "manifest.json.snapshot_times[4]"),
    (lambda manifest: with_horizon(manifest, 8 / 128, 5), "manifest.json.snapshot_times: 5"),
    (lambda manifest: with_horizon(manifest, 8 / 128, 3), "fields/macro_traces_s0003.csv"),
    (lambda manifest: dict(manifest, files=dict(
        manifest["files"], **{"fields/micro_eps8_s0000.csv": "0" * 64})),
     "fields/micro_eps8_s0000.csv"),
    (lambda manifest: with_config(manifest, "diffusivity", bulk_plus=5.0),
     "manifest.json.config_sha256"),
    (lambda manifest: with_config(manifest, "diffusivity", bulk_plus="abc"),
     "manifest.json.config.diffusivity.bulk_plus: not a finite number"),
    (lambda manifest: with_config(manifest, "diagnostics", shift_h=0.0625),
     "manifest.json.config_sha256"),
    (lambda manifest: {key: val for key, val in manifest.items() if key != "config_sha256"},
     "manifest.json.config_sha256"),
    (lambda manifest: dict(manifest, schema=1), "manifest.json.schema"),
    (lambda manifest: dict(manifest, schema=2), "manifest.json.schema: study schema 2"),
    (lambda manifest: with_time(manifest, 1, 10**400), "manifest.json.snapshot_times[1]"),
    (lambda manifest: dict(manifest, config=dict(manifest["config"], seed=10**400)),
     "manifest.json.config.seed: not a finite number"),
    (lambda manifest: with_horizon(manifest, 1e300, 5), "manifest.json.snapshot_times: 5"),
], ids=["empty_object", "array", "number_snapshot_times", "array_files", "string_time",
        "null_time", "nan_time", "two_times", "horizon_off_schedule", "horizon_shorter",
        "horizon_and_times_cut", "unread_field_file", "edited_diffusivity",
        "string_diffusivity", "edited_shift_h",
        "no_config_hash", "schema_1", "schema_2", "int_time_beyond_floats",
        "int_seed_beyond_floats", "horizon_1e300"])
def test_cli_report_refuses_a_malformed_manifest(tmp_path, capsys, edit, named):
    p = write_config(tmp_path, mini_config())
    out = tmp_path / "study"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    report = (out / "report.csv").read_bytes()
    path = out / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    assert f"error: {named}" in capsys.readouterr().err
    assert (out / "report.csv").read_bytes() == report


def npy_of(array, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def npy_2_0(vals):
    """The values as a format 2.0 `.npy` file, which chanhom never writes."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, vals, version=(2, 0))
    return buf.getvalue()


def forged_traces(data, vals):
    """The traces CSV with the last digit of its last value changed."""
    data = bytearray(data)
    data[-2] = ord("8") if data[-2] == ord("9") else ord("9")
    return bytes(data)


def with_nan(vals):
    vals = vals.copy()
    vals[3] = np.nan
    return npy_of(vals)


def with_header(data, old, new):
    """The .npy file with `old` replaced by `new` in its header, padded to its length."""
    end = data.index(b"\n") + 1
    head = data[:end].replace(old, new)
    assert head != data[:end]
    return head[:-1].rstrip(b" ").ljust(end - 1) + b"\n" + data[end:]


MICRO = "fields/micro_eps4.npy"


# each forge maps the file's bytes and, for a .npy file, its values to new bytes; the
# mini study stores 5 snapshots of 288 micro cells
@pytest.mark.parametrize("rel, forge, named", [
    (MICRO, lambda data, vals: npy_of(vals.astype(np.float32)), "holds <f4 values"),
    (MICRO, lambda data, vals: npy_of(vals[:, :, None]),
     "holds <f8 values of shape (5, 288, 1)"),
    (MICRO, lambda data, vals: npy_of(vals[:, :-1]), "holds <f8 values of shape (5, 287)"),
    (MICRO, lambda data, vals: npy_of(np.asfortranarray(vals)),
     "holds <f8 values of shape (5, 288) in Fortran order"),
    (MICRO, lambda data, vals: npy_of(vals.astype(object), allow_pickle=True),
     "holds |O values"),
    (MICRO, lambda data, vals: data[:20], "not a readable .npy file"),
    (MICRO, lambda data, vals: data[:10] + b"{[[[[[[[[" + data[19:], "not a readable .npy file"),
    (MICRO, lambda data, vals: with_header(data, b" 'shape'", b"b'shape'"),
     "not a readable .npy file"),
    (MICRO, lambda data, vals: with_header(data, b"(5, 288)", b"(5L, 288L)"),
     "not a readable .npy file"),
    (MICRO, lambda data, vals: with_header(data, b"'<f8'", b"'<a8'"),
     "not a readable .npy file"),
    (MICRO, lambda data, vals: with_header(data, b"(5, 288)", b"(5, %d)" % 2**70),
     "holds <f8 values of shape (5, %d)" % 2**70),
    (MICRO, lambda data, vals: with_header(data, b"(5, 288)", b"(5, %d)" % 10**11),
     "holds <f8 values of shape (5, %d)" % 10**11),
    (MICRO, lambda data, vals: with_nan(vals), "holds non-finite values"),
    (MICRO, lambda data, vals: data + b"garbage!", "holds 11528 bytes of values, expected 11520"),
    (MICRO, lambda data, vals: data[:-8], "holds 11512 bytes of values, expected 11520"),
    ("fields/macro.npy", lambda data, vals: npy_of(vals[1:]), "holds <f8 values"),
    ("fields/macro.npy", lambda data, vals: npy_2_0(vals),
     "not a readable .npy file (format version (2, 0))"),
    ("fields/macro_traces_s0002.csv", forged_traces,
     "is not the traces CSV of row 2 of fields/macro.npy"),
], ids=["float32", "three_dimensional", "wrong_length", "fortran_order", "object_array",
        "truncated_header", "garbled_header", "bytes_key_header", "python2_long_shape",
        "deprecated_dtype_alias", "overflowing_shape",
        "huge_shape", "nan_values", "trailing_bytes", "short_data", "wrong_macro_length",
        "format_2_0", "edited_traces"])
def test_cli_report_refuses_a_forged_field_file(tmp_path, capsys, rel, forge, named):
    """A field file replaced and rehashed in the manifest is still refused by its content."""
    p = write_config(tmp_path, mini_config())
    out = tmp_path / "study"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    report = (out / "report.csv").read_bytes()
    data = (out / rel).read_bytes()
    vals = np.load(io.BytesIO(data)) if rel.endswith(".npy") else None
    data = forge(data, vals)
    (out / rel).write_bytes(data)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"][rel] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rel}: ") and named in err
    assert "Traceback" not in err
    assert (out / "report.csv").read_bytes() == report


@pytest.mark.parametrize("forge", [
    lambda data: data[:20],
    lambda data: npy_of(np.load(io.BytesIO(data))[:, :-1]),
    lambda data: data + b"garbage!",
    lambda data: data[:-8] + np.float64(np.nan).tobytes(),
], ids=["truncated_header", "wrong_length", "trailing_bytes", "nan_values"])
def test_cli_report_refuses_a_forged_rung_by_its_hash_first(tmp_path, capsys, forge):
    """A forged rung file left with the SHA-256 of the bytes it replaced is refused by
    that hash before its content is judged."""
    out = run_mini(tmp_path, "study")[1]
    report = (out / "report.csv").read_bytes()
    (out / MICRO).write_bytes(forge((out / MICRO).read_bytes()))
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {MICRO}: content does not match its manifest SHA-256\n"
    assert (out / "report.csv").read_bytes() == report


@pytest.mark.parametrize("shape", [(0, 0), (1, 5), (17, 288), (3, 100000), (65, 12288)])
def test_read_npy_is_a_view_of_what_np_load_reads(shape):
    """The written chunks are np.save's bytes, and the values read are np.load's."""
    rows = np.random.default_rng(shape[1]).normal(size=shape)
    data = b"".join(bytes(chunk) for chunk in harness._npy_chunks(shape, iter(rows)))
    assert data == npy_of(rows)
    got = harness._read_npy("f.npy", data, shape)
    assert np.array_equal(got, np.load(io.BytesIO(data))) and got.dtype == np.dtype("<f8")
    assert not got.flags.writeable  # a view of data, not a parsed copy


@pytest.mark.parametrize("count", [2, 4])
def test_streamed_rows_must_fill_their_header(tmp_path, count):
    """Rows that end before the header's shape or run past it fail the write, and the
    file is listed from its first byte, so a failed run removes it."""
    writer = harness.StudyWriter(tmp_path)
    with pytest.raises(ValueError, match=rf"{count} rows for a .npy header of shape \(3, 2\)"):
        writer.write_rows("fields/x.npy", (3, 2), iter(np.ones((count, 2))))
    assert writer.files == {"fields/x.npy": None}


def test_streamed_rung_reads_its_rows_back_one_at_a_time(tmp_path):
    """A streamed rung's snapshots are its held run's bit for bit; length, iteration,
    indexing and the times read no row, a state reads its own row once, and no row is
    read once the reader's block has closed the file."""
    cfg = harness.parse_config(mini_config())
    (eps,) = cfg.epsilons
    writer, relpath = harness.StudyWriter(tmp_path), harness.field_path(eps)
    geom, grid, times = harness._stream_micro_rung(cfg, eps, writer)
    held = harness.run_micro_study(cfg, eps)[3]
    reads = []
    with harness._file_rows(tmp_path, relpath, (5, grid.n_cells), writer.files[relpath]) as read:
        snaps = harness.SnapshotRows(grid, times, lambda i: reads.append(i) or read(i))
        assert len(snaps) == len(held) == 5 and snaps[-1].t == held[-1].t
        assert [s.t for s in snaps] == [s.t for s in held] and reads == []
        last = snaps[-1]
        assert last.values.tobytes() == held[-1].values.tobytes() and last.u.grid is grid
        assert reads == [4] and not last.values.flags.writeable
        assert [s.values.tobytes() for s in snaps] == [s.values.tobytes() for s in held]
        with pytest.raises(IndexError):
            snaps[5]
    with pytest.raises(ValueError, match="closed file"):  # no row once the file is closed
        read(0)


def test_cli_report_that_cannot_write_report_csv_exits_one(tmp_path, capsys):
    out = run_mini(tmp_path, "study")[1]
    (out / "report.csv").unlink()
    (out / "report.csv").mkdir()
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'report.csv'}: cannot write the file")
    assert "Traceback" not in err


@pytest.mark.parametrize("taken", ["manifest.json", "fields/macro.npy", "report.csv"])
def test_cli_run_that_cannot_write_a_study_file_exits_one(tmp_path, capsys, taken):
    out = tmp_path / "study"
    (out / taken).mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(["run", str(write_config(tmp_path, mini_config())), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / taken}: cannot write the file")
    assert "Traceback" not in err


def test_cli_export_refuses_a_study_report_refuses(tmp_path, capsys):
    p = write_config(tmp_path, mini_config())
    out = tmp_path / "study"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    (out / "fields" / "macro.npy").write_bytes(npy_of(np.zeros(3)))
    capsys.readouterr()
    assert cli.main(["export", str(out), "--out", str(tmp_path / "csv")]) == 1
    assert "error: fields/macro.npy: content does not match" in capsys.readouterr().err
    assert not (tmp_path / "csv").exists()
    assert cli.main(["export", str(out)]) == 1  # --out is required
