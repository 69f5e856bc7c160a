"""The benchmark's span tracer against the program it rebinds.

`perfbench/spans.py` times the program's layers by rebinding functions and
methods where the program looks them up.  A refactor that moves a traced
name, or calls a writer through a reference taken at import time, silences
a span without failing any benchmark check; these tests catch that.
"""

import importlib
import sys
from pathlib import Path

import pytest

from chanhom import cli, harness

from test_harness import mini_config

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    return importlib.import_module("spans")


def _resolve(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(spans):
    """Every name bound in a chanhom module, plus every traced method."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "chanhom" or name.startswith("chanhom."):
            out.update({(name, key): val for key, val in vars(mod).items()})
    for _, module, attr, _ in spans.TRACED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[(module, attr)] = vars(getattr(sys.modules[module], cls_name))[meth]
    return out


def test_every_traced_entry_resolves(spans):
    for name, module, attr, _ in spans.TRACED:
        assert callable(_resolve(module, attr)), name


def test_traced_study_and_cli_fire_every_writer_span(spans, tmp_path, capsys):
    cfg = harness.parse_config(mini_config())
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.micro_field_csv is not before[("chanhom.harness", "micro_field_csv")]
        harness.run_study(cfg, out_dir=tmp_path / "study")
        (eps,) = cfg.epsilons
        snaps = harness.run_micro_study(cfg, eps)[3]
        harness.write_micro_fields(harness.StudyWriter(tmp_path / "micro"), eps, snaps)
        harness.write_macro_fields(harness.StudyWriter(tmp_path / "macro"),
                                   *harness.run_macro_study(cfg))
        assert cli.main(["export", str(tmp_path / "study"), "--out", str(tmp_path / "csv")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    fired = [rec[3] for rec in tracer.spans]
    written = [p for d in ("study", "micro", "macro", "csv") for p in (tmp_path / d).rglob("*")
               if p.is_file() and p.name != "manifest.json"]
    # 5 snapshots: the study's report, its micro and limit-model .npy and a traces CSV
    # each; the micro writer's .npy; the macro writer's .npy and a traces CSV each; the
    # export's four CSVs each
    assert len(written) == 1 + 2 + 5 + 1 + (1 + 5) + 4 * 5
    assert fired.count("harness.StudyWriter.write") == len(written)
    csvs = [p for p in written if p.suffix == ".csv" and p.name != "report.csv"]
    assert len(csvs) == 2 * 5 + 4 * 5  # the traces CSVs of study and macro, the exported CSVs
    assert fired.count("harness.field_csv") == len(csvs)
    assert "microsim.MicroSimulation.init" in fired
    assert "macrosim.MacroSimulation.init" in fired

    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []


def test_macro_solves_run_under_macro_steps(spans):
    """Every limit-model solve is one full system solve inside a step.

    The benchmark files `linsolve.solve_spd` spans under `macrosim.step` as
    its `.macro` solve layer; a solve made elsewhere, or on part of the
    system, would blur what that layer measures.
    """
    cfg = harness.parse_config(mini_config())
    tracer = spans.Tracer()
    tracer.install()
    try:
        sim, _ = harness.run_macro_study(cfg)
    finally:
        tracer.uninstall()

    by_id = {rec[1]: rec for rec in tracer.spans}
    solves = [rec for rec in tracer.spans if rec[3] == "linsolve.solve_spd"]
    assert len(solves) == round(cfg.T / cfg.dt)
    for rec in solves:
        assert by_id[rec[2]][3] == "macrosim.step"
        assert rec[6] == sim.n


def test_micro_solves_run_under_micro_steps(spans):
    """Every channel-resolved solve is one full system solve inside a step.

    The benchmark files `linsolve.solve_spd` spans under `microsim.step` as
    its `.micro` solve layer: one solve per step and rung, on all cells of
    that rung's grid.
    """
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    n_steps = round(cfg.T / cfg.dt)
    tracer = spans.Tracer()
    tracer.install()
    try:
        cells = [harness.run_micro_study(cfg, eps)[1].n_cells for eps in cfg.epsilons]
    finally:
        tracer.uninstall()

    by_id = {rec[1]: rec for rec in tracer.spans}
    solves = [rec for rec in tracer.spans if rec[3] == "linsolve.solve_spd"]
    assert all(by_id[rec[2]][3] == "microsim.step" for rec in solves)
    assert [rec[6] for rec in solves] == [n for n in cells for _ in range(n_steps)]


REPORT_LAYERS = ("twoscale.Unfolder.init", "twoscale.ts_error", "twoscale.shift_diagnostic",
                 "twoscale.trace_inequality_diagnostic")


@pytest.mark.parametrize("entry", ["run_study", "rederive_report"])
def test_report_layers_fire_once_per_rung_inside_compute_report(spans, tmp_path, entry):
    """The certify layers are the spans of `harness.compute_report`, one each per rung.

    A diagnostic moved out of `compute_report`, or called once per snapshot,
    would shift time between `harness.compute_report.s` and its layers, or
    change what a layer's time counts, without failing any benchmark check.
    """
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    out = tmp_path / "study"
    if entry == "rederive_report":
        harness.run_study(cfg, out_dir=out)
    tracer = spans.Tracer()
    tracer.install()
    try:
        if entry == "run_study":
            harness.run_study(cfg, out_dir=out)
        else:
            harness.rederive_report(out)
    finally:
        tracer.uninstall()

    reports = [rec for rec in tracer.spans if rec[3] == "harness.compute_report"]
    assert len(reports) == len(cfg.epsilons)
    for rec in reports:
        assert sorted(r[3] for r in tracer.spans if r[2] == rec[1]) == sorted(REPORT_LAYERS)
    assert sum(rec[3] in REPORT_LAYERS for rec in tracer.spans) == 4 * len(cfg.epsilons)


def test_verify_operators_fires_its_span(spans):
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"]))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.verify_operators(cfg, n_fields=2)[2]
    finally:
        tracer.uninstall()
    assert [rec[3] for rec in tracer.spans].count("harness.verify_operators") == 1
