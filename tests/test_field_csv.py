"""Field CSV writers and `chanhom export` against the row-by-row formatting they replace."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from chanhom import cli, harness
from chanhom.geometry import build_micro_geometry
from chanhom.grid import Field, RectGrid, build_micro_grid
from chanhom.macrosim import InterfaceLayout, MacroSimulation, MacroState
from chanhom.microsim import MicroState

B1 = Path(__file__).resolve().parents[1] / "configs" / "b1.json"
SPECIAL = [5e-324, -2.2250738585072014e-308, 1e-310, 0.0, -0.0, 1e300, -1e-300, 1e-300,
           -1e300, 0.1, 1 / 3]


# -- oracle: the writers and the reader as they were, one row at a time ----

def _fmt(x):
    return f"{float(x):.17g}"


def rowwise_micro(grid, state):
    lines = ["xbar,xn,region,value"]
    for x, y, tag, v in zip(grid.cell_x, grid.cell_y, grid.cell_tag, state.values):
        lines.append(f"{_fmt(x)},{_fmt(y)},{harness._TAG_NAMES[int(tag)]},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def rowwise_bulk(sim, state):
    lines = ["xbar,xn,region,value"]
    for g, vals, name in ((sim.grid_p, state.bulk_plus, "bulk+"),
                          (sim.grid_m, state.bulk_minus, "bulk-")):
        for x, y, v in zip(g.cell_x, g.cell_y, vals):
            lines.append(f"{_fmt(x)},{_fmt(y)},{name},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def rowwise_cells(sim, state):
    lines = ["node,xbar_node,ybar,yn,value"]
    cg = sim.cell_grid
    for j, xb in enumerate(sim.layout.nodes):
        for yb, yn, v in zip(cg.cell_x, cg.cell_y, state.cells[j]):
            lines.append(f"{j},{_fmt(xb)},{_fmt(yb)},{_fmt(yn)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def rowwise_traces(sim, state):
    lines = ["node,xbar_node,v_plus,v_minus,F_plus,F_minus"]
    fp, fm = sim.cell_flux(state)
    for j, xb in enumerate(sim.layout.nodes):
        lines.append(f"{j},{_fmt(xb)},{_fmt(state.v_plus[j])},{_fmt(state.v_minus[j])},"
                     f"{_fmt(fp[j])},{_fmt(fm[j])}")
    return "\n".join(lines) + "\n"


def read_csv_column(text, column):
    """One column of a field CSV, as the schema-1 study reader parsed it."""
    header, _, body = text.strip().partition("\n")
    # one string per row; loadtxt converts only that column, correctly rounded like float()
    return np.loadtxt(body.split("\n"), delimiter=",", usecols=header.split(",").index(column),
                      comments=None, ndmin=1)


def rowwise_column(text, column):
    lines = text.strip().split("\n")
    idx = lines[0].split(",").index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


# --------------------------------------------------------------------------

def shrunk_b1():
    """b1 at the benchmark self-test size: eps 1/4 and 1/8, n_sigma 8."""
    raw = json.loads(B1.read_text())
    raw["epsilon"] = ["1/4", "1/8"]
    raw["refinement"]["n_sigma"] = 8
    return harness.parse_config(raw)


def awkward_values(rng, n):
    """Random finite doubles of every magnitude, with subnormals and signed zeros."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    vals = np.where(np.isfinite(bits) & (rng.random(n) < 0.5), bits, rng.normal(size=n))
    vals[: len(SPECIAL)] = SPECIAL[:n]
    return rng.permutation(vals)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", range(3))
def test_writers_match_rowwise_formatting(seed):
    cfg = shrunk_b1()
    rng = np.random.default_rng(seed)
    for eps in cfg.epsilons:
        grid = build_micro_grid(build_micro_geometry(eps, cfg.H, cfg.cell), cfg.k)
        for _ in range(2):  # the second snapshot reuses the grid's template
            vals = awkward_values(rng, grid.n_cells)
            state = MicroState(t=0.0, u=Field(grid, vals))
            text = harness.micro_field_csv(grid, state)
            assert text == rowwise_micro(grid, state)
            assert same_bits(read_csv_column(text, "value"), vals)
            for column in ("xbar", "xn"):
                assert same_bits(read_csv_column(text, column),
                                 rowwise_column(text, column))

    sim = MacroSimulation(cfg.cell, float(cfg.H), InterfaceLayout(cfg.n_sigma, cfg.m),
                          cfg.diffusion, cfg.kinetics)
    for _ in range(2):
        state = MacroState(t=0.0, u=awkward_values(rng, sim.n), sim=sim)
        with np.errstate(over="ignore"):  # fluxes of 1e300 traces
            for write, oracle in ((harness.macro_bulk_csv, rowwise_bulk),
                                  (harness.macro_cells_csv, rowwise_cells),
                                  (harness.macro_traces_csv, rowwise_traces)):
                assert write(sim, state) == oracle(sim, state)


def test_template_belongs_to_its_grid_and_goes_with_it():
    """Two grids of one size written one after the other; each template dies with its grid."""
    rng = np.random.default_rng(7)
    tag = np.zeros((3, 2), dtype=np.int8)  # six bulk+ cells
    cached = len(harness._MICRO_ROWS)
    texts = []
    for shift in (0.0, 0.5):
        grid = RectGrid(np.arange(4) + shift, np.arange(3) + shift, tag)
        state = MicroState(t=0.0, u=Field(grid, rng.normal(size=6)))
        texts.append(harness.micro_field_csv(grid, state))
        assert texts[-1] == rowwise_micro(grid, state)
        assert len(harness._MICRO_ROWS) == cached + 1
        del grid, state
        gc.collect()
        assert len(harness._MICRO_ROWS) == cached
    assert texts[0] != texts[1]

    cfg = shrunk_b1()
    caches = (harness._BULK_ROWS, harness._CELL_ROWS, harness._TRACE_ROWS)
    cached = [len(cache) for cache in caches]
    for n_sigma in (8, 8):
        sim = MacroSimulation(cfg.cell, float(cfg.H), InterfaceLayout(n_sigma, cfg.m),
                              cfg.diffusion, cfg.kinetics)
        state = MacroState(t=0.0, u=rng.normal(size=sim.n), sim=sim)
        assert harness.macro_bulk_csv(sim, state) == rowwise_bulk(sim, state)
        assert harness.macro_cells_csv(sim, state) == rowwise_cells(sim, state)
        assert harness.macro_traces_csv(sim, state) == rowwise_traces(sim, state)
        assert all(sim in cache for cache in caches)
        del sim, state
        gc.collect()
        assert [len(cache) for cache in caches] == cached


def test_percent_in_a_row_prefix_is_literal(monkeypatch):
    monkeypatch.setitem(harness._TAG_NAMES, 0, "bulk%s")
    tag = np.zeros((2, 1), dtype=np.int8)
    grid = RectGrid([0.0, 1.0, 2.0], [0.0, 1.0], tag)
    state = MicroState(t=0.0, u=Field(grid, np.array([1.5, -0.0])))
    assert harness.micro_field_csv(grid, state) == rowwise_micro(grid, state)


def test_export_writes_the_rowwise_csvs_of_the_stored_states(tmp_path, capsys):
    """`chanhom export` of a stored study gives, file for file, the row-by-row CSVs of
    the states the study ran through."""
    cfg = shrunk_b1()
    study, csv = tmp_path / "study", tmp_path / "csv"
    harness.run_study(cfg, out_dir=study)
    assert cli.main(["export", str(study), "--out", str(csv)]) == 0
    assert "CSV files written" in capsys.readouterr().out

    expected = {}
    for eps in cfg.epsilons:
        _, grid, _, snaps = harness.run_micro_study(cfg, eps)
        for idx, state in enumerate(snaps):
            expected[f"fields/micro_eps{int(1 / eps)}_s{idx:04d}.csv"] = rowwise_micro(grid, state)
    sim, snaps = harness.run_macro_study(cfg)
    for idx, state in enumerate(snaps):
        for part, oracle in (("bulk", rowwise_bulk), ("cells", rowwise_cells),
                             ("traces", rowwise_traces)):
            expected[f"fields/macro_{part}_s{idx:04d}.csv"] = oracle(sim, state)
    written = {str(path.relative_to(csv)) for path in csv.rglob("*") if path.is_file()}
    assert written == set(expected)
    for rel, text in expected.items():
        assert (csv / rel).read_bytes() == text.encode(), rel
    # the study keeps the traces CSV itself, byte for byte as exported
    for rel in expected:
        if "macro_traces" in rel:
            assert (study / rel).read_bytes() == (csv / rel).read_bytes()
