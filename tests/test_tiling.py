"""The layer's index maps, tiled from one reference column, against a cell-by-cell scan."""

from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom import grid as grid_module
from chanhom import harness, macrosim, microsim, twoscale
from chanhom.geometry import (
    CHAN,
    VOID,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from chanhom.grid import build_cell_grid, build_micro_grid, wall_faces
from chanhom.kinetics import KineticsSpec
from chanhom.macrosim import InterfaceLayout
from chanhom.microsim import DiffusionSpec, KineticsBundle
from chanhom.twoscale import Unfolder
from test_geometry import hourglass


def scan(grid, geom=None):
    """Channel cells per column and wall faces, found cell by cell.

    Every void neighbour of a channel cell gives one wall face; faces are
    sorted by (column, lattice key) with the key taken from the midpoint's
    local coordinates.  Without `geom` the grid is the reference cell.
    """
    def to_local(x, y):
        return geom.to_local(x, y) if geom is not None else (0, x, y)

    k = grid.k
    nx, ny = grid.shape
    chan, walls = {}, []
    for i in range(nx):
        for j in range(ny):
            if grid.tag[i, j] != CHAN:
                continue
            col, ybar, y_n = to_local(grid.xc[i], grid.yc[j])
            local_ij = (round(k * ybar - 0.5), round(k * (y_n + 1) - 0.5))
            chan.setdefault(col, []).append((local_ij, grid.index[i, j]))
            for axis, sgn in ((0, -1), (0, 1), (1, -1), (1, 1)):
                ii, jj = (i + sgn, j) if axis == 0 else (i, j + sgn)
                if not (0 <= ii < nx and 0 <= jj < ny) or grid.tag[ii, jj] != VOID:
                    continue
                if axis == 0:
                    xm, ym, length = grid.x[i + (sgn > 0)], grid.yc[j], grid.dy[j]
                else:
                    xm, ym, length = grid.xc[i], grid.y[j + (sgn > 0)], grid.dx[i]
                col, ybar, y_n = to_local(xm, ym)
                key = (axis, sgn, round(2 * k * ybar), round(2 * k * (y_n + 1)))
                walls.append((col, key, grid.index[i, j], length, ybar, y_n))
    walls.sort(key=lambda w: w[:2])
    ncol = len(chan)
    per_col = np.array([w[1:] for w in walls], dtype=object).reshape(ncol, -1, 5)
    return {
        "columns": np.array([[idx for _, idx in sorted(chan[c])] for c in range(ncol)]),
        "key": np.array(per_col[..., 0].tolist()),
        "cells": per_col[..., 1].astype(np.int64),
        "length": per_col[..., 2].astype(float),
        "local": per_col[..., 3:].astype(float),
    }


def check_tiled_maps(geom, grid, cell_grid):
    """Exact agreement of every tiled map with the scan; returns both local coordinates."""
    ref, found = scan(cell_grid), wall_faces(cell_grid)
    assert np.array_equal(found.cells, ref["cells"])
    assert np.array_equal(found.length, ref["length"])
    assert np.array_equal(found.key, ref["key"][0])
    assert np.array_equal(found.local, ref["local"][0])  # the limit model's wall positions

    micro, walls, uf = scan(grid, geom), wall_faces(grid), Unfolder(geom, grid, cell_grid)
    assert np.array_equal(uf.columns, micro["columns"])
    assert np.array_equal(uf.chan_ids, ref["columns"][0])
    assert np.array_equal(walls.cells, micro["cells"])
    assert np.array_equal(uf.micro_wall_cells, micro["cells"])
    assert np.array_equal(walls.length, micro["length"])
    assert np.array_equal(np.broadcast_to(walls.key, micro["key"].shape), micro["key"])
    assert np.array_equal(uf.ref_wall_cells, ref["cells"][0])
    return np.broadcast_to(walls.local, micro["local"].shape), micro["local"]


@pytest.mark.parametrize("inv_eps", [3, 4, 12])
@pytest.mark.parametrize("profile, k", [(ChannelProfile.rectangle(F(1, 2)), 4),
                                        (hourglass(), 8)], ids=["rectangle", "hourglass"])
def test_tiled_maps_match_a_cell_by_cell_scan(profile, k, inv_eps):
    cell = build_reference_cell(profile)
    geom = build_micro_geometry(F(1, inv_eps), 1, cell)
    tiled, scanned = check_tiled_maps(geom, build_micro_grid(geom, k), build_cell_grid(cell, k))
    # the scan carries the round-off of mapping micro midpoints back to the cell
    assert np.max(np.abs(tiled - scanned)) <= 1e-13
    if inv_eps & (inv_eps - 1) == 0:
        assert np.array_equal(tiled, scanned)


@pytest.mark.parametrize("modulation", ["arc_cos", "ybar", "yn"])
def test_micro_wall_rate_factor_matches_each_face_position(modulation):
    cell = build_reference_cell(hourglass())
    geom = build_micro_geometry(F(1, 3), 1, cell)
    grid = build_micro_grid(geom, 8)
    h = KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 0.0}, (modulation, 0.3))
    zero = KineticsSpec("zero")
    sim = microsim.MicroSimulation(geom, grid, DiffusionSpec.isotropic(1.0, 2.0, 0.5, 3),
                                   KineticsBundle(zero, zero, zero, h))
    local = scan(grid, geom)["local"].reshape(-1, 2)
    arcs = [cell.arc_coordinate(ybar, y_n) for ybar, y_n in local]
    expected = h.position_factor(local[:, 0], local[:, 1], arc=arcs,
                                 arc_total=float(cell.n_length))
    assert np.allclose(sim.h_factor, expected, rtol=0, atol=1e-12)


@st.composite
def aligned_profiles(draw):
    """(profile, k): breakpoints and wall offsets on multiples of 1/k, widths in (0, 1)."""
    k = draw(st.integers(3, 8))
    n_seg = draw(st.integers(1, 3))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * k - 1), min_size=n_seg - 1,
                               max_size=n_seg - 1)))
    bounds = [F(-1)] + [F(c, k) - 1 for c in cuts] + [F(1)]
    widths = [1 - F(2 * draw(st.integers(1, (k - 1) // 2)), k) for _ in range(n_seg)]
    return ChannelProfile.from_pairs(list(zip(zip(bounds, bounds[1:]), widths))), k


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(profile_k=aligned_profiles(), inv_eps=st.integers(2, 6))
def test_tiled_maps_and_unfolding_identities_on_random_profiles(profile_k, inv_eps):
    profile, k = profile_k
    cell = build_reference_cell(profile)
    eps = F(1, inv_eps)
    geom = build_micro_geometry(eps, 1, cell)
    tiled, scanned = check_tiled_maps(geom, build_micro_grid(geom, k), build_cell_grid(cell, k))
    assert np.max(np.abs(tiled - scanned)) <= 1e-13
    study = SimpleNamespace(seed=inv_eps, cell=cell, k=k, m=k, epsilons=[eps], H=F(1))
    worst, flat_max, ok = harness.verify_operators(study, n_fields=3)
    assert ok and flat_max <= 1e-12, worst


def test_set_up_calls_wall_faces_through_each_module(monkeypatch):
    """Each simulator and the unfolder look `grid.wall_faces` up by name at set-up."""
    modules = (microsim, macrosim, twoscale)
    assert all(mod.wall_faces is grid_module.wall_faces for mod in modules)
    calls = []
    for mod in modules:
        def counted(*args, name=mod.__name__, **kwargs):
            calls.append(name)
            return grid_module.wall_faces(*args, **kwargs)

        monkeypatch.setattr(mod, "wall_faces", counted)
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(F(1, 4), 1, cell)
    grid = build_micro_grid(geom, 4)
    diff = DiffusionSpec.isotropic(1.0, 2.0, 0.5)
    microsim.MicroSimulation(geom, grid, diff, KineticsBundle.zero())
    assert calls == ["chanhom.microsim"]
    macrosim.MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=4, m=4), diff,
                             KineticsBundle.zero())
    assert calls == ["chanhom.microsim", "chanhom.macrosim"]
    twoscale.Unfolder(geom, grid, build_cell_grid(cell, 4))
    assert calls == ["chanhom.microsim", "chanhom.macrosim", "chanhom.twoscale"]
