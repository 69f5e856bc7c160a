"""The two-point-flux assembly against a face-by-face, node-by-node reference.

The reference below writes every triplet in the order the original loop
assembly did: faces axis by axis, then per interface node its cell-problem
block followed by its trace pairs.  scipy sums the duplicates in that
order (rows of at most 16 triplets are sorted stably), so the CSR arrays
must agree byte for byte, not merely to round-off.
"""

from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom import linsolve
from chanhom.geometry import (
    BULK_M,
    BULK_P,
    CHAN,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from chanhom.grid import build_micro_grid
from chanhom.macrosim import InterfaceLayout, MacroSimulation
from chanhom.microsim import DiffusionSpec, KineticsBundle, assemble_micro_operator

from linsolve_oracles import from_scipy, to_scipy
from test_geometry import hourglass


def rectangle():
    return ChannelProfile.rectangle(F(1, 2))


def diffusion(profile, d_plus, d_minus, pair):
    return DiffusionSpec(d_plus, d_minus, tuple(pair for _ in profile.segments))


# -- reference assembly ------------------------------------------------------

def ref_segment_tensor(profile, y_n, diff):
    breaks = np.array([float(hi) for (lo, hi), _ in profile.segments[:-1]])
    seg = np.searchsorted(breaks, y_n, side="right")
    dmat = np.asarray(diff.channel, dtype=float)
    d = np.empty((len(y_n), 2))
    d[:, 0] = dmat[seg, 0]
    d[:, 1] = dmat[seg, 1]
    return d


def summed(rows, cols, vals, n):
    """The CSR of COO triplets, duplicates summed by scipy in their input order."""
    return from_scipy(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())


def ref_micro_csr(geom, grid, diff):
    eps = float(geom.eps)
    d = np.empty((grid.n_cells, 2))
    for tag_val, val in ((BULK_P, diff.d_plus), (BULK_M, diff.d_minus)):
        d[grid.cell_tag == tag_val] = val
    chan = grid.cell_tag == CHAN
    d[chan] = eps * ref_segment_tensor(geom.cell.profile, grid.cell_y[chan] / eps, diff)
    rows, cols, vals = [], [], []
    for fs in grid.faces:
        trans = fs.length / (fs.dist_a / d[fs.a, fs.axis] + fs.dist_b / d[fs.b, fs.axis])
        rows.extend([fs.a, fs.b, fs.a, fs.b])
        cols.extend([fs.a, fs.b, fs.b, fs.a])
        vals.extend([trans, trans, -trans, -trans])
    return summed(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), grid.n_cells)


def ref_bulk_entries(grid, d_scalar, offset, rows, cols, vals):
    for fs in grid.faces:
        trans = fs.length * d_scalar / (fs.dist_a + fs.dist_b)
        rows.extend([fs.a + offset, fs.b + offset, fs.a + offset, fs.b + offset])
        cols.extend([fs.a + offset, fs.b + offset, fs.b + offset, fs.a + offset])
        vals.extend([trans, trans, -trans, -trans])


def ref_pair(i, j, t, rows, cols, vals):
    rows.extend([i, j, i, j])
    cols.extend([i, j, j, i])
    vals.extend([t, t, -t, -t])


def ref_macro_csr(sim):
    """The limit model's stiffness, one face and one interface node at a time."""
    diff, cg = sim.diff, sim.cell_grid
    cell_diff = ref_segment_tensor(sim.cell.profile, cg.cell_y, diff)
    top_cells = cg.index[np.flatnonzero(cg.tag[:, -1] == CHAN), -1]
    bot_cells = cg.index[np.flatnonzero(cg.tag[:, 0] == CHAN), 0]
    top_len = cg.dx[np.flatnonzero(cg.tag[:, -1] == CHAN)]
    bot_len = cg.dx[np.flatnonzero(cg.tag[:, 0] == CHAN)]
    top_coef = top_len * cell_diff[top_cells, 1] / (0.5 * cg.dy[-1])
    bot_coef = bot_len * cell_diff[bot_cells, 1] / (0.5 * cg.dy[0])
    adj_p, adj_m = sim.grid_p.index[:, 0], sim.grid_m.index[:, -1]
    half_p, half_m = 0.5 * sim.grid_p.dy[0], 0.5 * sim.grid_m.dy[-1]

    rows, cols, vals = [], [], []
    ref_bulk_entries(sim.grid_p, diff.d_plus, 0, rows, cols, vals)
    ref_bulk_entries(sim.grid_m, diff.d_minus, sim.nbp, rows, cols, vals)
    dsig = sim.layout.spacing
    rows = [np.asarray(r) for r in rows]
    cols = [np.asarray(c) for c in cols]
    vals = [np.asarray(v, dtype=float) for v in vals]

    base_r, base_c, base_v = [], [], []
    for fs in cg.faces:
        da = cell_diff[fs.a, fs.axis]
        db = cell_diff[fs.b, fs.axis]
        trans = dsig * fs.length / (fs.dist_a / da + fs.dist_b / db)
        base_r.extend([fs.a, fs.b, fs.a, fs.b])
        base_c.extend([fs.a, fs.b, fs.b, fs.a])
        base_v.extend([trans, trans, -trans, -trans])
    base_r, base_c, base_v = map(np.concatenate, (base_r, base_c, base_v))

    for j in range(sim.n_sigma):
        off = sim.oc + j * sim.ncc
        rows.append(base_r + off)
        cols.append(base_c + off)
        vals.append(base_v)
        tp = sim.grid_p.dx[j] * diff.d_plus / half_p
        tm = sim.grid_m.dx[j] * diff.d_minus / half_m
        r4, c4, v4 = [], [], []
        ref_pair(int(adj_p[j]), sim.ovp + j, tp, r4, c4, v4)
        ref_pair(sim.nbp + int(adj_m[j]), sim.ovm + j, tm, r4, c4, v4)
        for cell_idx, coef in zip(top_cells, dsig * top_coef):
            ref_pair(off + int(cell_idx), sim.ovp + j, coef, r4, c4, v4)
        for cell_idx, coef in zip(bot_cells, dsig * bot_coef):
            ref_pair(off + int(cell_idx), sim.ovm + j, coef, r4, c4, v4)
        rows.append(np.asarray(r4))
        cols.append(np.asarray(c4))
        vals.append(np.asarray(v4, dtype=float))
    return summed(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), sim.n)


def ref_steady_conduction(sim, top_value, bottom_value):
    """Dirichlet rows added cell by cell, then the same factorization's solve."""
    rows, cols, vals = [], [], []
    rhs = np.zeros(sim.n)
    gp, gm = sim.grid_p, sim.grid_m
    jtop = gp.shape[1] - 1
    for i in range(sim.n_sigma):
        idx = int(gp.index[i, jtop])
        t = gp.dx[i] * sim.diff.d_plus / (0.5 * gp.dy[jtop])
        rows.append(idx)
        cols.append(idx)
        vals.append(t)
        rhs[idx] += t * top_value
        idx_m = sim.nbp + int(gm.index[i, 0])
        t_m = gm.dx[i] * sim.diff.d_minus / (0.5 * gm.dy[0])
        rows.append(idx_m)
        cols.append(idx_m)
        vals.append(t_m)
        rhs[idx_m] += t_m * bottom_value
    dir_part = sp.coo_matrix((vals, (rows, cols)), shape=(sim.n, sim.n)).tocsr()
    A = linsolve.SparseMatrix(csr=from_scipy(to_scipy(ref_macro_csr(sim)) + dir_part),
                              factorization=sim.stiffness.factorization,
                              blocks=sim.stiffness.blocks)
    return linsolve.solve_spd(A, rhs)


# -- comparisons -------------------------------------------------------------

def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def assert_macro_matches(profile, diff, m, n_sigma):
    cell = build_reference_cell(profile)
    sim = MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=n_sigma, m=m), diff,
                          KineticsBundle.zero())
    assert_same_csr(sim.stiffness.csr, ref_macro_csr(sim))
    got = sim.steady_conduction(1.0, -0.25).u
    assert got.tobytes() == ref_steady_conduction(sim, 1.0, -0.25).tobytes()


DIFFUSIVITIES = [(1.0, 2.0, (0.5, 0.5)), (3.0, 0.3, (0.7, 1.3))]
PROFILES = [(rectangle, (4, 8)), (hourglass, (8,))]
CASES = [(prof, m, dv) for prof, ms in PROFILES for m in ms for dv in DIFFUSIVITIES]
CASE_IDS = [f"{prof.__name__}-m{m}-d{dv[0]:g}" for prof, m, dv in CASES]


@pytest.mark.parametrize("make_profile, k, dvals", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("inv_eps", [4, 12])
def test_micro_stiffness_matches_face_loop(make_profile, k, dvals, inv_eps):
    profile = make_profile()
    cell = build_reference_cell(profile)
    geom = build_micro_geometry(F(1, inv_eps), 1, cell)
    grid = build_micro_grid(geom, k)
    diff = diffusion(profile, *dvals)
    A, _ = assemble_micro_operator(geom, grid, diff)
    assert_same_csr(A, ref_micro_csr(geom, grid, diff))


@pytest.mark.parametrize("make_profile, m, dvals", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("n_sigma", [32, 48, 128])
def test_macro_stiffness_and_steady_solve_match_node_loop(make_profile, m, dvals, n_sigma):
    profile = make_profile()
    assert_macro_matches(profile, diffusion(profile, *dvals), m, n_sigma)


positive = st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    hour=st.booleans(),
    d_plus=positive,
    d_minus=positive,
    channel=st.lists(st.tuples(positive, positive), min_size=3, max_size=3),
    n_sigma=st.integers(min_value=1, max_value=40),
)
def test_random_diffusivities_match_the_reference(hour, d_plus, d_minus, channel, n_sigma):
    profile = hourglass() if hour else rectangle()
    diff = DiffusionSpec(d_plus, d_minus, tuple(channel[: len(profile.segments)]))
    assert_macro_matches(profile, diff, 8, n_sigma)
    cell = build_reference_cell(profile)
    geom = build_micro_geometry(F(1, 4), 1, cell)
    grid = build_micro_grid(geom, 8)
    A, _ = assemble_micro_operator(geom, grid, diff)
    assert_same_csr(A, ref_micro_csr(geom, grid, diff))
