from fractions import Fraction as F

import numpy as np
import pytest

from chanhom.geometry import (
    BULK_M,
    BULK_P,
    CHAN,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from chanhom.grid import Field, _axis_overlaps, build_cell_grid, build_micro_grid, chan_cell_indices
from chanhom.kinetics import InitialData
from chanhom.macrosim import InterfaceLayout, MacroSimulation, MacroState
from chanhom.microsim import DiffusionSpec, KineticsBundle, MicroSimulation, MicroState
from chanhom.twoscale import (
    Unfolder,
    _low_frequency_basis,
    apriori_norm,
    calibrate_trace_constant,
    shift_diagnostic,
    trace_inequality_diagnostic,
    ts_error,
)

from test_geometry import hourglass


def setup(eps=F(1, 4), k=4):
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(eps, 1, cell)
    grid = build_micro_grid(geom, k)
    cg = build_cell_grid(cell, k)
    return geom, grid, cg, Unfolder(geom, grid, cg)


def test_constant_unfolds_to_constant():
    _, grid, _, uf = setup()
    tsf = uf.unfold(np.full(grid.n_cells, 2.5))
    assert (tsf == 2.5).all()


def test_unfolder_operators_round_trip_plain_vectors():
    _, grid, _, uf = setup()
    rng = np.random.default_rng(8)
    v = rng.normal(size=grid.n_cells)
    chan = grid.cell_tag == CHAN
    tv = uf.unfold(v)
    assert type(tv) is np.ndarray and tv.shape == uf.columns.shape
    back = uf.average(tv)
    assert type(back) is np.ndarray and back.shape == (grid.n_cells,)
    assert np.array_equal(back[chan], v[chan]) and not back[~chan].any()
    assert np.array_equal(uf.unfold(back), tv)
    phi = rng.normal(size=uf.columns.shape)
    assert np.array_equal(uf.unfold(uf.average(phi)), phi)
    tr = uf.wall_trace(v)
    assert type(tr) is np.ndarray
    assert np.array_equal(tr, v[uf.micro_wall_cells.reshape(-1)])
    assert np.array_equal(uf.wall_trace(back), tr)  # the walls touch channel cells only


def test_refinement_mismatch_rejected():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(F(1, 4), 1, cell)
    grid = build_micro_grid(geom, 4)
    with pytest.raises(ValueError, match="refinement"):
        Unfolder(geom, grid, build_cell_grid(cell, 8))


def test_scaled_isometry_is_exact():
    geom, grid, _, uf = setup()
    rng = np.random.default_rng(0)
    chan = grid.cell_tag == CHAN
    for _ in range(20):
        v = rng.normal(size=grid.n_cells)
        lhs = uf.ts_inner(uf.unfold(v), uf.unfold(v))
        rhs = float(np.dot(grid.cell_vol[chan], v[chan] ** 2)) / float(geom.eps)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_boundary_norm_equality_and_trace_commutation():
    _, grid, _, uf = setup()
    rng = np.random.default_rng(1)
    v = rng.normal(size=grid.n_cells)
    tr = uf.wall_trace(v)
    tb = uf.unfold_boundary(tr)
    assert uf.wall_inner(tb, tb) == pytest.approx(uf.wall_norm_sq_micro(tr), rel=1e-13)
    # trace of the unfolded field equals the unfolded trace
    tsf = uf.unfold(v)
    pos = {int(c): i for i, c in enumerate(uf.chan_ids)}
    cols = [pos[int(c)] for c in uf.ref_wall_cells]
    assert np.array_equal(tsf[:, cols], tb)


def test_gradient_commutation_identity():
    geom, grid, cg, uf = setup()
    rng = np.random.default_rng(2)
    v = rng.normal(size=grid.n_cells)
    tsf = uf.unfold(v)
    eps = float(geom.eps)
    pos = {int(c): i for i, c in enumerate(uf.chan_ids)}
    inv = {int(c): (col, i) for col in range(uf.columns.shape[0])
           for i, c in enumerate(uf.columns[col])}
    checked = 0
    for fs_ref, fs_mic in zip(cg.faces, grid.faces):
        for a, b, da, db in zip(fs_mic.a, fs_mic.b, fs_mic.dist_a, fs_mic.dist_b):
            if grid.cell_tag[a] != CHAN or grid.cell_tag[b] != CHAN:
                continue
            col, ia = inv[int(a)]
            col_b, ib = inv[int(b)]
            if col != col_b:
                continue
            dist_ref = float(da + db) / eps
            lhs = (tsf[col, ib] - tsf[col, ia]) / dist_ref
            rhs = eps * (v[b] - v[a]) / float(da + db)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            checked += 1
    assert checked > 50


def test_averaging_is_the_exact_adjoint():
    geom, grid, _, uf = setup()
    rng = np.random.default_rng(3)
    chan = grid.cell_tag == CHAN
    inv_eps = 1.0 / float(geom.eps)
    for _ in range(20):
        v = rng.normal(size=grid.n_cells)
        phi = rng.normal(size=uf.columns.shape)
        lhs = uf.ts_inner(uf.unfold(v), phi)
        rhs = inv_eps * float(np.dot(grid.cell_vol[chan], v[chan] * uf.average(phi)[chan]))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_averaging_norm_bound_is_sharp_for_aligned_grids():
    geom, grid, _, uf = setup()
    rng = np.random.default_rng(4)
    phi = rng.normal(size=uf.columns.shape)
    back = uf.average(phi)
    chan = grid.cell_tag == CHAN
    norm_micro = np.sqrt(float(np.dot(grid.cell_vol[chan], back[chan] ** 2)))
    bound = np.sqrt(float(geom.eps)) * uf.ts_norm(phi)
    assert norm_micro <= bound * (1 + 1e-12)
    assert norm_micro >= bound * (1 - 1e-12)  # equality with one column per cell


def test_round_trip_is_the_identity_on_channel_cells():
    _, grid, _, uf = setup()
    rng = np.random.default_rng(5)
    v = rng.normal(size=grid.n_cells)
    back = uf.average(uf.unfold(v))
    chan = grid.cell_tag == CHAN
    assert np.array_equal(back[chan], v[chan])


def _macro_sim(n_sigma=4, m=4):
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    return MacroSimulation(
        cell, 1.0, InterfaceLayout(n_sigma=n_sigma, m=m),
        DiffusionSpec.isotropic(1.0, 2.0, 0.5), KineticsBundle.zero(),
    )


def test_error_vanishes_when_micro_is_the_unfolded_macro():
    geom, grid, cg, uf = setup()
    sim = _macro_sim(n_sigma=4)
    rng = np.random.default_rng(6)
    macro_states, micro_states = [], []
    for t in (0.0, 0.25):
        u = np.zeros(sim.n)
        cells = rng.normal(size=(4, sim.ncc))
        u[sim.oc:] = cells.reshape(-1)
        macro_states.append(MacroState(t=t, u=u, sim=sim))
        phi = cells[:, chan_cell_indices(cg)]
        micro_states.append(MicroState(t=t, u=Field(grid, uf.average(phi))))
    errs = ts_error(micro_states, macro_states, uf, sim)
    assert errs["E_chan"] == 0.0
    assert errs["E_N"] == 0.0


def test_error_against_zero_macro_is_the_scaled_norm():
    geom, grid, cg, uf = setup()
    sim = _macro_sim(n_sigma=4)
    rng = np.random.default_rng(7)
    vals = np.zeros(grid.n_cells)
    chan = grid.cell_tag == CHAN
    vals[chan] = rng.normal(size=chan.sum())
    T = 0.5
    micro_states = [MicroState(t=t, u=Field(grid, vals)) for t in (0.0, T)]
    macro_states = [MacroState(t=t, u=np.zeros(sim.n), sim=sim) for t in (0.0, T)]
    errs = ts_error(micro_states, macro_states, uf, sim)
    norm_chan = np.sqrt(float(np.dot(grid.cell_vol[chan], vals[chan] ** 2)))
    expected = np.sqrt(T) * norm_chan / np.sqrt(float(geom.eps))
    assert errs["E_chan"] == pytest.approx(expected, rel=1e-12)


def test_mismatched_snapshot_times_rejected():
    geom, grid, cg, uf = setup()
    sim = _macro_sim(n_sigma=4)
    micro = [MicroState(t=0.0, u=Field(grid, np.zeros(grid.n_cells)))]
    macro = [MacroState(t=0.5, u=np.zeros(sim.n), sim=sim)]
    with pytest.raises(ValueError, match="different times"):
        ts_error(micro, macro, uf, sim)


def dense_bulk_errors(micro_states, macro_states, macro_sim):
    """E_bulk_plus/minus as ts_error computed them: fields scattered to dense grids."""
    def overlap_diff_sq(grid_a, dense_a, grid_b, dense_b):
        xa, xb, wx = _axis_overlaps(grid_a.x, grid_b.x)
        ya, yb, wy = _axis_overlaps(grid_a.y, grid_b.y)
        diff = dense_a[np.ix_(xa, ya)] - dense_b[np.ix_(xb, yb)]
        return float(np.einsum("i,j,ij->", wx, wy, diff**2))

    times = np.array([s.t for s in micro_states])
    dt = np.diff(times)
    tw = np.concatenate([[0.0], 0.5 * dt]) + np.concatenate([0.5 * dt, [0.0]])
    gp, gm = macro_sim.grid_p, macro_sim.grid_m
    e_bp_sq = e_bm_sq = 0.0
    for w, ms, Ms in zip(tw, micro_states, macro_states):
        g = ms.u.grid
        mp = g.cells_dense(np.where(g.cell_tag == BULK_P, ms.values, 0.0))
        e_bp_sq += w * overlap_diff_sq(g, mp, gp, gp.cells_dense(Ms.bulk_plus))
        mm = g.cells_dense(np.where(g.cell_tag == BULK_M, ms.values, 0.0))
        e_bm_sq += w * overlap_diff_sq(g, mm, gm, gm.cells_dense(Ms.bulk_minus))
    return float(np.sqrt(e_bp_sq)), float(np.sqrt(e_bm_sq))


@pytest.mark.parametrize("profile", [ChannelProfile.rectangle(F(1, 2)), hourglass()],
                         ids=["rectangle", "hourglass"])
@pytest.mark.parametrize("inv_eps, n_sigma", [(2, 4), (4, 8), (8, 6)])
def test_bulk_errors_match_the_dense_scatter_bit_for_bit(profile, inv_eps, n_sigma):
    cell = build_reference_cell(profile)
    geom = build_micro_geometry(F(1, inv_eps), 1, cell)
    grid = build_micro_grid(geom, 8)
    uf = Unfolder(geom, grid, build_cell_grid(cell, 8))
    sim = MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=n_sigma, m=8),
                          DiffusionSpec.isotropic(1.0, 2.0, 0.5, len(profile.segments)),
                          KineticsBundle.zero())
    rng = np.random.default_rng(inv_eps * 100 + n_sigma)
    times = (0.0, 0.125, 0.5)
    # nonzero channel values must read as 0 on the bulk side, and a -0.0 as the zero
    # extension reads it, in the micro fields and in the limit ones
    signed_zeros = [np.flatnonzero(grid.cell_tag == tag)[i]
                    for tag in (BULK_P, CHAN, BULK_M) for i in (0, -1)]
    micro, macro = [], []
    for t in times:
        values = rng.normal(size=grid.n_cells)
        values[signed_zeros] = -0.0
        micro.append(MicroState(t=t, u=Field(grid, values)))
        limit = rng.normal(size=sim.n)
        limit[[0, sim.nbp - 1, sim.nbp, -1]] = -0.0
        macro.append(MacroState(t=t, u=limit, sim=sim))
    errs = ts_error(micro, macro, uf, sim)
    assert (errs["E_bulk_plus"], errs["E_bulk_minus"]) == dense_bulk_errors(micro, macro, sim)


def test_shift_of_constant_field_is_zero():
    geom, grid, _, _ = setup(eps=F(1, 8))
    states = [MicroState(t=t, u=Field(grid, np.full(grid.n_cells, 3.0))) for t in (0.0, 0.5)]
    ratio, lhs, rhs = shift_diagnostic(states, geom, grid, l=1, h=1 / 8)
    assert lhs == 0.0
    assert ratio == 0.0
    assert rhs >= float(geom.eps)


def test_shift_ratio_is_small_for_horizontally_uniform_runs():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(F(1, 8), 1, cell)
    grid = build_micro_grid(geom, 4)
    sim = MicroSimulation(geom, grid, DiffusionSpec.isotropic(1.0, 2.0, 0.5),
                          KineticsBundle.zero())
    init = InitialData(u_plus=lambda x, y: 1.0, u_minus=lambda x, y: 0.0,
                       u_channel=lambda xb, yb, yn: 0.5 * (1 + yn))
    snaps = sim.run(init, T=0.25, dt=1 / 64, snapshot_stride=4)
    ratio, _, _ = shift_diagnostic(snaps, geom, grid, l=1, h=1 / 8)
    assert ratio <= 1e-6  # only grid asymmetry contributes


def test_empty_margin_rejected():
    geom, grid, _, _ = setup(eps=F(1, 4))
    states = [MicroState(t=0.0, u=Field(grid, np.zeros(grid.n_cells)))]
    with pytest.raises(ValueError, match="margin"):
        shift_diagnostic(states, geom, grid, l=1, h=0.5)


def test_apriori_norm_of_constant_in_time():
    _, grid, _, _ = setup()
    u = Field(grid, np.full(grid.n_cells, 2.0))
    states = [MicroState(t=t, u=u) for t in (0.0, 0.5)]
    assert apriori_norm(states) == pytest.approx(np.sqrt(0.5) * apriori_norm(states[:1]),
                                                 rel=1e-12)
    # a constant has no gradient: its energy norm is the weighted L2 norm, 2 sqrt(2.5)
    assert apriori_norm(states[:1]) == pytest.approx(2.0 * np.sqrt(2.5), rel=1e-13)


def test_trace_constant_certifies_the_constant_field():
    geom, grid, cg, uf = setup()
    C = calibrate_trace_constant(cg)
    assert C >= 2.0 - 1e-12  # sqrt(|N| / |Z*|) for the half-width channel
    lhs, rhs = trace_inequality_diagnostic(np.ones(grid.n_cells), 1.0, uf, constant=C)
    assert lhs == pytest.approx(2.0, rel=1e-12)  # sqrt of the total wall length
    assert lhs <= rhs


def test_trace_inequality_zero_field():
    _, grid, cg, uf = setup()
    C = calibrate_trace_constant(cg)
    lhs, rhs = trace_inequality_diagnostic(np.zeros(grid.n_cells), 1.0, uf, constant=C)
    assert lhs == 0.0 and rhs == 0.0


def test_trace_inequality_holds_for_certified_random_fields():
    for eps in (F(1, 4), F(1, 8)):
        geom, grid, cg, uf = setup(eps=eps)
        C = calibrate_trace_constant(cg)
        basis, ids = _low_frequency_basis(cg)
        rng = np.random.default_rng(int(1 / eps))
        for _ in range(20):
            coeffs = rng.normal(size=(uf.columns.shape[0], basis.shape[1]))
            vals = np.zeros(grid.n_cells)
            per_col = coeffs @ basis.T  # (ncol, n_chan_cells)
            vals[uf.columns] = per_col
            lhs, rhs = trace_inequality_diagnostic(vals, 1.0, uf, constant=C)
            assert lhs <= rhs * (1 + 1e-10)
