from fractions import Fraction as F

import numpy as np
import pytest

from chanhom import linsolve
from chanhom.geometry import ChannelProfile, build_reference_cell
from chanhom.kinetics import InitialData, KineticsSpec
from chanhom.macrosim import InterfaceLayout, MacroSimulation
from chanhom.microsim import DiffusionSpec, KineticsBundle

from linsolve_oracles import BlockLDL, to_scipy
from test_geometry import hourglass

B1_DIFF = DiffusionSpec.isotropic(1.0, 2.0, 0.5)
B1_KIN = KineticsBundle(
    f_plus=KineticsSpec("logistic_clamped", {"r": 1.0, "u_cap": 1.0, "clamp": 10.0}),
    f_minus=KineticsSpec("logistic_clamped", {"r": 1.0, "u_cap": 1.0, "clamp": 10.0}),
    g=KineticsSpec("linear_decay", {"lam": 0.5}),
    h=KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 0.0}),
)
B1_INIT = InitialData(
    u_plus=lambda x, y: 1.0,
    u_minus=lambda x, y: 0.0,
    u_channel=lambda xb, yb, yn: 0.5 * (1.0 + yn),
)


def make_sim(n_sigma=8, m=4, diff=B1_DIFF, kin=None):
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    return MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=n_sigma, m=m),
                           diff, kin or KineticsBundle.zero())


def test_stiffness_symmetric_with_zero_column_sums():
    sim = make_sim()
    A = to_scipy(sim.stiffness.csr)
    skew = abs(A - A.T)
    assert skew.nnz == 0 or skew.data.max() == 0.0
    rs = np.abs(A @ np.ones(sim.n))
    assert rs.max() <= 1e-12 * np.abs(A.data).max()


def test_trace_rows_couple_one_value_per_side():
    sim = make_sim()
    A = sim.stiffness.csr
    for j in range(sim.n_sigma):
        row = A.getrow(sim.ovp + j)
        cols = set(row.indices)
        block = sim.oc + j * sim.ncc
        expected = {int(sim.adj_p[j]), sim.ovp + j} | {
            block + int(c) for c in sim.top_cells
        }
        assert cols == expected


def test_vanishing_channel_tensor_decouples_the_bulks():
    diff = DiffusionSpec(1.0, 2.0, ((1e-12, 1e-12),))
    sim = make_sim(diff=diff)
    rng = np.random.default_rng(0)
    init = InitialData(
        u_plus=lambda x, y: 1.0 + 0.5 * np.cos(np.pi * x) * y,
        u_minus=lambda x, y: -0.3 * np.cos(np.pi * x),
        u_channel=lambda xb, yb, yn: 0.7,
    )
    dt = 1e-2
    s0 = sim.initial_state(init)
    s1 = sim.step(s0, dt)

    # standalone pure-Neumann oracle on the upper bulk grid, assembled here
    g = sim.grid_p
    n = g.n_cells
    A = np.zeros((n, n))
    for fs in g.faces:
        for a, b, ln, da, db in zip(fs.a, fs.b, fs.length, fs.dist_a, fs.dist_b):
            t = ln * 1.0 / (da + db)
            A[a, a] += t
            A[b, b] += t
            A[a, b] -= t
            A[b, a] -= t
    M = np.diag(g.cell_vol)
    u0 = s0.bulk_plus
    oracle = np.linalg.solve(M + dt * A, M @ u0)
    assert np.max(np.abs(s1.bulk_plus - oracle)) <= 1e-9


def test_single_node_schur_complement_signs():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    diff = DiffusionSpec.isotropic(1.0, 1.0, 1.0)
    sim = MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=1, m=4), diff, KineticsBundle.zero())
    A = to_scipy(sim.stiffness.csr).toarray()
    tr = [sim.ovp, sim.ovm]
    others = [i for i in range(sim.n) if i not in tr]
    A_vv = A[np.ix_(tr, tr)]
    A_vb = A[np.ix_(tr, others)]
    A_bb = A[np.ix_(others, others)]
    S = A_vv - A_vb @ np.linalg.solve(A_bb, A_vb.T)
    assert S[0, 0] > 0 and S[1, 1] > 0
    assert S[0, 1] < 0 and S[1, 0] < 0
    assert S[0, 1] == pytest.approx(S[1, 0], rel=1e-10)


def test_constant_state_preserved_exactly():
    sim = make_sim()
    s0 = sim.initial_state(InitialData.constants(2.0, 2.0, 2.0))
    s1 = sim.step(s0, 1e-2)
    assert np.array_equal(s0.u, s1.u)


def test_mass_identity_zero_kinetics():
    sim = make_sim()
    rng = np.random.default_rng(1)
    s = sim.initial_state(B1_INIT)
    s.u[: sim.oc] += 0.1 * rng.uniform(size=sim.oc)
    m0 = sim.weighted_mass(s.u)
    for _ in range(20):
        new = sim.step(s, 1e-2)
        assert sim.mass_report(s, new, 1e-2) <= 1e-12 * abs(m0)
        s = new


def test_wall_exchange_reduces_total_mass():
    kin = KineticsBundle(
        f_plus=KineticsSpec("zero"),
        f_minus=KineticsSpec("zero"),
        g=KineticsSpec("zero"),
        h=KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 0.0}),
    )
    sim = make_sim(kin=kin)
    s = sim.initial_state(InitialData.constants(1.0, 1.0, 1.0))
    masses = [sim.weighted_mass(s.u)]
    for _ in range(5):
        s = sim.step(s, 1e-2)
        masses.append(sim.weighted_mass(s.u))
    assert all(b < a for a, b in zip(masses, masses[1:]))


def test_per_side_flux_balance_every_step():
    sim = make_sim(kin=B1_KIN)
    dt = 1 / 128
    s = sim.initial_state(B1_INIT)
    for _ in range(16):
        s = sim.step(s, dt)
        rp, rm = sim.flux_balance_residuals(s)
        assert rp.max() <= 1e-9
        assert rm.max() <= 1e-9


def test_initial_traces_match_channel_data_on_the_lids():
    sim = make_sim()
    s = sim.initial_state(B1_INIT)
    assert np.allclose(s.v_plus, 1.0)
    assert np.allclose(s.v_minus, 0.0)


def test_time_step_halving_self_convergence():
    finals = {}
    for dt in (1 / 64, 1 / 128, 1 / 256):
        sim = make_sim(kin=B1_KIN)
        finals[dt] = sim.run(B1_INIT, T=0.25, dt=dt, snapshot_stride=10**9)[-1]
    w = make_sim().weights

    def dist(a, b):
        return float(np.sqrt(np.dot(w, (a.u - b.u) ** 2)))

    assert dist(finals[1 / 64], finals[1 / 128]) / dist(finals[1 / 128], finals[1 / 256]) >= 1.8


def test_zero_horizon_returns_initial_state():
    sim = make_sim()
    snaps = sim.run(B1_INIT, T=0.0, dt=1e-2)
    assert len(snaps) == 1


def test_runs_are_bit_deterministic():
    a = make_sim(kin=B1_KIN).run(B1_INIT, T=0.125, dt=1 / 128, snapshot_stride=4)
    b = make_sim(kin=B1_KIN).run(B1_INIT, T=0.125, dt=1 / 128, snapshot_stride=4)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u, sb.u)


def test_steady_conduction_matches_series_resistance_network():
    sim = make_sim(n_sigma=16)
    steady = sim.steady_conduction(1.0, 0.0)
    fp, fm = sim.cell_flux(steady)
    # independent 1D chain: upper slab, channel slab of width |S*|, lower slab
    H, w = 1.0, 0.5
    expected = 1.0 / (H / 1.0 + 2.0 / (w * 0.5) + H / 2.0)
    assert np.max(np.abs(fp - expected)) / expected <= 0.02
    assert np.max(np.abs(fp + fm)) <= 1e-9  # inflow balances outflow per node
    rp, rm = sim.flux_balance_residuals(steady)
    assert max(rp.max(), rm.max()) <= 1e-9


def test_interface_uniform_data_gives_uniform_traces():
    # x-independent data: every interface node sees the same cell problem
    sim = make_sim(kin=B1_KIN)
    s = sim.initial_state(B1_INIT)
    for _ in range(16):
        s = sim.step(s, 1 / 128)
    assert s.v_plus.max() - s.v_plus.min() <= 1e-9
    assert s.v_minus.max() - s.v_minus.min() <= 1e-9
    cells = s.cells
    assert np.max(np.abs(cells - cells[0][None, :])) <= 1e-9


def test_constant_state_gives_zero_cell_flux():
    sim = make_sim()
    s = sim.initial_state(InitialData.constants(1.5, 1.5, 1.5))
    fp, fm = sim.cell_flux(s)
    assert np.max(np.abs(fp)) == 0.0
    assert np.max(np.abs(fm)) == 0.0


@pytest.mark.parametrize("hour", [False, True], ids=["rectangle", "hourglass"])
@pytest.mark.parametrize("n_sigma", [1, 2, 7, 32, 128])
def test_cosine_mode_solves_match_the_block_sweep(n_sigma, hour):
    profile = hourglass() if hour else ChannelProfile.rectangle(F(1, 2))
    cell = build_reference_cell(profile)
    diff = DiffusionSpec.isotropic(1.0, 2.0, 0.5, len(profile.segments))

    def make():
        return MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=n_sigma, m=8), diff, B1_KIN)

    sim, ref = make(), make()
    assert sim.stiffness.factorization is linsolve.CosineModes
    ref.stiffness.factorization = BlockLDL  # the oracle: same CSR, block sweep

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    init = InitialData(
        u_plus=lambda x, y: 1.0 + 0.5 * np.cos(3.0 * x) * y,
        u_minus=lambda x, y: -0.3 * np.sin(2.0 * x) + 0.1 * y,
        u_channel=lambda xb, yb, yn: 0.5 * (1.0 + yn) + 0.2 * xb * yb,
    )
    s = sim.initial_state(init)
    for _ in range(4):
        new = sim.step(s, 1 / 128)
        assert_close(new.u, ref.step(s, 1 / 128).u)
        s = new
    assert_close(sim.steady_conduction(1.0, -0.25).u, ref.steady_conduction(1.0, -0.25).u)
