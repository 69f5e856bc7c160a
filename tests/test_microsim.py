from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom import linsolve
from chanhom.errors import SolverError, StabilityError
from chanhom.geometry import BULK_P, CHAN, ChannelProfile, build_micro_geometry, build_reference_cell
from chanhom.grid import build_micro_grid, inner_product_leps, leps_diff
from chanhom.kinetics import InitialData, KineticsSpec
from chanhom.macrosim import InterfaceLayout, MacroSimulation
from chanhom.microsim import DiffusionSpec, KineticsBundle, MicroSimulation
from linsolve_oracles import BlockLDL, from_scipy, to_scipy
from test_geometry import hourglass
from test_tiling import aligned_profiles

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


def setup(eps=F(1, 4), k=4, kin=None):
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(eps, 1, cell)
    grid = build_micro_grid(geom, k)
    sim = MicroSimulation(geom, grid, B1_DIFF, kin or KineticsBundle.zero())
    return geom, grid, sim


def test_stiffness_is_exactly_symmetric_with_zero_row_sums():
    geom, grid, sim = setup()
    A = to_scipy(sim.stiffness.csr)
    skew = abs(A - A.T)
    assert skew.nnz == 0 or skew.data.max() == 0.0
    rs = np.abs(A @ np.ones(grid.n_cells))
    assert rs.max() <= 1e-12 * np.abs(A.data).max()


def test_interface_transmissibility_matches_harmonic_formula():
    geom, grid, sim = setup()
    eps = float(geom.eps)
    k = grid.k
    # locate one face between a channel top cell and the bulk cell above it
    j_chan = int(np.argmin(np.abs(grid.y + eps)))  # first layer row
    j_top = j_chan + 2 * k - 1
    i = k // 2  # inside the channel opening of column 0
    a = grid.index[i, j_top]
    b = grid.index[i, j_top + 1]
    assert grid.tag[i, j_top] == CHAN and grid.tag[i, j_top + 1] == BULK_P
    face_len = grid.dx[i]
    delta_c = grid.dy[j_top]
    delta_b = grid.dy[j_top + 1]
    expected = face_len / (delta_b / (2 * 1.0) + delta_c / (2 * eps * 0.5))
    assert -to_scipy(sim.stiffness.csr)[a, b] == pytest.approx(expected, rel=1e-13)


def test_constant_state_is_preserved_exactly():
    _, grid, sim = setup()
    s0 = sim.initial_state(InitialData.constants(3.0, 3.0, 3.0))
    s1 = sim.step(s0, 1e-2)
    assert np.array_equal(s0.values, s1.values)


def test_weighted_mass_is_conserved_with_zero_kinetics():
    _, grid, sim = setup()
    rng = np.random.default_rng(0)
    state = sim.initial_state(InitialData.constants(0.0, 0.0, 0.0))
    state.u.values[:] = rng.uniform(0.0, 1.0, grid.n_cells)
    m0 = sim.weighted_mass(state.values)
    for _ in range(20):
        new = sim.step(state, 1e-2)
        assert sim.mass_report(state, new, 1e-2) <= 1e-12 * abs(m0)
        state = new
    assert sim.weighted_mass(state.values) == pytest.approx(m0, rel=1e-11)


def test_uniform_linear_decay_matches_scalar_step():
    kin = KineticsBundle(
        f_plus=KineticsSpec("linear_decay", {"lam": 1.0}),
        f_minus=KineticsSpec("linear_decay", {"lam": 1.0}),
        g=KineticsSpec("linear_decay", {"lam": 1.0}),
        h=KineticsSpec("zero"),
    )
    _, grid, sim = setup(kin=kin)
    dt = 1e-2
    s0 = sim.initial_state(InitialData.constants(1.0, 1.0, 1.0))
    s1 = sim.step(s0, dt)
    assert np.allclose(s1.values, 1.0 - dt, atol=1e-13)


def test_zero_kinetics_is_dissipative_and_monotone():
    _, grid, sim = setup()
    rng = np.random.default_rng(5)
    state = sim.initial_state(InitialData.constants(0.0, 0.0, 0.0))
    state.u.values[:] = rng.uniform(-1.0, 2.0, grid.n_cells)
    lo, hi = state.values.min(), state.values.max()
    n0 = np.sqrt(inner_product_leps(state.u, state.u))
    for _ in range(10):
        state = sim.step(state, 5e-3)
        assert state.values.min() >= lo - 1e-10
        assert state.values.max() <= hi + 1e-10
    assert np.sqrt(inner_product_leps(state.u, state.u)) <= n0


def test_zero_horizon_returns_initial_state_only():
    _, _, sim = setup()
    snaps = sim.run(B1_INIT, T=0.0, dt=1e-2)
    assert len(snaps) == 1 and snaps[0].t == 0.0


def test_initial_channel_sampling_uses_local_height():
    geom, grid, sim = setup()
    s0 = sim.initial_state(B1_INIT)
    chan = grid.cell_tag == CHAN
    eps = float(geom.eps)
    assert np.allclose(s0.values[chan], 0.5 * (1.0 + grid.cell_y[chan] / eps))
    assert (s0.values[grid.cell_tag == BULK_P] == 1.0).all()


def limit_sim(kin):
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    return MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=8, m=4), B1_DIFF, kin)


@pytest.mark.parametrize("make", [lambda kin: setup(kin=kin)[2], limit_sim],
                         ids=["micro", "macro"])
def test_time_step_stability_guard(make):
    sim = make(B1_KIN)
    bound = sim.max_stable_dt()
    assert bound == pytest.approx(0.5 / 21.0)  # logistic clamp dominates
    state = sim.initial_state(B1_INIT)
    with pytest.raises(StabilityError):
        sim.step(state, bound * 2)


@pytest.mark.parametrize("make", [lambda kin: setup(kin=kin)[2], limit_sim],
                         ids=["micro", "macro"])
def test_stability_bound_is_checked_once_per_dt(make, monkeypatch):
    sim = make(B1_KIN)
    calls = []
    bound = sim.max_stable_dt
    monkeypatch.setattr(sim, "max_stable_dt", lambda: calls.append(1) or bound())
    state = sim.initial_state(B1_INIT)
    for dt in (1 / 128, 1 / 128, 1 / 256, 1 / 128, 1 / 256, 1 / 256):
        state = sim.step(state, dt)
    assert len(calls) == 2


@pytest.mark.parametrize("make", [lambda kin: setup(kin=kin)[2], limit_sim],
                         ids=["micro", "macro"])
def test_step_solves_once_through_the_linsolve_module(make, monkeypatch):
    """One `linsolve.solve_spd(matrix, rhs, ...)` call per step, looked up on the module."""
    sim = make(B1_KIN)
    calls = []
    solve = linsolve.solve_spd

    def counted(A, b, *args, **kwargs):
        calls.append(len(b))
        return solve(A, b, *args, **kwargs)

    monkeypatch.setattr(linsolve, "solve_spd", counted)
    state = sim.initial_state(B1_INIT)
    sim.step(state, 1e-2)
    assert calls == [len(state.values)]


def test_run_drops_the_factored_matrices():
    _, _, sim = setup(kin=B1_KIN)
    snaps = sim.run(B1_INIT, 0.04, 1e-2)
    assert len(snaps) == 5 and not sim._implicit


@pytest.mark.parametrize("rate, modulation, named", [
    ("f_plus", ("cos_ybar", 3.0), "f_plus.modulation"),
    ("f_minus", ("yn", 0.5), "f_minus.modulation"),
    ("g", ("arc_cos", 0.3), "g.modulation.kind: arc_cos"),
])
def test_kinetics_bundle_refuses_a_modulation_no_simulator_applies(rate, modulation, named):
    """A bulk rate is sampled without a position factor and the channel rate without an
    arc position, yet a factor bound would still tighten `max_stable_dt`."""
    rates = dict(f_plus=KineticsSpec("linear_decay", {"lam": 1.0}),
                 f_minus=KineticsSpec("linear_decay", {"lam": 1.0}),
                 g=KineticsSpec("linear_decay", {"lam": 1.0}), h=KineticsSpec("zero"))
    rates[rate] = KineticsSpec("linear_decay", {"lam": 1.0}, modulation)
    with pytest.raises(ValueError, match=named):
        KineticsBundle(**rates)
    rates[rate] = KineticsSpec("linear_decay", {"lam": 1.0})
    assert setup(kin=KineticsBundle(**rates))[2].max_stable_dt() == 0.5


def test_wall_exchange_reduces_mass():
    kin = KineticsBundle(
        f_plus=KineticsSpec("zero"),
        f_minus=KineticsSpec("zero"),
        g=KineticsSpec("zero"),
        h=KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 0.0}),
    )
    _, grid, sim = setup(kin=kin)
    state = sim.initial_state(InitialData.constants(1.0, 1.0, 1.0))
    masses = [sim.weighted_mass(state.values)]
    for _ in range(5):
        state = sim.step(state, 1e-2)
        masses.append(sim.weighted_mass(state.values))
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert (state.values >= -1e-12).all()


def test_mass_identity_holds_with_nonlinear_kinetics():
    _, grid, sim = setup(kin=B1_KIN)
    dt = 1 / 128
    state = sim.initial_state(B1_INIT)
    scale = abs(sim.weighted_mass(state.values)) + 1.0
    for _ in range(10):
        new = sim.step(state, dt)
        assert sim.mass_report(state, new, dt) <= 1e-11 * scale
        state = new


def test_halving_the_time_step_halves_the_error():
    geom, grid, _ = setup()
    finals = {}
    for dt in (1 / 64, 1 / 128, 1 / 256):
        sim = MicroSimulation(geom, grid, B1_DIFF, B1_KIN)
        finals[dt] = sim.run(B1_INIT, T=0.25, dt=dt, snapshot_stride=10**9)[-1]
    d_coarse = leps_diff(finals[1 / 64].u, finals[1 / 128].u)
    d_fine = leps_diff(finals[1 / 128].u, finals[1 / 256].u)
    assert d_coarse / d_fine >= 1.8


def test_zero_kinetics_relaxes_to_the_weighted_mean():
    # pure Neumann diffusion equilibrates at total weighted mass / total weight
    _, grid, sim = setup()
    state = sim.initial_state(B1_INIT)
    target = sim.weighted_mass(state.values) / sim.weights.sum()
    for _ in range(60):
        state = sim.step(state, 1.0)  # implicit diffusion, no stability limit
    assert np.max(np.abs(state.values - target)) <= 1e-6


def test_mirror_symmetric_data_gives_mirror_symmetric_solution():
    geom, grid, _ = setup()
    sim = MicroSimulation(geom, grid, B1_DIFF, B1_KIN)
    final = sim.run(B1_INIT, T=0.25, dt=1 / 128, snapshot_stride=10**9)[-1]
    dense = grid.cells_dense(final.values, fill=np.nan)
    mirrored = dense[::-1, :]
    mask = np.isfinite(dense)
    assert np.array_equal(mask, mask[::-1, :])
    assert np.nanmax(np.abs(dense - mirrored)) <= 1e-12


def test_run_is_deterministic():
    geom, grid, _ = setup()
    runs = []
    for _ in range(2):
        sim = MicroSimulation(geom, grid, B1_DIFF, B1_KIN)
        runs.append(sim.run(B1_INIT, T=0.125, dt=1 / 128, snapshot_stride=4))
    for a, b in zip(*runs):
        assert np.array_equal(a.values, b.values)


# -- the opening-capacitance factor of the micro grid ---------------------------

def micro_matrix(profile, k, inv_eps, diff, dt):
    """The simulation and its M + dt K; H = 2 admits eps = 1."""
    geom = build_micro_geometry(F(1, inv_eps), 2, build_reference_cell(profile))
    sim = MicroSimulation(geom, build_micro_grid(geom, k), diff, KineticsBundle.zero())
    return sim, from_scipy(sp.diags(sim.weights) + dt * to_scipy(sim.stiffness.csr))


def assert_matches_block_sweep(sim, csr, b):
    """The opening factor against BlockLDL on the same CSR, labelled by grid column."""
    want = BlockLDL(csr, sim.grid.cell_i).solve(b)
    got = linsolve.OpeningCapacitance(csr, sim.blocks).solve(b)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


HOURGLASS_DIFF = DiffusionSpec(1.0, 2.0, ((0.5, 0.25), (0.3, 0.7), (0.5, 0.25)))
# wide at the bottom, narrow at the top: most opening columns hold one opening only
FUNNEL = ChannelProfile.from_pairs(
    [((-1, F(-1, 2)), F(3, 4)), ((F(-1, 2), F(1, 2)), F(1, 2)), ((F(1, 2), 1), F(1, 4))]
)
FUNNEL_DIFF = DiffusionSpec(0.7, 1.6, ((0.4, 0.9), (1.2, 0.6), (0.8, 1.5)))


@pytest.mark.parametrize("inv_eps", [1, 3, 4, 12])
@pytest.mark.parametrize("profile, k, diff", [
    (ChannelProfile.rectangle(F(1, 2)), 4, B1_DIFF), (hourglass(), 8, HOURGLASS_DIFF),
    (FUNNEL, 8, FUNNEL_DIFF),
], ids=["rectangle", "hourglass", "funnel"])
def test_opening_factor_matches_the_block_sweep(profile, k, diff, inv_eps):
    rng = np.random.default_rng(inv_eps)
    for dt in (1 / 512, 1.0):
        sim, csr = micro_matrix(profile, k, inv_eps, diff, dt)
        assert sim.factorization is linsolve.OpeningCapacitance
        assert_matches_block_sweep(sim, csr, rng.normal(size=csr.shape[0]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(profile_k=aligned_profiles(), inv_eps=st.integers(1, 5),
       log_dt=st.floats(-10.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_opening_factor_matches_the_block_sweep_on_random_profiles(profile_k, inv_eps,
                                                                   log_dt, seed):
    profile, k = profile_k
    rng = np.random.default_rng(seed)
    tensors = tuple(tuple(rng.uniform(0.1, 2.0, 2)) for _ in profile.segments)
    diff = DiffusionSpec(*rng.uniform(0.1, 2.0, 2), tensors)
    sim, csr = micro_matrix(profile, k, inv_eps, diff, 2.0**log_dt)
    assert_matches_block_sweep(sim, csr, rng.normal(size=csr.shape[0]))


def test_opening_factor_solves_are_bit_identical():
    sim, csr = micro_matrix(hourglass(), 8, 3, HOURGLASS_DIFF, 1 / 128)
    b = np.random.default_rng(7).normal(size=csr.shape[0])
    first = linsolve.OpeningCapacitance(csr, sim.blocks)
    x = first.solve(b)
    assert np.array_equal(first.solve(b), x)
    assert np.array_equal(linsolve.OpeningCapacitance(csr, sim.blocks).solve(b), x)


def kept_bytes(obj):
    """nbytes of every array an object keeps, through the objects it keeps."""
    return sum(v.nbytes if isinstance(v, np.ndarray) else kept_bytes(v)
               for v in vars(obj).values() if isinstance(v, np.ndarray) or hasattr(v, "__dict__"))


def test_opening_factor_keeps_one_transform_column_per_opening_column():
    # 1/eps 128: 512 grid columns, 256 of them hold a top and a bottom opening (R = 512).
    # The factor keeps 17.5 MB; one transform column per opening cell would add 1 MB.
    _, _, sim = setup(eps=F(1, 128))
    factor = linsolve.OpeningCapacitance(sim.stiffness.csr.plus_diagonal(sim.weights, 1 / 512),
                                         sim.blocks)
    assert factor.qc.shape == (512, 256) and factor.W.shape == (512, 512)
    assert kept_bytes(factor) < 18.0e6


def test_opening_factor_keeps_no_inverse_per_mode():
    # 1/eps 128: 512 bulk columns of 52 rows; one eigenbasis and 1 / D in place of the
    # 512 inverses of 52 x 52 (11.1 MB) that a per-mode factor keeps
    _, _, sim = setup(eps=F(1, 128))
    factor = linsolve.OpeningCapacitance(sim.stiffness.csr.plus_diagonal(sim.weights, 1 / 512),
                                         sim.blocks)
    nb, m = factor.modes.inv_D.shape
    assert kept_bytes(factor) < 7.0e6

    def arrays(obj):
        for v in vars(obj).values():
            if isinstance(v, np.ndarray):
                yield v
            elif hasattr(v, "__dict__"):
                yield from arrays(v)

    assert max(a.size for a in arrays(factor)) < nb * m * m


def test_refined_micro_solves_keep_their_margin(monkeypatch):
    """The x0 step keeps the deep rungs well under `linsolve.SOLVER_TOL` (1e-12).

    Hourglass channel at 1/eps 128, k = m = 8, first 12 steps at dt 1/512:
    the worst final relative residual is 3.5e-13.
    """
    kin = KineticsBundle(
        f_plus=B1_KIN.f_plus, f_minus=B1_KIN.f_minus, g=B1_KIN.g,
        h=KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 0.0}, ("cos_ybar", 0.5)),
    )
    diff = DiffusionSpec(1.0, 2.0, ((0.7, 1.3), (0.3, 0.6), (0.7, 1.3)))
    geom = build_micro_geometry(F(1, 128), 1, build_reference_cell(hourglass()))
    sim = MicroSimulation(geom, build_micro_grid(geom, 8), diff, kin)
    residuals = []
    solve = linsolve.solve_spd

    def measured(A, b, *args, **kwargs):
        x = solve(A, b, *args, **kwargs)
        residuals.append(np.linalg.norm(b - A.csr @ x) / np.linalg.norm(b))
        return x

    monkeypatch.setattr(linsolve, "solve_spd", measured)
    state = sim.initial_state(B1_INIT)
    for _ in range(12):
        state = sim.step(state, 1 / 512)
    assert len(residuals) == 12
    assert max(residuals) <= 5e-13


def _couple(csr, i, j, t):
    """csr plus the two-point term t (u_i - u_j)^2: symmetric, zero row sum."""
    n = csr.shape[0]
    term = sp.csr_matrix(([t, t, -t, -t], ([i, j, i, j], [i, j, j, i])), shape=(n, n))
    return from_scipy(to_scipy(csr) + term)


def test_opening_factor_rejects_other_forms():
    sim, csr = micro_matrix(ChannelProfile.rectangle(F(1, 2)), 4, 3, B1_DIFF, 1 / 128)
    grid, blocks = sim.grid, sim.blocks
    linsolve.OpeningCapacitance(csr, blocks)  # the unperturbed matrix factors
    chan = np.flatnonzero(blocks < 0)
    chan0, chan1 = chan[blocks[chan] == -1], chan[blocks[chan] == -2]
    # a bulk cell with a channel cell above it: an opening of channel 0
    above = grid.index[grid.cell_i[chan0], grid.cell_j[chan0] + 1]
    opening = above[(above >= 0) & (blocks[np.maximum(above, 0)] >= 0)][0]
    bulk_row = np.flatnonzero((blocks >= 0) & (grid.cell_j == grid.cell_j[opening]))

    with pytest.raises(SolverError, match="couples two channels"):
        linsolve.OpeningCapacitance(_couple(csr, chan0[0], chan1[0], 0.5), blocks)
    moved = blocks.copy()
    moved[chan1[0]] = -1
    with pytest.raises(SolverError, match="unequal size"):
        linsolve.OpeningCapacitance(csr, moved)
    with pytest.raises(SolverError, match="not I"):
        linsolve.OpeningCapacitance(_couple(csr, bulk_row[0], bulk_row[1], 1e-6), blocks)
    with pytest.raises(SolverError, match="outside its column"):
        linsolve.OpeningCapacitance(_couple(csr, opening, chan1[0], 0.5), blocks)
    with pytest.raises(SolverError, match="no bulk and channel labels"):
        linsolve.OpeningCapacitance(csr, None)
