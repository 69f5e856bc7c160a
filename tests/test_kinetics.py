import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom.geometry import (
    BULK_M,
    BULK_P,
    CHAN,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from chanhom.grid import build_micro_grid, wall_faces
from chanhom.kinetics import InitialData, KineticsDomainError, KineticsSpec
from chanhom.macrosim import InterfaceLayout, MacroSimulation
from chanhom.microsim import DiffusionSpec, KineticsBundle, MicroSimulation
from test_tiling import aligned_profiles, scan

ALL_BUILTINS = [
    KineticsSpec("zero"),
    KineticsSpec("constant", {"value": 2.5}),
    KineticsSpec("linear_decay", {"lam": 1.0}),
    KineticsSpec("logistic_clamped", {"r": 1.0, "u_cap": 1.0, "clamp": 10.0}),
    KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 1.0}),
    KineticsSpec("tabulated", {"u": [-1.0, 0.0, 2.0], "rate": [3.0, 0.0, -1.0]}),
]


def test_zero_and_linear_examples():
    assert KineticsSpec("zero").base_rate(0.0, 123.0) == 0.0
    assert KineticsSpec("linear_decay", {"lam": 1.0}).base_rate(0.0, 2.0) == -2.0
    h = KineticsSpec("exchange", {"kappa": 0.5, "u_ext": 1.0})
    assert h.base_rate(0.0, 3.0) == pytest.approx(1.0)


def test_logistic_clamp_is_linear_beyond_the_bound():
    spec = KineticsSpec("logistic_clamped", {"r": 1.0, "u_cap": 1.0, "clamp": 10.0})
    fm = spec.base_rate(0.0, 10.0)
    slope = 1.0 - 2.0 * 10.0  # derivative of the raw rate at the clamp bound
    assert spec.base_rate(0.0, 11.0) == pytest.approx(fm + slope)
    assert spec.base_rate(0.0, 0.5) == pytest.approx(0.25)


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.kind)
def test_declared_lipschitz_certificate(spec):
    L = spec.lipschitz
    u = np.linspace(-12.0, 12.0, 1001)
    r = spec.base_rate(0.0, u)
    steps = np.abs(np.diff(r))
    assert (steps <= L * np.abs(np.diff(u)) + 1e-12).all()


def test_logistic_lipschitz_certificate_with_a_negative_cap():
    spec = KineticsSpec("logistic_clamped", {"r": 1.0, "u_cap": -2.0, "clamp": 3.0})
    u = np.linspace(-12.0, 12.0, 1001)
    steps = np.abs(np.diff(spec.base_rate(0.0, u)))
    assert (steps <= spec.lipschitz * np.abs(np.diff(u)) + 1e-12).all()


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.kind)
def test_continuity_in_time_by_fine_sampling(spec):
    ts = np.linspace(0.0, 1.0, 200)
    vals = np.array([float(spec.base_rate(t, 0.7)) for t in ts])
    assert np.max(np.abs(np.diff(vals))) <= 1e-12  # built-ins are autonomous


def test_modulated_lipschitz_bound():
    spec = KineticsSpec("linear_decay", {"lam": 2.0}, modulation=("cos_ybar", 0.5))
    assert spec.lipschitz == pytest.approx(3.0)
    u = np.linspace(-5, 5, 500)
    for yb in (0.0, 0.25, 0.7):
        r = spec.base_rate(0.0, u) * spec.position_factor(yb, 0.0)
        assert (np.abs(np.diff(r)) <= spec.lipschitz * np.abs(np.diff(u)) + 1e-12).all()


def test_domain_errors():
    arc = KineticsSpec("constant", {"value": 1.0}, modulation=("arc_cos", 0.5))
    with pytest.raises(KineticsDomainError):
        arc.position_factor(0.25, 0.0)  # needs an arc position
    assert arc.position_factor(0.25, 0.0, arc=1.0, arc_total=4.0) == pytest.approx(
        1.0 + 0.5 * np.cos(2 * np.pi * 0.25)
    )


def micro_setup(eps=F(1, 4), k=4):
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    geom = build_micro_geometry(eps, 1, cell)
    grid = build_micro_grid(geom, k)
    return geom, grid


def channel_rates(spec, geom, grid, values):
    """Per-cell channel rate of a micro run whose only non-zero kinetics is g.

    `explicit_rate` returns the rate times the accumulation weight; dividing
    the weight out leaves the sampled rate.
    """
    z = KineticsSpec("zero")
    sim = MicroSimulation(geom, grid, DiffusionSpec.isotropic(1.0, 1.0, 1.0),
                          KineticsBundle(f_plus=z, f_minus=z, g=spec, h=z))
    return sim.explicit_rate(0.0, values) / sim.weights


def test_sampling_matches_direct_evaluation_when_position_free():
    geom, grid = micro_setup()
    spec = KineticsSpec("linear_decay", {"lam": 0.5})
    rng = np.random.default_rng(0)
    u = rng.normal(size=grid.n_cells)
    rates = channel_rates(spec, geom, grid, u)
    chan = grid.cell_tag == CHAN
    assert np.allclose(rates[chan], -0.5 * u[chan])
    assert (rates[~chan] == 0.0).all()


def test_height_pattern_is_column_periodic():
    geom, grid = micro_setup()
    spec = KineticsSpec("constant", {"value": 1.0}, modulation=("yn", 1.0))
    rates = channel_rates(spec, geom, grid, np.ones(grid.n_cells))
    chan = grid.cell_tag == CHAN
    by_col = rates[chan].reshape(geom.n_columns, -1)
    for c in range(1, geom.n_columns):
        assert np.array_equal(by_col[0], by_col[c])
    # and the pattern is the local height
    eps = float(geom.eps)
    assert np.allclose(rates[chan], grid.cell_y[chan] / eps)


def test_horizontal_pattern_differs_in_column_but_matches_across():
    geom, grid = micro_setup()
    spec = KineticsSpec("constant", {"value": 1.0}, modulation=("ybar", 1.0))
    rates = channel_rates(spec, geom, grid, np.ones(grid.n_cells))
    chan = grid.cell_tag == CHAN
    by_col = rates[chan].reshape(geom.n_columns, -1)
    assert not np.allclose(by_col[0], by_col[0][::-1])  # varies within the column
    for c in range(1, geom.n_columns):
        assert np.allclose(by_col[0], by_col[c])  # periodic across columns


def test_sampling_commutes_with_column_shift():
    geom, grid = micro_setup()
    spec = KineticsSpec("linear_decay", {"lam": 1.0}, modulation=("cos_ybar", 0.3))
    rng = np.random.default_rng(1)
    k = grid.k
    dense = grid.cells_dense(rng.normal(size=grid.n_cells))
    shifted = np.roll(dense, k, axis=0)  # shift the field by one column
    r = channel_rates(spec, geom, grid, dense[grid.cell_i, grid.cell_j])
    rs = channel_rates(spec, geom, grid, shifted[grid.cell_i, grid.cell_j])
    r_dense = grid.cells_dense(r)
    rs_dense = grid.cells_dense(rs)
    assert np.allclose(np.roll(r_dense, k, axis=0), rs_dense)


def test_initial_data_constants():
    ini = InitialData.constants(1.0, 0.0, 0.5)
    assert ini.u_plus(0.3, 0.7) == 1.0
    assert ini.u_minus(0.3, -0.7) == 0.0
    assert ini.u_channel(0.3, 0.5, 0.0) == 0.5


# -- randomized Lipschitz kinetics on random aligned profiles ----------------

MODULATIONS = ("cos_ybar", "ybar", "yn", "linear_yn", "arc_cos")
coef = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def tabulated(draw):
    """Strictly increasing knots at least 0.1 apart, random rates."""
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=0, max_size=4))
    u = np.cumsum([draw(st.floats(-2.0, 1.0))] + gaps)
    return KineticsSpec("tabulated", {"u": u.tolist(),
                                      "rate": [draw(coef) for _ in range(len(u))]})


@st.composite
def logistic(draw):
    cap = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return KineticsSpec("logistic_clamped", {"r": draw(coef), "u_cap": cap,
                                             "clamp": draw(st.floats(0.1, 5.0))})


def exchange(modulations=(None,)):
    return st.builds(
        lambda kappa, u_ext, kind, amp: KineticsSpec(
            "exchange", {"kappa": kappa, "u_ext": u_ext}, kind and (kind, amp)),
        coef, coef, st.sampled_from(modulations), st.floats(-1.0, 1.0))


RATES = st.one_of(tabulated(), logistic(), exchange())
# the channel rate sees (ybar, y_n) only; the wall rate may also use the arc position
CHANNEL_RATES = st.one_of(tabulated(), logistic(), exchange((None,) + MODULATIONS[:-1]))
SMOOTH_INITIAL = InitialData(
    u_plus=lambda x, y: 1.0 + 0.3 * np.cos(np.pi * x),
    u_minus=lambda x, y: 0.5,
    u_channel=lambda xb, yb, yn: 0.75 + 0.25 * yn,
)


@pytest.mark.parametrize("modulation", MODULATIONS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(profile_k=aligned_profiles(), inv_eps=st.integers(2, 3), f_plus=RATES,
       f_minus=RATES, g=CHANNEL_RATES, h_rate=st.tuples(coef, coef, st.floats(-1.0, 1.0)))
def test_random_kinetics_keep_mass_flux_balance_and_determinism(
        modulation, profile_k, inv_eps, f_plus, f_minus, g, h_rate):
    """Per example: the mass identity per step of both models, the macro per-side
    flux balance at every snapshot after the initial one, and bit-identical reruns."""
    profile, k = profile_k
    kappa, u_ext, amp = h_rate
    h = KineticsSpec("exchange", {"kappa": kappa, "u_ext": u_ext}, (modulation, amp))
    kin = KineticsBundle(f_plus, f_minus, g, h)
    cell = build_reference_cell(profile)
    diff = DiffusionSpec.isotropic(1.0, 2.0, 0.5, len(profile.segments))
    geom = build_micro_geometry(F(1, inv_eps), 1, cell)
    grid = build_micro_grid(geom, k)

    def micro():
        return MicroSimulation(geom, grid, diff, kin)

    def macro():
        return MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=inv_eps, m=k), diff, kin)

    sim = micro()
    dt = min(1 / 64, 0.5 * sim.max_stable_dt())  # the limit model has the same bound
    state = sim.initial_state(SMOOTH_INITIAL)
    for _ in range(4):
        new = sim.step(state, dt)
        assert sim.mass_report(state, new, dt) <= 1e-12 * abs(sim.weighted_mass(state.values))
        state = new

    macro_runs = [macro().run(SMOOTH_INITIAL, 4 * dt, dt) for _ in range(2)]
    for before, snap in zip(macro_runs[0], macro_runs[0][1:]):
        rp, rm = snap.sim.flux_balance_residuals(snap)
        assert max(rp.max(), rm.max()) <= 1e-9
        mass = abs(snap.sim.weighted_mass(before.values))
        assert snap.sim.mass_report(before, snap, dt) <= 1e-12 * mass
    micro_runs = [micro().run(SMOOTH_INITIAL, 4 * dt, dt) for _ in range(2)]
    for a, b in (micro_runs, macro_runs):
        assert len(a) == len(b) == 5
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))


# -- the rate map against a plain recomputation --------------------------------

NONZERO = RATES.filter(lambda spec: spec.lipschitz > 0)


def modulated(kinds):
    return st.builds(lambda spec, kind, amp: dataclasses.replace(spec, modulation=(kind, amp)),
                     NONZERO, st.sampled_from(kinds), st.floats(0.25, 1.0))


def wall_factor(h, cell, ybar, y_n):
    return h.position_factor(ybar, y_n, arc=cell.arc_coordinate(ybar, y_n),
                             arc_total=float(cell.n_length))


def assert_close(got, want):
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(profile_k=aligned_profiles(), inv_eps=st.integers(2, 4), f_plus=NONZERO,
       f_minus=NONZERO, g=modulated(("cos_ybar", "ybar", "yn")), h=modulated(("arc_cos",)),
       seed=st.integers(0, 2**32 - 1))
def test_explicit_rate_is_the_rate_of_every_cell_and_node(profile_k, inv_eps, f_plus, f_minus,
                                                          g, h, seed):
    """`explicit_rate` of both models against a recomputation from the rates alone:
    cell by cell on the micro grid (its wall faces from a cell-by-cell scan), node
    by node in the limit model (each node's cell problem with the reference walls)."""
    profile, k = profile_k
    kin = KineticsBundle(f_plus, f_minus, g, h)
    cell = build_reference_cell(profile)
    diff = DiffusionSpec.isotropic(1.0, 2.0, 0.5, len(profile.segments))
    geom = build_micro_geometry(F(1, inv_eps), 1, cell)
    grid = build_micro_grid(geom, k)
    rng = np.random.default_rng(seed)
    t, eps = 0.25, float(geom.eps)

    u = rng.uniform(-3.0, 3.0, grid.n_cells)
    want = np.empty(grid.n_cells)
    for c, tag in enumerate(grid.cell_tag):
        if tag == CHAN:
            xbar, y_n = grid.cell_x[c] / eps, grid.cell_y[c] / eps
            rate = g.base_rate(t, u[c]) * g.position_factor(xbar - np.floor(xbar), y_n) / eps
        else:
            rate = {BULK_P: f_plus, BULK_M: f_minus}[tag].base_rate(t, u[c])
        want[c] = rate * grid.cell_vol[c]
    walls = scan(grid, geom)
    for c, length, (ybar, y_n) in zip(walls["cells"].flat, walls["length"].flat,
                                      walls["local"].reshape(-1, 2)):
        want[c] -= h.base_rate(t, u[c]) * wall_factor(h, cell, ybar, y_n) * length
    assert_close(MicroSimulation(geom, grid, diff, kin).explicit_rate(t, u), want)

    sim = MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=inv_eps, m=k), diff, kin)
    u = rng.uniform(-3.0, 3.0, sim.n)
    cg, ref, dsig = sim.cell_grid, wall_faces(sim.cell_grid), 1.0 / inv_eps
    want = np.zeros(sim.n)  # the trace unknowns carry no rate
    want[: sim.nbp] = f_plus.base_rate(t, u[: sim.nbp]) * sim.grid_p.cell_vol
    want[sim.nbp : sim.ovp] = f_minus.base_rate(t, u[sim.nbp : sim.ovp]) * sim.grid_m.cell_vol
    for node in range(inv_eps):
        at = slice(sim.oc + node * sim.ncc, sim.oc + (node + 1) * sim.ncc)
        v = u[at]
        rate = g.base_rate(t, v) * g.position_factor(cg.cell_x, cg.cell_y) * dsig * cg.cell_vol
        for c, length, (ybar, y_n) in zip(ref.cells[0], ref.length[0], ref.local):
            rate[c] -= h.base_rate(t, v[c]) * wall_factor(h, cell, ybar, y_n) * dsig * length
        want[at] = rate
    assert_close(sim.explicit_rate(t, u), want)
