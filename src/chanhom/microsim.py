"""Channel-resolved simulation on the eps-periodic domain.

Conservative cell-centered finite volumes with two-point fluxes.  The
accumulation term carries the layer scaling (channel cells weigh 1/eps),
the stiffness realizes bulk diffusion plus eps-scaled channel diffusion,
and faces between a bulk and a channel cell get the harmonic two-sided
transmissibility, which is exactly the flux-continuity transmission
condition on conforming grids.  Diffusion is advanced implicitly (backward
Euler), the reaction terms and the wall flux explicitly.

The implicit operator is two bulk blocks that are the same in every grid
column, plus one isolated block per channel that touches the bulk only
through the faces of its openings.  `linsolve.OpeningCapacitance` solves the
bulk in cosine modes along the columns and the channels block by block,
and joins them through a capacitance system on the opening faces; its
construction checks that structure on the assembled matrix.
"""

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .errors import GeometryError, StabilityError
from .geometry import BULK_M, BULK_P, CHAN, MicroGeometry
from .grid import Field, RectGrid, wall_faces
from .kinetics import InitialData, KineticsSpec


@dataclass(frozen=True)
class DiffusionSpec:
    """Bulk scalars and a diagonal channel tensor, constant per profile segment."""

    d_plus: float
    d_minus: float
    channel: tuple  # ((d_ybar, d_yn), ...) aligned with the profile segments

    def __post_init__(self):
        entries = [self.d_plus, self.d_minus]
        for pair in self.channel:
            entries.extend(pair)
        if not all(np.isfinite(entries)) or min(entries) <= 0:
            raise GeometryError("diffusivities must be finite and strictly positive (coercivity)")

    @staticmethod
    def isotropic(d_plus, d_minus, d_channel, n_segments=1) -> "DiffusionSpec":
        return DiffusionSpec(
            d_plus, d_minus, tuple((d_channel, d_channel) for _ in range(n_segments))
        )


@dataclass(frozen=True)
class KineticsBundle:
    """The four rates, refusing a modulation that no simulator applies.

    The simulators sample the bulk rates without a position factor and give
    the channel rate (ybar, y_n) but no arc position.  Such a modulation
    would change no rate, yet its factor bound would still tighten
    `max_stable_dt`.
    """

    f_plus: KineticsSpec
    f_minus: KineticsSpec
    g: KineticsSpec
    h: KineticsSpec

    def __post_init__(self):
        for name in ("f_plus", "f_minus"):
            if getattr(self, name).modulation is not None:
                raise ValueError(f"{name}.modulation: a bulk rate takes no position modulation")
        if self.g.modulation is not None and self.g.modulation[0] == "arc_cos":
            raise ValueError("g.modulation.kind: arc_cos needs a wall position; the channel "
                             "rate sees (ybar, y_n) only")

    @staticmethod
    def zero() -> "KineticsBundle":
        z = KineticsSpec("zero")
        return KineticsBundle(z, z, z, z)


@dataclass
class MicroState:
    t: float
    u: Field

    @property
    def values(self) -> np.ndarray:
        return self.u.values


def channel_tensor(profile, y_n, diff: DiffusionSpec) -> np.ndarray:
    """(len(y_n), 2) channel tensor (d_ybar, d_yn) of the profile segment holding each y_n."""
    breaks = np.array([float(hi) for (lo, hi), _ in profile.segments[:-1]])
    return np.asarray(diff.channel, dtype=float)[np.searchsorted(breaks, y_n, side="right")]


def pair_triplets(i, j, t, axis=0):
    """COO rows (i, j, i, j), cols (i, j, j, i), vals (t, t, -t, -t), stacked along `axis`."""
    return (np.stack([i, j, i, j], axis), np.stack([i, j, j, i], axis),
            np.stack([t, t, -t, -t], axis))


def two_point_stiffness(grid: RectGrid, d, scale=1.0):
    """COO triplets of the two-point flux stiffness of one grid, axis by axis.

    `d` is the directional diffusivity per cell (broadcast to (n_cells, 2)); a
    face has the harmonic transmissibility scale * length / (dist_a / d_a + dist_b / d_b).
    """
    d = np.broadcast_to(np.asarray(d, dtype=float), (grid.n_cells, 2))
    parts = [
        pair_triplets(fs.a, fs.b, scale * fs.length
                      / (fs.dist_a / d[fs.a, fs.axis] + fs.dist_b / d[fs.b, fs.axis]))
        for fs in grid.faces
    ]
    return tuple(np.concatenate(part, axis=None) for part in zip(*parts))


def assemble_micro_operator(geom: MicroGeometry, grid: RectGrid, diff: DiffusionSpec):
    """Stiffness (SPD, zero row sums) and the weighted accumulation vector.

    Channel cells carry the eps-scaled channel tensor of the critical scaling.
    """
    eps = float(geom.eps)
    d = np.empty((grid.n_cells, 2))
    d[grid.cell_tag == BULK_P] = diff.d_plus
    d[grid.cell_tag == BULK_M] = diff.d_minus
    chan = grid.cell_tag == CHAN
    d[chan] = eps * channel_tensor(geom.cell.profile, grid.cell_y[chan] / eps, diff)
    A = linsolve.assemble(*two_point_stiffness(grid, d), grid.n_cells)
    return A, grid.weight * grid.cell_vol


def step_count(T, dt) -> int:
    """The number of steps of dt to T; ValueError unless it is an integer (OverflowError
    if T / dt is infinite)."""
    if T <= 0:
        return 0
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T={T} is not an integer number of steps of dt={dt}")
    return n_steps


def snapshot_steps(T, dt, stride) -> list:
    """Step numbers whose states a run to T stores: 0, every `stride` steps, the last."""
    n_steps = step_count(T, dt)
    return [*range(0, n_steps, stride), n_steps]


class ImexSimulation:
    """Backward-Euler diffusion with explicit kinetics on an assembled system.

    Subclasses assemble `stiffness` and `weights`, name the `linsolve`
    `factorization` that factors M + dt K, label every unknown with the
    `blocks` entry that factorization reads, supply `initial_state` and say in
    `_map_rates` where each rate acts, which `explicit_rate` r reads; one step
    solves (M + dt K) u_new = M u + dt r(t, u).  `refinement` is the
    reference-cell refinement that sets the wall term's face/volume factor in
    the stability bound, which is checked once per dt, when M + dt K is built.
    """

    def __init__(self, cell, refinement, kin: KineticsBundle):
        self.cell = cell
        self.refinement = refinement
        self.kin = kin
        self._implicit = {}

    def _map_rates(self, f_plus, f_minus, g, g_local, walls, wall_cells, wall_len):
        """Where each rate acts: the unknowns (masks or slices) of f_plus, f_minus and g, g's
        reference-cell (ybar, y_n), and the unknowns and lengths of each copy of `walls`."""
        self.rate_at = (f_plus, f_minus, g)
        self.g_factor = self.kin.g.position_factor(*g_local)
        arcs = np.array([self.cell.arc_coordinate(ybar, y_n) for ybar, y_n in walls.local])
        factor = self.kin.h.position_factor(
            walls.local[:, 0], walls.local[:, 1], arc=arcs, arc_total=float(self.cell.n_length)
        )
        self.h_factor = np.tile(factor, len(wall_cells))
        self.wall_cells = wall_cells.reshape(-1)
        self.wall_len = np.broadcast_to(wall_len, wall_cells.shape).reshape(-1)

    def explicit_rate(self, t, values) -> np.ndarray:
        """Weighted reaction vector plus the wall-flux sink at time t."""
        at_plus, at_minus, at_g = self.rate_at
        out = np.zeros(len(self.weights))
        out[at_plus] = self.kin.f_plus.base_rate(t, values[at_plus])
        out[at_minus] = self.kin.f_minus.base_rate(t, values[at_minus])
        out[at_g] = self.kin.g.base_rate(t, values[at_g]) * self.g_factor
        out *= self.weights
        sink = self.kin.h.base_rate(t, values[self.wall_cells]) * self.h_factor * self.wall_len
        np.subtract.at(out, self.wall_cells, sink)
        return out

    def max_stable_dt(self) -> float:
        """Explicit-part bound 0.5 / L with the wall term's face/volume factor."""
        ratio = float(self.cell.n_length / self.cell.area)
        L = max(
            self.kin.f_plus.lipschitz,
            self.kin.f_minus.lipschitz,
            self.kin.g.lipschitz,
            self.kin.h.lipschitz * self.refinement * ratio,
        )
        return 0.5 / L if L > 0 else np.inf

    def _advance(self, t, u, dt) -> np.ndarray:
        """Values after one step of size dt from u at time t."""
        key = float(dt)
        if key not in self._implicit:
            bound = self.max_stable_dt()
            if dt > bound * (1 + 1e-12):
                raise StabilityError(f"dt={dt:g} exceeds the explicit stability bound {bound:g}")
            self._implicit[key] = linsolve.SparseMatrix(
                csr=self.stiffness.csr.plus_diagonal(self.weights, key), blocks=self.blocks,
                factorization=self.factorization,
            )
        rhs = self.weights * u + dt * self.explicit_rate(t, u)
        return linsolve.solve_spd(self._implicit[key], rhs, x0=u)

    def weighted_mass(self, values) -> float:
        return float(np.dot(self.weights, values))

    def mass_report(self, before, after, dt) -> float:
        """|Delta mass - dt * (reactions - wall outflow)| for one step."""
        rate = self.explicit_rate(before.t, before.values)
        return abs(
            self.weighted_mass(after.values) - self.weighted_mass(before.values)
            - dt * float(rate.sum())
        )

    def run(self, init: InitialData, T, dt, snapshot_stride=1):
        """Backward-Euler/explicit stepping to T; returns snapshot states.

        The factored implicit matrices are dropped on return.
        """
        stored = snapshot_steps(T, dt, snapshot_stride)
        state = self.initial_state(init)
        snaps = [state]
        try:
            for n in range(1, stored[-1] + 1):
                state = self.step(state, dt)
                if n == stored[len(snaps)]:
                    snaps.append(state)
        finally:
            self._implicit.clear()
        return snaps


class MicroSimulation(ImexSimulation):
    """Holds the assembled operator plus precomputed kinetics positions."""

    factorization = linsolve.OpeningCapacitance

    def __init__(self, geom, grid, diff, kin: KineticsBundle):
        super().__init__(geom.cell, grid.k, kin)
        self.geom = geom
        self.grid = grid
        self.diff = diff

        stiffness, self.weights = assemble_micro_operator(geom, grid, diff)

        eps = float(geom.eps)
        self.mask_p = grid.cell_tag == BULK_P
        self.mask_m = grid.cell_tag == BULK_M
        self.mask_c = grid.cell_tag == CHAN
        # bulk cells by grid column, channel cells by channel (-1 - column // k)
        self.blocks = np.where(self.mask_c, -1 - grid.cell_i // grid.k, grid.cell_i)
        self.stiffness = linsolve.SparseMatrix(stiffness, self.factorization, self.blocks)
        chan, walls = self.mask_c, wall_faces(grid)
        self._map_rates(self.mask_p, self.mask_m, chan,
                        (np.mod(grid.cell_x[chan] / eps, 1.0), grid.cell_y[chan] / eps),
                        walls, walls.cells, walls.length)

    # own entry: perfbench's tracer wraps each simulator's `__dict__["explicit_rate"]`
    explicit_rate = ImexSimulation.explicit_rate

    def step(self, state: MicroState, dt) -> MicroState:
        x = self._advance(state.t, state.values, dt)
        return MicroState(t=state.t + dt, u=Field(self.grid, x))

    def initial_state(self, init: InitialData, dt=None) -> MicroState:
        """The state at t = 0; `dt` is unused, accepted so `initial_state(init, dt)` works."""
        g = self.grid
        eps = float(self.geom.eps)
        vals = np.empty(g.n_cells)
        vals[self.mask_p] = init.u_plus(g.cell_x[self.mask_p], g.cell_y[self.mask_p])
        vals[self.mask_m] = init.u_minus(g.cell_x[self.mask_m], g.cell_y[self.mask_m])
        xc = g.cell_x[self.mask_c]
        vals[self.mask_c] = init.u_channel(xc, np.mod(xc / eps, 1.0), g.cell_y[self.mask_c] / eps)
        return MicroState(t=0.0, u=Field(g, vals))
