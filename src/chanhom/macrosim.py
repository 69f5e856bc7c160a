"""Limit model: bulk diffusion on both half-domains coupled through
per-interface-node cell problems on the reference channel.

Unknowns per implicit step: the two bulk fields, one trace value per side
and interface node, and one reference-cell field per node.  The trace
values tie the bulk half-cell flux to the integrated cell-problem boundary
flux on the corresponding side; they carry no accumulation term, so their
rows are discrete per-side flux balances.  Summing the two sides gives the
jump of the bulk normal fluxes across the interface.  The whole system is
assembled once, symmetric positive definite, and solved monolithically.

Grouped by interface node (its bulk columns, traces and cell problem), the
implicit operator is one block A0 repeated along the interface plus the
bulk grids' horizontal faces, which couple each node to its neighbours by
-diag(c): the diffusivities do not depend on the position along the
interface, its partition is uniform and the kinetics are explicit.  So the
solve runs mode by mode in cosine modes along the interface
(`linsolve.CosineModes`), whose construction reads the first node's rows of
the assembled matrix and shows with one probe solve that it inverts the
whole of it.
"""

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .geometry import CellGeometry
from .grid import build_bulk_grid, build_cell_grid, boundary_row_faces, wall_faces
from .kinetics import InitialData
from .microsim import (
    DiffusionSpec,
    ImexSimulation,
    KineticsBundle,
    channel_tensor,
    two_point_stiffness,
)


@dataclass(frozen=True)
class InterfaceLayout:
    """Uniform interface partition and the shared reference-cell refinement."""

    n_sigma: int
    m: int

    @property
    def spacing(self) -> float:
        return 1.0 / self.n_sigma

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_sigma) + 0.5) * self.spacing


@dataclass
class MacroState:
    t: float
    u: np.ndarray
    sim: "MacroSimulation"

    @property
    def values(self) -> np.ndarray:
        return self.u

    @property
    def bulk_plus(self) -> np.ndarray:
        return self.u[: self.sim.nbp]

    @property
    def bulk_minus(self) -> np.ndarray:
        return self.u[self.sim.nbp : self.sim.nbp + self.sim.nbm]

    @property
    def v_plus(self) -> np.ndarray:
        return self.u[self.sim.ovp : self.sim.ovp + self.sim.n_sigma]

    @property
    def v_minus(self) -> np.ndarray:
        return self.u[self.sim.ovm : self.sim.ovm + self.sim.n_sigma]

    @property
    def cells(self) -> np.ndarray:
        """(n_sigma, cell unknowns) block of reference-cell fields."""
        return self.u[self.sim.oc :].reshape(self.sim.n_sigma, self.sim.ncc)


class MacroSimulation(ImexSimulation):
    def __init__(self, cell: CellGeometry, H, layout: InterfaceLayout,
                 diff: DiffusionSpec, kin: KineticsBundle):
        super().__init__(cell, layout.m, kin)
        self.layout = layout
        self.diff = diff

        self.cell_grid = build_cell_grid(cell, layout.m)
        self.grid_p = build_bulk_grid("+", H, layout.n_sigma)
        self.grid_m = build_bulk_grid("-", H, layout.n_sigma)

        self.n_sigma = layout.n_sigma
        self.nbp = self.grid_p.n_cells
        self.nbm = self.grid_m.n_cells
        self.ncc = self.cell_grid.n_cells
        self.ovp = self.nbp + self.nbm
        self.ovm = self.ovp + self.n_sigma
        self.oc = self.ovm + self.n_sigma
        self.n = self.oc + self.n_sigma * self.ncc

        self._build_coupling_data()
        # one block per interface node: its bulk columns, traces and cell problem
        nodes = np.arange(self.n_sigma)
        self.stiffness = linsolve.SparseMatrix(
            self._assemble_stiffness(), linsolve.CosineModes,
            np.concatenate([self.grid_p.cell_i, self.grid_m.cell_i, nodes, nodes,
                            np.repeat(nodes, self.ncc)]))
        self.weights = self._assemble_weights()
        cg, walls = self.cell_grid, wall_faces(self.cell_grid)
        self._map_rates(slice(0, self.nbp), slice(self.nbp, self.ovp), slice(self.oc, self.n),
                        (np.tile(cg.cell_x, self.n_sigma), np.tile(cg.cell_y, self.n_sigma)),
                        walls, self.oc + nodes[:, None] * self.ncc + walls.cells,
                        layout.spacing * walls.length)

    # -- assembly -----------------------------------------------------------

    def _build_coupling_data(self):
        cg = self.cell_grid
        # the channel tensor enters the cell problems unscaled
        d = self.cell_diff = channel_tensor(self.cell.profile, cg.cell_y, self.diff)
        self.top_cells, top_len = boundary_row_faces(cg, "+")
        self.bot_cells, bot_len = boundary_row_faces(cg, "-")
        self.top_coef = top_len * d[self.top_cells, 1] / (0.5 * cg.dy[-1])
        self.bot_coef = bot_len * d[self.bot_cells, 1] / (0.5 * cg.dy[0])

        # bulk cells adjacent to the interface, one per node
        self.adj_p = self.grid_p.index[:, 0]
        self.adj_m = self.grid_m.index[:, -1]
        self.half_p = 0.5 * self.grid_p.dy[0]
        self.half_m = 0.5 * self.grid_m.dy[-1]

    def _assemble_stiffness(self) -> linsolve.CSR:
        dsig = self.layout.spacing
        bulk_p = two_point_stiffness(self.grid_p, 1.0, self.diff.d_plus)
        bulk_m = [(self.nbp + a, self.nbp + b, t)
                  for a, b, t in two_point_stiffness(self.grid_m, 1.0, self.diff.d_minus)]
        # one reference-cell stiffness, replicated per node with dsig weight:
        # (n_sigma, faces) arrays, one row per node
        nodes = np.arange(self.n_sigma)[:, None]
        off = self.oc + nodes * self.ncc
        cells = [(off + a, off + b, t)
                 for a, b, t in two_point_stiffness(self.cell_grid, self.cell_diff, dsig)]

        # (n_sigma, pairs) arrays: the adjacent bulk cell <-> trace pair of each
        # side, then the cell <-> trace pairs (Dirichlet rows of the cell
        # problem) along its top and its bottom boundary row
        n_top, n_bot = len(self.top_cells), len(self.bot_cells)
        near = np.hstack([self.adj_p[:, None], self.nbp + self.adj_m[:, None],
                          off + self.top_cells, off + self.bot_cells])
        trace = nodes + np.repeat([self.ovp, self.ovm, self.ovp, self.ovm], [1, 1, n_top, n_bot])
        coef = np.hstack([
            (self.grid_p.dx * self.diff.d_plus / self.half_p)[:, None],
            (self.grid_m.dx * self.diff.d_minus / self.half_m)[:, None],
            np.broadcast_to(dsig * self.top_coef, (self.n_sigma, n_top)),
            np.broadcast_to(dsig * self.bot_coef, (self.n_sigma, n_bot)),
        ])

        # the part order fixes each diagonal's summation order, which matters only
        # among parts that share an unknown: a node's cell faces before its trace
        # pairs, and every bulk face before the trace pairs
        return linsolve.laplacian([*bulk_p, *bulk_m, *cells, (near, trace, coef)], self.n)

    def _assemble_weights(self) -> np.ndarray:
        w = np.zeros(self.n)
        w[: self.nbp] = self.grid_p.cell_vol
        w[self.nbp : self.ovp] = self.grid_m.cell_vol
        w[self.oc :] = np.tile(self.layout.spacing * self.cell_grid.cell_vol, self.n_sigma)
        return w

    # -- stepping -----------------------------------------------------------

    # own entry: perfbench's tracer wraps each simulator's `__dict__["explicit_rate"]`
    explicit_rate = ImexSimulation.explicit_rate

    def step(self, state: MacroState, dt) -> MacroState:
        return MacroState(t=state.t + dt, u=self._advance(state.t, state.u, dt), sim=self)

    def initial_state(self, init: InitialData, dt=None) -> MacroState:
        """The state at t = 0; `dt` is unused, accepted so `initial_state(init, dt)` works."""
        u = np.zeros(self.n)
        gp, gm, cg = self.grid_p, self.grid_m, self.cell_grid
        u[: self.nbp] = init.u_plus(gp.cell_x, gp.cell_y)
        u[self.nbp : self.ovp] = init.u_minus(gm.cell_x, gm.cell_y)
        nodes = self.layout.nodes
        sp_mid = 0.5 * float(self.cell.s_plus[0] + self.cell.s_plus[1])
        sm_mid = 0.5 * float(self.cell.s_minus[0] + self.cell.s_minus[1])
        u[self.ovp : self.ovm] = init.u_channel(nodes, sp_mid, 1.0)
        u[self.ovm : self.oc] = init.u_channel(nodes, sm_mid, -1.0)
        u[self.oc :].reshape(self.n_sigma, self.ncc)[:] = init.u_channel(
            nodes[:, None], cg.cell_x, cg.cell_y
        )
        return MacroState(t=0.0, u=u, sim=self)

    # -- interface quantities ------------------------------------------------

    def cell_flux(self, state: MacroState):
        """Per-node outward boundary flux of the cell problems on each side."""
        cells = state.cells
        fp = (self.top_coef[None, :] * (state.v_plus[:, None] - cells[:, self.top_cells])).sum(1)
        fm = (self.bot_coef[None, :] * (state.v_minus[:, None] - cells[:, self.bot_cells])).sum(1)
        return fp, fm

    def flux_balance_residuals(self, state: MacroState):
        """Per-side |bulk half-cell flux - cell boundary flux| at every node."""
        fp, fm = self.cell_flux(state)
        bp = self.diff.d_plus * (state.bulk_plus[self.adj_p] - state.v_plus) / self.half_p
        bm = self.diff.d_minus * (state.bulk_minus[self.adj_m] - state.v_minus) / self.half_m
        return np.abs(bp - fp), np.abs(bm - fm)

    def steady_conduction(self, top_value, bottom_value):
        """Dirichlet override at x_n = +H / -H, zero kinetics, direct steady solve.

        Harness-level oracle hook, not part of the transport model.
        """
        gp, gm = self.grid_p, self.grid_m
        jtop = gp.shape[1] - 1
        rows = np.concatenate([gp.index[:, jtop], self.nbp + gm.index[:, 0]])
        t = np.concatenate([gp.dx * self.diff.d_plus / (0.5 * gp.dy[jtop]),
                            gm.dx * self.diff.d_minus / (0.5 * gm.dy[0])])
        rhs = np.zeros(self.n)
        rhs[rows] += t * np.repeat([top_value, bottom_value], self.n_sigma)
        dirichlet = np.zeros(self.n)
        dirichlet[rows] = t
        x = linsolve.solve_spd(self.stiffness.plus_diagonal(dirichlet), rhs)
        return MacroState(t=np.inf, u=x, sim=self)

