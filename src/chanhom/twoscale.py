"""Unfolding machinery and the micro-vs-limit error norms.

With the layer refinement equal to the reference-cell refinement, unfolding
is a pure permutation of channel cells: column by column, the channel block
of the micro grid is a scaled copy of the reference-cell grid.  All the
operator identities (scaled inner-product identity, boundary norm equality,
gradient commutation, adjointness of the averaging operator, round trip)
then hold at machine precision, which is what the verification suite
checks before trusting the error norms.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import BULK_M, BULK_P, CHAN, MicroGeometry
from .grid import (
    GradientQuadrature,
    RectGrid,
    chan_cell_indices,
    channel_index_matrix,
    l2_overlap_diff_sq,
    region_overlap,
    wall_faces,
)


@dataclass
class TwoScaleReport:
    """Per-epsilon error norms and diagnostics of one convergence study.

    trace_ratio (final-snapshot wall-trace bound, lhs/rhs) is kept on the
    object only; the CSV columns are the seven below.
    """

    eps: list
    e_chan: list
    e_bulk_plus: list
    e_bulk_minus: list
    e_wall: list
    apriori: list
    shift_ratio: list
    trace_ratio: list = field(default_factory=list)

    def rows(self):
        return zip(self.eps, self.e_chan, self.e_bulk_plus, self.e_bulk_minus, self.e_wall,
                   self.apriori, self.shift_ratio, strict=True)


class Unfolder:
    """Index maps between one micro grid and the matching reference-cell grid."""

    def __init__(self, geom: MicroGeometry, grid: RectGrid, cell_grid: RectGrid):
        if grid.k != cell_grid.k:
            raise ValueError(
                f"layer refinement {grid.k} != cell refinement {cell_grid.k}; "
                "unfolding needs index-aligned grids"
            )
        self.grid = grid
        self.cell_grid = cell_grid
        self.eps = float(geom.eps)

        self.columns = channel_index_matrix(grid)          # (ncol, nloc) micro cell ids
        self.chan_ids = chan_cell_indices(cell_grid)       # (nloc,) cell-grid ids
        self.cell_vol = cell_grid.cell_vol[self.chan_ids]  # reference volumes

        ref_walls = wall_faces(cell_grid)
        self.ref_wall_cells = ref_walls.cells[0]
        self.ref_wall_len = ref_walls.length[0]
        # every column is a copy of the reference cell, walls included
        pos = np.searchsorted(self.chan_ids, self.ref_wall_cells)
        self.micro_wall_cells = self.columns[:, pos]
        self.micro_wall_len = np.tile(self.eps * self.ref_wall_len, len(self.columns))

    # -- operators ----------------------------------------------------------

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """Exact remap of the channel cells' values to an (n_columns, n_local) array."""
        return values[self.columns]

    def unfold_boundary(self, trace: np.ndarray) -> np.ndarray:
        """Remap wall-face trace values to (column, reference wall face)."""
        trace = np.asarray(trace, dtype=float)
        n_faces = self.micro_wall_cells.size
        if trace.shape != (n_faces,):
            raise ValueError(f"expected {n_faces} wall trace values, got {trace.shape}")
        return trace.reshape(self.micro_wall_cells.shape)

    def wall_trace(self, values: np.ndarray) -> np.ndarray:
        """Piecewise-constant trace of per-cell values on the channel walls (adjacent cell)."""
        return values[self.micro_wall_cells.reshape(-1)]

    def average(self, phi: np.ndarray) -> np.ndarray:
        """Adjoint of unfold w.r.t. the scaled pairings: the inverse remap, 0 off the channel."""
        vals = np.zeros(self.grid.n_cells)
        vals[self.columns] = phi
        return vals

    # -- quadratures ---------------------------------------------------------

    def ts_inner(self, phi: np.ndarray, psi: np.ndarray) -> float:
        """Inner product on interface x reference cell (columns weigh eps)."""
        return float(self.eps * np.einsum("kc,kc,c->", phi, psi, self.cell_vol))

    def ts_norm(self, phi: np.ndarray) -> float:
        return float(np.sqrt(max(self.ts_inner(phi, phi), 0.0)))

    def wall_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Inner product on interface x reference wall (columns weigh eps)."""
        return float(self.eps * np.einsum("kf,kf,f->", a, b, self.ref_wall_len))

    def wall_norm_sq_micro(self, trace: np.ndarray) -> float:
        return float(np.dot(self.micro_wall_len, np.asarray(trace) ** 2))


# ---------------------------------------------------------------------------
# error norms against a limit-model trajectory

def _snapshot_times(states):
    return np.array([s.t for s in states])


def _trapezoid_weights(times):
    w = np.zeros(len(times))
    if len(times) == 1:
        return np.ones(1)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _check_times(micro_states, macro_states):
    tm = _snapshot_times(micro_states)
    tM = _snapshot_times(macro_states)
    if len(tm) != len(tM) or np.max(np.abs(tm - tM)) > 1e-9:
        raise ValueError("micro and macro snapshots are at different times")
    return tm


def ts_error(micro_states, macro_states, unfolder: Unfolder, macro_sim):
    """Time-integrated error norms of one micro run against the limit run.

    Channel and wall errors compare the unfolded micro fields with the
    midpoint-sampled cell fields of the limit model; bulk errors compare the
    zero-extended micro bulk fields with the limit bulk fields on the common
    grid refinement.
    """
    times = _check_times(micro_states, macro_states)
    tw = _trapezoid_weights(times)
    eps = unfolder.eps
    nodes = macro_sim.layout.nodes
    dsig = macro_sim.layout.spacing
    # reference-cell field of the node covering each epsilon-column midpoint
    col_of_node = np.minimum((nodes / eps).astype(int), unfolder.columns.shape[0] - 1)

    chan_ids = unfolder.chan_ids
    vol = unfolder.cell_vol
    wall_cells_ref = unfolder.ref_wall_cells
    wall_len = unfolder.ref_wall_len

    e_chan_sq = e_wall_sq = e_bp_sq = e_bm_sq = 0.0
    gp, gm = macro_sim.grid_p, macro_sim.grid_m
    over_p = region_overlap(unfolder.grid, gp, BULK_P)
    over_m = region_overlap(unfolder.grid, gm, BULK_M)

    for w, ms, Ms in zip(tw, micro_states, macro_states):
        cells = Ms.cells[:, chan_ids]
        diff = unfolder.unfold(ms.values)[col_of_node] - cells
        e_chan_sq += w * dsig * float(np.einsum("jc,jc,c->", diff, diff, vol))

        tr_micro = ms.values[unfolder.micro_wall_cells]
        tr_macro = Ms.cells[:, wall_cells_ref]
        dtr = tr_micro[col_of_node] - tr_macro
        e_wall_sq += w * dsig * float(np.einsum("jf,jf,f->", dtr, dtr, wall_len))

        e_bp_sq += w * l2_overlap_diff_sq(ms.values, Ms.bulk_plus, over_p)
        e_bm_sq += w * l2_overlap_diff_sq(ms.values, Ms.bulk_minus, over_m)

    return {
        "E_chan": float(np.sqrt(e_chan_sq)),
        "E_bulk_plus": float(np.sqrt(e_bp_sq)),
        "E_bulk_minus": float(np.sqrt(e_bm_sq)),
        "E_N": float(np.sqrt(e_wall_sq)),
    }


def apriori_norm(micro_states) -> float:
    """Discrete L2-in-time energy norm of a micro trajectory.

    Each snapshot counts with its energy norm squared: the weighted L2 norm
    plus the gradient energy, weighted 1 in the bulk and eps in the channel,
    of its values; the weights and gradient maps are built once for the
    trajectory's grid.
    """
    times = _snapshot_times(micro_states)
    tw = _trapezoid_weights(times)
    grid = micro_states[0].u.grid
    energy = GradientQuadrature(grid, np.ones(grid.n_cells, dtype=bool))
    region = np.where(grid.cell_tag == CHAN, grid.eps, 1.0)
    weight = grid.weight * grid.cell_vol  # the pairing of `inner_product_leps`

    def norm_heps(values):
        return float(np.sqrt(max(float(np.dot(weight, values * values))
                                 + energy(values, region), 0.0)))

    total = sum(w * norm_heps(s.values) ** 2 for w, s in zip(tw, micro_states))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# shift diagnostic

def _first(test, estimate, lo, hi) -> int:
    """Least c in [lo, hi) with test(c), else hi, for a test False below some c, True above."""
    c = int(min(max(estimate, lo), hi))
    while c > lo and test(c - 1):
        c -= 1
    while c < hi and not test(c):
        c += 1
    return c


def margin_columns(geom: MicroGeometry, margin: float, shift: int) -> range:
    """Columns whose cell lies inside the interior margin, shift staying in-domain: both end
    tests are monotone in the column, so the columns are one range, found in O(1)."""
    eps, n = float(geom.eps), geom.n_columns
    lo, hi = max(0, -shift), max(0, -shift, min(n, n - shift))  # 0 <= c + shift < n
    start = _first(lambda c: c * eps >= margin - 1e-12, (margin - 1e-12) / eps, lo, hi)
    stop = _first(lambda c: not (c + 1) * eps <= 1.0 - margin + 1e-12,
                  (1.0 - margin + 1e-12) / eps - 1, start, hi)
    return range(start, stop)


def shift_diagnostic(micro_states, geom: MicroGeometry, grid: RectGrid, l: int, h: float):
    """Ratio of the shifted-solution energy to its expected bound.

    The left side collects the scaled channel norms of u(. + eps*l) - u over
    the interior margin 2h; the right side is eps plus the initial shifted
    norm on margin h plus the bulk shifted norms.  Both follow the discrete
    analogue of the interior shift estimate; the ratio is meaningful (order
    one) when eps*l is small against h, but is computed whenever the margin
    sets are nonempty and the shifted cells stay inside the domain.

    On the tiled layer a shift by l periods is a permutation of cells: channel
    cell columns[c, loc] moves to columns[c + l, loc], bulk cell (i, j) to
    index[i + l*k, j].
    """
    eps = float(geom.eps)
    cols_lhs = margin_columns(geom, 2 * h, l)
    if not cols_lhs:
        raise ValueError("interior margin 2h leaves no complete column")
    cols_rhs = margin_columns(geom, h, l)
    cols = np.union1d(cols_lhs, cols_rhs)

    columns = channel_index_matrix(grid)
    chan_lhs = columns[cols_lhs].reshape(-1)
    chan_rhs = columns[cols_rhs].reshape(-1)
    # the centre test keeps i + l*k a grid row; bulk rows hold no void cell
    in_sigma_h = (grid.cell_x >= h) & (grid.cell_x <= 1.0 - h) & (
        grid.cell_x + eps * l >= 0.0
    ) & (grid.cell_x + eps * l <= 1.0)
    bulk_p = np.flatnonzero((grid.cell_tag == BULK_P) & in_sigma_h)
    bulk_m = np.flatnonzero((grid.cell_tag == BULK_M) & in_sigma_h)
    bulk = np.concatenate([bulk_p, bulk_m])
    src = np.concatenate([columns[cols].reshape(-1), bulk])
    dst = np.concatenate([columns[cols + l].reshape(-1),
                          grid.index[grid.cell_i[bulk] + l * grid.k, grid.cell_j[bulk]]])

    # the gradient maps read only faces between two chan_lhs cells, so d may
    # stay zero outside src
    valid = np.zeros(grid.n_cells, dtype=bool)
    valid[chan_lhs] = True
    energy = GradientQuadrature(grid, valid)
    vol = grid.cell_vol
    d = np.zeros(grid.n_cells)
    tw = _trapezoid_weights(_snapshot_times(micro_states))

    sup_l2 = grad_sq = bulk_sq = init_sq = 0.0
    for n, s in enumerate(micro_states):  # zip inside enumerate would keep a third state
        w = tw[n]
        d[src] = s.values[dst] - s.values[src]
        sup_l2 = max(sup_l2, float(np.dot(vol[chan_lhs], d[chan_lhs] ** 2)))
        grad_sq += w * energy(d, 1.0)
        b = float(np.dot(vol[bulk_p], d[bulk_p] ** 2)) + float(np.dot(vol[bulk_m], d[bulk_m] ** 2))
        bulk_sq += w * b
        if n == 0:
            init_sq = b + float(np.dot(vol[chan_rhs], d[chan_rhs] ** 2)) / eps
    lhs = np.sqrt(sup_l2 / eps) + np.sqrt(eps * grad_sq)
    rhs = eps + np.sqrt(init_sq) + np.sqrt(bulk_sq)
    return float(lhs / rhs), float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# trace inequality diagnostic

def _low_frequency_basis(cell_grid: RectGrid):
    """Tensor cosine basis, 4 modes in ybar by 5 in y_n, on the reference channel cells."""
    ids = chan_cell_indices(cell_grid)
    yb = cell_grid.cell_x[ids]
    yn = cell_grid.cell_y[ids]
    cols = []
    for a in range(4):
        for b in range(5):
            cols.append(np.cos(a * np.pi * yb) * np.cos(b * np.pi * 0.5 * (yn + 1.0)))
    return np.stack(cols, axis=1), ids


def calibrate_trace_constant(cell_grid: RectGrid) -> float:
    """Largest trace-to-volume norm ratio over the span of the cosine basis.

    The gradient term of the inequality is dropped in the calibration, which
    only makes the certified constant larger; the theta-weighted gradient
    term still appears on the reported right-hand side.  On coarse grids the
    sampled basis is rank deficient; combinations vanishing in volume also
    have zero wall trace (the trace is a cell value), so restricting to the
    non-degenerate subspace keeps the certificate valid for the whole span.
    """
    basis, ids = _low_frequency_basis(cell_grid)
    vol = cell_grid.cell_vol[ids]
    walls = wall_faces(cell_grid)
    wall_len = walls.length[0]
    wall_rows = np.searchsorted(ids, walls.cells[0])

    gram_vol = basis.T @ (vol[:, None] * basis)
    tb = basis[wall_rows]
    gram_tr = tb.T @ (wall_len[:, None] * tb)
    s, U = np.linalg.eigh(gram_vol)
    keep = s > 1e-10 * s.max()
    reduce = U[:, keep] / np.sqrt(s[keep])
    lam = np.linalg.eigvalsh(reduce.T @ gram_tr @ reduce)
    return float(np.sqrt(max(lam.max(), 0.0)))


def trace_inequality_diagnostic(values, theta: float, unfolder: Unfolder, constant):
    """Both sides of the scaled wall-trace inequality for per-cell values on the
    unfolder's grid, with the trace constant of `calibrate_trace_constant`."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    grid = unfolder.grid
    eps = unfolder.eps
    lhs = float(np.sqrt(unfolder.wall_norm_sq_micro(unfolder.wall_trace(values))))
    chan = grid.cell_tag == CHAN
    l2 = float(np.sqrt(np.dot(grid.cell_vol[chan], values[chan] ** 2)))
    grad = np.sqrt(GradientQuadrature(grid, chan)(values, 1.0))
    rhs = constant / np.sqrt(eps) * l2 + theta * np.sqrt(eps) * grad
    return lhs, float(rhs)
