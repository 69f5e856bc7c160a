"""Aligned rectilinear grids and the scaled discrete inner products.

All grids are tensor products of 1D edge arrays with a per-cell region tag
(bulk above / bulk below / channel / void).  Non-void cells carry the
unknowns, numbered row-major in (i, j).  Channel walls always coincide with
grid faces; construction rejects refinements that would put a wall inside a
cell.

The weighted inner product matches the scaling of the transport problem:
bulk cells count with weight 1, channel cells with weight 1/eps.  The
energy norm adds face-reconstructed gradients, weighted 1 in the bulk and
eps in the channel.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AlignmentError
from .geometry import BULK_M, BULK_P, CHAN, VOID, CellGeometry, MicroGeometry

GRADING_RATIO = 1.2


@dataclass
class FaceSet:
    """Interior faces along one axis: cells a, b, face length, center-to-face distances."""

    a: np.ndarray
    b: np.ndarray
    length: np.ndarray
    dist_a: np.ndarray
    dist_b: np.ndarray
    axis: int


@dataclass(frozen=True)
class Walls:
    """Faces between channel and void cells, column by column in lattice-key order.

    Every column of the layer is a copy of the reference column, so the key
    and the reference-cell coordinates of a face are shared by all columns.
    """

    cells: np.ndarray   # (n_columns, n_faces) adjacent channel cell
    length: np.ndarray  # (n_columns, n_faces) face length on this grid
    local: np.ndarray   # (n_faces, 2) reference-cell (ybar, y_n) of the midpoint
    key: np.ndarray     # (n_faces, 4) (axis, sgn, 2k ybar, 2k (y_n + 1)), sorted


class RectGrid:
    """Tensor-product grid with region tags and cached face/cell data."""

    def __init__(self, x_edges, y_edges, tag, eps=None, layer_refinement=None):
        self.x = np.asarray(x_edges, dtype=float)
        self.y = np.asarray(y_edges, dtype=float)
        self.tag = np.asarray(tag, dtype=np.int8)
        self.eps = None if eps is None else float(eps)
        self.k = layer_refinement
        nx, ny = self.tag.shape
        if self.x.shape != (nx + 1,) or self.y.shape != (ny + 1,):
            raise ValueError("tag shape inconsistent with edge arrays")

        self.dx = np.diff(self.x)
        self.dy = np.diff(self.y)
        if np.any(self.dx <= 0) or np.any(self.dy <= 0):
            raise ValueError("edge coordinates must be strictly increasing")
        self.xc = 0.5 * (self.x[:-1] + self.x[1:])
        self.yc = 0.5 * (self.y[:-1] + self.y[1:])

        self.index = -np.ones((nx, ny), dtype=np.int64)
        live = self.tag != VOID
        self.index[live] = np.arange(int(live.sum()))
        self.n_cells = int(live.sum())

        ii, jj = np.nonzero(live)
        self.cell_i = ii
        self.cell_j = jj
        self.cell_tag = self.tag[ii, jj]
        self.cell_x = self.xc[ii]
        self.cell_y = self.yc[jj]
        self.cell_vol = self.dx[ii] * self.dy[jj]

        self.weight = np.where(self.cell_tag == CHAN, 1.0 / self.eps if self.eps else 1.0, 1.0)
        self.faces = (self._build_faces(0), self._build_faces(1))

        # immutable after construction; fields are the only mutable carriers
        for arr in (self.x, self.y, self.tag, self.index, self.dx, self.dy, self.xc,
                    self.yc, self.cell_i, self.cell_j, self.cell_tag, self.cell_x,
                    self.cell_y, self.cell_vol, self.weight):
            arr.setflags(write=False)

    @property
    def shape(self):
        return self.tag.shape

    def _build_faces(self, axis) -> FaceSet:
        if axis == 0:
            ta, tb = self.tag[:-1, :], self.tag[1:, :]
            mask = (ta != VOID) & (tb != VOID)
            ia, ja = np.nonzero(mask)
            a = self.index[ia, ja]
            b = self.index[ia + 1, ja]
            length = self.dy[ja]
            dist_a = 0.5 * self.dx[ia]
            dist_b = 0.5 * self.dx[ia + 1]
        else:
            ta, tb = self.tag[:, :-1], self.tag[:, 1:]
            mask = (ta != VOID) & (tb != VOID)
            ia, ja = np.nonzero(mask)
            a = self.index[ia, ja]
            b = self.index[ia, ja + 1]
            length = self.dx[ia]
            dist_a = 0.5 * self.dy[ja]
            dist_b = 0.5 * self.dy[ja + 1]
        return FaceSet(a=a, b=b, length=length, dist_a=dist_a, dist_b=dist_b, axis=axis)

    def cells_dense(self, values, fill=0.0):
        """Scatter a per-cell vector to the dense (nx, ny) layout."""
        out = np.full(self.shape, fill, dtype=float)
        out[self.cell_i, self.cell_j] = values
        return out


@dataclass
class Field:
    """Per-cell values on a grid at one instant."""

    grid: RectGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field needs {self.grid.n_cells} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @staticmethod
    def constant(grid, value) -> "Field":
        return Field(grid, np.full(grid.n_cells, float(value)))


def graded_edges(start, stop, h0):
    """Edges from start to stop, first spacing h0, growing by at most GRADING_RATIO."""
    span = float(stop) - float(start)
    if span <= 0:
        raise ValueError("empty interval")
    rel = [0.0]
    h = float(h0)
    while span - rel[-1] > GRADING_RATIO * h * (1 + 1e-12):
        rel.append(rel[-1] + h)
        h *= GRADING_RATIO
    rel.append(span)
    return float(start) + np.asarray(rel)


def _check_alignment(cell: CellGeometry, k: int):
    if k <= 0:
        raise AlignmentError("refinement must be a positive integer")
    offenders = []
    for (lo, hi), w in cell.profile.segments:
        for val, name in (
            ((1 - w) * Fraction(1, 2), "wall offset"),
            (lo, "breakpoint"),
            (hi, "breakpoint"),
        ):
            if (val * k).denominator != 1:
                offenders.append(f"{name} {val} not a multiple of 1/{k}")
    if offenders:
        raise AlignmentError("; ".join(offenders))


def _reference_edges(k: int):
    """Edges of the reference cell Z = (0,1) x (-1,1) at spacing 1/k."""
    return np.arange(k + 1) / k, np.arange(2 * k + 1) / k - 1.0


def _layer_tags(cell: CellGeometry, k: int, n_columns: int):
    """CHAN/VOID tags for the 2k layer rows of every column (alignment assumed)."""
    ybar = (np.arange(k) + 0.5) / k
    y_n = (np.arange(2 * k) + 0.5) / k - 1.0
    block = np.full((k, 2 * k), VOID, dtype=np.int8)
    for x0, x1, y0, y1 in cell.rectangles:
        inside_x = (float(x0) < ybar) & (ybar < float(x1))
        inside_y = (float(y0) < y_n) & (y_n < float(y1))
        block[np.ix_(inside_x, inside_y)] = CHAN
    return np.tile(block, (n_columns, 1))


def build_cell_grid(cell: CellGeometry, m: int) -> RectGrid:
    """Uniform grid of spacing 1/m on the reference cell Z = (0,1) x (-1,1)."""
    _check_alignment(cell, m)
    x, y = _reference_edges(m)
    tag = _layer_tags(cell, m, 1)
    return RectGrid(x, y, tag, eps=None, layer_refinement=m)


def build_micro_grid(geom: MicroGeometry, k: int) -> RectGrid:
    """Grid over Omega resolving the layer at spacing eps/k, graded in the bulk."""
    _check_alignment(geom.cell, k)
    eps = float(geom.eps)
    H = float(geom.H)
    ncol = geom.n_columns
    h = eps / k

    x = np.arange(ncol * k + 1) * h
    y_layer = np.arange(2 * k + 1) * h - eps
    y_up = graded_edges(eps, H, h)
    y_dn = -graded_edges(eps, H, h)[::-1]
    y = np.concatenate([y_dn[:-1], y_layer, y_up[1:]])

    n_dn = len(y_dn) - 1
    n_lay = 2 * k
    n_up = len(y_up) - 1
    tag = np.empty((ncol * k, n_dn + n_lay + n_up), dtype=np.int8)
    tag[:, :n_dn] = BULK_M
    tag[:, n_dn + n_lay:] = BULK_P
    tag[:, n_dn:n_dn + n_lay] = _layer_tags(geom.cell, k, ncol)
    return RectGrid(x, y, tag, eps=eps, layer_refinement=k)


def build_bulk_grid(side: str, H, n_sigma: int) -> RectGrid:
    """Macro bulk grid on (0,1) x (0,H) or (0,1) x (-H,0), fine near the interface."""
    H = float(H)
    h = 1.0 / n_sigma
    x = np.arange(n_sigma + 1) * h
    if side == "+":
        y = graded_edges(0.0, H, h)
        tag = np.full((n_sigma, len(y) - 1), BULK_P, dtype=np.int8)
    elif side == "-":
        y = -graded_edges(0.0, H, h)[::-1]
        tag = np.full((n_sigma, len(y) - 1), BULK_M, dtype=np.int8)
    else:
        raise ValueError("side must be '+' or '-'")
    return RectGrid(x, y, tag)


# ---------------------------------------------------------------------------
# scaled inner products and norms

def inner_product_leps(u: Field, v: Field) -> float:
    """Weighted L2 pairing: bulk weight 1, channel weight 1/eps."""
    if u.grid is not v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    return float(np.dot(g.weight * g.cell_vol, u.values * v.values))


def norm_leps(u: Field) -> float:
    return float(np.sqrt(max(inner_product_leps(u, u), 0.0)))


class GradientQuadrature:
    """Face-reconstructed cell gradients on the cells of `valid`, face maps built once.

    Per axis, a cell averages the differences of its faces whose two cells
    are both valid; faces touching an invalid cell are skipped.  A cell is
    the lower cell `a` of at most one face per axis and the upper cell `b` of
    at most one, so per kept cell the maps hold the slot of each face in the
    axis' vector of face differences, slot 0 holding a zero.  A call sums
    0 + t_a + t_b per cell, in the order of accumulating face by face from
    zero, and gives the same bits.  `cells` indexes the kept cells in cell
    order; `valid=None` keeps every cell (`cells` is then a full slice) and
    reads the grid's face arrays in place.
    """

    def __init__(self, grid: RectGrid, valid=None):
        if valid is None:
            self.cells = slice(None)
            self.vol = grid.cell_vol
            pos = None
            n = grid.n_cells
        else:
            self.cells = np.flatnonzero(valid)
            self.vol = grid.cell_vol[self.cells]
            n = len(self.cells)
            pos = np.full(grid.n_cells, -1)
            pos[self.cells] = np.arange(n)
        self.axes = []
        for fs in grid.faces:
            a, b, span = fs.a, fs.b, fs.dist_a + fs.dist_b
            if valid is not None:
                keep = valid[a] & valid[b]
                a, b, span = a[keep], b[keep], span[keep]
            slots = np.arange(1, len(a) + 1)
            slot_a, slot_b = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
            slot_a[a if pos is None else pos[a]] = slots
            slot_b[b if pos is None else pos[b]] = slots
            scale = 1.0 / np.maximum((slot_a > 0).astype(float) + (slot_b > 0), 1.0)
            self.axes.append((a, b, span, slot_a, slot_b, scale))

    def components(self, values):
        """(d/dx, d/dy) of the kept cells, in cell order."""
        values = np.asarray(values, dtype=float)
        out = []
        for a, b, span, slot_a, slot_b, scale in self.axes:
            t = np.empty(len(a) + 1)
            t[0] = 0.0
            np.subtract(values[b], values[a], out=t[1:])
            t[1:] /= span
            t += 0.0  # a -0.0 difference counts as 0 + (-0.0) = +0.0, as it does from zero
            out.append((t[slot_a] + t[slot_b]) * scale)
        return out

    def __call__(self, values, region_weight) -> float:
        """Sum of |grad u|^2 * vol * w(region) over the kept cells."""
        gx, gy = self.components(values)
        if np.ndim(region_weight):
            region_weight = np.asarray(region_weight)[self.cells]
        return float((self.vol * (gx ** 2 + gy ** 2) * region_weight).sum())


def cell_gradients(grid: RectGrid, values, valid=None):
    """Per-cell gradient, averaging the face differences available in each axis.

    `valid` masks cells; faces touching an invalid cell are skipped, and an
    invalid cell reads 0.
    """
    quad = GradientQuadrature(grid, valid)
    grad = np.zeros((grid.n_cells, 2))
    grad[quad.cells] = np.stack(quad.components(values), axis=1)
    return grad


def gradient_quadrature(grid: RectGrid, values, region_weight, valid=None) -> float:
    """Sum of |grad u|^2 * vol * w(region) over (masked) cells."""
    return GradientQuadrature(grid, valid)(values, region_weight)


def heps_region_weights(grid: RectGrid):
    """Gradient weights of the energy norm: 1 in the bulk, eps in the channel."""
    if grid.eps is None:
        raise ValueError("energy norm needs a micro grid (eps set)")
    return np.where(grid.cell_tag == CHAN, grid.eps, 1.0)


def norm_heps(u: Field) -> float:
    """sqrt of |u|_{weighted L2}^2 + bulk gradient energy + eps * channel gradient energy."""
    g = u.grid
    sq = inner_product_leps(u, u) + gradient_quadrature(g, u.values, heps_region_weights(g))
    return float(np.sqrt(max(sq, 0.0)))


# ---------------------------------------------------------------------------
# unfolding index plumbing

def _reference_column(grid: RectGrid):
    """(first layer row, tags of the first column) of a micro or reference-cell grid.

    The layer is this column tiled across the grid: every column holds the
    same tags, so index maps found on it hold in every column after an
    offset of k cells in x.
    """
    k = grid.k
    if k is None:
        raise ValueError("grid carries no layer refinement")
    half = 1.0 if grid.eps is None else grid.eps  # the layer is |x_n| < eps, |y_n| < 1
    j0 = int(np.argmin(np.abs(grid.y + half)))
    return j0, grid.tag[:k, j0:j0 + 2 * k]


def _tiled(grid: RectGrid, j0, i_loc, j_loc):
    """Grid rows (n_columns, n) and layer rows (n,) of local cells in every column."""
    starts = np.arange(grid.shape[0] // grid.k)[:, None] * grid.k
    return starts + i_loc, j0 + j_loc


def channel_index_matrix(grid: RectGrid) -> np.ndarray:
    """(n_columns, n_local) cell indices of channel cells, local order (i, j)."""
    j0, block = _reference_column(grid)
    return grid.index[_tiled(grid, j0, *np.nonzero(block == CHAN))]


def chan_cell_indices(cell_grid: RectGrid) -> np.ndarray:
    """Channel cell indices of a reference-cell grid in local order (i, j)."""
    return channel_index_matrix(cell_grid)[0]


def _half_lattice(edges):
    """Edges and cell midpoints interleaved: entry n lies n half-spacings in."""
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def wall_faces(grid: RectGrid) -> Walls:
    """Faces between channel and void cells of a micro or reference-cell grid.

    The faces of the reference column are found once, keyed on the
    half-spacing lattice of the reference cell, and offset to every column.
    Faces on the top and bottom rows of the layer are channel openings, not
    wall.
    """
    k = grid.k
    j0, block = _reference_column(grid)
    outside = np.pad(block, 1, constant_values=CHAN)
    parts = []
    for axis in (0, 1):
        for sgn in (-1, 1):
            di, dj = (sgn, 0) if axis == 0 else (0, sgn)
            beside = outside[1 + di:k + 1 + di, 1 + dj:2 * k + 1 + dj]
            # row-major (i, j) order is the key order within one (axis, sgn)
            i, j = np.nonzero((block == CHAN) & (beside == VOID))
            parts.append(np.stack([i, j, np.full_like(i, axis), np.full_like(i, sgn),
                                   2 * i + 1 + di, 2 * j + 1 + dj], axis=1))
    faces = np.concatenate(parts)
    key = faces[:, 2:]
    x_ref, y_ref = _reference_edges(k)  # bit for bit the reference-cell grid's coordinates
    local = np.stack([_half_lattice(x_ref)[key[:, 2]], _half_lattice(y_ref)[key[:, 3]]], axis=1)
    gi, gj = _tiled(grid, j0, faces[:, 0], faces[:, 1])
    return Walls(cells=grid.index[gi, gj],
                 length=np.where(key[:, 0] == 0, grid.dy[gj], grid.dx[gi]),
                 local=local, key=key)


def boundary_row_faces(grid: RectGrid, side: str):
    """Channel cells of a reference-cell grid on y_n = +1 ('+') or y_n = -1 ('-').

    Returns (cell indices, face lengths) in i order.
    """
    j = grid.shape[1] - 1 if side == "+" else 0
    i = np.flatnonzero(grid.tag[:, j] == CHAN)
    return grid.index[i, j], grid.dx[i]


# ---------------------------------------------------------------------------
# cross-grid comparison by interval overlap

def _axis_overlaps(edges_a, edges_b):
    """Overlapping cell pairs of two 1D edge arrays, in order, with their lengths.

    Every piece between consecutive breakpoints of the common extent lies in
    exactly one cell of each array.
    """
    cuts = np.union1d(edges_a, edges_b)
    cuts = cuts[(cuts >= max(edges_a[0], edges_b[0])) & (cuts <= min(edges_a[-1], edges_b[-1]))]
    lo = cuts[:-1]
    ia = np.searchsorted(edges_a, lo, side="right") - 1
    ib = np.searchsorted(edges_b, lo, side="right") - 1
    return ia, ib, np.diff(cuts)


def overlap_map(grid_a: RectGrid, grid_b: RectGrid):
    """The pieces of the two grids' common extent: (cells_a, cells_b, wx, wy).

    Piece (i, j) is wx[i] by wy[j] and lies in cell cells_a[i, j] of grid_a
    and cells_b[i, j] of grid_b (-1 where that cell is void).
    """
    xa, xb, wx = _axis_overlaps(grid_a.x, grid_b.x)
    ya, yb, wy = _axis_overlaps(grid_a.y, grid_b.y)
    return grid_a.index[np.ix_(xa, ya)], grid_b.index[np.ix_(xb, yb)], wx, wy


def l2_overlap_diff_sq(grid_a: RectGrid, values_a, grid_b: RectGrid, values_b,
                       overlap=None) -> float:
    """Integral of (a - b)^2 over the intersection of the two grids' extents.

    Inputs are per-cell vectors; void cells read as 0 (extension by zero).
    `overlap` is the grids' `overlap_map`, computed here when not given.
    """
    cells_a, cells_b, wx, wy = overlap if overlap is not None else overlap_map(grid_a, grid_b)
    if cells_a.size == 0:
        return 0.0
    # index -1 (void) picks the appended 0
    diff = np.append(values_a, 0.0)[cells_a] - np.append(values_b, 0.0)[cells_b]
    return float(np.einsum("i,j,ij->", wx, wy, diff**2))


def leps_diff(field_a: Field, field_b: Field) -> float:
    """Weighted-L2 distance of two micro fields on nested/aligned grids."""
    ga, gb = field_a.grid, field_b.grid
    if ga.eps != gb.eps:
        raise ValueError("fields come from different scale parameters")
    overlap = overlap_map(ga, gb)
    total = 0.0
    for tag_val, w in ((BULK_P, 1.0), (BULK_M, 1.0), (CHAN, 1.0 / ga.eps)):
        va = np.where(ga.cell_tag == tag_val, field_a.values, 0.0)
        vb = np.where(gb.cell_tag == tag_val, field_b.values, 0.0)
        total += w * l2_overlap_diff_sq(ga, va, gb, vb, overlap)
    return float(np.sqrt(total))


def leps_project_diff(coarse: Field, fine: Field) -> float:
    """Weighted-L2 distance after volume-averaging the fine field per coarse cell.

    The restriction is the L2 projection onto the coarse piecewise constants,
    so the comparison measures the solution difference, not the difference of
    the two piecewise-constant representations.  Walls and the layer edges
    are faces of both grids, so every overlap piece lies in one region (or
    in void) on both sides: the restriction never mixes regions, and a live
    coarse cell is covered by live fine cells only.  A coarse cell outside
    the fine grid's extent restricts to 0.
    """
    gc, gf = coarse.grid, fine.grid
    if gc.eps != gf.eps:
        raise ValueError("fields come from different scale parameters")
    cells_c, cells_f, wx, wy = overlap_map(gc, gf)
    area = np.outer(wx, wy)
    piece = cells_c >= 0
    c, a = cells_c[piece], area[piece]
    num = np.bincount(c, fine.values[cells_f[piece]] * a, minlength=gc.n_cells)
    den = np.bincount(c, a, minlength=gc.n_cells)
    restricted = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(np.sqrt(np.dot(gc.weight * gc.cell_vol, (coarse.values - restricted) ** 2)))
