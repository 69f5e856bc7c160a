from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom.errors import AlignmentError
from chanhom.geometry import (
    BULK_M,
    BULK_P,
    CHAN,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from chanhom.grid import (
    Field,
    GradientQuadrature,
    RectGrid,
    _axis_overlaps,
    build_cell_grid,
    build_micro_grid,
    graded_edges,
    inner_product_leps,
    l2_overlap_diff_sq,
    leps_diff,
    leps_project_diff,
    overlap_map,
    region_overlap,
)
from chanhom.microsim import MicroState
from chanhom.twoscale import apriori_norm
from test_geometry import hourglass


def make_micro(eps=F(1, 4), H=1, width=F(1, 2), k=4):
    cell = build_reference_cell(ChannelProfile.rectangle(width))
    geom = build_micro_geometry(eps, H, cell)
    return geom, build_micro_grid(geom, k)


def test_layer_block_dimensions():
    geom, g = make_micro(eps=F(1, 2), k=4)
    assert g.dx[0] == pytest.approx(1 / 8)  # layer spacing eps/k
    # each column block is k cells wide and 2k cells tall
    j0 = int(np.argmin(np.abs(g.y + 0.5)))
    block = g.tag[:4, j0 : j0 + 8]
    assert block.shape == (4, 8)
    # half-width channel: the middle k*w columns of the block are channel
    assert (block[1:3] == CHAN).all()
    assert (block[0] != CHAN).all() and (block[3] != CHAN).all()
    chan_cells_per_column = (g.tag[:4] == CHAN).sum()
    assert chan_cells_per_column == 16


def test_misaligned_refinement_rejected():
    cell = build_reference_cell(hourglass())
    geom = build_micro_geometry(F(1, 4), 1, cell)
    with pytest.raises(AlignmentError, match="not a multiple"):
        build_micro_grid(geom, 2)
    build_micro_grid(geom, 8)  # aligned


def test_channel_cells_tile_the_channel_exactly():
    for width, k in ((F(1, 2), 4), (F(3, 4), 8)):
        geom, g = make_micro(width=width, k=k)
        vol = g.cell_vol[g.cell_tag == CHAN].sum()
        assert vol == pytest.approx(float(geom.eps * geom.cell.area), rel=1e-14)


def test_weighted_inner_product_constants():
    geom, g = make_micro()  # H=1, eps=1/4, |Z*| = 1
    one = Field(g, np.full(g.n_cells, 1.0))
    # 2*(H - eps) + |Z*|
    assert inner_product_leps(one, one) == pytest.approx(2.5, rel=1e-13)
    zero = Field(g, np.full(g.n_cells, 0.0))
    assert inner_product_leps(one, zero) == 0.0


def test_weighted_inner_product_positive_definite():
    _, g = make_micro()
    rng = np.random.default_rng(3)
    u = Field(g, rng.normal(size=g.n_cells))
    assert inner_product_leps(u, u) > 0
    zero = Field(g, np.full(g.n_cells, 0.0))
    assert np.sqrt(inner_product_leps(zero, zero)) == 0.0


def test_cauchy_schwarz_on_random_fields():
    _, g = make_micro()
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = Field(g, rng.normal(size=g.n_cells))
        v = Field(g, rng.normal(size=g.n_cells))
        bound = np.sqrt(inner_product_leps(u, u)) * np.sqrt(inner_product_leps(v, v))
        assert abs(inner_product_leps(u, v)) <= bound * (1 + 1e-12)


def test_channel_restricted_pairing_scales_by_inverse_eps():
    geom, g = make_micro()
    rng = np.random.default_rng(5)
    vals = rng.normal(size=g.n_cells)
    vals[g.cell_tag != CHAN] = 0.0
    u = Field(g, vals)
    plain = float(np.dot(g.cell_vol[g.cell_tag == CHAN], vals[g.cell_tag == CHAN] ** 2))
    assert inner_product_leps(u, u) == pytest.approx(plain / float(geom.eps), rel=1e-14)


def energy_norm(u):
    """The energy norm of one field: `apriori_norm` of a single snapshot."""
    return apriori_norm([MicroState(t=0.0, u=u)])


def test_energy_norm_of_constant_equals_weighted_norm():
    _, g = make_micro()
    u = Field(g, np.full(g.n_cells, 3.0))
    assert energy_norm(u) == pytest.approx(np.sqrt(inner_product_leps(u, u)), rel=1e-14)


def everywhere(grid):
    return np.ones(grid.n_cells, dtype=bool)


def test_energy_norm_unit_gradient_bulk_contribution():
    geom, g = make_micro()  # H=1, eps=1/4
    u = Field(g, g.cell_y)
    quad = GradientQuadrature(g, everywhere(g))
    wp = np.where(g.cell_tag == BULK_P, 1.0, 0.0)
    contrib = quad(u.values, wp)
    assert contrib == pytest.approx(0.75, abs=1e-12)  # area of the upper bulk
    wm = np.where(g.cell_tag == BULK_M, 1.0, 0.0)
    assert quad(u.values, wm) == pytest.approx(0.75, abs=1e-12)


def add_at_gradients(grid, values, valid):
    """Cell gradients as face sums with `np.add.at`: every fa term, then every fb term."""
    grad = np.zeros((grid.n_cells, 2))
    for fs in grid.faces:
        fg = (values[fs.b] - values[fs.a]) / (fs.dist_a + fs.dist_b)
        keep = valid[fs.a] & valid[fs.b]
        s, c = np.zeros(grid.n_cells), np.zeros(grid.n_cells)
        for ends in (fs.a[keep], fs.b[keep]):
            np.add.at(s, ends, fg[keep])
            np.add.at(c, ends, 1.0)
        grad[:, fs.axis] = s / np.maximum(c, 1.0)
    return grad


def assert_gradient_maps_match_face_sums(g, values, valid, weight):
    """`GradientQuadrature`'s components and sums against `np.add.at`, bit for bit."""
    want = add_at_gradients(g, values, valid)
    kept = np.flatnonzero(valid)
    quad = GradientQuadrature(g, valid)
    assert np.array_equal(quad.cells, kept)
    assert np.stack(quad.components(values), axis=1).tobytes() == want[kept].tobytes()
    for w in (weight, 1.0):
        want_sum = float((g.cell_vol * (want[:, 0] ** 2 + want[:, 1] ** 2) * w)[kept].sum())
        assert quad(values, w[kept] if np.ndim(w) else w) == want_sum


def hourglass_micro_grid():
    return build_micro_grid(build_micro_geometry(F(1, 8), 1, build_reference_cell(hourglass())), 8)


def hourglass_cell_grid():
    return build_cell_grid(build_reference_cell(hourglass()), 8)


@pytest.mark.parametrize("masked", [False, True])
def test_cell_gradients_match_face_sums_bit_for_bit(masked):
    g = hourglass_micro_grid()
    rng = np.random.default_rng(9)
    values = rng.normal(size=g.n_cells) * 10.0 ** rng.integers(-6, 6, size=g.n_cells)
    valid = (g.cell_tag == CHAN) | (rng.random(g.n_cells) < 0.5) if masked else everywhere(g)
    assert_gradient_maps_match_face_sums(g, values, valid, rng.random(g.n_cells))


@pytest.mark.parametrize("make_grid", [hourglass_micro_grid, hourglass_cell_grid],
                         ids=["micro", "reference_cell"])
@pytest.mark.parametrize("seed", [10, 11])
def test_gradient_maps_match_face_sums_on_random_masks(make_grid, seed):
    """Masks with bulk cells left out and channel cells cut off from their neighbours."""
    g = make_grid()
    rng = np.random.default_rng(seed)
    values = rng.normal(size=g.n_cells) * 10.0 ** rng.integers(-6, 6, size=g.n_cells)
    valid = rng.random(g.n_cells) < 0.7
    assert_gradient_maps_match_face_sums(g, values, valid, rng.random(g.n_cells))
    if g.eps is None:  # the reference cell also without a mask
        assert_gradient_maps_match_face_sums(g, values, everywhere(g), rng.random(g.n_cells))


def test_gradient_maps_sum_each_cell_from_zero():
    """Both faces of the middle cell differ by -5e-324 over a span of 4, which rounds
    to -0.0; summed from zero, as face by face accumulation sums, the gradient is +0.0."""
    g = RectGrid(np.arange(4) * 4.0, np.arange(2) * 4.0, np.full((3, 1), BULK_P))
    values = np.array([0.0, -5e-324, -1e-323])
    want = add_at_gradients(g, values, everywhere(g))
    assert want[1, 0] == 0.0 and not np.signbit(want[1, 0])
    got = np.stack(GradientQuadrature(g, everywhere(g)).components(values), axis=1)
    assert got.tobytes() == want.tobytes()


def test_energy_norm_homogeneity():
    _, g = make_micro()
    rng = np.random.default_rng(6)
    u = rng.normal(size=g.n_cells)
    for c in (2.0, -0.3, 17.5):
        assert energy_norm(Field(g, c * u)) == pytest.approx(abs(c) * energy_norm(Field(g, u)),
                                                             rel=1e-12)


def test_grid_construction_is_deterministic():
    geom, g1 = make_micro()
    g2 = build_micro_grid(geom, 4)
    assert np.array_equal(g1.x, g2.x)
    assert np.array_equal(g1.y, g2.y)
    assert np.array_equal(g1.tag, g2.tag)
    assert np.array_equal(g1.index, g2.index)


def test_graded_edges_shape():
    e = graded_edges(0.25, 1.0, 0.0625)
    assert e[0] == 0.25 and e[-1] == 1.0
    d = np.diff(e)
    assert (d > 0).all()
    assert (d[1:] / d[:-1] <= 1.2 + 1e-9).all()


def test_field_validation():
    _, g = make_micro()
    with pytest.raises(ValueError, match="values"):
        Field(g, np.zeros(3))
    bad = np.zeros(g.n_cells)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Field(g, bad)


def test_overlap_diff_of_identical_fields_is_zero():
    _, g = make_micro()
    rng = np.random.default_rng(8)
    u = Field(g, rng.normal(size=g.n_cells))
    assert leps_diff(u, u) == 0.0
    assert l2_overlap_diff_sq(u.values, u.values, overlap_map(g, g)) == 0.0


def where_leps_diff(field_a, field_b):
    """`leps_diff` zero-extending each region by full-grid `np.where` copies: the oracle."""
    ga, gb = field_a.grid, field_b.grid
    cells_a, cells_b, wx, wy = overlap_map(ga, gb)
    total = 0.0
    for tag, w in ((BULK_P, 1.0), (BULK_M, 1.0), (CHAN, 1.0 / ga.eps)):
        va = np.append(np.where(ga.cell_tag == tag, field_a.values, 0.0), 0.0)
        vb = np.append(np.where(gb.cell_tag == tag, field_b.values, 0.0), 0.0)
        diff = va[cells_a] - vb[cells_b]
        total += w * float(np.einsum("i,j,ij->", wx, wy, diff**2))
    return float(np.sqrt(total))


@pytest.mark.parametrize("profile, ka, kb", [
    (ChannelProfile.rectangle(F(1, 2)), 4, 8),
    (hourglass(), 8, 16),
    (hourglass(), 16, 8),
], ids=["rectangle", "hourglass", "hourglass_fine_first"])
def test_region_overlap_matches_the_where_extension_bit_for_bit(profile, ka, kb):
    geom = build_micro_geometry(F(1, 4), 1, build_reference_cell(profile))
    ga, gb = build_micro_grid(geom, ka), build_micro_grid(geom, kb)
    rng = np.random.default_rng(ka * 100 + kb)
    fields = []
    for g in (ga, gb):
        values = rng.normal(size=g.n_cells)  # nonzero on every region, channel included
        values[[np.flatnonzero(g.cell_tag == tag)[i]
                for tag in (BULK_P, CHAN, BULK_M) for i in (0, -1)]] = -0.0
        fields.append(Field(g, values))
    assert leps_diff(*fields) == where_leps_diff(*fields)

    cells_a, cells_b, wx, wy = overlap_map(ga, gb)
    for tag in (BULK_P, BULK_M, CHAN):
        in_a, in_b, rx, ry = region_overlap(ga, gb, tag)
        assert np.array_equal(rx, wx) and np.array_equal(ry, wy)
        for cells, inside, g in ((cells_a, in_a, ga), (cells_b, in_b, gb)):
            keep = (cells >= 0) & (g.cell_tag[cells] == tag)
            assert np.array_equal(inside, np.where(keep, cells, -1))


def overlaps_by_walking(edges_a, edges_b):
    """Reference: walk both edge arrays together, emitting every positive overlap."""
    ia = ib = 0
    out_a, out_b, w = [], [], []
    while ia < len(edges_a) - 1 and ib < len(edges_b) - 1:
        lo = max(edges_a[ia], edges_b[ib])
        hi = min(edges_a[ia + 1], edges_b[ib + 1])
        if hi > lo:
            out_a.append(ia)
            out_b.append(ib)
            w.append(hi - lo)
        if edges_a[ia + 1] <= edges_b[ib + 1]:
            ia += 1
        else:
            ib += 1
    return np.asarray(out_a, dtype=int), np.asarray(out_b, dtype=int), np.asarray(w)


# edges mixing a shared dyadic lattice (nested grids) with arbitrary breakpoints
edge_arrays = st.lists(
    st.one_of(st.integers(-32, 64).map(lambda i: i / 16),
              st.floats(-2.0, 4.0, allow_nan=False, allow_subnormal=False)),
    min_size=2, max_size=24, unique=True,
).map(lambda xs: np.array(sorted(xs)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edges_a=edge_arrays, edges_b=edge_arrays)
def test_axis_overlaps_match_the_walking_loop(edges_a, edges_b):
    got, want = _axis_overlaps(edges_a, edges_b), overlaps_by_walking(edges_a, edges_b)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))


def test_projected_diff_matches_plain_diff_on_same_grid():
    _, g = make_micro()
    rng = np.random.default_rng(9)
    u = Field(g, rng.normal(size=g.n_cells))
    v = Field(g, rng.normal(size=g.n_cells))
    assert leps_project_diff(u, v) == pytest.approx(leps_diff(u, v), rel=1e-12)


def dense_overlaps(edges_c, edges_f):
    """(n_c, n_f) matrix of overlap lengths, from the walking reference."""
    ic, jf, w = overlaps_by_walking(edges_c, edges_f)
    out = np.zeros((len(edges_c) - 1, len(edges_f) - 1))
    out[ic, jf] = w
    return out


@pytest.mark.parametrize("profile, kc, kf", [
    (ChannelProfile.rectangle(F(1, 2)), 4, 16),
    (hourglass(), 8, 16),  # its walls sit on 1/8, so 8 is its coarsest layer refinement
])
def test_projected_diff_matches_the_dense_restriction(profile, kc, kf):
    geom = build_micro_geometry(F(1, 4), 1, build_reference_cell(profile))
    gc, gf = build_micro_grid(geom, kc), build_micro_grid(geom, kf)
    assert not np.isin(gc.y, gf.y).all()  # the graded bulk rows do not nest
    rng = np.random.default_rng(12)
    u = Field(gc, rng.normal(size=gc.n_cells))
    v = Field(gf, rng.normal(size=gf.n_cells))

    wx, wy = dense_overlaps(gc.x, gf.x), dense_overlaps(gc.y, gf.y)
    total = 0.0
    for tag, weight in ((BULK_P, 1.0), (BULK_M, 1.0), (CHAN, 4.0)):
        mask = (gf.tag == tag).astype(float)
        num = wx @ (gf.cells_dense(v.values) * mask) @ wy.T
        den = wx @ mask @ wy.T
        restricted = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        sel = gc.cell_tag == tag
        dv = u.values[sel] - restricted[gc.cell_i[sel], gc.cell_j[sel]]
        total += weight * np.dot(gc.cell_vol[sel], dv**2)
    assert leps_project_diff(u, v) == pytest.approx(np.sqrt(total), rel=1e-12)


def test_cell_grid_matches_column_block():
    cell = build_reference_cell(ChannelProfile.rectangle(F(1, 2)))
    cg = build_cell_grid(cell, 4)
    assert cg.shape == (4, 8)
    assert (cg.cell_tag == CHAN).sum() == 16
    assert cg.cell_vol[cg.cell_tag == CHAN].sum() == pytest.approx(float(cell.area))
