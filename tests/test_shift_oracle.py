"""The shift diagnostic as a cell permutation, bit for bit against the dense-grid reference.

The reference scatters every snapshot into a dense (nx, ny) grid with NaN in
the void, shifts whole grid rows by l*k and masks the non-finite
differences, with every summation in the order the diagnostic keeps.  The
fields are random and differ from column to column, so a permutation off by
one column or by one grid row shows.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from chanhom.geometry import (
    BULK_M,
    BULK_P,
    ChannelProfile,
    build_micro_geometry,
    build_reference_cell,
)
from chanhom.grid import Field, build_micro_grid, channel_index_matrix, gradient_quadrature
from chanhom.microsim import MicroState
from chanhom.twoscale import margin_columns, shift_diagnostic
from test_geometry import hourglass


def reference_margin_columns(geom, margin, shift):
    eps = float(geom.eps)
    ncol = geom.n_columns
    cols = [
        c
        for c in range(ncol)
        if c * eps >= margin - 1e-12
        and (c + 1) * eps <= 1.0 - margin + 1e-12
        and 0 <= c + shift < ncol
    ]
    return np.array(cols, dtype=int)


def _trapezoid_weights(times):
    w = np.zeros(len(times))
    if len(times) == 1:
        return np.ones(1)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def reference_shift_diagnostic(micro_states, geom, grid, l, h):
    eps = float(geom.eps)
    cols_lhs = reference_margin_columns(geom, 2 * h, l)
    if len(cols_lhs) == 0:
        raise ValueError("interior margin 2h leaves no complete column")
    cols_rhs = reference_margin_columns(geom, h, l)

    k = grid.k
    col_cells = channel_index_matrix(grid)
    tw = _trapezoid_weights(np.array([s.t for s in micro_states]))

    n_shift = l * k
    nx, _ = grid.shape
    src_i = np.arange(nx)
    ok_i = (src_i + n_shift >= 0) & (src_i + n_shift < nx)

    def delta_values(values):
        dense = grid.cells_dense(values, fill=np.nan)
        shifted = np.full_like(dense, np.nan)
        shifted[src_i[ok_i], :] = dense[src_i[ok_i] + n_shift, :]
        d = shifted - dense
        out = d[grid.cell_i, grid.cell_j]
        return np.nan_to_num(out, nan=0.0), np.isfinite(out)

    chan_lhs = col_cells[cols_lhs].reshape(-1)
    vol = grid.cell_vol

    sup_l2 = 0.0
    grad_sq = 0.0
    for w, s in zip(tw, micro_states):
        d, fin = delta_values(s.values)
        l2 = float(np.dot(vol[chan_lhs], d[chan_lhs] ** 2))
        sup_l2 = max(sup_l2, l2)
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[chan_lhs] = True
        mask &= fin
        grad_sq += w * gradient_quadrature(grid, d, np.ones(grid.n_cells), valid=mask)
    lhs = np.sqrt(sup_l2 / eps) + np.sqrt(eps * grad_sq)

    d0, _ = delta_values(micro_states[0].values)
    chan_rhs = col_cells[cols_rhs].reshape(-1)
    in_sigma_h = (grid.cell_x >= h) & (grid.cell_x <= 1.0 - h) & (
        grid.cell_x + eps * l >= 0.0
    ) & (grid.cell_x + eps * l <= 1.0)
    mask_bp = (grid.cell_tag == BULK_P) & in_sigma_h
    mask_bm = (grid.cell_tag == BULK_M) & in_sigma_h
    init_sq = (
        float(np.dot(vol[mask_bp], d0[mask_bp] ** 2))
        + float(np.dot(vol[mask_bm], d0[mask_bm] ** 2))
        + float(np.dot(vol[chan_rhs], d0[chan_rhs] ** 2)) / eps
    )
    bulk_sq = 0.0
    for w, s in zip(tw, micro_states):
        d, _ = delta_values(s.values)
        bulk_sq += w * (
            float(np.dot(vol[mask_bp], d[mask_bp] ** 2))
            + float(np.dot(vol[mask_bm], d[mask_bm] ** 2))
        )
    rhs = eps + np.sqrt(init_sq) + np.sqrt(bulk_sq)
    return float(lhs / rhs), float(lhs), float(rhs)


PROFILES = {"rectangle": (lambda: ChannelProfile.rectangle(F(1, 2)), 4),
            "hourglass": (hourglass, 8)}


@pytest.mark.parametrize("l, h", [(1, 1 / 8), (2, 0.1), (-1, 1 / 8), (3, 0.2)])
@pytest.mark.parametrize("inv_eps", [8, 12, 16, 32])
@pytest.mark.parametrize("profile", list(PROFILES))
def test_shift_matches_the_dense_reference_bit_for_bit(profile, inv_eps, l, h):
    make, k = PROFILES[profile]
    geom = build_micro_geometry(F(1, inv_eps), 1, build_reference_cell(make()))
    grid = build_micro_grid(geom, k)
    rng = np.random.default_rng(inv_eps * 100 + k)
    states = [MicroState(t=t, u=Field(grid, rng.normal(size=grid.n_cells)))
              for t in (0.0, 0.125, 0.375)]
    for margin in (h, 2 * h):
        assert np.array_equal(margin_columns(geom, margin, l),
                              reference_margin_columns(geom, margin, l))
    try:
        expected = reference_shift_diagnostic(states, geom, grid, l, h)
    except ValueError:  # 1/eps = 8 with (3, 0.2): no column inside the margin 2h
        with pytest.raises(ValueError, match="margin"):
            shift_diagnostic(states, geom, grid, l, h)
        return
    got = shift_diagnostic(states, geom, grid, l, h)
    assert np.array(got).tobytes() == np.array(expected).tobytes(), (got, expected)
