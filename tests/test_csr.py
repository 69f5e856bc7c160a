"""The numpy CSR of `chanhom.linsolve` against scipy's sparse matrices.

scipy sorts each row's triplets with an insertion sort up to 16 entries, so
on such rows it sums duplicates in input order, as `CSR.from_triplets` does;
the random triplets below keep every row within that length.
"""

from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom import harness, linsolve
from chanhom.errors import SolverError
from chanhom.geometry import ChannelProfile, build_micro_geometry, build_reference_cell
from chanhom.grid import build_micro_grid
from chanhom.macrosim import InterfaceLayout, MacroSimulation
from chanhom.microsim import DiffusionSpec, KineticsBundle, MicroSimulation
from linsolve_oracles import to_scipy
from test_geometry import hourglass
from test_harness import mini_config

ROW_LIMIT = 16


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def scipy_csr(rows, cols, vals, n):
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    m.sum_duplicates()
    return m


def random_triplets(rng, n, max_copies):
    """Shuffled triplets, every key repeated 3 .. max_copies times, rows of <= 16 triplets.

    About a third of the rows are empty.  Values span 16 decades, with signed
    zeros; a fifth of the keys start with two copies that cancel exactly, and
    a tenth hold -0.0 only.
    """
    rows, cols, vals = [], [], []
    for i in range(n):
        n_keys = 0 if rng.random() < 0.3 else int(rng.integers(1, ROW_LIMIT // max_copies + 1))
        for j in rng.choice(n, size=min(n_keys, n), replace=False):
            copies = int(rng.integers(3, max_copies + 1))
            v = rng.normal(size=copies) * 10.0 ** rng.integers(-8, 8, size=copies)
            v[rng.random(copies) < 0.1] = 0.0
            v[rng.random(copies) < 0.1] = -0.0
            if rng.random() < 0.2:
                v[1] = -v[0]
            if rng.random() < 0.1:
                v[:] = -0.0
            rows += [i] * copies
            cols += [int(j)] * copies
            vals.append(v)
    perm = rng.permutation(len(rows))
    vals = np.concatenate(vals) if vals else np.zeros(0)
    return np.array(rows, dtype=np.int64)[perm], np.array(cols, dtype=np.int64)[perm], vals[perm]


def random_vector(rng, n):
    x = rng.normal(size=n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = -0.0
    return x


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), max_copies=st.integers(3, 5))
def test_csr_matches_scipy_on_random_triplets(seed, n, max_copies):
    rng = np.random.default_rng(seed)
    rows, cols, vals = random_triplets(rng, n, max_copies)
    got = linsolve.CSR.from_triplets(rows, cols, vals, n)
    want = scipy_csr(rows, cols, vals, n)
    assert_same_arrays(got, want)
    x = random_vector(rng, n)
    assert (got @ x).tobytes() == (want @ x).tobytes()
    for form in (linsolve.DiagonalOffsets, linsolve.PaddedSlices):
        assert form(got)(x).tobytes() == (want @ x).tobytes()
    for i in range(n):
        assert got.getrow(i).indices.tolist() == want.getrow(i).indices.tolist()

    skew = abs(want - want.T)
    worst = skew.data.max() if skew.nnz else 0.0
    scale = np.abs(want.data).max() if want.nnz else 1.0
    if worst > linsolve.SYMMETRY_RTOL * scale:
        message = f"assembled matrix is not symmetric (max skew {worst:.3e}, scale {scale:.3e})"
        with pytest.raises(SolverError) as err:
            linsolve.assemble(rows, cols, vals, n)
        assert str(err.value) == message
    else:
        assert_same_arrays(linsolve.assemble(rows, cols, vals, n), want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_symmetric_assembly_and_diagonal_shift_match_scipy(seed, n):
    rng = np.random.default_rng(seed)
    m = scipy_csr(*random_triplets(rng, n, 3), n)
    m = (m + m.T + sp.identity(n)).tocsr()  # stores every diagonal entry
    coo = m.tocoo()
    A = linsolve.assemble(coo.row, coo.col, coo.data, n)
    assert_same_arrays(A, m)
    w, dt = rng.uniform(0.1, 2.0, n), float(rng.uniform(1e-4, 1.0))
    assert_same_arrays(A.plus_diagonal(w, dt), (sp.diags(w, format="csr") + dt * m).tocsr())


def test_signed_zeros_match_scipy():
    """Copies of -0.0 sum to -0.0, and a row of -0.0 terms multiplies to +0.0."""
    rows, cols = [0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]
    vals = np.array([-0.0, -0.0, 1.0, -1.0, 2.0, 3.0])
    got, want = linsolve.CSR.from_triplets(rows, cols, vals, 2), scipy_csr(rows, cols, vals, 2)
    assert_same_arrays(got, want)
    x = np.array([-0.0, -0.0])
    assert (got @ x).tobytes() == (want @ x).tobytes()


def test_rows_without_a_diagonal_entry_are_refused():
    A = linsolve.assemble([0, 1], [1, 0], [1.0, 1.0], 2)
    with pytest.raises(SolverError, match="no diagonal entry"):
        A.plus_diagonal(np.ones(2))


def check_lookup_against_dense(rng, stored):
    """`find`, `deviation` and the diagonal lookup of a CSR with pattern `stored`, densely.

    A tenth of the stored entries hold 0.0.  B sits on a random set of keys;
    on some of A's keys it takes A's value, so their difference is 0.
    """
    n = len(stored)
    dense = np.where(stored, rng.normal(size=(n, n)), 0.0)
    dense[stored & (rng.random((n, n)) < 0.1)] = 0.0
    rows, cols = np.nonzero(stored)
    A = linsolve.CSR.from_triplets(rows, cols, dense[rows, cols], n)

    qr, qc = np.divmod(rng.integers(0, n * n, size=3 * n * n), n)  # repeats, any order
    at = A.find(qr, qc)
    hit = at >= 0
    assert np.array_equal(hit, stored[qr, qc])
    assert np.array_equal(A.rows[at[hit]], qr[hit])
    assert np.array_equal(A.indices[at[hit]], qc[hit])

    on_b = rng.random((n, n)) < rng.choice([0.0, 0.5, 1.0])
    B = np.where(on_b, rng.normal(size=(n, n)), 0.0)
    same = on_b & stored & (rng.random((n, n)) < 0.5)
    B[same] = dense[same]
    br, bc = np.nonzero(on_b)
    perm = rng.permutation(len(br))
    br, bc = br[perm], bc[perm]
    assert A.deviation(br, bc, B[br, bc]) == np.abs(dense - B).max(initial=0.0)
    assert A.deviation(A.indices, A.rows, A.data) == np.abs(dense - dense.T).max(initial=0.0)

    if np.diagonal(stored).all():
        assert np.array_equal(to_scipy(A.plus_diagonal(np.ones(n))).toarray(), dense + np.eye(n))
    else:
        with pytest.raises(SolverError, match="no diagonal entry"):
            A.plus_diagonal(np.ones(n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
       density=st.sampled_from([0.0, 0.3, 1.0]))
def test_find_and_deviation_match_a_dense_oracle(seed, n, density):
    rng = np.random.default_rng(seed)
    check_lookup_against_dense(rng, rng.random((n, n)) < density)


@pytest.mark.parametrize("stored", [
    np.zeros((3, 3), dtype=bool),  # an empty CSR
    ~np.eye(3, dtype=bool) | np.diag([True, False, True]),  # row 1 has no diagonal entry
    np.eye(3, dtype=bool) | (np.arange(3)[:, None] == [2, 2, 0]),  # (0, 2) without (2, 0)
], ids=["empty", "row-without-diagonal", "one-sided-entry"])
def test_find_and_deviation_on_chosen_patterns(stored):
    check_lookup_against_dense(np.random.default_rng(1), stored)


def capture_assembly(monkeypatch):
    """Record the triplets every `linsolve.assemble` call receives."""
    calls = []
    assemble = linsolve.assemble

    def recorded(rows, cols, vals, n):
        calls.append((rows, cols, vals, n))
        return assemble(rows, cols, vals, n)

    monkeypatch.setattr(linsolve, "assemble", recorded)
    return calls


@pytest.mark.parametrize("hour", [False, True], ids=["rectangle", "hourglass"])
@pytest.mark.parametrize("inv_eps, n_sigma", [(4, 8), (16, 32)])
def test_simulation_operators_match_scipy(monkeypatch, hour, inv_eps, n_sigma):
    """The stiffness and M + dt K of both models, against scipy."""
    profile = hourglass() if hour else ChannelProfile.rectangle(F(1, 2))
    cell = build_reference_cell(profile)
    diff = DiffusionSpec.isotropic(1.0, 2.0, 0.5, len(profile.segments))
    calls = capture_assembly(monkeypatch)
    geom = build_micro_geometry(F(1, inv_eps), 1, cell)
    micro = MicroSimulation(geom, build_micro_grid(geom, 8), diff, KineticsBundle.zero())
    macro = MacroSimulation(cell, 1.0, InterfaceLayout(n_sigma=n_sigma, m=8), diff,
                            KineticsBundle.zero())
    rng, dt = np.random.default_rng(inv_eps), 1 / 512
    for sim, triplets in zip((micro, macro), calls):
        want = scipy_csr(*triplets)
        assert_same_arrays(sim.stiffness.csr, want)
        x = rng.normal(size=want.shape[0])
        assert (sim.stiffness.csr @ x).tobytes() == (want @ x).tobytes()
        shifted = sim.stiffness.csr.plus_diagonal(sim.weights, dt)
        assert_same_arrays(shifted, (sp.diags(sim.weights, format="csr") + dt * want).tocsr())
        assert (shifted @ x).tobytes() == (to_scipy(shifted) @ x).tobytes()


def micro_systems():
    """M + dt K of every b1 rung at the mini config's refinement, and of the hourglass grid."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8", "1/16"],
                                           refinement={"k": 4, "m": 4, "n_sigma": 16}))
    rungs = [(build_micro_geometry(eps, cfg.H, cfg.cell), cfg.k, cfg.diffusion)
             for eps in cfg.epsilons]
    hour = build_micro_geometry(F(1, 8), 1, build_reference_cell(hourglass()))
    rungs.append((hour, 8, DiffusionSpec.isotropic(1.0, 2.0, 0.5, 3)))
    for geom, k, diff in rungs:
        sim = MicroSimulation(geom, build_micro_grid(geom, k), diff, KineticsBundle.zero())
        yield sim.stiffness.csr.plus_diagonal(sim.weights, cfg.dt)


def test_product_forms_agree_bit_for_bit():
    """Diagonal offsets, padded slices and scipy multiply every micro system to the bit.

    The size rule picks the offsets for a micro system (7 or 9 offsets against 2
    x 5 slots) and the slices for the limit model (hundreds of offsets).
    """
    rng = np.random.default_rng(34)
    for system in micro_systems():
        assert isinstance(system.product_form, linsolve.DiagonalOffsets)
        assert len(system.product_form.offsets) in (7, 9)
        slices, want = linsolve.PaddedSlices(system), to_scipy(system)
        for _ in range(3):
            x = random_vector(rng, system.shape[0])
            x *= 10.0 ** rng.integers(-8, 8, size=len(x))
            got = system.product_form(x).tobytes()
            assert got == slices(x).tobytes() == (want @ x).tobytes()
    macro = MacroSimulation(build_reference_cell(hourglass()), 1.0,
                            InterfaceLayout(n_sigma=8, m=8),
                            DiffusionSpec.isotropic(1.0, 2.0, 0.5, 3), KineticsBundle.zero())
    system = macro.stiffness.csr.plus_diagonal(macro.weights, 1 / 128)
    assert isinstance(system.product_form, linsolve.PaddedSlices)
