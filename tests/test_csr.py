"""The numpy CSR of `chanhom.linsolve` against scipy's sparse matrices.

scipy sorts each row's triplets with an insertion sort up to 16 entries, so
on such rows it sums duplicates in input order.  A Laplacian's triplets,
written with a zero first on every diagonal, are then summed from zero in
the order `linsolve.laplacian` sums them; the random triplets and pairs
below keep every row within that length.
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
from linsolve_oracles import from_scipy, to_scipy
from test_geometry import hourglass
from test_harness import mini_config
from test_linsolve import separable
from test_microsim import B1_DIFF, FUNNEL, FUNNEL_DIFF, HOURGLASS_DIFF, micro_matrix

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


def laplacian_triplets(parts, n):
    """COO triplets of `linsolve.laplacian(parts, n)`: a zero on every diagonal, then per
    part rows (a, b, a, b), cols (a, b, b, a) and vals (t, t, -t, -t), each a block."""
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.zeros(n)]
    for part in parts:
        a, b, t = (np.ravel(x) for x in np.broadcast_arrays(*part))
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [t, t, -t, -t]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals).astype(float), n


def random_parts(rng, n, max_degree):
    """Distinct pairs of n unknowns, each unknown in at most `max_degree` of them, in random
    orientation and order, split into parts of 1-D arrays, 2-D arrays or a scalar t.

    Values span 16 decades, so the order in which a diagonal is summed shows in its bits.
    """
    degree = np.zeros(n, dtype=int)
    pairs = []
    for i, j in rng.permutation(np.array(np.triu_indices(n, 1)).T)[: rng.integers(0, 3 * n + 1)]:
        if degree[i] < max_degree and degree[j] < max_degree:
            degree[[i, j]] += 1
            pairs.append((i, j) if rng.random() < 0.5 else (j, i))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    parts = []
    for chunk in np.array_split(pairs, rng.integers(1, 5)):
        a, b = chunk.T
        t = rng.normal(size=len(a)) * 10.0 ** rng.integers(-8, 8, size=len(a))
        if len(a) and rng.random() < 0.2:
            t = float(t[0])
        elif len(a) % 2 == 0 and rng.random() < 0.3:
            a, b, t = a.reshape(2, -1), b.reshape(2, -1), t.reshape(2, -1)
        parts.append((a, b, t))
    return parts


def random_vector(rng, n):
    x = rng.normal(size=n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = -0.0
    return x


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), max_copies=st.integers(3, 5))
def test_products_match_scipy_on_random_matrices(seed, n, max_copies):
    """Every product form multiplies to scipy's bits, on matrices scipy sums from random
    triplets: empty rows, signed zeros and exactly cancelled entries included.  `at`
    reads every entry, stored or not."""
    rng = np.random.default_rng(seed)
    want = scipy_csr(*random_triplets(rng, n, max_copies), n)
    got = from_scipy(want)
    x = random_vector(rng, n)
    assert (got @ x).tobytes() == (want @ x).tobytes()
    for form in (linsolve.DiagonalOffsets, linsolve.PaddedSlices):
        assert form(got)(x).tobytes() == (want @ x).tobytes()
    for i in range(n):
        assert got.getrow(i).indices.tolist() == want.getrow(i).indices.tolist()
    rows, cols = np.divmod(np.arange(n * n), n)
    assert got.at(rows, cols).tolist() == want.toarray().ravel().tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_symmetric_assembly_and_diagonal_shift_match_scipy(seed, n):
    """`laplacian` stores the bits scipy sums its triplets to, and so does M + dt K."""
    rng = np.random.default_rng(seed)
    parts = random_parts(rng, n, (ROW_LIMIT - 1) // 2)
    A = linsolve.laplacian(parts, n)
    m = scipy_csr(*laplacian_triplets(parts, n))
    assert_same_arrays(A, m)
    w, dt = rng.uniform(0.1, 2.0, n), float(rng.uniform(1e-4, 1.0))
    assert_same_arrays(A.plus_diagonal(w, dt), (sp.diags(w, format="csr") + dt * m).tocsr())


@pytest.mark.parametrize("parts, message", [
    ([([0, 1], [2, 1], [1.0, 2.0])], "pair on the diagonal"),
    ([([0], [3], 1.0)], "outside the 3 x 3 matrix"),
    ([([-1], [1], 1.0)], "outside the 3 x 3 matrix"),
    ([([0, 2], [1, 1], 1.0), ([0], [1], 2.0)], "pair given twice"),
    ([([0, 1], [1, 2], 1.0), ([2], [1], 2.0)], "pair given twice"),
    ([([0, 1], [1, 0], [1.0, 2.0])], "pair given twice"),
], ids=["diagonal", "above-range", "negative", "twice", "reversed", "reversed-in-one-part"])
def test_laplacian_refuses_what_is_no_set_of_distinct_pairs(parts, message):
    with pytest.raises(ValueError, match=message):
        linsolve.laplacian(parts, 3)


def test_rows_without_a_diagonal_entry_are_refused():
    A = from_scipy(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SolverError, match="no diagonal entry"):
        A.plus_diagonal(np.ones(2))


def check_diagonal_against_dense(rng, stored):
    """`plus_diagonal` on a CSR with pattern `stored`, densely: A + I where every row stores
    its diagonal entry, the refusal where one does not.  A tenth of the stored entries
    hold 0.0, and a stored 0.0 on the diagonal counts as stored."""
    n = len(stored)
    dense = np.where(stored, rng.normal(size=(n, n)), 0.0)
    dense[stored & (rng.random((n, n)) < 0.1)] = 0.0
    rows, cols = np.nonzero(stored)
    A = from_scipy(sp.coo_matrix((dense[rows, cols], (rows, cols)), shape=(n, n)))
    if np.diagonal(stored).all():
        assert np.array_equal(to_scipy(A.plus_diagonal(np.ones(n))).toarray(), dense + np.eye(n))
    else:
        with pytest.raises(SolverError, match="no diagonal entry"):
            A.plus_diagonal(np.ones(n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
       density=st.sampled_from([0.0, 0.3, 1.0]))
def test_diagonal_shift_matches_a_dense_oracle(seed, n, density):
    rng = np.random.default_rng(seed)
    check_diagonal_against_dense(rng, rng.random((n, n)) < density)


@pytest.mark.parametrize("stored", [
    np.zeros((3, 3), dtype=bool),  # an empty CSR
    ~np.eye(3, dtype=bool) | np.diag([True, False, True]),  # row 1 has no diagonal entry
    np.eye(3, dtype=bool) | (np.arange(3)[:, None] == [2, 2, 0]),  # (0, 2) without (2, 0)
], ids=["empty", "row-without-diagonal", "one-sided-entry"])
def test_diagonal_shift_on_chosen_patterns(stored):
    check_diagonal_against_dense(np.random.default_rng(1), stored)


def assert_separable(csr, blocks):
    """csr is I (x) A0 + K (x) diag(c) node-major in `blocks`, to 1e-13 x its largest entry.

    A0 and c are read from the first block and its coupling to the second, as the
    cosine-mode factor reads them; then every entry is compared, densely.
    """
    order = np.argsort(blocks, kind="stable")
    dense = to_scipy(csr).toarray()[np.ix_(order, order)]
    nb = len(np.unique(blocks))
    m = len(order) // nb
    c = -np.diagonal(dense[:m, m:2 * m]) if nb > 1 else np.zeros(m)
    A0 = dense[:m, :m] - np.diag(c)
    form = separable(A0, c, nb)
    assert np.abs(dense - form).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("profile, k, diff", [
    (ChannelProfile.rectangle(F(1, 2)), 4, B1_DIFF), (hourglass(), 8, HOURGLASS_DIFF),
    (FUNNEL, 8, FUNNEL_DIFF),
], ids=["rectangle", "hourglass", "funnel"])
@pytest.mark.parametrize("inv_eps", [1, 3])
def test_micro_bulk_is_separable_along_its_columns(profile, k, diff, inv_eps):
    """Without its opening faces, M + dt K's bulk is the same block in every grid column
    plus a uniform coupling between neighbours: the form `OpeningCapacitance` factors in
    cosine modes, which no longer checks it entry by entry."""
    sim, csr = micro_matrix(profile, k, inv_eps, diff, 1 / 512)
    blocks = sim.stiffness.blocks
    dense = to_scipy(csr).toarray()
    bulk, chan = blocks >= 0, blocks < 0
    A_sep = dense[np.ix_(bulk, bulk)] + np.diag(dense[np.ix_(bulk, chan)].sum(axis=1))
    assert_separable(from_scipy(A_sep), blocks[bulk])


def test_limit_model_is_separable_along_the_interface():
    """The whole limit model's M + dt K, grouped by interface node, has the form
    `CosineModes` factors, which no longer checks it entry by entry."""
    sim = MacroSimulation(build_reference_cell(ChannelProfile.rectangle(F(1, 2))), 1.0,
                          InterfaceLayout(n_sigma=8, m=4), B1_DIFF, KineticsBundle.zero())
    assert_separable(sim.stiffness.plus_diagonal(sim.weights, 1 / 512).csr,
                     sim.stiffness.blocks)


def capture_assembly(monkeypatch):
    """Record the parts every `linsolve.laplacian` call receives."""
    calls = []
    laplacian = linsolve.laplacian

    def recorded(parts, n):
        calls.append((parts, n))
        return laplacian(parts, n)

    monkeypatch.setattr(linsolve, "laplacian", recorded)
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
    for sim, parts in zip((micro, macro), calls):
        want = scipy_csr(*laplacian_triplets(*parts))
        assert_same_arrays(sim.stiffness.csr, want)
        x = rng.normal(size=want.shape[0])
        assert (sim.stiffness.csr @ x).tobytes() == (want @ x).tobytes()
        shifted = sim.stiffness.csr.plus_diagonal(sim.weights, dt)
        assert_same_arrays(shifted, (sp.diags(sim.weights, format="csr") + dt * want).tocsr())
        assert (shifted @ x).tobytes() == (to_scipy(shifted) @ x).tobytes()


def test_both_stiffnesses_are_symmetric_with_zero_row_sums():
    """Each model's stiffness equals its transpose bit for bit and its rows sum to 0 up to
    round-off: on the mini b1 config's rungs and limit model, and on the hourglass grid."""
    cfg = harness.parse_config(mini_config(epsilon=["1/4", "1/8"],
                                           refinement={"k": 4, "m": 4, "n_sigma": 16}))
    hour = build_reference_cell(hourglass())
    hour_diff = DiffusionSpec(1.0, 2.0, ((0.7, 1.3), (0.3, 0.6), (0.7, 1.3)))
    zero = KineticsBundle.zero()
    micro = [(build_micro_geometry(eps, cfg.H, cfg.cell), cfg.k, cfg.diffusion)
             for eps in cfg.epsilons] + [(build_micro_geometry(F(1, 8), 1, hour), 8, hour_diff)]
    sims = [MicroSimulation(geom, build_micro_grid(geom, k), diff, zero) for geom, k, diff in micro]
    sims += [MacroSimulation(cfg.cell, float(cfg.H), InterfaceLayout(cfg.n_sigma, cfg.m),
                             cfg.diffusion, zero),
             MacroSimulation(hour, 1.0, InterfaceLayout(n_sigma=16, m=8), hour_diff, zero)]
    for sim in sims:
        K = sim.stiffness.csr
        transpose = to_scipy(K).T.tocsr()
        transpose.sort_indices()
        assert_same_arrays(K, transpose)
        row_sum = K @ np.ones(K.shape[0])
        assert np.all(np.abs(row_sum) <= 8 * np.finfo(float).eps * (np.abs(to_scipy(K)) @
                                                                    np.ones(K.shape[0])))


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
