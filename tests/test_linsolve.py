import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom.errors import SolverError
from chanhom.linsolve import SparseMatrix, assemble, solve_spd


def identity_matrix(n):
    return SparseMatrix(csr=sp.identity(n, format="csr"))


def test_identity_solve_returns_rhs():
    rng = np.random.default_rng(0)
    b = rng.normal(size=40)
    x = solve_spd(identity_matrix(40), b)
    assert np.allclose(x, b, atol=1e-12)


def test_two_by_two_row_sums():
    A = assemble([0, 0, 1, 1], [0, 1, 0, 1], [2.0, -1.0, -1.0, 2.0], 2)
    x = solve_spd(A, np.array([1.0, 1.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-12)


def poisson_1d(n, h):
    """TPFA row assembly for -u'' with Dirichlet values pinned at both ends."""
    rows, cols, vals = [], [], []
    for i in range(n):
        diag = 0.0
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                rows.append(i)
                cols.append(j)
                vals.append(-1.0 / h)
                diag += 1.0 / h
            else:
                diag += 2.0 / h  # half-cell to the boundary value
        rows.append(i)
        cols.append(i)
        vals.append(diag)
    return assemble(rows, cols, vals, n)


def test_1d_poisson_linear_profile_against_dense_oracle():
    n, h = 64, 1.0 / 64
    A = poisson_1d(n, h)
    b = np.zeros(n)
    b[-1] = (2.0 / h) * 1.0  # u(1) = 1, u(0) = 0, no source
    x = solve_spd(A, b, tol=1e-12)
    dense = np.linalg.solve(A.csr.toarray(), b)
    assert np.max(np.abs(x - dense)) <= 1e-10
    centers = (np.arange(n) + 0.5) * h
    assert np.max(np.abs(x - centers)) <= 1e-10  # exact linear profile


def random_spd(rng, n):
    m = sp.random(n, n, density=0.05, random_state=np.random.RandomState(rng.integers(2**31)))
    m = m + m.T
    m = m + sp.diags(np.abs(m).sum(axis=1).A1 + 1.0)
    return SparseMatrix(csr=m.tocsr())


def test_residual_contract_on_random_spd_systems():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(5, 80))
        A = random_spd(rng, n)
        b = rng.normal(size=n)
        x = solve_spd(A, b, tol=1e-10)
        res = np.linalg.norm(b - A.csr @ x) / np.linalg.norm(b)
        assert res <= 1e-10


def test_solve_is_bit_reproducible():
    rng = np.random.default_rng(1)
    A = random_spd(rng, 200)
    b = rng.normal(size=200)
    x1 = solve_spd(A, b)
    x2 = solve_spd(A, b)
    assert np.array_equal(x1, x2)


def test_zero_rhs_returns_zero():
    A = identity_matrix(7)
    assert np.array_equal(solve_spd(A, np.zeros(7)), np.zeros(7))


def test_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 50)
    b = rng.normal(size=50)
    with pytest.raises(SolverError) as err:
        solve_spd(A, b, tol=0.0)  # round-off keeps the true residual above zero
    assert err.value.residual is not None
    assert err.value.residual > 0


def block_tridiagonal_spd(rng, n_blocks, max_size):
    """Random SPD matrix coupling only neighbouring blocks, unknowns shuffled.

    Returns the matrix and the block label of every unknown; the labels are
    arbitrary distinct integers whose sorted order is the block order.
    """
    sizes = rng.integers(1, max_size + 1, size=n_blocks)
    names = np.sort(rng.choice(np.arange(-1000, 1000), size=n_blocks, replace=False))
    rank = np.repeat(np.arange(n_blocks), sizes)
    n = len(rank)
    near = np.abs(rank[:, None] - rank[None, :]) <= 1
    dense = np.where(near & (rng.random((n, n)) < 0.5), rng.normal(size=(n, n)), 0.0)
    dense = dense + dense.T
    dense += np.diag(np.abs(dense).sum(axis=1) + rng.random(n) + 0.1)
    perm = rng.permutation(n)
    return dense[np.ix_(perm, perm)], names[rank[perm]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(1, 8), max_size=st.integers(1, 7))
def test_block_solve_matches_dense_solve_with_shuffled_labels(seed, n_blocks, max_size):
    rng = np.random.default_rng(seed)
    dense, labels = block_tridiagonal_spd(rng, n_blocks, max_size)
    A = SparseMatrix(csr=sp.csr_matrix(dense), blocks=labels)
    b = rng.normal(size=len(labels))
    x = solve_spd(A, b, tol=1e-12)
    oracle = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_coupling_of_non_adjacent_blocks_is_rejected():
    dense = 4.0 * np.eye(3)
    dense[0, 2] = dense[2, 0] = -1.0
    A = SparseMatrix(csr=sp.csr_matrix(dense), blocks=np.array([0, 1, 2]))
    with pytest.raises(SolverError, match="non-adjacent"):
        solve_spd(A, np.ones(3))


def test_indefinite_matrix_is_rejected():
    A = assemble([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0], 2)
    with pytest.raises(SolverError, match="positive definite"):
        solve_spd(A, np.ones(2))


def test_warm_start_meeting_tol_is_returned_bit_exactly():
    rng = np.random.default_rng(3)
    dense, labels = block_tridiagonal_spd(rng, 5, 6)
    A = SparseMatrix(csr=sp.csr_matrix(dense), blocks=labels)
    x0 = rng.normal(size=len(labels))
    b = A.csr @ x0
    assert np.linalg.norm(b - A.csr @ x0) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(solve_spd(A, b, tol=1e-12, x0=x0), x0)


def test_warm_started_solve_meets_tol():
    rng = np.random.default_rng(4)
    dense, labels = block_tridiagonal_spd(rng, 6, 5)
    A = SparseMatrix(csr=sp.csr_matrix(dense), blocks=labels)
    b = rng.normal(size=len(labels))
    x0 = rng.normal(size=len(labels))
    x = solve_spd(A, b, tol=1e-12, x0=x0)
    assert np.linalg.norm(b - A.csr @ x) <= 1e-12 * np.linalg.norm(b)


def test_asymmetric_assembly_rejected():
    with pytest.raises(SolverError, match="not symmetric"):
        assemble([0, 1], [1, 0], [1.0, 2.0], 2)
