import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chanhom import linsolve
from chanhom.errors import SolverError
from chanhom.linsolve import (SOLVER_TOL, CosineModes, FastCosine, SparseMatrix, laplacian,
                              solve_spd)
from linsolve_oracles import TRANSFORMS, BlockLDL, from_scipy, to_scipy


def identity_matrix(n):
    return SparseMatrix(csr=from_scipy(sp.identity(n)), factorization=BlockLDL)


def test_identity_solve_returns_rhs():
    rng = np.random.default_rng(0)
    b = rng.normal(size=40)
    x = solve_spd(identity_matrix(40), b)
    assert np.allclose(x, b, atol=1e-12)


def test_two_by_two_row_sums():
    A = SparseMatrix(csr=from_scipy(np.array([[2.0, -1.0], [-1.0, 2.0]])),
                     factorization=BlockLDL)
    x = solve_spd(A, np.array([1.0, 1.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-12)


def poisson_1d(n, h):
    """TPFA for -u'' with Dirichlet values pinned at both ends: the path Laplacian plus
    the half-cell transmissibility to the boundary value on both end rows."""
    inner = laplacian([(np.arange(n - 1), np.arange(1, n), 1.0 / h)], n)
    return inner.plus_diagonal(np.where(np.isin(np.arange(n), [0, n - 1]), 2.0 / h, 0.0))


def test_1d_poisson_linear_profile_against_dense_oracle():
    n, h = 64, 1.0 / 64
    A = SparseMatrix(csr=poisson_1d(n, h), factorization=BlockLDL)
    b = np.zeros(n)
    b[-1] = (2.0 / h) * 1.0  # u(1) = 1, u(0) = 0, no source
    x = solve_spd(A, b)
    dense = np.linalg.solve(to_scipy(A.csr).toarray(), b)
    assert np.max(np.abs(x - dense)) <= 1e-10
    centers = (np.arange(n) + 0.5) * h
    assert np.max(np.abs(x - centers)) <= 1e-10  # exact linear profile


def random_spd(rng, n):
    m = sp.random(n, n, density=0.05, random_state=np.random.RandomState(rng.integers(2**31)))
    m = m + m.T
    m = m + sp.diags(np.abs(m).sum(axis=1).A1 + 1.0)
    return SparseMatrix(csr=from_scipy(m), factorization=BlockLDL)


def test_residual_contract_on_random_spd_systems():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(5, 80))
        A = random_spd(rng, n)
        b = rng.normal(size=n)
        x = solve_spd(A, b)
        res = np.linalg.norm(b - A.csr @ x) / np.linalg.norm(b)
        assert res <= SOLVER_TOL


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


class ScaledLDL(BlockLDL):
    """A wrong factor: every solve comes back scaled by `factor`."""

    factor = 1.001

    def solve(self, b):
        return self.factor * super().solve(b)


class NaNLDL(ScaledLDL):
    factor = np.nan


def test_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 50)
    A = SparseMatrix(csr=A.csr, factorization=ScaledLDL)
    b = rng.normal(size=50)
    with pytest.raises(SolverError, match="missed tol=1e-12") as err:
        solve_spd(A, b)
    assert err.value.residual == pytest.approx(1e-3, rel=1e-6)  # ||(1.001 - 1) b|| / ||b||


def test_non_finite_factor_solve_is_refused():
    """NaN compares false with everything, so the residual check must not read `final > tol`."""
    rng = np.random.default_rng(5)
    A = SparseMatrix(csr=random_spd(rng, 20).csr, factorization=NaNLDL)
    with pytest.raises(SolverError, match="relative residual nan") as err:
        solve_spd(A, rng.normal(size=20))
    assert np.isnan(err.value.residual)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_right_hand_side_is_refused(bad):
    """An infinite or NaN entry is refused before any solve: with ||b|| = inf,
    `||r|| <= tol * ||b||` reads inf <= inf and would return x0 unchanged."""
    A = identity_matrix(5)
    b = np.ones(5)
    b[2] = bad
    for x0 in (None, np.zeros(5)):
        with pytest.raises(SolverError, match="right-hand side is not finite"):
            solve_spd(A, b, x0=x0)


@pytest.mark.parametrize("size", [1e300, 1e-200])
def test_right_hand_side_whose_norm_over_or_underflows_is_solved(size):
    """Every entry 1e300 (||b|| = inf) or 1e-200 (||b|| = 0): b is finite and nonzero,
    and so is the solution."""
    rng = np.random.default_rng(6)
    A = random_spd(rng, 30)
    b = np.full(30, size)
    unit = solve_spd(A, np.ones(30))
    for x0 in (None, np.zeros(30), size * unit):
        x = solve_spd(A, b, x0=x0)
        assert np.isfinite(x).all()
        assert np.max(np.abs(x / size - unit)) <= 1e-12 * np.max(np.abs(unit))
    with pytest.raises(SolverError, match="right-hand side is not finite"):
        solve_spd(A, np.where(np.arange(30) == 4, np.inf, b))


def test_overflowing_solution_is_refused():
    A = SparseMatrix(csr=from_scipy(0.5 * sp.identity(4)), factorization=BlockLDL)
    with pytest.raises(SolverError, match="solution overflows"):
        solve_spd(A, np.full(4, 1e308))  # x = 2e308


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
    A = SparseMatrix(csr=from_scipy(dense), blocks=labels, factorization=BlockLDL)
    b = rng.normal(size=len(labels))
    x = solve_spd(A, b)
    oracle = np.linalg.solve(dense, b)
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_coupling_of_non_adjacent_blocks_is_rejected():
    dense = 4.0 * np.eye(3)
    dense[0, 2] = dense[2, 0] = -1.0
    A = SparseMatrix(csr=from_scipy(dense), blocks=np.array([0, 1, 2]), factorization=BlockLDL)
    with pytest.raises(SolverError, match="non-adjacent"):
        solve_spd(A, np.ones(3))


def test_indefinite_matrix_is_rejected():
    A = SparseMatrix(csr=from_scipy(np.array([[1.0, 2.0], [2.0, 1.0]])),
                     factorization=BlockLDL)
    with pytest.raises(SolverError, match="positive definite"):
        solve_spd(A, np.ones(2))


def test_warm_start_meeting_tol_is_returned_bit_exactly():
    rng = np.random.default_rng(3)
    dense, labels = block_tridiagonal_spd(rng, 5, 6)
    A = SparseMatrix(csr=from_scipy(dense), blocks=labels, factorization=BlockLDL)
    x0 = rng.normal(size=len(labels))
    b = A.csr @ x0
    assert np.linalg.norm(b - A.csr @ x0) <= SOLVER_TOL * np.linalg.norm(b)
    assert np.array_equal(solve_spd(A, b, x0=x0), x0)


def test_warm_started_solve_meets_tol():
    rng = np.random.default_rng(4)
    dense, labels = block_tridiagonal_spd(rng, 6, 5)
    A = SparseMatrix(csr=from_scipy(dense), blocks=labels, factorization=BlockLDL)
    b = rng.normal(size=len(labels))
    x0 = rng.normal(size=len(labels))
    x = solve_spd(A, b, x0=x0)
    assert np.linalg.norm(b - A.csr @ x) <= SOLVER_TOL * np.linalg.norm(b)


# -- cosine-mode factor -------------------------------------------------------

def separable(A0, c, n_nodes):
    """I (x) A0 + K (x) diag(c), K the Neumann path Laplacian, node-major."""
    K = 2.0 * np.eye(n_nodes) - np.eye(n_nodes, k=1) - np.eye(n_nodes, k=-1)
    K[0, 0] -= 1.0
    K[-1, -1] -= 1.0
    return np.kron(np.eye(n_nodes), A0) + np.kron(K, np.diag(c))


def interleaved(rng, n_nodes, size):
    """Node-major position of every unknown, nodes interleaved at random.

    Each node's unknowns keep their local order, as the factor requires.
    Returns the positions and the node of every unknown.
    """
    node = rng.permutation(np.repeat(np.arange(n_nodes), size))
    local = np.empty_like(node)
    for j in range(n_nodes):
        local[node == j] = np.arange(size)
    return node * size + local, node


def random_spd_block(rng, size):
    G = rng.normal(size=(size, size))
    return G @ G.T + 0.1 * np.eye(size)


def dct_matrix(nb):
    """The orthonormal DCT-II matrix, each angle reduced exactly: k (2 j + 1) mod 4 nb."""
    modes = np.arange(nb)
    angle = np.outer(modes, 2 * modes + 1) % (4 * nb)
    return np.sqrt(np.where(modes == 0, 1.0, 2.0) / nb)[:, None] * np.cos(np.pi * angle / (2 * nb))


@pytest.mark.parametrize("nb", [1, 2, 3, 4, 5, 255, 256, 257, 512, 1000])
def test_fft_transform_matches_the_dense_dct(nb):
    """Both directions of `FastCosine` against Q and Q^T, blocks in the order it reads them."""
    Q, fast = dct_matrix(nb), FastCosine(nb)
    x = np.random.default_rng(nb).normal(size=(nb, 3))
    y = Q @ x
    assert np.max(np.abs(fast.forward(x[fast.perm]) - y)) <= 1e-13 * np.max(np.abs(y))
    assert np.max(np.abs(fast.inverse(y) - x[fast.perm])) <= 1e-13 * np.max(np.abs(x))
    order = np.arange(2 * nb)  # node-major, two unknowns per block
    assert np.array_equal(fast.gather(order), order.reshape(nb, 2)[fast.perm].reshape(-1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 16), size=st.integers(1, 8))
def test_cosine_modes_match_dense_solve_on_separable_systems(seed, n_nodes, size):
    rng = np.random.default_rng(seed)
    c = np.where(rng.random(size) < 0.3, 0.0, 3.0 * rng.random(size))
    where, node = interleaved(rng, n_nodes, size)
    dense = separable(random_spd_block(rng, size), c, n_nodes)[np.ix_(where, where)]
    names = np.sort(rng.choice(np.arange(-1000, 1000), size=n_nodes, replace=False))
    b = rng.normal(size=len(where))
    oracle = np.linalg.solve(dense, b)
    scale = np.max(np.abs(oracle))
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body: no fixture
        for fft_blocks in TRANSFORMS:
            mp.setattr(linsolve, "FFT_BLOCKS", fft_blocks)
            A = SparseMatrix(csr=from_scipy(dense), blocks=names[node], factorization=CosineModes)
            assert np.max(np.abs(A.factor.solve(b) - oracle)) <= 1e-10 * scale
            assert np.max(np.abs(solve_spd(A, b) - oracle)) <= 1e-10 * scale


def _couple(dense, i, j, value):
    out = dense.copy()
    out[i, j] += value
    out[j, i] += value
    return out


def test_cosine_modes_reject_what_is_not_separable(monkeypatch):
    rng = np.random.default_rng(5)
    n_nodes, size = 4, 3
    fixed = separable(random_spd_block(rng, size), np.ones(size), n_nodes)
    where, node = interleaved(rng, n_nodes, size)
    n2 = 2 * size  # first unknown of node 2
    broken = {
        "perturbed node block": _couple(fixed, n2, n2 + 1, 1e-6),
        "off-diagonal coupling": _couple(fixed, 0, size + 1, -0.5),
        "unequal neighbour coupling": _couple(fixed, n2, n2 + size, -0.5),
        "non-adjacent coupling": _couple(fixed, 0, n2, -0.5),
        # c != 0, so the form has this entry, but the matrix stores none
        "missing neighbour coupling": _couple(fixed, n2, n2 + size, -fixed[n2, n2 + size]),
    }
    for fft_blocks in TRANSFORMS:
        monkeypatch.setattr(linsolve, "FFT_BLOCKS", fft_blocks)
        CosineModes(from_scipy(fixed[np.ix_(where, where)]), node)  # the unperturbed matrix factors
        for name, dense in broken.items():
            with pytest.raises(SolverError, match="does not invert its matrix"):
                CosineModes(from_scipy(dense[np.ix_(where, where)]), node)
    with pytest.raises(SolverError, match="unequal size"):
        CosineModes(from_scipy(sp.identity(3)), np.array([0, 0, 1]))


def test_cosine_modes_reject_an_entry_missing_from_one_block(monkeypatch):
    """The probe covers the form's entries that the matrix does not store."""
    rng = np.random.default_rng(6)
    n_nodes, size = 4, 3
    fixed = separable(random_spd_block(rng, size), np.ones(size), n_nodes)
    n2 = 2 * size
    broken = _couple(fixed, n2, n2 + 1, -fixed[n2, n2 + 1])  # a zero is not stored
    for fft_blocks in TRANSFORMS:
        monkeypatch.setattr(linsolve, "FFT_BLOCKS", fft_blocks)
        with pytest.raises(SolverError, match="does not invert its matrix"):
            CosineModes(from_scipy(broken), np.repeat(np.arange(n_nodes), size))


def test_cosine_modes_reject_an_indefinite_mode():
    # A0 = 1 and c = -1: mode 0 is 1 > 0, mode 1 is 1 + 2 * (-1) < 0
    dense = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SolverError, match="mode 1 is not positive definite"):
        CosineModes(from_scipy(dense), np.array([0, 1]))


def test_cosine_modes_reject_an_indefinite_node_block():
    # A0 = [[1, 2], [2, 1]] has eigenvalue -1, so mode 0 has no Cholesky factor
    A0 = np.array([[1.0, 2.0], [2.0, 1.0]])
    dense = separable(A0, np.ones(2), 3)
    with pytest.raises(SolverError, match="mode 0 is not positive definite"):
        CosineModes(from_scipy(dense), np.repeat(np.arange(3), 2))


# -- what a run imports ----------------------------------------------------------

def test_runs_leave_heavy_scipy_modules_unloaded(tmp_path):
    """Importing the harness, a study run, its report, its export and a default
    verify-operators load no scipy module and no numpy.random module.

    `import scipy.sparse` alone costs about 0.2 s and 22 MB of RSS per
    process; the program's sparse matrices and factors use numpy only.
    `numpy.random` adds about 2 MB of RSS, and only the random-field form of
    `verify_operators` (n_fields > 0) draws from it.
    """
    repo = Path(__file__).resolve().parents[1]
    code = f"""
import json, sys
sys.path.insert(0, {str(repo / "src")!r})

def heavy_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy" or name.startswith("numpy.random"))

loaded = {{}}
from chanhom import harness
loaded["import"] = heavy_modules()
from chanhom import cli
raw = json.loads(open({str(repo / "configs" / "b1.json")!r}).read())
raw["epsilon"] = ["1/4", "1/8"]
raw["time"] = {{"T": 0.125, "dt": {{"rule": "fixed", "value": 1 / 64}}}}
raw["refinement"] = {{"k": 4, "m": 4, "n_sigma": 8}}
cfg = {str(tmp_path / "cfg.json")!r}
with open(cfg, "w") as fh:
    json.dump(raw, fh)
study = {str(tmp_path / "study")!r}
assert cli.main(["run", cfg, "--out", study]) == 0
loaded["run"] = heavy_modules()
assert cli.main(["report", study]) == 0
loaded["report"] = heavy_modules()
assert cli.main(["export", study, "--out", {str(tmp_path / "csv")!r}]) == 0
loaded["export"] = heavy_modules()
assert cli.main(["verify-operators", cfg]) == 0
loaded["verify-operators"] = heavy_modules()
print(json.dumps(loaded))
"""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "import": [], "run": [], "report": [], "export": [], "verify-operators": []}
