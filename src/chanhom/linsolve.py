"""Sparse SPD solves for the implicit diffusion steps.

Every implicit operator in this package is block tridiagonal once its
unknowns are grouped by a block label: one grid column per block on the
micro grid, one interface node (its bulk columns, traces and cell problem)
per block in the limit model.  A matrix is factored once, as a block LDL^T
with one dense inverse Schur complement per block, and each solve is one
forward and one backward sweep over the blocks.  The sweeps run in a fixed
order, so repeated solves of identical systems are bit-identical.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import SolverError

SYMMETRY_RTOL = 1e-13


@dataclass
class SparseMatrix:
    """CSR matrix with an assembly-time symmetry certificate.

    `blocks` labels every unknown with its block; the matrix may couple only
    blocks whose labels are neighbours in sorted order.  None is one block.
    """

    csr: sp.csr_matrix
    blocks: np.ndarray = None

    @cached_property
    def factor(self) -> "BlockLDL":
        return BlockLDL(self.csr, self.blocks)


def assemble(rows, cols, vals, n) -> SparseMatrix:
    """Build from COO triplets (duplicates summed) and certify symmetry."""
    m = sp.coo_matrix(
        (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
    ).tocsr()
    m.sum_duplicates()
    scale = np.abs(m.data).max() if m.nnz else 1.0
    skew = abs(m - m.T)
    worst = skew.data.max() if skew.nnz else 0.0
    if worst > SYMMETRY_RTOL * scale:
        raise SolverError(
            f"assembled matrix is not symmetric (max skew {worst:.3e}, scale {scale:.3e})"
        )
    return SparseMatrix(csr=m)


def _group(keys, sel, n_groups):
    """Indices of `sel` split by the value of keys[sel] (0 .. n_groups-1)."""
    sel = sel[np.argsort(keys[sel], kind="stable")]
    return np.split(sel, np.searchsorted(keys[sel], np.arange(1, n_groups)))


class BlockLDL:
    """Block LDL^T of a symmetric matrix that is block tridiagonal in `blocks`.

    Keeps per block the dense inverse of its Schur complement
    S_i = A_ii - B_{i-1}^T S_{i-1}^{-1} B_{i-1} and the coupling B_i to the
    next block as triplets (local row, local column, value).
    """

    def __init__(self, csr, blocks=None):
        n = csr.shape[0]
        label = (np.zeros(n, dtype=np.int64) if blocks is None
                 else np.unique(np.asarray(blocks), return_inverse=True)[1])
        sizes = np.bincount(label)
        self.order = np.argsort(label, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.spans = list(zip(bounds[:-1], bounds[1:]))
        local = np.empty(n, dtype=np.int64)
        local[self.order] = np.arange(n) - bounds[label[self.order]]

        coo = csr.tocoo()
        bi, bj = label[coo.row], label[coo.col]
        if np.any(np.abs(bi - bj) > 1):
            raise SolverError("matrix couples non-adjacent blocks; no block tridiagonal factor")
        li, lj = local[coo.row], local[coo.col]
        nb = len(sizes)
        diag = _group(bi, np.flatnonzero(bi == bj), nb)
        upper = _group(bi, np.flatnonzero(bj == bi + 1), nb)

        self.inv, self.couple = [], []
        for i in range(nb):
            S = np.zeros((sizes[i], sizes[i]))
            np.add.at(S, (li[diag[i]], lj[diag[i]]), coo.data[diag[i]])
            if i:
                r, c, v = self.couple[-1]
                B = np.zeros((sizes[i - 1], sizes[i]))
                np.add.at(B, (r, c), v)
                S -= B.T @ (self.inv[-1] @ B)
            try:
                L_inv = np.linalg.inv(np.linalg.cholesky(S))
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"block {i} is not positive definite") from exc
            self.inv.append(L_inv.T @ L_inv)
            up = upper[i]
            self.couple.append((li[up], lj[up], coo.data[up]))

    def solve(self, b) -> np.ndarray:
        """x with A x = b: forward sweep, then backward sweep."""
        y = b[self.order]
        w = []  # S_i^{-1} y_i after the forward elimination
        for i, (lo, hi) in enumerate(self.spans):
            yi = y[lo:hi]
            if i:
                r, c, v = self.couple[i - 1]
                yi = yi - np.bincount(c, weights=v * w[-1][r], minlength=hi - lo)
            w.append(self.inv[i] @ yi)
        xp = np.empty_like(y)
        nxt = None
        for i in reversed(range(len(self.spans))):
            lo, hi = self.spans[i]
            xi = w[i]
            if nxt is not None:
                r, c, v = self.couple[i]
                xi = xi - self.inv[i] @ np.bincount(r, weights=v * nxt[c], minlength=hi - lo)
            xp[lo:hi] = nxt = xi
        x = np.empty_like(xp)
        x[self.order] = xp
        return x


def solve_spd(A: SparseMatrix, b, tol=1e-10, x0=None) -> np.ndarray:
    """Direct solve down to ||Ax - b|| <= tol * ||b||, warm-started at x0.

    Returns x0 itself when it already meets tol, otherwise x0 plus the
    block-factored correction.  Raises SolverError with the true relative
    residual when the corrected x still misses tol.
    """
    M = A.csr
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - M @ x
    if float(np.linalg.norm(r)) <= tol * nb:
        return x
    x += A.factor.solve(r)
    final = float(np.linalg.norm(b - M @ x)) / nb
    if final > tol:
        raise SolverError(
            f"block solve missed tol={tol:g} (relative residual {final:.3e})", residual=final
        )
    return x
