"""Test-side oracles for `chanhom.linsolve`: a block LDL^T sweep and scipy converters.

`BlockLDL` factors any matrix that is block tridiagonal in its labels, with
no assumption on the blocks themselves; the match tests compare the
structured factors of the program against it.  `from_scipy` and `to_scipy`
move a matrix between a scipy CSR and the program's own `CSR`, and `rows`
gives the row of every entry that CSR stores.  `TRANSFORMS` sets
`linsolve.FFT_BLOCKS` so that every factor takes one of its two cosine
transforms, whatever its size.
"""

import numpy as np
import scipy.sparse as sp

from chanhom.errors import SolverError
from chanhom.linsolve import CSR

# FFT_BLOCKS under which every factor takes the dense DCT product, then the FFT
TRANSFORMS = (np.inf, 1)


def from_scipy(m) -> CSR:
    m = sp.csr_matrix(m, dtype=float)
    m.sum_duplicates()
    return CSR(m.indptr, m.indices, m.data, m.shape)


def to_scipy(csr: CSR) -> sp.csr_matrix:
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


def rows(csr: CSR) -> np.ndarray:
    """Row of every stored entry, in storage order."""
    return np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))


def _group(keys, sel, n_groups):
    """Indices of `sel` split by the value of keys[sel] (0 .. n_groups-1)."""
    sel = sel[np.argsort(keys[sel], kind="stable")]
    return np.split(sel, np.searchsorted(keys[sel], np.arange(1, n_groups)))


class BlockLDL:
    """Block LDL^T of a symmetric matrix that is block tridiagonal in `blocks`.

    The matrix may couple only blocks whose labels are neighbours in sorted
    order; None is one block.  Keeps per block the dense inverse of its Schur
    complement S_i = A_ii - B_{i-1}^T S_{i-1}^{-1} B_{i-1} and the coupling
    B_i to the next block as triplets (local row, local column, value).
    """

    def __init__(self, csr, blocks=None):
        n = csr.shape[0]
        if blocks is None:
            label = np.zeros(n, dtype=np.int64)
        else:
            label = np.unique(np.asarray(blocks), return_inverse=True)[1]
        sizes = np.bincount(label)
        self.order = np.argsort(label, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.spans = list(zip(bounds[:-1], bounds[1:]))
        local = np.empty(n, dtype=np.int64)
        local[self.order] = np.arange(n) - bounds[label[self.order]]

        row, cols, data = rows(csr), csr.indices, csr.data
        bi, bj = label[row], label[cols]
        if np.any(np.abs(bi - bj) > 1):
            raise SolverError("matrix couples non-adjacent blocks; no block tridiagonal factor")
        li, lj = local[row], local[cols]
        nb = len(sizes)
        diag = _group(bi, np.flatnonzero(bi == bj), nb)
        upper = _group(bi, np.flatnonzero(bj == bi + 1), nb)

        self.inv, self.couple = [], []
        for i in range(nb):
            S = np.zeros((sizes[i], sizes[i]))
            np.add.at(S, (li[diag[i]], lj[diag[i]]), data[diag[i]])
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
            self.couple.append((li[up], lj[up], data[up]))

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
