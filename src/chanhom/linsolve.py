"""Sparse SPD solves for the implicit diffusion steps.

A `SparseMatrix` is factored once, by the factorization its builder names
from a block label per unknown, and every solve reuses the factor:

* `BlockLDL` (the default, and the test oracle for the others): for any
  matrix that is block tridiagonal in its labels, a block LDL^T with one
  dense inverse Schur complement per block; each solve is one forward and
  one backward sweep over the blocks.
* `CosineModes` (the limit model, one interface node per block): the
  operator is the same block at every node plus a uniform coupling along
  the interface, so cosine modes along the interface decouple it exactly.
  Construction certifies that structure and one inverse per mode; a solve
  is a dense orthonormal DCT-II product, one batched per-mode product and
  the inverse transform.  The transform is O(n_blocks^2) per unknown of a
  block, but one BLAS product: at 512 blocks it still takes half the time
  of a block sweep.
* `OpeningCapacitance` (the micro grid: bulk cells by grid column, channel
  cells by channel): the bulk with its opening faces taken off is separable
  along the columns and goes to `CosineModes`; the channels are isolated
  equal-size blocks, inverted in one batched call; what joins them is a
  dense capacitance system on the R bulk cells at the channel openings.  A
  solve is the same two dense transforms as `CosineModes` plus one R x R
  product and two batched channel solves, with no loop over columns.

All run in a fixed order, so repeated solves of identical systems are
bit-identical.
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

    `blocks` labels every unknown with its block, in the encoding that
    `factorization` reads (for `BlockLDL`, the matrix may couple only blocks
    whose labels are neighbours in sorted order); None is one block.
    `factorization` is the factor class built from (csr, blocks) on first use;
    None is BlockLDL.
    """

    csr: sp.csr_matrix
    blocks: np.ndarray = None
    factorization: type = None

    @cached_property
    def factor(self):
        return (self.factorization or BlockLDL)(self.csr, self.blocks)


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


def _labels(blocks, n):
    """Block rank 0 .. n_blocks-1 of every unknown (None: one block)."""
    if blocks is None:
        return np.zeros(n, dtype=np.int64)
    return np.unique(np.asarray(blocks), return_inverse=True)[1]


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
        label = _labels(blocks, n)
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


class CosineModes:
    """Exact mode-by-mode solve of a matrix separable along its blocks.

    Node-major (unknowns grouped by block, each block in ascending index
    order), the matrix must be I (x) A0 + K (x) diag(c) for n equal blocks:
    K is the Neumann path Laplacian (1, 2, ..., 2, 1 on its diagonal, -1
    beside it; 0 for one block), so every block is A0 + k_i diag(c) and
    every neighbour coupling is -diag(c).  The orthonormal DCT-II matrix Q
    diagonalises K with eigenvalues lam_k = 2 - 2 cos(pi k / n), and

        A^{-1} = (Q^T (x) I) blockdiag((A0 + lam_k diag(c))^{-1}) (Q (x) I).

    A0 and c are read from the first block and its coupling to the second;
    the whole matrix must then match the separable form to SYMMETRY_RTOL
    times its largest entry, and every mode block must be positive definite,
    or SolverError is raised.
    """

    def __init__(self, csr, blocks=None):
        n = csr.shape[0]
        label = _labels(blocks, n)
        sizes = np.bincount(label)
        nb, m = len(sizes), int(sizes[0])
        if np.any(sizes != m):
            raise SolverError("blocks of unequal size; no cosine-mode factor")
        self.order = np.argsort(label, kind="stable")

        A = csr[self.order][:, self.order]
        k = np.full(nb, 2.0)
        k[0] -= 1.0
        k[-1] -= 1.0
        K = sp.diags([k, -np.ones(nb - 1), -np.ones(nb - 1)], [0, 1, -1])
        c = -A[:m, m : 2 * m].diagonal() if nb > 1 else np.zeros(m)
        A0 = A[:m, :m].toarray() - k[0] * np.diag(c)
        separable = sp.kron(sp.identity(nb), sp.csr_matrix(A0)) + sp.kron(K, sp.diags(c))
        worst = abs(A - separable).max()
        scale = abs(A).max() if A.nnz else 1.0
        if worst > SYMMETRY_RTOL * scale:
            raise SolverError(
                f"matrix is not I (x) A0 + K (x) diag(c) along its blocks "
                f"(max deviation {worst:.3e}, scale {scale:.3e})"
            )

        modes = np.arange(nb)
        self.dct = np.sqrt(np.where(modes == 0, 1.0, 2.0) / nb)[:, None] * np.cos(
            np.pi * np.outer(modes, 2 * modes + 1) / (2 * nb)
        )
        self.inv = np.empty((nb, m, m))
        for i, lam in enumerate(2.0 - 2.0 * np.cos(np.pi * modes / nb)):
            try:
                L_inv = np.linalg.inv(np.linalg.cholesky(A0 + lam * np.diag(c)))
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"mode {i} is not positive definite") from exc
            np.matmul(L_inv.T, L_inv, out=self.inv[i])

    def solve(self, b) -> np.ndarray:
        """x with A x = b: transform, per-mode inverse, inverse transform."""
        nb, m = self.inv.shape[:2]
        y = self.dct @ b[self.order].reshape(nb, m)
        w = np.matmul(self.inv, y[:, :, None])[:, :, 0]
        x = np.empty_like(b)
        x[self.order] = (self.dct.T @ w).reshape(-1)
        return x


class OpeningCapacitance:
    """Exact solve of two separable bulk blocks joined by isolated channels.

    `blocks` labels a bulk unknown with its grid column (>= 0) and a channel
    unknown with -1 - its channel (< 0).  With B the bulk and C the channel
    unknowns, the matrix must have this form:

    * A_sep = A_BB + diag(A_BC 1), the bulk with its opening faces taken off,
      is separable along the columns, and is factored by `CosineModes`;
    * A_CC is block diagonal, one block of equal size per channel;
    * A_BC couples a bulk cell only to the channel of its own column
      (channel = column // k, k = columns per channel).

    The R bulk cells P with a nonzero A_BC row are the openings.  With
    E = -rowsum(A_BC)[P] and F = A_BC[P], eliminating the channels leaves
    A_sep + P^T G P with G = diag(E) - F A_CC^{-1} F^T, and Woodbury gives

        (A_sep + P^T G P)^{-1} = A_sep^{-1} - A_sep^{-1} P^T G Z^{-1} P A_sep^{-1}

    with the R x R capacitance matrix Z = I + D G, D = P A_sep^{-1} P^T.
    D is read off the cosine modes at the opening cells, and G Z^{-1} is
    kept dense.  A solve is one forward transform and per-mode product, the
    opening rows of the result, one R x R product, the opening correction in
    mode space and one inverse transform, with a batched channel solve before
    and after.  A matrix of any other form raises SolverError.
    """

    def __init__(self, csr, blocks=None):
        if blocks is None:
            raise SolverError("no bulk and channel labels; no opening factor")
        blocks = np.asarray(blocks)
        bulk, chan = np.flatnonzero(blocks >= 0), np.flatnonzero(blocks < 0)
        which = -1 - blocks[chan]
        sizes = np.bincount(which)
        if len(sizes) == 0 or np.any(sizes != sizes[0]):
            raise SolverError("channels of unequal size; no opening factor")
        n_chan, mc = len(sizes), int(sizes[0])
        self.chan = chan[np.argsort(which, kind="stable")]

        rows_b = csr[bulk]
        A_BC = rows_b[:, self.chan]
        A_sep = rows_b[:, bulk] + sp.diags(np.asarray(A_BC.sum(axis=1)).ravel())
        self.modes = CosineModes(A_sep, blocks[bulk])
        nb, m = self.modes.inv.shape[:2]
        if nb % n_chan:
            raise SolverError(f"{nb} bulk columns do not split into {n_chan} channels")
        self.bulk = bulk[self.modes.order]  # node-major: column, then row

        cc = csr[self.chan][:, self.chan].tocoo()
        if np.any(cc.row // mc != cc.col // mc):
            raise SolverError("matrix couples two channels; no opening factor")
        A_CC = np.zeros((n_chan, mc, mc))
        A_CC[cc.row // mc, cc.row % mc, cc.col % mc] = cc.data
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A_CC))
        except np.linalg.LinAlgError as exc:
            raise SolverError("a channel block is not positive definite") from exc
        self.chan_inv = np.matmul(L_inv.transpose(0, 2, 1), L_inv)

        A_BC = A_BC[self.modes.order]
        bc = A_BC.tocoo()
        if np.any(bc.row // m // (nb // n_chan) != bc.col // mc):
            raise SolverError("a bulk cell is coupled to a channel outside its column")
        self.opening = np.unique(bc.row)  # node-major positions of the bulk opening cells
        col, row = np.divmod(self.opening, m)
        self.F = A_BC[self.opening]
        self.Ft = self.F.T.tocsr()
        E = -np.asarray(self.F.sum(axis=1)).ravel()
        chan_inv = sp.bsr_matrix((self.chan_inv, np.arange(n_chan), np.arange(n_chan + 1)),
                                 shape=(n_chan * mc,) * 2)
        G = -(self.F @ chan_inv @ self.Ft).toarray()
        G[np.diag_indices_from(G)] += E

        # D = P A_sep^-1 P^T from the modes at the opening cells, one opening row at a time
        self.qc = self.modes.dct[:, col]
        self.rows, slot = np.unique(row, return_inverse=True)
        self.onehot = (slot[:, None] == np.arange(len(self.rows))).astype(float)
        D = np.empty((len(row),) * 2)
        for s, r in enumerate(self.rows):
            D[:, slot == s] = (self.qc * self.modes.inv[:, row, r]).T @ self.qc[:, slot == s]
        self.inv_rows = np.ascontiguousarray(self.modes.inv[:, :, self.rows])
        # W = G Z^{-1}, from Z^T W^T = G^T with Z^T = I + G D (G and D are symmetric)
        Zt = G @ D
        Zt[np.diag_indices_from(Zt)] += 1.0
        self.W = np.linalg.solve(Zt, G).T

    def solve(self, b) -> np.ndarray:
        """x with A x = b: channels, bulk modes with the opening correction, channels."""
        modes = self.modes
        nb, m = modes.inv.shape[:2]
        n_chan, mc = self.chan_inv.shape[:2]
        b_c = b[self.chan]
        y = b[self.bulk]
        w_c = np.matmul(self.chan_inv, b_c.reshape(n_chan, mc, 1)).reshape(-1)
        y[self.opening] -= self.F @ w_c
        y = np.matmul(modes.inv, (modes.dct @ y.reshape(nb, m))[:, :, None])[:, :, 0]
        q = self.W @ ((self.qc.T @ y[:, self.rows]) * self.onehot).sum(axis=1)
        z = self.qc @ (self.onehot * q[:, None])
        y -= np.matmul(self.inv_rows, z[:, :, None])[:, :, 0]
        x_b = (modes.dct.T @ y).reshape(-1)
        r_c = b_c - self.Ft @ x_b[self.opening]
        x = np.empty_like(b)
        x[self.bulk] = x_b
        x[self.chan] = np.matmul(self.chan_inv, r_c.reshape(n_chan, mc, 1)).reshape(-1)
        return x


def solve_spd(A: SparseMatrix, b, tol=1e-10, x0=None) -> np.ndarray:
    """Direct solve down to ||Ax - b|| <= tol * ||b||, warm-started at x0.

    Returns x0 itself when it already meets tol, otherwise x0 plus the
    factored correction.  Raises SolverError with the true relative
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
            f"direct solve missed tol={tol:g} (relative residual {final:.3e})", residual=final
        )
    return x
