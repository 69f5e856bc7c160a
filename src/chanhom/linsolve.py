"""Sparse SPD solves for the implicit diffusion steps, in numpy alone.

`assemble` sums COO triplets into a canonical `CSR` and certifies its
symmetry.  A `SparseMatrix` is a CSR, a block label per unknown and the
factorization that reads them; it is factored once, and every solve reuses
the factor:

* `CosineModes` (the limit model, one interface node per block): the
  operator is the same block at every node plus a uniform coupling along
  the interface, so cosine modes along the interface decouple it exactly.
  Construction certifies that structure and diagonalises every mode block
  in one eigenbasis (fast diagonalisation); a solve is a dense orthonormal
  DCT-II product, one product with the eigenbasis, a scaling, and both
  products back.  The transform is O(n_blocks^2) per unknown of a block,
  but one BLAS product: at 512 blocks it still takes half the time of a
  block sweep.
* `OpeningCapacitance` (the micro grid: bulk cells by grid column, channel
  cells by channel): with its R opening faces taken off, the bulk is
  separable along the columns and goes to `CosineModes`, and the channels
  are isolated equal-size blocks, inverted in one batched call.  The faces
  come back through one symmetric Woodbury update, a dense R x R
  capacitance system on them.  A solve is the same two dense transforms as
  `CosineModes` plus one R x R product and two batched channel solves, with
  no loop over columns.

All run in a fixed order, so repeated solves of identical systems are
bit-identical.  The tests keep a block LDL^T sweep as the oracle of both.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SolverError

SYMMETRY_RTOL = 1e-13
# relative residual of every solve
SOLVER_TOL = 1e-12


def _sum_by_key(keys, vals):
    """Sorted unique keys and, per key, its values summed left to right in input order."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = vals[first]
    count = np.diff(first, append=len(keys))
    for r in range(1, count.max(initial=0)):
        more = np.flatnonzero(count > r)
        sums[more] += vals[first[more] + r]
    return keys[first], sums


@dataclass(eq=False)
class CSR:
    """Canonical compressed sparse rows: each row's columns sorted and unique.

    `from_triplets` sums duplicates left to right in their input order, and
    `A @ x` sums each row left to right from zero, so both are reproducible
    to the bit.  Index arrays are int32 unless the size needs int64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def from_triplets(cls, rows, cols, vals, n) -> "CSR":
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        if len(rows) and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"triplet index outside the {n} x {n} matrix")
        keys, data = _sum_by_key(rows * n + cols, vals)
        index = np.int32 if max(len(rows), n) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(indptr, (keys % n).astype(index), data, (n, n))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def getrow(self, i) -> "CSR":
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return CSR(np.array([0, hi - lo]), self.indices[lo:hi], self.data[lo:hi],
                   (1, self.shape[1]))

    def find(self, rows, cols) -> np.ndarray:
        """Position in `data` of the entry at every (rows, cols) key, -1 where none is stored."""
        n = self.shape[1]
        keys = self.rows * n + self.indices  # ascending: rows in order, columns sorted
        want = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
        at = np.searchsorted(keys, want)
        found = np.append(keys, -1)[at] == want  # a search past the last key finds nothing
        return np.where(found, at, -1)

    def deviation(self, rows, cols, vals) -> float:
        """max |A - B| over all keys, B given as `vals` at distinct (rows, cols) keys.

        A stored entry that B lacks is compared with 0, and so is an entry of
        B that A does not store.
        """
        at = self.find(rows, cols)
        stored = at >= 0
        diff = self.data.copy()
        diff[at[stored]] -= vals[stored]
        return float(max(np.abs(diff).max(initial=0.0), np.abs(vals[~stored]).max(initial=0.0)))

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Position in `data` of every row's diagonal entry."""
        diagonal = np.arange(self.shape[0])
        at = self.find(diagonal, diagonal)
        if np.any(at < 0):
            raise SolverError("a row stores no diagonal entry")
        return at

    def plus_diagonal(self, d, scale=1.0) -> "CSR":
        """scale * A + diag(d) on A's pattern, which must store every diagonal entry."""
        data = scale * self.data
        data[self._diagonal] += d
        return CSR(self.indptr, self.indices, data, self.shape)

    @cached_property
    def _slices(self):
        """(longest row, n) column and value slices, entry r of every row in slice r.

        Rows shorter than the longest are padded at the end with value 0 at column 0.
        """
        n = self.shape[0]
        place = (np.arange(len(self.indices)) - self.indptr[self.rows], self.rows)
        cols = np.zeros((np.diff(self.indptr).max(initial=0), n), dtype=np.intp)
        vals = np.zeros(cols.shape)
        cols[place] = self.indices
        vals[place] = self.data
        return cols, vals

    def __matmul__(self, x) -> np.ndarray:
        cols, vals = self._slices
        terms = np.take(np.asarray(x, dtype=float), cols)
        terms *= vals
        return np.add.reduce(terms, axis=0, initial=0.0)


@dataclass
class SparseMatrix:
    """A CSR with the factorization that solves it.

    `factorization` is the factor class built from (csr, blocks) on first
    use; `blocks` labels every unknown with its block, in the encoding that
    factorization reads (None is one block).
    """

    csr: CSR
    factorization: type
    blocks: np.ndarray = None

    @cached_property
    def factor(self):
        return self.factorization(self.csr, self.blocks)


def assemble(rows, cols, vals, n) -> CSR:
    """Build from COO triplets (duplicates summed) and certify symmetry."""
    m = CSR.from_triplets(rows, cols, vals, n)
    scale = np.abs(m.data).max() if len(m.data) else 1.0
    worst = m.deviation(m.indices, m.rows, m.data)  # against the transpose
    if worst > SYMMETRY_RTOL * scale:
        raise SolverError(
            f"assembled matrix is not symmetric (max skew {worst:.3e}, scale {scale:.3e})"
        )
    return m


def _separable_form(csr, order, m):
    """A0 and c of a matrix I (x) A0 + K (x) diag(c), node-major in `order`.

    They are read from the first block and its coupling to the second; the
    whole matrix must then match the form to SYMMETRY_RTOL times its largest
    entry, or SolverError is raised.
    """
    n = csr.shape[0]
    nb = n // m
    where = np.empty(n, dtype=np.int64)
    where[order] = np.arange(n)  # node-major position of every unknown
    r, c, vals = where[csr.rows], where[csr.indices], csr.data
    k = np.full(nb, 2.0)
    k[0] -= 1.0
    k[-1] -= 1.0
    coef = np.zeros(m)
    beside = (r < m) & (c - r == m)
    coef[r[beside]] = -vals[beside]
    A0 = np.zeros((m, m))
    first = (r < m) & (c < m)
    A0[r[first], c[first]] = vals[first]
    A0[np.diag_indices(m)] -= k[0] * coef

    # the separable form node-major: block i at A0's pattern and the diagonal,
    # then the couplings (i, i + 1) and (i + 1, i) on the diagonal
    li, lj = np.nonzero((A0 != 0) | np.eye(m, dtype=bool))
    node = np.arange(nb)[:, None]
    up = (node[:-1] * m + np.arange(m)).ravel()
    form_r = np.concatenate([(node * m + li).ravel(), up, up + m])
    form_c = np.concatenate([(node * m + lj).ravel(), up + m, up])
    form = np.concatenate([
        (A0[li, lj] + np.where(li == lj, k[:, None] * coef[li], 0.0)).ravel(),
        np.tile(-coef, 2 * (nb - 1)),
    ])
    worst = csr.deviation(order[form_r], order[form_c], form)
    scale = np.abs(vals).max() if len(vals) else 1.0
    if worst > SYMMETRY_RTOL * scale:
        raise SolverError(
            f"matrix is not I (x) A0 + K (x) diag(c) along its blocks "
            f"(max deviation {worst:.3e}, scale {scale:.3e})"
        )
    return A0, coef


class CosineModes:
    """Exact mode-by-mode solve of a matrix separable along its blocks.

    Node-major (unknowns grouped by block, each block in ascending index
    order), the matrix must be I (x) A0 + K (x) diag(c) for n equal blocks:
    K is the Neumann path Laplacian (1, 2, ..., 2, 1 on its diagonal, -1
    beside it; 0 for one block), so every block is A0 + k_i diag(c) and
    every neighbour coupling is -diag(c).  The orthonormal DCT-II matrix Q
    diagonalises K with eigenvalues lam_k = 2 - 2 cos(pi k / n), and

        A^{-1} = (Q^T (x) I) blockdiag((A0 + lam_k diag(c))^{-1}) (Q (x) I).

    One eigenbasis serves every mode (Lynch, Rice & Thomas 1964): with
    A0 = L L^T and L^-1 diag(c) L^-T = V diag(mu) V^T, S = L^-T V gives

        (A0 + lam_k diag(c))^{-1} = S diag(1 / D_k) S^T,  D_k = 1 + lam_k mu,

    so the factor keeps S (m x m) and 1 / D (n x m).  Construction reads A0
    and c and checks the form (`_separable_form`); every mode block must be
    positive definite (A0 has a Cholesky factor and every D_k > 0), or
    SolverError is raised.
    """

    def __init__(self, csr, blocks):
        label = np.unique(np.asarray(blocks), return_inverse=True)[1]
        sizes = np.bincount(label)
        nb, m = len(sizes), int(sizes[0])
        if np.any(sizes != m):
            raise SolverError("blocks of unequal size; no cosine-mode factor")
        self.order = np.argsort(label, kind="stable")

        A0, coef = _separable_form(csr, self.order, m)

        modes = np.arange(nb)
        self.dct = np.sqrt(np.where(modes == 0, 1.0, 2.0) / nb)[:, None] * np.cos(
            np.pi * np.outer(modes, 2 * modes + 1) / (2 * nb)
        )
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A0))
        except np.linalg.LinAlgError as exc:
            raise SolverError("mode 0 is not positive definite") from exc
        mu, V = np.linalg.eigh((L_inv * coef) @ L_inv.T)
        self.S = L_inv.T @ V
        D = 1.0 + np.outer(2.0 - 2.0 * np.cos(np.pi * modes / nb), mu)
        indefinite = np.flatnonzero(np.any(D <= 0.0, axis=1))
        if len(indefinite):
            raise SolverError(f"mode {indefinite[0]} is not positive definite")
        self.inv_D = 1.0 / D

    def solve(self, b) -> np.ndarray:
        """x with A x = b: transform, scale in the eigenbasis, inverse transform."""
        nb, m = self.inv_D.shape
        y = (self.dct @ b[self.order].reshape(nb, m)) @ self.S
        y *= self.inv_D
        x = np.empty_like(b)
        x[self.order] = (self.dct.T @ (y @ self.S.T)).reshape(-1)
        return x


def _split(csr, bulk, chan):
    """A_sep = A_BB + diag(A_BC 1) as a CSR, and the triplets of A_BC and A_CC.

    All in local indices: bulk unknowns in ascending order, channel unknowns
    in the order of `chan`.
    """
    local = np.empty(csr.shape[0], dtype=np.int64)
    local[bulk] = np.arange(len(bulk))
    local[chan] = np.arange(len(chan))
    is_b = np.zeros(csr.shape[0], dtype=bool)
    is_b[bulk] = True
    rb, cb = is_b[csr.rows], is_b[csr.indices]
    r, c, vals = local[csr.rows], local[csr.indices], csr.data
    A_BB, BC, CC = [(r[sel], c[sel], vals[sel]) for sel in (rb & cb, rb & ~cb, ~rb & ~cb)]
    n_b = len(bulk)
    A_sep = CSR.from_triplets(*A_BB, n_b).plus_diagonal(np.bincount(BC[0], BC[2], n_b))
    return A_sep, BC, CC


class OpeningCapacitance:
    """Exact solve of two separable bulk blocks joined by isolated channels.

    `blocks` labels a bulk unknown with its grid column (>= 0) and a channel
    unknown with -1 - its channel (< 0).  The matrix must have this form:

    * A_BC couples a bulk cell p to at most one channel cell q, of the channel
      of its own column (channel = column // k, k = columns per channel), and
      every channel has as many such opening faces.  Each is a two-point term
      t (e_p - e_q)(e_p - e_q)^T with t = -A_BC[p, q].
    * Without its R opening faces the matrix is B = blockdiag(A_sep, A_ch):
      A_sep, the bulk, is separable along the columns and is factored by
      `CosineModes`; A_ch is block diagonal, one block of equal size per
      channel, inverted in one batched call.

    With U = P^T - Q^T the faces' columns e_p - e_q and T = diag(t), Woodbury
    gives

        A^{-1} = B^{-1} - B^{-1} U Z^{-1} U^T B^{-1},
        Z = T^{-1} + P A_sep^{-1} P^T + Q A_ch^{-1} Q^T,

    and Z is symmetric positive definite.  Its bulk part is read off the
    cosine modes' eigenbasis at (opening column, opening row), its channel
    part is gathered from the channel inverses, and Z^{-1} is kept dense.  A
    solve is a batched channel solve, the forward transform into the modes'
    eigenbasis, the gather s = x_B[P] - x_C[Q], one R x R product, the
    correction in the eigenbasis and the inverse transform, and a second
    batched channel solve.  A matrix of any other form raises SolverError.
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

        A_sep, (br, bc, bv), (cr, cc, cv) = _split(csr, bulk, self.chan)
        self.modes = CosineModes(A_sep, blocks[bulk])
        del A_sep  # freed before the dense R x R work below
        nb, m = self.modes.inv_D.shape
        if nb % n_chan:
            raise SolverError(f"{nb} bulk columns do not split into {n_chan} channels")
        self.bulk = bulk[self.modes.order]  # node-major: column, then row

        if np.any(cr // mc != cc // mc):
            raise SolverError("matrix couples two channels; no opening factor")
        A_ch = np.zeros((n_chan, mc, mc))
        A_ch[cr // mc, cr % mc, cc % mc] = cv
        A_ch[:, np.arange(mc), np.arange(mc)] += np.bincount(bc, bv, n_chan * mc).reshape(-1, mc)
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A_ch))
        except np.linalg.LinAlgError as exc:
            raise SolverError("a channel block is not positive definite") from exc
        self.chan_inv = np.matmul(L_inv.transpose(0, 2, 1), L_inv)

        # the opening faces by node-major position of their bulk cell, so channel by channel
        where = np.empty(len(bulk), dtype=np.int64)
        where[self.modes.order] = np.arange(len(bulk))
        p = where[br]
        if np.any(p // m // (nb // n_chan) != bc // mc):
            raise SolverError("a bulk cell is coupled to a channel outside its column")
        by_p = np.argsort(p, kind="stable")
        p, self.face_c, t = p[by_p], bc[by_p], -bv[by_p]  # face_c: the channel cell q
        if np.any(np.diff(p) == 0):
            raise SolverError("a bulk cell touches two channel cells; no opening factor")
        per_chan = np.bincount(self.face_c // mc, minlength=n_chan)
        if np.any(per_chan != per_chan[0]):
            raise SolverError("channels with unequal openings; no opening factor")
        cols, col = np.unique(p // m, return_inverse=True)
        self.rows, row = np.unique(p % m, return_inverse=True)
        self.slot = col * len(self.rows) + row  # p in the (opening column, opening row) grid
        self.qc = self.modes.dct[:, cols]
        self.S_rows = self.modes.S[self.rows]

        # Z = T^-1 + P A_sep^-1 P^T + Q A_ch^-1 Q^T, the bulk part by pairs of opening rows
        R, nr = len(p), int(per_chan[0])
        Z = np.empty((R, R))
        for s, r in enumerate(self.rows):
            for s2, r2 in enumerate(self.rows):
                inv_rr2 = self.modes.inv_D @ (self.S_rows[s] * self.S_rows[s2])  # per mode
                pair = self.qc.T @ (inv_rr2[:, None] * self.qc)
                Z[np.ix_(row == s, row == s2)] = pair[np.ix_(col[row == s], col[row == s2])]
        Z[np.diag_indices(R)] += 1.0 / t
        j, local = np.arange(n_chan), (self.face_c % mc).reshape(n_chan, nr)
        Z.reshape(n_chan, nr, n_chan, nr)[j, :, j, :] += self.chan_inv[
            j[:, None, None], local[:, :, None], local[:, None, :]]
        self.W = np.linalg.inv(Z)

    def solve(self, b) -> np.ndarray:
        """x with A x = b: channels and bulk modes, the face correction, channels."""
        modes = self.modes
        nb, m = modes.inv_D.shape
        n_chan, mc = self.chan_inv.shape[:2]
        b_c = b[self.chan]
        x_c = np.matmul(self.chan_inv, b_c.reshape(n_chan, mc, 1)).reshape(-1)
        y = (modes.dct @ b[self.bulk].reshape(nb, m)) @ modes.S  # by mode and eigenvector
        y *= modes.inv_D
        s = (self.qc.T @ (y @ self.S_rows.T)).reshape(-1)[self.slot] - x_c[self.face_c]
        q = self.W @ s
        z = np.zeros((self.qc.shape[1], len(self.rows)))
        z.flat[self.slot] = q
        y -= ((self.qc @ z) @ self.S_rows) * modes.inv_D
        x = np.empty_like(b)
        x[self.bulk] = (modes.dct.T @ (y @ modes.S.T)).reshape(-1)
        b_c += np.bincount(self.face_c, q, n_chan * mc)
        x[self.chan] = np.matmul(self.chan_inv, b_c.reshape(n_chan, mc, 1)).reshape(-1)
        return x


def solve_spd(A: SparseMatrix, b, x0=None) -> np.ndarray:
    """Direct solve down to ||Ax - b|| <= SOLVER_TOL * ||b||, warm-started at x0.

    Returns x0 itself when it already meets the tolerance, otherwise x0 plus
    the factored correction.  Raises SolverError when ||b|| is not finite, and
    with the true relative residual when the corrected x misses the tolerance
    or is not finite.

    From x0 this is one step of iterative refinement, and it keeps the deep
    micro rungs under the tolerance of 1e-12: over the first 12 steps at dt
    1/512 the worst relative residual is 3.5e-13 on an hourglass channel at
    1/eps 128 and 3.7e-13 on b1 at 1/eps 256, against 6.6e-13 and 6.2e-13
    for a one-shot `factor.solve(b)`.
    """
    M = A.csr
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    if not np.isfinite(nb):
        raise SolverError(f"right-hand side is not finite (norm {nb})")
    if nb == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - M @ x
    if float(np.linalg.norm(r)) <= SOLVER_TOL * nb:
        return x
    x += A.factor.solve(r)
    final = float(np.linalg.norm(b - M @ x)) / nb
    if not final <= SOLVER_TOL:  # a NaN residual fails too
        raise SolverError(
            f"direct solve missed tol={SOLVER_TOL:g} (relative residual {final:.3e})",
            residual=final,
        )
    return x
