"""Sparse SPD solves for the implicit diffusion steps, in numpy alone.

Every implicit system is a weighted graph Laplacian, a sum of two-point
terms t (e_a - e_b)(e_a - e_b)^T: `laplacian` builds its canonical `CSR`
from the (a, b, t) pairs, symmetric with zero row sums by construction.
A `SparseMatrix` is a CSR, a block label per unknown and the
factorization that reads them; it is factored once, and every solve reuses
the factor.  `plus_diagonal` keeps both, so a simulator names its factorization
once, in its stiffness K, and gets every system it solves from K:

* `CosineModes` (the limit model, one interface node per block): the
  operator is the same block at every node plus a uniform coupling along
  the interface, so cosine modes along the interface decouple it exactly.
  Construction reads that block and the coupling from the first block's
  rows and diagonalises every mode block in one eigenbasis (fast
  diagonalisation); a solve is an orthonormal DCT-II along the blocks, one
  product with the eigenbasis, a scaling, and both back.
* `OpeningCapacitance` (the micro grid: bulk cells by grid column, channel
  cells by channel): with its R opening faces taken off, the bulk is
  separable along the columns and is solved in the same cosine modes, and
  the channels are isolated equal-size blocks, inverted in one batched
  call.  The faces come back through one symmetric Woodbury update, a dense
  R x R capacitance system on them.  Construction reads the bulk from the
  rows of grid column 0, and the channels and the faces from the channel
  rows.  A solve is the same two transforms as `CosineModes` plus one
  R x R product and two batched channel solves, with no loop over columns.

The transform is chosen by size.  Below FFT_BLOCKS = 256 blocks it is one
dense n_blocks x n_blocks product each way (`DenseCosine`); from 256 on it
is Makhoul's DCT-II through one real FFT (`FastCosine`), O(n_blocks log
n_blocks) per unknown of a block, with no n_blocks x n_blocks matrix kept.
With BLAS on one thread an `OpeningCapacitance` solve on b1's grid takes
0.055 / 0.12 ms dense at 64 / 128 blocks against 0.079 / 0.13 ms through
the FFT, and 0.53 / 2.1 / 11.5 ms dense at 256 / 512 / 1024 blocks against
0.31 / 0.93 / 3.4 ms through the FFT.

Neither factor reads the whole matrix or compares it with its form.  Each
construction ends with one probe solve (`_probe`, Freivalds' randomized
check): for b = A z, z a fixed random vector, the factor's x must meet
SOLVER_TOL, or the matrix is refused.

A CSR keeps no row index.  Its product runs in the form chosen by size:
`DiagonalOffsets` (values only, one vector per stored diagonal offset:
every micro system) or `PaddedSlices` (column and value slices: the limit
model, whose rows reach hundreds of offsets).  `solve_spd` returns its x
read-only and leaves the product of its final residual check on the
system, where the next solve from that x starts, so a run makes one sparse
product per step.

All run in a fixed order, so repeated solves of identical systems are
bit-identical.  The tests keep a block LDL^T sweep as the oracle of both.
"""

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SolverError

# relative residual of every solve
SOLVER_TOL = 1e-12
# the fewest blocks at which a factor's cosine transform runs through numpy.fft
FFT_BLOCKS = 256


@dataclass(eq=False)
class CSR:
    """Canonical compressed sparse rows: each row's columns sorted and unique.

    `A @ x` sums each row left to right from zero, so it is reproducible to
    the bit.  Index arrays are int32 unless the size needs int64.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def getrow(self, i) -> "CSR":
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return CSR(np.array([0, hi - lo]), self.indices[lo:hi], self.data[lo:hi],
                   (1, self.shape[1]))

    def at(self, rows, cols) -> np.ndarray:
        """A[rows[i], cols[i]] for each i, 0 where no entry is stored."""
        n = self.shape[1]
        # canonical rows make row * n + column ascending over `data`; one key past them all
        keys = np.append(np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)) * n
                         + self.indices, self.shape[0] * n)
        want = np.asarray(rows) * n + np.asarray(cols)
        at = np.searchsorted(keys, want)
        return np.where(keys[at] == want, np.append(self.data, 0.0)[at], 0.0)

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Position in `data` of every row's diagonal entry."""
        at = np.full(self.shape[0], -1)
        for _, rows, slot in self._slots():
            on = self.indices[slot] == rows
            at[rows[on]] = slot[on]
        if np.any(at < 0):
            raise SolverError("a row stores no diagonal entry")
        return at

    def plus_diagonal(self, d, scale=1.0) -> "CSR":
        """scale * A + diag(d) on A's pattern, which must store every diagonal entry."""
        data = scale * self.data
        data[self._diagonal] += d
        return CSR(self.indptr, self.indices, data, self.shape)

    def _slots(self):
        """(r, rows, at) for every r below the longest row: the rows that store an r-th
        entry and its position in `data`, so no array as long as `data` is made."""
        starts, lengths = self.indptr[:-1], np.diff(self.indptr)
        for r in range(lengths.max(initial=0)):
            rows = np.flatnonzero(lengths > r)
            yield r, rows, starts[rows] + r

    def _offsets(self) -> np.ndarray:
        """The stored diagonal offsets (column - row), ascending."""
        seen = np.zeros(sum(self.shape) - 1, dtype=bool)
        for _, rows, at in self._slots():
            seen[self.indices[at] - rows + self.shape[0] - 1] = True
        return np.flatnonzero(seen) - (self.shape[0] - 1)

    @cached_property
    def product_form(self):
        """The form `A @ x` runs in, chosen by size: `DiagonalOffsets` when its values
        (8 B per offset per row) take fewer bytes than `PaddedSlices`' values and
        column table (16 B per slot, as many slots per row as the longest row)."""
        longest = int(np.diff(self.indptr).max(initial=0))
        return (DiagonalOffsets if 8 * len(self._offsets()) < 16 * longest else PaddedSlices)(self)

    def __matmul__(self, x) -> np.ndarray:
        return self.product_form(np.asarray(x, dtype=float))


class PaddedSlices:
    """A @ x from (longest row, n) column and value slices, entry r of every row in slice r.

    Rows shorter than the longest are padded at the end with value 0 at column 0.
    A product sums the slices left to right from zero, the order of a CSR row loop.
    """

    def __init__(self, csr):
        self.cols = np.zeros((np.diff(csr.indptr).max(initial=0), csr.shape[0]), dtype=np.intp)
        self.vals = np.zeros(self.cols.shape)
        for r, rows, at in csr._slots():
            self.cols[r, rows] = csr.indices[at]
            self.vals[r, rows] = csr.data[at]

    def __call__(self, x) -> np.ndarray:
        terms = np.take(x, self.cols)
        terms *= self.vals
        return np.add.reduce(terms, axis=0, initial=0.0)


class DiagonalOffsets:
    """A @ x from the stored diagonals: values only, A[i, i + d] at [d's slot, i].

    Row i holds 0 at an offset where it stores nothing.  A product adds each
    offset's terms into zeros in ascending offset order, which is every row's
    stored column order; the term of an entry the row does not store is a signed
    zero, which leaves a sum begun at +0.0 as it is.  So for a finite x every row
    has the bits of a CSR row loop.
    """

    def __init__(self, csr):
        offsets = csr._offsets()
        self.offsets = tuple(int(d) for d in offsets)
        self.vals = np.zeros((len(offsets), csr.shape[0]))
        for _, rows, at in csr._slots():
            self.vals[np.searchsorted(offsets, csr.indices[at] - rows), rows] = csr.data[at]

    def __call__(self, x) -> np.ndarray:
        n = self.vals.shape[1]
        y = np.zeros(n)
        term = np.empty(n)
        for d, vals in zip(self.offsets, self.vals):
            lo, hi = max(0, -d), min(n, len(x) - d)  # the rows whose column i + d exists
            np.multiply(vals[lo:hi], x[lo + d:hi + d], out=term[lo:hi])
            y[lo:hi] += term[lo:hi]
        return y


@dataclass
class SparseMatrix:
    """A CSR with the factorization that solves it.

    `factorization` is the factor class built from (csr, blocks) on first
    use; `blocks` labels every unknown with its block, in the encoding that
    factorization reads (None is one block).  `carried` is (x, csr @ x) of the
    last `solve_spd` that returned x, or None.
    """

    csr: CSR
    factorization: type
    blocks: np.ndarray = None
    carried: tuple = field(default=None, repr=False)

    @cached_property
    def factor(self):
        return self.factorization(self.csr, self.blocks)

    def plus_diagonal(self, d, scale=1.0) -> "SparseMatrix":
        """scale * A + diag(d), solved by the same factorization over the same blocks."""
        return SparseMatrix(self.csr.plus_diagonal(d, scale), self.factorization, self.blocks)


def laplacian(parts, n) -> CSR:
    """The n x n CSR of the sum of t (e_a - e_b)(e_a - e_b)^T over every pair of `parts`.

    `parts` is a list of (a, b, t) arrays, each broadcast together.  The
    matrix is symmetric with zero row sums by construction: -t at (a, b) and
    (b, a), and every row's diagonal (stored even where no pair ends) summed
    from zero over the parts in their order, a part's a-sides before its
    b-sides.  A pair on the diagonal, an index outside the matrix or a pair
    given twice, in either orientation, raises ValueError.
    """
    ends, other, weight = [], [], []
    for part in parts:
        a, b, t = (np.ravel(x) for x in np.broadcast_arrays(*part))
        ends += [a, b]
        other += [b, a]
        weight += [t, t]
    ends, other, weight = map(np.concatenate, (ends, other, weight))
    if len(ends) and (ends.min() < 0 or ends.max() >= n):  # `other` holds the same indices
        raise ValueError(f"pair index outside the {n} x {n} matrix")
    if np.any(ends == other):
        raise ValueError("pair on the diagonal")
    keys = np.concatenate([ends * n + other, np.arange(n) * (n + 1)])
    order = np.argsort(keys)
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("pair given twice")
    index = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    data = np.concatenate([-weight, np.bincount(ends, weight, n)])[order]
    return CSR(indptr, (keys % n).astype(index), data, (n, n))


def _entries(csr, rows):
    """(i, column, value) of every entry stored in row rows[i], row by row in stored order."""
    lo, hi = csr.indptr[rows], csr.indptr[rows + 1]
    length = hi - lo
    i = np.repeat(np.arange(len(rows)), length)
    at = np.arange(len(i)) + np.repeat(lo - (np.cumsum(length) - length), length)
    return i, csr.indices[at], csr.data[at]


def _dct_columns(nb, cols) -> np.ndarray:
    """Columns `cols` of the orthonormal nb-point DCT-II matrix Q,
    Q[k, j] = s_k cos(pi k (2 j + 1) / (2 nb)), s_0 = sqrt(1 / nb) and s_k = sqrt(2 / nb)."""
    modes = np.arange(nb)
    return np.sqrt(np.where(modes == 0, 1.0, 2.0) / nb)[:, None] * np.cos(
        np.pi * np.outer(modes, 2 * cols + 1) / (2 * nb)
    )


class DenseCosine:
    """Q x and Q^T y along axis 0 as one dense product each, Q = `_dct_columns` of every block."""

    def __init__(self, nb):
        self.Q = _dct_columns(nb, np.arange(nb))

    def gather(self, order) -> np.ndarray:
        """The node-major index `order` in the block order `forward` reads: as it is."""
        return order

    def forward(self, x) -> np.ndarray:
        return self.Q @ x

    def inverse(self, y) -> np.ndarray:
        return self.Q.T @ y


class FastCosine:
    """Q x and Q^T y along axis 0 through one real FFT each (Makhoul, IEEE Trans. ASSP 28
    (1980) 27-34), in O(nb log nb) per column and with no nb x nb matrix.

    `forward` reads the blocks of x even ones up, then odd ones down
    (v = x[0], x[2], ..., x[3], x[1]; `gather` puts them so).  With V = FFT(v)
    and Y_k = s_k exp(-i pi k / (2 nb)) V_k for 0 <= k <= nb / 2, (Q x)_k = Re Y_k
    and (Q x)_{nb-k} = -Im Y_k.  `inverse` builds Y from y = Q x the same way,
    undoes the twiddle and returns v = Q^T y, its blocks in that same order.
    """

    def __init__(self, nb):
        half = np.arange(nb // 2 + 1)
        self.twiddle = (np.exp(-0.5j * np.pi * half / nb)
                        * np.sqrt(np.where(half == 0, 1.0, 2.0) / nb))[:, None]
        self.untwiddle = 1.0 / self.twiddle  # a product, not a complex division, per solve
        blocks = np.arange(nb)
        self.perm = np.concatenate([blocks[::2], blocks[1::2][::-1]])

    def gather(self, order) -> np.ndarray:
        """The node-major index `order` with its nodes in the order `forward` reads them."""
        return order.reshape(len(self.perm), -1)[self.perm].reshape(-1)

    def forward(self, v) -> np.ndarray:
        nb, h = len(self.perm), len(self.twiddle)
        Y = np.fft.rfft(v, axis=0)  # numpy.fft loads here, in a run with such a factor only
        Y *= self.twiddle
        y = np.empty(v.shape)
        y[:h] = Y.real
        np.negative(Y.imag[nb - h:0:-1], out=y[h:])  # y[nb - k] = -Im Y_k
        return y

    def inverse(self, y) -> np.ndarray:
        nb, h = len(self.perm), len(self.twiddle)
        Y = np.empty((h,) + y.shape[1:], dtype=complex)
        Y.real = y[:h]
        Y.imag[0] = 0.0
        np.negative(y[:nb - h:-1], out=Y.imag[1:])  # Im Y_k = -y[nb - k]
        Y *= self.untwiddle
        return np.fft.irfft(Y, nb, axis=0)


def _cosine_modes(csr, unknowns, labels):
    """The cosine-mode factor of the matrix on `unknowns`, blocks labelled by `labels`.

    Returns `unknowns` node-major (by block, each block in ascending order),
    the cosine transform along the blocks (`FastCosine` from FFT_BLOCKS blocks
    on, `DenseCosine` below), S and 1 / D of `CosineModes`.  A0 and c are read
    from the first block's rows alone: A0 from their entries in that block,
    c_i from row i's coupling to row i of the second block.  Blocks of unequal
    size, an A0 without a Cholesky factor or a mode with some D_k <= 0 raise
    SolverError; whether the rest of the matrix has the form is left to the
    factor's probe (`_probe`).
    """
    label = np.unique(labels, return_inverse=True)[1]
    sizes = np.bincount(label)
    nb, m = len(sizes), int(sizes[0])
    if np.any(sizes != m):
        raise SolverError("blocks of unequal size; no cosine-mode factor")
    order = unknowns[np.argsort(label, kind="stable")]
    first, second = order[:m], order[m:2 * m]  # each ascending, as `unknowns` is
    i, j, v = _entries(csr, first)
    at = np.minimum(np.searchsorted(first, j), m - 1)
    inside = first[at] == j
    A0 = np.zeros((m, m))
    A0[i[inside], at[inside]] = v[inside]
    coef = np.zeros(m)
    if nb > 1:  # block 0 is A0 + diag(c): K's first diagonal entry is 1
        beside = j == second[i]
        coef[i[beside]] = -v[beside]
        A0[np.diag_indices(m)] -= coef

    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(A0))
    except np.linalg.LinAlgError as exc:
        raise SolverError("mode 0 is not positive definite") from exc
    mu, V = np.linalg.eigh((L_inv * coef) @ L_inv.T)
    D = 1.0 + np.outer(2.0 - 2.0 * np.cos(np.pi * np.arange(nb) / nb), mu)
    indefinite = np.flatnonzero(np.any(D <= 0.0, axis=1))
    if len(indefinite):
        raise SolverError(f"mode {indefinite[0]} is not positive definite")
    transform = (FastCosine if nb >= FFT_BLOCKS else DenseCosine)(nb)
    return order, transform, L_inv.T @ V, 1.0 / D


def _probe(factor, csr) -> float:
    """Freivalds' check that `factor` inverts `csr`: one cold solve of b = csr z.

    A factor reads a few rows of its matrix and assumes the form of the rest.
    With z a fixed random vector, the solve's relative residual
    ||b - csr x|| / ||b|| must meet SOLVER_TOL, or SolverError is raised;
    returns that residual.  b is taken in the range of csr, not at random,
    so that a correct factor stays at round-off however ill-conditioned csr
    is: on the limit model's steady conduction system (no mass term) at
    n_sigma 128 it reads 5.8e-14, where a random b reads 1.9e-11.
    """
    # z uniform on [-1/2, 1/2) from the stdlib generator, which a run imports anyway;
    # numpy.random would add its extension modules to every run's memory
    z = np.frombuffer(random.Random(1977).randbytes(8 * csr.shape[0]), dtype=np.uint64)
    b = csr @ ((z >> 11) * 2.0**-53 - 0.5)
    residual = float(np.linalg.norm(b - csr @ factor.solve(b))) / float(np.linalg.norm(b))
    if not residual <= SOLVER_TOL:  # a NaN residual fails too
        raise SolverError(
            f"{type(factor).__name__} does not invert its matrix: the probe solve missed "
            f"tol={SOLVER_TOL:g} (relative residual {residual:.3e})",
            residual=residual,
        )
    return residual


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

    so the factor keeps S (m x m) and 1 / D (n x m).  Q (x) I is the
    factor's `transform`, chosen by n: the dense Q below FFT_BLOCKS blocks,
    one real FFT from there on, whose block order (even blocks up, odd ones
    down) is folded into the gather index `order`.  Construction reads A0
    and c from the first block's rows (`_cosine_modes`); every mode block
    must be positive definite (A0 has a Cholesky factor and every D_k > 0),
    and one probe solve must show that the factor inverts the whole matrix
    (`_probe`), or SolverError is raised.
    """

    def __init__(self, csr, blocks):
        order, self.transform, self.S, self.inv_D = _cosine_modes(
            csr, np.arange(csr.shape[0]), blocks)
        self.order = self.transform.gather(order)
        _probe(self, csr)

    def solve(self, b) -> np.ndarray:
        """x with A x = b: transform, scale in the eigenbasis, inverse transform."""
        nb, m = self.inv_D.shape
        y = self.transform.forward(b[self.order].reshape(nb, m)) @ self.S
        y *= self.inv_D
        x = np.empty_like(b)
        x[self.order] = self.transform.inverse(y @ self.S.T).reshape(-1)
        return x


class OpeningCapacitance:
    """Exact solve of two separable bulk blocks joined by isolated channels.

    `blocks` labels a bulk unknown with its grid column (>= 0) and a channel
    unknown with -1 - its channel (< 0).  The matrix must have this form:

    * A_BC couples a bulk cell p to at most one channel cell q, of the channel
      of its own column (channel = column // k, k = columns per channel), and
      every channel has as many such opening faces.  Each is a two-point term
      t (e_p - e_q)(e_p - e_q)^T with t = -A_BC[p, q].
    * Without its R opening faces the matrix is B = blockdiag(A_sep, A_ch):
      A_sep, the bulk, is separable along the columns and is factored in
      cosine modes (`CosineModes`); A_ch is block diagonal, one block of
      equal size per channel, inverted in one batched call.

    Construction reads the modes from the rows of bulk column 0: a channel is
    centred and narrower than its cell, so column 0 holds no opening and its
    rows are A_sep's own.  It reads the channel blocks and
    the opening faces from the channel rows alone: an entry in the row's own
    channel belongs to A_ch, an entry in a bulk column is a face, with the
    bits of its mirror A_BC[p, q].  With U = P^T - Q^T the faces' columns
    e_p - e_q and T = diag(t), Woodbury gives

        A^{-1} = B^{-1} - B^{-1} U Z^{-1} U^T B^{-1},
        Z = T^{-1} + P A_sep^{-1} P^T + Q A_ch^{-1} Q^T,

    and Z is symmetric positive definite.  Its bulk part is read off the
    cosine modes' eigenbasis at (opening column, opening row) through `qc`,
    the DCT-II columns of the opening columns in closed form; its channel
    part is gathered from the channel inverses, and Z^{-1} is kept dense.
    The bulk's transform is chosen by size as in `CosineModes`, dense or
    through the FFT, and the FFT's block order is folded into `bulk`.  A
    solve is a batched channel solve, the forward transform into the modes'
    eigenbasis, the gather s = x_B[P] - x_C[Q], one R x R product, the
    correction in the eigenbasis and the inverse transform, and a second
    batched channel solve.  Labels the build cannot shape its arrays from,
    a block that is not positive definite, and a matrix of any other form,
    which the probe solve (`_probe`) finds, raise SolverError.
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

        # node-major: column, then row
        order, self.transform, self.S, self.inv_D = _cosine_modes(csr, bulk, blocks[bulk])
        nb, m = self.inv_D.shape

        # position of every channel cell in `chan` and of every bulk cell in `bulk`
        where = np.empty(len(blocks), dtype=np.int64)
        where[self.chan] = np.arange(len(chan))
        where[order] = np.arange(len(bulk))
        # channel rows: an entry in the row's own channel is A_ch's, one in a bulk column a face
        i, j, v = _entries(csr, self.chan)
        face = blocks[j] >= 0
        own = ~face & (where[j] // mc == i // mc)
        A_ch = np.zeros((n_chan, mc, mc))
        A_ch[i[own] // mc, i[own] % mc, where[j[own]] % mc] = v[own]
        A_ch[:, np.arange(mc), np.arange(mc)] += np.bincount(
            i[face], v[face], n_chan * mc).reshape(-1, mc)
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A_ch))
        except np.linalg.LinAlgError as exc:
            raise SolverError("a channel block is not positive definite") from exc
        self.chan_inv = np.matmul(L_inv.transpose(0, 2, 1), L_inv)

        # the opening faces by node-major position of their bulk cell, so channel by channel
        p = where[j[face]]
        by_p = np.argsort(p, kind="stable")
        p, self.face_c, t = p[by_p], i[face][by_p], -v[face][by_p]  # face_c: the channel cell q
        per_chan = np.bincount(self.face_c // mc, minlength=n_chan)
        if np.any(per_chan != per_chan[0]):
            raise SolverError("channels with unequal openings; no opening factor")
        cols, col = np.unique(p // m, return_inverse=True)
        self.rows, row = np.unique(p % m, return_inverse=True)
        self.slot = col * len(self.rows) + row  # p in the (opening column, opening row) grid
        # column-major, as a column slice of the dense DCT is: BLAS rounds by the operands'
        # layout, and this one keeps the bits of every factor under FFT_BLOCKS columns
        self.qc = np.asfortranarray(_dct_columns(nb, cols))
        self.S_rows = self.S[self.rows]

        # Z = T^-1 + P A_sep^-1 P^T + Q A_ch^-1 Q^T, the bulk part by pairs of opening rows
        R, nr = len(p), int(per_chan[0])
        Z = np.empty((R, R))
        for s, r in enumerate(self.rows):
            for s2, r2 in enumerate(self.rows):
                inv_rr2 = self.inv_D @ (self.S_rows[s] * self.S_rows[s2])  # per mode
                pair = self.qc.T @ (inv_rr2[:, None] * self.qc)
                Z[np.ix_(row == s, row == s2)] = pair[np.ix_(col[row == s], col[row == s2])]
        Z[np.diag_indices(R)] += 1.0 / t
        j, local = np.arange(n_chan), (self.face_c % mc).reshape(n_chan, nr)
        Z.reshape(n_chan, nr, n_chan, nr)[j, :, j, :] += self.chan_inv[
            j[:, None, None], local[:, :, None], local[:, None, :]]
        self.W = np.linalg.inv(Z)
        del Z  # freed before the probe solve
        self.bulk = self.transform.gather(order)
        _probe(self, csr)

    def solve(self, b) -> np.ndarray:
        """x with A x = b: channels and bulk modes, the face correction, channels."""
        nb, m = self.inv_D.shape
        n_chan, mc = self.chan_inv.shape[:2]
        b_c = b[self.chan]
        x_c = np.matmul(self.chan_inv, b_c.reshape(n_chan, mc, 1)).reshape(-1)
        y = self.transform.forward(b[self.bulk].reshape(nb, m)) @ self.S  # by mode, eigenvector
        y *= self.inv_D
        s = (self.qc.T @ (y @ self.S_rows.T)).reshape(-1)[self.slot] - x_c[self.face_c]
        q = self.W @ s
        z = np.zeros((self.qc.shape[1], len(self.rows)))
        z.flat[self.slot] = q
        y -= ((self.qc @ z) @ self.S_rows) * self.inv_D
        x = np.empty_like(b)
        x[self.bulk] = self.transform.inverse(y @ self.S.T).reshape(-1)
        b_c += np.bincount(self.face_c, q, n_chan * mc)
        x[self.chan] = np.matmul(self.chan_inv, b_c.reshape(n_chan, mc, 1)).reshape(-1)
        return x


def solve_spd(A: SparseMatrix, b, x0=None) -> np.ndarray:
    """Direct solve down to ||Ax - b|| <= SOLVER_TOL * ||b||, warm-started at x0.

    Returns a copy of x0 when x0 already meets the tolerance, otherwise x0 plus
    the factored correction.  Raises SolverError when an entry of b is not
    finite, and with the true relative residual when the corrected x misses
    the tolerance or is not finite.  A finite b whose norm overflows, or
    underflows to 0, is solved as b / 2**e, with 2**e the power of two just
    above max |b|, and the solution is scaled back; both scalings are exact.

    The returned x is read-only, and A carries the product A x of its final
    residual check (`A.carried`).  A later solve whose x0 is that very array
    starts from the carried product, so a run stepping from each returned x
    makes one sparse product per step; any other x0, an equal copy included,
    is multiplied afresh.

    From x0 this is one step of iterative refinement, and it keeps the deep
    micro rungs under the tolerance of 1e-12: over the first 12 steps at dt
    1/512 the worst relative residual is 3.5e-13 on an hourglass channel at
    1/eps 128 and 3.7e-13 on b1 at 1/eps 256, against 5.3e-13 and 4.5e-13
    for a one-shot `factor.solve(b)`.
    """
    M = A.csr
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore"):
        nb = float(np.linalg.norm(b))
    if not np.isfinite(nb) and not np.isfinite(b).all():
        raise SolverError(f"right-hand side is not finite (norm {nb})")
    if not np.isfinite(nb) or (nb == 0.0 and b.any()):  # the sum of squares over/underflows
        e = int(np.frexp(np.max(np.abs(b)))[1])
        y0 = None if x0 is None else np.ldexp(np.asarray(x0, dtype=float), -e)
        y = solve_spd(A, np.ldexp(b, -e), y0)
        with np.errstate(over="ignore"):
            x = np.ldexp(y, e)
        if not np.isfinite(x).all():
            raise SolverError(f"solution overflows float64 (solved for b / 2**{e})")
        return _read_only(x)
    if nb == 0.0:
        return _read_only(np.zeros_like(b))
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    Mx = A.carried[1] if A.carried is not None and x0 is A.carried[0] else M @ x
    r = b - Mx
    if float(np.linalg.norm(r)) > SOLVER_TOL * nb:
        x += A.factor.solve(r)
        Mx = M @ x
        final = float(np.linalg.norm(b - Mx)) / nb
        if not final <= SOLVER_TOL:  # a NaN residual fails too
            raise SolverError(
                f"direct solve missed tol={SOLVER_TOL:g} (relative residual {final:.3e})",
                residual=final,
            )
    A.carried = (_read_only(x), Mx)
    return x


def _read_only(x) -> np.ndarray:
    x.flags.writeable = False
    return x
