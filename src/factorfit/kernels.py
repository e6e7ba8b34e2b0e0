"""Dense numerical primitives shared by both factor-analysis fitters.

Everything here operates on 64-bit float arrays and is a pure function:
safe to call concurrently from multiple workers. Reductions and the
radial-basis lookup sum axis contributions in a fixed order so results
do not depend on the execution backend.

:func:`_split_matmul` runs one wide product in column parts whose number
depends on the output's shape only: the parts after the first run on one
process-wide thread pool, sized to the CPUs the process may use, so the
bits never depend on the CPU count, the backend or the rank split.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DefinitenessError,
    DomainError,
    InvalidInputError,
    RankError,
    ShapeError,
)

__all__ = [
    "VoxelGrid",
    "trace_ata",
    "add_diag",
    "spd_inverse",
    "polar_orthogonal",
    "grid_sq_distances",
    "rbf_factor_matrix",
    "rbf_factor_matrix_direct",
    "residual_fro",
    "row_residual_energy",
    "center_stats",
    "check_centered",
    "row_blocks",
]

#: Columns whose singular value falls below this multiple of the largest
#: are treated as rank deficient by :func:`polar_orthogonal`.
RANK_TOLERANCE = 1e-12

#: Rows per block of :func:`row_blocks`.
ROW_BLOCK = 64

#: Fewest output columns of one part of :func:`_split_matmul`.
SPLIT_COLUMNS = 1024

_pool = None
_pool_lock = threading.Lock()


def _as_matrix(a, name="matrix"):
    return _check_matrix(np.ascontiguousarray(a, dtype=np.float64), name)


def _check_matrix(out, name):
    """Refuse a matrix that is not 2-D, is empty or holds NaN or inf."""
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column")
    if not _all_finite(out):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return out


def _all_finite(a):
    """Whether every entry of ``a`` is finite (true when it has none): read
    through its min and max, which any NaN or inf reaches, so no array of
    ``a``'s size is allocated."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


class VoxelGrid:
    """Voxel center coordinates with their per-axis decomposition.

    Parameters
    ----------
    positions : ndarray, shape (V, 3)
        Voxel center coordinates (arbitrary length units).
    axis_values : tuple of three 1-D ndarrays
        Sorted unique coordinate values per axis.
    voxel_axis_index : ndarray, shape (V, 3), integer
        Index of each voxel's coordinate into ``axis_values`` per axis,
        so ``axis_values[d][voxel_axis_index[v, d]] == positions[v, d]``
        exactly.

    Use :meth:`from_positions` to build a grid from raw coordinates; the
    direct constructor trusts its arguments.
    """

    __slots__ = ("positions", "axis_values", "voxel_axis_index")

    def __init__(self, positions, axis_values, voxel_axis_index):
        self.positions = positions
        self.axis_values = axis_values
        self.voxel_axis_index = voxel_axis_index

    @classmethod
    def from_positions(cls, positions):
        """Decompose voxel coordinates into per-axis lookup tables.

        Raises
        ------
        InvalidInputError
            If two voxels share a position, which the error counts.
        """
        pos = _as_matrix(positions, "positions")
        if pos.shape[1] != 3:
            raise ShapeError(f"positions must have 3 columns, got {pos.shape[1]}")
        axis_values = []
        index = np.empty(pos.shape, dtype=np.intp)
        for d in range(3):
            vals, inv = np.unique(pos[:, d], return_inverse=True)
            axis_values.append(vals)
            index[:, d] = inv
        cells = np.ravel_multi_index(index.T, [v.size for v in axis_values])
        distinct = np.unique(cells).size
        if distinct < pos.shape[0]:
            raise InvalidInputError(
                f"positions hold {distinct} distinct points for {pos.shape[0]} "
                "voxels: every voxel needs its own position"
            )
        return cls(pos, tuple(axis_values), index)

    def take(self, indices):
        """Restrict the grid to ``indices`` (repeats allowed).

        The axis tables are shared with the parent, so the cached RBF
        evaluation still pays only O(n_x + n_y + n_z) per factor.
        """
        indices = np.asarray(indices, dtype=np.intp)
        return VoxelGrid(
            self.positions[indices],
            self.axis_values,
            self.voxel_axis_index[indices],
        )

    @property
    def n_voxels(self):
        return self.positions.shape[0]

    @property
    def axis_counts(self):
        return tuple(v.size for v in self.axis_values)

    def bounding_box(self):
        """Per-axis (lower, upper) bounds of the voxel coordinates."""
        lo = np.array([v[0] for v in self.axis_values])
        hi = np.array([v[-1] for v in self.axis_values])
        return lo, hi

    @property
    def diameter(self):
        """Largest per-axis extent; used to scale factor-width bounds."""
        lo, hi = self.bounding_box()
        return float(np.max(hi - lo))


def trace_ata(A):
    """trace(A^T A) as the sum of squared entries, without forming A^T A."""
    A = _as_matrix(A, "A")
    return float(np.einsum("ij,ij->", A, A))


def add_diag(A, c):
    """Return A + c*I, leaving off-diagonal entries untouched."""
    A = _as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"add_diag needs a square matrix, got {A.shape}")
    out = A.copy()
    out[np.diag_indices_from(out)] += c
    return out


def spd_inverse(A):
    """Invert a symmetric positive definite matrix via Cholesky.

    The result is exactly symmetric, mirrored from its lower triangle. A
    failed factorization raises :class:`DefinitenessError` naming the
    0-based pivot index at which positive definiteness broke down.
    """
    A = _as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"spd_inverse needs a square matrix, got {A.shape}")
    chol, info = lapack.dpotrf(A, lower=1, overwrite_a=0)
    if info > 0:
        raise DefinitenessError("matrix is not positive definite", pivot=info - 1)
    if info < 0:
        raise InvalidInputError(f"illegal value in argument {-info} of dpotrf")
    inv, info = lapack.dpotri(chol, lower=1)
    if info != 0:
        raise DefinitenessError("Cholesky inverse failed", pivot=abs(info) - 1)
    return np.tril(inv) + np.tril(inv, -1).T


def polar_orthogonal(A, atol=0.0):
    """Orthogonal polar factor W = U V^T of A = U S V^T (economy SVD).

    Requires rows >= cols and full column rank: the smallest singular
    value must reach RANK_TOLERANCE times the largest and ``atol``, a
    bound the caller knows on the rounding error in A. The polar factor
    of a full-rank A is unique: flipping the sign of a singular pair
    (U[:, j], V^T[j]) leaves U V^T unchanged, so no sign convention is
    needed.

    A tall A (rows >= 8 cols) takes polar(A) = Q polar(R) (Higham,
    Functions of Matrices, 2008, sec. 8): ``dgeqrt`` keeps Q as one
    compact-WY block, Q = I - V T V^T (Schreiber and Van Loan, SIAM J.
    Sci. Stat. Comput. 10(1), 1989), the rank checks and the SVD see only
    R, and Q [U_R V_R^T; 0] is one rows x cols x cols product with V.
    ``A`` is only read, in any layout: it is copied column-major once, and
    the QR runs in that copy, which becomes the result.
    """
    return _polar(np.array(A, dtype=np.float64, order="F"), atol)[0]


def _polar(A, atol=0.0):
    """:func:`polar_orthogonal` of a column-major float64 ``A`` that it may
    overwrite; returns (W, s), s A's singular values in descending order.

    On the QR route the reflectors go into A's own buffer, W is written
    over them and returned in that buffer, and s are R's singular values,
    which are A's; otherwise s come from the SVD of A. With P = U_R V_R^T
    and V_1 the unit lower triangular top of V, W = [P; 0] - V M for the
    cols x cols M = T (V_1^T P): the rows below the top get -V[rows] M one
    :func:`row_blocks` block at a time, the top rows P - V_1 M from a copy
    of V_1, so beside A only one ``ROW_BLOCK`` x cols block and a few
    cols x cols arrays are allocated.
    """
    rows, cols = _check_matrix(A, "A").shape
    if rows < cols:
        raise ShapeError(f"polar_orthogonal needs rows >= cols, got {A.shape}")
    tall = rows >= 8 * cols
    if tall:
        v, t, info = lapack.dgeqrt(cols, A, overwrite_a=1)
        if info < 0:
            raise InvalidInputError(f"illegal value in argument {-info} of dgeqrt")
        U, s, Vt = np.linalg.svd(np.triu(v[:cols]))
    else:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] < RANK_TOLERANCE * s[0]:
        raise RankError(
            f"rank-deficient input: smallest singular value {s[-1]:.3e} "
            f"below {RANK_TOLERANCE:.0e} * largest {s[0]:.3e}"
        )
    if s[-1] <= atol:
        raise RankError(
            f"rank-deficient input: smallest singular value {s[-1]:.3e} "
            f"within the rounding error {atol:.3e} of the input"
        )
    polar = U @ Vt
    if not tall:
        return polar, s
    v1 = np.tril(v[:cols], -1)
    np.fill_diagonal(v1, 1.0)
    m = -(t @ (v1.T @ polar))
    # v's rows below the top are V's: overwrite each block with -V[rows] M
    below = v[cols:]
    for part, block in row_blocks(below):
        np.matmul(below[part], m, out=block)
        below[part] = block
    polar += v1 @ m
    v[:cols] = polar
    return v, s


def _split_pool():
    """The process-wide pool of :func:`_split_matmul`, created at first use.

    Thread ranks may race to create it, hence the lock.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="factorfit-matmul")
        return _pool


def _split_matmul(a, b, out):
    """``out = a @ b`` in p column parts, p the largest power of two with
    n >= SPLIT_COLUMNS * p for n output columns.

    Part i is one ``np.matmul`` into columns [n i // p, n (i + 1) // p) of
    ``out``, so nothing is allocated and p, hence the bits, depends on the
    shape only. The calling thread computes part 0 and the pool the rest;
    under 2 SPLIT_COLUMNS columns this is one ``np.matmul``.
    """
    n = out.shape[1]
    parts = 1
    while n >= SPLIT_COLUMNS * 2 * parts:
        parts *= 2
    if parts == 1:
        return np.matmul(a, b, out=out)

    def part(i):
        cols = slice(n * i // parts, n * (i + 1) // parts)
        np.matmul(a, b[:, cols], out=out[:, cols])

    futures = [_split_pool().submit(part, i) for i in range(1, parts)]
    try:
        part(0)
    finally:
        # no part may still write into ``out`` once this returns or raises
        wait(futures)
    for future in futures:
        future.result()
    return out


def _check_rbf_args(centers, widths):
    centers = _as_matrix(centers, "centers")
    if centers.shape[1] != 3:
        raise ShapeError(f"centers must be K x 3, got {centers.shape}")
    widths = np.ascontiguousarray(widths, dtype=np.float64).ravel()
    if widths.size != centers.shape[0]:
        raise ShapeError(
            f"widths has {widths.size} entries for {centers.shape[0]} centers"
        )
    if not np.all(np.isfinite(widths)) or np.any(widths <= 0.0):
        raise DomainError("factor widths must be positive and finite")
    return centers, widths


def grid_sq_distances(centers, grid):
    """Squared distances ||p_v - mu_k||^2 from K x 3 ``centers`` to the
    grid's voxels, K x V, from three per-axis lookup tables of shapes
    (K, n_x), (K, n_y), (K, n_z): O(n_x + n_y + n_z) subtractions and
    squarings per center instead of O(3 V). Each table is gathered once
    along the voxels, so at most one K x V temporary lives beside the
    result, and the fixed x + y + z order gives the bits of
    ``((p - mu) ** 2).sum(-1)`` whatever the backend.
    """
    index = grid.voxel_axis_index
    tables = [(v - centers[:, d, None]) ** 2 for d, v in enumerate(grid.axis_values)]
    d2 = np.take(tables[0], index[:, 0], axis=1)
    for d in (1, 2):
        d2 += np.take(tables[d], index[:, d], axis=1)
    return d2


def rbf_factor_matrix(centers, widths, grid):
    """Evaluate K radial-basis factors on a voxel grid, K x V.

    Entry (k, v) is exp(-||p_v - mu_k||^2 / lambda_k), from
    :func:`grid_sq_distances`; the divide, negate and ``exp`` run in
    place in its output.
    """
    centers, widths = _check_rbf_args(centers, widths)
    F = grid_sq_distances(centers, grid)
    F /= widths[:, None]
    np.negative(F, out=F)
    np.exp(F, out=F)
    return F


def rbf_factor_matrix_direct(centers, widths, positions):
    """Uncached reference path of :func:`rbf_factor_matrix`.

    No fit goes through it (``VoxelGrid.from_positions`` decomposes every
    cloud); it is the oracle of criterion 10 and ``validate rbf-cache``.
    """
    centers, widths = _check_rbf_args(centers, widths)
    pos = _as_matrix(positions, "positions")
    if pos.shape[1] != 3:
        raise ShapeError(f"positions must be V x 3, got {pos.shape}")
    F = np.empty((centers.shape[0], pos.shape[0]))
    for k in range(centers.shape[0]):
        d2 = (pos[:, 0] - centers[k, 0]) ** 2 + (pos[:, 1] - centers[k, 1]) ** 2
        d2 += (pos[:, 2] - centers[k, 2]) ** 2
        F[k] = np.exp(-d2 / widths[k])
    return F


def residual_fro(X, W, F):
    """Squared Frobenius norm of X - W @ F: the sum of
    :func:`row_residual_energy`, so the residual is never materialized."""
    X = _as_matrix(X, "X")
    W = _as_matrix(W, "W")
    F = _as_matrix(F, "F")
    if W.shape[1] != F.shape[0] or X.shape != (W.shape[0], F.shape[1]):
        raise ShapeError(
            f"shapes do not conform for X - W @ F: X={X.shape} W={W.shape} F={F.shape}"
        )
    return float(np.sum(row_residual_energy(X, W, F)))


def row_residual_energy(X, W, F):
    """Each row's squared norm ||X_v - W_v F||^2, inputs unchecked, from a
    :func:`row_blocks` walk that holds one block of the residual."""
    out = np.empty(X.shape[0])
    for rows, block in row_blocks(X):
        np.matmul(W[rows], F, out=block)
        np.subtract(X[rows], block, out=block)
        np.einsum("vt,vt->v", block, block, out=out[rows])
    return out


def center_stats(X):
    """Each row's mean mu[v] and centered energy ||X[v] - mu[v]||^2.

    Rows are centered a :func:`row_blocks` block at a time, so ``X`` is
    only read. A row holding inf or NaN gets a NaN energy without a
    floating-point warning; :func:`check_centered` names its subject.
    """
    mu = np.empty(X.shape[0])
    energy = np.empty(X.shape[0])
    with np.errstate(invalid="ignore"):
        for rows, block in row_blocks(X):
            np.mean(X[rows], axis=1, out=mu[rows])
            np.subtract(X[rows], mu[rows, None], out=block)
            np.einsum("vt,vt->v", block, block, out=energy[rows])
    return mu, energy


def check_centered(subject_id, n_trs, mu, energy):
    """Refuse, by name, a subject that is not finite or is constant over time.

    ``mu``, ``energy``: :func:`center_stats` of its V x ``n_trs`` matrix.
    Returns ||X - mu 1^T||^2 and the count of voxels varying beyond rounding.
    """
    # centering a constant voxel with mean m leaves only the rounding
    # error of the mean, under 2 T eps |m| per entry
    rounding = (2.0 * n_trs * np.finfo(np.float64).eps) ** 2 * n_trs
    xhat_sq = float(np.sum(energy))
    if not np.isfinite(xhat_sq):
        raise InvalidInputError(f"subject {subject_id} has NaN or infinite entries")
    if xhat_sq <= rounding * float(mu @ mu):
        raise InvalidInputError(
            f"subject {subject_id} is constant over time: its demeaned "
            "data are zero up to rounding, so it has no mapping to fit"
        )
    return xhat_sq, int(np.count_nonzero(energy > rounding * mu**2))


def row_blocks(X):
    """Yield (rows, scratch) that walk ``X`` ``ROW_BLOCK`` rows at a time.

    ``rows`` slices the next rows of ``X`` and ``scratch`` is a buffer of
    their shape, cut from one buffer allocated for the whole walk, so a
    per-row reduction of a transformed ``X`` (centered, absolute) holds
    one block of it at a time and leaves ``X`` unwritten.
    """
    n_rows = X.shape[0]
    buffer = np.empty((min(ROW_BLOCK, n_rows), X.shape[1]))
    for start in range(0, n_rows, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n_rows))
        yield rows, buffer[: rows.stop - start]
