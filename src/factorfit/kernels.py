"""Dense numerical primitives shared by both factor-analysis fitters.

Everything here operates on 64-bit float arrays and is a pure function:
safe to call concurrently from multiple workers. Reductions and the
radial-basis lookup sum axis contributions in a fixed order so results
do not depend on the execution backend.
"""

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
    "rbf_factor_matrix",
    "rbf_factor_matrix_direct",
    "residual_fro",
    "row_blocks",
]

#: Columns whose singular value falls below this multiple of the largest
#: are treated as rank deficient by :func:`polar_orthogonal`.
RANK_TOLERANCE = 1e-12

_RESIDUAL_BLOCK = 2048

#: Rows per block of :func:`row_blocks`.
ROW_BLOCK = 64


def _as_matrix(a, name="matrix", require_finite=True):
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column")
    if require_finite and not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return out


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
            If the positions contain duplicates (the axis product
            ``n_x * n_y * n_z`` must cover the voxel count).
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
        n_cells = int(np.prod([v.size for v in axis_values]))
        if n_cells < pos.shape[0]:
            raise InvalidInputError(
                "positions are not axis-decomposable: "
                f"{n_cells} lattice cells < {pos.shape[0]} voxels (duplicates?)"
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

    The result is symmetrized (averaged with its transpose). A failed
    factorization raises :class:`DefinitenessError` naming the 0-based
    pivot index at which positive definiteness broke down.
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
    inv = np.tril(inv) + np.tril(inv, -1).T
    return 0.5 * (inv + inv.T)


def polar_orthogonal(A, atol=0.0):
    """Orthogonal polar factor W = U V^T from the economy SVD A = U S V^T.

    Requires rows >= cols and full column rank: the smallest singular
    value must reach RANK_TOLERANCE times the largest and ``atol``, a
    bound the caller knows on the rounding error in A. The polar factor
    of a full-rank A is unique: flipping the sign of a singular pair
    (U[:, j], V^T[j]) leaves U V^T unchanged, so no sign convention is
    needed.
    """
    A = _as_matrix(A, "A")
    rows, cols = A.shape
    if rows < cols:
        raise ShapeError(f"polar_orthogonal needs rows >= cols, got {A.shape}")
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
    return U @ Vt


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


def rbf_factor_matrix(centers, widths, grid):
    """Evaluate K radial-basis factors on a voxel grid, K x V.

    Entry (k, v) is exp(-||p_v - mu_k||^2 / lambda_k). The squared
    distances are assembled from three per-axis lookup tables of shapes
    (K, n_x), (K, n_y), (K, n_z), an exact rewrite of the direct
    evaluation: only O(n_x + n_y + n_z) subtractions/squarings are spent
    per factor instead of O(3 V). All K factors go through one pass:
    each table is gathered once along the voxels, so at most one K x V
    temporary lives beside F, and the divide, negate and ``exp`` run in
    place in F.
    """
    centers, widths = _check_rbf_args(centers, widths)
    index = grid.voxel_axis_index
    tables = [(v - centers[:, d, None]) ** 2 for d, v in enumerate(grid.axis_values)]
    F = np.take(tables[0], index[:, 0], axis=1)
    # fixed x + y + z order keeps results backend independent
    for d in (1, 2):
        F += np.take(tables[d], index[:, d], axis=1)
    F /= widths[:, None]
    np.negative(F, out=F)
    np.exp(F, out=F)
    return F


def rbf_factor_matrix_direct(centers, widths, positions):
    """Uncached reference path of :func:`rbf_factor_matrix`.

    Used for irregular clouds that have no grid decomposition and as the
    oracle the cached path is tested against.
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
    """Squared Frobenius norm of X - W @ F.

    Accumulated over column blocks so the full residual matrix is never
    materialized when X is wide.
    """
    X = _as_matrix(X, "X")
    W = _as_matrix(W, "W")
    F = _as_matrix(F, "F")
    if W.shape[1] != F.shape[0] or X.shape != (W.shape[0], F.shape[1]):
        raise ShapeError(
            f"shapes do not conform for X - W @ F: X={X.shape} W={W.shape} F={F.shape}"
        )
    total = 0.0
    for start in range(0, X.shape[1], _RESIDUAL_BLOCK):
        stop = min(start + _RESIDUAL_BLOCK, X.shape[1])
        R = X[:, start:stop] - W @ F[:, start:stop]
        total += float(np.einsum("ij,ij->", R, R))
    return total


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
