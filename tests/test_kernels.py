import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from datagen import traced_peak
from factorfit import htfa, kernels
from factorfit.errors import (
    DefinitenessError,
    DomainError,
    InvalidInputError,
    RankError,
    ShapeError,
)
from factorfit.kernels import (
    POLAR_BLOCK_BYTES,
    ROW_BLOCK,
    SPLIT_COLUMNS,
    VoxelGrid,
    _polar,
    _split_matmul,
    add_diag,
    polar_orthogonal,
    rbf_factor_matrix,
    rbf_factor_matrix_direct,
    residual_fro,
    spd_inverse,
    trace_ata,
)


class TestTraceAta:
    def test_identity(self):
        assert trace_ata(np.eye(2)) == 2.0

    def test_small_example(self):
        assert trace_ata(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0

    def test_matches_explicit_product(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 6))
        explicit = float(np.trace(A.T @ A))
        assert abs(trace_ata(A) - explicit) <= 1e-10

    def test_nonnegative_zero_iff_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.standard_normal((4, 3)) * rng.exponential()
            assert trace_ata(A) >= 0.0
        assert trace_ata(np.zeros((5, 4))) == 0.0
        assert trace_ata(np.array([[1e-150]])) > 0.0


class TestAddDiag:
    def test_zeros_plus_one_is_identity(self):
        assert np.array_equal(add_diag(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_identity_minus_one_is_zeros(self):
        assert np.array_equal(add_diag(np.eye(2), -1.0), np.zeros((2, 2)))

    def test_off_diagonals_untouched(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((8, 8))
        out = add_diag(A, 0.5)
        off = ~np.eye(8, dtype=bool)
        assert np.array_equal(out[off], A[off])
        assert np.allclose(np.diag(out), np.diag(A) + 0.5)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            add_diag(np.zeros((2, 3)), 1.0)


class TestSpdInverse:
    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_multiply_back(self):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((6, 6))
        B = C.T @ C + np.eye(6)
        assert np.max(np.abs(B @ spd_inverse(B) - np.eye(6))) <= 1e-10

    def test_result_symmetric(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((5, 5))
        inv = spd_inverse(C.T @ C + np.eye(5))
        assert np.array_equal(inv, inv.T)

    def test_indefinite_reports_pivot(self):
        A = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(DefinitenessError) as excinfo:
            spd_inverse(A)
        assert excinfo.value.pivot == 1

    def test_conditioned_inverse_tolerance(self):
        rng = np.random.default_rng(7)
        # condition number about 1e6
        vals = np.logspace(0, 6, 8)
        Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        A = Q @ np.diag(vals) @ Q.T
        A = 0.5 * (A + A.T)
        assert np.max(np.abs(A @ spd_inverse(A) - np.eye(8))) <= 1e-8


class TestPolarOrthogonal:
    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(8)
        Q = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        assert np.max(np.abs(polar_orthogonal(Q) - Q)) <= 1e-12

    def test_positive_diagonal_scaling(self):
        A = np.zeros((4, 2))
        A[0, 0], A[1, 1] = 2.0, 3.0
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[1, 1] = 1.0
        assert np.max(np.abs(polar_orthogonal(A) - expected)) <= 1e-12

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((30, 5))
        # oracle: A (A^T A)^{-1/2} via eigendecomposition
        vals, vecs = np.linalg.eigh(A.T @ A)
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        assert np.max(np.abs(polar_orthogonal(A) - A @ inv_sqrt)) <= 1e-8

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(10)
        for rows, cols in [(5, 5), (12, 3), (40, 7)]:
            W = polar_orthogonal(rng.standard_normal((rows, cols)))
            assert np.max(np.abs(W.T @ W - np.eye(cols))) <= 1e-10

    def test_rank_deficient_rejected(self):
        A = np.ones((6, 2))  # both columns identical
        with pytest.raises(RankError):
            polar_orthogonal(A)

    def test_singular_values_within_atol_rejected(self):
        A = np.zeros((4, 2))
        A[0, 0], A[1, 1] = 2.0, 1e-6
        assert polar_orthogonal(A, atol=0.9e-6)[1, 1] == 1.0
        with pytest.raises(RankError, match="within the rounding error"):
            polar_orthogonal(A, atol=1e-6)

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            polar_orthogonal(np.ones((2, 4)))

    def test_column_major_input_reaches_the_svd_uncopied(self):
        """Beyond the SVD's own work copy, only U and the result are V x K."""
        A = np.asfortranarray(np.random.default_rng(11).standard_normal((2000, 40)))
        before = A.tobytes()
        expected = polar_orthogonal(np.ascontiguousarray(A))
        peak = traced_peak(polar_orthogonal, A)
        assert peak <= 2 * A.nbytes + 64 * 1024, peak / A.nbytes
        assert A.tobytes() == before
        assert polar_orthogonal(A).tobytes() == expected.tobytes()

    def test_non_finite_rejected(self):
        A = np.asfortranarray(np.ones((5, 2)))
        A[3, 1] = np.nan
        with pytest.raises(InvalidInputError):
            polar_orthogonal(A)

    @pytest.mark.parametrize("shape", [(64, 32), (256, 32), (3000, 60), (2000, 10)])
    def test_both_routes_match_the_economy_svd(self, shape):
        # (64, 32) takes gesdd; the taller shapes go through the QR of A
        A = np.random.default_rng(12).standard_normal(shape)
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        assert np.max(np.abs(polar_orthogonal(A) - U @ Vt)) <= 1e-13

    @pytest.mark.parametrize("shape", [(64, 32), (256, 32), (3000, 60), (2000, 10)])
    def test_in_place_route_gives_the_same_factor_and_the_singular_values(self, shape):
        A = np.random.default_rng(12).standard_normal(shape)
        W, s = _polar(np.asfortranarray(A))
        assert W.tobytes() == polar_orthogonal(A).tobytes()
        expected = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(s - expected)) <= 1e-13 * expected[0]

    def test_in_place_qr_allocates_no_second_copy(self):
        """On the QR route the reflectors overwrite A and W overwrites them:
        beside A only a few K x K arrays and one row block are allocated."""
        rows, k = 3000, 60
        A = np.asfortranarray(np.random.default_rng(16).standard_normal((rows, k)))
        peak = traced_peak(_polar, A)
        block = max(ROW_BLOCK * k * 8, POLAR_BLOCK_BYTES)
        assert peak <= 8 * k * k * 8 + block + 64 * 1024, peak / A.nbytes

    @pytest.mark.parametrize("shape", [
        (3000, 60),  # srm-raider's mapping
        (1001, 40),  # rows - cols not a multiple of ROW_BLOCK
        (5000, 8),  # 256-row blocks (POLAR_BLOCK_BYTES), the last one short
        (800, 100),  # cols > ROW_BLOCK, rows = 8 cols exactly
        (1100, 130),  # cols > 2 ROW_BLOCK
        (512, 64),  # rows = 8 cols = 8 ROW_BLOCK
        (40, 5),  # fewer rows below the top than one block
    ])
    def test_tall_route_writes_the_factor_over_A(self, shape):
        A = np.random.default_rng(17).standard_normal(shape)
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        work = np.asfortranarray(A)
        W, _ = _polar(work)
        assert np.shares_memory(W, work)
        assert np.max(np.abs(W - U @ Vt)) <= 1e-13

    def test_tall_ill_conditioned_stays_orthogonal(self):
        rng = np.random.default_rng(13)
        Q = np.linalg.qr(rng.standard_normal((800, 20)))[0]
        V = np.linalg.qr(rng.standard_normal((20, 20)))[0]
        A = Q @ np.diag(np.logspace(0, -10, 20)) @ V.T
        W = polar_orthogonal(A)
        assert np.max(np.abs(W.T @ W - np.eye(20))) <= 1e-12

    def test_tall_rank_errors_unchanged(self):
        A = np.random.default_rng(14).standard_normal((400, 5))
        A[:, 3] = A[:, 1]
        with pytest.raises(RankError, match=r"below 1e-12 \* largest"):
            polar_orthogonal(A)
        B = np.zeros((400, 2))
        B[0, 0], B[1, 1] = 2.0, 1e-6
        assert polar_orthogonal(B, atol=0.9e-6)[1, 1] == 1.0
        with pytest.raises(RankError, match="within the rounding error"):
            polar_orthogonal(B, atol=1e-6)

    def test_only_a_tall_input_skips_the_full_svd(self, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            seen.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        rng = np.random.default_rng(15)
        polar_orthogonal(rng.standard_normal((3000, 60)))
        polar_orthogonal(rng.standard_normal((64, 32)))
        assert seen == [(60, 60), (64, 32)]


def _random_grid(rng, dims=(11, 9, 7), keep=0.85):
    axes = np.meshgrid(
        np.sort(rng.uniform(-10, 10, dims[0])),
        np.sort(rng.uniform(-10, 10, dims[1])),
        np.sort(rng.uniform(-10, 10, dims[2])),
        indexing="ij",
    )
    pos = np.column_stack([a.ravel() for a in axes])
    mask = rng.random(pos.shape[0]) < keep
    mask[0] = True
    return VoxelGrid.from_positions(pos[mask])


def _rbf_per_factor_loop(centers, widths, grid):
    """The per-factor evaluation the vectorized kernel replaced."""
    ix = grid.voxel_axis_index[:, 0]
    iy = grid.voxel_axis_index[:, 1]
    iz = grid.voxel_axis_index[:, 2]
    ax, ay, az = grid.axis_values
    F = np.empty((centers.shape[0], grid.n_voxels))
    for k in range(centers.shape[0]):
        tx = (ax - centers[k, 0]) ** 2
        ty = (ay - centers[k, 1]) ** 2
        tz = (az - centers[k, 2]) ** 2
        d2 = tx[ix] + ty[iy]
        d2 += tz[iz]
        F[k] = np.exp(-d2 / widths[k])
    return F


class TestRbfFactorMatrix:
    def test_value_one_at_center(self):
        grid = VoxelGrid.from_positions(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        F = rbf_factor_matrix(np.array([[1.0, 2.0, 3.0]]), [2.0], grid)
        assert F[0, 0] == 1.0

    def test_unit_exponent(self):
        # ||p - mu||^2 equal to the width gives exp(-1)
        grid = VoxelGrid.from_positions(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        F = rbf_factor_matrix(np.array([[0.0, 0.0, 0.0]]), [4.0], grid)
        assert abs(F[0, 0] - np.exp(-1.0)) <= 1e-15

    def test_cached_equals_direct(self):
        rng = np.random.default_rng(11)
        grid = _random_grid(rng)
        centers = rng.uniform(-10, 10, (5, 3))
        widths = rng.uniform(0.5, 30.0, 5)
        cached = rbf_factor_matrix(centers, widths, grid)
        direct = rbf_factor_matrix_direct(centers, widths, grid.positions)
        assert np.max(np.abs(cached - direct)) <= 1e-14

    def test_take_view_matches_direct(self):
        rng = np.random.default_rng(12)
        grid = _random_grid(rng, dims=(6, 5, 4))
        idx = rng.integers(0, grid.n_voxels, 40)  # repeats allowed
        view = grid.take(idx)
        centers = rng.uniform(-10, 10, (3, 3))
        widths = rng.uniform(1.0, 20.0, 3)
        cached = rbf_factor_matrix(centers, widths, view)
        direct = rbf_factor_matrix_direct(centers, widths, grid.positions[idx])
        assert np.max(np.abs(cached - direct)) <= 1e-14

    def test_vectorized_equals_per_factor_loop_bytes(self):
        rng = np.random.default_rng(14)
        grid = _random_grid(rng, dims=(8, 7, 5))
        lo, hi = htfa.width_bounds(grid, htfa.HtfaConfig())
        view = grid.take(rng.integers(0, grid.n_voxels, 300))  # repeats
        for k in range(1, 7):
            centers = rng.uniform(-11, 11, (k, 3))
            widths = rng.uniform(lo, hi, k)
            widths[0] = lo
            widths[-1] = hi
            for g in (grid, view):
                got = rbf_factor_matrix(centers, widths, g)
                want = _rbf_per_factor_loop(centers, widths, g)
                assert got.tobytes() == want.tobytes()

    def test_nonpositive_width_rejected(self):
        grid = VoxelGrid.from_positions(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.raises(DomainError):
            rbf_factor_matrix(np.zeros((1, 3)), [0.0], grid)

    def test_duplicate_positions_rejected(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            VoxelGrid.from_positions(pos)
        # a 2 x 2 x 2 lattice has 8 cells, more than the 5 voxels, and
        # [1, 0, 0] still appears twice
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="4 distinct points for 5 voxels"):
            VoxelGrid.from_positions(pos)

    def test_grid_reconstructs_positions_exactly(self):
        rng = np.random.default_rng(13)
        grid = _random_grid(rng, dims=(5, 4, 3))
        rebuilt = np.column_stack(
            [grid.axis_values[d][grid.voxel_axis_index[:, d]] for d in range(3)]
        )
        assert np.array_equal(rebuilt, grid.positions)


class TestResidualFro:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(14)
        W = rng.standard_normal((9, 3))
        F = rng.standard_normal((3, 20))
        assert residual_fro(W @ F, W, F) == 0.0

    def test_zero_mapping_gives_trace(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((7, 11))
        got = residual_fro(X, np.zeros((7, 2)), np.zeros((2, 11)))
        assert abs(got - trace_ata(X)) <= 1e-10

    def test_matches_explicit_residual(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((12, 40))
        W = rng.standard_normal((12, 4))
        F = rng.standard_normal((4, 40))
        explicit = float(np.linalg.norm(X - W @ F, "fro") ** 2)
        assert abs(residual_fro(X, W, F) - explicit) <= 1e-10

    def test_blocked_path_matches_unblocked(self):
        # wide enough to hit more than one column block
        rng = np.random.default_rng(17)
        X = rng.standard_normal((5, 5000))
        W = rng.standard_normal((5, 2))
        F = rng.standard_normal((2, 5000))
        explicit = float(np.einsum("ij,ij->", X - W @ F, X - W @ F))
        assert abs(residual_fro(X, W, F) - explicit) <= 1e-9 * max(1.0, explicit)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            residual_fro(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((3, 3)))


def e_step_operands(rng, n_cols, inner=50, k=3):
    """srm.e_step_local's layout: a transposed V x K mapping times a C-ordered
    V x T matrix, into a K x T view of a tree row (parts are strided slices)."""
    a = rng.standard_normal((inner, k)).T
    b = rng.standard_normal((inner, n_cols))
    out = np.empty(2 + k * n_cols)[2:].reshape(k, n_cols)
    return a, b, out


def m_step_operands(rng, n_cols, inner=50, k=3):
    """m_step_subject's layout: S (K x T) times the transposed view X_i^T of a
    C-ordered V x T matrix, into one C-ordered K x V array."""
    a = rng.standard_normal((k, inner))
    b = rng.standard_normal((n_cols, inner)).T
    return a, b, np.empty((k, n_cols))


LAYOUTS = [e_step_operands, m_step_operands]


@pytest.fixture
def pool_of(monkeypatch):
    """Install a pool of n threads as the split's process-wide pool."""
    pools = []

    def install(n):
        pools.append(ThreadPoolExecutor(n))
        monkeypatch.setattr(kernels, "_pool", pools[-1])

    yield install
    for pool in pools:
        pool.shutdown()


class TestSplitMatmul:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n_cols", [2 * SPLIT_COLUMNS, 4100, 8 * SPLIT_COLUMNS + 3])
    def test_matches_matmul(self, layout, n_cols):
        a, b, out = layout(np.random.default_rng(n_cols), n_cols)
        got = _split_matmul(a, b, out)
        want = np.matmul(a, b)
        assert got is out
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n_cols", [1, 700, 2 * SPLIT_COLUMNS - 1])
    def test_one_part_is_matmul(self, layout, n_cols, monkeypatch):
        monkeypatch.setattr(kernels, "_split_pool", lambda: pytest.fail("a part was submitted"))
        a, b, out = layout(np.random.default_rng(n_cols), n_cols)
        assert _split_matmul(a, b, out).tobytes() == np.matmul(a, b).tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bytes_independent_of_pool_size(self, layout, pool_of):
        n_cols = 4 * SPLIT_COLUMNS + 5  # four parts
        results = set()
        for workers in (1, 2, 3):
            pool_of(workers)
            a, b, out = layout(np.random.default_rng(9), n_cols)
            results.add(_split_matmul(a, b, out).tobytes())
        assert len(results) == 1

    def test_racing_ranks_create_one_pool(self, monkeypatch):
        monkeypatch.setattr(kernels, "_pool", None)
        start = threading.Barrier(8)
        pools = []

        def first_use():
            start.wait(10.0)
            pools.append(kernels._split_pool())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            sys.setswitchinterval(switch)
            if kernels._pool is not None:
                kernels._pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert len(pools) == 8 and len({id(p) for p in pools}) == 1
