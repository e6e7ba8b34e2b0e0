import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from datagen import blob_subjects, cuboid_grid, scattered_blob_subjects, traced_peak
from factorfit import htfa, reference, trf
from factorfit.collectives import SerialCommunicator, create_thread_communicators
from factorfit.data_io import SubjectData
from factorfit.errors import (
    CollectiveContractError, ConfigError, DefinitenessError, EvaluationError,
    InvalidInputError, ShapeError,
)
from factorfit.kernels import VoxelGrid, grid_sq_distances, rbf_factor_matrix


def small_config(k=3, outer=3, local=3, seed=2):
    return htfa.HtfaConfig(
        k=k,
        outer_iterations=outer,
        local_iterations=local,
        seed=seed,
        nlls=trf.TrfConfig(max_iterations=25),
    )


def small_plan(seed=9):
    return htfa.SubsamplePlan(max_voxels=250, max_trs=20, seed=seed)


@pytest.fixture(scope="module")
def blob_data():
    matrices, grid, centers, widths = blob_subjects(seed=321)
    subjects = [SubjectData(f"s{i}", X, grid) for i, X in enumerate(matrices)]
    return subjects, grid, centers, widths


class TestInitTemplate:
    def test_single_factor_matching_pursuit_pick(self):
        """At k=1 the center is the voxel of largest energy ||X_v||^2 and the
        width the one of 12 geometric candidates maximizing
        ||f^T X||^2 / ||f||^2, evaluated here by brute force."""
        matrices, grid, _, _ = blob_subjects(n_subjects=1, k=1, seed=8)
        subject = SubjectData("one", matrices[0], grid)
        config = small_config(k=1)
        template = htfa.init_template(subject, config)
        X = subject.X
        center = grid.positions[np.argmax((X**2).sum(axis=1))]
        candidates = np.geomspace(*htfa.width_bounds(grid, config), 12)
        F = rbf_factor_matrix(np.tile(center, (12, 1)), candidates, grid)
        scores = ((F @ X) ** 2).sum(axis=1) / (F**2).sum(axis=1)
        assert np.array_equal(template.centers[0], center)
        assert template.widths[0] == candidates[np.argmax(scores)]
        assert np.sort(scores)[-1] > np.sort(scores)[-2] * (1 + 1e-6)

    def test_every_scattered_factor_seeded(self):
        """Eight overlapping factors: each true center gets a seeded center
        within 3 voxels (activation-weighted k-means left two further off)."""
        matrices, grid, centers, _ = scattered_blob_subjects(n_subjects=1, seed=2)
        template = htfa.init_template(SubjectData("s0", matrices[0], grid), htfa.HtfaConfig(k=8))
        nearest = cdist(centers, template.centers).min(axis=1)
        assert np.all(nearest <= 3.0), nearest

    def test_deterministic(self, blob_data):
        subjects, _, _, _ = blob_data
        a = htfa.init_template(subjects[0], small_config())
        b = htfa.init_template(subjects[0], small_config())
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.widths, b.widths)

    def test_three_blobs_one_center_each(self):
        # three disjoint activation blobs; each should attract one center
        grid = cuboid_grid(14, 6, 4)
        true_centers = np.array([[2.0, 2.5, 1.5], [7.0, 3.0, 2.0], [12.0, 2.5, 1.5]])
        widths = np.array([1.5, 1.5, 1.5])
        F = rbf_factor_matrix(true_centers, widths, grid)
        rng = np.random.default_rng(4)
        W = np.abs(rng.standard_normal((20, 3))) + 1.0
        subject = SubjectData("blobs", (W @ F).T, grid)
        template = htfa.init_template(subject, small_config(k=3))
        cost = cdist(template.centers, true_centers)
        rows, cols = linear_sum_assignment(cost)
        assert np.all(cost[rows, cols] <= 2.0)

    def test_posterior_fields_copied_from_priors(self, blob_data):
        subjects, _, _, _ = blob_data
        t = htfa.init_template(subjects[0], small_config())
        for k in range(t.centers.shape[0]):
            assert np.array_equal(t.center_cov[k], t.prior_center_cov)
        assert t.prior_width_var == pytest.approx(float(t.width_var.mean()))

    def test_sq_distances_bits_of_the_broadcast(self):
        """``kernels.grid_sq_distances``, which the seeding and the width
        problem use, gives the bits of the (K, V, 3) broadcast's sum on a
        grid and on a sampled view of it, also from a center on a voxel."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            axes = np.meshgrid(
                *(np.sort(rng.uniform(-30.0, 30.0, n)) for n in rng.integers(2, 9, 3)),
                indexing="ij",
            )
            grid = VoxelGrid.from_positions(np.column_stack([a.ravel() for a in axes]))
            view = grid.take(rng.integers(0, grid.n_voxels, 40))
            centers = np.vstack([rng.uniform(-30.0, 30.0, (4, 3)), grid.positions[[3]]])
            for g in (grid, view):
                want = ((g.positions[None] - centers[:, None]) ** 2).sum(axis=-1)
                assert grid_sq_distances(centers, g).tobytes() == want.tobytes()

    def test_too_few_voxels(self):
        grid = cuboid_grid(2, 2, 1)
        subject = SubjectData("tiny", np.ones((4, 5)), grid)
        with pytest.raises(ShapeError):
            htfa.init_template(subject, small_config(k=10))

    def test_one_voxel_grid_fails_by_name(self):
        """A single voxel leaves the seeding's widths no range: its diameter,
        which scales them, is 0."""
        subject = SubjectData("sub-01", np.arange(5.0)[None], cuboid_grid(1, 1, 1))
        with pytest.raises(ShapeError, match="subject sub-01 has a one-voxel grid"):
            htfa.init_template(subject, small_config(k=1))


class TestSubsample:
    def test_size_rule_clamped(self):
        X = np.zeros((1000, 50))
        plan = htfa.SubsamplePlan(seed=0)
        _, vox, trs, phi = htfa.subsample(X, plan)
        # mean(0.25*1000, 3000) = 1625, clamped to the 1000 available
        assert vox.size == 1000
        assert trs.size == min(max(int(np.floor(0.5 * (5 + 300) + 0.5)), 1), 50)

    def test_size_rule_unclamped(self):
        assert htfa._sample_count(0.25, 3000, 50000) == 7750

    def test_full_sampling_phi_one(self):
        X = np.zeros((40, 30))
        plan = htfa.SubsamplePlan(
            voxel_fraction=1.0, tr_fraction=1.0, max_voxels=40, max_trs=30, seed=1
        )
        _, vox, trs, phi = htfa.subsample(X, plan)
        assert phi == 1.0
        assert vox.size == 40 and trs.size == 30

    def test_deterministic_stream(self):
        X = np.arange(200.0).reshape(20, 10)
        plan = htfa.SubsamplePlan(max_voxels=8, max_trs=4, seed=7)
        a = htfa.subsample(X, plan, np.random.default_rng(3))
        b = htfa.subsample(X, plan, np.random.default_rng(3))
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    @pytest.mark.parametrize("seed", [0, 5, -1, -12345, 2**64 - 1])
    def test_default_stream_is_the_seed_mod_2_64(self, seed):
        X = np.arange(200.0).reshape(20, 10)
        plan = htfa.SubsamplePlan(max_voxels=8, max_trs=4, seed=seed)
        a = htfa.subsample(X, plan)
        b = htfa.subsample(X, plan, np.random.default_rng(seed & (2**64 - 1)))
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_block_gathered_for_a_contiguous_transpose(self):
        X = np.arange(600.0).reshape(40, 15)
        plan = htfa.SubsamplePlan(max_voxels=12, max_trs=6, seed=7)
        Xs, vox, trs, _ = htfa.subsample(X, plan, np.random.default_rng(4))
        assert Xs.tobytes() == X[np.ix_(vox, trs)].tobytes()
        assert Xs.T.flags.c_contiguous

    def test_invalid_plan(self):
        with pytest.raises(ConfigError):
            htfa.SubsamplePlan(voxel_fraction=0.0).validate()


class TestUpdateWeights:
    def test_identity_design_large_alpha(self):
        rng = np.random.default_rng(5)
        k = 4
        X = rng.standard_normal((6, k))
        W = htfa.update_weights(X, np.eye(k), 1e12)
        assert np.max(np.abs(W - X)) <= 1e-6

    def test_zero_data(self):
        F = np.random.default_rng(6).uniform(0.1, 1.0, (3, 9))
        W = htfa.update_weights(np.zeros((5, 9)), F, 1.0)
        assert np.array_equal(W, np.zeros((5, 3)))

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 30))
        F = rng.standard_normal((4, 30))
        alpha2 = 2.5
        W = htfa.update_weights(X, F, alpha2)
        expected = np.linalg.solve(
            F @ F.T + np.eye(4) / alpha2, F @ X.T
        ).T
        assert np.max(np.abs(W - expected)) <= 1e-9


class TestBlockProblems:
    @pytest.fixture
    def problem_parts(self, blob_data):
        subjects, grid, centers, widths = blob_data
        config = small_config()
        template = htfa.init_template(subjects[0], config)
        rng = np.random.default_rng(11)
        Xs, vox, trs, phi = htfa.subsample(subjects[0].X, small_plan(), rng)
        view = grid.take(vox)
        F = rbf_factor_matrix(centers, widths, view)
        W = htfa.update_weights(Xs.T, F, 1.0)
        return subjects[0], grid, view, Xs.T, W, phi, template, config

    def test_residual_count(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        prob = htfa.build_center_problem(
            Xst, W, template.widths, template, phi, view, 0.5, bounds_grid=grid
        )
        assert prob.n_residuals == Xst.size + template.centers.shape[0]
        r = prob.residual_fn(template.centers.ravel())
        assert r.size == prob.n_residuals

    def test_noiseless_truth_zero_data_residuals(self):
        matrices, grid, centers, widths = blob_subjects(
            n_subjects=1, jitter=0.0, noise=0.0, seed=5
        )
        subject = SubjectData("clean", matrices[0], grid)
        config = small_config()
        template = htfa.GlobalTemplate(
            centers=centers.copy(),
            center_cov=np.tile(np.eye(3), (3, 1, 1)),
            widths=widths.copy(),
            width_var=np.ones(3),
            prior_center_cov=np.eye(3),
            prior_width_var=1.0,
        )
        rng = np.random.default_rng(12)
        Xs, vox, trs, phi = htfa.subsample(subject.X, small_plan(), rng)
        view = grid.take(vox)
        F = rbf_factor_matrix(centers, widths, view)
        # exact weights for the sampled TRs: rows of the true W
        W_exact = np.linalg.lstsq(F.T, Xs, rcond=None)[0].T
        prob = htfa.build_center_problem(
            Xs.T, W_exact, widths, template, phi, view, 0.5, bounds_grid=grid
        )
        r = prob.residual_fn(centers.ravel())
        assert np.max(np.abs(r[: Xs.size])) <= 1e-10

    def test_center_jacobian_vs_finite_differences(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        rng = np.random.default_rng(13)
        prob = htfa.build_center_problem(
            Xst, W, template.widths, template, phi, view, 0.8, bounds_grid=grid
        )
        for _ in range(3):
            x = template.centers.ravel() + rng.uniform(-0.5, 0.5, 3 * 3)
            x = np.clip(x, prob.lower + 0.2, prob.upper - 0.2)
            assert trf.check_jacobian(prob, x) <= 1e-5

    def test_width_jacobian_vs_finite_differences(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        rng = np.random.default_rng(14)
        prob = htfa.build_width_problem(
            Xst, W, template.centers, template, phi, view, 0.8, config, bounds_grid=grid
        )
        for _ in range(3):
            x = np.clip(
                template.widths * rng.uniform(0.7, 1.3, 3),
                prob.lower + 0.1,
                prob.upper - 0.1,
            )
            assert trf.check_jacobian(prob, x) <= 1e-5

    def test_normal_fn_matches_dense_oracle(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        rng = np.random.default_rng(15)
        center_prob = htfa.build_center_problem(
            Xst, W, template.widths, template, phi, view, 0.8, bounds_grid=grid
        )
        width_prob = htfa.build_width_problem(
            Xst, W, template.centers, template, phi, view, 0.8, config, bounds_grid=grid
        )
        # the template centers leave every center prior at its kink (q = 0);
        # perturbed points make the prior rows active, one factor excepted
        points = [(center_prob, template.centers.ravel().copy())]
        for _ in range(4):
            x = template.centers + rng.uniform(-1.0, 1.0, template.centers.shape)
            x[0] = template.centers[0]
            points.append((center_prob, x.ravel()))
            points.append((width_prob, template.widths * rng.uniform(0.6, 1.5, 3)))
        for prob, x in points:
            r = prob.residual_fn(x)
            J = prob.jacobian_fn(x)
            H, g = prob.normal_fn(x, r)
            for got, want in ((H, J.T @ J), (g, J.T @ r)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_rbf_evaluation_per_residual(self, problem_parts, monkeypatch):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        calls = {"rbf": 0, "residual": 0}
        original = htfa.rbf_factor_matrix

        def counted_rbf(*args):
            calls["rbf"] += 1
            return original(*args)

        def counted(residual_fn):
            def wrapper(x):
                calls["residual"] += 1
                return residual_fn(x)

            return wrapper

        monkeypatch.setattr(htfa, "rbf_factor_matrix", counted_rbf)
        centers = template.centers + 0.5
        problems = [
            (
                htfa.build_center_problem(
                    Xst, W, template.widths, template, phi, view, 0.8, bounds_grid=grid
                ),
                centers.ravel(),
            ),
            (
                htfa.build_width_problem(
                    Xst, W, centers, template, phi, view, 0.8, config, bounds_grid=grid
                ),
                template.widths * 1.3,
            ),
        ]
        for prob, x0 in problems:
            calls.update(rbf=0, residual=0)
            prob.residual_fn = counted(prob.residual_fn)
            result = trf.solve(prob, x0, trf.TrfConfig(max_iterations=10))
            assert result.njev >= 3
            assert calls["residual"] == result.nfev
            assert calls["rbf"] == calls["residual"]

    def test_normal_fn_recomputes_on_a_memo_miss(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        rng = np.random.default_rng(17)

        def problems():
            return [
                htfa.build_center_problem(
                    Xst, W, template.widths, template, phi, view, 0.8, bounds_grid=grid
                ),
                htfa.build_width_problem(
                    Xst, W, template.centers, template, phi, view, 0.8, config,
                    bounds_grid=grid,
                ),
            ]

        points = [
            [(template.centers + rng.uniform(-1, 1, (3, 3))).ravel() for _ in range(2)],
            [template.widths * rng.uniform(0.6, 1.5, 3) for _ in range(2)],
        ]
        for oracle, fresh, stale, (x, elsewhere) in zip(
            problems(), problems(), problems(), points
        ):
            r = oracle.residual_fn(x)
            J = oracle.jacobian_fn(x)
            H_hit, g_hit = oracle.normal_fn(x, r)
            # ``fresh`` never saw x; ``stale`` last evaluated another point
            stale.residual_fn(elsewhere)
            for prob in (fresh, stale):
                H, g = prob.normal_fn(x, r)
                for got, want in ((H, J.T @ J), (g, J.T @ r)):
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                assert H.tobytes() == H_hit.tobytes()
                assert g.tobytes() == g_hit.tobytes()

    def test_prior_blocks_match_block_diag(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        rng = np.random.default_rng(18)
        prob = htfa.build_center_problem(
            Xst, W, template.widths, template, phi, view, 0.8, bounds_grid=grid
        )
        k = template.centers.shape[0]
        x = (template.centers + rng.uniform(-1.0, 1.0, (k, 3))).ravel()
        prior_rows = prob.jacobian_fn(x)[Xst.size:]
        rows = prior_rows.reshape(k, k, 3)[np.arange(k), np.arange(k)]
        assert np.all(rows != 0.0)
        assert prior_rows.tobytes() == block_diag(*rows[:, None]).tobytes()
        # m = 3: the center prior's gradient rows; m = 1: the width prior's
        # constant diagonal
        for k, m in [(1, 3), (2, 3), (5, 3), (1, 1), (5, 1)]:
            H = rng.standard_normal((m * k, m * k))
            rows = rng.standard_normal((k, m))
            want = H + block_diag(*(rows[:, :, None] * rows[:, None, :]))
            htfa._add_prior_blocks(H, rows)
            assert H.tobytes() == want.tobytes()

    def test_width_domain_error(self, problem_parts):
        _, grid, view, Xst, W, phi, template, config = problem_parts
        from factorfit.errors import DomainError

        prob = htfa.build_width_problem(
            Xst, W, template.centers, template, phi, view, 0.8, config, bounds_grid=grid
        )
        with pytest.raises(DomainError):
            prob.residual_fn(np.zeros(3))


class TestMemoryContract:
    # room for the K-, 3K- and 3K x 3K-sized arrays of one evaluation
    SLACK = 32 * 1024

    @pytest.fixture(scope="class")
    def block_problems(self):
        """Center and width problems at K=8 on 40 TRs x 4,000 voxels."""
        k, n_trs, n_vox = 8, 40, 4000
        rng = np.random.default_rng(23)
        grid = cuboid_grid(20, 20, 12)
        view = grid.take(rng.integers(0, grid.n_voxels, n_vox))
        lo, hi = grid.bounding_box()
        centers = rng.uniform(lo + 2.0, hi - 2.0, (k, 3))
        widths = rng.uniform(10.0, 20.0, k)
        W = rng.standard_normal((n_trs, k))
        Xst = W @ rbf_factor_matrix(centers, widths, view)
        Xst += 0.01 * rng.standard_normal(Xst.shape)
        template = htfa.GlobalTemplate(
            centers=centers + rng.uniform(-1.0, 1.0, (k, 3)),
            center_cov=None,
            widths=widths,
            width_var=None,
            prior_center_cov=4.0 * np.eye(3),
            prior_width_var=1.0,
        )
        center = htfa.build_center_problem(
            Xst, W, widths, template, 1.0, view, 0.5, bounds_grid=grid
        )
        width = htfa.build_width_problem(
            Xst, W, centers, template, 1.0, view, 0.5, htfa.HtfaConfig(k=k),
            bounds_grid=grid,
        )
        points = [(center, template.centers.ravel()), (width, 1.1 * widths)]
        return k, n_trs * n_vox, n_vox, points

    def test_residual_allocates_only_its_result(self, block_problems):
        k, n_data, _, points = block_problems
        for prob, x in points:
            prob.residual_fn(x)  # F memo warm at x
            peak = traced_peak(prob.residual_fn, x)
            assert peak <= (n_data + k) * 8 + self.SLACK, peak

    def test_normal_builds_gradients_once(self, block_problems):
        """Center: one 3K x Vtilde G plus its K x Vtilde products (the scale
        F * 2/lambda, then W^T R); width: G and W^T R, K x Vtilde each."""
        k, _, n_vox, points = block_problems
        for (prob, x), budget in zip(points, (3 * k * n_vox + 2 * k * n_vox, 2 * k * n_vox)):
            r = prob.residual_fn(x)
            peak = traced_peak(prob.normal_fn, x, r)
            assert peak <= budget * 8 + self.SLACK, peak

    def test_init_template_below_one_subject_matrix(self):
        grid = cuboid_grid(20, 20, 12)
        X = np.random.default_rng(24).standard_normal((grid.n_voxels, 150))
        subject = SubjectData("s", X, grid)
        peak = traced_peak(htfa.init_template, subject, small_config(k=8))
        assert peak < X.nbytes, peak

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_reduction_holds_log_n_rows(self, n, monkeypatch):
        """With local steps stubbed to write in place, the serial root's
        traced peak from the first local step to the global step is at most
        n.bit_length() + 1 rows of the pairwise sum's 4K + 3 values, not a
        row per subject."""
        k = 60
        grid = cuboid_grid(4, 4, 4)
        X = np.random.default_rng(25).standard_normal((grid.n_voxels, 4))
        subjects = [SubjectData(f"s{i}", X, grid) for i in range(n)]
        shift = np.linspace(-0.5, 0.5, n)
        seen = {}

        def local_step(subject, template, local, config, plan, rng=None):
            j = int(subject.subject_id[1:])
            if j == 0:
                seen["base"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            np.add(template.centers, shift[j], out=local.centers)
            np.multiply(template.widths, 1.0 + shift[j] / 10.0, out=local.widths)
            local.weights.fill(1.0)
            local.noise_weight = 1.0 + j
            return local

        global_step = htfa.global_step

        def traced_global_step(*args):
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]
            return global_step(*args)

        monkeypatch.setattr(htfa, "local_step", local_step)
        monkeypatch.setattr(htfa, "global_step", traced_global_step)
        config = htfa.HtfaConfig(k=k, outer_iterations=1, local_iterations=1)
        tracemalloc.start()
        try:
            htfa.fit(subjects, config, htfa.SubsamplePlan(), SerialCommunicator())
        finally:
            tracemalloc.stop()
        assert seen["peak"] <= (n.bit_length() + 1) * (4 * k + 3) * 8 + 8 * 1024, seen

    def test_center_solve_never_forms_the_jacobian(self):
        k, n_trs, n_vox = 20, 40, 800
        rng = np.random.default_rng(16)
        grid = cuboid_grid(20, 20, 10)
        view = grid.take(rng.choice(grid.n_voxels, n_vox, replace=False))
        lo, hi = grid.bounding_box()
        centers = rng.uniform(lo + 2.0, hi - 2.0, (k, 3))
        widths = rng.uniform(4.0, 10.0, k)
        W = rng.standard_normal((n_trs, k))
        Xst = W @ rbf_factor_matrix(centers, widths, view)
        Xst += 0.01 * rng.standard_normal(Xst.shape)
        template = htfa.GlobalTemplate(
            centers=centers + rng.uniform(-1.0, 1.0, (k, 3)),
            center_cov=None,
            widths=widths,
            width_var=None,
            prior_center_cov=4.0 * np.eye(3),
            prior_width_var=1.0,
        )
        prob = htfa.build_center_problem(
            Xst, W, widths, template, 1.0, view, 0.5, bounds_grid=grid
        )
        tracemalloc.start()
        try:
            result = trf.solve(prob, template.centers.ravel(), trf.TrfConfig(max_iterations=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * n_trs * n_vox * 8, peak
        assert result.iterations == 3


class TestLocalStep:
    def test_single_blob_center_recovery(self):
        matrices, grid, centers, widths = blob_subjects(
            n_subjects=1, grid_dims=(10, 8, 6), k=1, jitter=0.0, noise=0.0, seed=8
        )
        subject = SubjectData("one", matrices[0], grid)
        config = small_config(k=1, local=6)
        template = htfa.init_template(subject, config)
        local = htfa.LocalModel(
            "one", np.zeros((1, 3)), np.ones(1), np.zeros((subject.X.shape[1], 1)), 1.0
        )
        out = htfa.local_step(
            subject, template, local, config, small_plan(), np.random.default_rng(1)
        )
        assert np.linalg.norm(out.centers[0] - centers[0]) <= 0.5

    def test_converged_step_stops_early(self, monkeypatch):
        """Noiseless data from one blob, the template at the truth and
        nearly every voxel sampled: successive refinements soon change the
        parameters by less than the local tolerance, and the loop stops
        before ``local_iterations`` runs out."""
        grid = VoxelGrid.from_positions(0.5 * cuboid_grid(16, 16, 16).positions)
        centers, widths = np.full((1, 3), 3.75), np.array([4.0])
        weights = np.random.default_rng(0).standard_normal((40, 1)) + 2.0
        subject = SubjectData("one", (weights @ rbf_factor_matrix(centers, widths, grid)).T, grid)
        config = small_config(k=1, local=10)
        seeded = htfa.init_template(subject, config)
        template = htfa.GlobalTemplate(
            centers=centers, center_cov=seeded.center_cov, widths=widths,
            width_var=seeded.width_var, prior_center_cov=seeded.prior_center_cov,
            prior_width_var=seeded.prior_width_var,
        )
        plan = htfa.SubsamplePlan(
            voxel_fraction=1.0, tr_fraction=1.0, max_voxels=grid.n_voxels, max_trs=40
        )
        draws, original = [], htfa.subsample
        monkeypatch.setattr(htfa, "subsample", lambda *a: draws.append(1) or original(*a))
        local = htfa.LocalModel("one", np.zeros((1, 3)), np.ones(1), np.zeros((40, 1)), 1.0)
        out = htfa.local_step(subject, template, local, config, plan, np.random.default_rng(1))
        assert len(draws) < config.local_iterations
        assert np.max(np.abs(out.centers - centers)) <= 0.01

    def test_deterministic(self, blob_data):
        subjects, _, _, _ = blob_data
        config = small_config(local=2)
        template = htfa.init_template(subjects[0], config)

        def run():
            local = htfa.LocalModel(
                "s0",
                np.zeros((3, 3)),
                np.ones(3),
                np.zeros((subjects[0].X.shape[1], 3)),
                1.0,
            )
            return htfa.local_step(
                subjects[0], template, local, config, small_plan(), np.random.default_rng(4)
            )

        a, b = run(), run()
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.widths, b.widths)
        assert np.array_equal(a.weights, b.weights)

    def test_no_factor_matrix_evaluated_twice(self, blob_data, monkeypatch):
        """The weights and both block solves share one F memo per iteration:
        the center solve starts from the weights' F and the width solve from
        the center solve's, so no (centers, widths, voxels) point repeats."""
        subjects, _, _, _ = blob_data
        config = small_config(local=3)
        template = htfa.init_template(subjects[0], config)
        local = htfa.LocalModel(
            "s0", np.zeros((3, 3)), np.ones(3), np.zeros((subjects[0].X.shape[1], 3)), 1.0
        )
        points = []
        original = htfa.rbf_factor_matrix

        def recorded(centers, widths, grid):
            points.append((centers.tobytes(), widths.tobytes(), grid.positions.tobytes()))
            return original(centers, widths, grid)

        monkeypatch.setattr(htfa, "rbf_factor_matrix", recorded)
        htfa.local_step(
            subjects[0], template, local, config, small_plan(), np.random.default_rng(4)
        )
        assert len(points) > 3 * config.local_iterations
        assert len(set(points)) == len(points)

    def test_errors_carry_subject_id(self, blob_data):
        subjects, _, _, _ = blob_data
        config = small_config(local=1)
        template = htfa.init_template(subjects[0], config)
        bad = htfa.GlobalTemplate(
            centers=template.centers,
            center_cov=template.center_cov,
            widths=template.widths,
            width_var=template.width_var,
            prior_center_cov=np.zeros((3, 3)),  # singular prior breaks the solve
            prior_width_var=template.prior_width_var,
        )
        local = htfa.LocalModel(
            "s0", np.zeros((3, 3)), np.ones(3), np.zeros((subjects[0].X.shape[1], 3)), 1.0
        )
        with pytest.raises(Exception, match="s0"):
            htfa.local_step(subjects[0], bad, local, config, small_plan())

    def test_wrapped_error_keeps_its_attributes(self, blob_data, monkeypatch):
        """A non-finite residual inside a local step surfaces as an
        EvaluationError that names the subject and still holds its point."""
        subjects, _, _, _ = blob_data
        config = small_config(local=1)
        template = htfa.init_template(subjects[0], config)
        local = htfa.LocalModel(
            "s0", np.zeros((3, 3)), np.ones(3), np.zeros((subjects[0].X.shape[1], 3)), 1.0
        )
        original, calls = htfa.rbf_factor_matrix, []

        def poisoned(*args):
            calls.append(None)
            F = original(*args)
            return F if len(calls) == 1 else np.full_like(F, np.nan)

        monkeypatch.setattr(htfa, "rbf_factor_matrix", poisoned)
        with pytest.raises(EvaluationError, match="subject s0: ") as info:
            htfa.local_step(subjects[0], template, local, config, small_plan())
        cause = info.value.__cause__
        assert isinstance(cause, EvaluationError) and cause.x is not None
        assert info.value.x is cause.x


class TestGlobalStep:
    def rand_template(self, rng, k=4):
        covs = []
        for _ in range(k):
            C = rng.standard_normal((3, 3))
            covs.append(C @ C.T + 0.5 * np.eye(3))
        Cp = rng.standard_normal((3, 3))
        return htfa.GlobalTemplate(
            centers=rng.standard_normal((k, 3)),
            center_cov=np.stack(covs),
            widths=rng.uniform(1.0, 5.0, k),
            width_var=rng.uniform(0.1, 2.0, k),
            prior_center_cov=Cp @ Cp.T + 0.5 * np.eye(3),
            prior_width_var=float(rng.uniform(0.5, 2.0)),
        )

    def test_equal_precision_averaging(self):
        rng = np.random.default_rng(15)
        n = 5
        prior_cov = np.eye(3) * 0.9
        template = htfa.GlobalTemplate(
            centers=rng.standard_normal((2, 3)),
            center_cov=np.tile(prior_cov / n, (2, 1, 1)),
            widths=np.array([2.0, 3.0]),
            width_var=np.full(2, 1.3 / n),
            prior_center_cov=prior_cov,
            prior_width_var=1.3,
        )
        lc = rng.standard_normal((n, 2, 3))
        lw = rng.uniform(1.0, 4.0, (n, 2))
        out = htfa.global_step(lc, lw, template, n)
        assert np.allclose(out.centers, 0.5 * template.centers + 0.5 * lc.mean(0), atol=1e-12)
        assert np.allclose(out.widths, 0.5 * template.widths + 0.5 * lw.mean(0), atol=1e-12)

    def test_large_n_limit_approaches_local_mean(self):
        rng = np.random.default_rng(16)
        template = self.rand_template(rng, k=2)
        lc = rng.standard_normal((1, 2, 3))
        lw = rng.uniform(1.0, 4.0, (1, 2))
        gaps = []
        for n in (1, 10, 100, 1000):
            stacked_c = np.repeat(lc, n, axis=0)
            stacked_w = np.repeat(lw, n, axis=0)
            out = htfa.global_step(stacked_c, stacked_w, template, n)
            gaps.append(float(np.max(np.abs(out.centers - lc[0]))))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_matches_naive_update(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            template = self.rand_template(rng)
            n = int(rng.integers(1, 9))
            lc = rng.standard_normal((n, 4, 3))
            lw = rng.uniform(1.0, 5.0, (n, 4))
            out = htfa.global_step(lc, lw, template, n)
            ref = reference.naive_template_update(
                template.centers,
                template.center_cov,
                template.widths,
                template.width_var,
                template.prior_center_cov,
                template.prior_width_var,
                lc.mean(axis=0),
                lw.mean(axis=0),
                n,
            )
            assert np.max(np.abs(out.centers - ref[0])) <= 1e-10
            assert np.max(np.abs(out.center_cov - ref[1])) <= 1e-10
            assert np.max(np.abs(out.widths - ref[2])) <= 1e-10
            assert np.max(np.abs(out.width_var - ref[3])) <= 1e-10

    def test_degenerate_covariance_rejected(self):
        rng = np.random.default_rng(18)
        template = self.rand_template(rng, k=1)
        template.center_cov[0] = -np.eye(3)  # forces an indefinite sum
        template.prior_center_cov = 1e-12 * np.eye(3)
        with pytest.raises(DefinitenessError):
            htfa.global_step(
                rng.standard_normal((2, 1, 3)), np.ones((2, 1)), template, 2
            )


class TestFit:
    def test_two_subject_recovery(self, blob_data):
        subjects, grid, true_centers, _ = blob_data
        config = htfa.HtfaConfig(
            k=3,
            outer_iterations=5,
            local_iterations=4,
            seed=6,
            nlls=trf.TrfConfig(max_iterations=25),
        )
        template, locals_ = htfa.fit(
            subjects, config, small_plan(seed=13), SerialCommunicator()
        )
        cost = cdist(template.centers, true_centers)
        rows, cols = linear_sum_assignment(cost)
        assert np.all(cost[rows, cols] <= 1.0)
        lo, hi = grid.bounding_box()
        wlo, whi = htfa.width_bounds(grid, config)
        for m in locals_:
            assert np.all(m.centers >= lo) and np.all(m.centers <= hi)
            assert np.all(m.widths >= wlo) and np.all(m.widths <= whi)
        assert np.all(template.widths >= wlo) and np.all(template.widths <= whi)

    def test_smoke_single_iteration(self, blob_data):
        subjects, grid, _, _ = blob_data
        config = small_config(outer=1, local=1)
        comm = SerialCommunicator()
        template, locals_ = htfa.fit(subjects, config, small_plan(), comm)
        lo, hi = grid.bounding_box()
        assert np.all(template.centers >= lo) and np.all(template.centers <= hi)
        assert all(m.weights.shape == (s.X.shape[1], 3) for m, s in zip(locals_, subjects))
        # rank_offsets, one template per outer iteration and the final one
        assert comm.stats.bcast_calls == config.outer_iterations + 2

    def test_negative_seed_is_taken_mod_2_64(self, blob_data):
        subjects, _, _, _ = blob_data
        config = small_config(outer=2, local=2)
        a, b = (
            htfa.fit(subjects, config, small_plan(seed=seed), SerialCommunicator())
            for seed in (-1, 2**64 - 1)
        )
        # every field of the template and of each local model, as bytes
        a, b = ([np.asarray(v).tobytes() for m in (t, *ls) for v in vars(m).values()]
                for t, ls in (a, b))
        assert a == b

    def test_serial_vs_threads_identical(self, blob_data):
        subjects, _, _, _ = blob_data
        config = small_config(outer=2, local=2)
        plan = small_plan(seed=21)
        serial_t, serial_l = htfa.fit(subjects, config, plan, SerialCommunicator())

        comms = create_thread_communicators(2)
        chunks = [subjects[:1], subjects[1:]]
        results = [None, None]
        errors = [None, None]

        def run(rank):
            try:
                results[rank] = htfa.fit(chunks[rank], config, plan, comms[rank])
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for comm in comms:
            comm.close()
        assert errors == [None, None]
        for rank in (0, 1):
            tmpl = results[rank][0]
            assert tmpl.centers.tobytes() == serial_t.centers.tobytes()
            assert tmpl.widths.tobytes() == serial_t.widths.tobytes()
        assert results[0][1][0].weights.tobytes() == serial_l[0].weights.tobytes()
        assert results[1][1][0].weights.tobytes() == serial_l[1].weights.tobytes()


    @pytest.mark.parametrize(
        "split", [(2, 2), (1, 4), (4, 1), (2, 2, 1)], ids=lambda split: "-".join(map(str, split))
    )
    def test_iteration_log_covers_every_subject(self, split):
        """Every split of the subjects over thread ranks gives the serial
        fit's template, local models and iteration log, byte for byte."""
        matrices, grid, _, _ = blob_subjects(n_subjects=sum(split), k=3, seed=5)
        subjects = [SubjectData(f"s{i}", X, grid) for i, X in enumerate(matrices)]
        config = small_config(outer=3, local=2)
        plan = htfa.SubsamplePlan(max_voxels=300, max_trs=20)
        serial_log = []
        serial_t, serial_l = htfa.fit(
            subjects, config, plan, SerialCommunicator(), iteration_log=serial_log
        )
        size = len(split)
        bounds = np.cumsum((0,) + split)
        comms = create_thread_communicators(size, timeout=60.0)
        logs = [[] for _ in range(size)]
        results = [None] * size

        def run(rank):
            try:
                results[rank] = htfa.fit(
                    subjects[bounds[rank]:bounds[rank + 1]], config, plan, comms[rank],
                    iteration_log=logs[rank],
                )
            except BaseException:
                comms[rank].close()
                raise

        threads = [threading.Thread(target=run, args=(r,)) for r in range(size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
        for comm in comms:
            comm.close()
        assert len(serial_log) == config.outer_iterations
        assert np.array(logs[0]).tobytes() == np.array(serial_log).tobytes()
        assert logs[1:] == [[]] * (size - 1)
        for template, _ in results:
            for field in ("centers", "widths", "center_cov", "width_var"):
                got, want = getattr(template, field), getattr(serial_t, field)
                assert got.tobytes() == want.tobytes()
        models = [m for _, rank_models in results for m in rank_models]
        assert [m.subject_id for m in models] == [m.subject_id for m in serial_l]
        for got, want in zip(models, serial_l):
            for field in ("centers", "widths", "weights"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert got.noise_weight == want.noise_weight


    def test_template_broadcast_byte_for_byte(self, blob_data):
        """Every one of 3 thread ranks gets the root's whole template,
        posterior covariances and priors included."""
        subjects, _, _, _ = blob_data
        root = htfa.init_template(subjects[0], small_config())
        # distinct covariances per factor, so a row mix-up shows
        root.center_cov = root.center_cov * np.arange(1.0, 4.0)[:, None, None]
        comms = create_thread_communicators(3, timeout=30.0)
        results = [None] * 3

        def run(rank):
            try:
                results[rank] = htfa._broadcast_template(
                    comms[rank], root if rank == 0 else None, k=3
                )
            except BaseException:
                comms[rank].close()
                raise

        threads = [threading.Thread(target=run, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        for comm in comms:
            comm.close()
        for got in results:
            for name in ("centers", "center_cov", "widths", "width_var", "prior_center_cov"):
                want = getattr(root, name)
                assert getattr(got, name).shape == want.shape
                assert getattr(got, name).tobytes() == want.tobytes()
            assert np.float64(got.prior_width_var).tobytes() == np.float64(
                root.prior_width_var
            ).tobytes()
        assert [c.stats.bcast_calls for c in comms] == [1, 1, 1]

    def test_template_broadcast_refuses_another_k(self, blob_data):
        """A rank that expects 2 factors where the root sends 3 raises, rather
        than adopting the root's k."""
        subjects, _, _, _ = blob_data
        root = htfa.init_template(subjects[0], small_config())
        comms = create_thread_communicators(2, timeout=30.0)
        errors = [None] * 2

        def run(rank):
            try:
                htfa._broadcast_template(comms[rank], root if rank == 0 else None, k=3 - rank)
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        for comm in comms:
            comm.close()
        assert errors[0] is None
        assert isinstance(errors[1], CollectiveContractError)
        assert str(errors[1]) == "rank 1 expects 38 broadcast values, got 52"

    @pytest.mark.parametrize("seed", [0, 2, 6, 13])
    def test_no_factor_lost(self, seed):
        """At the benchmark's HTFA shape (8 factors on 20 x 20 x 12, 3 outer x
        3 local iterations, TRF capped at 5) every true center keeps a fitted
        center within 3 voxels under the best one-to-one match. With the
        k-means seeding these seeds lost one or two factors."""
        matrices, grid, centers, _ = scattered_blob_subjects(seed=seed)
        subjects = [SubjectData(f"s{i}", X, grid) for i, X in enumerate(matrices)]
        config = htfa.HtfaConfig(
            k=8, outer_iterations=3, local_iterations=3, nlls=trf.TrfConfig(max_iterations=5)
        )
        plan = htfa.SubsamplePlan(max_voxels=800, max_trs=40)
        template, _ = htfa.fit(subjects, config, plan, SerialCommunicator())
        cost = cdist(template.centers, centers)
        rows, cols = linear_sum_assignment(cost)
        assert np.all(cost[rows, cols] <= 3.0), cost[rows, cols]


class TestCommunicationVolume:
    def test_each_rank_ships_its_subtrees(self):
        """On 2 thread ranks holding 1 and 2 of 3 subjects, rank 0 gathers
        the 16-byte (rows, cols) header alone per outer iteration and rank 1
        its two stack rows of 4K + 3 values, after rank_offsets' count."""
        matrices, grid, _, _ = blob_subjects(n_subjects=3, k=3, seed=5)
        subjects = [SubjectData(f"s{i}", X, grid) for i, X in enumerate(matrices)]
        config = small_config(k=3, outer=2, local=1)
        comms = create_thread_communicators(2, timeout=60.0)
        chunks = [subjects[:1], subjects[1:]]
        errors = [None, None]

        def run(rank):
            try:
                htfa.fit(chunks[rank], config, small_plan(), comms[rank])
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
        for comm in comms:
            comm.close()
        assert errors == [None, None]
        row = (4 * config.k + 3) * 8
        for comm, shipped in zip(comms, (0, 2)):
            assert comm.stats.gather_calls == 1 + config.outer_iterations
            assert comm.stats.gather_bytes == (
                (16 + 8) + config.outer_iterations * (16 + shipped * row)
            )


class TestInputChecks:
    """Bad subjects fail by name before any collective, as in SRM."""

    CASES = [
        ("nan", "has NaN or infinite entries"),
        ("inf", "has NaN or infinite entries"),
        ("constant", "is constant over time"),
        ("one-voxel", "has a one-voxel grid"),
        ("flat", "has a grid flat along z"),
        ("1-D", "has 1-D data, not a voxels x TRs matrix"),
        ("short-grid", "has 1142 grid positions for 1152 voxels"),
    ]
    # a plan small enough that a NaN at [7, 3] is never sampled
    PLAN = htfa.SubsamplePlan(max_voxels=50, max_trs=5, voxel_fraction=0.05, tr_fraction=0.05)

    @staticmethod
    def subjects(bad):
        matrices, grid, _, _ = blob_subjects(k=3, seed=5)
        X = matrices[1].copy()
        if bad == "one-voxel":
            return [SubjectData("s0", matrices[0], grid),
                    SubjectData("s1", X[:1], cuboid_grid(1, 1, 1))]
        if bad == "flat":
            # one 12 x 12 slice: the centers' z bounds would be equal
            return [SubjectData("s0", matrices[0], grid),
                    SubjectData("s1", X[:144], cuboid_grid(12, 12, 1))]
        if bad == "1-D":
            return [SubjectData("s0", matrices[0], grid), SubjectData("s1", X[:, 0], grid)]
        if bad == "short-grid":
            # the grid's last 10 positions dropped: 1142 positions for 1152 rows
            short = VoxelGrid.from_positions(grid.positions[:-10])
            return [SubjectData("s0", matrices[0], grid), SubjectData("s1", X, short)]
        if bad == "constant":
            X[:] = 2.5
        else:
            X[7, 3] = np.nan if bad == "nan" else np.inf
        return [SubjectData("s0", matrices[0], grid), SubjectData("s1", X, grid)]

    @staticmethod
    def error(bad):
        return InvalidInputError if bad in ("nan", "inf", "constant") else ShapeError

    @pytest.mark.parametrize("bad, message", CASES)
    def test_serial(self, bad, message):
        comm = SerialCommunicator()
        with pytest.raises(self.error(bad), match=f"subject s1 {message}"):
            htfa.fit(self.subjects(bad), small_config(outer=2, local=2), self.PLAN, comm)
        assert comm.stats.gather_calls == comm.stats.bcast_calls == 0

    @pytest.mark.parametrize("bad, message", CASES)
    def test_two_thread_ranks(self, bad, message):
        subjects = self.subjects(bad)
        comms = create_thread_communicators(2, timeout=10.0)
        errors = [None, None]

        def run(rank):
            try:
                htfa.fit(subjects[rank:rank + 1], small_config(outer=2, local=2), self.PLAN,
                         comms[rank])
            except BaseException as exc:  # noqa: BLE001
                errors[rank] = exc
                comms[rank].close()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        for comm in comms:
            comm.close()
        assert isinstance(errors[1], self.error(bad)), errors
        assert f"subject s1 {message}" in str(errors[1])
        assert comms[1].stats.gather_calls == comms[1].stats.bcast_calls == 0
        assert errors[0] is not None  # rank 0 learns of the abort

    def test_root_seeding_fails_by_name_before_any_collective(self):
        grid = cuboid_grid(3, 2, 1)
        X = np.random.default_rng(7).standard_normal((grid.n_voxels, 10))
        comm = SerialCommunicator()
        with pytest.raises(ShapeError, match="subject sub-07: 6 voxels cannot seed 8 factors"):
            htfa.fit([SubjectData("sub-07", X, grid)], small_config(k=8), self.PLAN, comm)
        assert comm.stats.gather_calls == comm.stats.bcast_calls == 0

    def test_zero_local_iterations_is_config_error(self):
        # without a local step every weight column stays zero, every factor is
        # re-seeded at one voxel and the template is pulled there
        matrices, grid, _, _ = blob_subjects(k=3, seed=3)
        subjects = [SubjectData(f"s{i}", X, grid) for i, X in enumerate(matrices[:2])]
        comm = SerialCommunicator()
        with pytest.raises(ConfigError, match="local_iterations must be at least 1"):
            htfa.fit(subjects, small_config(local=0), self.PLAN, comm)
        assert comm.stats.gather_calls == comm.stats.bcast_calls == 0


class TestConnectivity:
    def test_identical_columns_correlate_fully(self):
        rng = np.random.default_rng(19)
        col = rng.standard_normal(20)
        local = htfa.LocalModel(
            "x", np.zeros((2, 3)), np.ones(2), np.column_stack([col, col]), 1.0
        )
        conn = htfa.connectivity_matrix(local)
        assert conn[0, 1] == pytest.approx(1.0)

    def test_orthogonal_columns_uncorrelated(self):
        n = 40
        t = np.arange(n)
        a = np.sin(2 * np.pi * t / n)
        b = np.cos(2 * np.pi * t / n)
        local = htfa.LocalModel(
            "x", np.zeros((2, 3)), np.ones(2), np.column_stack([a, b]), 1.0
        )
        conn = htfa.connectivity_matrix(local)
        assert abs(conn[0, 1]) <= 1e-12

    def test_matches_direct_normalization(self):
        rng = np.random.default_rng(20)
        W = rng.standard_normal((30, 4))
        local = htfa.LocalModel("x", np.zeros((4, 3)), np.ones(4), W, 1.0)
        conn = htfa.connectivity_matrix(local)
        expected = np.corrcoef(W.T)
        assert np.max(np.abs(conn - expected)) <= 1e-12

    def test_zero_variance_column(self):
        rng = np.random.default_rng(21)
        W = np.column_stack([rng.standard_normal(15), np.full(15, 3.0)])
        local = htfa.LocalModel("x", np.zeros((2, 3)), np.ones(2), W, 1.0)
        conn = htfa.connectivity_matrix(local)
        assert conn[0, 1] == 0.0 and conn[1, 0] == 0.0
        assert conn[0, 0] == 1.0 and conn[1, 1] == 1.0


class TestRescue:
    def test_dead_factor_reseeded(self, blob_data):
        subjects, grid, _, _ = blob_data
        weights = np.random.default_rng(22).standard_normal((subjects[0].X.shape[1], 3))
        weights[:, 1] = 0.0
        local = htfa.LocalModel(
            "s0",
            grid.positions[:3].astype(float).copy(),
            np.full(3, 2.0),
            weights,
            1.0,
        )
        before = local.centers[1].copy()
        out = htfa._rescue_degenerate(subjects[0], local)
        assert not np.array_equal(out.centers[1], before) or np.any(
            np.all(grid.positions == before, axis=1)
        )
        assert np.array_equal(out.centers[0], local.centers[0])

    def test_residual_energies_by_blocks(self, blob_data):
        """The re-seeding voxel is the argmax of ||X_v - (W F)^T_v||^2, found
        without forming the V x T residual."""
        subjects, grid, _, _ = blob_data
        X = subjects[0].X
        weights = np.random.default_rng(23).standard_normal((X.shape[1], 3))
        weights[:, 2] = 0.0
        local = htfa.LocalModel("s0", grid.positions[[5, 300, 900]] + 0.5, np.full(3, 4.0),
                                weights, 1.0)
        R = X - (weights @ rbf_factor_matrix(local.centers, local.widths, grid)).T
        voxel = np.argmax((R**2).sum(axis=1))
        peak = traced_peak(htfa._rescue_degenerate, subjects[0], local)
        assert peak < X.nbytes / 4, (peak, X.nbytes)
        assert np.array_equal(local.centers[2], grid.positions[voxel])
