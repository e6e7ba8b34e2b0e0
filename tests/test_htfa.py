import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from datagen import blob_subjects, cuboid_grid
from factorfit import htfa, reference, trf
from factorfit.collectives import SerialCommunicator, create_thread_communicators
from factorfit.data_io import SubjectData
from factorfit.errors import ConfigError, DefinitenessError, ShapeError
from factorfit.kernels import rbf_factor_matrix


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
    def test_single_factor_weighted_centroid(self, blob_data):
        subjects, grid, _, _ = blob_data
        template = htfa.init_template(subjects[0], small_config(k=1))
        act = np.abs(subjects[0].X).mean(axis=1)
        centroid = (act[:, None] * grid.positions).sum(axis=0) / act.sum()
        assert np.max(np.abs(template.centers[0] - centroid)) <= 1e-9

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
        """Axis by axis in x + y + z order gives the bits of the
        (n, m, 3) broadcast's sum, so k-means and the width problem's
        distances do not move."""
        rng = np.random.default_rng(6)
        a = rng.uniform(-30.0, 30.0, (300, 3))
        b = rng.uniform(-30.0, 30.0, (7, 3))
        for p, q in ((a, b), (b, a), (a, a[[5]])):
            want = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1)
            assert htfa._sq_distances(p, q).tobytes() == want.tobytes()

    def test_too_few_voxels(self):
        grid = cuboid_grid(2, 2, 1)
        subject = SubjectData("tiny", np.ones((4, 5)), grid)
        with pytest.raises(ShapeError):
            htfa.init_template(subject, small_config(k=10))


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
        for k in (1, 2, 5):
            H = rng.standard_normal((3 * k, 3 * k))
            rows = rng.standard_normal((k, 3))
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


def _traced_peak(fn, *args):
    """Peak bytes traced above the level at entry while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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
            peak = _traced_peak(prob.residual_fn, x)
            assert peak <= (n_data + k) * 8 + self.SLACK, peak

    def test_normal_builds_gradients_once(self, block_problems):
        """Center: one 3K x Vtilde G plus its K x Vtilde products (the scale
        F * 2/lambda, then W^T R); width: G and W^T R, K x Vtilde each."""
        k, _, n_vox, points = block_problems
        for (prob, x), budget in zip(points, (3 * k * n_vox + 2 * k * n_vox, 2 * k * n_vox)):
            r = prob.residual_fn(x)
            peak = _traced_peak(prob.normal_fn, x, r)
            assert peak <= budget * 8 + self.SLACK, peak

    def test_init_template_below_one_subject_matrix(self):
        grid = cuboid_grid(20, 20, 12)
        X = np.random.default_rng(24).standard_normal((grid.n_voxels, 150))
        subject = SubjectData("s", X, grid)
        peak = _traced_peak(htfa.init_template, subject, small_config(k=8))
        assert peak < X.nbytes, peak

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

    def test_zero_iterations_returns_input(self, blob_data):
        subjects, _, _, _ = blob_data
        config = small_config(local=0)
        template = htfa.init_template(subjects[0], config)
        local = htfa.LocalModel(
            "s0", np.full((3, 3), 7.0), np.ones(3), np.zeros((subjects[0].X.shape[1], 3)), 1.0
        )
        out = htfa.local_step(subjects[0], template, local, config, small_plan())
        assert out is local

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
        # rank_offsets, the two priors, one template per outer iteration
        # and the final K x 14 template
        assert comm.stats.bcast_calls == config.outer_iterations + 4

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
                comms[rank].abort()

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [None, None]
        for rank in (0, 1):
            tmpl = results[rank][0]
            assert np.max(np.abs(tmpl.centers - serial_t.centers)) <= 1e-12
            assert np.max(np.abs(tmpl.widths - serial_t.widths)) <= 1e-12
        assert np.max(np.abs(results[0][1][0].weights - serial_l[0].weights)) <= 1e-12
        assert np.max(np.abs(results[1][1][0].weights - serial_l[1].weights)) <= 1e-12


    def test_iteration_log_covers_every_subject(self):
        matrices, grid, _, _ = blob_subjects(n_subjects=4, k=3, seed=5)
        subjects = [SubjectData(f"s{i}", X, grid) for i, X in enumerate(matrices)]
        config = small_config(outer=3, local=2)
        plan = htfa.SubsamplePlan(max_voxels=300, max_trs=20)
        serial_log = []
        serial_t, _ = htfa.fit(
            subjects, config, plan, SerialCommunicator(), iteration_log=serial_log
        )
        comms = create_thread_communicators(2, timeout=60.0)
        logs = [[], []]
        results = [None, None]

        def run(rank):
            try:
                results[rank] = htfa.fit(
                    subjects[2 * rank:2 * rank + 2], config, plan, comms[rank],
                    iteration_log=logs[rank],
                )
            except BaseException:
                comms[rank].abort()
                raise

        threads = [threading.Thread(target=run, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
        assert len(serial_log) == config.outer_iterations
        assert np.array(logs[0]).tobytes() == np.array(serial_log).tobytes()
        assert logs[1] == []
        for template, _ in results:
            for field in ("centers", "widths", "center_cov", "width_var"):
                got, want = getattr(template, field), getattr(serial_t, field)
                assert got.tobytes() == want.tobytes()


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
