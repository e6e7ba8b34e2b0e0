import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.linalg import norm
from scipy.optimize import lsq_linear

from datagen import blob_subjects, traced_peak

from factorfit import htfa, trf
from factorfit.errors import ConfigError, EvaluationError, InvalidInputError, ShapeError
from factorfit.kernels import rbf_factor_matrix
from factorfit.trf import LeastSquaresProblem, TrfConfig, check_jacobian, solve


def linear_problem(target, lower=None, upper=None):
    n = target.size
    return LeastSquaresProblem(
        n_vars=n,
        n_residuals=n,
        residual_fn=lambda x: x - target,
        jacobian_fn=lambda x: np.eye(n),
        lower=lower,
        upper=upper,
    )


def rosenbrock_problem():
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jacobian(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    return LeastSquaresProblem(2, 2, residual, jacobian)


def box_problem():
    """Target outside a box in both coordinates: each ends on a bound."""
    return linear_problem(
        np.array([5.0, -5.0]), lower=np.array([0.0, -1.0]), upper=np.array([2.0, 1.0])
    )


def htfa_center_problem():
    """The center block of a 3-factor HTFA local step on blob data."""
    matrices, grid, centers, widths = blob_subjects(n_subjects=1, seed=321)
    Xs, vox, _, phi = htfa.subsample(
        matrices[0], htfa.SubsamplePlan(max_voxels=250, max_trs=20), np.random.default_rng(11)
    )
    view = grid.take(vox)
    W = htfa.update_weights(Xs.T, rbf_factor_matrix(centers, widths, view), 1.0)
    template = htfa.GlobalTemplate(
        centers=centers + 0.7,
        center_cov=np.tile(np.eye(3), (3, 1, 1)),
        widths=widths.copy(),
        width_var=np.ones(3),
        prior_center_cov=np.eye(3),
        prior_width_var=1.0,
    )
    problem = htfa.build_center_problem(
        Xs.T, W, widths, template, phi, view, 0.5, bounds_grid=grid
    )
    return problem, template.centers.ravel()


class TestSolve:
    def test_linear_unbounded_two_iterations(self):
        target = np.array([3.0, -2.0, 7.5])
        result = solve(linear_problem(target), np.zeros(3))
        assert np.allclose(result.x, target, atol=1e-10)
        assert result.cost <= 1e-20
        assert result.iterations <= 2

    def test_active_upper_bound_exact(self):
        problem = LeastSquaresProblem(
            1,
            1,
            lambda x: x - 5.0,
            lambda x: np.ones((1, 1)),
            upper=np.array([2.0]),
        )
        result = solve(problem, np.array([0.0]))
        assert result.x[0] == 2.0
        assert result.termination_reason in ("gradient", "step")
        assert result.projected_gradient_norm <= 1e-8
        # one residual per trial plus the start and the snap onto the bound;
        # one (H, g) per accepted point, the snapped one included
        assert result.nfev == 8
        assert result.njev == 7 == len(result.accepted_costs)

    def test_rosenbrock(self):
        result = solve(rosenbrock_problem(), np.array([-1.2, 1.0]))
        assert np.max(np.abs(result.x - 1.0)) <= 1e-6

    def test_bounds_inclusive_always(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            target = rng.normal(0, 5, n)
            lo = rng.normal(-2, 1, n)
            hi = lo + rng.uniform(0.5, 3, n)
            x0 = lo + rng.uniform(0.1, 0.9, n) * (hi - lo)
            result = solve(linear_problem(target, lo, hi), x0)
            assert np.all(result.x >= lo) and np.all(result.x <= hi)
            # the box-constrained least-squares optimum is the clipped target
            assert np.allclose(result.x, np.clip(target, lo, hi), atol=1e-6)

    def test_accepted_costs_non_increasing(self):
        suite = [
            (rosenbrock_problem(), np.array([-1.2, 1.0])),
            (linear_problem(np.array([4.0, 4.0])), np.array([0.0, 0.0])),
            (box_problem(), np.array([1.0, 0.0])),
        ]
        for problem, x0 in suite:
            result = solve(problem, x0)
            diffs = np.diff(result.accepted_costs)
            assert np.all(diffs <= 0.0)

    def test_unbounded_linear_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 4))
        b = rng.standard_normal(12)
        problem = LeastSquaresProblem(
            4, 12, lambda x: A @ x - b, lambda x: A
        )
        expected = np.linalg.solve(A.T @ A, A.T @ b)
        result = solve(problem, np.zeros(4))
        assert np.max(np.abs(result.x - expected)) <= 1e-8

    def test_deterministic(self):
        a = solve(rosenbrock_problem(), np.array([-1.2, 1.0]))
        b = solve(rosenbrock_problem(), np.array([-1.2, 1.0]))
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations
        assert a.termination_reason == b.termination_reason

    def test_max_iterations_reason(self):
        cfg = TrfConfig(max_iterations=2, gradient_tolerance=1e-300,
                        step_tolerance=1e-300, cost_tolerance=1e-300)
        result = solve(rosenbrock_problem(), np.array([-1.2, 1.0]), cfg)
        assert result.termination_reason == "max_iterations"
        assert result.iterations == 2

    @pytest.mark.parametrize("x0", [5.0, 0.0])
    def test_wrong_sign_jacobian_stops_on_step(self, x0):
        """A Jacobian of the wrong sign makes every trial raise the cost, so
        the radius shrinks until a "step" stop ends the solve at x0: from 5
        the trial step falls below the step tolerance first; at 0, where
        that tolerance is 1e-16, the radius falls below 1e-14 first."""
        problem = LeastSquaresProblem(
            1, 1, lambda x: 1.0 + x, lambda x: np.array([[-1.0]])
        )
        result = solve(problem, np.array([x0]))
        assert result.termination_reason == "step"
        assert result.x.tolist() == [x0]
        assert result.accepted_costs == [0.5 * (1.0 + x0) ** 2]

    def test_x0_on_bound_clamped_inward(self):
        problem = linear_problem(
            np.array([5.0]), lower=np.array([0.0]), upper=np.array([2.0])
        )
        result = solve(problem, np.array([2.0]))
        assert result.x[0] == 2.0

    def test_non_finite_residual_raises(self):
        def residual(x):
            return np.array([np.inf if x[0] > 1 else x[0]])

        problem = LeastSquaresProblem(1, 1, residual, lambda x: np.ones((1, 1)))
        with pytest.raises(EvaluationError) as excinfo:
            solve(problem, np.array([3.0]))
        assert excinfo.value.x is not None

    def test_problem_without_derivatives_refused_before_any_residual(self):
        calls = []
        problem = LeastSquaresProblem(1, 1, lambda x: calls.append(x) or x - 1.0)
        with pytest.raises(InvalidInputError, match="neither normal_fn nor jacobian_fn"):
            solve(problem, np.array([3.0]))
        assert calls == []

    @pytest.mark.parametrize("x0, lower, upper", [
        ([np.nan, 1.0], None, None),
        ([np.inf, 1.0], np.zeros(2), None),
    ], ids=["nan", "inf-bounded"])
    def test_non_finite_start_refused_before_any_residual(self, x0, lower, upper):
        """A NaN start used to be blamed on ``residual_fn``; an infinite one
        above a lower bound made the clamp subtract inf from inf."""
        calls = []

        def residual(x):
            calls.append(x)
            return x - 1.0

        problem = LeastSquaresProblem(
            2, 2, residual, lambda x: np.eye(2), lower=lower, upper=upper
        )
        with pytest.raises(InvalidInputError, match="x0 has NaN or infinite entries"):
            solve(problem, np.array(x0))
        assert calls == []

    def test_invalid_bounds_rejected(self):
        problem = linear_problem(
            np.array([1.0]), lower=np.array([2.0]), upper=np.array([2.0])
        )
        with pytest.raises(InvalidInputError):
            solve(problem, np.array([0.0]))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            solve(rosenbrock_problem(), np.zeros(2), TrfConfig(max_iterations=0))

    def test_rank_deficient_takes_levenberg_branch(self, monkeypatch):
        # duplicate columns make J^T J singular in the unbounded pair
        a = np.array([1.0, 2.0, 3.0, 0.0, -1.0])
        c = np.array([0.0, 1.0, -1.0, 2.0, 1.0])
        A = np.column_stack([a, a, c])
        b = np.array([1.0, 2.0, 3.0, 4.0, 0.5])
        lower = np.array([-np.inf, -np.inf, 0.0])
        upper = np.array([np.inf, np.inf, 0.5])
        problem = LeastSquaresProblem(3, 5, lambda x: A @ x - b, lambda x: A, lower, upper)

        ratios = []
        original = trf._eigen_model

        def spy(M, g_h):
            mu = np.linalg.eigvalsh(M)
            ratios.append(mu[0] / mu[-1])
            return original(M, g_h)

        monkeypatch.setattr(trf, "_eigen_model", spy)
        result = solve(problem, np.zeros(3))
        assert ratios and min(ratios) <= trf._LEVENBERG_RATIO
        assert np.all(result.x >= lower) and np.all(result.x <= upper)
        assert np.all(np.diff(result.accepted_costs) <= 0.0)
        reduced = lsq_linear(A[:, 1:], b, bounds=(lower[1:], upper[1:]))
        assert result.cost <= reduced.cost * (1 + 1e-8) + 1e-12


class TestSnapToBounds:
    def test_one_solve_snaps_onto_lower_and_upper(self):
        # iterates stay strictly inside the box, so exact equality with
        # both bounds can only come from the final snap
        result = solve(box_problem(), np.array([1.0, 0.0]))
        assert result.x.tolist() == [2.0, -1.0]
        assert result.projected_gradient_norm == 0.0

    @staticmethod
    def snapped_by_loop(x, g, lb, ub, window):
        """Per-component reference: upper bound first, then lower."""
        candidate = x.copy()
        for j in range(x.size):
            if np.isfinite(ub[j]) and g[j] < 0 and ub[j] - x[j] <= window * max(1.0, abs(ub[j])):
                candidate[j] = ub[j]
            elif np.isfinite(lb[j]) and g[j] > 0 and x[j] - lb[j] <= window * max(1.0, abs(lb[j])):
                candidate[j] = lb[j]
        return candidate

    def test_same_decisions_as_per_component_loop(self):
        cfg = TrfConfig()
        window = 100.0 * cfg.step_tolerance
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            lb = rng.choice([-5.0, -2.0, 0.0, 3e4], n)  # bounds at 0 hit the window edge exactly
            ub = lb + rng.choice([0.5, 2.0, 7e4], n)
            # gaps on both sides of the window, measured from one bound
            gap = rng.choice([0.5, 1.0, 2.0, 10.0], n) * window
            x = np.where(
                rng.random(n) < 0.5,
                ub - gap * np.maximum(1.0, np.abs(ub)),
                lb + gap * np.maximum(1.0, np.abs(lb)),
            )
            lb[rng.random(n) < 0.25] = -np.inf
            ub[rng.random(n) < 0.25] = np.inf
            g = rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
            expected = self.snapped_by_loop(x, g, lb, ub, window)
            cost_after = float(rng.choice([0.5, 2.0]))
            r_snap = np.array([np.sqrt(2.0 * cost_after)])

            x_out, cost, r = trf._snap_to_bounds(lambda c: r_snap, x, 1.0, g, lb, ub, cfg)
            if np.array_equal(expected, x) or cost_after > 1.0:
                assert x_out is x and cost == 1.0 and r is None
            else:
                assert np.array_equal(x_out, expected) and cost == cost_after and r is r_snap


class TestOneLinearAlgebraPath:
    def test_one_eigh_per_iteration_and_nothing_else(self, monkeypatch):
        cases = [
            (rosenbrock_problem(), np.array([-1.2, 1.0])),
            (box_problem(), np.array([1.0, 0.0])),
            htfa_center_problem(),
        ]
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        for module, name in [(np.linalg, "eigh"), (np.linalg, "qr"), (np.linalg, "solve"), (np, "roots")]:
            counted(module, name)
        for problem, x0 in cases:
            calls.update(eigh=0, qr=0, solve=0, roots=0)
            result = solve(problem, x0)
            assert 1 <= calls.pop("eigh") <= result.iterations
            assert calls == dict(qr=0, solve=0, roots=0)


_entries = st.integers(-30, 30).map(lambda v: v / 10.0)


@st.composite
def _trust_region_models(draw):
    """A PSD M = A A^T of random rank (0 gives M = 0), g != 0 and a radius."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n))
    A = np.array(draw(st.lists(_entries, min_size=n * rank, max_size=n * rank))).reshape(n, rank)
    g = np.array(draw(st.lists(_entries, min_size=n, max_size=n)))
    assume(np.any(g != 0.0))
    radius = draw(st.floats(1e-3, 10.0))
    return A @ A.T, g, radius, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trust_region_models())
def test_property_exact_trust_region_step(case):
    M, g, radius, seed = case
    p = trf._trust_region_step(*trf._eigen_model(M, g), radius)

    def model(s):
        return 0.5 * np.einsum("...i,ij,...j->...", s, M, s) + s @ g

    g_norm = norm(g)
    assert norm(p) <= radius * (1 + 1e-12)
    if not np.any(M):
        assert np.allclose(p, -radius * g / g_norm, rtol=1e-12, atol=0.0)
        return
    tol = 1e-9 * (radius * g_norm + radius**2 * np.max(np.abs(M)))
    curvature = g @ M @ g
    t = radius / g_norm if curvature <= 0 else min(radius / g_norm, g_norm**2 / curvature)
    assert model(p) <= model(-t * g) + tol  # Cauchy point
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((200, g.size))
    u *= (radius * rng.random(200) ** (1.0 / g.size) / norm(u, axis=1))[:, None]
    assert model(p) <= np.min(model(u)) + tol
    mu = np.linalg.eigvalsh(M)
    if mu[0] > 1e-8 * mu[-1]:
        newton = np.linalg.solve(M, -g)
        if norm(newton) <= radius:
            assert np.allclose(p, newton, rtol=1e-8, atol=1e-12 * radius)


class TestNormalFn:
    @staticmethod
    def problem(normal_fn):
        target = np.array([1.0, -2.0])

        def jacobian(x):
            raise AssertionError("jacobian_fn called although normal_fn is given")

        return LeastSquaresProblem(2, 2, lambda x: x - target, jacobian, normal_fn=normal_fn)

    def test_used_instead_of_jacobian(self):
        result = solve(self.problem(lambda x, r: (np.eye(2), r.copy())), np.zeros(2))
        assert np.allclose(result.x, [1.0, -2.0], atol=1e-10)
        assert result.njev == len(result.accepted_costs)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            solve(self.problem(lambda x, r: (np.eye(3), r)), np.zeros(2))
        with pytest.raises(ShapeError):
            solve(self.problem(lambda x, r: (np.eye(2), np.ones(3))), np.zeros(2))

    def test_non_finite_rejected(self):
        def normal(x, r):
            H = np.eye(2)
            H[0, 1] = np.nan
            return H, r

        with pytest.raises(EvaluationError) as excinfo:
            solve(self.problem(normal), np.zeros(2))
        assert excinfo.value.x is not None

    def test_at_most_two_residuals_alive(self):
        """Far from a linear problem's solution each trial reaches the edge
        of the region with an exact model, so the solver keeps doubling the
        radius. The accepted residual is dropped once (H, g) are formed and
        a better trial replaces the best one, so a trial holds at most the
        best residual, its own and the finiteness check's bool array."""
        n = 200_000
        rng = np.random.default_rng(3)
        A = rng.standard_normal((n, 2))
        b = A @ np.array([40.0, -25.0])
        gram = A.T @ A

        def residual(x):
            r = A @ x
            r -= b
            return r

        problem = LeastSquaresProblem(2, n, residual, normal_fn=lambda x, r: (gram, A.T @ r))
        results = []
        peak = traced_peak(
            lambda: results.append(solve(problem, np.zeros(2), TrfConfig(initial_trust_radius=1e-2)))
        )
        assert np.allclose(results[0].x, [40.0, -25.0])
        assert results[0].nfev > results[0].iterations + 1  # the doubling retries
        assert peak <= 2 * 8 * n + n + 64 * 1024, peak / (8 * n)


_coords = st.floats(-10.0, 10.0, allow_nan=False)
_coefs = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def _boxed_problems(draw):
    """A random box (some sides open), start point and linear or
    separable-quadratic residual, with an analytic Jacobian or only the
    normal-equation pieces it gives."""
    n = draw(st.integers(1, 4))
    vec = lambda elems: np.array(draw(st.lists(elems, min_size=n, max_size=n)))
    lo = vec(_coords)
    hi = lo + vec(st.floats(1e-3, 10.0))
    frac = vec(st.floats(0.0, 1.0))
    x0 = lo + frac * (hi - lo)
    lo[vec(st.booleans())] = -np.inf
    hi[vec(st.booleans())] = np.inf
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        A = np.array(draw(st.lists(_coefs, min_size=m * n, max_size=m * n))).reshape(m, n)
        b = np.array(draw(st.lists(_coords, min_size=m, max_size=m)))
        residual, jacobian = (lambda x: A @ x - b), (lambda x: A)
    else:
        m = n
        scale, target, shift = vec(st.floats(0.1, 3.0)), vec(_coords), vec(_coefs)
        residual = lambda x: scale * (x - target) ** 2 + shift
        jacobian = lambda x: np.diag(2.0 * scale * (x - target))
    if draw(st.booleans()):
        normal = lambda x, r: (jacobian(x).T @ jacobian(x), jacobian(x).T @ r)
        return LeastSquaresProblem(n, m, residual, None, lo, hi, normal), x0
    return LeastSquaresProblem(n, m, residual, jacobian, lo, hi), x0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_boxed_problems())
def test_property_bounds_and_monotone_costs(case):
    problem, x0 = case
    result = solve(problem, x0)
    assert np.all(result.x >= problem.lower) and np.all(result.x <= problem.upper)
    assert np.all(np.diff(result.accepted_costs) <= 0.0)


class TestCheckJacobian:
    def test_linear_exact(self):
        problem = linear_problem(np.array([1.0, 2.0, 3.0]))
        assert check_jacobian(problem, np.array([0.3, 0.4, 0.5])) <= 1e-9

    def test_corrupted_column_detected(self):
        target = np.array([1.0, 2.0, 3.0])
        bad = LeastSquaresProblem(
            3,
            3,
            lambda x: x - target,
            lambda x: np.diag([2.0, 1.0, 1.0]),  # first column scaled 2x
        )
        assert check_jacobian(bad, np.array([0.3, 0.4, 0.5])) >= 0.5

    def test_nonlinear_analytic(self):
        assert check_jacobian(rosenbrock_problem(), np.array([0.7, -0.3])) <= 1e-7

    def test_normal_fn_checked_against_differences(self):
        base = rosenbrock_problem()
        x = np.array([0.7, -0.3])

        def normal(x, r):
            J = base.jacobian_fn(x)
            return J.T @ J, J.T @ r

        def normal_wrong_h(x, r):
            H, g = normal(x, r)
            return H * np.array([[1.0, 1.0], [1.0, 1.01]]), g

        def normal_wrong_g(x, r):
            H, g = normal(x, r)
            return H, g + np.array([0.0, 0.01]) * np.max(np.abs(g))

        def with_normal(fn):
            return LeastSquaresProblem(
                2, 2, base.residual_fn, base.jacobian_fn, normal_fn=fn
            )

        assert check_jacobian(with_normal(normal), x) <= 1e-7
        # the dense Jacobian is right; only the (H, g) the solver uses is off
        assert check_jacobian(with_normal(normal_wrong_h), x) >= 1e-3
        assert check_jacobian(with_normal(normal_wrong_g), x) >= 1e-3

    def test_requires_analytic_jacobian(self):
        problem = LeastSquaresProblem(1, 1, lambda x: x)
        with pytest.raises(InvalidInputError):
            check_jacobian(problem, np.array([0.0]))
