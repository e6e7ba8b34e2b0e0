import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from datagen import traced_peak

from factorfit import trf
from factorfit.errors import ConfigError, EvaluationError, InvalidInputError, ShapeError
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
            (
                linear_problem(
                    np.array([5.0, -5.0]),
                    lower=np.array([0.0, -1.0]),
                    upper=np.array([2.0, 1.0]),
                ),
                np.array([1.0, 0.0]),
            ),
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

    def test_x0_on_bound_clamped_inward(self):
        problem = linear_problem(
            np.array([5.0]), lower=np.array([0.0]), upper=np.array([2.0])
        )
        result = solve(problem, np.array([2.0]))
        assert result.x[0] == 2.0

    def test_non_finite_residual_raises(self):
        def residual(x):
            return np.array([np.inf if x[0] > 1 else x[0]])

        problem = LeastSquaresProblem(1, 1, residual, None)
        with pytest.raises(EvaluationError) as excinfo:
            solve(problem, np.array([3.0]))
        assert excinfo.value.x is not None

    def test_invalid_bounds_rejected(self):
        problem = linear_problem(
            np.array([1.0]), lower=np.array([2.0]), upper=np.array([2.0])
        )
        with pytest.raises(InvalidInputError):
            solve(problem, np.array([0.0]))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            solve(rosenbrock_problem(), np.zeros(2), TrfConfig(max_iterations=0))

    def test_finite_difference_fallback(self):
        problem = LeastSquaresProblem(
            2, 2, lambda x: np.array([x[0] ** 2 - 1.0, x[1] - 2.0])
        )
        result = solve(problem, np.array([3.0, 0.0]))
        assert abs(abs(result.x[0]) - 1.0) <= 1e-6
        assert abs(result.x[1] - 2.0) <= 1e-6

    def test_finite_difference_stays_inside_active_bound(self):
        # the residual is undefined above the bound; once the solution is
        # snapped onto it, the difference step must point into the box
        problem = LeastSquaresProblem(
            1,
            1,
            lambda x: np.array([x[0] - 5 + 0 * np.sqrt(2 - x[0])]),
            None,
            upper=np.array([2.0]),
        )
        result = solve(problem, np.array([0.0]))
        assert result.x[0] == 2.0

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
        original = trf._gauss_newton_step

        def spy(M, g_h):
            mu = np.linalg.eigvalsh(M)
            ratios.append(mu[0] / mu[-1])
            return original(M, g_h)

        monkeypatch.setattr(trf, "_gauss_newton_step", spy)
        result = solve(problem, np.zeros(3))
        assert ratios and min(ratios) <= trf._LEVENBERG_RATIO
        assert np.all(result.x >= lower) and np.all(result.x <= upper)
        assert np.all(np.diff(result.accepted_costs) <= 0.0)
        reduced = lsq_linear(A[:, 1:], b, bounds=(lower[1:], upper[1:]))
        assert result.cost <= reduced.cost * (1 + 1e-8) + 1e-12


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
    separable-quadratic residual, with an analytic or finite-difference
    Jacobian."""
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
        jacobian = None
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
