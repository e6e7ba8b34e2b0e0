"""Bound-constrained nonlinear least squares by a trust-region reflective method.

Minimizes 0.5 * ||r(x)||^2 subject to box bounds. Bounds are handled by
Coleman-Li interior scaling with reflected search directions, so
iterates stay strictly feasible while the region shrinks naturally near
active bounds. After termination, components resting against a bound
are snapped onto it exactly when that does not increase the cost.

The solver only sees the normal-equation pieces H = J^T J and
g = J^T r: a problem supplies them directly through ``normal_fn`` (so a
structured problem never forms its Jacobian) or through its analytic
Jacobian ``jacobian_fn``; a problem with neither is refused. One
eigendecomposition of the scaled model Hessian per iteration is its
only factorization: every trial radius takes the exact trust-region
step in that eigenbasis, with Levenberg damping added when the
condition number exceeds 1e12.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg import norm

from .errors import ConfigError, EvaluationError, InvalidInputError, ShapeError

__all__ = [
    "LeastSquaresProblem",
    "TrfConfig",
    "SolveResult",
    "solve",
    "check_jacobian",
]

_LEVENBERG_RATIO = 1e-12  # damp when mu_min <= ratio * mu_max
_SECULAR_ITERATIONS = 50  # cap on Newton steps for the boundary multiplier
_SECULAR_RTOL = 1e-10  # accept ||p|| within this fraction above the radius
_CHECK_STEP = 1e-6  # relative central-difference step of check_jacobian


@dataclass
class TrfConfig:
    max_iterations: int = 50
    gradient_tolerance: float = 1e-8
    step_tolerance: float = 1e-8
    cost_tolerance: float = 1e-8
    initial_trust_radius: float = 1.0

    def validate(self):
        for name in (
            "gradient_tolerance",
            "step_tolerance",
            "cost_tolerance",
            "initial_trust_radius",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")


@dataclass
class LeastSquaresProblem:
    """Residual description of a box-constrained least-squares problem.

    ``normal_fn(x, r)``, when given, returns (J^T J, J^T r) at ``x`` with
    ``r`` the residual there, and the solver never asks for a Jacobian.
    Otherwise the solver forms them from ``jacobian_fn``; :func:`solve`
    refuses a problem that has neither. Bounds may contain +-inf; they
    must satisfy ``lower < upper`` elementwise.
    """

    n_vars: int
    n_residuals: int
    residual_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    normal_fn: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def bounds(self):
        lb = (
            np.full(self.n_vars, -np.inf)
            if self.lower is None
            else np.asarray(self.lower, dtype=np.float64).ravel()
        )
        ub = (
            np.full(self.n_vars, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=np.float64).ravel()
        )
        if lb.size != self.n_vars or ub.size != self.n_vars:
            raise ShapeError("bound vectors must have n_vars entries")
        if not np.all(lb < ub):
            raise InvalidInputError("bounds must satisfy lower < upper elementwise")
        return lb, ub


@dataclass
class SolveResult:
    x: np.ndarray
    cost: float
    projected_gradient_norm: float
    iterations: int
    termination_reason: str
    accepted_costs: list = field(default_factory=list)
    nfev: int = 0  # residual evaluations
    njev: int = 0  # (J^T J, J^T r) evaluations, one per accepted point


def _eval_residual(problem, x):
    return _checked(np.ravel(problem.residual_fn(x)), (problem.n_residuals,), "residual_fn", x)


def _checked(value, shape, name, x):
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ShapeError(f"{name} returned shape {value.shape}, expected {shape}")
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"{name} returned non-finite values", x=x.copy())
    return value


def _eval_normal(problem, x, r):
    """(H, g) = (J^T J, J^T r) at x, from ``normal_fn`` or ``jacobian_fn``."""
    n = problem.n_vars
    if problem.normal_fn is not None:
        H, g = problem.normal_fn(x, r)
        return _checked(H, (n, n), "normal_fn", x), _checked(g, (n,), "normal_fn", x)
    J = _checked(problem.jacobian_fn(x), (problem.n_residuals, n), "jacobian_fn", x)
    return J.T @ J, J.T @ r


def _strictly_feasible(x, lb, ub, rstep=1e-10):
    out = np.clip(x, lb, ub)
    if rstep == 0.0:
        on_lb = out <= lb
        on_ub = out >= ub
        out[on_lb] = np.nextafter(lb[on_lb], ub[on_lb])
        out[on_ub] = np.nextafter(ub[on_ub], lb[on_ub])
    else:
        bump = rstep * np.maximum(1.0, np.abs(out))
        on_lb = out <= lb
        on_ub = out >= ub
        out[on_lb] = np.minimum(lb[on_lb] + bump[on_lb], 0.5 * (lb[on_lb] + ub[on_lb]))
        out[on_ub] = np.maximum(ub[on_ub] - bump[on_ub], 0.5 * (lb[on_ub] + ub[on_ub]))
    return out


def _cl_scaling(x, g, lb, ub):
    """Coleman-Li scaling vector v and its derivative markers dv."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1.0
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1.0
    return v, dv


def _in_bounds(x, lb, ub):
    return bool(np.all((x >= lb) & (x <= ub)))


def _step_to_bound(x, s, lb, ub):
    """Largest stride t with x + t*s in bounds, and which bounds are hit."""
    non_zero = s != 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        steps = np.where(s > 0, (ub - x) / s, (lb - x) / s)
    steps[~non_zero] = np.inf
    steps = np.maximum(steps, 0.0)
    min_step = float(np.min(steps))
    hits = np.equal(steps, min_step) & non_zero
    return min_step, hits * np.sign(s)


def _intersect_trust_region(x, s, radius):
    """Both roots t of ||x + t*s|| = radius (requires s != 0)."""
    a = float(s @ s)
    b = float(x @ s)
    c = float(x @ x) - radius**2
    d = np.sqrt(max(b * b - a * c, 0.0))
    t1 = (-b - d) / a
    t2 = (-b + d) / a
    return t1, t2


def _build_quadratic_1d(M, g, s, s0=None):
    """Coefficients of q(t) = 0.5 (s0 + t s)^T M (s0 + t s) + g^T (s0 + t s)."""
    Ms = M @ s
    a = 0.5 * float(s @ Ms)
    b = float(g @ s)
    c = 0.0
    if s0 is not None:
        b += float(s0 @ Ms)
        c = 0.5 * float(s0 @ (M @ s0)) + float(g @ s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, low, high, c=0.0):
    """Minimize a*t^2 + b*t + c over [low, high]."""
    ts = [low, high]
    if a != 0.0:
        extremum = -0.5 * b / a
        if low < extremum < high:
            ts.append(extremum)
    ts = np.asarray(ts)
    values = a * ts**2 + b * ts + c
    i = int(np.argmin(values))
    return float(ts[i]), float(values[i])


def _evaluate_quadratic(M, g, s):
    return 0.5 * float(s @ (M @ s)) + float(g @ s)


def _eigen_model(M, g_h):
    """Eigenvalues mu, eigenvectors V and V^T g_h of the scaled model Hessian M.

    Negative eigenvalues (rounding; M is PSD) are clipped to zero, and a
    Levenberg floor of ``_LEVENBERG_RATIO * mu_max`` is added when M is
    near-singular, so mu is positive unless M = 0, when it is all zero.
    """
    mu, V = np.linalg.eigh(M)
    mu = np.maximum(mu, 0.0)
    if mu[0] <= _LEVENBERG_RATIO * mu[-1]:
        mu += _LEVENBERG_RATIO * mu[-1]
    return mu, V, V.T @ g_h


def _trust_region_step(mu, V, Vg, radius):
    """Minimizer of 0.5 p^T M p + g^T p over ||p|| <= radius, M = V diag(mu) V^T.

    The Newton step -V (Vg / mu) is taken when it lies inside the region.
    Otherwise p(lam) = -V (Vg / (mu + lam)) with ||p(lam)|| = radius is
    found by Newton's method on 1/radius - 1/||p(lam)|| from lam = 0
    (More & Sorensen, 1983), which increases lam monotonically towards
    the root; the last iterate is scaled back onto the boundary. M = 0
    steps along -g to the boundary.
    """
    if mu[-1] == 0.0:
        return V @ (Vg * (-radius / norm(Vg)))
    q = Vg / mu
    q_norm = norm(q)
    lam = 0.0
    for _ in range(_SECULAR_ITERATIONS):
        if q_norm <= radius * (1.0 + _SECULAR_RTOL):
            break
        lam += (q_norm / radius - 1.0) * q_norm**2 / float(q @ (q / (mu + lam)))
        q = Vg / (mu + lam)
        q_norm = norm(q)
    if q_norm > radius:
        q *= radius / q_norm
    return -(V @ q)


def _select_step(x, M, g_h, p, p_h, d, radius, lb, ub, theta):
    """Best of trust-region step, reflected step, and constrained Cauchy step."""
    if _in_bounds(x + p, lb, ub):
        return p, p_h, -_evaluate_quadratic(M, g_h, p_h)

    p_stride, hits = _step_to_bound(x, p, lb, ub)

    r_h = p_h.copy()
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    p = p * p_stride
    p_h = p_h * p_stride
    x_on_bound = x + p

    _, to_tr = _intersect_trust_region(p_h, r_h, radius) if np.any(r_h) else (0.0, 0.0)
    to_bound, _ = _step_to_bound(x_on_bound, r, lb, ub)

    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0.0, -1.0

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(M, g_h, r_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h = p_h + r_h * r_stride
        r = d * r_h
    else:
        r_value = np.inf

    p = p * theta
    p_h = p_h * theta
    p_value = _evaluate_quadratic(M, g_h, p_h)

    ag_h = -g_h
    ag = d * ag_h
    ag_norm = norm(ag_h)
    if ag_norm == 0.0:
        ag_value = np.inf
    else:
        to_tr = radius / ag_norm
        to_bound, _ = _step_to_bound(x, ag, lb, ub)
        ag_stride_max = theta * to_bound if to_bound < to_tr else to_tr
        a, b, _ = _build_quadratic_1d(M, g_h, ag_h)
        ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0.0, ag_stride_max)
        ag_h = ag_h * ag_stride
        ag = ag * ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _update_radius(radius, actual, predicted, step_h_norm, bound_hit):
    if predicted > 0:
        ratio = actual / predicted
    elif predicted == actual == 0:
        ratio = 1.0
    else:
        ratio = 0.0
    if ratio < 0.25:
        radius = 0.25 * step_h_norm
    elif ratio > 0.75 and bound_hit:
        radius *= 2.0
    return radius, ratio


def _snap_to_bounds(residual, x, cost, g, lb, ub, cfg):
    """Move components resting against a bound exactly onto it.

    The snap is kept only when it does not increase the cost, so the
    accepted-cost sequence stays non-increasing. Returns (x, cost, r),
    with r the residual at a kept snap and None otherwise.
    """
    window = 100.0 * cfg.step_tolerance
    to_ub = np.isfinite(ub) & (g < 0) & (ub - x <= window * np.maximum(1.0, np.abs(ub)))
    to_lb = np.isfinite(lb) & (g > 0) & (x - lb <= window * np.maximum(1.0, np.abs(lb)))
    if not (np.any(to_ub) or np.any(to_lb)):
        return x, cost, None
    candidate = np.where(to_ub, ub, np.where(to_lb, lb, x))
    r = residual(candidate)
    cost_new = 0.5 * float(r @ r)
    if cost_new <= cost:
        return candidate, cost_new, r
    return x, cost, None


def solve(problem, x0, config=None):
    """Minimize 0.5*||r(x)||^2 within box bounds, starting from ``x0``.

    ``x0`` is clamped strictly inside the bounds if it touches them.
    Returns a :class:`SolveResult`; the returned point always satisfies
    the bounds inclusively and the accepted-step cost sequence is
    non-increasing. A problem with neither ``normal_fn`` nor
    ``jacobian_fn`` raises :class:`InvalidInputError` before any residual
    is evaluated.
    """
    cfg = config if config is not None else TrfConfig()
    cfg.validate()
    if problem.normal_fn is None and problem.jacobian_fn is None:
        raise InvalidInputError("problem has neither normal_fn nor jacobian_fn to solve with")
    lb, ub = problem.bounds()
    x = np.asarray(x0, dtype=np.float64).ravel().copy()
    if x.size != problem.n_vars:
        raise ShapeError(f"x0 has {x.size} entries, expected {problem.n_vars}")
    x = _strictly_feasible(x, lb, ub)
    nfev = 0

    def residual(x):
        nonlocal nfev
        nfev += 1
        return _eval_residual(problem, x)

    r = residual(x)
    H, g = _eval_normal(problem, x, r)
    cost = 0.5 * float(r @ r)
    del r  # H, g and the cost are all the iterations read of it

    radius = cfg.initial_trust_radius
    reason = None
    accepted_costs = [cost]
    iteration = 0

    while iteration < cfg.max_iterations and reason is None:
        iteration += 1
        v, dv = _cl_scaling(x, g, lb, ub)
        g_proj_norm = norm(g * v, ord=np.inf)
        if g_proj_norm < cfg.gradient_tolerance:
            reason = "gradient"
            break

        d = np.sqrt(v)
        diag_h = g * dv  # nonnegative by construction
        g_h = d * g
        M = d[:, None] * H * d  # scaled model Hessian D H D + diag(diag_h)
        M[np.diag_indices_from(M)] += diag_h

        mu, V, Vg = _eigen_model(M, g_h)

        theta = max(0.995, 1.0 - g_proj_norm)
        best = None  # most improving trial of this iteration
        expansions = 0

        for _ in range(60):
            p_h = _trust_region_step(mu, V, Vg, radius)
            p = d * p_h
            step, step_h, predicted = _select_step(
                x, M, g_h, p, p_h, d, radius, lb, ub, theta
            )
            x_new = _strictly_feasible(x + step, lb, ub, rstep=0.0)
            r_new = residual(x_new)
            cost_new = 0.5 * float(r_new @ r_new)
            actual = cost - cost_new
            step_h_norm = norm(step_h)
            hit_boundary = step_h_norm > 0.95 * radius
            radius_next, ratio = _update_radius(
                radius, actual, predicted, step_h_norm, hit_boundary
            )
            step_norm = norm(x_new - x)

            if actual > 0 and (best is None or cost_new < best[0]):
                best = (cost_new, x_new, r_new, actual, ratio, step_norm, step_h_norm)
                # internal doubling: a near-exact model truncated by the
                # region earns an immediate retry with a larger radius
                if ratio > 0.95 and hit_boundary and expansions < 6:
                    expansions += 1
                    radius = radius_next
                    continue
                radius = radius_next
            elif best is None:
                radius = radius_next  # shrink and retry
                if step_norm < cfg.step_tolerance * (cfg.step_tolerance + norm(x)):
                    reason = "step"
                    break
                if radius < 1e-14 * max(1.0, norm(x)):
                    reason = "step"
                    break
                continue
            else:
                # an expansion overshot; fall back to the best trial and
                # restart the next iteration from its natural scale
                radius = best[6]

            cost_new, x_new, r_new, actual, ratio, step_norm, _ = best
            if abs(actual) < cfg.cost_tolerance * cost and ratio > 0.25:
                reason = "cost"
            elif step_norm < cfg.step_tolerance * (cfg.step_tolerance + norm(x)):
                reason = "step"
            x, cost = x_new, cost_new
            accepted_costs.append(cost)
            H, g = _eval_normal(problem, x, r_new)
            best = r_new = None  # so a trial holds only the best residual and its own
            break
        else:
            reason = "step"

    if reason is None:
        reason = "max_iterations"

    x, cost, r = _snap_to_bounds(residual, x, cost, g, lb, ub, cfg)
    if r is not None:
        accepted_costs.append(cost)
        _, g = _eval_normal(problem, x, r)
    v, _ = _cl_scaling(x, g, lb, ub)
    v[(x <= lb) | (x >= ub)] = 0.0  # frozen exactly on an active bound
    return SolveResult(
        x=x,
        cost=cost,
        projected_gradient_norm=float(norm(g * v, ord=np.inf)),
        iterations=iteration,
        termination_reason=reason,
        accepted_costs=accepted_costs,
        nfev=nfev,
        njev=len(accepted_costs),
    )


def check_jacobian(problem, x):
    """Worst relative deviation of the analytic derivatives vs central differences.

    Columns of ``jacobian_fn`` are compared one at a time; each column's
    deviation is normalized by its own magnitude (floored at a small
    fraction of the global Jacobian magnitude so empty columns do not
    dominate). When the problem has a ``normal_fn``, which is what
    :func:`solve` calls, its (H, g) at x is compared as well with
    J^T J and J^T r built from the central-difference Jacobian: the
    deviation of H is relative to the largest entry of J^T J, that of g
    to the largest sum of |J_ij r_i| over a column. The worst of all
    deviations is returned.
    """
    if problem.jacobian_fn is None:
        raise InvalidInputError("problem has no analytic jacobian_fn to check")
    lb, ub = problem.bounds()
    x = np.asarray(x, dtype=np.float64).ravel()
    r0 = _eval_residual(problem, x)
    J = _checked(problem.jacobian_fn(x), (r0.size, x.size), "jacobian_fn", x)
    J_fd = np.empty_like(J)
    for j in range(x.size):
        h = _CHECK_STEP * max(1.0, abs(x[j]))
        if np.isfinite(ub[j]):
            h = min(h, 0.45 * (ub[j] - x[j]))
        if np.isfinite(lb[j]):
            h = min(h, 0.45 * (x[j] - lb[j]))
        h = max(h, 1e-12)
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        J_fd[:, j] = (_eval_residual(problem, xp) - _eval_residual(problem, xm)) / (2 * h)
    global_scale = max(float(np.max(np.abs(J_fd))), 1e-300)
    worst = 0.0
    for j in range(x.size):
        col_scale = max(float(np.max(np.abs(J_fd[:, j]))), 1e-6 * global_scale)
        dev = float(np.max(np.abs(J[:, j] - J_fd[:, j]))) / col_scale
        worst = max(worst, dev)
    if problem.normal_fn is not None:
        H, g = _eval_normal(problem, x, r0)
        H_fd = J_fd.T @ J_fd
        h_scale = max(float(np.max(np.abs(H_fd))), 1e-300)
        g_scale = max(float(np.max(np.abs(J_fd).T @ np.abs(r0))), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(H - H_fd))) / h_scale,
            float(np.max(np.abs(g - J_fd.T @ r0))) / g_scale,
        )
    return worst
