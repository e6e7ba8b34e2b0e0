#!/usr/bin/env python3
"""The bound-constrained least-squares solver on its own.

The topographic fitter leans on this solver for its center and width
blocks, but it is a general tool. Four small studies: the classic
Rosenbrock valley, a problem whose optimum sits outside the feasible box
(the solver must land exactly on the bound), the finite-difference
Jacobian checker that guards hand-derived derivatives, and a problem
that hands the solver J^T J and J^T r instead of its Jacobian.
"""

import numpy as np

from factorfit.trf import LeastSquaresProblem, TrfConfig, check_jacobian, solve

# ----------------------------------------------------------------------
# 1. Rosenbrock as residuals r = (10 (x1 - x0^2), 1 - x0).
# ----------------------------------------------------------------------
rosen = LeastSquaresProblem(
    n_vars=2,
    n_residuals=2,
    residual_fn=lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
    jacobian_fn=lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]),
)
result = solve(rosen, np.array([-1.2, 1.0]))
print(f"rosenbrock: x = {result.x}, cost = {result.cost:.2e}, "
      f"{result.iterations} iterations, stopped on '{result.termination_reason}'")

# ----------------------------------------------------------------------
# 2. An active bound. The unconstrained optimum is x = 5 but the box
#    ends at 2; the solver walks to the wall and reports a vanishing
#    projected gradient there.
# ----------------------------------------------------------------------
walled = LeastSquaresProblem(
    n_vars=1,
    n_residuals=1,
    residual_fn=lambda x: x - 5.0,
    jacobian_fn=lambda x: np.ones((1, 1)),
    upper=np.array([2.0]),
)
result = solve(walled, np.array([0.0]))
print(f"active bound: x = {result.x[0]} (exactly on the bound), "
      f"projected gradient {result.projected_gradient_norm:.1e}")

# ----------------------------------------------------------------------
# 3. Checking a Jacobian. Feed the checker a correct derivative, then a
#    subtly broken one, and watch the deviation jump.
# ----------------------------------------------------------------------
target = np.array([1.0, -2.0, 0.5])
good = LeastSquaresProblem(3, 3, lambda x: x - target, lambda x: np.eye(3))
print(f"correct Jacobian deviation:   {check_jacobian(good, np.zeros(3)):.2e}")

broken = LeastSquaresProblem(
    3, 3, lambda x: x - target, lambda x: np.diag([2.0, 1.0, 1.0])
)
print(f"corrupted Jacobian deviation: {check_jacobian(broken, np.zeros(3)):.2e}")

# ----------------------------------------------------------------------
# 4. Normal equations instead of a Jacobian. A structured problem (like
#    the topographic fitter's blocks) can supply J^T J and J^T r through
#    normal_fn and never form J. Here J = A is tall, and J^T J is formed
#    once; the solver needs either jacobian_fn or normal_fn.
# ----------------------------------------------------------------------
A = np.random.default_rng(3).standard_normal((200, 2))
b = A @ np.array([1.0, -0.5]) + 0.01
gram = A.T @ A
implicit = LeastSquaresProblem(
    n_vars=2,
    n_residuals=200,
    residual_fn=lambda x: A @ x - b,
    normal_fn=lambda x, r: (gram, A.T @ r),
    lower=np.array([-np.inf, 0.0]),
)
result = solve(implicit, np.array([3.0, 3.0]), TrfConfig(max_iterations=40))
print(f"normal equations only: x = {np.round(result.x, 6)} (second entry held at its bound 0)")
