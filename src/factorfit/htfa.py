"""Hierarchical topographic factor analysis via a distributed MAP estimator.

Each subject's data (TRs x voxels after transposition) is modeled as
W_i F_i plus noise, where row k of F_i evaluates a spherical
radial-basis factor exp(-||p - mu_ik||^2 / lambda_ik) at every voxel
position p. Local factors perturb a global template: centers are drawn
around the template centers with shared covariance Sigma_mu, widths
around the template widths with shared variance sigma_lambda^2.

The local step alternates a ridge-regression weight update with two
bound-constrained nonlinear least-squares block solves, one for all
centers with widths fixed and one for all widths with centers fixed.
Splitting the blocks shrinks the Jacobian (3K or K columns instead of
4K) and drops the K prior residuals of the frozen block, which are
constant. The data rows of each block Jacobian have Khatri-Rao
structure, so the solver gets J^T J and J^T r from K x K and
K x Vtilde products and nothing of size Ttilde x Vtilde x K is formed.
Each evaluation allocates little beyond what it returns: the residual
is written in place in the array handed to the solver, the center
gradients are built once in one C-contiguous 3K x Vtilde buffer, and
the sampled block is gathered once per local iteration as a
C-contiguous Ttilde x Vtilde array. Template seeding reads the subject
a block of rows at a time and never forms a V x T temporary.
Data rows are weighted by sqrt(1/(2 sigma_i^2)), prior rows by
sqrt(1/(2 phi_i)) through the prior precisions, with phi_i the
subsampling compensation (T_i V_i) / (Ttilde_i Vtilde_i).

The global step combines gathered local centers/widths with the
template using one 3x3 inversion and one scalar reciprocal per factor:
with A_k = (SigmaHat_k + Sigma_mu/N)^{-1} and
b_k = (sigmaHat_k^2 + sigma_lambda^2/N)^{-1},

    mu_k    <- (Sigma_mu/N) A_k muHat_k + SigmaHat_k A_k muBar_k
    Sigma_k <- SigmaHat_k A_k (Sigma_mu/N)
    (widths analogously with b_k)

which reproduces the three-inversion conjugate update exactly.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import trf
from .collectives import gather_rows, rank_offsets
from .errors import ConfigError, DefinitenessError, ShapeError
from .kernels import rbf_factor_matrix, row_blocks, spd_inverse

__all__ = [
    "GlobalTemplate",
    "LocalModel",
    "SubsamplePlan",
    "HtfaConfig",
    "init_template",
    "subsample",
    "update_weights",
    "build_center_problem",
    "build_width_problem",
    "local_step",
    "global_step",
    "fit",
    "connectivity_matrix",
]


@dataclass
class GlobalTemplate:
    """Population-level factor template with posterior hyperparameters.

    ``prior_center_cov`` (Sigma_mu) and ``prior_width_var``
    (sigma_lambda^2) are constants shared by all factors; the per-factor
    ``center_cov`` / ``width_var`` are the posterior uncertainties that
    shrink as subjects accumulate.
    """

    centers: np.ndarray          # K x 3
    center_cov: Optional[np.ndarray]  # K x 3 x 3, root only mid-fit
    widths: np.ndarray           # K
    width_var: Optional[np.ndarray]   # K
    prior_center_cov: np.ndarray  # 3 x 3
    prior_width_var: float


@dataclass
class LocalModel:
    """One subject's factor configuration."""

    subject_id: str
    centers: np.ndarray   # K x 3
    widths: np.ndarray    # K
    weights: np.ndarray   # T_i x K
    noise_weight: float   # the 1/(2 sigma_i^2) data-term coefficient
    ridge_alpha2: float = 1.0


@dataclass
class SubsamplePlan:
    """How to shrink a subject's matrix before each local solve.

    The sampled count per dimension is the mean of (fraction * size)
    and the cap, rounded half-up and clamped into [1, size].
    """

    voxel_fraction: float = 0.25
    tr_fraction: float = 0.10
    max_voxels: int = 3000
    max_trs: int = 300
    seed: int = 0

    def validate(self):
        for frac in (self.voxel_fraction, self.tr_fraction):
            if not (0.0 < frac <= 1.0):
                raise ConfigError("sampling fractions must lie in (0, 1]")
        if self.max_voxels < 1 or self.max_trs < 1:
            raise ConfigError("sampling caps must be at least 1")


@dataclass
class HtfaConfig:
    k: int = 60
    outer_iterations: int = 10
    local_iterations: int = 10
    local_tolerance: float = 1e-3
    width_lower_frac: float = 0.04
    width_upper_frac: float = 1.80
    nlls: trf.TrfConfig = field(default_factory=trf.TrfConfig)
    seed: int = 0

    def validate(self):
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations must be at least 1")
        if self.local_iterations < 0:
            raise ConfigError("local_iterations must be nonnegative")
        if self.local_tolerance <= 0:
            raise ConfigError("local_tolerance must be positive")
        if not (0.0 < self.width_lower_frac < self.width_upper_frac):
            raise ConfigError("need 0 < width_lower_frac < width_upper_frac")
        self.nlls.validate()


def width_bounds(grid, config):
    d = grid.diameter
    return config.width_lower_frac * d, config.width_upper_frac * d


def _sq_distances(a, b):
    """Squared distances ||a_i - b_j||^2 between two point sets, len(a) x len(b).

    Filled one axis at a time into one output and one scratch buffer,
    summed in x + y + z order, so no len(a) x len(b) x 3 broadcast is
    formed and the bits are those of ``((a[:, None] - b) ** 2).sum(-1)``.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(out, out=out)
    term = np.empty_like(out)
    for d in (1, 2):
        np.subtract.outer(a[:, d], b[:, d], out=term)
        np.square(term, out=term)
        out += term
    return out


def _weighted_kmeans(points, weights, k, rng, sweeps=10):
    """k-means++ seeding plus Lloyd sweeps with per-point weights.

    Returns the centers and the n x k squared distances of every point
    to them.
    """
    n = points.shape[0]
    total = float(weights.sum())
    probs = weights / total if total > 0 else np.full(n, 1.0 / n)
    chosen = [int(rng.choice(n, p=probs))]
    d2 = _sq_distances(points, points[chosen])[:, 0]
    for _ in range(1, k):
        scores = probs * d2
        mass = float(scores.sum())
        if mass > 0:
            j = int(rng.choice(n, p=scores / mass))
        else:
            j = int(np.argmax(d2))
        chosen.append(j)
        d2 = np.minimum(d2, _sq_distances(points, points[[j]])[:, 0])
    centers = points[chosen].astype(np.float64)
    for _ in range(sweeps):
        dist = _sq_distances(points, centers)
        assign = np.argmin(dist, axis=1)
        for c in range(k):
            mask = assign == c
            if not mask.any():
                far = int(np.argmax(dist.min(axis=1)))
                centers[c] = points[far]
                continue
            mass = float(weights[mask].sum())
            if mass > 0:
                centers[c] = (weights[mask, None] * points[mask]).sum(axis=0) / mass
            else:
                centers[c] = points[mask].mean(axis=0)
    return centers, _sq_distances(points, centers)


def init_template(subject, config):
    """Seed the template from one subject's coordinates and activation.

    The activation of a voxel is its mean |X| over time, taken a block of
    rows at a time (:func:`~factorfit.kernels.row_blocks`), so no V x T
    temporary is formed. Centers come from activation-weighted k-means++
    with 10 refinement sweeps; the initial width of each factor is its
    cluster's weighted RMS radius squared, clamped into the width
    bounds. Deterministic given ``config.seed``.
    """
    if subject.grid is None:
        raise ShapeError("template initialization needs voxel coordinates")
    grid = subject.grid
    if grid.n_voxels < config.k:
        raise ShapeError(
            f"{grid.n_voxels} voxels cannot seed {config.k} factors"
        )
    activation = np.empty(grid.n_voxels)
    for rows, block in row_blocks(subject.X):
        np.abs(subject.X[rows], out=block)
        np.mean(block, axis=1, out=activation[rows])
    if float(activation.sum()) <= 0.0:
        activation = np.ones(grid.n_voxels)
    rng = np.random.default_rng((config.seed & 0xFFFFFFFFFFFFFFFF, 0x7EA1))
    centers, dist = _weighted_kmeans(
        grid.positions, activation, config.k, rng, sweeps=10
    )
    assign = np.argmin(dist, axis=1)
    lo, hi = width_bounds(grid, config)
    widths = np.empty(config.k)
    for c in range(config.k):
        mask = assign == c
        mass = float(activation[mask].sum())
        rms2 = float((activation[mask] * dist[mask, c]).sum() / mass) if mass > 0 else 0.0
        widths[c] = min(max(rms2, lo), hi)
    diameter = grid.diameter
    prior_center_cov = np.eye(3) * (diameter / config.k ** (1.0 / 3.0)) ** 2 / 12.0
    width_var = (0.1 * widths) ** 2
    return GlobalTemplate(
        centers=centers,
        center_cov=np.tile(prior_center_cov, (config.k, 1, 1)),
        widths=widths,
        width_var=width_var,
        prior_center_cov=prior_center_cov,
        prior_width_var=float(width_var.mean()),
    )


def _sample_count(fraction, cap, size):
    est = int(np.floor(0.5 * (fraction * size + cap) + 0.5))
    return min(max(est, 1), size)


def subsample(X, plan, rng=None):
    """Draw a voxel/TR submatrix with replacement from a seeded stream.

    Returns (Xtilde, voxel_indices, tr_indices, phi) where phi is the
    compensation coefficient (T V) / (Ttilde Vtilde). ``Xtilde`` is
    sampled voxels x TRs, gathered TR by TR, so its transpose, the
    Ttilde x Vtilde block the local step works on, is C-contiguous.
    """
    plan.validate()
    if rng is None:
        rng = np.random.default_rng(plan.seed & 0xFFFFFFFFFFFFFFFF)
    n_vox, n_trs = X.shape
    take_vox = _sample_count(plan.voxel_fraction, plan.max_voxels, n_vox)
    take_trs = _sample_count(plan.tr_fraction, plan.max_trs, n_trs)
    vox = rng.integers(0, n_vox, size=take_vox)
    trs = rng.integers(0, n_trs, size=take_trs)
    phi = (n_trs * n_vox) / (take_trs * take_vox)
    return X.T[np.ix_(trs, vox)].T, vox, trs, phi


def update_weights(Xtilde, Ftilde, alpha2):
    """Ridge-regression weight rows: X F^T (F F^T + alpha^{-2} I)^{-1}.

    ``Xtilde`` is TRs x voxels here; returns the weight rows for the
    sampled TRs.
    """
    k = Ftilde.shape[0]
    gram = Ftilde @ Ftilde.T
    gram[np.diag_indices_from(gram)] += 1.0 / alpha2
    try:
        inv = spd_inverse(gram)
    except DefinitenessError:
        raise DefinitenessError(
            "factor Gram matrix is numerically singular even with the ridge term"
        ) from None
    return (Xtilde @ Ftilde.T) @ inv


def _center_bounds(grid, k):
    lo, hi = grid.bounding_box()
    return np.tile(lo, k), np.tile(hi, k)


def _add_prior_blocks(H, rows):
    """H[3j:3j+3, 3j:3j+3] += outer(rows[j], rows[j]) for each factor j.

    Writes through a (k, 3, k, 3) view of the 3K x 3K matrix ``H``, so
    no block-diagonal matrix is formed.
    """
    k = rows.shape[0]
    j = np.arange(k)
    H.reshape(k, 3, k, 3)[j, :, j] += rows[:, :, None] * rows[:, None, :]


def _data_residual(out, Xtilde, W, F, data_w):
    """Write the data rows a (Xtilde - W F) into ``out``, a flat array.

    W F, the subtraction and the weight a all run in place in the first
    Ttilde * Vtilde entries of ``out``.
    """
    R = out[:Xtilde.size].reshape(Xtilde.shape)
    np.matmul(W, F, out=R)
    np.subtract(Xtilde, R, out=R)
    R *= data_w


def _factor_memo(grid_view):
    """F(centers, widths) on ``grid_view``, remembering the last point.

    A one-entry memo keyed by the exact values of centers and widths:
    the residual at a trial point and (J^T J, J^T r) at the same accepted
    point then share one evaluation; any other point recomputes.
    """
    last = [None, None]

    def at(centers, widths):
        point = (centers, widths)
        if last[0] is None or not all(map(np.array_equal, last[0], point)):
            last[:] = [
                [np.array(a, copy=True) for a in point],
                rbf_factor_matrix(centers, widths, grid_view),
            ]
        return last[1]

    return at


def build_center_problem(
    Xtilde, W, widths, template, phi, grid_view, noise_weight, bounds_grid,
    factors=None,
):
    """Center-block NLLS problem: 3K variables, Vtilde*Ttilde + K residuals.

    ``Xtilde`` is the sampled TRs x voxels matrix, ``W`` its weight
    rows, ``grid_view`` the sampled voxels and ``bounds_grid`` the
    subject's whole grid, whose bounding box bounds the centers. The K
    width-prior residuals are constant with widths frozen and are
    dropped. With the 3K x Vtilde G = dF/dmu = F * 2 (p - mu) / lambda
    and a the data weight, ``normal_fn`` returns
    J^T J = a^2 (W^T W kron 1_3x3) * (G G^T) and
    J^T r = -a sum_v G (W^T R) plus the prior rows; ``jacobian_fn``
    forms the dense Jacobian from the same G, as a test oracle.
    ``residual_fn`` writes W F, the subtraction and the weight a into
    the array it returns; ``normal_fn`` builds G once, in one
    C-contiguous K x 3 x Vtilde buffer from a 3 x Vtilde copy of the
    positions made once per problem, so G G^T needs no further copy. F is
    shared between ``residual_fn`` and ``normal_fn`` at the same x through
    ``factors``, an F memo (:func:`_factor_memo` on ``grid_view``) that
    keeps the last point it evaluated and recomputes only for another.
    Passing the memo the caller already evaluated F with, and later
    handing it to the width problem, lets the solves start from F known
    at their x0.
    """
    k = template.centers.shape[0]
    n_trs, n_vox = Xtilde.shape
    n_data = n_trs * n_vox
    data_w = np.sqrt(noise_weight)
    prior_w = np.sqrt(1.0 / (2.0 * phi))
    prior_prec = spd_inverse(template.prior_center_cov)
    prior_centers = template.centers
    widths = np.asarray(widths, dtype=np.float64)
    pos_t = np.ascontiguousarray(grid_view.positions.T)  # 3 x Vtilde
    wtw = np.kron(W.T @ W, np.ones((3, 3)))
    if factors is None:
        factors = _factor_memo(grid_view)

    def evaluate(x):
        """F, the scaled prior residuals sqrt(d^T P d) and their K x 3 gradient rows."""
        centers = x.reshape(k, 3)
        F = factors(centers, widths)
        D = centers - prior_centers
        U = D @ prior_prec
        q = np.einsum("kd,kd->k", D, U)
        rows = np.zeros_like(U)
        live = q > 1e-300
        rows[live] = prior_w * U[live] / np.sqrt(q[live])[:, None]
        return F, prior_w * np.sqrt(np.maximum(q, 0.0)), rows

    def gradients(x, F):
        """G = dF/dmu in one C-contiguous K x 3 x Vtilde buffer."""
        G = np.empty((k, 3, n_vox))
        np.subtract(pos_t, x.reshape(k, 3, 1), out=G)
        G *= (F * (2.0 / widths)[:, None])[:, None]
        return G

    def residual(x):
        F, prior_residuals, _ = evaluate(x)
        out = np.empty(n_data + k)
        _data_residual(out, Xtilde, W, F, data_w)
        out[n_data:] = prior_residuals
        return out

    def normal(x, r):
        F, _, rows = evaluate(x)
        G = gradients(x, F)  # K x 3 x Vtilde
        WtR = W.T @ r[:n_data].reshape(n_trs, n_vox)
        g = (rows * r[n_data:, None] - data_w * np.einsum("kdv,kv->kd", G, WtR)).ravel()
        G = G.reshape(3 * k, n_vox)
        H = (noise_weight * wtw) * (G @ G.T)
        _add_prior_blocks(H, rows)
        return H, g

    def jacobian(x):
        F, _, rows = evaluate(x)
        J = np.zeros((n_data + k, 3 * k))
        J[:n_data] = (-data_w * np.einsum("tk,kdv->tvkd", W, gradients(x, F))).reshape(
            n_data, 3 * k
        )
        j = np.arange(k)
        J[n_data:].reshape(k, k, 3)[j, j] = rows
        return J

    lo, hi = _center_bounds(bounds_grid, k)
    return trf.LeastSquaresProblem(
        n_vars=3 * k,
        n_residuals=n_data + k,
        residual_fn=residual,
        jacobian_fn=jacobian,
        lower=lo,
        upper=hi,
        normal_fn=normal,
    )


def build_width_problem(
    Xtilde, W, centers, template, phi, grid_view, noise_weight, config, bounds_grid,
    factors=None,
):
    """Width-block NLLS problem: K variables, Vtilde*Ttilde + K residuals.

    The width-prior residuals are linear. With the K x Vtilde
    G = dF/dlambda = F * ||p - mu||^2 / lambda^2, ``normal_fn`` returns
    J^T J = a^2 (W^T W) * (G G^T) plus the prior diagonal and J^T r as
    for the centers; ``jacobian_fn`` is the dense test oracle. The
    squared distances ||p - mu||^2 are formed once per problem, the
    residual is written in place as for the centers and G in place in
    its one K x Vtilde buffer. F is shared between ``residual_fn`` and
    ``normal_fn`` at the same x, and ``factors`` is an F memo, as for the
    centers. The widths are bounded by :func:`width_bounds` on
    ``bounds_grid``.
    """
    k = template.centers.shape[0]
    n_trs, n_vox = Xtilde.shape
    n_data = n_trs * n_vox
    data_w = np.sqrt(noise_weight)
    width_prior_w = np.sqrt(1.0 / (2.0 * phi * template.prior_width_var))
    prior_widths = template.widths
    centers = np.asarray(centers, dtype=np.float64).reshape(k, 3)
    d2 = _sq_distances(centers, grid_view.positions)
    wtw = W.T @ W
    if factors is None:
        factors = _factor_memo(grid_view)

    def gradients(x):
        G = factors(centers, x) * d2
        G /= (x**2)[:, None]
        return G

    def residual(x):
        out = np.empty(n_data + k)
        _data_residual(out, Xtilde, W, factors(centers, x), data_w)
        out[n_data:] = width_prior_w * (x - prior_widths)
        return out

    def normal(x, r):
        G = gradients(x)
        H = (noise_weight * wtw) * (G @ G.T)
        H[np.diag_indices(k)] += width_prior_w**2
        WtR = W.T @ r[:n_data].reshape(n_trs, n_vox)
        g = -data_w * np.einsum("kv,kv->k", G, WtR) + width_prior_w * r[n_data:]
        return H, g

    def jacobian(x):
        J = np.zeros((n_data + k, k))
        J[:n_data] = (-data_w * np.einsum("tk,kv->tvk", W, gradients(x))).reshape(n_data, k)
        J[n_data:] = width_prior_w * np.eye(k)
        return J

    lo, hi = width_bounds(bounds_grid, config)
    return trf.LeastSquaresProblem(
        n_vars=k,
        n_residuals=n_data + k,
        residual_fn=residual,
        jacobian_fn=jacobian,
        lower=np.full(k, lo),
        upper=np.full(k, hi),
        normal_fn=normal,
    )


def local_step(subject, template, local, config, plan, rng=None):
    """One subject's alternating weight/center/width refinement.

    Starts by adopting the broadcast template as the local prior, then
    loops subsample -> ridge weights -> center block solve -> width
    block solve until the relative parameter change drops below
    ``config.local_tolerance`` or ``config.local_iterations`` runs out.
    """
    if config.local_iterations == 0:
        return local
    if subject.grid is None:
        raise ShapeError(f"subject {subject.subject_id} has no voxel coordinates")
    if rng is None:
        rng = np.random.default_rng(plan.seed & 0xFFFFFFFFFFFFFFFF)
    grid = subject.grid
    centers = template.centers.copy()
    widths = template.widths.copy()
    weights = local.weights.copy()
    noise_weight = local.noise_weight
    try:
        for _ in range(config.local_iterations):
            Xs, vox, trs, phi = subsample(subject.X, plan, rng)
            Xst = Xs.T  # sampled TRs x voxels, C-contiguous
            sigma2 = max(float(Xst.var()), 1e-12)
            noise_weight = 1.0 / (2.0 * sigma2)
            view = grid.take(vox)
            # one F memo for the weights and both block solves, so the
            # center solve starts from the weights' F and the width solve
            # from the center solve's last F when that is its solution
            factors = _factor_memo(view)
            w_rows = update_weights(Xst, factors(centers, widths), local.ridge_alpha2)
            weights[trs] = w_rows

            previous = np.concatenate([centers.ravel(), widths])
            problem = build_center_problem(
                Xst, w_rows, widths, template, phi, view, noise_weight, bounds_grid=grid,
                factors=factors,
            )
            centers = trf.solve(problem, centers.ravel(), config.nlls).x.reshape(-1, 3)
            problem = build_width_problem(
                Xst, w_rows, centers, template, phi, view, noise_weight, config,
                bounds_grid=grid, factors=factors,
            )
            widths = trf.solve(problem, widths, config.nlls).x
            current = np.concatenate([centers.ravel(), widths])
            denom = max(float(np.linalg.norm(previous)), 1e-300)
            if float(np.linalg.norm(current - previous)) / denom < config.local_tolerance:
                break
    except Exception as exc:
        try:
            wrapped = type(exc)(f"subject {subject.subject_id}: {exc}")
        except Exception:
            raise exc
        raise wrapped from exc
    return LocalModel(
        subject_id=subject.subject_id,
        centers=centers,
        widths=widths,
        weights=weights,
        noise_weight=noise_weight,
        ridge_alpha2=local.ridge_alpha2,
    )


def global_step(local_centers, local_widths, template, n_subjects):
    """Combine gathered local estimates into the new template.

    Exactly one 3x3 inversion (A_k) and one scalar reciprocal (b_k) per
    factor; see the module docstring for the update equations.
    """
    k = template.centers.shape[0]
    mu_bar = local_centers.mean(axis=0)
    lam_bar = local_widths.mean(axis=0)
    scaled_cov = template.prior_center_cov / n_subjects
    scaled_var = template.prior_width_var / n_subjects
    new_centers = np.empty_like(template.centers)
    new_cov = np.empty_like(template.center_cov)
    new_widths = np.empty_like(template.widths)
    new_width_var = np.empty_like(template.width_var)
    for j in range(k):
        A = spd_inverse(template.center_cov[j] + scaled_cov)
        new_centers[j] = scaled_cov @ (A @ template.centers[j]) + template.center_cov[
            j
        ] @ (A @ mu_bar[j])
        cov = template.center_cov[j] @ A @ scaled_cov
        new_cov[j] = 0.5 * (cov + cov.T)
        b = 1.0 / (template.width_var[j] + scaled_var)
        new_widths[j] = b * scaled_var * template.widths[j] + template.width_var[
            j
        ] * b * lam_bar[j]
        new_width_var[j] = template.width_var[j] * b * scaled_var
    return GlobalTemplate(
        centers=new_centers,
        center_cov=new_cov,
        widths=new_widths,
        width_var=new_width_var,
        prior_center_cov=template.prior_center_cov,
        prior_width_var=template.prior_width_var,
    )


def _rescue_degenerate(subject, local):
    """Re-seed factors whose weight column died to the highest-residual voxel."""
    dead = np.where(~local.weights.any(axis=0))[0]
    if dead.size == 0:
        return local
    F = rbf_factor_matrix(local.centers, local.widths, subject.grid)
    R = subject.X - (local.weights @ F).T
    per_voxel = np.einsum("vt,vt->v", R, R)
    for j in dead:
        local.centers[j] = subject.grid.positions[int(np.argmax(per_voxel))]
    return local


def fit(subjects, config, plan, comm, iteration_log=None):
    """Distributed MAP fit; ``subjects`` are this worker's share.

    Outer loop: broadcast template -> per-subject local steps -> gather
    one [centers, widths, noise variance] row of 4K + 1 values per
    subject, in subject order -> root template update. One K x 14
    broadcast then hands the final template with its posterior
    covariances to every rank, and a final pass rebuilds every subject's
    full weight matrix from its final factors. Returns (template, local
    models); the template is identical on every rank.

    When ``iteration_log`` is a list, the root appends the mean data-noise
    variance over all N subjects once per outer iteration, so the trace
    does not depend on the partition; other ranks leave it empty.
    """
    config.validate()
    plan.validate()
    if not subjects:
        raise ConfigError("each worker needs at least one subject")
    for s in subjects:
        if s.grid is None:
            raise ShapeError(f"subject {s.subject_id} has no voxel coordinates")
    offset, n_total = rank_offsets(comm, len(subjects))
    k = config.k

    template = init_template(subjects[0], config) if comm.rank == 0 else None
    prior_center_cov = comm.broadcast(
        template.prior_center_cov if comm.rank == 0 else None
    )
    prior_width_var = float(
        comm.broadcast(
            np.array([[template.prior_width_var]]) if comm.rank == 0 else None
        )[0, 0]
    )

    locals_ = [
        LocalModel(
            subject_id=s.subject_id,
            centers=np.zeros((k, 3)),
            widths=np.ones(k),
            weights=np.zeros((s.X.shape[1], k)),
            noise_weight=1.0,
        )
        for s in subjects
    ]

    for outer in range(config.outer_iterations):
        packed = comm.broadcast(
            np.hstack([template.centers, template.widths[:, None]])
            if comm.rank == 0
            else None
        )
        shared = GlobalTemplate(
            centers=packed[:, :3].copy(),
            center_cov=None,
            widths=packed[:, 3].copy(),
            width_var=None,
            prior_center_cov=prior_center_cov,
            prior_width_var=prior_width_var,
        )
        for j, subject in enumerate(subjects):
            rng = np.random.default_rng(
                (plan.seed & 0xFFFFFFFFFFFFFFFF, offset + j, outer)
            )
            locals_[j] = local_step(subject, shared, locals_[j], config, plan, rng=rng)
            locals_[j] = _rescue_degenerate(subject, locals_[j])
        blocks = gather_rows(
            comm,
            [
                np.concatenate([m.centers.ravel(), m.widths, [0.5 / m.noise_weight]])
                for m in locals_
            ],
        )
        if comm.rank == 0:
            gathered = np.concatenate(blocks)
            all_centers = gathered[:, :3 * k].reshape(-1, k, 3)
            template = global_step(
                all_centers, gathered[:, 3 * k:4 * k], template, n_total
            )
            if iteration_log is not None:
                iteration_log.append(float(np.mean(gathered[:, 4 * k])))

    # hand the final template to every rank as one K x 14 matrix
    packed = comm.broadcast(
        np.hstack([
            template.centers,
            template.widths[:, None],
            template.center_cov.reshape(k, 9),
            template.width_var[:, None],
        ])
        if comm.rank == 0
        else None
    )
    template = GlobalTemplate(
        centers=packed[:, :3].copy(),
        center_cov=packed[:, 4:13].reshape(k, 3, 3).copy(),
        widths=packed[:, 3].copy(),
        width_var=packed[:, 13].copy(),
        prior_center_cov=prior_center_cov,
        prior_width_var=prior_width_var,
    )

    # final full-weight refresh against each subject's complete data
    for j, subject in enumerate(subjects):
        F = rbf_factor_matrix(locals_[j].centers, locals_[j].widths, subject.grid)
        locals_[j].weights = update_weights(
            subject.X.T, F, locals_[j].ridge_alpha2
        )
    return template, locals_


def connectivity_matrix(local):
    """Pearson correlation between factor weight columns, K x K.

    Zero-variance columns correlate 0 with everything; the diagonal
    stays 1.
    """
    W = np.asarray(local.weights, dtype=np.float64)
    n_trs, k = W.shape
    centered = W - W.mean(axis=0)
    sd = centered.std(axis=0)
    live = sd > 0
    out = np.zeros((k, k))
    if live.any():
        normalized = centered[:, live] / sd[live]
        out[np.ix_(live, live)] = (normalized.T @ normalized) / n_trs
    np.fill_diagonal(out, 1.0)
    return np.clip(out, -1.0, 1.0)
