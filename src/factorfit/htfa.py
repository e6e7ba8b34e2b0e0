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
constant. One builder (:func:`_block_problem`) serves both blocks: the
data rows of its Jacobian have Khatri-Rao structure, so the solver gets
J^T J and J^T r from K x K and K x Vtilde products and nothing of size
Ttilde x Vtilde x K is formed; the residual is written in place in the
array handed to the solver, and the sampled block is gathered once per
local iteration as a C-contiguous Ttilde x Vtilde array. Matching
pursuit seeds the template (:func:`init_template`) without forming a
V x T temporary. Data rows are weighted by sqrt(1/(2 sigma_i^2)), prior
rows by sqrt(1/(2 phi_i)) through the prior precisions, with phi_i the
subsampling compensation (T_i V_i) / (Ttilde_i Vtilde_i).

The global step combines the local centers/widths, averaged by one
pairwise sum, with the template: one 3x3 inversion and one reciprocal
per factor. With A_k = (SigmaHat_k + Sigma_mu/N)^{-1} and
b_k = (sigmaHat_k^2 + sigma_lambda^2/N)^{-1},

    mu_k    <- (Sigma_mu/N) A_k muHat_k + SigmaHat_k A_k muBar_k
    Sigma_k <- SigmaHat_k A_k (Sigma_mu/N)
    (widths analogously with b_k)

which reproduces the three-inversion conjugate update exactly.
"""

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import trf
from .collectives import PairwiseSum, broadcast_parts, rank_offsets
from .errors import ConfigError, DefinitenessError, ShapeError
from .kernels import center_stats, check_centered, rbf_factor_matrix, row_residual_energy
from .kernels import grid_sq_distances, spd_inverse

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
    center_cov: Optional[np.ndarray]  # K x 3 x 3
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
    """HTFA fit settings. Nothing reads ``seed``: the template seeding is
    deterministic, and the subsampling draws from ``SubsamplePlan.seed``."""

    k: int = 60
    outer_iterations: int = 10
    local_iterations: int = 10
    width_lower_frac: float = 0.04
    width_upper_frac: float = 1.80
    nlls: trf.TrfConfig = field(default_factory=trf.TrfConfig)
    seed: int = 0

    def validate(self):
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.outer_iterations < 1:
            raise ConfigError("outer_iterations must be at least 1")
        if self.local_iterations < 1:
            raise ConfigError("local_iterations must be at least 1")
        if not (0.0 < self.width_lower_frac < self.width_upper_frac):
            raise ConfigError("need 0 < width_lower_frac < width_upper_frac")
        self.nlls.validate()


#: Candidate widths per pick of :func:`init_template`, and voxels per block
#: it scores them over.
_SEED_WIDTHS, _SEED_BLOCK = 12, 1024

#: A local step stops once its relative parameter change falls below this.
_LOCAL_TOLERANCE = 1e-3

#: The ridge penalty of every weight update.
_RIDGE_ALPHA2 = 1.0


def _grid(subject):
    """A subject's voxel grid, refused by name if missing or a single voxel."""
    if subject.grid is None or subject.grid.diameter == 0:
        problem = "no voxel coordinates" if subject.grid is None else "a one-voxel grid"
        raise ShapeError(f"subject {subject.subject_id} has {problem}")
    return subject.grid


def width_bounds(grid, config):
    d = grid.diameter
    return config.width_lower_frac * d, config.width_upper_frac * d


def init_template(subject, config):
    """Seed the template by matching pursuit on one subject's data.

    K times: take the voxel of largest residual energy ||R_v||^2; of 12
    RBFs centered there, with widths spaced geometrically across
    :func:`width_bounds`, keep the f maximizing ||f^T R||^2 / ||f||^2;
    deflate R by f c^T, c = R^T f / ||f||^2 (Mallat & Zhang, IEEE Trans.
    Signal Process. 41(12), 1993). R = X - F C^T is never formed: the
    picked RBF rows F (K x V) and coefficients C (T x K) give f^T R and
    the energy updates, and the candidates, which share one row of
    squared distances, are scored ``_SEED_BLOCK`` voxels at a time.
    """
    grid = _grid(subject)
    k = config.k
    if grid.n_voxels < k:
        raise ShapeError(
            f"subject {subject.subject_id}: {grid.n_voxels} voxels cannot seed {k} factors"
        )
    X = np.asarray(subject.X, dtype=np.float64)
    n_vox, n_trs = X.shape
    negated = -np.geomspace(*width_bounds(grid, config), _SEED_WIDTHS)[:, None]
    F = np.empty((k, n_vox))
    C = np.empty((n_trs, k))
    energy = np.einsum("vt,vt->v", X, X)  # ||R_v||^2 before the first pick
    centers = np.empty((k, 3))
    widths = np.empty(k)
    scratch = np.empty((_SEED_WIDTHS, min(_SEED_BLOCK, n_vox)))
    for j in range(k):
        centers[j] = grid.positions[int(np.argmax(energy))]
        d2 = grid_sq_distances(centers[j:j + 1], grid)[0]
        fx = np.zeros((_SEED_WIDTHS, n_trs))  # f^T X per candidate
        ff = np.zeros((_SEED_WIDTHS, j))      # f^T F_sel^T
        norms = np.zeros(_SEED_WIDTHS)
        for start in range(0, n_vox, _SEED_BLOCK):
            rows = slice(start, min(start + _SEED_BLOCK, n_vox))
            G = scratch[:, :rows.stop - start]
            # d2 / -lambda is -(d2 / lambda) to the bit: rbf_factor_matrix's F
            np.exp(np.divide(d2[rows], negated, out=G), out=G)
            fx += G @ X[rows]
            ff += G @ F[:j, rows].T
            norms += np.einsum("wv,wv->w", G, G)
        fx -= ff @ C[:, :j].T  # f^T R
        best = int(np.argmax(np.einsum("wt,wt->w", fx, fx) / norms))
        widths[j] = -negated[best, 0]
        coef = fx[best] / norms[best]
        f = np.exp(np.divide(d2, negated[best], out=F[j]), out=F[j])
        # ||R_v - f_v c||^2 = ||R_v||^2 - f_v (2 (R c)_v - f_v ||c||^2)
        rc = X @ coef - F[:j].T @ (C[:, :j].T @ coef)
        energy -= f * (2.0 * rc - f * (coef @ coef))
        C[:, j] = coef
    prior_center_cov = np.eye(3) * (grid.diameter / k ** (1.0 / 3.0)) ** 2 / 12.0
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


def _add_prior_blocks(H, rows):
    """H[mj:mj+m, mj:mj+m] += outer(rows[j], rows[j]) for each factor j.

    ``rows`` is K x m: the prior's gradient rows, m = 3 for the centers
    and m = 1 (the width prior's diagonal) for the widths. Writes through
    a (K, m, K, m) view of the mK x mK matrix ``H``, so no block-diagonal
    matrix is formed.
    """
    k, m = rows.shape
    j = np.arange(k)
    H.reshape(k, m, k, m)[j, :, j] += rows[:, :, None] * rows[:, None, :]


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


def _block_problem(Xtilde, W, noise_weight, m, evaluate, gradients, lower, upper):
    """NLLS problem over one parameter block of m values per factor.

    Residuals are the Ttilde*Vtilde data rows a (Xtilde - W F), with a =
    sqrt(noise_weight), then K prior residuals. ``evaluate(x)`` returns
    (F, the prior residuals, their K x m gradient rows) and
    ``gradients(x, F)`` the K x m x Vtilde G = dF/dx. ``residual_fn``
    writes W F, the subtraction and the weight a into the array it
    returns. ``normal_fn`` returns J^T J = a^2 (W^T W kron 1_mxm) * (G G^T)
    plus the prior's m x m blocks and J^T r = rows * r_prior -
    a sum_v G (W^T R), so nothing of size Ttilde x Vtilde x K is formed;
    ``jacobian_fn`` forms the dense Jacobian from the same G, as a test
    oracle.
    """
    n_trs, n_vox = Xtilde.shape
    k = W.shape[1]
    n_data = n_trs * n_vox
    data_w = np.sqrt(noise_weight)
    wtw = np.kron(W.T @ W, np.ones((m, m)))

    def residual(x):
        F, prior_residuals, _ = evaluate(x)
        out = np.empty(n_data + k)
        R = out[:n_data].reshape(n_trs, n_vox)
        np.matmul(W, F, out=R)
        np.subtract(Xtilde, R, out=R)
        R *= data_w
        out[n_data:] = prior_residuals
        return out

    def normal(x, r):
        F, _, rows = evaluate(x)
        G = gradients(x, F)
        WtR = W.T @ r[:n_data].reshape(n_trs, n_vox)
        g = (rows * r[n_data:, None] - data_w * np.einsum("kdv,kv->kd", G, WtR)).ravel()
        G = G.reshape(m * k, n_vox)
        H = (noise_weight * wtw) * (G @ G.T)
        _add_prior_blocks(H, rows)
        return H, g

    def jacobian(x):
        F, _, rows = evaluate(x)
        J = np.zeros((n_data + k, m * k))
        J[:n_data] = (-data_w * np.einsum("tk,kdv->tvkd", W, gradients(x, F))).reshape(
            n_data, m * k
        )
        j = np.arange(k)
        J[n_data:].reshape(k, k, m)[j, j] = rows
        return J

    return trf.LeastSquaresProblem(
        n_vars=m * k,
        n_residuals=n_data + k,
        residual_fn=residual,
        jacobian_fn=jacobian,
        lower=lower,
        upper=upper,
        normal_fn=normal,
    )


def build_center_problem(
    Xtilde, W, widths, template, phi, grid_view, noise_weight, bounds_grid,
    factors=None,
):
    """Center-block NLLS problem (:func:`_block_problem`, m = 3): 3K
    variables, Vtilde*Ttilde + K residuals.

    ``Xtilde`` is the sampled TRs x voxels matrix, ``W`` its weight
    rows, ``grid_view`` the sampled voxels and ``bounds_grid`` the
    subject's whole grid, whose bounding box bounds the centers. The K
    width-prior residuals are constant with widths frozen and are
    dropped; the K center-prior residuals are sqrt(1/(2 phi)) sqrt(d^T P d),
    d the offset from the template center and P = Sigma_mu^{-1}. G = dF/dmu = F * 2 (p - mu) /
    lambda is built once per evaluation in one C-contiguous K x 3 x
    Vtilde buffer, from a 3 x Vtilde copy of the positions made once per
    problem. ``factors`` is an F memo (:func:`_factor_memo` on
    ``grid_view``) that keeps the last point it evaluated, so the residual
    and (J^T J, J^T r) at one x share F; passing the memo the caller
    already evaluated F with, and later handing it to the width problem,
    lets the solves start from F known at their x0.
    """
    k = template.centers.shape[0]
    prior_w = np.sqrt(1.0 / (2.0 * phi))
    prior_prec = spd_inverse(template.prior_center_cov)
    prior_centers = template.centers
    widths = np.asarray(widths, dtype=np.float64)
    pos_t = np.ascontiguousarray(grid_view.positions.T)  # 3 x Vtilde
    if factors is None:
        factors = _factor_memo(grid_view)

    def evaluate(x):
        centers = x.reshape(k, 3)
        D = centers - prior_centers
        U = D @ prior_prec
        q = np.einsum("kd,kd->k", D, U)
        rows = np.zeros_like(U)
        live = q > 1e-300
        rows[live] = prior_w * U[live] / np.sqrt(q[live])[:, None]
        return factors(centers, widths), prior_w * np.sqrt(np.maximum(q, 0.0)), rows

    def gradients(x, F):
        G = np.empty((k, 3, F.shape[1]))
        np.subtract(pos_t, x.reshape(k, 3, 1), out=G)
        G *= (F * (2.0 / widths)[:, None])[:, None]
        return G

    lo, hi = bounds_grid.bounding_box()
    return _block_problem(
        Xtilde, W, noise_weight, 3, evaluate, gradients, np.tile(lo, k), np.tile(hi, k)
    )


def build_width_problem(
    Xtilde, W, centers, template, phi, grid_view, noise_weight, config, bounds_grid,
    factors=None,
):
    """Width-block NLLS problem (:func:`_block_problem`, m = 1): K
    variables, Vtilde*Ttilde + K residuals.

    The width-prior residuals sqrt(1/(2 phi sigma_lambda^2)) (lambda -
    lambdaBar) are linear, so their rows are that constant.
    G = dF/dlambda = F * ||p - mu||^2 / lambda^2 is built in place in one
    K x Vtilde buffer from squared distances formed once per problem.
    ``factors`` is an F memo, as for the centers. The widths are bounded
    by :func:`width_bounds` on ``bounds_grid``.
    """
    k = template.centers.shape[0]
    width_prior_w = np.sqrt(1.0 / (2.0 * phi * template.prior_width_var))
    prior_widths = template.widths
    rows = np.full((k, 1), width_prior_w)
    centers = np.asarray(centers, dtype=np.float64).reshape(k, 3)
    d2 = grid_sq_distances(centers, grid_view)
    if factors is None:
        factors = _factor_memo(grid_view)

    def evaluate(x):
        return factors(centers, x), width_prior_w * (x - prior_widths), rows

    def gradients(x, F):
        G = F * d2
        G /= (x**2)[:, None]
        return G[:, None]

    lo, hi = width_bounds(bounds_grid, config)
    return _block_problem(
        Xtilde, W, noise_weight, 1, evaluate, gradients, np.full(k, lo), np.full(k, hi)
    )


def local_step(subject, template, local, config, plan, rng=None):
    """One subject's alternating weight/center/width refinement.

    Starts by adopting the broadcast template as the local prior, then
    loops subsample -> ridge weights -> center block solve -> width
    block solve until the relative parameter change drops below
    ``_LOCAL_TOLERANCE`` or ``config.local_iterations`` runs out.
    """
    grid = _grid(subject)
    if rng is None:
        rng = np.random.default_rng(plan.seed & 0xFFFFFFFFFFFFFFFF)
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
            w_rows = update_weights(Xst, factors(centers, widths), _RIDGE_ALPHA2)
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
            if float(np.linalg.norm(current - previous)) / denom < _LOCAL_TOLERANCE:
                break
    except Exception as exc:
        try:
            wrapped = type(exc)(f"subject {subject.subject_id}: {exc}")
        except Exception:
            raise exc
        wrapped.__dict__.update(vars(exc))  # keep .x, .pivot, .rank ...
        raise wrapped from exc
    return LocalModel(
        subject_id=subject.subject_id,
        centers=centers,
        widths=widths,
        weights=weights,
        noise_weight=noise_weight,
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
    """Re-seed factors whose weight column died to the highest-residual voxel
    (:func:`~factorfit.kernels.row_residual_energy`: no V x T residual)."""
    dead = np.where(~local.weights.any(axis=0))[0]
    if dead.size == 0:
        return local
    F = rbf_factor_matrix(local.centers, local.widths, subject.grid)
    voxel = int(np.argmax(row_residual_energy(subject.X, F.T, local.weights.T)))
    local.centers[dead] = subject.grid.positions[voxel]
    return local


def _broadcast_template(comm, template, k):
    """The root's whole template of ``k`` factors, every field in
    declaration order, on every rank in one broadcast. Other ranks pass
    anything as ``template``; a rank that expects another ``k`` raises
    :class:`~factorfit.errors.CollectiveContractError`."""
    parts = [getattr(template, f.name) for f in fields(template)] if comm.rank == 0 else None
    shapes = [(k, 3), (k, 3, 3), (k,), (k,), (3, 3), ()]
    return GlobalTemplate(*broadcast_parts(comm, parts, shapes))


def fit(subjects, config, plan, comm, iteration_log=None):
    """Distributed MAP fit; ``subjects`` are this worker's share.

    Outer loop: broadcast the template -> per-subject local steps, each
    pushing its [centers, widths, noise variance] row of 4K + 1 values
    into one :class:`~factorfit.collectives.PairwiseSum` -> the root
    divides the sums by N and updates the template from those means, so
    the result does not depend on the partition. Each template broadcast
    (:func:`_broadcast_template`) hands the root's whole template,
    posterior covariances and priors included, to every rank as one row
    of 14K + 10 values; one more after the loop hands over the final
    template, and a final pass rebuilds every subject's full weight matrix
    from its final factors. Returns (template, local models); the template
    is identical on every rank. When ``iteration_log`` is a list, the root
    appends the mean noise variance once per outer iteration; other ranks
    leave it empty.

    Bad subjects fail by name before any collective: one without voxel
    coordinates or with a one-voxel grid, one that is not finite or is
    constant over time (:func:`~factorfit.kernels.check_centered`, as in
    SRM), and a root whose first subject has too few voxels to seed the
    template.
    """
    config.validate()
    plan.validate()
    if not subjects:
        raise ConfigError("each worker needs at least one subject")
    for s in subjects:
        _grid(s)
        check_centered(s.subject_id, s.X.shape[1], *center_stats(s.X))
    template = init_template(subjects[0], config) if comm.rank == 0 else None
    offset, n_total = rank_offsets(comm, len(subjects))
    k = config.k
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
    pairwise = PairwiseSum(comm, offset, n_total, 4 * k + 1)

    for outer in range(config.outer_iterations):
        template = _broadcast_template(comm, template, k)
        for j, subject in enumerate(subjects):
            rng = np.random.default_rng(
                (plan.seed & 0xFFFFFFFFFFFFFFFF, offset + j, outer)
            )
            locals_[j] = local_step(subject, template, locals_[j], config, plan, rng=rng)
            m = locals_[j] = _rescue_degenerate(subject, locals_[j])
            parts = [m.centers.ravel(), m.widths, [0.5 / m.noise_weight]]
            np.concatenate(parts, out=pairwise.row())
            pairwise.push()
        means = pairwise.finish()
        if comm.rank == 0:
            means /= n_total  # one row, so global_step's means are these bits
            template = global_step(
                means[:3 * k].reshape(1, k, 3), means[None, 3 * k:4 * k], template, n_total
            )
            if iteration_log is not None:
                iteration_log.append(float(means[4 * k]))
    template = _broadcast_template(comm, template, k)

    # final full-weight refresh against each subject's complete data
    for j, subject in enumerate(subjects):
        F = rbf_factor_matrix(locals_[j].centers, locals_[j].widths, subject.grid)
        locals_[j].weights = update_weights(subject.X.T, F, _RIDGE_ALPHA2)
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
