"""Shared response modeling via distributed constrained EM.

The model: subject i's demeaned volume at time t is W_i s_t + noise,
with W_i an orthogonal V_i x K mapping (W_i^T W_i = I), s_t a shared
K-dimensional response with covariance Sigma_s, and isotropic subject
noise with variance rho_i^2.

The E-step never forms the stacked V x V covariance. Writing
rho_0 = sum_i rho_i^{-2}, orthogonality collapses the precision-
weighted Gram matrix to rho_0 * I, and the matrix inversion lemma turns
the posterior into K x K algebra:

    var_s = (Sigma_s^{-1} + rho_0 I)^{-1}
    E[s_t | x] = Sigma_s^T (I - rho_0 var_s) sum_i rho_i^{-2} W_i^T xhat_it

so memory and communication depend on K and T only, never on the total
voxel count.

The M-step sets W_i to the orthogonal polar factor of
A_i = 1/2 Xhat_i S^T. The noise update needs the cross term
<W_i^T Xhat_i, S> = tr(W_i^T Xhat_i S^T) = 2 <W_i, A_i> = 2 tr(Sigma_i),
twice the sum of A_i's singular values (A_i = Q R, R = U Sigma_i V^T and
W_i = Q U V^T), and ||Xhat_i||^2, which does not change between
iterations and is computed once per subject. So a subject-iteration does
two V x T x K products (the E-step term and A_i), a QR of A_i and one
product with its Q, the voxel-scale work
``cli.srm_flops_per_subject_iteration`` counts.
The two products use every CPU the process may use: each is cut into
column parts (over T for the E-step term, over V for A_i) whose number
depends on the shape only, so the bits do not depend on the CPU count,
the backend or the rank split, only on the BLAS build and its thread
count.

The fit holds one copy of each subject's data, the caller's X_i, and
never writes to it. Xhat_i = X_i - mu_i 1^T is never formed: each Xhat_i
has zero row sums, so the reduced sum R = sum_i rho_i^{-2} W_i^T Xhat_i
is the sum of the terms rho_i^{-2} W_i^T X_i less its row means, which
the root subtracts once per iteration. S = C R then has zero row sums
too, so X_i S^T = Xhat_i S^T; the root subtracts S's row means as well,
to drop the rounding of the first centering. One blocked pass at fit
start (:func:`center_stats`) gives mu_i and each voxel's centered
energy, whose sum is ||Xhat_i||^2 and whose count above rounding is the
number of voxels that vary, checked against k before any collective.

Beyond the data, a worker holds only what the next step reads: mu_i and
two scalars per subject; subject i's mapping W_i, only from the M-step
that makes it (the seeded initial one: just before the first E-step) to
the next E-step, which reads it and drops it; and, for one phase at a
time, the rows of the :class:`~factorfit.collectives.PairwiseSum` that
sums the E-step terms [rho_i^{-2}, rho_i^2, rho_i^{-2} W_i^T X_i] over
the subjects [0, N), bit-identically however they are grouped onto
workers. The E-step writes W_i^T X_i into the sum's free row and
divides it by rho_i^2 there, so it allocates nothing of voxel scale.
During the E-steps a worker's sum holds a few (4 + K T)-wide rows, at most
N.bit_length() + 1 on the root, whatever the number of workers; the
root's one sum row lives until the posterior is computed. S lives from
its broadcast until the next E-steps (or, with a tolerance, one
iteration longer, for the stopping test), once per worker: the broadcast
of S and tr(Sigma_s_new) hands the root back the row it sent, which
replaces its own S, and the others a view of the frame they received.
Subject i's M-step adds one V_i x K work array, A_i: the QR runs in its
buffer and the new W_i is written over the reflectors there, so no
subject ever has two V_i x K arrays (under 8 K voxels, the SVD's copy,
U and the result are V_i x K as well).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .collectives import PairwiseSum, broadcast_parts, gather_rows, rank_offsets
from .errors import ConfigError, RankError, ShapeError
from .kernels import _polar, _split_matmul, add_diag, center_stats, check_centered
from .kernels import polar_orthogonal, row_blocks, spd_inverse, trace_ata
from .rng import numpy_stream

__all__ = [
    "SrmConfig",
    "SrmModel",
    "demean",
    "center_stats",
    "init_subject",
    "e_step_local",
    "e_step_global",
    "update_sigma_s",
    "m_step_subject",
    "fit",
    "project",
    "map_between",
]

RHO_FLOOR = 1e-12


@dataclass
class SrmConfig:
    k: int
    iterations: int = 10
    seed: int = 0
    tolerance: Optional[float] = None

    def validate(self):
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ConfigError("tolerance must be positive when given")


@dataclass
class SrmModel:
    """Fitted model state held by one worker.

    ``W``, ``rho2``, ``mu`` and ``subject_ids`` cover the subjects this
    worker owns (everything, for a serial fit). ``S`` is the shared
    response, present on every worker after the final broadcast.
    ``sigma_s``, the full noise vector ``rho2_all`` and
    ``objective_trace``, the mean noise variance over all subjects after
    each M-step, live on the root only (the trace is empty elsewhere).
    ``mu`` holds each subject's voxel means; the model keeps no copy of
    the data, demeaned or not.
    """

    subject_ids: list
    W: list
    rho2: list
    mu: list
    S: np.ndarray
    sigma_s: Optional[np.ndarray] = None
    rho2_all: Optional[np.ndarray] = None
    objective_trace: list = field(default_factory=list)


def demean(X):
    """Remove each voxel's temporal mean; returns (Xhat, mu)."""
    X = np.asarray(X, dtype=np.float64)
    mu = X.mean(axis=1)
    return X - mu[:, None], mu


def init_subject(n_voxels, config, subject_index):
    """Seeded random orthogonal mapping and unit noise variance.

    Deterministic in (config.seed, subject_index) and independent of
    which worker owns the subject. The V x K Gaussian is drawn
    ``ROW_BLOCK`` rows at a time, in the order of one V x K draw, straight
    into a column-major buffer, whose polar factor is formed in that
    buffer, so no second V x K array is made.
    """
    if n_voxels < config.k:
        raise ShapeError(
            f"subject has {n_voxels} voxels, fewer than k={config.k} factors"
        )
    rng = numpy_stream(config.seed, subject_index)
    W = np.empty((n_voxels, config.k), order="F")
    for rows, block in row_blocks(W):
        W[rows] = rng.standard_normal(out=block)
    return _polar(W)[0], 1.0


def e_step_local(W_i, rho2_i, X_i, out=None):
    """This subject's term of the reduction: rho_i^{-2} W_i^T X_i.

    ``X_i`` may still carry its voxel means; :func:`fit` takes their share
    out of the summed terms once, at the root. The K x T term is written
    into ``out`` when given. From 2,048 TRs on, the product runs in
    column parts over T on the process's CPUs; the parts depend on T
    only (:func:`~factorfit.kernels._split_matmul`).
    """
    if out is None:
        out = np.empty((W_i.shape[1], X_i.shape[1]))
    # scaling the K x T product in place, not the V x K mapping, allocates
    # nothing of voxel scale
    _split_matmul(W_i.T, X_i, out)
    out /= rho2_i
    return out


def e_step_global(reduced, sigma_s, rho0):
    """Posterior mean S and common posterior covariance from the reduction.

    Only K x K matrices are ever inverted.
    """
    k = sigma_s.shape[0]
    var_s = spd_inverse(add_diag(spd_inverse(sigma_s), rho0))
    S = (sigma_s.T @ (np.eye(k) - rho0 * var_s)) @ reduced
    return S, var_s


def update_sigma_s(sigma_s, rho0, S, var_s=None):
    """Shared-covariance update; returns the new matrix and its trace.

    The trace is what gets broadcast: every subject's noise update needs
    (1/T) sum_t tr E[s_t s_t^T], which equals tr(Sigma_s_new), so the
    posterior second moments themselves never travel. ``var_s`` is the
    posterior covariance :func:`e_step_global` returned for the same
    ``sigma_s`` and ``rho0``; without it, it is computed again.
    """
    if var_s is None:
        var_s = spd_inverse(add_diag(spd_inverse(sigma_s), rho0))
    sigma_new = var_s + (S @ S.T) / S.shape[1]
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    return sigma_new, float(np.trace(sigma_new))


def m_step_subject(X_i, S, trace_sigma_s_new, xhat_sq=None, mu=None):
    """Per-subject mapping and noise update given the broadcast S and trace.

    W_new is the polar factor of A = 1/2 Xhat_i S^T, and the noise
    update's cross term <W_new^T Xhat_i, S> = 2 <W_new, A> is twice the
    sum of A's singular values, which the polar factor's SVD of R gives
    with no pass over A, so the voxel-scale work is one V x T x K product
    and A's polar factor by QR, which runs in A's own buffer and leaves
    W_new there.
    From 2,048 voxels on, the product runs in column parts over V on the
    process's CPUs; the parts depend on V only
    (:func:`~factorfit.kernels._split_matmul`).
    ``xhat_sq`` is ||Xhat_i||^2, which :func:`fit` computes once per
    subject. Without ``mu``, ``X_i`` is Xhat_i and ``xhat_sq`` is computed
    here when not given. With ``mu``, X_i = Xhat_i + mu 1^T, ``xhat_sq`` is
    required and S must have zero row sums, as :func:`fit`'s S does, so
    that X_i S^T = Xhat_i S^T; ``mu`` only sets the rank check's floor.

    The mean's share of X_i S^T cancels in the product, leaving each
    entry of A with an error of up to T eps |mu_v| (|S| 1)_k (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.5),
    a matrix of norm at most T eps ||mu|| || |S| 1 ||. As
    tr(Sigma_s_new) = tr(var_s) + ||S||_F^2 / T >= ||S||_F^2 / T,
    || |S| 1 || <= sqrt(T) ||S||_F <= T sqrt(tr(Sigma_s_new)), which
    bounds the error without another pass over S. Singular values of A
    within that bound are rounding, so a subject whose Xhat_i has rank
    below K fails the SVD's rank check as it would on Xhat_i itself.
    """
    n_trs = S.shape[1]
    # the K x V product is the faster layout for the same numbers
    A = _split_matmul(S, X_i.T, np.empty((S.shape[0], X_i.shape[0])))
    floor = 0.0
    if mu is not None:
        if xhat_sq is None:
            raise ValueError("m_step_subject needs xhat_sq when mu is given")
        floor = (n_trs**2 * np.finfo(np.float64).eps * float(np.linalg.norm(mu))
                 * np.sqrt(max(trace_sigma_s_new, 0.0)))
    A *= 0.5
    # A.T is column-major: the QR overwrites it and no V x K copy is made
    W_new, s = _polar(A.T, atol=floor)
    if xhat_sq is None:
        xhat_sq = trace_ata(X_i)
    n_voxels = X_i.shape[0]
    cross = 2.0 * float(np.sum(s))
    rho2 = (xhat_sq + n_trs * trace_sigma_s_new - 2.0 * cross) / (n_trs * n_voxels)
    return W_new, max(rho2, RHO_FLOOR)


def fit(subjects, config, comm):
    """Run the distributed EM; ``subjects`` are this worker's share.

    Every worker calls this with the same config. The subjects' arrays
    are only read, never copied or modified; the module notes say how
    Xhat_i is avoided and what else the fit holds. Per iteration: the
    subjects' [rho_i^{-2}, rho_i^2, K x T partial] terms go into one
    :class:`~factorfit.collectives.PairwiseSum` -> the root subtracts the
    row means of the summed K x T term, computes the posterior (whose
    covariance the Sigma_s update reuses), subtracts S's row means and
    updates Sigma_s -> one broadcast of S and tr(Sigma_s_new) -> local
    M-steps. With ``tolerance`` set, every worker runs the stopping test on
    its identical copy of S, so no stop flag travels. A last gather
    collects the noise variances on the root.
    The root's ``objective_trace`` takes the summed rho_i^2 from each
    iteration after the first, then the mean of the final noise variances,
    so it covers every subject whatever the partition.

    Bad subjects fail by name before any collective: a subject whose data
    are not 2-D or that has fewer than k voxels (:class:`ShapeError`), one
    with a NaN or infinite entry or one that is constant over time
    (:class:`InvalidInputError`), and
    one with fewer than k voxels that vary beyond the rounding of their
    mean (:class:`RankError`). A subject whose demeaned data have rank
    below k for another reason fails its M-step with a
    :class:`RankError` that also names it.
    """
    config.validate()
    if not subjects:
        raise ConfigError("each worker needs at least one subject")
    for s in subjects:
        if np.ndim(s.X) != 2:
            raise ShapeError(
                f"subject {s.subject_id} has {np.ndim(s.X)}-D data, not a voxels x "
                "TRs matrix"
            )
    n_trs = subjects[0].X.shape[1]
    k = config.k
    for s in subjects:
        if s.X.shape[1] != n_trs:
            raise ShapeError(
                f"subject {s.subject_id} has {s.X.shape[1]} TRs, expected {n_trs}"
            )
        if s.X.shape[0] < k:
            raise ShapeError(
                f"subject {s.subject_id} has {s.X.shape[0]} voxels, fewer than "
                f"k={k} factors"
            )
    if n_trs < 2:
        raise ShapeError("need at least 2 TRs")
    if k >= n_trs:
        raise ConfigError(
            f"k={k} factors need more than T={n_trs} TRs: demeaned data has "
            f"rank at most T-1={n_trs - 1}"
        )

    Xs = [np.asarray(s.X, dtype=np.float64) for s in subjects]
    mus, xhat_sqs = [], []
    for s, X in zip(subjects, Xs):
        mu, energy = center_stats(X)
        xhat_sq, varying = check_centered(s.subject_id, n_trs, mu, energy)
        if varying < k:
            raise RankError(
                f"subject {s.subject_id}: only {varying} of its {len(mu)} voxels "
                "vary over time beyond rounding, so its demeaned data have rank "
                f"below k={k}"
            )
        mus.append(mu)
        xhat_sqs.append(xhat_sq)

    offset, n_subjects = rank_offsets(comm, len(subjects))
    Ws, rho2s = [None] * len(Xs), [None] * len(Xs)
    sigma_s = np.eye(k) if comm.rank == 0 else None
    S_prev = None
    objective_trace = []
    pairwise = PairwiseSum(comm, offset, n_subjects, 2 + k * n_trs)

    for iteration in range(config.iterations):
        # the E-steps do not read S: only the stopping test's S_prev keeps it
        S = parts = None
        for j, X in enumerate(Xs):
            # a mapping lives from the M-step that makes it to this E-step
            W, Ws[j] = Ws[j], None
            if iteration == 0:
                W, rho2s[j] = init_subject(X.shape[0], config, offset + j)
            row = pairwise.row()
            row[:2] = 1.0 / rho2s[j], rho2s[j]
            e_step_local(W, rho2s[j], X, out=row[2:].reshape(k, n_trs))
            pairwise.push()
        row = W = None
        sums = pairwise.finish()
        if comm.rank == 0:
            rho0 = float(sums[0])
            if iteration > 0:
                objective_trace.append(float(sums[1]) / n_subjects)
            reduced = sums[2:].reshape(k, n_trs)
            reduced -= reduced.mean(axis=1, keepdims=True)
            S, var_s = e_step_global(reduced, sigma_s, rho0)
            sums = reduced = None
            S -= S.mean(axis=1, keepdims=True)
            sigma_s, trace_new = update_sigma_s(sigma_s, rho0, S, var_s)
            parts = [S, trace_new]
        # rebinding S and parts releases the root's own S
        S, trace_new = parts = broadcast_parts(comm, parts, [(k, n_trs), ()])

        for j, s in enumerate(subjects):
            try:
                Ws[j], rho2s[j] = m_step_subject(
                    Xs[j], S, trace_new, xhat_sqs[j], mu=mus[j]
                )
            except RankError as exc:
                raise RankError(
                    f"subject {s.subject_id}: {exc}; its mapping needs demeaned "
                    f"data of rank at least k={k}"
                ) from exc

        if config.tolerance is not None:
            if S_prev is not None:
                denom = max(float(np.linalg.norm(S_prev)), 1e-300)
                if np.linalg.norm(S - S_prev) / denom < config.tolerance:
                    break
            S_prev = S

    blocks = gather_rows(comm, np.array(rho2s)[:, None])
    rho2_all = None
    if comm.rank == 0:
        rho2_all = np.concatenate(blocks).ravel()
        objective_trace.append(float(np.mean(rho2_all)))

    return SrmModel(
        subject_ids=[s.subject_id for s in subjects],
        W=Ws,
        rho2=list(rho2s),
        mu=mus,
        S=S,
        sigma_s=sigma_s if comm.rank == 0 else None,
        rho2_all=rho2_all,
        objective_trace=objective_trace,
    )


def project(model, i, x):
    """Map one volume of held subject ``i`` into the shared space."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return model.W[i].T @ (x - model.mu[i])


def map_between(model, i, j, x):
    """Map a volume of subject ``i`` into subject ``j``'s voxel space."""
    return model.W[j] @ project(model, i, x) + model.mu[j]
