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
<W_i^T Xhat_i, S> = tr(W_i^T Xhat_i S^T) = 2 <W_i, A_i>, a V x K inner
product, and ||Xhat_i||^2, which does not change between iterations and
is computed once per subject. So a subject-iteration does two V x T x K
products (the E-step term and A_i) and one V x K SVD, the voxel-scale
work that ``cli.srm_flops_per_subject_iteration`` counts.

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

Per iteration the E-step terms are summed along one fixed pairwise tree
over the global subject indices [0, N). Each worker sums its own
subjects' terms, [rho_i^{-2}, rho_i^2, rho_i^{-2} W_i^T X_i], into the
complete aligned subtrees of that tree, ships those few rows (at most
about 2 log2 of its subject count) to the root, and the root finishes the
same tree. Every addition combines the same two subtrees whatever the
partition, so results are bit-identical no matter how subjects are
grouped onto workers, and the summation error grows with log N, not N
(Higham, SIAM J. Sci. Comput. 14(4), 1993). The root then updates
Sigma_s and broadcasts the posterior mean and the trace of the new
Sigma_s back in one (K+1) x T matrix.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .collectives import gather_rows, rank_offsets
from .errors import CollectiveContractError, ConfigError, InvalidInputError, RankError, ShapeError
from .kernels import add_diag, polar_orthogonal, row_blocks, spd_inverse, trace_ata

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
    ``rho0`` is the global sum of inverse noise variances. ``mu`` holds
    each subject's voxel means; the model keeps no copy of the data,
    demeaned or not.
    """

    subject_ids: list
    subject_indices: list
    W: list
    rho2: list
    mu: list
    S: np.ndarray
    rho0: float
    n_subjects: int
    sigma_s: Optional[np.ndarray] = None
    rho2_all: Optional[np.ndarray] = None
    objective_trace: list = field(default_factory=list)


def demean(X):
    """Remove each voxel's temporal mean; returns (Xhat, mu)."""
    X = np.asarray(X, dtype=np.float64)
    mu = X.mean(axis=1)
    return X - mu[:, None], mu


def center_stats(X):
    """Each voxel's temporal mean and centered energy, in one blocked pass.

    Returns (mu, energy) with mu[v] the mean of row v of ``X`` and
    energy[v] = ||X[v] - mu[v]||^2, the same elementwise differences
    :func:`demean` forms. Rows are centered a block at a time
    (:func:`~factorfit.kernels.row_blocks`), so no centered copy of ``X``
    exists and ``X`` is only read. A row holding inf or NaN gets a NaN
    energy without a floating-point warning; :func:`fit` names its
    subject.
    """
    mu = np.empty(X.shape[0])
    energy = np.empty(X.shape[0])
    with np.errstate(invalid="ignore"):
        for rows, block in row_blocks(X):
            np.mean(X[rows], axis=1, out=mu[rows])
            np.subtract(X[rows], mu[rows, None], out=block)
            np.einsum("vt,vt->v", block, block, out=energy[rows])
    return mu, energy


def init_subject(n_voxels, config, subject_index):
    """Seeded random orthogonal mapping and unit noise variance.

    Deterministic in (config.seed, subject_index) and independent of
    which worker owns the subject.
    """
    if n_voxels < config.k:
        raise ShapeError(
            f"subject has {n_voxels} voxels, fewer than k={config.k} factors"
        )
    rng = np.random.default_rng((config.seed & 0xFFFFFFFFFFFFFFFF, subject_index))
    W = polar_orthogonal(rng.standard_normal((n_voxels, config.k)))
    return W, 1.0


def e_step_local(W_i, rho2_i, X_i, out=None):
    """This subject's term of the reduction: rho_i^{-2} W_i^T X_i.

    ``X_i`` may still carry its voxel means; :func:`fit` takes their share
    out of the summed terms once, at the root. The K x T term is written
    into ``out`` when given.
    """
    # scaling the V x K mapping, not the K x T product, saves a K x T pass
    return np.matmul((W_i / rho2_i).T, X_i, out=out)


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
    update's cross term uses <W_new^T Xhat_i, S> = 2 <W_new, A>, so the
    voxel-scale work is one V x T x K product and one V x K SVD.
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
    A = S @ X_i.T
    floor = 0.0
    if mu is not None:
        if xhat_sq is None:
            raise ValueError("m_step_subject needs xhat_sq when mu is given")
        floor = (n_trs**2 * np.finfo(np.float64).eps * float(np.linalg.norm(mu))
                 * np.sqrt(max(trace_sigma_s_new, 0.0)))
    A *= 0.5
    A = A.T
    W_new = polar_orthogonal(A, atol=floor)
    if xhat_sq is None:
        xhat_sq = trace_ata(X_i)
    n_voxels = X_i.shape[0]
    cross = 2.0 * float(np.einsum("vk,vk->", W_new, A))
    rho2 = (xhat_sq + n_trs * trace_sigma_s_new - 2.0 * cross) / (n_trs * n_voxels)
    return W_new, max(rho2, RHO_FLOOR)


def _push_node(nodes, depth):
    """Add the node in ``nodes[depth]`` to a pairwise-tree stack; return its depth.

    ``nodes[:depth]`` is the stack. A node is a row [start, level, sums...]
    holding the sums over subjects [start, start + 2**level), with start
    a multiple of 2**level. While the top of the stack is the left sibling
    of the new node, the two merge in place into their parent, left +
    right, like the carry of a binary counter. Every node therefore holds
    the same bits wherever it was formed.
    """
    while depth:
        top, node = nodes[depth - 1], nodes[depth]
        size = 2.0 ** node[1]
        if top[1] != node[1] or top[0] + size != node[0] or top[0] % (2 * size):
            break
        top[2:] += node[2:]
        top[1] += 1
        depth -= 1
    return depth + 1


def _stack_rows(offset, count):
    """Rows the tree stack of subjects [offset, offset + count) ever holds."""
    # left subtrees cut off by offset, plus a binary counter: both grow
    # with log2(count), so 2 * count.bit_length() + 1 rows always suffice
    nodes = np.empty((2 * count.bit_length() + 1, 2))
    depth = rows = 0
    for i in range(offset, offset + count):
        nodes[depth] = i, 0
        rows = max(rows, depth + 1)
        depth = _push_node(nodes, depth)
    return rows


def _tree_sum(blocks, n_subjects, nodes):
    """Root side: finish the pairwise tree over subjects [0, n_subjects).

    ``blocks`` are the ranks' node rows in rank order. They must tile
    [0, n_subjects) exactly; the first gap, overlap or overrun raises
    :class:`CollectiveContractError`. The nodes go through the same merge
    as on the workers, in ``nodes``, a scratch buffer of at least
    n_subjects.bit_length() + 1 rows (the root's stack is a binary
    counter over [0, n_subjects)). What remains, one complete subtree per
    set bit of n_subjects, is folded right to left. Returns the sums, a
    view into ``nodes``.
    """
    depth = 0
    covered = 0
    for rank, block in enumerate(blocks):
        for node in block:
            start, level = int(node[0]), int(node[1])
            end = start + 2 ** level
            if start > covered:
                problem = f"subjects [{covered}, {start}) are missing"
            elif start < covered:
                problem = f"subjects [{start}, {min(end, covered)}) are summed twice"
            elif level < 0 or start % 2 ** level:
                problem = "that range is not a node of the pairwise tree"
            elif end > n_subjects:
                problem = f"there are only {n_subjects} subjects"
            else:
                problem = None
            if problem:
                raise CollectiveContractError(
                    f"rank {rank} sent the E-step sum over subjects "
                    f"[{start}, {end}) after [0, {covered}): {problem}; "
                    "every subject must be covered exactly once"
                )
            covered = end
            nodes[depth] = node
            depth = _push_node(nodes, depth)
    if covered != n_subjects:
        raise CollectiveContractError(
            f"E-step sums cover subjects [0, {covered}) of {n_subjects}; "
            "every subject must be covered exactly once"
        )
    for d in range(depth - 2, -1, -1):
        nodes[d, 2:] += nodes[d + 1, 2:]
    return nodes[0, 2:]


def fit(subjects, config, comm):
    """Run the distributed EM; ``subjects`` are this worker's share.

    Every worker calls this with the same config. The subjects' arrays
    are only read, never copied or modified (the module notes say how
    Xhat_i is avoided). Per iteration: each worker streams its subjects'
    [rho_i^{-2}, rho_i^2, K x T partial] terms through the pairwise
    summation tree and gathers the resulting [start, level, sums] node
    rows to the root -> the root checks that they tile [0, N), finishes
    the tree, subtracts the K x T sum's row means, computes the posterior
    (whose covariance the Sigma_s update reuses), subtracts S's row means
    and updates Sigma_s -> one broadcast of S stacked on a row holding
    tr(Sigma_s_new) -> local M-steps. With ``tolerance`` set, every
    worker runs the stopping test on its identical copy of S, so no stop
    flag travels. A last gather collects the noise variances on the root
    and a broadcast hands every worker the final rho0. The root's
    ``objective_trace`` takes the tree's sum of rho_i^2 from each
    iteration after the first, then the mean of the final noise
    variances, so it covers every subject whatever the partition.

    Bad subjects fail by name before any collective: a subject with fewer
    than k voxels (:class:`ShapeError`), one with a NaN or infinite entry
    or one that is constant over time (:class:`InvalidInputError`), and
    one with fewer than k voxels that vary beyond the rounding of their
    mean (:class:`RankError`). A subject whose demeaned data have rank
    below k for another reason fails its M-step with a
    :class:`RankError` that also names it.
    """
    config.validate()
    if not subjects:
        raise ConfigError("each worker needs at least one subject")
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
    # centering a constant voxel with mean m leaves only the rounding
    # error of the mean, under 2 T eps |m| per entry
    rounding = (2.0 * n_trs * np.finfo(np.float64).eps) ** 2 * n_trs
    for s, X in zip(subjects, Xs):
        mu, energy = center_stats(X)
        xhat_sq = float(np.sum(energy))
        # a NaN or infinite entry makes its voxel's energy NaN
        if not np.isfinite(xhat_sq):
            raise InvalidInputError(f"subject {s.subject_id} has NaN or infinite entries")
        if xhat_sq <= rounding * float(mu @ mu):
            raise InvalidInputError(
                f"subject {s.subject_id} is constant over time: its demeaned "
                "data are zero up to rounding, so it has no mapping to fit"
            )
        varying = int(np.count_nonzero(energy > rounding * mu**2))
        if varying < k:
            raise RankError(
                f"subject {s.subject_id}: only {varying} of its {len(mu)} voxels "
                "vary over time beyond rounding, so its demeaned data have rank "
                f"below k={k}"
            )
        mus.append(mu)
        xhat_sqs.append(xhat_sq)

    offset, n_subjects = rank_offsets(comm, len(subjects))
    states = [
        init_subject(s.X.shape[0], config, offset + j)
        for j, s in enumerate(subjects)
    ]
    Ws = [st[0] for st in states]
    rho2s = [st[1] for st in states]

    sigma_s = np.eye(k) if comm.rank == 0 else None
    S = None
    S_prev = None
    objective_trace = []
    nodes = np.empty((_stack_rows(offset, len(subjects)), 4 + k * n_trs))
    if comm.rank == 0:
        root_nodes = np.empty((n_subjects.bit_length() + 1, 4 + k * n_trs))

    for iteration in range(config.iterations):
        depth = 0
        for j in range(len(subjects)):
            nodes[depth, :4] = offset + j, 0, 1.0 / rho2s[j], rho2s[j]
            row = nodes[depth, 4:].reshape(k, n_trs)
            e_step_local(Ws[j], rho2s[j], Xs[j], out=row)
            depth = _push_node(nodes, depth)
        blocks = gather_rows(comm, nodes[:depth])
        if comm.rank == 0:
            sums = _tree_sum(blocks, n_subjects, root_nodes)
            del blocks
            rho0 = float(sums[0])
            if iteration > 0:
                objective_trace.append(float(sums[1]) / n_subjects)
            reduced = sums[2:].reshape(k, n_trs)
            reduced -= reduced.mean(axis=1, keepdims=True)
            S_root, var_s = e_step_global(reduced, sigma_s, rho0)
            S_root -= S_root.mean(axis=1, keepdims=True)
            sigma_s, trace_new = update_sigma_s(sigma_s, rho0, S_root, var_s)
            packed = np.vstack([S_root, np.full((1, n_trs), trace_new)])
        else:
            packed = None
        packed = comm.broadcast(packed)
        if packed.shape != (k + 1, n_trs):
            raise CollectiveContractError(
                f"rank {comm.rank} expects S and tr(Sigma_s) as a {(k + 1, n_trs)} "
                f"broadcast, got {packed.shape}"
            )
        S, trace_new = packed[:k], float(packed[k, 0])

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

    # refresh rho0 so it matches the post-M-step noise variances
    blocks = gather_rows(comm, np.array(rho2s)[:, None])
    rho2_all = None
    if comm.rank == 0:
        rho2_all = np.concatenate(blocks).ravel()
        rho0_final = float(np.add.reduce(1.0 / rho2_all))
        objective_trace.append(float(np.mean(rho2_all)))
    else:
        rho0_final = None
    rho0 = float(comm.broadcast(
        np.array([[rho0_final]]) if comm.rank == 0 else None
    )[0, 0])

    return SrmModel(
        subject_ids=[s.subject_id for s in subjects],
        subject_indices=list(range(offset, offset + len(subjects))),
        W=Ws,
        rho2=list(rho2s),
        mu=mus,
        S=S,
        rho0=rho0,
        n_subjects=n_subjects,
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
