"""One solve of each model as the CLI's fit commands do it, plus the gates.

A solve goes from subject files on disk to artifacts written: load every
subject with ``data_io.load_subject``, fit, then ``data_io.save_matrix``
each artifact ``fit-srm`` / ``fit-htfa`` writes. Functions are looked up
on their modules at call time so that a tracer can wrap them.
"""

import hashlib
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from factorfit import data_io, htfa, srm

ORTHOGONALITY_TOL = 1e-8


def solve_srm(comm, entries, config, out_dir, around_fit=nullcontext):
    """Load, fit and save this rank's subjects; returns (model, fit seconds).

    ``around_fit()`` is a context manager entered around the fit alone.
    """
    out_dir = Path(out_dir)
    (out_dir / "subjects").mkdir(parents=True, exist_ok=True)
    subjects = [data_io.load_subject(e.data_path, None, e.subject_id) for e in entries]
    comm.barrier()
    t0 = time.perf_counter()
    with around_fit():
        model = srm.fit(subjects, config, comm)
    fit_s = time.perf_counter() - t0
    for sid, W, mu in zip(model.subject_ids, model.W, model.mu):
        data_io.save_matrix(out_dir / "subjects" / f"{sid}_mapping.sfab", W)
        data_io.save_matrix(out_dir / "subjects" / f"{sid}_mean.sfab", mu[:, None])
    if comm.rank == 0:
        data_io.save_matrix(out_dir / "shared_response.sfab", model.S)
        data_io.save_matrix(out_dir / "shared_covariance.sfab", model.sigma_s)
        data_io.save_matrix(out_dir / "noise_variance.sfab", model.rho2_all[:, None])
    comm.barrier()
    return model, fit_s


def solve_htfa(comm, entries, config, plan, out_dir, around_fit=nullcontext):
    """Load, fit and save; returns ((template, locals), fit seconds)."""
    out_dir = Path(out_dir)
    (out_dir / "subjects").mkdir(parents=True, exist_ok=True)
    subjects = [
        data_io.load_subject(e.data_path, e.coords_path, e.subject_id) for e in entries
    ]
    comm.barrier()
    t0 = time.perf_counter()
    with around_fit():
        template, locals_ = htfa.fit(subjects, config, plan, comm)
    fit_s = time.perf_counter() - t0
    for model in locals_:
        base = out_dir / "subjects" / model.subject_id
        data_io.save_matrix(f"{base}_centers.sfab", model.centers)
        data_io.save_matrix(f"{base}_widths.sfab", model.widths[:, None])
        data_io.save_matrix(f"{base}_weights.sfab", model.weights)
        data_io.save_matrix(
            f"{base}_connectivity.sfab", htfa.connectivity_matrix(model)
        )
    if comm.rank == 0:
        for name in ("centers", "center_cov", "widths", "width_var"):
            value = np.asarray(getattr(template, name))
            data_io.save_matrix(out_dir / f"template_{name}.sfab", value.reshape(len(value), -1))
    comm.barrier()
    return (template, locals_), fit_s


def srm_local_gates(model):
    """Failures of this rank's mappings and noise variances."""
    failures = []
    worst = max(orthogonality_error(W) for W in model.W)
    if not worst <= ORTHOGONALITY_TOL:
        failures.append(f"mapping orthogonality error {worst:.2e} > {ORTHOGONALITY_TOL:.0e}")
    rho2 = np.asarray(model.rho2 if model.rho2_all is None else model.rho2_all)
    if not (np.all(np.isfinite(rho2)) and np.all(rho2 > 0)):
        failures.append("a noise variance is not finite and positive")
    return failures


def orthogonality_error(W):
    return float(np.max(np.abs(W.T @ W - np.eye(W.shape[1]))))


def mapping_digest(Ws):
    digest = hashlib.sha256()
    for W in Ws:
        digest.update(np.ascontiguousarray(W).tobytes())
    return digest.hexdigest()


def canonical_corr_min(A, B):
    """Smallest canonical correlation between the rows of two K x T matrices."""
    qa, _ = np.linalg.qr((A - A.mean(axis=1, keepdims=True)).T)
    qb, _ = np.linalg.qr((B - B.mean(axis=1, keepdims=True)).T)
    return float(np.linalg.svd(qa.T @ qb, compute_uv=False).min())


def matched_center_errors(fitted, true):
    """Distances between fitted and true centers under the best one-to-one match."""
    dist = np.linalg.norm(fitted[:, None, :] - true[None, :, :], axis=-1)
    rows, cols = linear_sum_assignment(dist)
    return dist[rows, cols]


def htfa_bound_gates(template, locals_, grid, config):
    """Failures of centers or widths that leave their bounds."""
    lo, hi = grid.bounding_box()
    w_lo, w_hi = htfa.width_bounds(grid, config)
    failures = []
    for name, centers, widths in [("template", template.centers, template.widths)] + [
        (m.subject_id, m.centers, m.widths) for m in locals_
    ]:
        if not np.all((centers >= lo) & (centers <= hi)):
            failures.append(f"{name}: a center lies outside the grid")
        if not np.all((widths >= w_lo) & (widths <= w_hi)):
            failures.append(f"{name}: a width lies outside [{w_lo:.3g}, {w_hi:.3g}]")
    return failures
