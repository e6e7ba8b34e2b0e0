"""Seeded input generators for the benchmark workloads.

They live here, not in the test suite, so that an edit to test data never
changes what the benchmark measures. Every draw comes from numpy's PCG64
keyed by (seed, stream, subject index), so subject i of a dataset does not
depend on how many subjects are drawn. The generators write ``.sfab``
subject files plus a manifest; the fitters see only those files.
"""

from pathlib import Path

import numpy as np

from factorfit import data_io

SRM_STREAM = 1
HTFA_STREAM = 2


def _rng(seed, stream, index=0):
    return np.random.default_rng([seed, stream, index])


def write_srm_dataset(out_dir, seed, n_subjects, n_voxels, n_trs, k, noise):
    """Draw subjects from the shared response model and write them out.

    Subject i is ``W_i S + mu_i + noise * E_i`` with ``W_i`` an orthonormal
    V x K basis, ``S`` a standard normal K x T shared response common to
    every subject, ``mu_i`` standard normal voxel means and ``E_i`` standard
    normal noise. Returns (manifest path, S, bytes of subject payload).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shared = _rng(seed, SRM_STREAM).standard_normal((k, n_trs))
    entries = []
    for i in range(n_subjects):
        rng = _rng(seed, SRM_STREAM, i + 1)
        basis, _ = np.linalg.qr(rng.standard_normal((n_voxels, k)))
        mu = rng.standard_normal(n_voxels)
        X = basis @ shared
        X += mu[:, None]
        X += noise * rng.standard_normal((n_voxels, n_trs))
        sid = f"sub-{i:03d}"
        path = out_dir / f"{sid}.sfab"
        data_io.save_matrix(path, X)
        entries.append(data_io.ManifestEntry(sid, path))
    manifest = data_io.Manifest(f"srm-{n_subjects}x{n_voxels}x{n_trs}", entries)
    path = data_io.write_manifest(out_dir / "manifest.json", manifest)
    return path, shared, n_subjects * n_voxels * n_trs * 8


def _separated_centers(rng, dims, k, min_separation, margin):
    """Rejection-sample K centers inside the grid, pairwise >= min_separation."""
    lo = np.full(3, margin)
    hi = np.asarray(dims, dtype=np.float64) - 1.0 - margin
    centers = []
    for _ in range(100000):
        candidate = rng.uniform(lo, hi)
        if all(np.linalg.norm(candidate - c) >= min_separation for c in centers):
            centers.append(candidate)
            if len(centers) == k:
                return np.array(centers)
    raise RuntimeError(f"could not place {k} centers {min_separation} voxels apart")


def write_htfa_dataset(
    out_dir, seed, n_subjects, dims, k, n_trs, width_range, jitter, noise,
    min_separation, margin,
):
    """Draw subjects made of K separated spherical factors and write them out.

    Factor k of subject i is ``exp(-||p - c_ik||^2 / lambda_k)`` on a regular
    grid of unit spacing, with ``c_ik`` the shared center plus ``jitter``
    voxels of normal noise per axis. Weights are ``1.5 + N(0, 1)`` per TR
    and factor; the data add ``noise`` times standard normal noise. Returns
    (manifest path, shared centers K x 3, widths K, bytes of subject payload).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axes = np.meshgrid(*(np.arange(float(d)) for d in dims), indexing="ij")
    positions = np.column_stack([a.ravel() for a in axes])
    rng = _rng(seed, HTFA_STREAM)
    centers = _separated_centers(rng, dims, k, min_separation, margin)
    widths = rng.uniform(width_range[0], width_range[1], k)
    coords_path = out_dir / "coords.sfab"
    data_io.save_matrix(coords_path, positions)
    entries = []
    for i in range(n_subjects):
        rng = _rng(seed, HTFA_STREAM, i + 1)
        local = centers + jitter * rng.standard_normal(centers.shape)
        d2 = ((positions[None, :, :] - local[:, None, :]) ** 2).sum(axis=-1)
        factors = np.exp(-d2 / widths[:, None])
        weights = 1.5 + rng.standard_normal((n_trs, k))
        X = (weights @ factors).T + noise * rng.standard_normal((positions.shape[0], n_trs))
        sid = f"sub-{i:03d}"
        path = out_dir / f"{sid}.sfab"
        data_io.save_matrix(path, X)
        entries.append(data_io.ManifestEntry(sid, path, coords_path))
    manifest = data_io.Manifest(f"htfa-{n_subjects}x{positions.shape[0]}", entries, tuple(dims))
    path = data_io.write_manifest(out_dir / "manifest.json", manifest)
    return path, centers, widths, n_subjects * positions.shape[0] * n_trs * 8
