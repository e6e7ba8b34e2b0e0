"""Deterministic synthetic datasets shared by the test suite.

``make_bundled_dataset`` is the canonical 4-subject set used for the
backend-equivalence checks: model-generated shared-response data on a
small grid, with coordinates, written out as subject files plus a
manifest. ``traced_peak`` measures the memory contracts.
"""

import tracemalloc
from pathlib import Path

import numpy as np

from factorfit.data_io import Manifest, ManifestEntry, save_matrix, write_manifest
from factorfit.kernels import VoxelGrid, polar_orthogonal, rbf_factor_matrix


def traced_peak(fn, *args):
    """Peak bytes traced above the level at entry while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def cuboid_grid(nx, ny, nz):
    axes = np.meshgrid(
        np.arange(float(nx)), np.arange(float(ny)), np.arange(float(nz)), indexing="ij"
    )
    pos = np.column_stack([a.ravel() for a in axes])
    return VoxelGrid.from_positions(pos)


def srm_subjects(n_subjects=4, n_voxels=60, n_trs=20, k=3, noise=1e-3, seed=123):
    """Draw subjects from the shared-response generative model."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((k, n_trs))
    data = []
    for _ in range(n_subjects):
        W = polar_orthogonal(rng.standard_normal((n_voxels, k)))
        mu = rng.standard_normal(n_voxels)
        X = W @ shared + mu[:, None] + noise * rng.standard_normal((n_voxels, n_trs))
        data.append(X)
    return data, shared


def blob_subjects(
    n_subjects=2,
    grid_dims=(12, 12, 8),
    k=3,
    n_trs=40,
    jitter=0.15,
    noise=1e-3,
    seed=321,
):
    """Subjects sharing well-separated spherical factors, lightly perturbed.

    Returns (list of X, grid, true_centers, true_widths).
    """
    rng = np.random.default_rng(seed)
    grid = cuboid_grid(*grid_dims)
    lo, hi = grid.bounding_box()
    span = hi - lo
    # well separated: corners and center of the box
    anchors = np.array(
        [
            lo + 0.22 * span,
            hi - 0.22 * span,
            lo + np.array([0.75, 0.25, 0.5]) * span,
            lo + np.array([0.25, 0.75, 0.5]) * span,
            lo + 0.5 * span,
        ]
    )
    centers = anchors[:k]
    widths = rng.uniform(3.0, 5.0, k)
    data = []
    for _ in range(n_subjects):
        local_centers = centers + jitter * rng.standard_normal((k, 3))
        F = rbf_factor_matrix(local_centers, widths, grid)
        W = rng.standard_normal((n_trs, k)) + 2.0
        X = (W @ F).T + noise * rng.standard_normal((grid.n_voxels, n_trs))
        data.append(X)
    return data, grid, centers, widths


def scattered_blob_subjects(
    n_subjects=2,
    grid_dims=(20, 20, 12),
    k=8,
    n_trs=150,
    min_separation=6.5,
    jitter=0.3,
    noise=0.05,
    seed=0,
):
    """Subjects sharing k spherical factors at random, well-separated centers.

    Centers are rejection-sampled at least ``min_separation`` voxels apart
    and 2 voxels inside the grid, widths drawn from [10, 20] voxel^2 and
    weights from 1.5 + N(0, 1), so factors overlap more than in
    :func:`blob_subjects`. Returns (list of X, grid, true_centers,
    true_widths).
    """
    rng = np.random.default_rng(seed)
    grid = cuboid_grid(*grid_dims)
    lo, hi = grid.bounding_box()
    centers = np.empty((0, 3))
    while len(centers) < k:
        candidate = rng.uniform(lo + 2.0, hi - 2.0)
        if np.all(np.linalg.norm(centers - candidate, axis=1) >= min_separation):
            centers = np.vstack([centers, candidate])
    widths = rng.uniform(10.0, 20.0, k)
    data = []
    for _ in range(n_subjects):
        F = rbf_factor_matrix(centers + jitter * rng.standard_normal((k, 3)), widths, grid)
        W = rng.standard_normal((n_trs, k)) + 1.5
        X = (W @ F).T + noise * rng.standard_normal((grid.n_voxels, n_trs))
        data.append(X)
    return data, grid, centers, widths


def write_dataset(out_dir, matrices, grid=None, name="testset"):
    """Write subject matrices (and optional shared coords) plus a manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    coords_path = None
    if grid is not None:
        coords_path = out_dir / "coords.sfab"
        save_matrix(coords_path, grid.positions)
    entries = []
    for i, X in enumerate(matrices):
        sid = f"sub-{i:02d}"
        data_path = out_dir / f"{sid}.sfab"
        save_matrix(data_path, X)
        entries.append(ManifestEntry(sid, data_path, coords_path))
    manifest = Manifest(
        name, entries, grid.axis_counts if grid is not None else None
    )
    return write_manifest(out_dir / "manifest.json", manifest)


def make_bundled_dataset(out_dir):
    """The canonical 4-subject dataset for backend-equivalence checks.

    SRM-style generative data placed on a 5x4x3 grid so the same files
    also feed topographic fits.
    """
    grid = cuboid_grid(5, 4, 3)
    matrices, _ = srm_subjects(
        n_subjects=4, n_voxels=grid.n_voxels, n_trs=20, k=3, seed=2024
    )
    return write_dataset(out_dir, matrices, grid, name="bundled-4")
