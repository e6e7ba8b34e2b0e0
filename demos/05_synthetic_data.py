#!/usr/bin/env python3
"""Growing a dataset by permutation: the synthetic subject generator.

Starting from a couple of real (here: simulated) seed subjects, new
subjects are assembled by copying spatial partitions from randomly
chosen seeds and shuffling each partition along time with one shared
permutation. Spatial structure inside a partition survives; temporal
alignment across partitions is destroyed -- which is exactly what a
scaling benchmark wants. The generator is pinned to a portable RNG, so
the same seed yields the same bytes on any machine.
"""

import tempfile
from pathlib import Path

import numpy as np

from factorfit.data_io import (
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_matrix,
    load_subject,
    save_matrix,
    write_manifest,
    Manifest,
    ManifestEntry,
)
from factorfit.kernels import VoxelGrid

with tempfile.TemporaryDirectory(prefix="factorfit-demo-") as tmp:
    workdir = Path(tmp)
    rng = np.random.default_rng(0)

    # ----------------------------------------------------------------------
    # 1. Two seed subjects on an 8 x 8 x 4 grid, 30 TRs each.
    # ----------------------------------------------------------------------
    axes = np.meshgrid(np.arange(8.0), np.arange(8.0), np.arange(4.0), indexing="ij")
    grid = VoxelGrid.from_positions(np.column_stack([a.ravel() for a in axes]))
    seed_dir = workdir / "seed"
    seed_dir.mkdir()
    save_matrix(seed_dir / "coords.sfab", grid.positions)
    entries = []
    for i in range(2):
        X = rng.standard_normal((grid.n_voxels, 30)) + 3.0 * i  # distinguishable
        save_matrix(seed_dir / f"seed-{i}.sfab", X)
        entries.append(
            ManifestEntry(f"seed-{i}", seed_dir / f"seed-{i}.sfab", seed_dir / "coords.sfab")
        )
    seed_manifest = write_manifest(
        seed_dir / "manifest.json", Manifest("seeds", entries, grid.axis_counts)
    )
    print(f"seed dataset: 2 subjects, {grid.n_voxels} voxels, 30 TRs")

    # ----------------------------------------------------------------------
    # 2. Generate six synthetic subjects with 4 x 4 x 2 partitions.
    # ----------------------------------------------------------------------
    spec = SynthSpec(seed_manifest, n_subjects=6, partition_dims=(4, 4, 2), base_seed=99)
    out = generate_synthetic(spec, workdir / "synthetic")
    print(f"generated: {[e.subject_id for e in out.subjects]}")

    # ----------------------------------------------------------------------
    # 3. Inspect one subject: every partition's rows must be a TR-shuffled
    #    copy of the same partition of SOME seed subject.
    # ----------------------------------------------------------------------
    Xatlas = [load_matrix(e.data_path) for e in load_manifest(seed_manifest).subjects]
    seed_data = [load_matrix(e.data_path) for e in load_manifest(seed_manifest).subjects]
    X_synth = load_matrix(out.subjects[0].data_path)
    block_ids = [tuple(b) for b in grid.voxel_axis_index // np.array([4, 4, 2])]
    sources = []
    for key in sorted(set(block_ids)):
        members = np.array([i for i, b in enumerate(block_ids) if b == key])
        sorted_rows = np.sort(X_synth[members], axis=1)
        match = next(
            j
            for j, seed_X in enumerate(seed_data)
            if np.array_equal(sorted_rows, np.sort(seed_X[members], axis=1))
        )
        sources.append(match)
    print(f"partition source subjects for synth-0001: {sources}")

    # ----------------------------------------------------------------------
    # 4. Determinism: regenerate and compare raw bytes.
    # ----------------------------------------------------------------------
    again = generate_synthetic(spec, workdir / "again")
    identical = all(
        a.data_path.read_bytes() == b.data_path.read_bytes()
        for a, b in zip(out.subjects, again.subjects)
    )
    print(f"regeneration byte-identical: {identical}")

    # The output is itself a normal dataset:
    subject = load_subject(out.subjects[0].data_path, out.subjects[0].coords_path)
    print(f"loaded back: {subject.subject_id} with grid {subject.grid.axis_counts}")
