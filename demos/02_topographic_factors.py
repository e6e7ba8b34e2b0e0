#!/usr/bin/env python3
"""Recovering spherical activity regions with topographic factor analysis.

Builds two subjects whose activity comes from three Gaussian "spheres"
on a 12 x 12 x 8 voxel grid, fits the hierarchical model, and compares
the recovered global template against the ground truth. Ends with the
per-subject factor connectivity matrices.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from factorfit import htfa, trf
from factorfit.collectives import SerialCommunicator
from factorfit.data_io import SubjectData
from factorfit.kernels import VoxelGrid, rbf_factor_matrix

rng = np.random.default_rng(11)

# ----------------------------------------------------------------------
# 1. Three well-separated factors on a regular grid. Each subject gets
#    slightly perturbed copies of the template centers (that is the
#    hierarchical assumption) plus noise.
# ----------------------------------------------------------------------
axes = np.meshgrid(np.arange(12.0), np.arange(12.0), np.arange(8.0), indexing="ij")
grid = VoxelGrid.from_positions(np.column_stack([a.ravel() for a in axes]))

true_centers = np.array([[2.5, 2.5, 2.0], [9.0, 9.0, 5.5], [9.0, 2.5, 2.0]])
true_widths = np.array([4.0, 5.0, 3.5])
n_trs = 50

subjects = []
for i in range(2):
    local_centers = true_centers + 0.15 * rng.standard_normal((3, 3))
    F = rbf_factor_matrix(local_centers, true_widths, grid)
    weights = rng.standard_normal((n_trs, 3)) + 2.0
    X = (weights @ F).T + 1e-3 * rng.standard_normal((grid.n_voxels, n_trs))
    subjects.append(SubjectData(f"subject-{i}", X, grid))

print(f"grid: {grid.axis_counts}, {grid.n_voxels} voxels, diameter {grid.diameter}")

# ----------------------------------------------------------------------
# 2. Fit. Subsampling keeps each least-squares block solve small; the
#    template is re-estimated from the gathered local factors after
#    every outer sweep.
# ----------------------------------------------------------------------
config = htfa.HtfaConfig(
    k=3,
    outer_iterations=5,
    local_iterations=4,
    nlls=trf.TrfConfig(max_iterations=25),
)
plan = htfa.SubsamplePlan(max_voxels=300, max_trs=25, seed=5)
template, locals_ = htfa.fit(subjects, config, plan, SerialCommunicator())

# ----------------------------------------------------------------------
# 3. Match recovered template factors to the truth (the model is
#    permutation invariant, so match before comparing).
# ----------------------------------------------------------------------
cost = cdist(template.centers, true_centers)
rows, cols = linear_sum_assignment(cost)
print("recovered template centers (matched):")
for r, c in zip(rows, cols):
    print(f"  factor {r}: {np.round(template.centers[r], 2)} "
          f"vs truth {true_centers[c]}  (error {cost[r, c]:.2f} voxels)")
print(f"recovered widths: {np.round(template.widths, 2)} vs truth {true_widths}")

# ----------------------------------------------------------------------
# 4. Factor networks: correlations between the weight time courses.
# ----------------------------------------------------------------------
for model in locals_:
    conn = htfa.connectivity_matrix(model)
    print(f"{model.subject_id} connectivity:\n{np.round(conn, 3)}")
