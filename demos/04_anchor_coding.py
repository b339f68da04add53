#!/usr/bin/env python3
"""Local coordinate coding on a 2-D point cloud you can reason about.

Shows the soft coefficients, the reconstruction, the localization measure,
and what fitting does to a two-cluster dataset.

Run:  python3 demos/04_anchor_coding.py
"""

import numpy as np

from refnet.lcc import (fit_anchors, init_score, lcc_weights,
                        localization_measures, reconstruct)
from refnet.training import TrainConfig

rng = np.random.default_rng(0)
# the stage's measure weights; a full-batch fit of 600 iterations whose
# step size decays by 0.998 per iteration
L_ALPHA, L_BETA = 1.0, 0.01


def fit_config(n_anchors):
    return TrainConfig(n_anchors=n_anchors, l_alpha=L_ALPHA, l_beta=L_BETA,
                       fit_iters=600, fit_lr_decay=0.998, fit_batch=0, seed=0)


print("=== coefficients are a softmax over tri-nonlinear scores ===")
anchors = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
score = init_score(d_v=2, d_att=4, rng=rng)  # (W, U, V, v)
x = np.array([[1.0, 1.0]])  # a batch of one point
gamma = lcc_weights(x, anchors, score)
recon = reconstruct(gamma, anchors)
print(f"x        = {x[0]}")
print(f"gamma    = {np.round(gamma.data[0], 4)} (sums to {gamma.data.sum():.10f})")
print(f"recon    = {np.round(recon.data[0], 4)} (convex combination of anchors)")
measure = localization_measures(x, anchors, score, L_ALPHA, L_BETA)
print(f"measure  = {float(measure.data[0]):.4f} "
      "(reconstruction error + weighted anchor spread)")

print("\n=== fitting anchors to two clusters ===")
data = np.concatenate([rng.normal(0.0, 0.5, size=(160, 2)),
                       rng.normal(10.0, 0.5, size=(40, 2))])
for n_anchors in (1, 2, 4):
    fit = fit_anchors(data, fit_config(n_anchors))
    print(f"|C|={n_anchors}: measure {fit.initial_measure:7.3f} -> "
          f"{fit.final_measure:7.3f}   anchors at "
          f"{np.round(fit.points, 2).tolist()}")

print("\nWith one anchor the best it can do is sit near the big cluster "
      "(the geometric median);")
print("with two, the coefficients learn to pick the right cluster "
      "per point, and the measure collapses.")

fit = fit_anchors(data, fit_config(2))
bound = float(np.mean(localization_measures(data[:50], fit.points, fit.score,
                                            L_ALPHA, L_BETA).data))
print(f"\nmean approximation-error bound over 50 points after fitting: "
      f"{bound:.3f}")
