# The training-loss kernels: semantic cross entropy, L1 offset regression,
# offset direction (negative cosine), score BCE, and the combined total,
# with analytic gradients verified by central differences.

import numpy as np

import cloudinst as ci
from cloudinst.losses import offset_objective
from cloudinst.scoring import score_loss, soft_labels

scene, oracle = ci.generate_scene(
    ci.GenConfig(seed=1, n_objects=3, density=500.0, stuff_density=10.0)
)

# oracle predictions hit the analytic anchors
print("regression loss at oracle offsets: ", ci.offset_regression_loss(oracle, scene))
print("direction loss at oracle offsets:  ", ci.offset_direction_loss(oracle, scene))
print("semantic loss at one-hot scores:   ",
      ci.semantic_loss(scene.sem_scores, scene.sem_labels))

# noisy offsets move both losses off their optimum; direction only cares
# about where the vectors point, not how long they are
noisy = ci.perturb_offsets(oracle, scene, sigma0=0.05, beta=1.0, seed=0)
reg = ci.offset_regression_loss(noisy, scene)
direc = ci.offset_direction_loss(noisy, scene)
scaled = ci.OffsetField(np.asarray(noisy.offsets) * 7.0)
print(f"noisy offsets: reg = {reg:.4f}, dir = {direc:.4f}")
print(f"scaled x7:     reg = {ci.offset_regression_loss(scaled, scene):.4f}, "
      f"dir = {ci.offset_direction_loss(scaled, scene):.4f} (unchanged)")

# score BCE against soft labels derived from cluster IoU; its minimum over
# the scores sits exactly at the targets (value = mean target entropy)
ious = np.array([0.1, 0.5, 0.9])
soft = soft_labels(ious)
print("soft labels for IoUs 0.1/0.5/0.9:", soft)
print("BCE at its minimum (s = targets):", score_loss(soft.clip(1e-6, 1 - 1e-6), ious))

# analytic gradients agree with central differences
n = scene.n_points
rng = np.random.default_rng(0)
base = rng.uniform(0.05, 0.4, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
direction_objective = offset_objective(
    scene, ci.offset_direction_loss, ci.offset_direction_grad
)
err = ci.gradient_check(direction_objective, base.ravel())
print(f"direction-loss gradient max relative error: {err:.2e}")

report = ci.total_loss(0.9, 0.2, -0.8, 0.4)
print(f"total loss report: {report.total} = sum of the four terms")
