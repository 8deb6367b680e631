# Fixed-radius neighbor search on a uniform grid, and the label-constrained
# clustering built on it, checked against the brute-force oracle.

import numpy as np

import cloudinst as ci
from cloudinst.clustering import connected_components_oracle
from cloudinst.core import Source

rng = np.random.default_rng(0)
coords = rng.uniform(0, 1, (5000, 3)).astype(np.float32)

# the grid gives exactly the same answer as scanning every point
index = ci.build_index(coords, radius=0.05)
center = 123
fast = ci.ball_query(index, center)
slow = ci.brute_force_query(coords, center, 0.05)
print(f"neighbors of point {center}: {fast.size} (grid == brute force: {np.array_equal(fast, slow)})")

# clustering groups same-label points connected by sub-radius hops
labels = rng.integers(0, 3, 5000).astype(np.int32)
params = ci.ClusterParams(radius=0.05, min_points=5)
clusters = ci.cluster_single_set(coords, labels, {0}, params, Source.ORIGINAL)
oracle = connected_components_oracle(coords, labels, {0}, params)
same = {tuple(c.point_idx.tolist()) for c in clusters} == {
    tuple(c.point_idx.tolist()) for c in oracle
}
print(f"clusters: {len(clusters)} (matches O(N^2) oracle: {same})")
sizes = sorted((c.size for c in clusters), reverse=True)
print("largest cluster sizes:", sizes[:8])

# a chain of points demonstrates the breadth-first transitivity: the two
# endpoints are farther than the radius apart but still share a cluster
chain = np.array([[0, 0, 0], [0.025, 0, 0], [0.05, 0, 0]], dtype=np.float32)
out = ci.cluster_single_set(
    chain, np.ones(3, dtype=np.int32), set(), ci.ClusterParams(0.03, 1),
    Source.ORIGINAL,
)
print("chain of 3 points at 0.025 m spacing, radius 0.03:", out[0].point_idx.tolist())
