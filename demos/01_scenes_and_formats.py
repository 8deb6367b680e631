# Generate a synthetic room, inspect it, and round-trip it through the
# text formats. Run from the repo root: python demos/01_scenes_and_formats.py

import numpy as np

import cloudinst as ci

# a small room: 4 objects on a floor with walls, oracle labels and offsets
config = ci.GenConfig(seed=7, n_objects=4, density=1500.0, stuff_density=40.0)
scene, offsets = ci.generate_scene(config)

print(f"points:     {scene.n_points}")
print(f"instances:  {scene.n_instances}")
print(f"classes:    {sorted(set(scene.sem_labels.tolist()))} (stuff = {sorted(scene.stuff_classes)})")

# every instance point carries an offset vector that lands on its centroid
q = ci.shifted_coords(scene, offsets)
cents = ci.instance_centroids(scene)
on_inst = scene.inst_ids >= 0
spread = np.linalg.norm(q[on_inst] - cents[scene.inst_ids[on_inst]], axis=1)
print(f"max distance of shifted points to their centroid: {spread.max():.2e} m")

# distances from points to their instance centroids concentrate well below 1 m
hist = ci.distance_histogram(scene)
print("distance histogram (0.1 m bins):", np.round(hist[:6], 3), "...")

# save and re-load: the text formats round-trip exactly
ci.save_scene(scene, "/tmp/demo_scene.sc1")
ci.save_offsets(offsets, "/tmp/demo_scene.off1")
back = ci.load_scene("/tmp/demo_scene.sc1")
print("round-trip equal:", ci.scenes_equal(scene, back))

# color the ground-truth instances into a PLY you can open in any viewer
preds = [
    ci.InstancePrediction(point_idx=g.point_idx, class_id=g.class_id, score=1.0)
    for g in ci.ground_truth_instances(scene)
]
ci.export_ply(scene, preds, "/tmp/demo_scene.ply")
print("wrote /tmp/demo_scene.sc1, .off1 and .ply")
