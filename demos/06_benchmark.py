# Stage-by-stage timing of the full pipeline on a large scene: grid build +
# candidate search and component labeling on each coordinate set, descriptor
# scoring, and NMS.

import cloudinst as ci
from cloudinst.bench import STAGES, run_bench

config = ci.GenConfig(
    seed=9, room=(9.0, 9.0, 3.0), n_objects=50, density=3000.0,
    stuff_density=200.0, size_scale=(0.6, 1.0), min_gap=0.10,
)
scene, offsets = ci.generate_scene(config)
print(f"scene: {scene.n_points} points, {scene.n_instances} instances")

pipeline = ci.PipelineConfig(scorer=ci.Scorer.MODEL)
model = ci.ScorerModel.default()

result = run_bench(scene, offsets, pipeline, model=model, repeats=3)
row = "  ".join(f"{s}={result.stage_ms[s]:.1f}" for s in STAGES)
print(f"total {result.total_ms:6.1f} ms   {row}")
