"""Wall-clock benchmark of the inference pipeline, broken down by stage:
on each coordinate set, building the grid and testing point pairs (``bq_p``,
``bq_q``) and merging components into clusters (``cl_p``, ``cl_q``); then
scoring and NMS.  The stage times are the pipeline's spans, summed by one
``trace.recording()`` around the measured runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import OffsetField, Scene, check, is_int
from .pipeline import PipelineConfig, run_pipeline
from .scoring import ScorerModel
from .trace import recording

STAGES = ("bq_p", "cl_p", "bq_q", "cl_q", "scoring", "nms")


@dataclass(frozen=True)
class BenchResult:
    """Per-stage mean times (ms) over the measured repeats."""

    stage_ms: dict
    total_ms: float
    repeats: int
    n_points: int
    n_predictions: int

    def row(self) -> list[float]:
        return [self.stage_ms.get(s, 0.0) for s in STAGES]


def run_bench(
    scene: Scene,
    offsets: OffsetField,
    config: PipelineConfig,
    model: ScorerModel | None = None,
    repeats: int = 3,
) -> BenchResult:
    """Run the pipeline ``repeats`` times (after one unmeasured warm-up) and
    average per-stage wall times from a monotonic clock.
    """
    check("repeats", repeats, lambda n: is_int(n) and n >= 1, "an integer >= 1")
    run_pipeline(scene, offsets, config, model=model)

    with recording() as spans:
        t0 = time.perf_counter()
        for _ in range(repeats):
            preds = run_pipeline(scene, offsets, config, model=model)
        total = time.perf_counter() - t0
    return BenchResult(
        stage_ms={s: 1000.0 * spans.get(s, 0.0) / repeats for s in STAGES},
        total_ms=1000.0 * total / repeats,
        repeats=repeats,
        n_points=scene.n_points,
        n_predictions=len(preds),
    )
