"""Score-ranked non-maximum suppression and the end-to-end inference driver
from (scene, offsets) to instance predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterParams, cluster_dual_set
from .core import Cluster, InstancePrediction, OffsetField, Scene, Source, check
from .scoring import Scorer, ScorerModel, check_scorer_inputs, family_iou, score_clusters
from .trace import span

# PipelineConfig.cluster_sets -> the coordinate sets clustered
_SOURCES = {"p": (Source.ORIGINAL,), "q": (Source.SHIFTED,), "both": (Source.ORIGINAL, Source.SHIFTED)}


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full clustering -> scoring -> NMS pipeline.

    ``cluster_sets`` selects which coordinate sets feed clustering: "both"
    (the default), or "p"/"q" alone for ablations.
    """

    cluster_params: ClusterParams = field(default_factory=ClusterParams)
    scorer: Scorer = Scorer.MODEL
    nms_iou: float = 0.3
    min_score: float | None = None
    cluster_sets: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "scorer", Scorer(self.scorer))
        check("nms_iou", self.nms_iou, lambda x: 0.0 < x <= 1.0, "in (0, 1]")  # as nms
        if self.min_score is not None:
            check("min_score", self.min_score, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
        if self.cluster_sets not in _SOURCES:
            raise ValueError(f"cluster_sets must be 'p', 'q' or 'both', got {self.cluster_sets!r}")


def nms(clusters: list[Cluster], scores: np.ndarray, iou_thresh: float) -> list[int]:
    """Greedy non-maximum suppression over scored clusters.

    Clusters are visited in descending score (ties: ORIGINAL source first,
    then lower minimum point index); a cluster is kept only if its IoU with
    every already-kept cluster stays below ``iou_thresh``.  Returns indices
    into ``clusters`` in kept order.  ``iou_thresh`` must lie in (0, 1] and
    every score must be finite, since NaN has no place in that order.  The
    clusters of one source must be disjoint, as every ``cluster_single_set``
    output is; overlapping ones raise ValueError.
    """
    # at 0 or NaN NMS would keep only the first cluster, above 1 every one
    check("nms_iou", iou_thresh, lambda x: 0.0 < x <= 1.0, "in (0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(clusters),):
        raise ValueError(f"got {len(clusters)} clusters but {scores.size} scores")
    if not np.isfinite(scores).all():
        k = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise ValueError(f"cluster {k} has a non-finite score: {scores[k]}")
    if not clusters:
        return []
    order = sorted(
        range(len(clusters)),
        key=lambda k: (-scores[k], clusters[k].source.value, clusters[k].min_index),
    )
    # each source is a disjoint family: within it the IoU is 1 on the
    # diagonal and 0 elsewhere, and each is the family of the other's rows
    masks = [c.point_idx for c in clusters]
    sets = [[k for k, c in enumerate(clusters) if c.source == source] for source in Source]
    ious = np.eye(len(clusters))
    for rows, cols in (sets, sets[::-1]):
        ious[np.ix_(rows, cols)] = family_iou([masks[k] for k in rows], [masks[k] for k in cols])
    kept: list[int] = []
    for k in order:
        if not kept or bool((ious[k, kept] < iou_thresh).all()):
            kept.append(k)
    return kept


def run_pipeline(
    scene: Scene,
    offsets: OffsetField,
    config: PipelineConfig,
    model: ScorerModel | None = None,
) -> list[InstancePrediction]:
    """Cluster, score, suppress, and emit final instance predictions.

    Each prediction carries its cluster's semantic class and the score it
    won NMS with.  Deterministic for fixed inputs and config.  Offsets that
    do not cover the scene and inputs the scorer lacks raise before any
    clustering.  Scoring and NMS run in the spans ``scoring`` and ``nms``;
    see ``trace``.
    """
    return _predict(scene, offsets, config, model, cluster_dual_set)


def _predict(scene, offsets, config, model, cluster) -> list[InstancePrediction]:
    """``run_pipeline`` with ``cluster``, called as ``cluster_dual_set`` is, in its place."""
    check_scorer_inputs(config.scorer, scene, model)
    clusters = cluster(scene, offsets, config.cluster_params, _SOURCES[config.cluster_sets])

    with span("scoring"):
        scores = score_clusters(clusters, scene, offsets, config.scorer, model=model)
    with span("nms"):
        kept = nms(clusters, scores, config.nms_iou)

    preds = []
    for k in kept:
        if config.min_score is not None and scores[k] < config.min_score:
            continue
        preds.append(
            InstancePrediction(
                point_idx=clusters[k].point_idx,
                class_id=clusters[k].class_id,
                score=float(np.clip(scores[k], 0.0, 1.0)),
            )
        )
    return preds
