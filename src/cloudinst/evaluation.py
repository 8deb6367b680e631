"""Instance-segmentation metrics: AP at fixed IoU thresholds, AP averaged
over 0.50:0.05:0.95, and score-filtered precision/recall at 0.5.

Matching is greedy per class: predictions in descending score order each
claim the highest-IoU unmatched ground-truth instance of their class when
that IoU clears the threshold.  AP uses all-point interpolation (area under
the precision envelope).  Classes without ground truth are excluded from
every mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroundTruthInstance,
    InstancePrediction,
    Scene,
    check,
    check_predictions,
    ground_truth_instances,
)
from .scoring import family_iou

AP_THRESHOLDS = tuple(np.arange(50, 100, 5) / 100.0)  # 0.50 ... 0.95
PR_SCORE_FILTER = 0.2


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome for one class at one IoU threshold.

    ``pred_order`` holds indices into the evaluated prediction list (class
    members, sorted for matching); ``matched_gt[i]`` is the matched
    ground-truth index or -1; precision/recall are cumulative curves.
    """

    pred_order: np.ndarray
    matched_gt: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    n_gt: int


def match_and_pr(
    preds: list[InstancePrediction],
    gt: list[GroundTruthInstance],
    class_id: int,
    iou_thresh: float,
) -> MatchResult:
    """Match one class's predictions to its ground truth and build the PR
    curve.  The instances must be disjoint, as those of a scene are
    (``family_iou``)."""
    return _greedy_match(*_class_ious(preds, gt, _ious(preds, gt), class_id), iou_thresh)


def _ious(preds: list[InstancePrediction], gt: list[GroundTruthInstance]) -> np.ndarray:
    """IoU matrix of every prediction against every ground-truth instance."""
    return family_iou([p.point_idx for p in preds], [g.point_idx for g in gt])


def _class_ious(preds, gt, ious: np.ndarray, class_id: int) -> tuple[list[int], list[int], np.ndarray]:
    """One class's predictions in matching order, its ground-truth indices,
    and their block of ``ious``, the matrix of ``_ious(preds, gt)``."""
    cls = [k for k, p in enumerate(preds) if p.class_id == class_id]
    # descending score; ties: larger mask, then order of appearance
    order = sorted(cls, key=lambda k: (-preds[k].score, -preds[k].size, k))
    gt_cls = [k for k, g in enumerate(gt) if g.class_id == class_id]
    return order, gt_cls, ious[np.ix_(order, gt_cls)]


def _greedy_match(
    order: list[int], gt_cls: list[int], ious: np.ndarray, iou_thresh: float
) -> MatchResult:
    """Greedy matching of predictions ``order`` (best first) to ground truth
    ``gt_cls``, given their (len(order), len(gt_cls)) IoU matrix."""
    n_gt = len(gt_cls)
    taken = np.zeros(n_gt, dtype=bool)
    matched = np.full(len(order), -1, dtype=np.int64)
    tp = np.zeros(len(order), dtype=np.float64)
    for i in range(len(order)):
        if n_gt:
            row = np.where(taken, -1.0, ious[i])
            best = int(np.argmax(row))
            if row[best] >= iou_thresh:
                taken[best] = True
                matched[i] = gt_cls[best]
                tp[i] = 1.0
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(order) + 1, dtype=np.float64)
    precision = cum_tp / ranks
    recall = cum_tp / n_gt if n_gt else np.zeros(len(order))
    return MatchResult(
        pred_order=np.asarray(order, dtype=np.int64),
        matched_gt=matched,
        precision=precision,
        recall=recall,
        n_gt=n_gt,
    )


def average_precision(precision: np.ndarray, recall: np.ndarray) -> float:
    """All-point interpolated AP: sum of recall steps times the precision
    envelope to the right of each step.  Empty curves give 0."""
    precision = np.asarray(precision, dtype=np.float64)
    recall = np.asarray(recall, dtype=np.float64)
    if precision.size == 0:
        return 0.0
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


@dataclass(frozen=True)
class EvalResult:
    """Per-class and aggregate metrics.

    ``ap[c][t]`` is class c's AP at IoU threshold t, so its AP50 is
    ``ap[c][0.5]`` and its AP25 ``ap[c][0.25]``; ``ap_classwise[c]`` is its
    mean over ``AP_THRESHOLDS``.  Aggregates are class means.  ``matches50``
    maps each class to (prediction index, matched gt index or -1) pairs at
    threshold 0.5.
    """

    classes: tuple[int, ...]
    thresholds: tuple[float, ...]
    ap: dict
    ap_classwise: dict
    prec50_classwise: dict
    rec50_classwise: dict
    map: float
    ap50: float
    ap25: float
    mprec50: float
    mrec50: float
    matches50: dict


def evaluate(
    preds: list[InstancePrediction],
    scene: Scene,
    score_filter: float = PR_SCORE_FILTER,
) -> EvalResult:
    """Score predictions against the scene's ground-truth instances.

    AP integrates over all predictions at each of ``AP_THRESHOLDS`` and at
    0.25; the score filter applies only to the precision/recall numbers
    (mPrec50/mRec50), and must lie in [0, 1].
    """
    check("score_filter", score_filter, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
    gt = ground_truth_instances(scene)
    if not gt:
        raise ValueError("scene has no ground-truth instances to evaluate against")
    check_predictions(scene, preds)
    classes = tuple(sorted({g.class_id for g in gt}))
    all_thresholds = AP_THRESHOLDS + (0.25,)

    ap: dict = {c: {} for c in classes}
    matches50: dict = {}
    prec50: dict = {}
    rec50: dict = {}
    # one IoU matrix serves every class and every threshold
    all_ious = _ious(preds, gt)
    for c in classes:
        order, gt_cls, ious = _class_ious(preds, gt, all_ious, c)
        for t in all_thresholds:
            res = _greedy_match(order, gt_cls, ious, t)
            ap[c][t] = average_precision(res.precision, res.recall)
            if t == 0.5:
                matches50[c] = list(zip(res.pred_order.tolist(), res.matched_gt.tolist()))
                # the score filter keeps a prefix of the descending order, and
                # greedy matching is online: its matching is this one's prefix
                n_pred = sum(preds[k].score >= score_filter for k in order)
                n_tp = int((res.matched_gt[:n_pred] >= 0).sum())
                prec50[c] = n_tp / n_pred if n_pred else 0.0
                rec50[c] = n_tp / res.n_gt

    ap_classwise = {c: float(np.mean([ap[c][t] for t in AP_THRESHOLDS])) for c in classes}
    return EvalResult(
        classes=classes,
        thresholds=all_thresholds,
        ap=ap,
        ap_classwise=ap_classwise,
        prec50_classwise=prec50,
        rec50_classwise=rec50,
        map=float(np.mean(list(ap_classwise.values()))),
        ap50=float(np.mean([ap[c][0.5] for c in classes])),
        ap25=float(np.mean([ap[c][0.25] for c in classes])),
        mprec50=float(np.mean(list(prec50.values()))),
        mrec50=float(np.mean(list(rec50.values()))),
        matches50=matches50,
    )
