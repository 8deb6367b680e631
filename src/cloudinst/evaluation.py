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
    check_predictions,
    ground_truth_instances,
)
from .scoring import pairwise_iou

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


def _class_pred_order(preds: list[InstancePrediction], class_id: int) -> list[int]:
    cls = [k for k, p in enumerate(preds) if p.class_id == class_id]
    # descending score; ties: larger mask, then order of appearance
    return sorted(cls, key=lambda k: (-preds[k].score, -preds[k].size, k))


def match_and_pr(
    preds: list[InstancePrediction],
    gt: list[GroundTruthInstance],
    class_id: int,
    iou_thresh: float,
) -> MatchResult:
    """Match one class's predictions to its ground truth and build the PR curve."""
    order, gt_cls, ious = _class_ious(preds, gt, class_id)
    return _greedy_match(order, gt_cls, ious, iou_thresh)


def _class_ious(
    preds: list[InstancePrediction],
    gt: list[GroundTruthInstance],
    class_id: int,
) -> tuple[list[int], list[int], np.ndarray]:
    """One class's predictions in matching order, its ground-truth indices,
    and the IoU matrix between them."""
    order = _class_pred_order(preds, class_id)
    gt_cls = [k for k, g in enumerate(gt) if g.class_id == class_id]
    ious = pairwise_iou([preds[k].point_idx for k in order], [gt[k].point_idx for k in gt_cls])
    return order, gt_cls, ious


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

    ``ap[c][t]`` is class c's AP at IoU threshold t; aggregates are class
    means.  ``matches50`` maps each class to (prediction index, matched gt
    index or -1) pairs at threshold 0.5.
    """

    classes: tuple[int, ...]
    thresholds: tuple[float, ...]
    ap: dict
    ap_classwise: dict
    ap50_classwise: dict
    ap25_classwise: dict
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
    (mPrec50/mRec50).
    """
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
    for c in classes:
        # one IoU matrix per class serves every threshold and the filtered
        # pass: the score filter keeps a subsequence of the class order
        order, gt_cls, ious = _class_ious(preds, gt, c)
        for t in all_thresholds:
            res = _greedy_match(order, gt_cls, ious, t)
            ap[c][t] = average_precision(res.precision, res.recall)
            if t == 0.5:
                matches50[c] = list(
                    zip(res.pred_order.tolist(), res.matched_gt.tolist())
                )
        kept = [i for i, k in enumerate(order) if preds[k].score >= score_filter]
        resf = _greedy_match([order[i] for i in kept], gt_cls, ious[kept], 0.5)
        n_pred = resf.pred_order.size
        n_tp = int((resf.matched_gt >= 0).sum())
        prec50[c] = n_tp / n_pred if n_pred else 0.0
        rec50[c] = n_tp / resf.n_gt if resf.n_gt else 0.0

    ap_classwise = {c: float(np.mean([ap[c][t] for t in AP_THRESHOLDS])) for c in classes}
    ap50_classwise = {c: ap[c][0.5] for c in classes}
    ap25_classwise = {c: ap[c][0.25] for c in classes}
    return EvalResult(
        classes=classes,
        thresholds=all_thresholds,
        ap=ap,
        ap_classwise=ap_classwise,
        ap50_classwise=ap50_classwise,
        ap25_classwise=ap25_classwise,
        prec50_classwise=prec50,
        rec50_classwise=rec50,
        map=float(np.mean(list(ap_classwise.values()))),
        ap50=float(np.mean(list(ap50_classwise.values()))),
        ap25=float(np.mean(list(ap25_classwise.values()))),
        mprec50=float(np.mean(list(prec50.values()))),
        mrec50=float(np.mean(list(rec50.values()))),
        matches50=matches50,
    )
