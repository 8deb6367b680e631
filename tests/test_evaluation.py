import numpy as np
import pytest

from cloudinst import evaluation
from cloudinst.clustering import ClusterParams
from cloudinst.core import GroundTruthInstance, InstancePrediction, ground_truth_instances
from cloudinst.evaluation import average_precision, evaluate, match_and_pr
from cloudinst.pipeline import PipelineConfig, run_pipeline
from cloudinst.scoring import Scorer
from cloudinst.synth import GenConfig, generate_sample, generate_scene

from conftest import make_scene


def pred(idx, cls=1, score=1.0):
    return InstancePrediction(point_idx=np.asarray(idx), class_id=cls, score=score)


def gt(idx, cls=1):
    return GroundTruthInstance(point_idx=np.asarray(idx), class_id=cls)


def test_single_perfect_prediction_curve():
    res = match_and_pr([pred([0, 1, 2])], [gt([0, 1, 2])], class_id=1, iou_thresh=0.5)
    assert res.precision.tolist() == [1.0]
    assert res.recall.tolist() == [1.0]
    assert res.matched_gt.tolist() == [0]
    assert average_precision(res.precision, res.recall) == 1.0


def test_no_predictions_empty_curve():
    res = match_and_pr([], [gt([0, 1])], class_id=1, iou_thresh=0.5)
    assert res.precision.size == 0
    assert average_precision(res.precision, res.recall) == 0.0


def test_hand_walked_three_prediction_curve():
    # 2 GT; preds with IoUs 1.0, 0.6, 0.2 in descending score order
    gts = [gt(np.arange(0, 10)), gt(np.arange(20, 30))]
    preds = [
        pred(np.arange(0, 10), score=0.9),   # IoU 1.0 vs GT0
        pred(np.arange(20, 26), score=0.8),  # IoU 6/10 = 0.6 vs GT1
        pred(np.arange(40, 50), score=0.7),  # IoU 0.2 vs nothing of class 1 (FP)
    ]
    res = match_and_pr(preds, gts, class_id=1, iou_thresh=0.5)
    assert np.allclose(res.precision, [1.0, 1.0, 2 / 3])
    assert np.allclose(res.recall, [0.5, 1.0, 1.0])
    assert average_precision(res.precision, res.recall) == 1.0


def test_match_prefers_highest_iou_unmatched_gt():
    gts = [gt(np.arange(0, 10)), gt(np.arange(10, 20))]
    p = pred(np.arange(4, 20), score=0.9)  # IoU 6/20 vs GT0, 10/16 vs GT1
    res = match_and_pr([p, pred(np.arange(0, 10), score=0.5)], gts, 1, 0.25)
    assert res.matched_gt.tolist() == [1, 0]


def test_match_refuses_overlapping_ground_truth():
    gts = [gt(np.arange(0, 10)), gt(np.arange(8, 18), cls=2)]
    with pytest.raises(ValueError, match="disjoint family overlap"):
        match_and_pr([pred(np.arange(0, 10))], gts, 1, 0.5)


def test_prediction_sort_ties_prefer_larger_mask():
    gts = [gt(np.arange(0, 10))]
    small = pred(np.arange(0, 5), score=0.5)
    large = pred(np.arange(0, 10), score=0.5)
    res = match_and_pr([small, large], gts, 1, 0.5)
    assert res.pred_order.tolist() == [1, 0]  # larger mask first on tie
    assert res.matched_gt.tolist() == [0, -1]


def test_average_precision_empty_and_perfect():
    assert average_precision(np.array([]), np.array([])) == 0.0
    assert average_precision(np.array([1.0]), np.array([1.0])) == 1.0


def reference_average_precision(precision, recall):
    """All-point AP with the precision envelope built by a right-to-left loop."""
    mrec = np.concatenate(([0.0], recall, [recall[-1]]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]).sum())


@pytest.mark.parametrize("seed", range(20))
def test_average_precision_matches_the_loop_envelope(seed):
    rng = np.random.default_rng(seed)
    n_gt = int(rng.integers(1, 30))
    tp = np.cumsum(rng.random(int(rng.integers(1, 60))) < rng.random())
    tp = np.minimum(tp, n_gt)  # at most n_gt true positives
    ranks = np.arange(1, tp.size + 1)
    precision, recall = tp / ranks, tp / n_gt
    assert average_precision(precision, recall) == reference_average_precision(precision, recall)


def test_evaluate_perfect_predictions(simple_scene):
    preds = [
        pred([0, 1, 2], cls=1, score=0.9),
        pred([3, 4], cls=1, score=0.8),
    ]
    res = evaluate(preds, simple_scene)
    assert res.map == res.ap50 == res.ap25 == 1.0
    assert res.mprec50 == res.mrec50 == 1.0
    assert res.classes == (1,)
    assert res.matches50[1] == [(0, 0), (1, 1)]


def test_evaluate_wrong_classes_scores_zero(simple_scene):
    preds = [pred([0, 1, 2], cls=2, score=0.9), pred([3, 4], cls=3, score=0.8)]
    res = evaluate(preds, simple_scene)
    assert res.map == res.ap50 == res.ap25 == 0.0
    assert res.mrec50 == 0.0


def test_evaluate_requires_instances():
    scene = make_scene([[0, 0, 0]], [0], [-1])
    with pytest.raises(ValueError, match="no ground-truth"):
        evaluate([], scene)


def test_evaluate_rejects_out_of_range_prediction(simple_scene):
    with pytest.raises(ValueError, match="references point"):
        evaluate([pred([99])], simple_scene)


def test_prediction_order_in_file_is_irrelevant(simple_scene):
    preds = [
        pred([0, 1, 2], cls=1, score=0.9),
        pred([3, 4], cls=1, score=0.7),
        pred([5, 6], cls=1, score=0.4),
    ]
    base = evaluate(preds, simple_scene)
    shuffled = evaluate([preds[2], preds[0], preds[1]], simple_scene)
    assert base.map == shuffled.map
    assert base.ap50 == shuffled.ap50
    assert base.mprec50 == shuffled.mprec50
    assert base.mrec50 == shuffled.mrec50


def random_eval_case(seed):
    rng = np.random.default_rng(seed)
    scene, _ = generate_scene(
        GenConfig(seed=seed, n_objects=4, density=500.0, stuff_density=10.0,
                  min_object_points=30)
    )
    gt_list = ground_truth_instances(scene)
    preds = []
    for g in gt_list:
        take = rng.uniform(0.3, 1.0)
        size = max(1, int(take * g.size))
        members = np.sort(rng.choice(g.point_idx, size=size, replace=False))
        cls = g.class_id if rng.random() > 0.2 else int(rng.integers(1, 8))
        preds.append(pred(members, cls=cls, score=float(rng.uniform(0.1, 1.0))))
    return scene, preds


@pytest.mark.parametrize("seed", range(6))
def test_ap_monotone_in_threshold_and_aggregate_ordering(seed):
    scene, preds = random_eval_case(seed)
    res = evaluate(preds, scene)
    for c in res.classes:
        aps = [res.ap[c][t] for t in sorted(t for t in res.thresholds if t >= 0.5)]
        assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))
    assert res.map <= res.ap50 + 1e-12
    assert res.ap50 <= res.ap25 + 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_score_filtered_precision_recall_match_the_filtered_list(seed):
    # evaluate reads them from a prefix of its matching at 0.5; rivals with
    # tied scores make the filtered predictions compete for instances
    scene, preds = random_eval_case(seed)
    rng = np.random.default_rng(100 + seed)
    preds += [
        pred(p.point_idx[: max(1, p.size // 2)], cls=p.class_id, score=round(rng.uniform(), 1))
        for p in preds
    ]
    gts = ground_truth_instances(scene)
    for score_filter in (0.0, *rng.uniform(0.0, 1.0, 4).round(1), 1.0):
        res = evaluate(preds, scene, score_filter=score_filter)
        filtered = [p for p in preds if p.score >= score_filter]
        for c in res.classes:
            m = match_and_pr(filtered, gts, c, 0.5)
            n_tp = int((m.matched_gt >= 0).sum())
            assert res.prec50_classwise[c] == (n_tp / m.pred_order.size if m.pred_order.size else 0.0)
            assert res.rec50_classwise[c] == n_tp / m.n_gt


def test_duplicate_prediction_never_increases_ap(simple_scene):
    preds = [pred([0, 1, 2], cls=1, score=0.9), pred([3, 4], cls=1, score=0.8)]
    base = evaluate(preds, simple_scene)
    dup = preds + [pred([0, 1, 2], cls=1, score=0.7)]
    res = evaluate(dup, simple_scene)
    assert res.ap50 <= base.ap50 + 1e-12
    assert res.map <= base.map + 1e-12


def test_gt_masks_as_predictions_score_one():
    scene, _ = generate_scene(
        GenConfig(seed=3, n_objects=4, density=500.0, stuff_density=10.0,
                  min_object_points=30)
    )
    preds = [
        pred(g.point_idx, cls=g.class_id, score=1.0)
        for g in ground_truth_instances(scene)
    ]
    res = evaluate(preds, scene)
    assert res.map == res.ap50 == res.ap25 == 1.0
    assert res.mprec50 == res.mrec50 == 1.0


def test_score_filter_only_affects_precision_recall(simple_scene):
    preds = [
        pred([0, 1, 2], cls=1, score=0.9),
        pred([3, 4], cls=1, score=0.1),  # below the default 0.2 filter
    ]
    res = evaluate(preds, simple_scene)
    assert res.ap50 == 1.0  # AP integrates over all predictions
    assert res.mrec50 == 0.5  # but the filtered recall misses instance 1
    res_nofilter = evaluate(preds, simple_scene, score_filter=0.0)
    assert res_nofilter.mrec50 == 1.0


@pytest.mark.parametrize("score_filter", [float("nan"), -0.1, 1.5])
def test_score_filter_outside_unit_interval_rejected(simple_scene, score_filter):
    with pytest.raises(ValueError, match="score_filter must be in"):
        evaluate([pred([0, 1, 2], cls=1, score=0.9)], simple_scene, score_filter=score_filter)


def test_evaluate_builds_one_iou_matrix_per_class(monkeypatch):
    clean, observed, offsets = generate_sample(
        GenConfig(seed=2, sigma0=0.01, beta=2.0, p_sem=0.05, sem_temperature=0.5)
    )
    config = PipelineConfig(
        scorer=Scorer.ORACLE, nms_iou=0.9, cluster_params=ClusterParams(min_points=5)
    )
    preds = run_pipeline(observed, offsets, config)
    filtered = [p for p in preds if p.score >= evaluation.PR_SCORE_FILTER]
    assert 0 < len(filtered) < len(preds)

    calls = []
    real = evaluation.family_iou
    monkeypatch.setattr(
        evaluation, "family_iou", lambda *args: calls.append(1) or real(*args)
    )
    res = evaluate(preds, clean)
    # one matrix of every prediction against every instance serves each class
    assert len(res.classes) > 1 and len(calls) == 1
    # the filtered pass slices the class's matrix; a fresh match agrees
    monkeypatch.undo()
    gts = ground_truth_instances(clean)
    for c in res.classes:
        m = match_and_pr(filtered, gts, c, 0.5)
        n_tp = int((m.matched_gt >= 0).sum())
        assert res.prec50_classwise[c] == (n_tp / m.pred_order.size if m.pred_order.size else 0.0)
        assert res.rec50_classwise[c] == n_tp / m.n_gt
        for t in res.thresholds:
            m = match_and_pr(preds, gts, c, t)
            assert res.ap[c][t] == average_precision(m.precision, m.recall)
