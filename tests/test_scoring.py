import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinst.core import Cluster, GroundTruthInstance, OffsetField, Source, argmax_labels
from cloudinst.formats import load_scorer, save_scorer
from cloudinst.losses import gradient_check, offset_targets
from cloudinst.scoring import (
    ScoreTargets,
    Scorer,
    ScorerModel,
    best_ious,
    cluster_descriptors,
    pairwise_iou,
    score_clusters,
    score_loss,
    scorer_objective,
    soft_labels,
    train_scorer,
)
from cloudinst.synth import GenConfig, generate_sample

from conftest import best_iou, cluster_descriptor, iou, make_scene, two_object_scene


def gt(idx, cls=1):
    return GroundTruthInstance(point_idx=idx, class_id=cls)


def cl(idx, cls=1, source=Source.ORIGINAL):
    return Cluster(point_idx=idx, class_id=cls, source=source)


def test_iou_basic_cases():
    masks = [np.array([1, 2, 3]), np.array([1, 2]), np.array([1, 2, 3, 4])]
    others = [np.array([1, 2, 3]), np.array([5, 6]), np.arange(3, 9)]
    mat = pairwise_iou(masks, others)
    assert [mat[0, 0], mat[1, 1], mat[2, 2]] == [1.0, 0.0, 0.25]


def test_pairwise_iou_matches_scalar():
    rng = np.random.default_rng(0)
    masks_a = [np.sort(rng.choice(100, size=rng.integers(1, 40), replace=False)) for _ in range(8)]
    masks_b = [np.sort(rng.choice(100, size=rng.integers(1, 40), replace=False)) for _ in range(5)]
    mat = pairwise_iou(masks_a, masks_b)
    for i, a in enumerate(masks_a):
        for j, b in enumerate(masks_b):
            assert abs(mat[i, j] - iou(a, b)) <= 1e-12


def test_pairwise_iou_counts_points_shared_with_several_masks():
    # point 4 lies in three masks of B, and A's first mask meets all of them
    masks_a = [np.arange(10), np.array([4]), np.array([3, 4, 12]), np.array([20, 21])]
    masks_b = [np.array([0, 4, 5]), np.array([4, 9, 12]), np.array([3, 4]), np.array([30])]
    for a_side, b_side in ((masks_a, masks_b), (masks_b, masks_a), (masks_a, masks_a)):
        mat = pairwise_iou(a_side, b_side)
        assert mat.shape == (len(a_side), len(b_side))
        for i, a in enumerate(a_side):
            for j, b in enumerate(b_side):
                assert mat[i, j] == iou(a, b)


@pytest.mark.parametrize("n_a,n_b", [(0, 2), (2, 0), (0, 0)])
def test_pairwise_iou_with_an_empty_side(n_a, n_b):
    masks = [np.array([0, 1]), np.array([1, 2, 3])]
    mat = pairwise_iou(masks[:n_a], masks[:n_b])
    assert mat.shape == (n_a, n_b) and mat.dtype == np.float64


def test_best_iou_exact_match_and_disjoint():
    instances = [gt(np.array([0, 1, 2])), gt(np.array([5, 6]), cls=2)]
    clusters = [cl(np.array([0, 1, 2])), cl(np.array([10, 11]))]
    assert best_ious(clusters, instances).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="no ground-truth"):
        best_ious([cl(np.array([0]))], [])


def test_best_iou_ignores_class():
    # the max runs over every instance, even with a different class
    instances = [gt(np.array([0, 1, 2, 3]), cls=3)]
    assert best_ious([cl(np.array([0, 1, 2, 3]), cls=1)], instances).tolist() == [1.0]


def test_best_ious_matches_loop():
    rng = np.random.default_rng(1)
    instances = [gt(np.sort(rng.choice(200, 30, replace=False)), cls=int(k)) for k in range(4)]
    clusters = [cl(np.sort(rng.choice(200, 25, replace=False))) for _ in range(6)]
    batch = best_ious(clusters, instances)
    for k, c in enumerate(clusters):
        assert abs(batch[k] - best_iou(c, instances)) <= 1e-12


def test_soft_label_paper_anchors():
    assert soft_labels(np.array([0.20, 0.80, 0.50])).tolist() == [0.0, 1.0, 0.5]
    with pytest.raises(ValueError):
        soft_labels(np.array([1.5]))


def test_soft_label_monotone_continuous_clamped():
    grid = np.linspace(0, 1, 201)
    vals = soft_labels(grid)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(vals[grid <= 0.25] == 0.0)
    assert np.all(vals[grid >= 0.75] == 1.0)
    # continuity across the thresholds to first order
    assert np.all(np.abs(np.diff(vals)) <= (grid[1] - grid[0]) / 0.5 + 1e-12)


def test_score_targets_enforce_ramp_consistency():
    with pytest.raises(ValueError, match="IoU outside"):
        ScoreTargets(iou=np.array([1.5]))
    t = ScoreTargets.from_ious(np.array([0.0, 0.5, 1.0]))
    assert t.soft.tolist() == [0.0, 0.5, 1.0]


def test_score_loss_values():
    ones = ScoreTargets.from_ious(np.array([1.0, 1.0]))
    assert score_loss(np.array([1.0, 1.0]), ones) <= 1e-6
    half = ScoreTargets.from_ious(np.array([0.5]))
    assert abs(score_loss(np.array([0.5]), half) - np.log(2)) <= 1e-9
    with pytest.raises(ValueError, match="no clusters"):
        score_loss(np.array([]), ScoreTargets.from_ious(np.array([])))


def test_score_loss_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    s = rng.uniform(0.01, 0.99, 40)
    t = ScoreTargets.from_ious(rng.uniform(0, 1, 40))
    total = 0.0
    for k in range(40):
        total += -(t.soft[k] * np.log(s[k]) + (1 - t.soft[k]) * np.log(1 - s[k]))
    assert abs(score_loss(s, t) - total / 40) <= 1e-9


def test_score_loss_minimized_at_target():
    targets = ScoreTargets.from_ious(np.array([0.6]))
    t = targets.soft[0]
    grid = np.linspace(0.01, 0.99, 99)
    losses = [score_loss(np.array([s]), targets) for s in grid]
    assert abs(grid[int(np.argmin(losses))] - t) <= 0.011


def test_descriptor_singleton_and_translation_invariance():
    scene = make_scene([[1, 2, 3], [5, 5, 5]], [1, 1], [0, 1])
    offsets = OffsetField(np.zeros((2, 3)))
    (d,) = cluster_descriptors([cl(np.array([0]))], scene, offsets)
    assert d.shape == (8,)
    assert d[0] == 0.0  # log(1)
    assert np.allclose(d[1:6], 0.0)  # extents and spread
    assert d[6] == 1.0
    assert d[7] == 0.0

    moved = make_scene(np.asarray(scene.coords) + 10.0, scene.sem_labels, scene.inst_ids)
    (d2,) = cluster_descriptors([cl(np.array([0]))], moved, offsets)
    assert np.allclose(d, d2, atol=1e-5)


def test_descriptor_translation_invariance_multi_point():
    scene = two_object_scene(gap=0.5)
    offsets = offset_targets(scene)
    cluster = cl(np.arange(30), cls=1)
    (d,) = cluster_descriptors([cluster], scene, offsets)
    moved = make_scene(np.asarray(scene.coords) + 10.0, scene.sem_labels, scene.inst_ids)
    (d2,) = cluster_descriptors([cluster], moved, offsets)
    assert np.abs(d - d2).max() <= 1e-5
    assert d[7] == 0.0
    (d3,) = cluster_descriptors(
        [cl(np.arange(30), cls=1, source=Source.SHIFTED)], scene, offsets
    )
    assert d3[7] == 1.0


def descriptor_inputs(seed, sizes, with_scores, n_classes=4):
    """A scene of random points around a random origin, random offsets, and
    one cluster per entry of ``sizes`` (random members, class and source)."""
    rng = np.random.default_rng(seed)
    n = max(sizes)
    coords = rng.uniform(-1.0, 1.0, (n, 3)) * rng.uniform(0.01, 5.0) + rng.uniform(-100, 100, 3)
    scores = rng.dirichlet(np.full(n_classes, 0.5), n).astype(np.float32)
    scene = make_scene(
        coords, argmax_labels(scores), np.full(n, -1), n_classes=n_classes,
        sem_scores=scores if with_scores else None,
    )
    offsets = OffsetField(rng.normal(0.0, rng.uniform(0.001, 1.0), (n, 3)))
    clusters = [
        Cluster(
            point_idx=np.sort(rng.choice(n, size, replace=False)),
            class_id=int(rng.integers(n_classes)),
            source=Source(int(rng.integers(2))),
        )
        for size in sizes
    ]
    return scene, offsets, clusters


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.one_of(st.just(1), st.integers(2, 300)), min_size=1, max_size=6),
    big=st.booleans(),
    with_scores=st.booleans(),
)
def test_cluster_descriptors_match_scalar_reference(seed, sizes, big, with_scores):
    # one cluster past numpy's 8,192-element reduction buffer when ``big``
    sizes = sizes + [8_193 + seed % 1_000] if big else sizes
    scene, offsets, clusters = descriptor_inputs(seed, sizes, with_scores)
    got = cluster_descriptors(clusters, scene, offsets)
    ref = np.array([cluster_descriptor(c, scene, offsets) for c in clusters])
    assert got.shape == (len(clusters), 8)
    exact = [0, 1, 2, 3, 7]
    assert np.array_equal(got[:, exact], ref[:, exact])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    if with_scores:
        semprob = score_clusters(clusters, scene, offsets, Scorer.SEMPROB)
        loop = np.array(
            [scene.sem_scores[c.point_idx, c.class_id].mean(dtype=np.float64) for c in clusters]
        )
        assert np.all(np.abs(semprob - loop) <= 1e-12 * np.maximum(1.0, loop))


def test_cluster_descriptors_of_no_clusters(simple_scene, zero_offsets):
    assert cluster_descriptors([], simple_scene, zero_offsets).shape == (0, 8)


def test_descriptor_spread_of_a_collapsed_cloud():
    # offsets that send every member onto one centre, as oracle offsets do:
    # the shifted points differ only by rounding (~4e-17 m from their exact
    # centroid), and so must the distance columns; a row-by-row centroid sum,
    # as in the scalar reference, misses by ~4e-13 m on this cloud
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 3.0, (9_000, 3)).astype(np.float32)
    scene = make_scene(coords, np.ones(9_000), np.zeros(9_000))
    centre = np.array([1.2345678901234, 1.5432109876543, 0.9876543210987])
    offsets = OffsetField(centre - coords.astype(np.float64))
    (d,) = cluster_descriptors([cl(np.arange(9_000))], scene, offsets)
    q = coords.astype(np.float64) + offsets.offsets
    exact = np.array([math.fsum(q[:, j]) / q.shape[0] for j in range(3)])
    dq = np.linalg.norm(q - exact, axis=1)
    assert abs(d[4] - math.fsum(dq) / dq.size) <= 1e-15
    assert d[5] <= 1e-15


def test_score_clusters_variants(simple_scene, zero_offsets):
    clusters = [cl(np.array([0, 1, 2])), cl(np.array([3, 4]))]
    instances = [
        GroundTruthInstance(point_idx=np.array([0, 1, 2]), class_id=1),
        GroundTruthInstance(point_idx=np.array([3, 4]), class_id=1),
    ]
    oracle = score_clusters(clusters, simple_scene, zero_offsets, Scorer.ORACLE, gt=instances)
    assert np.allclose(oracle, [1.0, 1.0])
    semprob = score_clusters(clusters, simple_scene, zero_offsets, Scorer.SEMPROB)
    assert np.allclose(semprob, [1.0, 1.0])
    zero_model = ScorerModel(
        mean=np.zeros(8), std=np.ones(8), w1=np.zeros((4, 8)), b1=np.zeros(4),
        w2=np.zeros(4), b2=0.0,
    )
    model_scores = score_clusters(
        clusters, simple_scene, zero_offsets, Scorer.MODEL, model=zero_model
    )
    assert np.allclose(model_scores, 0.5)


def test_score_clusters_missing_inputs(simple_scene, zero_offsets):
    clusters = [cl(np.array([0, 1, 2]))]
    with pytest.raises(ValueError, match="oracle"):
        score_clusters(clusters, simple_scene, zero_offsets, Scorer.ORACLE)
    with pytest.raises(ValueError, match="ScorerModel"):
        score_clusters(clusters, simple_scene, zero_offsets, Scorer.MODEL)
    no_scores = make_scene(
        simple_scene.coords, simple_scene.sem_labels, simple_scene.inst_ids,
        sem_scores=None,
    )
    with pytest.raises(ValueError, match="sem_scores"):
        score_clusters(clusters, no_scores, zero_offsets, Scorer.SEMPROB)


def test_scorer_model_validation_and_roundtrip(tmp_path):
    with pytest.raises(ValueError, match="stdev"):
        ScorerModel(mean=np.zeros(8), std=np.zeros(8), w1=np.zeros((2, 8)),
                    b1=np.zeros(2), w2=np.zeros(2), b2=0.0)
    model = ScorerModel.default(hidden=5, seed=3)
    path = tmp_path / "m.scorer"
    save_scorer(model, path)
    back = load_scorer(path)
    assert np.array_equal(back.w1, model.w1)
    assert np.array_equal(back.w2, model.w2)
    assert back.b2 == model.b2
    x = np.random.default_rng(0).standard_normal((10, 8))
    assert np.array_equal(model.scores(x), back.scores(x))
    save_scorer(back, tmp_path / "m2.scorer")
    assert (tmp_path / "m2.scorer").read_bytes() == path.read_bytes()


def test_scorer_model_rejects_zero_sizes():
    # hidden 0: the file it would save reads "SCORER1 8 0", which load_scorer refuses
    with pytest.raises(ValueError, match="dimensions must be >= 1, got 8x0"):
        ScorerModel.default(hidden=0)
    with pytest.raises(ValueError, match="dimensions must be >= 1, got 8x-1"):
        ScorerModel.default(hidden=-1)
    with pytest.raises(ValueError, match="dimensions must be >= 1, got 0x2"):
        ScorerModel(mean=np.zeros(0), std=np.ones(0), w1=np.zeros((2, 0)),
                    b1=np.zeros(2), w2=np.zeros(2), b2=0.0)


def test_scorer_objective_gradient():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 8))
    y = rng.uniform(0, 1, 30)
    hidden = 6
    theta = rng.uniform(-0.5, 0.5, hidden * 8 + 2 * hidden + 1)
    err = gradient_check(lambda t: scorer_objective(t, x, y, hidden), theta)
    assert err <= 1e-5


def corpus(seeds, **kw):
    out = []
    for seed in seeds:
        cfg = GenConfig(seed=seed, n_objects=4, density=700.0, stuff_density=15.0,
                        min_object_points=30, **kw)
        clean, observed, offsets = generate_sample(cfg)
        out.append((clean, offsets))
    return out


def test_train_scorer_descends_and_is_deterministic():
    data = corpus(range(3))
    # clean corpus: every dual-set cluster matches an instance, all targets 1
    run1 = train_scorer(data, hidden=8, lr=0.5, epochs=120, seed=7,
                        cluster_params=None)
    run2 = train_scorer(data, hidden=8, lr=0.5, epochs=120, seed=7,
                        cluster_params=None)
    assert run1.final_loss < run1.initial_loss
    assert run1.grad_error <= 1e-5
    assert np.array_equal(run1.model.w1, run2.model.w1)
    assert np.array_equal(run1.model.w2, run2.model.w2)
    assert run1.final_loss == run2.final_loss


def test_oracle_scores_upper_bound_other_scorers_per_scene():
    # regression property: ranking clusters by their true quality is at
    # least as good, post-NMS, as any other scorer on each of these scenes
    from cloudinst.evaluation import evaluate
    from cloudinst.pipeline import PipelineConfig, run_pipeline

    def cfg(seed):
        return GenConfig(seed=seed, n_objects=4, same_class_gap=0.02, sigma0=0.01,
                         beta=2.0, density=2000.0, stuff_density=20.0,
                         size_scale=(0.55, 0.95))

    train = [(c, o) for c, _, o in (generate_sample(cfg(s)) for s in range(400, 406))]
    model = train_scorer(train, hidden=16, lr=0.5, epochs=300, seed=0).model
    for seed in range(6):
        clean, _, offsets = generate_sample(cfg(seed))
        ap = {}
        for scorer in (Scorer.ORACLE, Scorer.MODEL, Scorer.SEMPROB):
            preds = run_pipeline(
                clean, offsets, PipelineConfig(scorer=scorer),
                model=model if scorer is Scorer.MODEL else None,
            )
            ap[scorer] = evaluate(preds, clean).ap50
        assert ap[Scorer.ORACLE] >= ap[Scorer.MODEL] - 1e-9, (seed, ap)
        assert ap[Scorer.ORACLE] >= ap[Scorer.SEMPROB] - 1e-9, (seed, ap)


def test_train_scorer_empty_corpus_rejected():
    scene = make_scene([[0, 0, 0], [5, 5, 5]], [1, 1], [0, 1])
    offsets = OffsetField(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="no clusters"):
        # min_points default 50 discards everything in this tiny scene
        train_scorer([(scene, offsets)])
