import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinst.clustering import (
    ClusterParams, cluster_dual_set, cluster_single_set, connected_components_oracle,
)
from cloudinst.core import (
    Cluster, OffsetField, Scene, Source, ground_truth_instances, shifted_coords,
)
from cloudinst.losses import offset_targets
from cloudinst import pipeline
from cloudinst.pipeline import PipelineConfig, nms, run_pipeline
from cloudinst.scoring import Scorer, ScorerModel, score_clusters
from cloudinst.synth import GenConfig, generate_sample, generate_scene
from cloudinst.trace import recording

from conftest import disjoint_masks, iou, make_scene, two_object_scene


def cl(idx, cls=1, source=Source.ORIGINAL):
    return Cluster(point_idx=np.asarray(idx), class_id=cls, source=source)


def reference_nms(clusters, scores, thresh):
    """Independent NMS: explicit sort + pairwise set IoU scan."""
    order = sorted(
        range(len(clusters)),
        key=lambda k: (-scores[k], int(clusters[k].source), int(clusters[k].point_idx[0])),
    )
    kept = []
    for k in order:
        ok = True
        for j in kept:
            a = set(clusters[k].point_idx.tolist())
            b = set(clusters[j].point_idx.tolist())
            if len(a & b) / len(a | b) >= thresh:
                ok = False
                break
        if ok:
            kept.append(k)
    return kept


def dual_set_clusters(rng, n_points, n_max, size_max, classes=(1,)):
    """Clusters as ``cluster_dual_set`` pools them: the clusters of each
    source are disjoint, the two sources overlap freely; shuffled."""
    clusters = [
        cl(m, cls=int(rng.choice(classes)), source=source)
        for source in Source
        for m in disjoint_masks(rng, n_points, int(rng.integers(0, n_max + 1)), size_max)
    ]
    return [clusters[k] for k in rng.permutation(len(clusters))]


def test_nms_identical_clusters_keep_best():
    clusters = [cl([0, 1, 2]), cl([0, 1, 2], source=Source.SHIFTED)]
    assert nms(clusters, np.array([0.9, 0.8]), 0.3) == [0]
    assert nms(clusters, np.array([0.8, 0.9]), 0.3) == [1]


def test_nms_disjoint_all_kept():
    clusters = [cl([0, 1]), cl([2, 3]), cl([4, 5])]
    kept = nms(clusters, np.array([0.5, 0.9, 0.1]), 0.3)
    assert sorted(kept) == [0, 1, 2]
    assert kept == [1, 0, 2]  # kept order follows descending score


def test_nms_tie_breaks_original_then_min_index():
    clusters = [
        cl([4, 5], source=Source.SHIFTED),
        cl([4, 5], source=Source.ORIGINAL),
    ]
    assert nms(clusters, np.array([0.7, 0.7]), 0.3) == [1]
    clusters = [cl([8, 9]), cl([0, 1])]
    kept = nms(clusters, np.array([0.7, 0.7]), 0.99)
    assert kept[0] == 1  # lower min point index first


def test_nms_suppression_boundary_inclusive():
    # IoU exactly at the threshold suppresses
    a = cl([0, 1, 2, 3])
    b = cl([2, 3, 4, 5], source=Source.SHIFTED)  # IoU vs a = 2/6
    clusters = [a, b]
    thresh = 2.0 / 6.0
    assert nms(clusters, np.array([0.9, 0.8]), thresh) == [0]
    assert sorted(nms(clusters, np.array([0.9, 0.8]), thresh + 1e-9)) == [0, 1]


def test_nms_keeps_global_max_and_threshold_monotonicity():
    rng = np.random.default_rng(0)
    for trial in range(25):
        clusters = dual_set_clusters(rng, 40, 6, 11, classes=(1, 2))
        if not clusters:
            continue
        scores = rng.uniform(0, 1, len(clusters))
        best = int(np.argmax(scores))
        prev = -1
        for thresh in (0.2, 0.4, 0.6, 0.8, 1.0):
            kept = nms(clusters, scores, thresh)
            assert best in kept
            assert len(kept) >= prev
            prev = len(kept)
            pairwise = [
                iou(clusters[a].point_idx, clusters[b].point_idx)
                for i, a in enumerate(kept) for b in kept[i + 1:]
            ]
            assert all(v < thresh for v in pairwise)


def test_nms_matches_reference_on_fuzz():
    rng = np.random.default_rng(1)
    for trial in range(40):
        clusters = dual_set_clusters(rng, 30, 8, 9)
        scores = np.round(rng.uniform(0, 1, len(clusters)), 1)  # force ties
        for thresh in (0.3, 0.5):
            assert nms(clusters, scores, thresh) == reference_nms(clusters, scores, thresh)


def test_nms_refuses_overlapping_clusters_of_one_source():
    for source in Source:
        clusters = [cl([0, 1, 2], source=source), cl([2, 3], source=source), cl([5, 6])]
        with pytest.raises(ValueError, match="disjoint family overlap"):
            nms(clusters, np.array([0.9, 0.8, 0.7]), 0.3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nms_refuses_non_finite_scores(bad):
    # a NaN sort key makes the visiting order depend on the input order: with
    # [0.5, nan, 0.9] the top-scoring cluster 2 would come after cluster 0
    clusters = [cl([0, 1, 2]), cl([0, 1, 2], source=Source.SHIFTED), cl([5, 6])]
    with pytest.raises(ValueError, match="cluster 1 has a non-finite score"):
        nms(clusters, np.array([0.5, bad, 0.9]), 0.3)


def test_nms_length_mismatch():
    with pytest.raises(ValueError, match="scores"):
        nms([cl([0])], np.array([0.5, 0.4]), 0.3)


@pytest.mark.parametrize("thresh", [0.0, float("nan"), 2.0])
def test_nms_threshold_outside_unit_interval_rejected(thresh):
    clusters = [cl([0, 1]), cl([5, 6])]
    with pytest.raises(ValueError, match=r"nms_iou must be in \(0, 1\]"):
        nms(clusters, np.array([0.9, 0.8]), thresh)
    with pytest.raises(ValueError, match=r"nms_iou must be in \(0, 1\]"):
        PipelineConfig(nms_iou=thresh)


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="nms_iou"):
        PipelineConfig(nms_iou=0.0)
    with pytest.raises(ValueError, match="min_score"):
        PipelineConfig(min_score=2.0)
    with pytest.raises(ValueError, match="cluster_sets"):
        PipelineConfig(cluster_sets="x")
    cfg = PipelineConfig(scorer="oracle")
    assert cfg.scorer is Scorer.ORACLE


def test_single_object_oracle_pipeline():
    scene, offsets = generate_scene(
        GenConfig(seed=0, n_objects=1, density=900.0, stuff_density=10.0,
                  min_object_points=100)
    )
    config = PipelineConfig(
        cluster_params=ClusterParams(0.03, 50), scorer=Scorer.ORACLE
    )
    preds = run_pipeline(scene, offsets, config)
    assert len(preds) == 1
    gt = ground_truth_instances(scene)[0]
    assert iou(preds[0].point_idx, gt.point_idx) == 1.0
    assert preds[0].class_id == gt.class_id
    assert preds[0].score == 1.0


def test_all_stuff_scene_yields_no_predictions():
    scene = make_scene(
        np.random.default_rng(0).uniform(0, 1, (40, 3)),
        np.zeros(40, dtype=np.int32), np.full(40, -1, dtype=np.int32),
    )
    offsets = OffsetField(np.zeros((40, 3)))
    config = PipelineConfig(scorer=Scorer.MODEL)
    preds = run_pipeline(scene, offsets, config, model=ScorerModel.default())
    assert preds == []
    with pytest.raises(ValueError, match="instances"):
        run_pipeline(scene, offsets, PipelineConfig(scorer=Scorer.ORACLE))


NARROW_MODEL = ScorerModel(
    mean=np.zeros(2), std=np.ones(2), w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros(2), b2=0.0
)


@pytest.mark.parametrize(
    "scorer,model,match",
    [
        (Scorer.SEMPROB, None, "sem_scores"),
        (Scorer.MODEL, None, "ScorerModel"),
        (Scorer.MODEL, NARROW_MODEL, "takes 2-dim descriptors"),
    ],
)
def test_missing_scorer_inputs_raise_before_clustering(monkeypatch, scorer, model, match):
    both = two_object_scene(gap=0.2)
    scene = make_scene(both.coords, both.sem_labels, both.inst_ids, sem_scores=None)
    offsets = offset_targets(scene)

    def no_clustering(*args, **kwargs):
        raise AssertionError("clustered before checking the scorer's inputs")

    monkeypatch.setattr(pipeline, "cluster_dual_set", no_clustering)
    with pytest.raises(ValueError, match=match):
        run_pipeline(scene, offsets, PipelineConfig(scorer=scorer), model=model)


def test_adjacent_objects_dual_set_recovers_both():
    scene = two_object_scene(gap=0.02, n_per_object=120, spacing=0.008)
    offsets = offset_targets(scene)
    config = PipelineConfig(
        cluster_params=ClusterParams(0.03, 20), scorer=Scorer.ORACLE
    )
    preds = run_pipeline(scene, offsets, config)
    gt = ground_truth_instances(scene)
    assert len(preds) == 2
    best = [max(iou(p.point_idx, g.point_idx) for p in preds) for g in gt]
    assert min(best) >= 0.9


def test_pipeline_deterministic():
    scene, offsets = generate_scene(
        GenConfig(seed=2, n_objects=3, density=700.0, stuff_density=20.0,
                  min_object_points=60)
    )
    config = PipelineConfig(scorer=Scorer.ORACLE)
    runs = [
        run_pipeline(scene, offsets, config),
        run_pipeline(scene, offsets, config),
    ]
    for other in runs[1:]:
        assert len(other) == len(runs[0])
        for a, b in zip(runs[0], other):
            assert np.array_equal(a.point_idx, b.point_idx)
            assert a.class_id == b.class_id and a.score == b.score


@pytest.mark.parametrize(
    "sets, stages",
    [
        ("both", {"bq_p", "cl_p", "bq_q", "cl_q"}),
        ("p", {"bq_p", "cl_p"}),
        ("q", {"bq_q", "cl_q"}),
    ],
)
def test_timings_name_each_clustered_set(sets, stages):
    scene = two_object_scene(gap=0.02, n_per_object=64, spacing=0.01)
    config = PipelineConfig(
        cluster_params=ClusterParams(0.03, 20), scorer=Scorer.ORACLE, cluster_sets=sets
    )
    with recording() as spans:
        run_pipeline(scene, offset_targets(scene), config)
    assert set(spans) == stages | {"scoring", "nms"}
    assert all(v >= 0.0 for v in spans.values())


def test_min_score_filter_applies_after_nms():
    scene = two_object_scene(gap=0.02, n_per_object=64, spacing=0.01)
    offsets = offset_targets(scene)
    base = PipelineConfig(cluster_params=ClusterParams(0.03, 10), scorer=Scorer.ORACLE)
    preds_all = run_pipeline(scene, offsets, base)
    filtered_cfg = PipelineConfig(
        cluster_params=ClusterParams(0.03, 10), scorer=Scorer.ORACLE, min_score=0.9
    )
    preds_filtered = run_pipeline(scene, offsets, filtered_cfg)
    kept_scores = [p.score for p in preds_all if p.score >= 0.9]
    assert [p.score for p in preds_filtered] == kept_scores
    assert len(preds_filtered) <= len(preds_all)


def test_pipeline_single_set_ablation_p_vs_q():
    scene = two_object_scene(gap=0.02, n_per_object=64, spacing=0.01)
    offsets = offset_targets(scene)
    for sets, expected in (("p", 1), ("q", 2)):
        config = PipelineConfig(
            cluster_params=ClusterParams(0.03, 10), scorer=Scorer.ORACLE,
            cluster_sets=sets,
        )
        preds = run_pipeline(scene, offsets, config)
        assert len(preds) == expected, sets


def test_far_offset_outlier_keeps_scene_running():
    # one finite offset of 5e4 m on an instance point used to make the grid
    # reject the shifted set ("coordinate span too large"), and one of 1e39 m
    # overflowed float32 ("non-finite coordinate"); a low density keeps the
    # O(N^2) oracle on the collapsed shifted set quick
    scene, offsets = generate_scene(GenConfig(seed=3, n_objects=4, density=400.0))
    moved = np.array(offsets.offsets)
    k = int(np.flatnonzero(scene.inst_ids >= 0)[0])
    params = ClusterParams()
    for far in (5e4, 1e39):
        moved[k] = [far, 0.0, 0.0]
        field = OffsetField(moved.copy())
        preds = run_pipeline(scene, field, PipelineConfig(scorer=Scorer.ORACLE))
        assert preds, far
        for coords, source in (
            (scene.coords, Source.ORIGINAL),
            (shifted_coords(scene, field), Source.SHIFTED),
        ):
            got = cluster_single_set(
                coords, scene.sem_labels, scene.stuff_classes, params, source
            )
            want = connected_components_oracle(
                coords, scene.sem_labels, scene.stuff_classes, params, source
            )
            assert [c.point_idx.tolist() for c in got] == [
                c.point_idx.tolist() for c in want
            ], far

    # non-finite input is still refused
    moved[k] = [np.inf, 0.0, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        OffsetField(moved)
    coords = np.array(scene.coords)
    coords[k] = [np.nan, 0.0, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        cluster_single_set(coords, scene.sem_labels, scene.stuff_classes, params, Source.ORIGINAL)


def _permuted(scene, offsets, perm):
    """``scene`` and ``offsets`` with point k of the result being point perm[k]."""
    permuted = Scene(
        n_classes=scene.n_classes, coords=scene.coords[perm], colors=scene.colors[perm],
        sem_labels=scene.sem_labels[perm], inst_ids=scene.inst_ids[perm],
        stuff_classes=scene.stuff_classes, sem_scores=scene.sem_scores[perm],
    )
    return permuted, OffsetField(offsets.offsets[perm])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    pairs=st.booleans(),
    sigma0=st.sampled_from([0.01, 0.03]),
)
def test_pipeline_is_invariant_under_point_permutation(seed, pairs, sigma0):
    # ORACLE scores are counted IoUs and the clusters of one set are
    # disjoint, so a tie on min_index cannot change what NMS keeps
    _, scene, offsets = generate_sample(GenConfig(
        seed=seed, room=(2.5, 2.5, 1.5), n_objects=4, size_scale=(0.3, 0.5),
        stuff_density=20.0, same_class_gap=0.01 if pairs else None, sigma0=sigma0, beta=4.0,
    ))
    config = PipelineConfig(scorer=Scorer.ORACLE)
    perm = np.random.default_rng(seed).permutation(scene.n_points)
    preds = run_pipeline(scene, offsets, config)
    moved = run_pipeline(*_permuted(scene, offsets, perm), config)
    assert preds
    assert {(p.class_id, p.score, tuple(p.point_idx.tolist())) for p in preds} == {
        (p.class_id, p.score, tuple(np.sort(perm[p.point_idx]).tolist())) for p in moved
    }


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), pairs=st.booleans())
def test_zero_offsets_repeat_the_original_set(seed, pairs):
    # with q = p each shifted cluster has an original twin of the same
    # SEMPROB score; NMS meets the pair at IoU 1 and the tie-break keeps the
    # original one, so clustering both sets predicts what P alone does
    _, scene, _ = generate_sample(GenConfig(
        seed=seed, room=(2.5, 2.5, 1.5), n_objects=4, size_scale=(0.3, 0.5),
        stuff_density=20.0, same_class_gap=0.01 if pairs else None,
    ))
    zero = OffsetField(np.zeros((scene.n_points, 3)))
    clusters = cluster_dual_set(scene, zero, ClusterParams())
    by_source = {
        source: [(c.class_id, c.point_idx.tolist()) for c in clusters if c.source == source]
        for source in Source
    }
    assert by_source[Source.ORIGINAL] and by_source[Source.ORIGINAL] == by_source[Source.SHIFTED]
    scores = score_clusters(clusters, scene, zero, Scorer.SEMPROB)
    assert {clusters[k].source for k in nms(clusters, scores, 0.3)} == {Source.ORIGINAL}

    def predictions(sets):
        config = PipelineConfig(scorer=Scorer.SEMPROB, cluster_sets=sets)
        return [(p.class_id, p.score, p.point_idx.tolist()) for p in run_pipeline(scene, zero, config)]

    assert predictions("both") == predictions("p")
