import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cloudinst
from cloudinst import scoring
from cloudinst.clustering import ClusterParams, cluster_dual_set
from cloudinst.core import Cluster, GroundTruthInstance, OffsetField, SceneError, Source, argmax_labels
from cloudinst.formats import load_scorer, save_scorer
from cloudinst.losses import gradient_check, offset_targets
from cloudinst.scoring import (
    Scorer,
    ScorerModel,
    best_ious,
    cluster_descriptors,
    family_iou,
    harvest_training_set,
    score_clusters,
    _unpack_params,
    row_widths,
    score_loss,
    scorer_objective,
    soft_labels,
    train_scorer,
)
from cloudinst.synth import GenConfig, generate_sample
from cloudinst.trace import recording

from conftest import (
    best_iou, cluster_descriptor, disjoint_masks, float64_limit_offset_scene, iou, make_scene,
    package_uses, two_object_scene,
)


def gt(idx, cls=1):
    return GroundTruthInstance(point_idx=idx, class_id=cls)


def cl(idx, cls=1, source=Source.ORIGINAL):
    return Cluster(point_idx=idx, class_id=cls, source=source)


def test_iou_basic_cases():
    masks = [np.array([1, 2, 3]), np.array([1, 2]), np.array([1, 2, 3, 4])]
    family = [np.array([1, 2, 3]), np.array([5, 6]), np.array([4])]
    mat = family_iou(masks, family)
    assert [mat[0, 0], mat[1, 1], mat[2, 2]] == [1.0, 0.0, 0.25]


def test_family_iou_matches_scalar():
    rng = np.random.default_rng(0)
    masks = [np.sort(rng.choice(100, size=rng.integers(1, 40), replace=False)) for _ in range(8)]
    family = disjoint_masks(rng, 100, 5, 20)
    mat = family_iou(masks, family)
    for i, a in enumerate(masks):
        for j, b in enumerate(family):
            assert abs(mat[i, j] - iou(a, b)) <= 1e-12


def test_family_iou_counts_points_shared_by_several_masks():
    # point 4 lies in five masks, and the first mask meets every member
    masks = [
        np.arange(10), np.array([4]), np.array([3, 4, 12]), np.array([20, 21]),
        np.array([0, 4, 5]), np.array([4, 9, 12]), np.array([3, 4]), np.array([30]),
    ]
    family = [np.array([0, 4, 5]), np.array([9, 12]), np.array([3]), np.array([20, 21, 30])]
    mat = family_iou(masks, family)
    assert mat.shape == (len(masks), len(family))
    for i, a in enumerate(masks):
        for j, b in enumerate(family):
            assert mat[i, j] == iou(a, b)


@pytest.mark.parametrize("n_a,n_b", [(0, 2), (2, 0), (0, 0)])
def test_family_iou_with_an_empty_side(n_a, n_b):
    masks = [np.array([0, 1]), np.array([2, 3, 4])]
    mat = family_iou(masks[:n_a], masks[:n_b])
    assert mat.shape == (n_a, n_b) and mat.dtype == np.float64


@pytest.mark.parametrize("n_masks", [0, 2])
def test_family_iou_refuses_an_overlapping_family(n_masks):
    masks = [np.array([0, 1]), np.array([7])]
    with pytest.raises(ValueError, match="disjoint family overlap"):
        family_iou(masks[:n_masks], [np.array([2, 3]), np.array([3, 9])])


def test_one_iou_function():
    # NMS, oracle scoring and evaluation all measure IoU through family_iou
    assert package_uses("family_iou") == [
        ("evaluation", None), ("evaluation", "_ious"),
        ("pipeline", None), ("pipeline", "nms"),
        ("scoring", "best_ious"),
    ]


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
    instances = [gt(m, cls=k) for k, m in enumerate(disjoint_masks(rng, 200, 4, 40))]
    clusters = [cl(np.sort(rng.choice(200, 25, replace=False))) for _ in range(6)]
    batch = best_ious(clusters, instances)
    for k, c in enumerate(clusters):
        assert abs(batch[k] - best_iou(c, instances)) <= 1e-12


@pytest.mark.parametrize("n_clusters", [0, 1])
def test_best_ious_refuses_overlapping_ground_truth(n_clusters):
    instances = [gt(np.array([0, 1, 2])), gt(np.array([2, 3]), cls=2)]
    with pytest.raises(ValueError, match="disjoint family overlap"):
        best_ious([cl(np.array([0, 1]))][:n_clusters], instances)


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
    for bad in ([1.5], [np.nan, 0.5], [np.nan]):
        with pytest.raises(ValueError, match="IoU outside"):
            soft_labels(np.array(bad))
        with pytest.raises(ValueError, match="IoU outside"):
            score_loss(np.full(len(bad), 0.5), np.array(bad))
    assert soft_labels(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 0.5, 1.0]
    assert soft_labels(np.array([])).shape == (0,)


def test_score_loss_values():
    assert score_loss(np.array([1.0, 1.0]), np.array([1.0, 1.0])) <= 1e-6
    assert abs(score_loss(np.array([0.5]), np.array([0.5])) - np.log(2)) <= 1e-9
    with pytest.raises(ValueError, match="no clusters"):
        score_loss(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="^score/target length mismatch$"):
        score_loss(np.array([0.5, 0.5]), np.array([1.0]))


def test_score_loss_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    s = rng.uniform(0.01, 0.99, 40)
    ious = rng.uniform(0, 1, 40)
    t = soft_labels(ious)
    total = 0.0
    for k in range(40):
        total += -(t[k] * np.log(s[k]) + (1 - t[k]) * np.log(1 - s[k]))
    assert abs(score_loss(s, ious) - total / 40) <= 1e-9


def test_score_loss_minimized_at_target():
    ious = np.array([0.6])
    t = soft_labels(ious)[0]
    grid = np.linspace(0.01, 0.99, 99)
    losses = [score_loss(np.array([s]), ious) for s in grid]
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


@settings(max_examples=60)
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
    for scorer in Scorer:
        scores = score_clusters([], simple_scene, zero_offsets, scorer, model=ScorerModel.default())
        assert (scores.dtype, scores.shape) == (np.float64, (0,)), scorer


def _allocating_descriptors(clusters, scene, offsets) -> np.ndarray:
    """``cluster_descriptors`` as it was written before it worked in place:
    a new (m, 3) array per step.  The reference for its bits."""
    idx, sizes, starts = scoring._members(clusters)
    p = scene.coords[idx].astype(np.float64)
    q = p + offsets.offsets[idx]
    out = np.empty((len(clusters), 8), dtype=np.float64)
    out[:, 0] = np.log(sizes)
    out[:, 1:4] = np.maximum.reduceat(p, starts) - np.minimum.reduceat(p, starts)
    q = q - np.repeat(q[starts], sizes, axis=0)
    centroid = np.add.reduceat(q, starts) / sizes[:, None]
    diff = q - np.repeat(centroid, sizes, axis=0)
    dq = np.sqrt((diff * diff).sum(axis=1))
    out[:, 4] = np.add.reduceat(dq, starts) / sizes
    spread = dq - np.repeat(out[:, 4], sizes)
    out[:, 5] = np.sqrt(np.add.reduceat(spread * spread, starts) / sizes)
    out[:, 6] = 1.0
    if scene.sem_scores is not None:
        out[:, 6] = scoring._mean_class_prob(clusters, scene.sem_scores, idx, sizes, starts)
    out[:, 7] = [float(c.source.value) for c in clusters]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("with_scores", [True, False])
def test_cluster_descriptors_bit_equal_the_allocating_expression(seed, with_scores):
    # P and Q clusters of a generated room with offset noise: the in-place
    # steps keep every value's bits, so the MODEL scores made from them do
    _, observed, offsets = generate_sample(GenConfig(seed=seed, sigma0=0.01, beta=2.0))
    if not with_scores:
        observed = dataclasses.replace(observed, sem_scores=None)
    clusters = cluster_dual_set(observed, offsets, ClusterParams(0.03, 1))
    assert {c.source for c in clusters} == {Source.ORIGINAL, Source.SHIFTED}
    got = cluster_descriptors(clusters, observed, offsets)
    assert np.array_equal(got, _allocating_descriptors(clusters, observed, offsets))


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 300), min_size=2, max_size=40),
    hidden=st.integers(1, 32),
)
@pytest.mark.parametrize("scorer", list(Scorer))
def test_a_score_does_not_depend_on_its_batch(scorer, seed, sizes, hidden):
    # each cluster gets the bits it gets in its batch when scored alone, by
    # source, or by the jobs of ``cli._cluster_beside`` (Q whole, P by
    # label), which score what they find: every scorer reduces over each
    # cluster's own members, and the forward pass sums each row's products
    # in one order, where ``@`` takes another BLAS path for another row count
    scene, offsets, clusters = descriptor_inputs(seed, sizes, with_scores=True)
    labels = scene.sem_labels
    thing = ~np.isin(labels, list(scene.stuff_classes))
    key = labels * 3 + np.random.default_rng(seed).integers(0, 3, labels.size)
    inst = np.full(labels.size, -1)
    inst[thing] = np.unique(key[thing], return_inverse=True)[1]  # up to 3 instances a label
    scene = dataclasses.replace(scene, inst_ids=inst)
    assume(scorer is not Scorer.ORACLE or scene.n_instances)
    model = ScorerModel.default(hidden, seed)
    batch = score_clusters(clusters, scene, offsets, scorer, model).tolist()

    def job(c):
        return c.source, c.class_id if c.source is Source.ORIGINAL else None

    partitions = {
        "alone": [[c] for c in clusters],
        "by source": [[c for c in clusters if c.source is s] for s in Source],
        "by job": [[c for c in clusters if job(c) == j] for j in {job(c) for c in clusters}],
    }
    for name, parts in partitions.items():
        scores = {}
        for part in parts:
            scores.update(zip(map(id, part), score_clusters(part, scene, offsets, scorer, model)))
        assert [scores[id(c)] for c in clusters] == batch, name


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
    oracle = score_clusters(clusters, simple_scene, zero_offsets, Scorer.ORACLE)
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


@pytest.mark.parametrize("scorer", list(Scorer))
def test_score_clusters_records_a_scoring_span(simple_scene, zero_offsets, scorer):
    # the span is the scorer's own, so the library and each job of
    # ``cloudinst cluster`` report it alike
    clusters = [cl(np.array([0, 1, 2])), cl(np.array([3, 4]))]
    with recording() as spans:
        score_clusters(clusters, simple_scene, zero_offsets, scorer, ScorerModel.default())
    assert set(spans) == {"scoring"} and spans["scoring"] > 0.0


def test_score_clusters_missing_inputs(simple_scene, zero_offsets):
    clusters = [cl(np.array([0, 1, 2]))]
    no_instances = make_scene(simple_scene.coords, simple_scene.sem_labels, np.full(7, -1))
    with pytest.raises(ValueError, match="oracle"):
        score_clusters(clusters, no_instances, zero_offsets, Scorer.ORACLE)
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
    shapes = dict(mean=np.zeros(8), std=np.ones(8), w1=np.zeros((2, 8)), b1=np.zeros(2), w2=np.zeros(2))
    for name, bad in [("std", np.ones(7)), ("w1", np.zeros((2, 7))), ("w1", np.zeros((3, 8))), ("w2", np.zeros(3))]:
        with pytest.raises(ValueError, match="^inconsistent scorer model shapes$"):
            ScorerModel(**{**shapes, name: bad}, b2=0.0)
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


def test_scorer_model_default_rejects_a_non_integer_hidden():
    for hidden in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^hidden must be an integer, got {hidden}$"):
            ScorerModel.default(hidden=hidden)


def test_scorer_objective_gradient():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 8))
    y = rng.uniform(0, 1, 30)
    hidden = 6
    theta = rng.uniform(-0.5, 0.5, hidden * 8 + 2 * hidden + 1)
    err = gradient_check(lambda t: scorer_objective(t, x, y), theta)
    assert err <= 1e-5


def test_scorer_objective_refuses_a_vector_of_no_layout():
    # hidden * (dim + 2) + 1 parameters: 11 fit one hidden unit of 8-dim descriptors
    x, y = np.zeros((4, 8)), np.full(4, 0.5)
    for size in (0, 1, 10, 12, 20):
        with pytest.raises(ValueError, match=f"^{size} parameters fit no scorer model of 8-dim"):
            scorer_objective(np.zeros(size), x, y)
    assert scorer_objective(np.zeros(11), x, y)[1].shape == (11,)


def test_one_row_layout_for_files_and_training(tmp_path):
    model = ScorerModel.default(hidden=5, seed=3)
    rows = model._rows()
    assert [row.size for row in rows] == row_widths(8, 5)
    save_scorer(model, tmp_path / "m.scorer")
    lines = (tmp_path / "m.scorer").read_text().splitlines()
    assert [len(line.split()) for line in lines[1:]] == row_widths(8, 5)
    w1, b1, w2, b2 = _unpack_params(np.concatenate(rows[2:]), 8)
    assert np.array_equal(w1, model.w1) and np.array_equal(b1, model.b1)
    assert np.array_equal(w2, model.w2) and b2 == model.b2
    back = ScorerModel._from_rows(rows)._rows()
    assert all(np.array_equal(a, b) for a, b in zip(back, rows, strict=True))


def test_scorer_model_names_its_first_bad_row():
    # rows in file order: 0 mean, 1 std, 2-4 the rows of w1, 5 b1, 6 w2, 7 b2
    good = dict(mean=np.zeros(2), std=np.ones(2), w1=np.zeros((3, 2)), b1=np.zeros(3),
                w2=np.zeros(3), b2=0.0)
    for change, row, message in [
        (dict(std=np.zeros(2)), 1, "normalization stdev entries must be >= 1e-8"),
        (dict(w1=[[0, 0], [0, np.nan], [np.inf, 0]]), 3, "non-finite scorer model weights"),
        (dict(mean=[np.nan, 0], b1=[0, 0, np.inf]), 0, "non-finite scorer model weights"),
        (dict(std=np.zeros(2), b2=np.inf), 7, "non-finite scorer model weights"),
    ]:
        with pytest.raises(SceneError, match=f"^{message}$") as err:
            ScorerModel(**{**good, **change})
        assert err.value.point_index == row


def test_one_home_for_the_scorer_rows():
    # formats and cli reach a model's arrays only through scoring's row list
    found = []
    for stem in ("formats", "cli"):
        tree = ast.parse((Path(cloudinst.__file__).parent / f"{stem}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("mean", "std", "w1", "b1", "w2", "b2"):
                found.append((stem, node.attr))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ScorerModel":
                found.append((stem, "ScorerModel(...)"))
    assert found == []


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


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"epochs": -3}, "epochs must be >= 0, got -3"),
        ({"lr": float("nan")}, "lr must be a positive finite number, got nan"),
        ({"lr": float("inf")}, "lr must be a positive finite number, got inf"),
        ({"lr": 0.0}, "lr must be a positive finite number, got 0.0"),
        ({"lr": -0.5}, "lr must be a positive finite number, got -0.5"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"epochs": 2.0}, "epochs must be an integer, got 2.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"hidden": 3.0}, "hidden must be an integer, got 3.0"),
        ({"hidden": True}, "hidden must be an integer, got True"),
        ({"hidden": 0}, "scorer model dimensions must be >= 1, got 8x0"),
    ],
)
def test_train_scorer_rejects_bad_schedule(kwargs, message):
    def corpus():
        raise AssertionError("the schedule is checked before any clustering")
        yield

    with pytest.raises(ValueError, match=f"^{message}$"):
        train_scorer(corpus(), **kwargs)


def test_train_scorer_trains_on_an_offset_near_the_float64_limit():
    # the descriptors read that offset within the float32 range, so their
    # spread over the corpus stays finite; it once overflowed in ``x.std``
    data = corpus(range(2)) + [float64_limit_offset_scene()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_scorer(data, hidden=8, epochs=20, cluster_params=ClusterParams(0.05, 1)).model
    assert all(np.isfinite(getattr(model, f.name)).all() for f in dataclasses.fields(model))


def test_harvest_refuses_a_scene_with_clusters_but_no_instances():
    # two groups of a thing class, every point unassigned: P clusters them
    scene = two_object_scene()
    scene = make_scene(scene.coords, scene.sem_labels, np.full(scene.n_points, -1))
    offsets = OffsetField(np.zeros((scene.n_points, 3)))
    assert cluster_dual_set(scene, offsets, ClusterParams(0.03, 1))
    with pytest.raises(ValueError, match="^training scene has no ground-truth instances$"):
        harvest_training_set([(scene, offsets)], ClusterParams(0.03, 1))


def test_train_scorer_empty_corpus_rejected():
    scene = make_scene([[0, 0, 0], [5, 5, 5]], [1, 1], [0, 1])
    offsets = OffsetField(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="no clusters"):
        # min_points default 50 discards everything in this tiny scene
        train_scorer([(scene, offsets)])
