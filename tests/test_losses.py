import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from cloudinst.core import OffsetField, SceneError
from cloudinst.losses import (
    DIR_EPS,
    LossReport,
    distance_histogram,
    gradient_check,
    instance_centroids,
    offset_direction_grad,
    offset_direction_loss,
    offset_objective,
    offset_regression_grad,
    offset_regression_loss,
    offset_targets,
    semantic_loss,
    total_loss,
)
from cloudinst.synth import GenConfig, generate_sample, generate_scene

from conftest import float64_limit_offset_scene, make_scene


def scene_one_instance(points, extra_stuff=True):
    pts = list(points)
    labels = [1] * len(pts)
    insts = [0] * len(pts)
    if extra_stuff:
        pts.append([9.0, 9.0, 9.0])
        labels.append(0)
        insts.append(-1)
    return make_scene(pts, labels, insts)


def test_centroid_of_pair():
    scene = scene_one_instance([[0, 0, 0], [2, 0, 0]])
    assert np.allclose(instance_centroids(scene), [[1, 0, 0]])


def test_centroid_single_point_instance():
    scene = scene_one_instance([[0.5, -0.25, 3.0]])
    assert np.allclose(instance_centroids(scene), [[0.5, -0.25, 3.0]])


def test_centroid_permutation_stability():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, (500, 3))
    scene = scene_one_instance(pts.tolist(), extra_stuff=False)
    base = instance_centroids(scene)[0]
    perm = rng.permutation(500)
    scene2 = scene_one_instance(pts[perm].tolist(), extra_stuff=False)
    assert np.abs(instance_centroids(scene2)[0] - base).max() <= 1e-9


def _add_at_centroids(scene):
    """The centroids as ``np.add.at`` sums, row by row, over ``np.bincount``
    counts: the reference of ``instance_centroids``."""
    on_inst = scene.inst_ids >= 0
    ids = scene.inst_ids[on_inst].astype(np.int64)
    sums = np.zeros((scene.n_instances, 3), dtype=np.float64)
    np.add.at(sums, ids, scene.coords[on_inst].astype(np.float64))
    return sums / np.bincount(ids, minlength=scene.n_instances).astype(np.float64)[:, None]


@pytest.mark.parametrize("p_sem", [0.0, 0.2])
@pytest.mark.parametrize("seed", range(5))
def test_centroids_are_bit_equal_to_the_add_at_sums(seed, p_sem):
    # np.add.reduceat sums a run pairwise, but these rooms' float32
    # coordinates sum exactly in float64, so the order cannot show. Label
    # noise drops flipped points from their instances and renumbers the rest
    _, observed, _ = generate_sample(GenConfig(seed=seed, p_sem=p_sem, sem_temperature=0.5))
    assert observed.n_instances
    got = instance_centroids(observed)
    assert got.dtype == np.float64 and got.tobytes() == _add_at_centroids(observed).tobytes()


def test_centroids_match_the_add_at_sums_within_float64_rounding():
    # coordinates over 23 decades, whose float64 sums round: a sum of n terms
    # errs by at most (n - 1) eps times the sum of their magnitudes, so two
    # orders of summation give means at most 2 eps times that sum apart
    rng = np.random.default_rng(3)
    coords = rng.uniform(-1, 1, (2000, 3)) * 10.0 ** rng.integers(-20, 3, (2000, 1))
    scene = make_scene(coords, np.ones(2000), rng.integers(0, 4, 2000))
    magnitudes = np.zeros((scene.n_instances, 3))
    np.add.at(magnitudes, scene.inst_ids, np.abs(scene.coords.astype(np.float64)))
    gap = np.abs(instance_centroids(scene) - _add_at_centroids(scene))
    assert np.all(gap <= 2 * np.finfo(np.float64).eps * magnitudes)


def test_centroids_require_instances():
    scene = make_scene([[0, 0, 0]], [0], [-1])
    with pytest.raises(ValueError, match="no instances"):
        instance_centroids(scene)


@pytest.mark.parametrize(
    "loss",
    [
        offset_regression_loss, offset_regression_grad, offset_direction_loss,
        offset_direction_grad, lambda pred, scene: distance_histogram(scene),
    ],
    ids=["regression", "regression grad", "direction", "direction grad", "histogram"],
)
def test_offset_losses_require_instance_points(loss):
    scene = make_scene([[0, 0, 0], [1, 0, 0]], [0, 1], [-1, -1])
    with pytest.raises(ValueError, match="^scene has no instance points$"):
        loss(OffsetField(np.zeros((2, 3))), scene)


def test_offset_targets_zero_at_centroid_and_stuff():
    scene = scene_one_instance([[0, 0, 0], [2, 0, 0]])
    targets = offset_targets(scene).offsets
    assert np.allclose(targets[0], [1, 0, 0])
    assert np.allclose(targets[1], [-1, 0, 0])
    assert np.allclose(targets[2], 0.0)  # stuff point


def test_offset_targets_composition_reproduces_centroids():
    scene, _ = generate_scene(GenConfig(seed=5, n_objects=3, density=400.0,
                                        stuff_density=10.0, min_object_points=30))
    targets = offset_targets(scene)
    shifted = scene.coords.astype(np.float64) + targets.offsets
    cents = instance_centroids(scene)
    on_inst = scene.inst_ids >= 0
    err = np.abs(shifted[on_inst] - cents[scene.inst_ids[on_inst]]).max()
    assert err <= 1e-9


def test_semantic_loss_perfect_and_uniform():
    scores = np.array([[0, 1, 0, 0]], dtype=np.float64)
    assert semantic_loss(scores, np.array([1])) == 0.0
    uniform = np.full((3, 4), 0.25)
    assert abs(semantic_loss(uniform, np.array([0, 1, 3])) - np.log(4)) <= 1e-12


def test_semantic_loss_ignores_unlabeled_and_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    raw = rng.random((50, 6))
    scores = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(-1, 6, 50)
    if not (labels >= 0).any():
        labels[0] = 2
    total = 0.0
    count = 0
    for i in range(50):
        if labels[i] >= 0:
            total += -np.log(max(scores[i, labels[i]], 1e-12))
            count += 1
    expect = total / count
    assert abs(semantic_loss(scores, labels) - expect) <= 1e-9


def test_semantic_loss_requires_labeled_points():
    with pytest.raises(ValueError, match="no labeled"):
        semantic_loss(np.full((2, 3), 1 / 3), np.array([-1, -1]))


@pytest.mark.parametrize(
    "scores,labels", [(np.full(3, 1 / 3), [0, 1, 2]), (np.full((2, 3), 1 / 3), [0, 1, 2])]
)
def test_semantic_loss_refuses_scores_not_one_row_per_label(scores, labels):
    with pytest.raises(ValueError, match=r"^sem_scores must be \(n, n_classes\) with one label per row$"):
        semantic_loss(scores, labels)


@pytest.mark.parametrize(
    "label,message",
    [
        # numpy's IndexError, or silently left out, before labels took the scene's rule
        (2, "semantic label 2 out of range at point 1"),
        (5, "semantic label 5 out of range at point 1"),
        (-2, "semantic label -2 out of range at point 1"),
        (1.5, "semantic label 1.5 at point 1 is not an integer in the int32 range"),
        (2**32 + 1, "semantic label 4294967297 at point 1 is not an integer in the int32 range"),
        (True, "semantic label True at point 1 is not an integer in the int32 range"),
    ],
)
def test_semantic_loss_refuses_a_label_outside_the_scene_rule(label, message):
    scores = np.full((3, 2), 0.5)
    with pytest.raises(SceneError) as err:
        semantic_loss(scores, [0, label, 1])
    assert str(err.value) == message and err.value.point_index == 1


def test_semantic_loss_takes_integral_labels_of_any_dtype():
    scores = np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]])
    expect = semantic_loss(scores, np.array([1, -1, 0], np.int32))
    for labels in ([1, -1, 0], [1.0, -1.0, 0.0], np.array([1, -1, 0], np.int64)):
        assert semantic_loss(scores, labels) == expect


def test_regression_loss_zero_at_targets():
    scene = scene_one_instance([[0, 0, 0], [2, 0, 0]])
    assert offset_regression_loss(offset_targets(scene), scene) == 0.0


def test_regression_loss_l1_arithmetic():
    # both instance points have |residual|_1 = 3.5 under a zero prediction
    scene = make_scene([[0, 0, 0], [2, -4, 1]], [1, 1], [0, 0])
    pred = OffsetField(np.zeros((2, 3)))
    target0 = offset_targets(scene).offsets[0]
    assert np.allclose(target0, [1.0, -2.0, 0.5])
    assert abs(offset_regression_loss(pred, scene) - 3.5) <= 1e-12


def test_regression_loss_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    scene, _ = generate_scene(GenConfig(seed=2, n_objects=2, density=300.0,
                                        stuff_density=10.0, min_object_points=25))
    pred = OffsetField(rng.uniform(-1, 1, (scene.n_points, 3)))
    targets = offset_targets(scene).offsets
    total = 0.0
    count = 0
    for i in range(scene.n_points):
        if scene.inst_ids[i] >= 0:
            total += sum(abs(pred.offsets[i, k] - targets[i, k]) for k in range(3))
            count += 1
    assert abs(offset_regression_loss(pred, scene) - total / count) <= 1e-9


def test_direction_loss_aligned_and_opposite():
    scene = scene_one_instance([[0, 0, 0], [2, 0, 0]])
    targets = offset_targets(scene).offsets
    assert abs(offset_direction_loss(OffsetField(targets * 0.1), scene) + 1.0) <= 1e-12
    assert abs(offset_direction_loss(OffsetField(targets * -3.0), scene) - 1.0) <= 1e-12


def test_direction_loss_scale_invariance():
    rng = np.random.default_rng(3)
    scene, _ = generate_scene(GenConfig(seed=3, n_objects=2, density=300.0,
                                        stuff_density=10.0, min_object_points=25))
    pred = rng.uniform(-0.5, 0.5, (scene.n_points, 3))
    a = offset_direction_loss(OffsetField(pred), scene)
    b = offset_direction_loss(OffsetField(pred * 7.0), scene)
    assert abs(a - b) <= 1e-6
    assert -1.0 <= a <= 1.0
    # an offset near the float64 limit reads as it does scaled by 2**-1000,
    # which is exact: the norm it takes does not overflow
    scene, offsets = float64_limit_offset_scene()
    scaled = OffsetField(np.ldexp(offsets.offsets, -1000))
    assert offset_direction_loss(offsets, scene) == offset_direction_loss(scaled, scene) != 0.0


def test_direction_gradient_at_the_float64_limit_is_the_scaled_one():
    # the gradient of a cosine scales as one over the offset's length
    scene, offsets = float64_limit_offset_scene()
    grad = offset_direction_grad(offsets, scene)
    scaled = offset_direction_grad(OffsetField(np.ldexp(offsets.offsets, -1000)), scene)
    assert np.isfinite(grad[0]).all() and grad[0].any()
    assert np.array_equal(grad, np.ldexp(scaled, -1000))


def test_direction_rescaling_keeps_the_unscaled_values():
    # rows below 1 m keep scale 1 and the bits of the plain formulas below;
    # from 1 m the power-of-two scale cancels exactly in the cosine, and the
    # gradient moves by rounding at most, since numpy's x**3 is not exactly
    # scale-covariant
    scene, _ = generate_scene(GenConfig(seed=5, n_objects=3, density=300.0,
                                        stuff_density=10.0, min_object_points=25))
    rng = np.random.default_rng(5)
    pred = rng.uniform(-1, 1, (scene.n_points, 3))
    pred *= np.where(rng.random(scene.n_points) < 0.5, 0.9, 1e3)[:, None]
    mask = scene.inst_ids >= 0
    o, t = pred[mask], offset_targets(scene).offsets[mask]
    no, nt = np.linalg.norm(o, axis=1), np.linalg.norm(t, axis=1)
    valid = (no >= DIR_EPS) & (nt >= DIR_EPS)
    cos = np.zeros(o.shape[0])
    cos[valid] = (o[valid] * t[valid]).sum(axis=1) / (no[valid] * nt[valid])
    assert offset_direction_loss(OffsetField(pred), scene) == float(-cos.mean())
    ov, nov = o[valid], no[valid][:, None]
    that = t[valid] / nt[valid][:, None]
    dot = (ov * that).sum(axis=1, keepdims=True)
    ref = np.zeros_like(pred)
    ref[np.flatnonzero(mask)[valid]] = -(that / nov - dot * ov / nov**3) / mask.sum()
    grad = offset_direction_grad(OffsetField(pred), scene)
    small = np.abs(pred).max(axis=1) < 1.0
    assert small.sum() > 100 and (~small & mask).sum() > 100
    assert np.array_equal(grad[small], ref[small])
    assert (np.abs(grad - ref) <= 1e-14 * np.abs(ref).max(axis=1, keepdims=True)).all()


def test_regression_loss_of_an_offset_near_the_float64_limit_is_finite():
    # the first point's L1 residual (3.4e308) is beyond float64; the mean over
    # the two points is not
    scene = make_scene([[0, 0, 0], [1, 0, 0]], [1, 1], [0, 0])
    pred = OffsetField([[1.7e308, 1.7e308, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert offset_regression_loss(pred, scene) == 1.7e308


def test_regression_rescaling_keeps_the_unscaled_value():
    # the power-of-two scale of the largest residual cancels exactly in the
    # sums and the mean, with residuals both below and above 1 m
    scene, _ = generate_scene(GenConfig(seed=5, n_objects=3, density=300.0,
                                        stuff_density=10.0, min_object_points=25))
    rng = np.random.default_rng(5)
    pred = rng.uniform(-1, 1, (scene.n_points, 3))
    pred *= np.where(rng.random(scene.n_points) < 0.5, 0.01, 1e3)[:, None]
    mask = scene.inst_ids >= 0
    res = np.abs(pred[mask] - offset_targets(scene).offsets[mask])
    assert (res.max(axis=1) < 1.0).sum() > 100 and (res.max(axis=1) >= 1.0).sum() > 100
    assert offset_regression_loss(OffsetField(pred), scene) == float(res.sum(axis=1).mean())


def test_direction_loss_degenerate_offsets_contribute_zero():
    scene = make_scene([[0, 0, 0], [2, 0, 0]], [1, 1], [0, 0])
    pred = np.array([[0, 0, 0], [0, 0, 1.0]])  # first offset is zero-length
    # second point: target (-1,0,0), offset (0,0,1) -> cosine 0
    assert offset_direction_loss(OffsetField(pred), scene) == 0.0


def test_total_loss_report():
    report = total_loss(0.0, 0.0, 0.0, 0.0)
    assert report.total == 0.0
    report = total_loss(1.0, 2.0, -1.0, 0.5)
    assert report.total == 2.5
    parts = (0.3, 0.7, -0.2, 0.1)
    report = total_loss(*parts)
    assert report.total == sum(parts)
    assert isinstance(report, LossReport)
    with pytest.raises(ValueError, match="non-finite"):
        total_loss(np.inf, 0, 0, 0)


def test_gradient_check_exact_for_linear():
    w = np.array([1.0, -2.0, 3.0])

    def f(x):
        return float(w @ x), w

    assert gradient_check(f, np.array([0.5, 0.5, 0.5])) <= 1e-10


def test_gradient_check_refuses_a_gradient_of_another_shape_and_a_non_finite_value():
    with pytest.raises(ValueError, match="^gradient shape does not match parameter shape$"):
        gradient_check(lambda x: (float(x.sum()), np.ones(x.size + 1)), np.zeros(3))

    def f(x):  # finite at x0, infinite one step up component 1
        return (np.inf if x[1] > 0 else float(x.sum())), np.ones(3)

    with pytest.raises(ValueError, match="^non-finite loss evaluation at component 1$"):
        gradient_check(f, np.zeros(3))


def test_regression_gradient_matches_central_differences():
    scene, _ = generate_scene(GenConfig(seed=4, n_objects=2, density=120.0,
                                        stuff_density=0.0, min_object_points=20))
    rng = np.random.default_rng(4)
    n = scene.n_points
    residual = rng.uniform(0.02, 0.3, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    base = offset_targets(scene).offsets + residual
    obj = offset_objective(scene, offset_regression_loss, offset_regression_grad)
    assert gradient_check(obj, base.ravel()) <= 1e-5


def test_direction_gradient_matches_central_differences():
    scene, _ = generate_scene(GenConfig(seed=5, n_objects=2, density=120.0,
                                        stuff_density=0.0, min_object_points=20))
    rng = np.random.default_rng(5)
    n = scene.n_points
    base = rng.uniform(0.1, 0.5, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    obj = offset_objective(scene, offset_direction_loss, offset_direction_grad)
    assert gradient_check(obj, base.ravel()) <= 1e-5


def test_one_home_for_the_flat_offset_objective():
    # OffsetField(<flat>.reshape(...)) turns a gradient_check vector into a
    # field; offset_objective is the one place that does it
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted(p for d in ("src", "tests", "demos") for p in (root / d).rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call) and node.args
                    and "OffsetField" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    and isinstance(node.args[0], ast.Call)
                    and getattr(node.args[0].func, "attr", None) == "reshape"
                ):
                    found.append((path.name, getattr(top, "name", "<module>")))
    assert found == [("losses.py", "offset_objective")]


def test_histogram_mass_at_zero_and_normalization():
    scene = make_scene(
        [[1, 1, 0], [1, 1, 0], [3, 3, 0], [3, 3, 0]],
        [1, 1, 2, 2], [0, 0, 1, 1],
    )
    hist = distance_histogram(scene)
    assert hist.shape == (21,)
    assert hist[0] == 1.0
    assert abs(hist.sum() - 1.0) <= 1e-9


def test_histogram_synthetic_corpus_concentrates_below_one_meter():
    masses = []
    for seed in range(5):
        scene, _ = generate_scene(GenConfig(seed=seed, n_objects=4, density=400.0,
                                            stuff_density=10.0, min_object_points=30))
        hist = distance_histogram(scene)
        assert abs(hist.sum() - 1.0) <= 1e-9
        masses.append(hist[:10].sum())
    assert min(masses) > 0.95
