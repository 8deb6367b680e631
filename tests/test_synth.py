import numpy as np
import pytest

from cloudinst.clustering import ClusterParams, cluster_single_set
from cloudinst.core import Source, ground_truth_instances, scenes_equal
from cloudinst.losses import instance_centroids
from cloudinst.synth import (
    GenConfig,
    generate_sample,
    generate_scene,
    perturb_offsets,
    perturb_semantics,
)


def small_cfg(**kw):
    base = dict(seed=0, n_objects=3, density=500.0, stuff_density=15.0,
                min_object_points=40)
    base.update(kw)
    return GenConfig(**base)


def test_seed_determinism():
    a, off_a = generate_scene(small_cfg(seed=11))
    b, off_b = generate_scene(small_cfg(seed=11))
    assert scenes_equal(a, b)
    assert np.array_equal(off_a.offsets, off_b.offsets)
    c, _ = generate_scene(small_cfg(seed=12))
    assert not scenes_equal(a, c)


def test_generated_scenes_satisfy_invariants():
    # Scene.__init__ enforces the invariants; also check generator promises
    for seed in range(6):
        scene, offsets = generate_scene(small_cfg(seed=seed))
        assert scene.n_instances == 3
        assert scene.sem_scores is not None
        labeled = scene.sem_labels >= 0
        assert labeled.all()
        gt = ground_truth_instances(scene)
        for g in gt:
            assert np.unique(scene.sem_labels[g.point_idx]).size == 1
        # spatial disjointness: instance bounding boxes do not interpenetrate
        assert offsets.n_points == scene.n_points
        stuff = scene.stuff_mask()
        assert np.all(offsets.offsets[stuff] == 0.0)


def test_oracle_offsets_collapse_instances():
    scene, offsets = generate_scene(small_cfg(seed=3))
    q = scene.coords.astype(np.float64) + offsets.offsets
    cents = instance_centroids(scene)
    on_inst = scene.inst_ids >= 0
    dist = np.linalg.norm(q[on_inst] - cents[scene.inst_ids[on_inst]], axis=1)
    assert dist.max() < 1e-6


def test_perturb_semantics_identity_and_total_flip():
    scene, _ = generate_scene(small_cfg(seed=1))
    same = perturb_semantics(scene, p_sem=0.0, temperature=0.0, seed=5)
    assert scenes_equal(scene, same)
    flipped = perturb_semantics(scene, p_sem=1.0, temperature=0.0, seed=5)
    mask = ~scene.stuff_mask()
    assert np.all(flipped.sem_labels[mask] != scene.sem_labels[mask])
    assert np.array_equal(
        flipped.sem_labels[~mask], scene.sem_labels[~mask]
    )
    assert flipped.n_instances == 0  # flipped points leave their instances


def test_perturb_semantics_flip_fraction_binomial():
    cfg = GenConfig(seed=7, n_objects=16, density=9000.0, stuff_density=10.0,
                    room=(7.0, 7.0, 3.0), min_object_points=100)
    scene, _ = generate_scene(cfg)
    eligible = (~scene.stuff_mask()).sum()
    assert eligible >= 100_000
    p = 0.3
    noisy = perturb_semantics(scene, p_sem=p, temperature=0.0, seed=9)
    frac = (noisy.sem_labels != scene.sem_labels).sum() / eligible
    assert abs(frac - p) <= 0.02


def test_perturb_semantics_flips_stay_non_stuff_and_scores_follow():
    scene, _ = generate_scene(small_cfg(seed=2))
    noisy = perturb_semantics(scene, p_sem=0.5, temperature=0.7, seed=3)
    changed = noisy.sem_labels != scene.sem_labels
    assert changed.any()
    assert not np.isin(noisy.sem_labels[changed], sorted(noisy.stuff_classes)).any()
    # scene validity (argmax consistency etc.) is enforced by the constructor;
    # spot-check the softened rows anyway
    labeled = noisy.sem_labels >= 0
    am = np.argmax(noisy.sem_scores[labeled], axis=1)
    assert np.array_equal(am, noisy.sem_labels[labeled])
    # contiguous surviving instance ids
    live = noisy.inst_ids[noisy.inst_ids >= 0]
    if live.size:
        assert np.array_equal(np.unique(live), np.arange(live.max() + 1))


def test_perturb_semantics_requires_two_thing_classes():
    scene, _ = generate_scene(
        small_cfg(seed=1, thing_classes=(1,), stuff_classes=(0,), n_classes=2)
    )
    with pytest.raises(ValueError, match="at least 2"):
        perturb_semantics(scene, p_sem=0.5, temperature=0.0, seed=0)


def test_perturb_offsets_identity_and_determinism():
    scene, offsets = generate_scene(small_cfg(seed=4))
    assert perturb_offsets(offsets, scene, 0.0, 2.0, seed=1) is offsets
    a = perturb_offsets(offsets, scene, 0.01, 2.0, seed=1)
    b = perturb_offsets(offsets, scene, 0.01, 2.0, seed=1)
    assert np.array_equal(a.offsets, b.offsets)
    stuff = scene.stuff_mask()
    assert np.array_equal(a.offsets[stuff], offsets.offsets[stuff])


def test_perturb_offsets_stdev_matches_formula():
    # one instance point at a known distance from its centroid
    from conftest import make_scene
    from cloudinst.core import OffsetField

    scene = make_scene([[0, 0, 0], [1, 0, 0]], [1, 1], [0, 0])
    offsets = OffsetField(np.zeros((2, 3)))
    sigma0, beta = 0.02, 3.0
    d = 0.5  # both points are 0.5 from the centroid
    expect = sigma0 * (1 + beta * d)
    samples = []
    for seed in range(10_000):
        noisy = perturb_offsets(offsets, scene, sigma0, beta, seed=seed)
        samples.append(noisy.offsets[0])
    measured = np.asarray(samples).std(axis=0)
    assert np.all(np.abs(measured - expect) / expect < 0.05)


def test_perturb_offsets_boundary_points_noisier():
    rng = np.random.default_rng(0)
    from conftest import make_scene
    from cloudinst.core import OffsetField

    # an instance spread along x: far points get larger noise when beta >> 0
    xs = np.linspace(0, 2, 400)
    coords = np.column_stack([xs, np.zeros(400), np.zeros(400)])
    scene = make_scene(coords, np.ones(400, np.int32), np.zeros(400, np.int32))
    offsets = OffsetField(np.zeros((400, 3)))
    noisy = perturb_offsets(offsets, scene, 0.01, 8.0, seed=2)
    err = np.linalg.norm(noisy.offsets, axis=1)
    d = np.abs(xs - 1.0)
    far = err[d > 0.8].mean()
    near = err[d < 0.2].mean()
    assert far > near


def test_isolated_objects_recovered_by_single_set_clustering():
    # gaps far above the radius plus zero noise: original-space clustering
    # alone recovers every instance exactly (density high enough that every
    # object surface is fully connected at the radius)
    cfg = small_cfg(seed=6, min_gap=0.3, density=6000.0)
    scene, _ = generate_scene(cfg)
    clusters = cluster_single_set(
        scene.coords, scene.sem_labels, scene.stuff_classes,
        ClusterParams(0.03, 50), Source.ORIGINAL,
    )
    gt = ground_truth_instances(scene)
    assert len(clusters) == len(gt)
    got = {tuple(c.point_idx.tolist()) for c in clusters}
    want = {tuple(g.point_idx.tolist()) for g in gt}
    assert got == want


def test_adjacent_pairs_merge_in_p_only():
    cfg = GenConfig(seed=8, n_objects=4, same_class_gap=0.02, density=2500.0,
                    stuff_density=10.0, min_object_points=60)
    scene, offsets = generate_scene(cfg)
    params = ClusterParams(0.03, 50)
    p = cluster_single_set(
        scene.coords, scene.sem_labels, scene.stuff_classes, params, Source.ORIGINAL
    )
    q = cluster_single_set(
        scene.coords.astype(np.float64) + offsets.offsets,
        scene.sem_labels, scene.stuff_classes, params, Source.SHIFTED,
    )
    gt = ground_truth_instances(scene)
    assert len(p) < len(gt)  # at least one merged pair
    assert len(q) == len(gt)  # shifted space separates all of them
    got = {tuple(c.point_idx.tolist()) for c in q}
    want = {tuple(g.point_idx.tolist()) for g in gt}
    assert got == want


def test_generate_sample_wires_noise_through():
    cfg = small_cfg(seed=9, p_sem=0.2, sem_temperature=0.5, sigma0=0.01, beta=1.0)
    clean, observed, offsets = generate_sample(cfg)
    assert clean.n_points == observed.n_points == offsets.n_points
    assert (observed.sem_labels != clean.sem_labels).any()
    assert not np.array_equal(offsets.offsets, np.zeros_like(offsets.offsets))
    clean2, observed2, offsets2 = generate_sample(cfg)
    assert scenes_equal(observed, observed2)
    assert np.array_equal(offsets.offsets, offsets2.offsets)


def test_density_dip_thins_one_side():
    dense, _ = generate_scene(small_cfg(seed=10))
    dipped, _ = generate_scene(small_cfg(seed=10, density_dip=0.6, dip_fraction=0.6))
    assert dipped.n_points < dense.n_points


def test_placement_failure_raises():
    cfg = GenConfig(seed=0, room=(1.0, 1.0, 2.0), n_objects=30, density=100.0,
                    min_gap=0.5, min_object_points=10)
    with pytest.raises(ValueError, match="could not place"):
        generate_scene(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(room=(0, 1, 1))
    with pytest.raises(ValueError):
        GenConfig(thing_classes=(2,), stuff_classes=(2,))
    with pytest.raises(ValueError):
        GenConfig(p_sem=1.5)
    with pytest.raises(ValueError):
        GenConfig(density=-1)
    with pytest.raises(ValueError):
        GenConfig(same_class_gap=0.0)
