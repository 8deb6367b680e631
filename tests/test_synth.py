import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudinst.clustering import ClusterParams, cluster_single_set
from cloudinst import synth
from cloudinst.core import Source, ground_truth_instances, never_clustered, scenes_equal
from cloudinst.losses import instance_centroids
from cloudinst.synth import (
    STUFF_CLASSES,
    GenConfig,
    generate_sample,
    generate_scene,
    perturb_offsets,
    perturb_semantics,
)

from conftest import placed_objects, run_alone


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
        stuff = never_clustered(scene.sem_labels, scene.stuff_classes)
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
    # a draw that flips no point, and a scene with no point to flip or renumber
    assert scenes_equal(scene, perturb_semantics(scene, p_sem=1e-12, temperature=0.0, seed=5))
    stuff, _ = generate_scene(small_cfg(n_objects=0))
    assert scenes_equal(stuff, perturb_semantics(stuff, p_sem=0.5, temperature=0.0, seed=5))
    flipped = perturb_semantics(scene, p_sem=1.0, temperature=0.0, seed=5)
    mask = ~never_clustered(scene.sem_labels, scene.stuff_classes)
    assert np.all(flipped.sem_labels[mask] != scene.sem_labels[mask])
    assert np.array_equal(
        flipped.sem_labels[~mask], scene.sem_labels[~mask]
    )
    assert flipped.n_instances == 0  # flipped points leave their instances


def test_soften_scores_at_zero_temperature_is_one_hot_and_keeps_unlabelled_rows():
    scores = np.random.default_rng(0).random((6, 4)).astype(np.float32)
    labels = np.array([2, -1, 0, 3, -1, 1])
    got = synth._soften_scores(scores, labels, 4, 0.0)
    labeled = labels >= 0
    assert got.dtype == np.float32
    assert np.array_equal(got[labeled], np.eye(4, dtype=np.float32)[labels[labeled]])
    assert np.array_equal(got[~labeled], scores[~labeled])
    assert np.array_equal(synth._soften_scores(scores, np.full(6, -1), 4, 0.0), scores)


def test_perturb_semantics_flip_fraction_binomial():
    cfg = GenConfig(seed=7, n_objects=16, density=9000.0, stuff_density=10.0,
                    room=(7.0, 7.0, 3.0), min_object_points=100)
    scene, _ = generate_scene(cfg)
    eligible = (~never_clustered(scene.sem_labels, scene.stuff_classes)).sum()
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


def _flips_by_class_list(scene, p_sem, seed):
    """The labels ``perturb_semantics`` draws, from a list of every thing class."""
    things = np.array(sorted(set(range(scene.n_classes)) - scene.stuff_classes))
    labels = scene.sem_labels.copy()
    eligible = np.flatnonzero(~never_clustered(labels, scene.stuff_classes))
    rng = synth._rng(seed, 101)
    flip = eligible[rng.random(eligible.size) < p_sem]
    draw = rng.integers(0, things.size - 1, flip.size)
    draw += draw >= np.searchsorted(things, labels[flip])
    labels[flip] = things[draw]
    return labels


@pytest.mark.parametrize("seed", range(8))
def test_label_flips_match_the_class_list_reference(seed):
    # stuff ids anywhere among the classes, the thing classes between them
    from conftest import make_scene

    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(3, 40))
    stuff = rng.choice(n_classes, int(rng.integers(0, n_classes - 1)), replace=False)
    things = np.setdiff1d(np.arange(n_classes), stuff)
    labels = rng.choice(np.concatenate([things, stuff]), 200)
    scene = make_scene(
        rng.random((200, 3)), labels, np.full(200, -1), n_classes=n_classes,
        stuff_classes=frozenset(stuff.tolist()), sem_scores=None,
    )
    noisy = perturb_semantics(scene, p_sem=0.6, temperature=0.0, seed=seed)
    assert np.array_equal(noisy.sem_labels, _flips_by_class_list(scene, 0.6, seed))


def test_label_flips_among_every_int32_class_build_no_class_list():
    # set(range(n_classes)) raised MemoryError at 2**31 - 1 classes
    (line,) = run_alone(
        "from cloudinst import Scene\n"
        "from cloudinst.synth import perturb_semantics\n"
        "top = 2**31 - 1\n"
        "scene = Scene(n_classes=top, coords=[[0, 0, 0], [1, 0, 0]], colors=[[0, 0, 0]] * 2,\n"
        "              sem_labels=[5, top - 1], inst_ids=[0, 1], stuff_classes={0, 1, top - 2})\n"
        "print(*perturb_semantics(scene, 1.0, 0.0, 3).sem_labels)\n"
    )
    top = 2**31 - 1
    labels = [int(v) for v in line.split()]
    assert labels[0] != 5 and labels[1] != top - 1
    assert all(2 <= v < top and v != top - 2 for v in labels)


def test_perturb_semantics_requires_two_thing_classes():
    from conftest import make_scene

    scene = make_scene([[0, 0, 0], [1, 0, 0]], [0, 1], [-1, 0], n_classes=2)
    with pytest.raises(ValueError, match="at least 2"):
        perturb_semantics(scene, p_sem=0.5, temperature=0.0, seed=0)


def test_perturb_offsets_identity_and_determinism():
    scene, offsets = generate_scene(small_cfg(seed=4))
    assert perturb_offsets(offsets, scene, 0.0, 2.0, seed=1) is offsets
    a = perturb_offsets(offsets, scene, 0.01, 2.0, seed=1)
    b = perturb_offsets(offsets, scene, 0.01, 2.0, seed=1)
    assert np.array_equal(a.offsets, b.offsets)
    stuff = never_clustered(scene.sem_labels, scene.stuff_classes)
    assert np.array_equal(a.offsets[stuff], offsets.offsets[stuff])
    # a scene with no instance point has no offset to perturb
    bare, zero = generate_scene(small_cfg(n_objects=0))
    noisy = perturb_offsets(zero, bare, 0.01, 2.0, seed=1)
    assert noisy is not zero and np.array_equal(noisy.offsets, zero.offsets)


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


def test_room_planes():
    # a floor at z = 0 and four walls on the room's sides, each with one colour
    room = (6.0, 4.0, 2.5)
    scene, _ = generate_scene(small_cfg(seed=3, room=room))
    coords, colors = scene.coords, scene.colors
    floor_class, wall_class = STUFF_CLASSES
    floor = scene.sem_labels == floor_class
    assert floor.sum() == round(room[0] * room[1] * 15.0)
    assert np.all(coords[floor, 2] == 0.0)
    assert np.all((coords[floor, :2] >= 0) & (coords[floor, :2] <= room[:2]))
    assert np.unique(colors[floor], axis=0).shape[0] == 1
    assert np.all((colors[floor] >= 110) & (colors[floor] < 150))
    wall = scene.sem_labels == wall_class
    assert np.all(scene.inst_ids[floor | wall] == -1)
    planes = [(0, 0.0), (0, room[0]), (1, 0.0), (1, room[1])]
    on_plane = [wall & (coords[:, axis] == np.float32(value)) for axis, value in planes]
    assert np.array_equal(np.sum(on_plane, axis=0), wall)  # each wall point on exactly one plane
    for (axis, _), on in zip(planes, on_plane):
        side = room[1 - axis]
        assert on.sum() == round(side * room[2] * 15.0)
        assert np.all((coords[on, 1 - axis] >= 0) & (coords[on, 1 - axis] <= side))
        assert np.all((coords[on, 2] >= 0) & (coords[on, 2] <= room[2]))
        assert np.unique(colors[on], axis=0).shape[0] == 1
        assert np.all((colors[on] >= 140) & (colors[on] < 180))


def test_room_planes_do_not_depend_on_the_objects():
    # the room draws from a random stream of its own
    scenes = [generate_scene(small_cfg(seed=3, n_objects=n))[0] for n in (1, 3)]
    stuff = [np.isin(s.sem_labels, STUFF_CLASSES) for s in scenes]
    assert stuff[0].sum() == stuff[1].sum() > 0
    for field in ("coords", "colors", "sem_labels"):
        a, b = (getattr(s, field)[m] for s, m in zip(scenes, stuff))
        assert np.array_equal(a, b)


def test_same_class_pairs_and_an_odd_one_out():
    scene, _ = generate_scene(small_cfg(seed=3, n_objects=5, same_class_gap=0.02))
    classes = [g.class_id for g in ground_truth_instances(scene)]
    assert classes == [7, 7, 7, 7, 3]  # instances 2j and 2j + 1 share a class


@pytest.mark.parametrize("room", [(5.0, 5.0, 2.5), (3.4e38, 3.4e38, 1.0)])
def test_scene_without_objects_or_stuff_is_empty(room):
    # no stuff means planes of no point, even on the largest room allowed
    scene, offsets = generate_scene(small_cfg(room=room, n_objects=0, stuff_density=0.0))
    assert scene.coords.shape == (0, 3) and scene.coords.dtype == np.float32
    assert scene.sem_labels.shape == scene.inst_ids.shape == (0,)
    assert scene.sem_labels.dtype == scene.inst_ids.dtype == np.int32
    assert scene.colors.shape == (0, 3) and scene.colors.dtype == np.uint8
    assert offsets.offsets.shape == (0, 3)


@pytest.mark.parametrize("room", [(1e39, 5.0, 2.5), (1e200, 1e200, 1.0)])
def test_room_beyond_float32_refused(room):
    # 1e39 m warned of an overflowing cast, 1e200 m was refused as a
    # non-finite coordinate, naming no field
    rule = r"^room must be three positive finite lengths up to 3.40282e\+38, got"
    with pytest.raises(ValueError, match=rule):
        GenConfig(room=room, n_objects=2, stuff_density=0.0)


def test_room_at_the_float32_limit_generates():
    top = float(np.finfo(np.float32).max)
    scene, _ = generate_scene(GenConfig(room=(top, 5.0, 2.5), n_objects=2, stuff_density=0.0))
    assert scene.n_instances == 2 and np.isfinite(scene.coords).all()


def test_scene_without_objects_holds_stuff_only():
    scene, offsets = generate_scene(small_cfg(n_objects=0))
    assert scene.n_points == round(5.0 * 5.0 * 15.0) + 4 * round(5.0 * 2.5 * 15.0)
    assert np.isin(scene.sem_labels, STUFF_CLASSES).all()
    assert scene.n_instances == 0 and np.all(scene.inst_ids == -1)
    assert np.all(offsets.offsets == 0.0)


# rooms from roomy to crowded (where placement often fails), paired or not
PLACEMENTS = st.builds(
    GenConfig, seed=st.integers(0, 2**32 - 1),
    room=st.tuples(st.floats(1.0, 4.0), st.floats(1.0, 4.0), st.floats(0.6, 3.0)),
    n_objects=st.integers(0, 14), min_gap=st.floats(0.0, 0.3),
    same_class_gap=st.one_of(st.none(), st.floats(0.001, 0.2)),
    size_scale=st.sampled_from([(0.3, 0.5), (0.6, 1.0), (0.7, 1.1)]),
)


def same_objects(a, b) -> bool:
    """The same placed objects, their centres bit for bit."""
    def key(objects):
        return [(*obj[:3], obj[3].tobytes(), obj[4]) for obj in objects]
    return key(a) == key(b)


@settings(max_examples=150)
@given(config=PLACEMENTS)
def test_placement_matches_the_scalar_loop(config):
    # the same objects at the same centres, or the same refusal
    try:
        expect = placed_objects(config)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            synth._place(config)
        return
    assert same_objects(synth._place(config), expect)


@settings(max_examples=100)
@given(config=PLACEMENTS)
def test_placement_keeps_a_pair_at_exactly_the_gap(config):
    # min_gap raised to the least slack the scalar loop left between two
    # placed objects (a pair of partners aside) decides every try as before,
    # and leaves that pair at exactly the gap, where a distance one ulp short
    # refuses the later object
    try:
        placed = placed_objects(config)
    except ValueError:
        assume(False)
    paired = config.same_class_gap is not None
    bounds = [synth._geometry(kind, dims)[1] for kind, dims, *_ in placed]
    slack = [
        float(np.linalg.norm(placed[k][3] - placed[j][3])) - bounds[k] - bounds[j]
        for k in range(len(placed)) for j in range(k) if not (paired and k % 2 and j == k - 1)
    ]
    assume(slack)
    tight = dataclasses.replace(config, min_gap=min(slack))
    assert same_objects(placed_objects(tight), placed)
    assert same_objects(synth._place(tight), placed)


def test_placement_distances_keep_the_bits_of_linalg_norm():
    # _place tests each try at once, and its distances must be the ones the
    # scalar loop took with np.linalg.norm, which a row sum of squares is not
    rng = np.random.default_rng(7)
    gap = (rng.uniform(0, 9, (1, 3)) - rng.uniform(0, 9, (20_000, 3)))[:, None]
    d = np.sqrt(np.matmul(gap, gap.transpose(0, 2, 1))[:, 0, 0])
    assert d.tobytes() == np.array([np.linalg.norm(v) for v in gap[:, 0]]).tobytes()


def test_placement_failure_raises():
    cfg = GenConfig(seed=0, room=(1.0, 1.0, 2.0), n_objects=30, density=100.0,
                    min_gap=0.5, min_object_points=10)
    with pytest.raises(ValueError, match="could not place"):
        generate_scene(cfg)


@pytest.mark.parametrize("kind, base", synth._SHAPES)
def test_geometry_volume_is_the_closed_form(kind, base):
    # the one geometry record carries the volume that the room-capacity bound
    # reads: a box a*b*c, a sphere pi*d^3/6, a cylinder pi*d^2*h/4
    closed = {
        "box": lambda a, b, c: a * b * c,
        "sphere": lambda d: np.pi * d**3 / 6.0,
        "cylinder": lambda d, h: np.pi * d * d * h / 4.0,
    }[kind]
    for scale in (0.7, 1.0, 1.1):
        dims = tuple(d * scale for d in base)
        assert synth._geometry(kind, dims)[3] == pytest.approx(closed(*dims), rel=1e-12)


def test_objects_whose_points_outgrow_memory_are_refused(monkeypatch):
    # the bound is the machine's memory at the 55 bytes a scene keeps per
    # point: objects whose fewest points fill it exactly pass, one more is
    # refused, in a room that would hold them
    monkeypatch.setattr(synth, "_memory_bytes", lambda: 10 * 60 * 55.0)
    GenConfig(room=(1e5, 1e5, 2.5), n_objects=10)
    with pytest.raises(ValueError, match="^n_objects too large: 11 objects of at least 60 points need "):
        GenConfig(room=(1e5, 1e5, 2.5), n_objects=11)


def test_memory_is_unbounded_where_the_system_does_not_report_it(monkeypatch):
    def unreported(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(synth.os, "sysconf", unreported)
    assert synth._memory_bytes() == float("inf")
    # 6e10 points, refused by the bound wherever memory is reported
    GenConfig(room=(1e5, 1e5, 2.5), n_objects=10**9)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(room=(0, 1, 1))
    # the default room's floor slab holds ~21 m^3, 10,000 of the smallest objects ~32 m^3
    with pytest.raises(ValueError, match=r"^n_objects too large: 10000 objects of at least .* do not fit in the "):
        GenConfig(n_objects=10_000)
    with pytest.raises(ValueError):
        GenConfig(p_sem=1.5)
    with pytest.raises(ValueError):
        GenConfig(density=-1)
    with pytest.raises(ValueError):
        GenConfig(same_class_gap=0.0)
    # seeds and counts are integers in range, and size_scale is two numbers
    for name, value in [
        ("min_object_points", 0), ("min_object_points", -5), ("min_object_points", 2.5),
        ("size_scale", (0.7,)), ("n_objects", 2.5), ("n_objects", -1),
        ("n_objects", True), ("n_objects", np.True_),
        ("min_object_points", True), ("min_object_points", np.True_),
        ("seed", True), ("seed", 1.5), ("seed", np.float64(2.0)),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GenConfig(**{name: value})
    # every float rule refuses NaN and inf and names its field
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf):
        for name, value in [
            ("room", (bad, 5.0, 2.5)), ("density", bad), ("stuff_density", bad),
            ("min_gap", bad), ("same_class_gap", bad), ("size_scale", (0.7, bad)),
            ("density_dip", bad), ("dip_fraction", bad), ("p_sem", bad),
            ("sem_temperature", bad), ("sigma0", bad), ("beta", bad),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                GenConfig(**{name: value})
    # a Python int of any size gets its field's message, not a TypeError: one
    # beyond the float range is not finite, and the planned points must fit an array
    big, huge = 10**20, 10**400
    for name, value in [
        ("n_objects", -big), ("min_object_points", -big), ("density", huge),
        ("size_scale", (1, huge)), ("room", (big, 5, huge)),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GenConfig(**{name: value})
    for kwargs, planned in [
        ({"n_objects": big}, "6e\\+21"),
        ({"min_object_points": big}, "6e\\+20"),
        ({"n_objects": big, "min_object_points": big}, "1e\\+40"),
        ({"n_objects": 10**200, "min_object_points": 10**200}, "inf"),
    ]:
        with pytest.raises(
            ValueError, match=f"^n_objects and min_object_points too large: {planned} points"
        ):
            GenConfig(**kwargs)
    assert GenConfig(n_objects=0, min_object_points=big).min_object_points == big
    assert GenConfig(room=(big, 5, 2.5)).room[0] == big


def test_noise_rules_refuse_nan_and_inf():
    scene, offsets = generate_scene(small_cfg(seed=1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^p_sem must be"):
            perturb_semantics(scene, p_sem=bad, temperature=0.0, seed=0)
        with pytest.raises(ValueError, match="^sem_temperature must be"):
            perturb_semantics(scene, p_sem=0.1, temperature=bad, seed=0)
        with pytest.raises(ValueError, match="^sigma0 must be"):
            perturb_offsets(offsets, scene, bad, 2.0, seed=0)
        with pytest.raises(ValueError, match="^beta must be"):
            perturb_offsets(offsets, scene, 0.01, bad, seed=0)
