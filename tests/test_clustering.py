import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinst import clustering
from cloudinst.clustering import (
    ClusterParams,
    _UnionFind,
    cluster_dual_set,
    cluster_single_set,
    connected_components_oracle,
)
from cloudinst.core import SceneError, Source, shifted_coords
from cloudinst.losses import offset_targets
from cloudinst.spatial import _FINE_FACTOR, RINGS, GridIndex, radius_squared, squared_distances
from cloudinst.synth import GenConfig, generate_sample

from conftest import ORACLE_RADII, oracle_scenes, random_cluster_inputs, traced_peak, two_object_scene


def clusters_as_sets(clusters):
    return {(c.class_id, c.source, tuple(c.point_idx.tolist())) for c in clusters}


@pytest.mark.parametrize("huge", [2**70, -(2**70)])
def test_stuff_id_beyond_int64_masks_nothing(huge):
    coords, labels = random_cluster_inputs(3)
    params = ClusterParams(0.03, 1)
    plain = cluster_single_set(coords, labels, [], params, Source.ORIGINAL)
    assert plain
    out = cluster_single_set(coords, labels, [huge], params, Source.ORIGINAL)
    assert clusters_as_sets(out) == clusters_as_sets(plain)


@pytest.mark.parametrize(
    "labels",
    [
        [1.5, 1.2], np.array([1, 2**32 + 1]), [1, 2**40], ["1", "1"], np.array([True, True]),
        np.array(["x", 1], dtype=object),  # no float64 cast: "labels must be integers"
    ],
)
def test_labels_outside_int32_integers_rejected(labels):
    # [1.5, 1.2] and [1, 2**32 + 1] were read as one cluster of class 1
    params = ClusterParams(0.03, 1)
    for route in (cluster_single_set, connected_components_oracle):
        with pytest.raises(ValueError, match="^label"):
            route(np.zeros((2, 3)), labels, [], params, Source.ORIGINAL)


@pytest.mark.parametrize("route", [cluster_single_set, connected_components_oracle])
def test_two_dimensional_labels_refused_by_their_shape(route):
    # named by the flat index: "label 1.5 at point 3" of a 2-point input
    labels = np.array([[1, 1], [1, 1.5]])
    with pytest.raises(ValueError) as err:
        route(np.zeros((2, 3)), labels, [], ClusterParams(0.03, 1), Source.ORIGINAL)
    assert str(err.value) == "got 2 coordinates but (2, 2) labels"


@pytest.mark.parametrize("route", [cluster_single_set, connected_components_oracle])
def test_non_finite_coordinate_named_in_the_callers_array(route):
    # the grid route named the point by its place among the active points
    # (point 2), and the oracle returned the cluster [3, 4]
    coords = np.zeros((6, 3))
    coords[:, 0] = np.arange(6) * 0.01
    labels = [0, 0, 0, 1, 1, 1]
    params = ClusterParams(0.03, 1)
    bad = coords.copy()
    bad[5, 1] = np.nan
    with pytest.raises(SceneError) as err:
        route(bad, labels, {0}, params, Source.ORIGINAL)
    assert str(err.value) == "non-finite coordinate at point 5" and err.value.point_index == 5
    # on a stuff point or an unlabelled one, it is ignored
    bad = coords.copy()
    bad[1, 0], bad[2, 2] = np.inf, np.nan
    out = route(bad, [0, 0, -1, 1, 1, 1], {0}, params, Source.ORIGINAL)
    assert [c.point_idx.tolist() for c in out] == [[3, 4, 5]]


def test_two_close_same_label_points_form_one_cluster():
    coords = np.array([[0, 0, 0], [0.02, 0, 0]], dtype=np.float32)
    labels = np.array([1, 1], dtype=np.int32)
    out = cluster_single_set(coords, labels, set(), ClusterParams(0.03, 1), Source.ORIGINAL)
    assert len(out) == 1
    assert out[0].point_idx.tolist() == [0, 1]
    assert out[0].class_id == 1
    assert out[0].source is Source.ORIGINAL


def test_different_labels_never_group():
    coords = np.array([[0, 0, 0], [0.02, 0, 0]], dtype=np.float32)
    labels = np.array([1, 2], dtype=np.int32)
    # singletons survive only above the size threshold; at min_points=2 none do
    out = cluster_single_set(coords, labels, set(), ClusterParams(0.03, 2), Source.ORIGINAL)
    assert out == []
    # and no size-2 cluster exists at any threshold
    out = cluster_single_set(coords, labels, set(), ClusterParams(0.03, 1), Source.ORIGINAL)
    assert all(c.size != 2 for c in out)


def test_bfs_transitivity_joins_chain():
    coords = np.array([[0, 0, 0], [0.025, 0, 0], [0.05, 0, 0]], dtype=np.float32)
    labels = np.ones(3, dtype=np.int32)
    out = cluster_single_set(coords, labels, set(), ClusterParams(0.03, 1), Source.ORIGINAL)
    assert len(out) == 1
    assert out[0].point_idx.tolist() == [0, 1, 2]


def test_stuff_and_unlabeled_points_never_cluster():
    coords = np.zeros((4, 3), dtype=np.float32)
    labels = np.array([0, 0, -1, -1], dtype=np.int32)
    out = cluster_single_set(coords, labels, {0}, ClusterParams(0.03, 1), Source.ORIGINAL)
    assert out == []


def test_size_filter_is_strict():
    # a 50-point cluster is discarded when min_points is 50
    coords = np.zeros((50, 3), dtype=np.float32)
    coords[:, 0] = np.arange(50) * 0.001
    labels = np.ones(50, dtype=np.int32)
    assert cluster_single_set(coords, labels, set(), ClusterParams(0.03, 50), Source.ORIGINAL) == []
    out = cluster_single_set(coords, labels, set(), ClusterParams(0.03, 49), Source.ORIGINAL)
    assert len(out) == 1


def test_oracle_empty_and_all_stuff():
    empty = np.zeros((0, 3), dtype=np.float32)
    assert connected_components_oracle(empty, np.zeros(0, np.int32), {0}, ClusterParams()) == []
    coords = np.zeros((5, 3), dtype=np.float32)
    labels = np.zeros(5, dtype=np.int32)
    assert connected_components_oracle(coords, labels, {0}, ClusterParams(0.03, 1)) == []


def _assert_grid_equals_oracle(coords, labels, radius, min_points, budget):
    params = ClusterParams(radius, min_points)
    want = connected_components_oracle(coords, labels, {0}, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_CHUNK", budget)
        got = cluster_single_set(coords, labels, {0}, params, Source.ORIGINAL)
    assert clusters_as_sets(got) == clusters_as_sets(want)


# round budgets: one node pair a round, a few thousand point pairs, the default
_BUDGETS = [1, 4096, clustering._CHUNK]
# each family of an oracle scene, the two outlier families as one
_FAMILIES = [("clutter",), ("pile_1",), ("pile_2",), ("pile_8",), ("near_r",), ("chains",), ("far", "beyond")]


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("min_points", [1, 4])
@pytest.mark.parametrize("radius", ORACLE_RADII)
@settings(max_examples=10)
@given(data=st.data())
def test_grid_equals_oracle_on_generated_scenes(radius, min_points, budget, data):
    scene = data.draw(oracle_scenes(radius))
    _assert_grid_equals_oracle(scene.coords, scene.labels, radius, min_points, budget)


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("min_points", [1, 4])
@pytest.mark.parametrize("family", _FAMILIES, ids="+".join)
@settings(max_examples=10)
@given(scene=oracle_scenes())
def test_grid_equals_oracle_on_each_family_alone(family, min_points, budget, scene):
    # a family's own grid: the outliers' alone spans 1e36 m with a few points
    coords, labels = scene.only(*family)
    _assert_grid_equals_oracle(coords, labels, scene.radius, min_points, budget)


@pytest.mark.parametrize("radius", ORACLE_RADII)
@settings(max_examples=10)
@given(data=st.data())
def test_every_oracle_scene_holds_every_family(radius, data):
    coords, labels, r, families = data.draw(oracle_scenes(radius))
    assert r == radius
    r2 = radius_squared(r)
    for name, cells in (("pile_1", 1), ("pile_2", 2), ("pile_8", 8)):
        keys = np.floor(np.float32(coords[families[name]]) / (r * _FINE_FACTOR))
        assert len(np.unique(keys, axis=0)) == cells, name
    assert {-1, 0} <= set(labels[families["clutter"]].tolist())
    pile = labels[families["pile_1"]]
    assert (pile == 1).sum() > 2 * 64 and (pile == 2).any()
    a, b = np.float32(coords[families["near_r"]]).reshape(-1, 2, 3).transpose(1, 0, 2)
    d2 = squared_distances(a, b)
    assert d2[0] == r2 and d2[1] < r2 <= d2[2]
    d = np.sqrt(((a.astype(np.float64) - b) ** 2).sum(axis=1))
    assert np.abs(d - r).max() <= 3 * np.spacing(np.abs(b).max())
    assert (labels[families["near_r"]] == 1).all() and families["chains"].size >= 5 * 3
    far = coords[families["far"]]
    assert (np.abs(far).max(axis=1) >= 1e4).all() and (far[0] == far[1]).all()
    assert (labels[families["far"][:2]] == 1).all()
    (beyond,) = families["beyond"]
    assert np.abs(coords[beyond]).max() > np.finfo(np.float32).max and labels[beyond] == 1


@settings(max_examples=10)
@given(data=st.data())
def test_the_kernel_on_any_split_of_the_labels_gives_the_clusters_of_the_whole(data):
    # ``cli._cluster_beside`` runs P's labels as jobs through this seam
    scene = data.draw(oracle_scenes())
    params = ClusterParams(scene.radius, data.draw(st.integers(1, 5)))
    coords, labels, active = clustering._active_points(scene.coords, scene.labels, {0})
    group = np.array(data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4)))
    job = group[labels[active]]
    split = [
        c for j in range(3)
        for c in clustering._cluster_points(coords, labels, active[job == j], params, Source.ORIGINAL)
    ]
    whole = cluster_single_set(scene.coords, scene.labels, {0}, params, Source.ORIGINAL)
    as_tuples = [(c.point_idx.tolist(), c.class_id, c.source) for c in whole]
    assert [(c.point_idx.tolist(), c.class_id, c.source)
            for c in sorted(split, key=lambda c: c.min_index)] == as_tuples


def test_every_round_but_the_last_fills_its_budget(monkeypatch):
    # the shifted set of a scene with boundary-weighted offset noise: dense
    # piles and a halo, so that most node pairs die by a merge before their
    # turn; a round reads windows until its live pairs fill the budget, so
    # rounds stay few, and tests less only when no live pair it read is left
    # or when its ring's pairs run out
    _, observed, offsets = generate_sample(GenConfig(seed=1, n_objects=4, sigma0=0.01, beta=2.0))
    budget = 8192
    monkeypatch.setattr(clustering, "_CHUNK", budget)
    rings, joins = [], []  # per ring, (point pairs tested, no live pair left) per round
    waiting = 0  # live pairs read and not yet tested
    live, touching, merge_edges = clustering._live, clustering._touching, clustering._merge_edges
    join_close_pairs = clustering._join_close_pairs

    def counting_live(comp, a, b):
        nonlocal waiting
        found = live(comp, a, b)
        waiting += found.size
        return found

    def counting_touching(grid, a, b, cost):
        nonlocal waiting
        assert a.size  # a round with nothing live calls nothing
        waiting -= a.size
        rings[-1].append((int(cost.sum()), waiting == 0))
        return touching(grid, a, b, cost)

    def counting_merge(comp, a, b):
        joins.append(a.size)
        merge_edges(comp, a, b)

    def counting_ring(*args):
        rings.append([])
        join_close_pairs(*args)
        assert waiting == 0

    monkeypatch.setattr(clustering, "_live", counting_live)
    monkeypatch.setattr(clustering, "_touching", counting_touching)
    monkeypatch.setattr(clustering, "_merge_edges", counting_merge)
    monkeypatch.setattr(clustering, "_join_close_pairs", counting_ring)
    q = shifted_coords(observed, offsets)
    params = ClusterParams(0.03, 50)
    got = cluster_single_set(q, observed.sem_labels, observed.stuff_classes, params, Source.SHIFTED)
    assert len(rings) == 2 and len(rings[0]) >= 5
    for rounds in rings:
        assert all(t >= budget - 64**2 or e for t, e in rounds[:-1])
    assert sum(n > 0 for n in joins) >= sum(map(len, rings)) - 2
    monkeypatch.setattr(clustering, "_CHUNK", 1 << 17)
    want = cluster_single_set(q, observed.sem_labels, observed.stuff_classes, params, Source.SHIFTED)
    assert clusters_as_sets(got) == clusters_as_sets(want)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_far_ring_enumerates_few_of_its_pairs(monkeypatch, seed):
    # once the near ring's pairs are joined, most far-ring pairs join nodes
    # of one component, and the far ring leaves them out
    ring_pairs, sizes = GridIndex.ring_pairs, []

    def counting_ring_pairs(grid, rows, roots=None):
        kept = ring_pairs(grid, rows, roots)
        if rows is RINGS[1]:
            sizes.append((kept[0].size, ring_pairs(grid, rows)[0].size))
        return kept

    monkeypatch.setattr(GridIndex, "ring_pairs", counting_ring_pairs)
    _, observed, _ = generate_sample(GenConfig(seed=seed, sigma0=0.01, beta=2.0))
    cluster_single_set(
        observed.coords, observed.sem_labels, observed.stuff_classes, ClusterParams(), Source.ORIGINAL
    )
    [(kept, everything)] = sizes
    assert everything > 10_000 and kept <= 0.1 * everything, sizes


def _kernel_work(monkeypatch, coords, labels, stuff, source):
    """Node pairs whose liveness is read, point pairs tested, rounds, edges
    merged and the peak of traced memory in one cluster_single_set call."""
    work = dict.fromkeys(("read", "tested", "rounds", "edges"), 0)
    live, touching, merge_edges = clustering._live, clustering._touching, clustering._merge_edges

    def counting_live(comp, a, b):
        work["read"] += a.size
        return live(comp, a, b)

    def counting_touching(grid, a, b, cost):
        work["tested"] += int(cost.sum())
        work["rounds"] += 1
        return touching(grid, a, b, cost)

    def counting_merge(comp, a, b):
        work["edges"] += a.size
        merge_edges(comp, a, b)

    with monkeypatch.context() as m:
        m.setattr(clustering, "_live", counting_live)
        m.setattr(clustering, "_touching", counting_touching)
        m.setattr(clustering, "_merge_edges", counting_merge)
        _, work["peak"] = traced_peak(
            cluster_single_set, coords, labels, stuff, ClusterParams(), source
        )
    return work


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("source", [Source.ORIGINAL, Source.SHIFTED], ids=["p", "q"])
def test_kernel_work_at_most_doubles_with_a_second_copy(monkeypatch, seed, source):
    # a second copy that cannot reach the first doubles the scene, so work
    # that is linear in the scene at most doubles.  The copy keeps the
    # coordinates and takes labels of its own: the grid gives each label its
    # own block of rows, so the copy is the scene moved by whole rows, out of
    # reach.  A copy moved 100 m in y is not exact: it lands on another cell
    # phase and other float32 roundings, and its node pairs alone grow
    # 1.98-2.003x on these rooms
    monkeypatch.setattr(clustering, "_CHUNK", 8192)
    _, observed, offsets = generate_sample(GenConfig(seed=seed, sigma0=0.01, beta=2.0))
    coords = observed.coords if source == Source.ORIGINAL else shifted_coords(observed, offsets)
    labels, stuff = observed.sem_labels, set(observed.stuff_classes)
    shift = int(labels.max()) + 1
    one = _kernel_work(monkeypatch, coords, labels, stuff, source)
    two = _kernel_work(
        monkeypatch, np.concatenate([coords, coords]),
        np.concatenate([labels, np.where(labels >= 0, labels + shift, labels)]),
        stuff | {s + shift for s in stuff}, source,
    )
    assert one["rounds"] >= 5
    assert all(two[k] <= 2 * one[k] for k in ("read", "tested", "edges", "peak")), (one, two)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("source", [Source.ORIGINAL, Source.SHIFTED], ids=["p", "q"])
def test_kernel_peak_within_14x_its_float32_coordinates(monkeypatch, seed, source):
    # node pairs are held once, as int32, and expanded one stencil row at a
    # time; on these rooms P's peak is 11-12x its float32 coordinates and
    # Q's 11x, while int64 pairs of all rows at once, kept beside their
    # unsorted copies, read 18x on P.  The round budget of the doubling
    # gates keeps the point pairs tested per round out of the figure
    monkeypatch.setattr(clustering, "_CHUNK", 8192)
    _, observed, offsets = generate_sample(GenConfig(seed=seed, sigma0=0.01, beta=2.0))
    coords = observed.coords if source == Source.ORIGINAL else shifted_coords(observed, offsets)
    _, peak = traced_peak(
        cluster_single_set, coords, observed.sem_labels, observed.stuff_classes, ClusterParams(), source
    )
    assert peak <= 14 * (3 * 4 * observed.n_points)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("source", [Source.ORIGINAL, Source.SHIFTED], ids=["p", "q"])
@pytest.mark.parametrize("kinds", [
    ("tested", "edges"),
    pytest.param(("read",), marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: a row that holds two components of one label is never "
        "skipped, so the far ring reads 3.9-4.5x the liveness of one room"
    ))),
])
def test_kernel_work_at_most_doubles_with_a_same_label_copy(monkeypatch, seed, source, kinds):
    # the copy keeps its labels, so it shares every row of the grid with the
    # scene.  Both are snapped to 2**-10 and the copy is moved 128 m in x,
    # exactly, but the cell size does not divide 128 m: the copy lands on
    # another cell phase, so it is not an exact grid copy of the scene
    monkeypatch.setattr(clustering, "_CHUNK", 8192)
    _, observed, offsets = generate_sample(GenConfig(seed=seed, sigma0=0.01, beta=2.0))
    coords = observed.coords if source == Source.ORIGINAL else shifted_coords(observed, offsets)
    coords = np.round(coords * 1024.0) / 1024.0
    labels, stuff = observed.sem_labels, set(observed.stuff_classes)
    one = _kernel_work(monkeypatch, coords, labels, stuff, source)
    two = _kernel_work(
        monkeypatch, np.concatenate([coords, coords + np.float32([128.0, 0.0, 0.0])]),
        np.concatenate([labels, labels]), stuff, source,
    )
    assert one["rounds"] >= 5
    assert all(two[k] <= 2 * one[k] for k in kinds), (one, two)


@pytest.mark.parametrize("seed", range(5))
def test_merge_edges_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n = 400
    comp = np.minimum(np.arange(n), rng.integers(0, n, n))  # a forest: parents come first
    a, b = rng.integers(0, n, (2, int(rng.integers(0, 300))))
    uf = _UnionFind(n)
    for x, y in zip(list(range(n)) + a.tolist(), comp.tolist() + b.tolist()):
        uf.union(x, y)
    want = np.array([uf.find(x) for x in range(n)])
    clustering._merge_edges(comp, a, b)
    got = clustering._roots(comp, np.arange(n))
    assert np.array_equal(comp[got], got)  # a label is the id of its root
    assert np.array_equal(comp, got)  # and a lookup re-points the nodes it reads
    # the same partition: equal labels exactly where the reference's are equal
    assert np.array_equal(got[:, None] == got[None, :], want[:, None] == want[None, :])


def test_merge_edges_settles_a_large_star_quickly():
    # the centre has the largest id and the leaves come in increasing order:
    # hooking by plain assignment keeps only the last leaf's hook and needs a
    # round per leaf (seconds); hooking to the smallest root needs two rounds
    n = 20_000
    comp = np.arange(n + 1)
    start = time.perf_counter()
    clustering._merge_edges(comp, np.arange(n), np.full(n, n))
    assert time.perf_counter() - start < 1.0
    assert np.unique(clustering._roots(comp, np.arange(n + 1))).size == 1


def test_merge_edges_settles_a_long_path_quickly():
    # each node hooks to the one before it, a chain n long: following it a
    # level per step takes n steps; jumping pointers among the hooked roots
    # halves it per step
    n = 20_000
    comp = np.arange(n + 1)
    start = time.perf_counter()
    clustering._merge_edges(comp, np.arange(n), np.arange(1, n + 1))
    assert time.perf_counter() - start < 1.0
    assert np.unique(clustering._roots(comp, np.arange(n + 1))).size == 1


@pytest.mark.parametrize("radius", ORACLE_RADII)
@settings(max_examples=10)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_touching_matches_brute_force_for_pairs_in_any_order(radius, data, seed):
    # many-point nodes (the piles) beside single-point ones (chains, pairs)
    scene = data.draw(oracle_scenes(radius))
    coords, labels = scene.in_float32()
    grid = GridIndex(coords, scene.radius, labels)
    a, b = map(np.concatenate, zip(*map(grid.ring_pairs, RINGS)))
    shuffle = np.random.default_rng(seed).permutation(a.size)
    a, b = a[shuffle], b[shuffle]
    cost = grid.counts[a] * grid.counts[b]
    r2 = radius_squared(scene.radius)
    got = clustering._touching(grid, a, b, cost.astype(np.int16))
    node = [grid.xyz.T[lo : lo + n] for lo, n in zip(grid.starts, grid.counts)]
    want = [(squared_distances(node[i][:, None], node[j][None]) < r2).any() for i, j in zip(a, b)]
    assert np.array_equal(got, want)
    assert (cost == 1).any() and (cost > 1).any() and got.any() and not got.all()


def test_output_canonical_order_and_invariants():
    coords, labels = random_cluster_inputs(99, n_max=250)
    params = ClusterParams(radius=0.05, min_points=2)
    out = cluster_single_set(coords, labels, {0}, params, Source.ORIGINAL)
    mins = [c.min_index for c in out]
    assert mins == sorted(mins)
    seen = set()
    for c in out:
        members = c.point_idx.tolist()
        assert members == sorted(members)
        assert not (set(members) & seen)
        seen |= set(members)
        assert np.all(labels[c.point_idx] == c.class_id)
        assert c.class_id != 0 and c.class_id != -1


def test_permutation_invariance():
    coords, labels = random_cluster_inputs(7, n_max=200)
    params = ClusterParams(radius=0.05, min_points=2)
    base = cluster_single_set(coords, labels, {0}, params, Source.ORIGINAL)
    rng = np.random.default_rng(0)
    perm = rng.permutation(coords.shape[0])
    permuted = cluster_single_set(coords[perm], labels[perm], {0}, params, Source.ORIGINAL)
    remapped = {
        (c.class_id, tuple(sorted(perm[c.point_idx].tolist()))) for c in permuted
    }
    assert remapped == {(c.class_id, tuple(c.point_idx.tolist())) for c in base}


def test_min_points_monotonicity():
    coords, labels = random_cluster_inputs(11, n_max=300)
    counts = []
    for mp in (1, 2, 5, 10, 20):
        out = cluster_single_set(coords, labels, {0}, ClusterParams(0.05, mp), Source.ORIGINAL)
        counts.append(len(out))
    assert counts == sorted(counts, reverse=True)


def test_zero_offsets_doubles_clusters(simple_scene, zero_offsets):
    params = ClusterParams(radius=0.03, min_points=1)
    single = cluster_single_set(
        simple_scene.coords, simple_scene.sem_labels, simple_scene.stuff_classes,
        params, Source.ORIGINAL,
    )
    dual = cluster_dual_set(simple_scene, zero_offsets, params)
    assert len(dual) == 2 * len(single)
    p = [c for c in dual if c.source is Source.ORIGINAL]
    q = [c for c in dual if c.source is Source.SHIFTED]
    assert len(p) == len(q) == len(single)
    for cp, cq in zip(p, q):
        assert np.array_equal(cp.point_idx, cq.point_idx)
        assert cp.class_id == cq.class_id


@pytest.mark.parametrize("source", list(Source), ids=lambda s: s.name)
def test_a_source_named_twice_is_refused_by_name(simple_scene, zero_offsets, source):
    # its clusters would come twice, and NMS takes each source's as one
    # disjoint family
    with pytest.raises(ValueError, match=f"^sources name {source.name} twice$"):
        cluster_dual_set(simple_scene, zero_offsets, ClusterParams(0.03, 1), (source, Source.ORIGINAL, source))


def test_adjacent_objects_merge_in_p_separate_in_q():
    # two same-class objects 0.02 m apart: original coordinates merge them,
    # shifted coordinates pull each onto its own centroid
    scene = two_object_scene(gap=0.02, n_per_object=64, spacing=0.01)
    offsets = offset_targets(scene)
    params = ClusterParams(radius=0.03, min_points=10)
    p = cluster_single_set(
        scene.coords, scene.sem_labels, scene.stuff_classes, params, Source.ORIGINAL
    )
    q = cluster_single_set(
        np.asarray(scene.coords, dtype=np.float64) + offsets.offsets,
        scene.sem_labels, scene.stuff_classes, params, Source.SHIFTED,
    )
    assert len(p) == 1 and p[0].size == scene.n_points
    assert len(q) == 2
    dual = cluster_dual_set(scene, offsets, params)
    assert len(dual) == len(p) + len(q)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="labels"):
        cluster_single_set(
            np.zeros((3, 3), dtype=np.float32), np.zeros(2, np.int32), set(),
            ClusterParams(), Source.ORIGINAL,
        )
    with pytest.raises(ValueError, match=r"^coords must have shape \(n_points, 3\)$"):
        cluster_single_set(
            np.zeros((3, 2), dtype=np.float32), np.zeros(3, np.int32), set(),
            ClusterParams(), Source.ORIGINAL,
        )


def test_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(radius=0.0)
    for min_points in (0, float("nan"), float("inf"), 2.5, True, np.True_):
        with pytest.raises(ValueError, match="min_points must be an integer >= 1"):
            ClusterParams(min_points=min_points)


@pytest.mark.parametrize("radius", [1e-30, 1e20])
def test_radius_whose_float32_square_is_not_normal_rejected(radius):
    # float32 r*r underflows to 0 (1e-30) or overflows to inf (1e20); the
    # clique cells would then join points the distance test keeps apart
    with pytest.raises(ValueError, match="radius"):
        ClusterParams(radius=radius, min_points=1)
    with pytest.raises(ValueError, match="radius"):
        GridIndex(np.zeros((3, 3), dtype=np.float32), radius)
