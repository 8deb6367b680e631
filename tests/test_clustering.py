import time

import numpy as np
import pytest

from cloudinst import clustering
from cloudinst.clustering import (
    ClusterParams,
    _UnionFind,
    cluster_dual_set,
    cluster_single_set,
    connected_components_oracle,
)
from cloudinst.core import Source, shifted_coords
from cloudinst.losses import offset_targets
from cloudinst.spatial import GridIndex, radius_squared, squared_distances
from cloudinst.synth import GenConfig, generate_sample

from conftest import random_cluster_inputs, two_object_scene


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


@pytest.mark.parametrize("labels", [[1.5, 1.2], np.array([1, 2**32 + 1]), [1, 2**40], ["1", "1"]])
def test_labels_outside_int32_integers_rejected(labels):
    # [1.5, 1.2] and [1, 2**32 + 1] were read as one cluster of class 1
    params = ClusterParams(0.03, 1)
    for route in (cluster_single_set, connected_components_oracle):
        with pytest.raises(ValueError, match="^label"):
            route(np.zeros((2, 3)), labels, [], params, Source.ORIGINAL)


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


@pytest.mark.parametrize("seed", range(30))
def test_grid_equals_oracle_fuzz(seed):
    coords, labels = random_cluster_inputs(seed)
    for radius in (0.02, 0.05):
        for min_points in (1, 4):
            params = ClusterParams(radius=radius, min_points=min_points)
            got = cluster_single_set(coords, labels, {0}, params, Source.ORIGINAL)
            want = connected_components_oracle(coords, labels, {0}, params)
            assert clusters_as_sets(got) == clusters_as_sets(want)


def _assert_matches_oracle(coords, labels, radii=(0.02, 0.05), min_points=(1, 4)):
    for radius in radii:
        for mp in min_points:
            params = ClusterParams(radius=radius, min_points=mp)
            got = cluster_single_set(coords, labels, {0}, params, Source.ORIGINAL)
            want = connected_components_oracle(coords, labels, {0}, params)
            assert clusters_as_sets(got) == clusters_as_sets(want)


def _piles(seed):
    # shifted points of noisy-label objects: dense piles of several labels,
    # each pile well inside one fine cell, plus a halo reaching nearby cells
    rng = np.random.default_rng(100 + seed)
    centers = rng.uniform(0, 0.3, (4, 3))
    parts = []
    for c in centers:
        parts.append(c + rng.normal(0, 1e-4, (int(rng.integers(50, 150)), 3)))
        parts.append(c + rng.normal(0, 0.02, (int(rng.integers(10, 40)), 3)))
    coords = np.concatenate(parts).astype(np.float32)
    labels = rng.choice([-1, 0, 1, 2, 3], coords.shape[0], p=[0.05, 0.05, 0.7, 0.1, 0.1])
    return coords, labels.astype(np.int32), {}


def _near_r(seed):
    # isolated pairs: the second point is the float32 rounding of a point at
    # exactly r, then nudged by up to one ulp per coordinate, so the pair
    # distance sits within an ulp of r on either side
    rng = np.random.default_rng(200 + seed)
    radius = float(rng.choice([0.02, 0.03, 0.05]))
    n_pairs = 150
    base = rng.uniform(0, 2, (n_pairs, 3)).astype(np.float32)
    direction = rng.normal(size=(n_pairs, 3))
    direction[: n_pairs // 3] = np.eye(3)[rng.integers(0, 3, n_pairs // 3)]
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    other = (base + radius * direction).astype(np.float32)
    nudge = rng.integers(-1, 2, other.shape)
    other = np.where(nudge > 0, np.nextafter(other, np.float32(np.inf)), other)
    other = np.where(nudge < 0, np.nextafter(other, np.float32(-np.inf)), other)
    coords = np.concatenate([base, other])
    labels = np.ones(coords.shape[0], dtype=np.int32)
    d = np.sqrt(((base.astype(np.float64) - other) ** 2).sum(axis=1))
    assert np.abs(d - radius).max() <= 3 * np.spacing(np.float32(2.0 + radius))
    inside = squared_distances(base, other) < radius_squared(radius)
    assert inside.any() and not inside.all()  # both sides of r are covered
    return coords, labels, {"radii": (radius,), "min_points": (1,)}


def _chains(seed):
    # chains whose hops sit just under r cross dozens of cells; one hop at or
    # over r splits a chain, so the oracle decides where each one breaks
    rng = np.random.default_rng(300 + seed)
    radius = 0.03
    parts, labels = [], []
    for k in range(3):
        step = rng.normal(size=3)
        step *= radius * (1 - rng.uniform(0, 1e-5)) / np.linalg.norm(step)
        n = int(rng.integers(100, 250))
        parts.append(rng.uniform(0, 0.5, 3) + np.arange(n)[:, None] * step)
        labels.append(np.full(n, 1 + k % 2))
    coords = np.concatenate(parts).astype(np.float32)
    return coords, np.concatenate(labels).astype(np.int32), {"radii": (radius,)}


def _far_outliers(seed):
    # a few points moved 1e4 to 1e36 m away, some onto each other, and one
    # to a finite 1e39 m, beyond the float32 range
    rng = np.random.default_rng(400 + seed)
    coords, labels = random_cluster_inputs(400 + seed)
    far = rng.choice(coords.shape[0], 5, replace=False)
    shift = 10.0 ** rng.uniform(4, 36, (5, 1)) * rng.choice([-1.0, 1.0], (5, 3))
    coords[far] = (coords[far] + shift).astype(np.float32)
    coords[far[1]] = coords[far[0]]
    labels[far[1]] = labels[far[0]]
    coords = coords.astype(np.float64)
    coords[far[4], seed % 3] = 1e39 * (-1.0) ** seed
    labels[far[4]] = 1  # not stuff, so the point reaches the grid
    return coords, labels, {}


# the oracle families, each with its seed count
_FAMILIES = {
    "piles": (_piles, 8), "near_r": (_near_r, 6), "chains": (_chains, 6),
    "far_outliers": (_far_outliers, 8),
}


@pytest.mark.parametrize("seed", range(8))
def test_mixed_label_piles_equal_oracle(seed):
    coords, labels, kw = _piles(seed)
    _assert_matches_oracle(coords, labels, **kw)


@pytest.mark.parametrize("seed", range(6))
def test_pairs_one_ulp_from_radius_equal_oracle(seed):
    coords, labels, kw = _near_r(seed)
    _assert_matches_oracle(coords, labels, **kw)


@pytest.mark.parametrize("seed", range(6))
def test_long_chains_just_under_radius_equal_oracle(seed):
    coords, labels, kw = _chains(seed)
    _assert_matches_oracle(coords, labels, **kw)


@pytest.mark.parametrize("seed", range(8))
def test_far_outliers_equal_oracle(seed):
    coords, labels, kw = _far_outliers(seed)
    _assert_matches_oracle(coords, labels, **kw)


@pytest.mark.parametrize("budget", [1, 4096, clustering._CHUNK])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_result_does_not_depend_on_round_budget(monkeypatch, family, budget):
    # with a budget of one point pair, every round holds a single node pair
    monkeypatch.setattr(clustering, "_CHUNK", budget)
    build, n_seeds = _FAMILIES[family]
    for seed in range(n_seeds):
        coords, labels, kw = build(seed)
        _assert_matches_oracle(coords, labels, **kw)


def test_every_round_but_the_last_fills_its_budget(monkeypatch):
    # the shifted set of a scene with boundary-weighted offset noise: dense
    # piles and a halo, so that most node pairs die by a merge before their
    # turn; a round reads windows until its live pairs fill the budget, so
    # rounds stay few, and tests less only when no live pair it read is left
    _, observed, offsets = generate_sample(GenConfig(seed=1, n_objects=4, sigma0=0.01, beta=2.0))
    budget = 8192
    monkeypatch.setattr(clustering, "_CHUNK", budget)
    tested, emptied, joins = [], [], []
    waiting = 0  # live pairs read and not yet tested
    live, touching, merge_edges = clustering._live, clustering._touching, clustering._merge_edges

    def counting_live(comp, a, b):
        nonlocal waiting
        found = live(comp, a, b)
        waiting += found.size
        return found

    def counting_touching(xyz, grid, a, b, cost, r2):
        nonlocal waiting
        assert a.size  # a round with nothing live calls nothing
        waiting -= a.size
        tested.append(int(cost.sum()))
        emptied.append(waiting == 0)
        return touching(xyz, grid, a, b, cost, r2)

    def counting_merge(comp, a, b):
        joins.append(a.size)
        merge_edges(comp, a, b)

    monkeypatch.setattr(clustering, "_live", counting_live)
    monkeypatch.setattr(clustering, "_touching", counting_touching)
    monkeypatch.setattr(clustering, "_merge_edges", counting_merge)
    q = shifted_coords(observed, offsets)
    params = ClusterParams(0.03, 50)
    got = cluster_single_set(q, observed.sem_labels, observed.stuff_classes, params, Source.SHIFTED)
    assert len(tested) >= 5 and waiting == 0
    assert all(t >= budget - 64**2 or e for t, e in zip(tested[:-1], emptied[:-1]))
    assert sum(n > 0 for n in joins) >= len(tested) - 1
    monkeypatch.setattr(clustering, "_CHUNK", 1 << 17)
    want = cluster_single_set(q, observed.sem_labels, observed.stuff_classes, params, Source.SHIFTED)
    assert clusters_as_sets(got) == clusters_as_sets(want)


def _kernel_work(monkeypatch, coords, labels, stuff, source):
    """Node pairs whose liveness is read, point pairs tested, rounds and
    edges merged in one cluster_single_set call."""
    work = dict.fromkeys(("read", "tested", "rounds", "edges"), 0)
    live, touching, merge_edges = clustering._live, clustering._touching, clustering._merge_edges

    def counting_live(comp, a, b):
        work["read"] += a.size
        return live(comp, a, b)

    def counting_touching(xyz, grid, a, b, cost, r2):
        work["tested"] += int(cost.sum())
        work["rounds"] += 1
        return touching(xyz, grid, a, b, cost, r2)

    def counting_merge(comp, a, b):
        work["edges"] += a.size
        merge_edges(comp, a, b)

    with monkeypatch.context() as m:
        m.setattr(clustering, "_live", counting_live)
        m.setattr(clustering, "_touching", counting_touching)
        m.setattr(clustering, "_merge_edges", counting_merge)
        cluster_single_set(coords, labels, stuff, ClusterParams(), source)
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
    assert all(two[k] <= 2 * one[k] for k in ("read", "tested", "edges")), (one, two)


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


@pytest.mark.parametrize("seed", range(3))
def test_touching_matches_brute_force_for_pairs_in_any_order(seed):
    rng = np.random.default_rng(seed)
    radius = 0.03
    # dense piles (many-point nodes) among sparse points (single-point nodes)
    piles = rng.uniform(0, 0.3, (8, 3))[rng.integers(0, 8, 600)] + rng.normal(0, 0.01, (600, 3))
    coords = np.concatenate([piles, rng.uniform(0, 0.3, (300, 3))]).astype(np.float32)
    grid = GridIndex(coords, radius, rng.integers(1, 3, coords.shape[0]))
    xyz = np.ascontiguousarray(grid.coords[grid.order].T)
    a, b = grid.node_pairs()
    shuffle = rng.permutation(a.size)
    a, b = a[shuffle], b[shuffle]
    cost = grid.counts[a] * grid.counts[b]
    r2 = radius_squared(radius)
    got = clustering._touching(xyz, grid, a, b, cost.astype(np.int16), r2)
    node = [xyz.T[lo : lo + n] for lo, n in zip(grid.starts, grid.counts)]
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


def test_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(radius=0.0)
    for min_points in (0, float("nan"), float("inf"), 2.5):
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
