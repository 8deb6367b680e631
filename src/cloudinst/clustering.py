"""Label-constrained radius clustering on one coordinate set, and the
dual-set driver that pools clusters found in original and shifted space.

A cluster is a maximal group of same-label points connected by hops of
length strictly less than the radius; stuff-class and unlabeled points never
participate.  Groups at or below the minimum point count are discarded.

The production path is grid DBSCAN (Gunawan 2013; de Berg, Gunawan and
Roeloffzen 2017) on the labelled grid of ``spatial``: the points of one
(fine cell, label) are a clique, so components are computed over grid
nodes (up to 64 points of one such clique), and two neighbouring nodes join
when any of their point pairs is closer than r.  Node pairs, at most
64 x 64 point pairs each, are tested in rounds: a round tests the cheapest
live pairs, at least one and up to _CHUNK point pairs, then merges the
components they join and drops every pair whose nodes now share one.  The
testing oracle below does the same thing the slow, obvious way (all O(N^2)
pairs through union-find), so the two can be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Cluster, OffsetField, Scene, Source, check_offsets, is_int, never_clustered, shifted_coords,
)
from .spatial import (
    GridIndex, check_labels, check_radius, expand_ranges, radius_squared, squared_distances,
)
from .trace import span

_CHUNK = 1 << 17  # point pairs tested between two component merges


@dataclass(frozen=True)
class ClusterParams:
    """Clustering radius (meters) and minimum cluster point count.

    Clusters are kept only when their size is strictly greater than
    ``min_points``, an integer >= 1.
    """

    radius: float = 0.03
    min_points: int = 50

    def __post_init__(self):
        check_radius(self.radius)
        if not (is_int(self.min_points) and self.min_points >= 1):
            raise ValueError(f"min_points must be an integer >= 1, got {self.min_points}")


def _merge_edges(comp: np.ndarray, edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Fold a batch of edges into the running component labels.

    Labels are node ids, so they index a parent array (Shiloach and Vishkin
    1982): each edge hooks its larger root to the smallest root it meets
    (``minimum.at``, so a star settles in two rounds), pointer jumping
    flattens the trees, and the edges still open go round again.
    """
    root = np.arange(comp.size)
    a, b = comp[edges_a], comp[edges_b]
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]
        a, b = root[a], root[b]
        still_open = a != b
        a, b = a[still_open], b[still_open]
    return root[comp]


def _touching(xyz: np.ndarray, grid: GridIndex, a, b, cost, r2) -> np.ndarray:
    """Whether any point of node a[k] lies closer than r to any point of node
    b[k], ``cost[k]`` being the product of their point counts."""
    item, q = expand_ranges(0, cost)
    qa, qb = np.divmod(q, grid.counts[b][item])
    i = grid.starts[a][item] + qa
    j = grid.starts[b][item] + qb
    x, y, z = xyz  # the expression of squared_distances, one axis per array
    dx, dy, dz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
    hit = np.zeros(a.size, dtype=bool)
    hit[item[dx * dx + dy * dy + dz * dz < r2]] = True
    return hit


def _clusters_from_components(
    comp: np.ndarray, global_idx: np.ndarray, sem_labels: np.ndarray, min_points: int, source: Source
) -> list[Cluster]:
    """Group points by component id, size-filter, and order canonically."""
    sel = np.flatnonzero(np.bincount(comp)[comp] > min_points)
    order = sel[np.argsort(comp[sel], kind="stable")]
    groups = np.split(global_idx[order], np.flatnonzero(np.diff(comp[order])) + 1)
    clusters = [Cluster(m, int(sem_labels[m[0]]), source) for m in groups if m.size]
    return sorted(clusters, key=lambda c: c.min_index)


def cluster_single_set(
    coords: np.ndarray,
    sem_labels: np.ndarray,
    stuff_classes,
    params: ClusterParams,
    source: Source,
) -> list[Cluster]:
    """Cluster one coordinate set (original or shifted).

    Output clusters are disjoint, label-homogeneous, sorted by their minimum
    member index, with members sorted ascending; the result is independent
    of input point order up to this canonical form.  The grid build and the
    point-pair tests run in the span ``bq_p`` on the original set (``bq_q``
    on the shifted one), component merging and cluster assembly in ``cl_p``
    (``cl_q``); see ``trace``.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError("coords must have shape (n_points, 3)")
    sem_labels = check_labels(coords.shape[0], sem_labels)

    with np.errstate(over="ignore"):
        coords32 = coords.astype(np.float32)
    # a finite point beyond the float32 range is infinitely far from every
    # point under the float32 distance test, so it joins no cluster, as in
    # the oracle; non-finite input still reaches GridIndex, which rejects it
    active = ~never_clustered(sem_labels, stuff_classes)
    if not np.isfinite(coords32).all():
        active &= ~(np.isfinite(coords).all(axis=1) & ~np.isfinite(coords32).all(axis=1))
    active_idx = np.flatnonzero(active)
    tag = "p" if source == Source.ORIGINAL else "q"

    with span(f"bq_{tag}"):
        grid = GridIndex(coords32[active_idx], params.radius, sem_labels[active_idx])
        xyz = np.ascontiguousarray(grid.coords[grid.order].T)
        r2 = radius_squared(params.radius)
        # cheapest node pairs first: their merges let costly pairs be skipped;
        # costs fit in int16 (at most 64 x 64), which numpy sorts by radix
        a, b = grid.node_pairs()
        counts = grid.counts.astype(np.int16)
        cost = counts[a] * counts[b]
        cheap = np.argsort(cost, kind="stable")
        a, b, cost = a[cheap], b[cheap], cost[cheap]
        comp = grid.node_cell.copy()  # node pairs join distinct cells: all live

    while a.size:
        with span(f"bq_{tag}"):
            # a round: the cheapest live pairs up to _CHUNK point pairs, at least one
            take = max(1, int(np.searchsorted(np.cumsum(cost[:_CHUNK]), _CHUNK, side="right")))
            close = _touching(xyz, grid, a[:take], b[:take], cost[:take], r2)
            ja, jb = a[:take][close], b[:take][close]
            a, b, cost = a[take:], b[take:], cost[take:]
        if ja.size:
            with span(f"cl_{tag}"):
                comp = _merge_edges(comp, ja, jb)
                live = comp[a] != comp[b]  # drop the pairs this merge joined
                a, b, cost = a[live], b[live], cost[live]

    with span(f"cl_{tag}"):
        point_comp = np.empty(active_idx.size, dtype=np.int64)
        point_comp[grid.order] = np.repeat(comp, grid.counts)
        return _clusters_from_components(point_comp, active_idx, sem_labels, params.min_points, source)


class _UnionFind:
    """Plain union-find with path compression, for the testing oracle."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def connected_components_oracle(
    coords: np.ndarray,
    sem_labels: np.ndarray,
    stuff_classes,
    params: ClusterParams,
    source: Source = Source.ORIGINAL,
) -> list[Cluster]:
    """Reference clustering: union-find over every point pair.

    Same contract as cluster_single_set, O(N^2); exists so the grid path can
    be checked exactly against an independent implementation.
    """
    with np.errstate(over="ignore"):  # beyond float32 range: inf, never joined
        coords = np.asarray(coords, dtype=np.float32)
    sem_labels = check_labels(coords.shape[0], sem_labels)
    active_idx = np.flatnonzero(~never_clustered(sem_labels, stuff_classes))
    n = active_idx.size
    pts = coords[active_idx]
    labels_a = sem_labels[active_idx]
    r2 = radius_squared(params.radius)

    uf = _UnionFind(n)
    block = 512
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are not < r2
            d2 = squared_distances(pts[lo:hi, None, :], pts[None, :, :])
        mask = (d2 < r2) & (labels_a[lo:hi, None] == labels_a[None, :])
        rows, cols = np.nonzero(mask)
        rows = rows + lo
        upper = rows < cols
        for a, b in zip(rows[upper].tolist(), cols[upper].tolist()):
            uf.union(a, b)

    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(uf.find(a), []).append(a)
    clusters = []
    for members in groups.values():
        if len(members) <= params.min_points:
            continue
        global_members = active_idx[np.array(members, dtype=np.int64)]
        clusters.append(
            Cluster(
                point_idx=np.sort(global_members),
                class_id=int(sem_labels[global_members[0]]),
                source=source,
            )
        )
    clusters.sort(key=lambda c: c.min_index)
    return clusters


def cluster_dual_set(
    scene: Scene,
    offsets: OffsetField,
    params: ClusterParams,
    sources=(Source.ORIGINAL, Source.SHIFTED),
) -> list[Cluster]:
    """Cluster each coordinate set of ``sources`` and pool the results.

    Runs the same algorithm on the original coordinates and on the
    offset-shifted ones (both by default), in the order given; the cluster
    lists are concatenated without deduplication (overlaps are resolved
    later by scored NMS).
    """
    check_offsets(scene, offsets)
    clusters = []
    for source in map(Source, sources):
        coords = scene.coords if source == Source.ORIGINAL else shifted_coords(scene, offsets)
        clusters += cluster_single_set(coords, scene.sem_labels, scene.stuff_classes, params, source)
    return clusters
