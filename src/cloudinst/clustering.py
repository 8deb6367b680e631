"""Label-constrained radius clustering on one coordinate set, and the
dual-set driver that pools clusters found in original and shifted space.

A cluster is a maximal group of same-label points connected by hops of
length strictly less than the radius; stuff-class and unlabeled points never
participate.  Groups at or below the minimum point count are discarded.

The production path is grid DBSCAN (Gunawan 2013; de Berg, Gunawan and
Roeloffzen 2017) on the labelled grid of ``spatial``: the points of one
(fine cell, label) are a clique, so components are computed over grid
nodes (up to 64 points of one such clique), and two neighbouring nodes join
when any of their point pairs is closer than r.  Node pairs (up to 64 x 64
point pairs each) are read cheapest first, a window at a time, against one
parent array for the whole call (Wang, Gu and Shun 2020).  A round tests the
live pairs read, at least one and up to _CHUNK point pairs, and hooks the
components they join into that array in place; live pairs it leaves wait,
unread, for the next round.  The rounds run first on the pairs of the
stencil's near ring, then on those of its far ring, enumerated given the
roots the near ring left: a node that already shares the one root of a whole
far row gets no pair there, since each would join one component to itself.
The testing oracle below does the same thing the slow, obvious way (all
O(N^2) pairs through union-find).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Cluster, OffsetField, Scene, Source, check, check_offsets, is_int, never_clustered, refuse,
    shifted_coords,
)
from .spatial import (
    RINGS, GridIndex, check_labels, check_radius, expand_ranges, radius_squared, squared_distances,
)
from .trace import span

_CHUNK = 1 << 17  # point pairs tested between two component merges


@dataclass(frozen=True)
class ClusterParams:
    """Clustering radius (meters) and minimum cluster point count: clusters
    are kept only when their size is strictly greater than ``min_points``."""

    radius: float = 0.03
    min_points: int = 50

    def __post_init__(self):
        check_radius(self.radius)
        points = self.min_points
        check("min_points", points, lambda n: is_int(n) and n >= 1, "an integer >= 1")


def _roots(comp: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Root of each of ``nodes`` in the parent array ``comp``; each node read
    is re-pointed a level up per step until it points at its root."""
    root = comp[nodes]
    deep = np.flatnonzero(comp[root] != root)
    while deep.size:
        root[deep] = comp[root[deep]]
        comp[nodes[deep]] = root[deep]
        deep = deep[comp[root[deep]] != root[deep]]
    return root


def _live(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The positions k whose nodes a[k] and b[k] are not yet joined."""
    return np.flatnonzero(_roots(comp, a) != _roots(comp, b))


def _merge_edges(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of nodes a[k] and b[k] in the parent array ``comp``,
    in place (Shiloach and Vishkin 1982): each open edge hooks its larger root
    to the smallest root it meets (``minimum.at``: a star settles in two
    rounds).  A hook points one side of an edge at the other, so looking up
    a and b again jumps pointers along the chains the hooks made."""
    while a.size:
        a, b = _roots(comp, a), _roots(comp, b)
        still_open = a != b
        a, b = a[still_open], b[still_open]
        np.minimum.at(comp, np.maximum(a, b), np.minimum(a, b))


def _touching(grid: GridIndex, a, b, cost) -> np.ndarray:
    """Whether any point of node a[k] lies closer than r to any point of node
    b[k], ``cost[k]`` being the product of their point counts."""
    item, i = expand_ranges(0, cost)
    j = grid.counts[b][item]
    np.divmod(i, j, out=(i, j))  # in place: each point's place in its node
    i += grid.starts[a][item]
    j += grid.starts[b][item]
    d2 = np.zeros(item.size, dtype=np.float32)
    for v in grid.xyz:  # the expression of squared_distances, one axis at a time
        d = v[i] - v[j]
        d2 += np.multiply(d, d, out=d)
    hit = np.zeros(a.size, dtype=bool)
    hit[item[d2 < radius_squared(grid.radius)]] = True
    return hit


def _join_close_pairs(comp: np.ndarray, grid: GridIndex, rows, by_root: bool, tag: str) -> None:
    """Join, in the parent array ``comp``, the components of each node pair
    (a[k], b[k]) of ``grid.ring_pairs(rows)``, by root if ``by_root``, that
    holds a point pair closer than r, in rounds of at most _CHUNK point pairs
    tested (at least one).  Only this call holds a and b: they go once sorted."""
    with span(f"bq_{tag}"):
        a, b = grid.ring_pairs(rows, _roots(comp, np.arange(comp.size)) if by_root else None)
        # cheapest node pairs first: their merges let costly pairs be skipped;
        # costs fit in int16 (at most 64 x 64), which numpy sorts by radix
        counts = grid.counts.astype(np.int16)
        cost = counts[a] * counts[b]
        cheap = np.argsort(cost, kind="stable")
        a, b, cost = a[cheap], b[cheap], cost[cheap]
        del cheap  # the rounds hold only the sorted lists
        before = np.concatenate(([0], cost))
        np.cumsum(before, out=before)  # the point pairs of the node pairs before each

    lo, wait = 0, np.empty(0, dtype=np.int64)
    while lo < a.size or wait.size:
        with span(f"bq_{tag}"):
            # the pairs left waiting, then windows from lo until the live pairs
            # fill the budget: a window spans the point pairs the budget lacks,
            # doubled after a window with no live pair
            live, spent, ext = [wait], int(cost[wait].sum()), 0
            while spent < _CHUNK and lo < a.size:
                ext = _CHUNK - spent if live[-1].size else max(_CHUNK - spent, 2 * ext)
                end = max(lo + 1, int(np.searchsorted(before, before[lo] + ext, "right")) - 1)
                live.append(lo + _live(comp, a[lo:end], b[lo:end]))
                spent, lo = spent + int(cost[live[-1]].sum()), end
            live = np.concatenate(live)
            if not live.size:
                break
            take = max(1, int(np.searchsorted(np.cumsum(cost[live]), _CHUNK, side="right")))
            live, wait = live[:take], live[take:]
            close = _touching(grid, a[live], b[live], cost[live])
        with span(f"cl_{tag}"):
            _merge_edges(comp, a[live[close]], b[live[close]])


def _clusters_from_components(
    comp: np.ndarray, global_idx: np.ndarray, sem_labels: np.ndarray, min_points: int, source: Source
) -> list[Cluster]:
    """Group points by component id, size-filter, and order canonically."""
    sel = np.flatnonzero(np.bincount(comp)[comp] > min_points)
    order = sel[np.argsort(comp[sel], kind="stable")]
    groups = np.split(global_idx[order], np.flatnonzero(np.diff(comp[order])) + 1)
    clusters = [Cluster(m, int(sem_labels[m[0]]), source) for m in groups if m.size]
    return sorted(clusters, key=lambda c: c.min_index)


def _active_points(coords, sem_labels, stuff_classes) -> tuple[np.ndarray, ...]:
    """Float32 ``coords``, int32 ``sem_labels`` and the points that can join a
    cluster; SceneError names the first of them with a non-finite coordinate.
    A finite point beyond the float32 range is infinitely far from every
    point under the float32 distance test, so it joins none."""
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError("coords must have shape (n_points, 3)")
    sem_labels = check_labels(coords.shape[0], sem_labels)
    with np.errstate(over="ignore"):
        coords32 = coords.astype(np.float32)
    active = ~never_clustered(sem_labels, stuff_classes)
    if not np.isfinite(coords32).all():
        refuse(active[:, None] & ~np.isfinite(coords), "non-finite coordinate at point {i}")
        active &= np.isfinite(coords32).all(axis=1)
    return coords32, sem_labels, np.flatnonzero(active)


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
    return _cluster_points(*_active_points(coords, sem_labels, stuff_classes), params, source)


def _cluster_points(coords32, sem_labels, active_idx, params, source) -> list[Cluster]:
    """``cluster_single_set`` on the points ``active_idx`` (ascending) of the
    float32 ``coords32`` and int32 ``sem_labels`` that ``_active_points``
    returns: their clusters, members as indices of those arrays.  The points
    of any one label are clustered alike whichever others are given."""
    tag = "p" if source == Source.ORIGINAL else "q"

    with span(f"bq_{tag}"):
        grid = GridIndex(coords32[active_idx], params.radius, sem_labels[active_idx])
        # the nodes of a cell are one clique: each is hooked to the cell's first
        comp = grid.cell_start[grid.node_cell]
    # the far ring leaves out the rows that the near ring's joins settled
    for far, rows in enumerate(RINGS):
        _join_close_pairs(comp, grid, rows, bool(far), tag)

    with span(f"cl_{tag}"):
        point_comp = np.empty(active_idx.size, dtype=np.int64)
        point_comp[grid.order] = np.repeat(_roots(comp, np.arange(comp.size)), grid.counts)
        return _clusters_from_components(point_comp, active_idx, sem_labels, params.min_points, source)


class _UnionFind:
    """Plain union-find with path halving, for the testing oracle."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(b)] = self.find(a)


def connected_components_oracle(
    coords: np.ndarray,
    sem_labels: np.ndarray,
    stuff_classes,
    params: ClusterParams,
    source: Source = Source.ORIGINAL,
) -> list[Cluster]:
    """Reference clustering: union-find over every point pair.  Same contract
    as cluster_single_set, O(N^2), so that the grid path can be checked
    exactly against an independent implementation."""
    coords, sem_labels, active_idx = _active_points(coords, sem_labels, stuff_classes)
    n = active_idx.size
    pts, labels_a = coords[active_idx], sem_labels[active_idx]
    r2 = radius_squared(params.radius)

    uf = _UnionFind(n)
    for lo in range(0, n, 512):
        with np.errstate(over="ignore"):  # far apart: inf is not < r2
            d2 = squared_distances(pts[lo : lo + 512, None, :], pts[None, :, :])
        mask = (d2 < r2) & (labels_a[lo : lo + 512, None] == labels_a[None, :])
        rows, cols = np.nonzero(np.triu(mask, lo + 1))  # each pair once: row < column
        for a, b in zip((rows + lo).tolist(), cols.tolist()):
            uf.union(a, b)

    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(uf.find(a), []).append(a)
    clusters = []
    for members in groups.values():
        if len(members) > params.min_points:
            members = active_idx[members]
            clusters.append(Cluster(np.sort(members), int(sem_labels[members[0]]), source))
    return sorted(clusters, key=lambda c: c.min_index)


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
