"""Uniform-grid spatial index for exact fixed-radius neighbor search.

One grid serves both the ball query and the radius clustering.  Cells have
side r / (sqrt(3) * 1.0001), so any two points sharing a cell are strictly
within r of each other, and every pair closer than r lies in cells whose
keys differ by at most two on each axis: the 5x5x5 stencil around a cell.
Given per-point labels, the points of one (cell, label) form a clique under
the radius predicate; a node holds up to 64 of them, so that a pair of
nodes is a bounded unit of work.  Nodes are sorted by (label, y, z, x), so
the stencil is walked as rows of fixed (dy, dz): one ``searchsorted`` range
per row covers its whole x-run from -2 to +2, and the nodes of the own row
need no search, as they follow in node order.  The half stencil is walked in
two rings: near (the own row and the four rows that touch it by a face or an
edge) and far (the other eight rows).  Given each node's component root, a
ring skips a node's range in a row whose nodes all share its root, as every
pair there joins one component to itself; rows are contiguous in node order,
so that shared root is a min/max ``reduceat`` over rows.  A ring's rows are
looked up once, then searched and expanded one stencil row at a time, so
that only its node pairs, as int32 ids, outlive a row.

Cell keys are floor(coord / side) in float64, ranked over the occupied keys
of each axis with gaps wider than 3 collapsed to 3.  That keeps every
"within 2 cells" relation, needs no origin, and bounds every key by three
times the point count, so no finite input can overflow the packed int64
codes.  Dense keys are ranked through a table, others by sorting.

Distance tests are done on float32 values with a strict ``<`` against r*r,
written as the same expression everywhere (including the brute-force
oracle) so the two routes agree bit-for-bit.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import check, int32_ids, is_int, refuse

# cell side as a fraction of the radius: the cell diagonal is r / 1.0001, so
# points sharing a cell are strictly within r of each other
_FINE_FACTOR = 1.0 / (math.sqrt(3.0) * 1.0001)
# cells holding a pair closer than r differ by at most this much on each axis
_REACH = 2
# most points in one node, so that a pair of nodes holds at most _BLOCK**2
# point pairs
_BLOCK = 64

# stencil rows as (dy, dz), each from dx = -2 to +2
_SPAN = range(-_REACH, _REACH + 1)
_FULL_ROWS = np.array([(dy, dz) for dy in _SPAN for dz in _SPAN])
# the half stencil, (dy, dz) >= (0, 0), as its near ring, the own row (from
# dx = +1, so each unordered pair of distinct cells is listed once) and the
# four rows that touch it by a face or an edge, and its far ring, the others
RINGS = (np.array([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]),
         np.array([(0, 2), (1, -2), (1, 2), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise float32 squared distance, identical in every caller."""
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dz = a[..., 2] - b[..., 2]
    return dx * dx + dy * dy + dz * dz


def radius_squared(radius: float) -> np.float32:
    r = np.float32(radius)
    return r * r


def check_radius(radius: float) -> None:
    """ValueError unless ``radius`` is positive with a normal finite float32
    square.  Every distance test compares a float32 square against r*r, and the
    clique cells rely on that comparison: with r*r rounded to 0 or to inf,
    points sharing a cell can join although the test keeps them apart."""
    def ok(r) -> bool:
        with np.errstate(over="ignore", under="ignore"):
            r2 = radius_squared(r)
        return r > 0 and np.isfinite(r2) and r2 >= np.finfo(np.float32).tiny

    check("radius", radius, ok, "positive with a normal finite float32 square")


def check_labels(n_points: int, labels) -> np.ndarray:
    """``labels`` as int32 (``core.int32_ids``); ValueError unless they are
    integers in the int32 range, one per point."""
    shape = np.shape(labels)
    if len(shape) != 1:  # refused before a value is named by its flat index
        raise ValueError(f"got {n_points} coordinates but {shape} labels")
    labels = int32_ids(labels, "label")
    if labels.shape != (n_points,):
        raise ValueError(f"got {n_points} coordinates but {labels.size} labels")
    return labels


def expand_ranges(lo, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position in the ranges [lo, lo + counts), with the range it came from."""
    owner = np.repeat(np.arange(counts.size), counts)
    pos = np.arange(owner.size) + (lo - np.cumsum(counts) + counts)[owner]
    return owner, pos


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for integer-valued keys; keys
    spanning less than 8 values per key are counted in a table, not sorted."""
    if not keys.size or np.ptp(keys) >= 8 * keys.size:
        return np.unique(keys, return_inverse=True)
    lo = keys.min()
    k = (keys - lo).astype(np.int64)
    seen = np.bincount(k) > 0
    return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[k]


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Order-preserving int64 codes: key differences up to _REACH stay exact,
    wider gaps shrink to _REACH + 1."""
    uniq, inv = _unique(keys)
    steps = np.minimum(np.diff(uniq), _REACH + 1).astype(np.int64)
    return np.concatenate(([0], np.cumsum(steps)))[inv]


class GridIndex:
    """Immutable grid over a fixed coordinate set, for one query radius.

    A node is up to _BLOCK points of one occupied cell, or of one (cell,
    label) when per-point ``labels`` are given; ``node_cell`` numbers the
    cell of each node, and ``cell_start[c]`` is the first node of cell c
    (``cell_start[-1]`` is the node count).  ``order`` lists the point
    indices node by node; node k holds ``order[starts[k] : starts[k] + counts[k]]``,
    and column p of ``xyz`` (float32, one row per axis) holds point ``order[p]``.
    """

    def __init__(self, coords: np.ndarray, radius: float, labels: np.ndarray | None = None):
        check_radius(radius)
        coords = np.asarray(coords, dtype=np.float32)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("coords must have shape (n_points, 3)")
        refuse(~np.isfinite(coords), "non-finite coordinate at point {i}")
        self.radius = float(radius)
        n = coords.shape[0]
        if labels is not None:
            labels = check_labels(n, labels).astype(np.int64)

        keys = np.floor(coords.astype(np.float64) / (self.radius * _FINE_FACTOR))
        kx, ky, kz = (_ranks(keys[:, axis]) for axis in range(3))
        del keys  # the largest array of the build goes once it is ranked
        if labels is not None:
            # each label gets its own block of y keys, spaced so that no row
            # of the stencil reaches from one label into another
            ky = _ranks(_ranks(labels) * (ky.max(initial=0) + _REACH + 1) + ky)
        self._wz = int(kz.max(initial=0)) + _REACH + 1
        self._row_codes, point_row = _unique(ky * self._wz + kz)
        self._wx = int(kx.max(initial=0)) + _REACH + 1
        cell_codes = point_row * self._wx + kx

        self.order = np.argsort(cell_codes)
        self.xyz = np.take(coords.T, self.order, axis=1)  # a gather, not the caller's array
        self.xyz.setflags(write=False)
        sorted_codes = cell_codes[self.order]
        first = np.diff(sorted_codes, prepend=-1) != 0
        pos = np.arange(n)
        starts = np.flatnonzero((pos - np.maximum.accumulate(np.where(first, pos, 0))) % _BLOCK == 0)
        self.starts = starts
        self.counts = np.diff(starts, append=n)
        self.node_cell = np.cumsum(first[starts]) - 1
        self.cell_start = np.append(np.flatnonzero(first[starts]), starts.size)
        self._node_codes = sorted_codes[starts]

    @functools.cached_property
    def _point_codes(self) -> np.ndarray:  # made on the first ball_query, which alone reads it
        codes = np.empty(self.n_points, np.int64)
        codes[self.order] = np.repeat(self._node_codes, self.counts)
        return codes

    @property
    def n_points(self) -> int:
        return self.xyz.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.starts.size

    @property
    def n_cells(self) -> int:
        """Occupied cells, counted once per label they hold."""
        return int(self.node_cell[-1]) + 1 if self.n_nodes else 0

    def _row_ranges(self, codes: np.ndarray, rows: np.ndarray, roots=None):
        """The node ranges [lo, hi) that cover the stencil rows around the
        cell coded ``codes[who]``, for sorted ``codes``, as (who, lo, hi) per
        group of ``rows`` (shape (groups, rows, 2)), each group searched as
        it is reached; given ``roots`` (then ``codes`` are all nodes'), none
        in a row whose nodes all share the root of who."""
        # look each neighbour row up once per occupied row, and search only
        # from the nodes of rows whose neighbour row exists
        node_row = codes // self._wx
        run = np.flatnonzero(np.diff(node_row, prepend=-1))
        own = node_row[run]
        dy, dz = rows.reshape(-1, 2).T
        target = self._row_codes[own] + dy[:, None] * self._wz + dz[:, None]
        at = np.minimum(np.searchsorted(self._row_codes, target), self._row_codes.size - 1)
        k, u = np.nonzero(self._row_codes[at] == target)
        if not k.size:  # no neighbour row: nothing to search
            return iter(())
        if roots is not None:
            # the root of row u (from node run[u]), or -1 where it holds more than one
            low, high = np.minimum.reduceat(roots, run), np.maximum.reduceat(roots, run)
            shared = np.where(low == high, low, -1)
        size = np.diff(run, append=codes.size)

        def search(k, u):  # one group: its temporaries go with the call
            item, who = expand_ranges(run[u], size[u])
            if roots is not None:
                keep = np.flatnonzero(roots[who] != shared[at[k, u]][item])
                item, who = item[keep], who[keep]
            # each searchsorted gets ascending needles
            base = codes[who] + ((at[k, u] - own[u]) * self._wx)[item]
            lo = np.searchsorted(self._node_codes, base - _REACH)
            return who, lo, np.searchsorted(self._node_codes, base + _REACH, side="right")

        step = np.flatnonzero(np.diff(k // rows.shape[1])) + 1
        return map(search, np.split(k, step), np.split(u, step))

    def _next_cells(self):
        """The (0, 0) row as one range (who, lo, hi), made when it is reached,
        which needs no search: from dx = +1 to +2 it holds the nodes of the
        next one or two cells, if at most two codes on."""
        code = np.append(self._node_codes[self.cell_start[:-1]], [np.iinfo(np.int64).max] * 2)
        reach = sum(code[s : s + self.n_cells] - code[: self.n_cells] <= _REACH for s in (1, 2))
        reach += np.arange(1, self.n_cells + 1)
        lo, hi = self.cell_start[self.node_cell + 1], self.cell_start[reach[self.node_cell]]
        yield np.arange(self.n_nodes), lo, hi

    def ring_pairs(self, rows: np.ndarray, roots=None) -> tuple[np.ndarray, np.ndarray]:
        """Each unordered pair (a, b) of nodes in distinct cells within the
        stencil ``rows`` (a ring of RINGS), once, as int32 node ids (int64 from
        2**31 nodes), expanded a row at a time; given each node's component
        root, none whose node a shares the root of every node in the row of b
        (the own row excepted)."""
        ids = np.int32 if self.n_nodes < 2**31 else np.int64
        own = (rows == 0).all(axis=1)
        ranges = self._row_ranges(self._node_codes, rows[~own][:, None], roots)
        if own.any():
            ranges = itertools.chain(self._next_cells(), ranges)

        def expand(who, lo, hi):
            item, b = expand_ranges(lo, hi - lo)
            return who.astype(ids)[item], b.astype(ids)

        a, b = zip((np.empty(0, ids),) * 2, *itertools.starmap(expand, ranges))
        a = np.concatenate(a)  # one at a time: a's parts go before b is joined
        b = np.concatenate(b)
        return a, b


def build_index(coords: np.ndarray, radius: float) -> GridIndex:
    """Index a coordinate set for fixed-radius queries at ``radius``."""
    return GridIndex(coords, radius)


def ball_query(index: GridIndex, center_idx: int) -> np.ndarray:
    """All point indices strictly within the index radius of the center point.

    Includes the center itself; output sorted ascending.  Only the nodes in
    the 5x5x5 stencil around the center's cell are examined, which covers
    every candidate.
    """
    if not (is_int(center_idx) and 0 <= center_idx < index.n_points):  # as brute_force_query
        raise IndexError(f"center index {center_idx} out of range")
    [(_, lo, hi)] = index._row_ranges(index._point_codes[[center_idx]], _FULL_ROWS[None])
    _, nodes = expand_ranges(lo, hi - lo)
    _, take = expand_ranges(index.starts[nodes], index.counts[nodes])
    cand = index.order[take]
    xyz = index.xyz[:, take].T
    d2 = squared_distances(xyz, xyz[cand == center_idx])
    return np.sort(cand[d2 < radius_squared(index.radius)])


def brute_force_query(coords: np.ndarray, center_idx: int, radius: float) -> np.ndarray:
    """O(N) oracle for ball_query: same predicate, no index."""
    check_radius(radius)
    coords = np.asarray(coords, dtype=np.float32)
    if not (is_int(center_idx) and 0 <= center_idx < coords.shape[0]):  # as ball_query
        raise IndexError(f"center index {center_idx} out of range")
    with np.errstate(over="ignore"):  # far outliers: inf is not < r2
        d2 = squared_distances(coords, coords[center_idx])
    return np.flatnonzero(d2 < radius_squared(radius)).astype(np.int64)
