import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinst.spatial import (
    _FINE_FACTOR,
    RINGS,
    GridIndex,
    ball_query,
    brute_force_query,
    build_index,
    radius_squared,
)

from conftest import ORACLE_RADII, oracle_scenes


def test_single_point_index():
    idx = build_index(np.array([[1.0, 2.0, 3.0]], dtype=np.float32), 0.03)
    assert idx.n_points == 1
    assert idx.n_cells == 1
    assert ball_query(idx, 0).tolist() == [0]


def test_far_points_land_in_distinct_cells():
    coords = np.array([[0, 0, 0], [10, 0, 0]], dtype=np.float32)
    idx = build_index(coords, 0.03)
    assert idx.n_cells == 2


def test_every_point_in_exactly_one_cell():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 2, (10_000, 3)).astype(np.float32)
    idx = build_index(coords, 0.05)
    assert 0 < idx.n_cells <= 10_000
    assert np.array_equal(np.sort(idx.order), np.arange(10_000))
    for center in range(0, 10_000, 97):
        assert center in ball_query(idx, center)


def test_isolated_point_returns_itself():
    coords = np.array([[0, 0, 0], [5, 5, 5]], dtype=np.float32)
    idx = build_index(coords, 0.03)
    assert ball_query(idx, 0).tolist() == [0]


def test_collinear_chain_geometry():
    coords = np.array([[0, 0, 0], [0.02, 0, 0], [0.04, 0, 0]], dtype=np.float32)
    idx = build_index(coords, 0.03)
    assert ball_query(idx, 1).tolist() == [0, 1, 2]
    assert ball_query(idx, 0).tolist() == [0, 1]


def test_exact_radius_distance_excluded():
    r = 0.03
    coords = np.array([[0, 0, 0], [np.float32(r), 0, 0]], dtype=np.float32)
    d2 = (coords[1, 0] - coords[0, 0]) ** 2
    assert d2 == radius_squared(r)  # exactly on the boundary
    idx = build_index(coords, r)
    assert ball_query(idx, 0).tolist() == [0]
    assert brute_force_query(coords, 0, r).tolist() == [0]


def test_query_invariant_under_permutation():
    rng = np.random.default_rng(2)
    coords = rng.uniform(0, 0.3, (400, 3)).astype(np.float32)
    perm = rng.permutation(400)
    idx_a = build_index(coords, 0.05)
    idx_b = build_index(coords[perm], 0.05)
    inv = np.empty(400, dtype=np.int64)
    inv[perm] = np.arange(400)
    for center in range(0, 400, 37):
        a = ball_query(idx_a, center)
        b = ball_query(idx_b, int(inv[center]))
        assert np.array_equal(a, np.sort(perm[b]))


def test_build_index_validation():
    with pytest.raises(ValueError, match="positive"):
        build_index(np.zeros((1, 3), dtype=np.float32), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        build_index(np.array([[np.nan, 0, 0]], dtype=np.float32), 0.1)
    with pytest.raises(ValueError, match="shape"):
        build_index(np.zeros((3, 2), dtype=np.float32), 0.1)


@pytest.mark.parametrize(
    "labels,m",
    [
        ([1, 2], 2), (np.array([7]), 1), (np.zeros(49, np.int32), 49),
        # refused by its shape, not named by a flat index as "label 1.5 at point 49"
        (np.append(np.ones(49), 1.5).reshape(25, 2), (25, 2)),
    ],
)
def test_grid_index_refuses_labels_of_another_length(labels, m):
    coords = np.random.default_rng(0).uniform(0, 1, (50, 3))
    with pytest.raises(ValueError) as err:
        GridIndex(coords, 0.1, labels)
    assert str(err.value) == f"got 50 coordinates but {m} labels"


@pytest.mark.parametrize("labels", [np.full(50, 1.5), np.full(50, 2**32 + 1), np.full(50, True)])
def test_grid_index_refuses_labels_outside_int32_integers(labels):
    coords = np.random.default_rng(0).uniform(0, 1, (50, 3))
    with pytest.raises(ValueError, match="^label .* at point 0 is not an integer in the int32 range$"):
        GridIndex(coords, 0.1, labels)


def test_empty_index_is_valid():
    idx = build_index(np.zeros((0, 3), dtype=np.float32), 0.03)
    assert idx.n_points == 0
    assert idx.n_cells == 0
    with pytest.raises(IndexError):
        ball_query(idx, 0)
    # labelled grids with no pair to find: no points, one, and two far apart
    for n in (0, 1, 2):
        grid = GridIndex(np.arange(n)[:, None] * np.full(3, 10.0), 0.03, np.arange(n))
        assert grid.n_cells == n
        for rows in RINGS:
            for roots in (None, np.arange(grid.n_nodes)):
                a, b = grid.ring_pairs(rows, roots)
                assert a.dtype == b.dtype == np.int32 and a.size == b.size == 0


# ball_query and its oracle take one centre rule and one radius rule: -1.0
# once gave the oracle r*r = 1, True once read as centre 1 (or every point)
BAD_CENTERS = [-1, 5, True, np.True_, 0.0, 1.5, np.float64(2.0), None]
BAD_RADII = [-1.0, 0.0, float("nan"), float("inf"), 1e-30, 1e20, True]
QUERIES = {
    "ball_query": lambda coords, center, radius: ball_query(build_index(coords, radius), center),
    "brute_force_query": brute_force_query,
}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("center", BAD_CENTERS, ids=repr)
def test_query_refuses_a_center_that_is_not_an_index_in_range(query, center):
    coords = np.random.default_rng(0).uniform(0, 0.1, (5, 3)).astype(np.float32)
    with pytest.raises(IndexError) as err:
        QUERIES[query](coords, center, 0.05)
    assert str(err.value) == f"center index {center} out of range"


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("radius", BAD_RADII, ids=repr)
def test_query_refuses_a_radius_that_build_index_refuses(query, radius):
    coords = np.random.default_rng(0).uniform(0, 0.1, (5, 3)).astype(np.float32)
    with pytest.raises(ValueError) as err:
        QUERIES[query](coords, 0, radius)
    assert str(err.value) == (
        f"radius must be positive with a normal finite float32 square, got {radius}"
    )


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("center", [0, 4, np.int64(2), np.int32(3), np.uint8(1)], ids=repr)
def test_query_takes_any_integer_center_in_range(query, center):
    coords = np.random.default_rng(0).uniform(0, 0.1, (5, 3)).astype(np.float32)
    expect = brute_force_query(coords, int(center), 0.05)
    assert center in expect
    assert np.array_equal(QUERIES[query](coords, center, 0.05), expect)


def test_only_a_queried_grid_holds_per_point_codes():
    # a clustering grid never reads them; ball_query builds them once, and
    # they are the codes of the nodes the points lie in
    coords = np.random.default_rng(4).uniform(0, 0.5, (400, 3))
    idx = build_index(coords, 0.05)
    labelled = GridIndex(coords, 0.05, np.zeros(400, np.int32))
    assert "_point_codes" not in vars(idx) and "_point_codes" not in vars(labelled)
    for center in range(400):
        assert np.array_equal(ball_query(idx, center), brute_force_query(coords, center, 0.05))
    codes = vars(idx)["_point_codes"]
    assert codes is idx._point_codes
    assert np.array_equal(codes[idx.order], np.repeat(idx._node_codes, idx.counts))


def test_float64_input_cast_consistently():
    rng = np.random.default_rng(3)
    coords64 = rng.uniform(0, 1, (1000, 3))
    idx = build_index(coords64, 0.06)
    for center in (0, 17, 999):
        a = ball_query(idx, center)
        b = brute_force_query(coords64, center, 0.06)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("radius", ORACLE_RADII)
@settings(max_examples=10)
@given(data=st.data())
def test_ball_query_matches_brute_force_on_generated_scenes(radius, data):
    # float64 coordinates, each cast once by both routes
    scene = data.draw(oracle_scenes(radius))
    coords, _ = scene.in_float32()
    idx = build_index(coords, scene.radius)
    assert idx.n_cells < idx.n_nodes  # a pile outgrows its node
    assert np.array_equal(np.sort(idx.order), np.arange(coords.shape[0]))
    for center in range(coords.shape[0]):
        assert np.array_equal(ball_query(idx, center), brute_force_query(coords, center, scene.radius))


@pytest.mark.parametrize("r", ORACLE_RADII)
@settings(max_examples=10)
@given(data=st.data())
def test_node_pairs_match_brute_force_keys(r, data):
    coords, labels = data.draw(oracle_scenes(r)).in_float32()
    grid = GridIndex(coords, r, labels)
    assert np.bincount(grid.node_cell).max() >= 3
    # the near and the far ring split the stencil's pairs between them
    rings = [grid.ring_pairs(rows) for rows in RINGS]
    assert all(a.size for a, _ in rings)
    a, b = map(np.concatenate, zip(*rings))
    assert (a != b).all()
    pairs = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    assert len(pairs) == a.size
    # nodes of one cell share its key: compare each node by its first point
    first = grid.order[grid.starts]
    keys = np.floor(coords[first].astype(np.float64) / (r * _FINE_FACTOR))
    near = (np.abs(keys[:, None] - keys[None]) <= 2).all(axis=2)
    near &= labels[first][:, None] == labels[first][None]
    near &= grid.node_cell[:, None] != grid.node_cell[None]
    assert pairs == set(map(tuple, np.argwhere(np.triu(near)).tolist()))


def test_rings_list_each_half_stencil_row_once():
    # the own (0, 0) row, walked from dx = +1, and each of the 12 rows
    # (dy, dz) > (0, 0), each in one ring exactly once
    rows = [tuple(row) for ring in RINGS for row in ring.tolist()]
    half = [(dy, dz) for dy in range(-2, 3) for dz in range(-2, 3) if (dy, dz) >= (0, 0)]
    assert len(half) == 13 and sorted(rows) == half
    # the near ring, walked first: the own row and the four rows that touch
    # it by a face or an edge
    near = [tuple(row) for row in RINGS[0].tolist()]
    assert len(RINGS) == 2 and sorted(near) == [row for row in half if max(map(abs, row)) <= 1]


# root choices: three random components; runs of three whole rows, some of
# whose nodes stand alone; distinct roots, which leave out nothing; and one
# component per label, which leaves out everything, as no stencil row
# reaches another label
_ROOTS = {
    "three": lambda rng, n, row, label: rng.integers(0, 3, n),
    "rows": lambda rng, n, row, label: row // 3,
    "alone": lambda rng, n, row, label: np.where(rng.random(n) < 0.3, np.arange(n) + n, row // 3),
    "distinct": lambda rng, n, row, label: np.arange(n),
    "label": lambda rng, n, row, label: label,
}


@pytest.mark.parametrize("choice", sorted(_ROOTS))
@pytest.mark.parametrize("radius", ORACLE_RADII)
@settings(max_examples=10)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_far_ring_leaves_out_exactly_the_pairs_of_one_root(radius, choice, data, seed):
    coords, labels = data.draw(oracle_scenes(radius)).in_float32()
    grid = GridIndex(coords, radius, labels)
    everything = set(zip(*(x.tolist() for x in grid.ring_pairs(RINGS[1]))))
    row = grid._node_codes // grid._wx
    roots = _ROOTS[choice](np.random.default_rng(seed), grid.n_nodes, row, labels[grid.order[grid.starts]])
    kept = set(zip(*(x.tolist() for x in grid.ring_pairs(RINGS[1], roots))))
    # exactly the pairs (a, b) whose row of b holds a's root alone go
    row_roots = [set(roots[row == r].tolist()) for r in range(row.max() + 1)]
    assert kept == {(a, b) for a, b in everything if row_roots[row[b]] != {roots[a]}}
    if choice == "distinct":
        assert all(map(np.array_equal, grid.ring_pairs(RINGS[1], roots), grid.ring_pairs(RINGS[1])))
    if choice == "label":
        assert everything and kept == set()  # the chain along y crosses two cells in one hop
