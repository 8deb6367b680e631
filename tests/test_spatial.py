import numpy as np
import pytest

from cloudinst.spatial import (
    _FINE_FACTOR,
    GridIndex,
    ball_query,
    brute_force_query,
    build_index,
    radius_squared,
)


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


def test_grid_matches_brute_force_fuzz():
    rng = np.random.default_rng(1)
    coords = rng.uniform(0, 1, (5000, 3)).astype(np.float32)
    idx = build_index(coords, 0.05)
    for center in rng.integers(0, 5000, 500):
        a = ball_query(idx, int(center))
        b = brute_force_query(coords, int(center), 0.05)
        assert np.array_equal(a, b)


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


def test_center_index_bounds():
    idx = build_index(np.zeros((2, 3), dtype=np.float32), 0.03)
    with pytest.raises(IndexError):
        ball_query(idx, 5)
    with pytest.raises(IndexError):
        brute_force_query(np.zeros((2, 3), dtype=np.float32), -1, 0.03)


def test_float64_input_cast_consistently():
    rng = np.random.default_rng(3)
    coords64 = rng.uniform(0, 1, (1000, 3))
    idx = build_index(coords64, 0.06)
    for center in (0, 17, 999):
        a = ball_query(idx, center)
        b = brute_force_query(coords64, center, 0.06)
        assert np.array_equal(a, b)


def test_far_outliers_match_brute_force():
    # keys are ranked per axis, so spans of 1e36 m neither overflow nor
    # separate close pairs that sit next to a huge gap
    rng = np.random.default_rng(4)
    coords = rng.uniform(0, 0.3, (600, 3)).astype(np.float32)
    far = rng.choice(600, 6, replace=False)
    coords[far] += (10.0 ** rng.uniform(4, 36, (6, 1)) * rng.choice([-1, 1], (6, 3))).astype(np.float32)
    coords[far[1]] = coords[far[0]]
    idx = build_index(coords, 0.05)
    for center in list(far) + list(range(0, 600, 23)):
        assert np.array_equal(
            ball_query(idx, int(center)), brute_force_query(coords, int(center), 0.05)
        )
    assert ball_query(idx, int(far[0])).tolist() == sorted(far[:2].tolist())


def test_dense_pile_matches_brute_force():
    # a pile far denser than one node holds, next to a sparse halo
    rng = np.random.default_rng(5)
    pile = rng.normal(0.5, 1e-4, (300, 3))
    halo = rng.uniform(0.4, 0.6, (200, 3))
    coords = np.concatenate([pile, halo]).astype(np.float32)
    idx = build_index(coords, 0.03)
    assert idx.n_cells < idx.n_nodes
    for center in range(0, 500, 7):
        assert np.array_equal(ball_query(idx, center), brute_force_query(coords, center, 0.03))


def _two_label_cloud(seed):
    """A sparse two-label cloud, a same-label pile of 150 points inside one
    cell (three nodes), and a block far beyond a collapsed key gap."""
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0, 1, (1500, 3))
    pile = 0.5 + rng.uniform(0, 1e-3, (150, 3))
    far = 40 + rng.uniform(0, 0.3, (200, 3))
    coords = np.concatenate([spread, pile, far]).astype(np.float32)
    labels = rng.integers(0, 2, coords.shape[0])
    labels[1500:1650] = 1
    return coords, labels


@pytest.mark.parametrize("seed", range(5))
def test_node_pairs_match_brute_force(seed):
    r = 0.1
    coords, labels = _two_label_cloud(seed)
    grid = GridIndex(coords, r, labels)
    assert np.bincount(grid.node_cell).max() >= 3
    # the near and the far ring split the stencil's pairs between them
    assert grid.near_pairs()[0].size and grid.far_pairs()[0].size
    a, b = map(np.concatenate, zip(grid.near_pairs(), grid.far_pairs()))
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


@pytest.mark.parametrize("seed", range(5))
def test_far_ring_leaves_out_only_pairs_of_one_root(seed):
    coords, labels = _two_label_cloud(seed)
    grid = GridIndex(coords, 0.1, labels)
    everything = set(zip(*(x.tolist() for x in grid.far_pairs())))
    # three random components; runs of three whole rows, some of whose nodes
    # stand alone; and one component per label, which leaves nothing out, as
    # no stencil row reaches another label
    rng = np.random.default_rng(seed)
    row = grid._node_codes // grid._wx
    alone = np.where(rng.random(grid.n_nodes) < 0.3, np.arange(grid.n_nodes) + grid.n_nodes, row // 3)
    node_label = labels[grid.order[grid.starts]]
    for roots in (rng.integers(0, 3, grid.n_nodes), row // 3, alone, node_label):
        kept = set(zip(*(x.tolist() for x in grid.far_pairs(roots))))
        assert kept < everything
        assert all(roots[a] == roots[b] for a, b in everything - kept)
        # exactly the pairs (a, b) whose row of b holds a's root alone go
        row_roots = [set(roots[row == r].tolist()) for r in range(row.max() + 1)]
        assert kept == {(a, b) for a, b in everything if row_roots[row[b]] != {roots[a]}}
    assert kept == set()


@pytest.mark.parametrize("seed", range(5))
def test_far_ring_with_distinct_roots_leaves_out_nothing(seed):
    coords, labels = _two_label_cloud(seed)
    grid = GridIndex(coords, 0.1, labels)
    a, b = grid.far_pairs(np.arange(grid.n_nodes))
    want_a, want_b = grid.far_pairs()
    assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
