"""Checks of the benchmark's own code: run with

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

from bench_inputs import active_mask, grid_stats


def brute_force_grid_stats(coords, cell):
    pts = np.asarray(coords, dtype=np.float32).astype(np.float64)
    keys = np.floor((pts - pts.min(axis=0)) / cell).astype(np.int64)
    cheb = np.abs(keys[:, None, :] - keys[None, :, :]).max(axis=2)
    i, j = np.triu_indices(len(pts), k=1)
    _, counts = np.unique(keys, axis=0, return_counts=True)
    return {
        "cells": len(counts),
        "max_cell_points": int(counts.max()),
        "pair_bound": int((cheb[i, j] <= 1).sum()),
    }


@pytest.mark.parametrize("seed", range(5))
def test_pair_bound_equals_brute_force_count(seed):
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.0, 0.5, (300, 3))
    # piles of identical points, as oracle offsets produce
    piles = np.repeat(rng.uniform(0.0, 0.5, (4, 3)), 40, axis=0)
    coords = np.concatenate([spread, piles])
    assert grid_stats(coords, 0.03) == brute_force_grid_stats(coords, 0.03)


def test_grid_stats_of_one_pile():
    coords = np.zeros((10, 3))
    assert grid_stats(coords, 0.03) == {"cells": 1, "max_cell_points": 10, "pair_bound": 45}


def test_active_mask_drops_unlabelled_and_stuff():
    labels = np.array([-1, 0, 1, 2, 3])
    assert active_mask(labels, {0, 1}).tolist() == [False, False, False, True, True]
