"""Benchmark inputs: the workload scenes, written as .sc1/.off1 files, and
workload properties computed from the input arrays alone.

Run as a script it writes one workload's files into a directory:

    python3 perfbench/bench_inputs.py --workload label-noise --seed 3 --out DIR

It runs in its own process so that generating and writing the inputs does
not count towards the peak memory of the process that runs the workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cloudinst as ci  # noqa: E402

# The 123k-point scene of demos/06_benchmark.py.  Its layout is fixed: over
# five layout seeds the label-noise cluster path ranged from 12.8 s to 21.8 s,
# which one scene per run cannot average out.  The benchmark seed drives the
# noise draws instead (label flips, offset noise).
GEOMETRY = dict(
    seed=9, room=(9.0, 9.0, 3.0), n_objects=50, density=3000.0,
    stuff_density=200.0, size_scale=(0.6, 1.0), min_gap=0.10,
)

# Noise applied to the observed scene the cluster step reads.
WORKLOADS = {
    "clean": {},
    "offset-noise": {"sigma0": 0.01, "beta": 2.0},
    "label-noise": {"p_sem": 0.05, "sem_temperature": 0.5},
}

# Scorer training corpus and warm-up scene: small rooms with seeds no
# measured scene uses.
CORPUS_SEEDS = (900_001, 900_002, 900_003, 900_004)
WARMUP_SEED = 900_000


def corpus_config(seed: int) -> ci.GenConfig:
    """A ~20k-point room; odd seeds carry boundary-weighted offset noise."""
    noisy = seed % 2 == 1
    return ci.GenConfig(
        seed=seed, sigma0=0.01 if noisy else 0.0, beta=2.0 if noisy else 0.0
    )


def training_corpus() -> list:
    """(observed scene, offsets) pairs for ``train_scorer``."""
    corpus = []
    for seed in CORPUS_SEEDS:
        _, observed, offsets = ci.generate_sample(corpus_config(seed))
        corpus.append((observed, offsets))
    return corpus


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write scene.sc1/scene.off1 (what `cloudinst cluster` reads),
    truth.sc1 (what `cloudinst evaluate` reads) and warm.sc1/warm.off1.

    Returns the paths, keyed by role, plus the scene's point count.
    """
    noise = WORKLOADS[workload]
    clean, oracle = ci.generate_scene(ci.GenConfig(**GEOMETRY))
    observed, offsets = clean, oracle
    if "p_sem" in noise:
        observed = ci.perturb_semantics(clean, noise["p_sem"], noise["sem_temperature"], seed)
    if "sigma0" in noise:
        offsets = ci.perturb_offsets(oracle, clean, noise["sigma0"], noise["beta"], seed)

    out.mkdir(parents=True, exist_ok=True)
    paths = {"scene": out / "scene.sc1", "offsets": out / "scene.off1"}
    ci.save_scene(observed, paths["scene"])
    ci.save_offsets(offsets, paths["offsets"])
    if observed is clean:
        paths["truth"] = paths["scene"]
    else:
        paths["truth"] = out / "truth.sc1"
        ci.save_scene(clean, paths["truth"])

    _, warm, warm_offsets = ci.generate_sample(corpus_config(WARMUP_SEED))
    paths["warm_scene"] = out / "warm.sc1"
    paths["warm_offsets"] = out / "warm.off1"
    ci.save_scene(warm, paths["warm_scene"])
    ci.save_offsets(warm_offsets, paths["warm_offsets"])
    return {"paths": {k: str(v) for k, v in paths.items()}, "n_points": clean.n_points}


def active_mask(sem_labels: np.ndarray, stuff_classes) -> np.ndarray:
    """Points that can join a cluster: labelled and not of a stuff class."""
    stuff = np.array(sorted(stuff_classes), dtype=np.int64)
    return (sem_labels >= 0) & ~np.isin(sem_labels, stuff)


# each unordered pair of distinct neighbouring cells once
_HALF_STENCIL = [
    (a, b, c)
    for a in (-1, 0, 1)
    for b in (-1, 0, 1)
    for c in (-1, 0, 1)
    if (a, b, c) > (0, 0, 0)
]


def grid_stats(coords: np.ndarray, cell: float) -> dict:
    """Occupied cells, the largest cell's point count, and the pair bound of
    a uniform grid with side ``cell`` over ``coords``.

    The pair bound counts unordered point pairs that share a cell or sit in
    neighbouring cells (Chebyshev distance 1 between cell keys): every pair a
    radius search with that cell size must consider, before any pruning.
    Coordinates are rounded to float32 first, as the clustering does.
    """
    pts = np.asarray(coords, dtype=np.float32).astype(np.float64)
    if pts.shape[0] == 0:
        return {"cells": 0, "max_cell_points": 0, "pair_bound": 0}
    keys = np.floor((pts - pts.min(axis=0)) / cell).astype(np.int64)
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    n = counts.astype(np.int64)
    bound = int((n * (n - 1) // 2).sum())
    span = uniq.max(axis=0) + 3

    def encode(k):
        # +1 keeps key - 1 non-negative; codes of the sorted uniq rows are sorted
        k = k + 1
        return (k[:, 0] * span[1] + k[:, 1]) * span[2] + k[:, 2]

    codes = encode(uniq)
    for delta in _HALF_STENCIL:
        target = encode(uniq + np.array(delta))
        pos = np.minimum(np.searchsorted(codes, target), codes.size - 1)
        hit = codes[pos] == target
        bound += int((n[hit] * n[pos[hit]]).sum())
    return {"cells": int(uniq.shape[0]), "max_cell_points": int(n.max()), "pair_bound": bound}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    print(json.dumps(write_inputs(args.workload, args.seed, Path(args.out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
