"""Deterministic synthetic room scenes with ground-truth instances, oracle
semantics and centroid offsets, plus the two noise models that emulate
imperfect branch predictions (label flips, boundary-weighted offset noise).

All randomness flows through counter-based Philox generators keyed by
(seed, stream id), one stream per generation stage and per object, so
results are reproducible no matter how generation is scheduled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .core import OffsetField, Scene, check, check_offsets, check_seed, is_int, never_clustered
from .losses import offset_targets

# class id -> primitive kind and base full dimensions (meters), cycled
_SHAPES = (
    ("box", (0.50, 0.40, 0.45)),
    ("box", (0.80, 0.60, 0.65)),
    ("sphere", (0.40,)),  # diameter
    ("cylinder", (0.30, 0.50)),  # diameter, height
    ("box", (0.55, 0.10, 0.40)),
    ("sphere", (0.26,)),
)

_MAX_TEMPERATURE = 1000.0
MAX_PLACE_TRIES = 500  # placement attempts per object before generation fails
# class layout of every generated scene: floor and walls, then the objects
STUFF_CLASSES = (0, 1)
THING_CLASSES = (2, 3, 4, 5, 6, 7)
N_CLASSES = 8


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64))
    )


def _point_count(planned: float, fields: str) -> int:
    """``planned`` rounded to a point count; ValueError naming ``fields``,
    the knobs it grows with, when no array can hold that many points."""
    if not planned <= np.iinfo(np.intp).max:  # also refuses nan
        raise ValueError(f"{fields} too large: {planned:.3g} points, more than an array holds")
    return int(round(planned))


def _memory_bytes() -> float:
    """This machine's physical memory in bytes; inf where the system does not
    report it."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


def _check_label_noise(p_sem: float, temperature: float) -> None:
    check("p_sem", p_sem, lambda p: 0.0 <= p <= 1.0, "in [0, 1]")
    check(
        "sem_temperature", temperature, lambda t: 0.0 <= t <= _MAX_TEMPERATURE,
        f"in [0, {_MAX_TEMPERATURE}]",
    )


def _check_offset_noise(sigma0: float, beta: float) -> None:
    check("sigma0", sigma0, lambda x: x >= 0, "finite and >= 0")
    check("beta", beta, lambda x: x >= 0, "finite and >= 0")


@dataclass(frozen=True)
class GenConfig:
    """Scene generation knobs: geometry, density, adjacency, and noise.

    Every scene has ``N_CLASSES`` classes: ``STUFF_CLASSES`` are the floor
    and the walls, objects draw theirs from ``THING_CLASSES``.
    ``same_class_gap`` switches the generator to placing same-class objects
    in adjacent pairs at exactly that surface gap (it may be below the
    clustering radius to force original-space merging).  Noise parameters
    are consumed by ``generate_sample``; ``generate_scene`` always emits
    oracle labels and offsets.  Each object gets ``MAX_PLACE_TRIES``
    placement attempts before generation fails.
    """

    seed: int = 0
    room: tuple[float, float, float] = (5.0, 5.0, 2.5)
    n_objects: int = 6
    density: float = 3000.0  # object surface points per m^2
    stuff_density: float = 60.0  # floor/wall points per m^2
    min_gap: float = 0.15  # min surface gap between unrelated objects
    same_class_gap: float | None = None
    size_scale: tuple[float, float] = (0.7, 1.1)
    min_object_points: int = 60
    density_dip: float = 0.0  # density reduction inside the sparse region
    dip_fraction: float = 0.5  # share of each object's surface that is sparse
    p_sem: float = 0.0
    sem_temperature: float = 0.0
    sigma0: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        room, scale, gap = self.room, self.size_scale, self.same_class_gap
        objects, points = self.n_objects, self.min_object_points
        # a side beyond the float32 range would overflow the scene's coordinates
        top = float(np.finfo(np.float32).max)
        check(
            "room", room, lambda r: len(r) == 3 and min(r) > 0 and max(r) <= top,
            f"three positive finite lengths up to {top:.6g}",
        )
        check_seed("seed", self.seed, nonnegative=False)
        check("n_objects", objects, lambda n: is_int(n) and n >= 0, "an integer >= 0")
        check("density", self.density, lambda x: x > 0, "positive and finite")
        check("stuff_density", self.stuff_density, lambda x: x >= 0, "finite and >= 0")
        check("min_gap", self.min_gap, lambda x: x >= 0, "finite and >= 0")
        if gap is not None:
            check("same_class_gap", gap, lambda x: x > 0, "positive and finite")
        check(
            "size_scale", scale, lambda s: len(s) == 2 and 0 < s[0] <= s[1],
            "an increasing positive finite range",
        )
        check("min_object_points", points, lambda n: is_int(n) and n >= 1, "an integer >= 1")
        # each object is given at least min_object_points points
        _point_count(float(objects) * points, "n_objects and min_object_points")
        # placed objects are disjoint solids within the room's floor area, each
        # below 0.3 m plus its height: a necessary bound on their count, checked
        # before a class is drawn for each
        slab = room[0] * room[1] * (0.3 + scale[1] * max(base[-1] for _, base in _SHAPES))
        smallest = scale[0] ** 3 * min(_geometry(kind, base)[3] for kind, base in _SHAPES)
        if objects * smallest > slab:
            raise ValueError(
                f"n_objects too large: {objects} objects of at least {smallest:.3g} m^3 "
                f"do not fit in the {slab:.3g} m^3 that they stand in"
            )
        # a room that holds them may still ask for more than memory holds: the
        # scene keeps 23 + 4 * N_CLASSES bytes per point (coordinates, colour,
        # label, instance id and scores), refused before a class is drawn
        need, memory = float(objects) * points * (23 + 4 * N_CLASSES), _memory_bytes()
        if need > memory:
            raise ValueError(
                f"n_objects too large: {objects} objects of at least {points} points need "
                f"{need:.3g} bytes, more than this machine's {memory:.3g} bytes of memory"
            )
        check("density_dip", self.density_dip, lambda x: 0.0 <= x < 1.0, "in [0, 1)")
        check("dip_fraction", self.dip_fraction, lambda x: 0.0 <= x < 1.0, "in [0, 1)")
        _check_label_noise(self.p_sem, self.sem_temperature)
        _check_offset_noise(self.sigma0, self.beta)


def _geometry(kind: str, dims: tuple[float, ...]) -> tuple[float, float, tuple[float, ...], float]:
    """(surface area, bounding radius, half-widths along x, y, z, volume) of
    a primitive of full dimensions ``dims``."""
    if kind == "box":
        a, b, c = dims
        area = 2.0 * (a * b + b * c + c * a)
        return area, float(np.linalg.norm(dims)) / 2.0, (a / 2.0, b / 2.0, c / 2.0), a * b * c
    r = dims[0] / 2.0
    if kind == "sphere":
        return 4.0 * np.pi * r * r, r, (r, r, r), 4.0 / 3.0 * np.pi * r**3
    h = dims[1]
    area = 2.0 * np.pi * r * h + 2.0 * np.pi * r * r
    return area, float(np.hypot(r, h / 2.0)), (r, r, h / 2.0), np.pi * r * r * h


def _sample_surface(
    rng: np.random.Generator, kind: str, dims: tuple[float, ...], n: int
) -> np.ndarray:
    """``n`` points uniform by area on a primitive's surface, centred at the
    origin.  Box face f holds axis f // 2 at +-half-width (+ for even f), ``u``
    and ``v`` the other two axes, lower first.  A cylinder point is a radius and
    a height: r and a draw on the side, r * sqrt(u) and +-h/2 on a cap."""
    if kind == "box":
        half = np.array(dims) / 2.0
        areas = np.repeat(half[[1, 0, 0]] * half[[2, 2, 1]], 2)
        face = rng.choice(6, size=n, p=areas / areas.sum())
        u, v = rng.uniform(-1.0, 1.0, (2, n))
        axis, rows = face // 2, np.arange(n)
        lower = (axis == 0).astype(np.intp)
        upper = 3 - axis - lower
        pts = np.empty((n, 3))
        pts[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0) * half[axis]
        pts[rows, lower] = u * half[lower]
        pts[rows, upper] = v * half[upper]
        return pts
    if kind == "sphere":
        v = rng.standard_normal((n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True) * (dims[0] / 2.0)
    r, h = dims[0] / 2.0, dims[1]
    lateral, caps = 2.0 * np.pi * r * h, np.pi * r * r
    part = rng.choice(3, size=n, p=np.array([lateral, caps, caps]) / (lateral + 2 * caps))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    order = np.argsort(part, kind="stable")  # draws: the side's, the top cap's, the bottom's
    side = int(np.count_nonzero(part == 0))
    radius, height = np.full(n, r), np.where(part == 1, h / 2.0, -h / 2.0)
    height[order[:side]] = rng.uniform(-h / 2.0, h / 2.0, side)
    radius[order[side:]] *= np.sqrt(rng.uniform(0.0, 1.0, n - side))
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), height], axis=1)


def _place(config: GenConfig) -> list[tuple]:
    """Each object as (kind, full dimensions, surface area, centre, class id),
    drawn from stream 0.  A try tests the object against every one placed
    before it at once, but a partner not against its pair, whose gap it sets."""
    plan_rng = _rng(config.seed, 0)
    lx, ly, lz = config.room

    # plan classes and sizes; paired objects repeat their partner's class
    paired = config.same_class_gap is not None
    n_draws = (config.n_objects + 1) // 2 if paired else config.n_objects
    draws = [int(plan_rng.choice(np.asarray(THING_CLASSES))) for _ in range(n_draws)]
    classes = [c for c in draws for _ in range(1 + paired)][: config.n_objects]

    centers, bounds = np.empty((len(classes), 3)), np.empty(len(classes))
    placed = []
    for k, class_id in enumerate(classes):
        kind, base = _SHAPES[class_id % len(_SHAPES)]
        scale = plan_rng.uniform(*config.size_scale)
        dims = tuple(d * scale for d in base)
        area, bound, half, _ = _geometry(kind, dims)
        is_partner = paired and k % 2 == 1
        others = k - is_partner
        margin = bound + 0.05
        # an object whose margins leave no room for its centre gets no try
        fits = is_partner or (lx - 2 * margin > 0 and ly - 2 * margin > 0)
        for _ in range(MAX_PLACE_TRIES if fits else 0):
            if is_partner:
                axis = int(plan_rng.integers(0, 2))
                direction = 1.0 if plan_rng.random() < 0.5 else -1.0
                touch = prev_half[axis] + config.same_class_gap + half[axis]
                center = centers[k - 1].copy()
                center[axis] += direction * touch
                center[2] = half[2] + plan_rng.uniform(0.02, 0.3)
            else:
                center = np.array(
                    [
                        plan_rng.uniform(margin, lx - margin),
                        plan_rng.uniform(margin, ly - margin),
                        half[2] + plan_rng.uniform(0.02, 0.3),
                    ]
                )
            if center[2] + bound > lz - 0.02:
                center[2] = half[2] + 0.02
            if not (bound <= center[0] <= lx - bound and bound <= center[1] <= ly - bound):
                continue
            # each distance as np.linalg.norm takes it, sqrt(x.dot(x)): a
            # batched (1, 3) x (3, 1) matmul keeps its bits, a row sum does not
            gap = (center - centers[:others])[:, None]
            d = np.sqrt(np.matmul(gap, gap.transpose(0, 2, 1))[:, 0, 0])
            if not (d - bound - bounds[:others] < config.min_gap).any():
                break
        else:
            raise ValueError(
                f"could not place object {k} (class {class_id}) within the room "
                f"after {MAX_PLACE_TRIES} tries"
            )
        centers[k], bounds[k], prev_half = center, bound, half
        placed.append((kind, dims, area, centers[k], class_id))
    return placed


def generate_scene(config: GenConfig) -> tuple[Scene, OffsetField]:
    """Build a room scene with oracle semantics, instances, and offsets.

    Instances are spatially disjoint; object points get one-hot semantic
    scores, stuff points sit on the floor and wall planes with instance id
    -1, and the returned offsets point every instance point exactly at its
    instance centroid (zero on stuff).
    """
    lx, ly, _ = config.room
    parts = []  # (points, class id, instance id, colour) per object and per plane
    for k, (kind, dims, area, center, class_id) in enumerate(_place(config)):
        obj_rng = _rng(config.seed, 10 + k)
        n = max(config.min_object_points, _point_count(area * config.density, "density"))
        pts = _sample_surface(obj_rng, kind, dims, n)
        if config.density_dip > 0.0 and config.dip_fraction > 0.0:
            # emulate scan-like uneven coverage: the surface beyond a random
            # plane (covering ~dip_fraction of the points) is sampled thinner
            normal = obj_rng.standard_normal(3)
            normal /= np.linalg.norm(normal)
            proj = pts @ normal
            threshold = np.quantile(proj, 1.0 - config.dip_fraction)
            sparse_side = proj > threshold
            drop = sparse_side & (obj_rng.random(pts.shape[0]) < config.density_dip)
            if (~drop).sum() >= config.min_object_points:
                pts = pts[~drop]
        parts.append((pts + center, class_id, k, obj_rng.integers(40, 256, 3)))

    # the floor and the four walls: class, colour range, the axis held at a
    # value, and the two axes the plane spans
    floor_class, wall_class = STUFF_CLASSES
    planes = (
        (floor_class, (110, 150), 2, 0.0, 0, 1),
        (wall_class, (140, 180), 0, 0.0, 1, 2),
        (wall_class, (140, 180), 0, lx, 1, 2),
        (wall_class, (140, 180), 1, 0.0, 0, 2),
        (wall_class, (140, 180), 1, ly, 0, 2),
    )
    stuff_rng = _rng(config.seed, 1)
    for class_id, colours, fixed, value, a, b in planes:
        side_a, side_b = config.room[a], config.room[b]
        n = _point_count(side_a * side_b * config.stuff_density, "room and stuff_density")
        pts = np.empty((n, 3))
        pts[:, fixed] = value
        pts[:, a] = stuff_rng.uniform(0, side_a, n)
        pts[:, b] = stuff_rng.uniform(0, side_b, n)
        parts.append((pts, class_id, -1, stuff_rng.integers(*colours, 3)))

    sizes = [len(p[0]) for p in parts]
    coords = np.concatenate([np.empty((0, 3)), *(p[0] for p in parts)]).astype(np.float32)
    labels, insts = (np.repeat(np.array([p[i] for p in parts], np.int32), sizes) for i in (1, 2))
    colors = np.repeat(np.array([p[3] for p in parts], np.int64).reshape(-1, 3), sizes, axis=0)
    scores = _soften_scores(np.zeros((coords.shape[0], N_CLASSES)), labels, N_CLASSES, 0.0)

    scene = Scene(
        n_classes=N_CLASSES,
        coords=coords,
        colors=colors,
        sem_labels=labels,
        inst_ids=insts,
        stuff_classes=frozenset(STUFF_CLASSES),
        sem_scores=scores,
    )
    return scene, offset_targets(scene)


def _soften_scores(
    scores: np.ndarray, labels: np.ndarray, n_classes: int, temperature: float
) -> np.ndarray:
    """One-hot-around-the-label rows softened by a temperature.

    The off-label mass is exp(-1/T) relative to the label mass, and 0 at
    T = 0, so the arg-max stays strictly at the label for any allowed
    temperature.  Rows labelled -1 keep their scores.
    """
    out = np.array(scores, dtype=np.float64, copy=True)
    labeled = np.flatnonzero(labels >= 0)
    off = np.exp(-1.0 / temperature) if temperature else 0.0
    z = 1.0 + (n_classes - 1) * off
    out[labeled] = off / z
    out[labeled, labels[labeled]] = 1.0 / z
    return out.astype(np.float32)


def perturb_semantics(
    scene: Scene, p_sem: float, temperature: float, seed: int
) -> Scene:
    """Flip non-stuff labels to a random wrong (non-stuff) class with
    probability ``p_sem`` and re-soften the semantic scores.

    Flipped points leave their ground-truth instance (instance id becomes
    -1, remaining ids are kept contiguous) so every scene invariant still
    holds; evaluate noisy predictions against the clean original scene.  A
    class's rank among the thing classes maps through the sorted stuff ids.
    """
    _check_label_noise(p_sem, temperature)
    check_seed("seed", seed, nonnegative=False)
    stuff = np.array(sorted(scene.stuff_classes), dtype=np.int64)
    n_things = scene.n_classes - stuff.size
    if p_sem > 0 and n_things < 2:
        raise ValueError("need at least 2 non-stuff classes to flip labels")

    labels = np.array(scene.sem_labels, copy=True)
    insts = np.array(scene.inst_ids, copy=True)
    eligible = np.flatnonzero(~never_clustered(scene.sem_labels, scene.stuff_classes))
    rng = _rng(seed, 101)
    if p_sem > 0 and eligible.size:
        flip = eligible[rng.random(eligible.size) < p_sem]
        rank = labels[flip] - np.searchsorted(stuff, labels[flip])
        draw = rng.integers(0, n_things - 1, flip.size)
        draw = draw + (draw >= rank)
        # the k-th thing class: k plus the stuff ids with at most k thing classes below
        labels[flip] = draw + np.searchsorted(stuff - np.arange(stuff.size), draw, side="right")
        insts[flip] = -1

    # keep surviving instance ids contiguous
    live = insts >= 0
    insts[live] = np.searchsorted(np.unique(insts[live]), insts[live])

    scores = scene.sem_scores
    if scores is not None:
        scores = _soften_scores(scores, labels, scene.n_classes, temperature)

    return replace(scene, sem_labels=labels, inst_ids=insts, sem_scores=scores)


def perturb_offsets(
    offsets: OffsetField, scene: Scene, sigma0: float, beta: float, seed: int
) -> OffsetField:
    """Add zero-mean Gaussian noise whose stdev grows with the point's
    distance to its instance centroid: sigma0 * (1 + beta * d).

    Stuff and unassigned points are untouched.  Deterministic in the seed.
    """
    _check_offset_noise(sigma0, beta)
    check_seed("seed", seed, nonnegative=False)
    check_offsets(scene, offsets)
    if sigma0 == 0.0:
        return offsets
    out = np.array(offsets.offsets, copy=True)
    on_inst = np.flatnonzero(scene.inst_ids >= 0)
    d = np.linalg.norm(offset_targets(scene).offsets[on_inst], axis=1)
    stdev = sigma0 * (1.0 + beta * d)
    out[on_inst] += _rng(seed, 202).standard_normal((on_inst.size, 3)) * stdev[:, None]
    return OffsetField(out)


def generate_sample(config: GenConfig) -> tuple[Scene, Scene, OffsetField]:
    """Generate a scene and apply the config's noise models.

    Returns (clean scene, observed scene, observed offsets): the clean scene
    is the evaluation ground truth; the observed pair carries flipped labels
    and noisy offsets when the config asks for them.
    """
    clean, oracle = generate_scene(config)
    observed = clean
    if config.p_sem > 0 or config.sem_temperature > 0:
        observed = perturb_semantics(
            clean, config.p_sem, config.sem_temperature, config.seed
        )
    offsets = perturb_offsets(oracle, clean, config.sigma0, config.beta, config.seed)
    return clean, observed, offsets
