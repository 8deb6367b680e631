"""Deterministic synthetic room scenes with ground-truth instances, oracle
semantics and centroid offsets, plus the two noise models that emulate
imperfect branch predictions (label flips, boundary-weighted offset noise).

All randomness flows through counter-based Philox generators keyed by
(seed, stream id), one stream per generation stage and per object, so
results are reproducible no matter how generation is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OffsetField, Scene, check_offsets
from .losses import instance_centroids, offset_targets

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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64))
    )


@dataclass(frozen=True)
class GenConfig:
    """Scene generation knobs: geometry, density, adjacency, and noise.

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
    thing_classes: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    stuff_classes: tuple[int, ...] = (0, 1)
    n_classes: int = 8
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
        if len(self.room) != 3 or any(v <= 0 for v in self.room):
            raise ValueError("room extents must be three positive lengths")
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if not self.thing_classes:
            raise ValueError("at least one thing class is required")
        all_ids = set(self.thing_classes) | set(self.stuff_classes)
        if set(self.thing_classes) & set(self.stuff_classes):
            raise ValueError("thing and stuff classes overlap")
        if any(c < 0 or c >= self.n_classes for c in all_ids):
            raise ValueError("class id out of range")
        if self.density <= 0 or self.stuff_density < 0:
            raise ValueError("densities must be positive (stuff may be 0)")
        if self.min_gap < 0:
            raise ValueError("min_gap must be >= 0")
        if self.same_class_gap is not None and self.same_class_gap <= 0:
            raise ValueError("same_class_gap must be positive")
        if not 0 < self.size_scale[0] <= self.size_scale[1]:
            raise ValueError("size_scale must be an increasing positive range")
        if not 0.0 <= self.density_dip < 1.0:
            raise ValueError("density_dip must be in [0, 1)")
        if not 0.0 <= self.dip_fraction < 1.0:
            raise ValueError("dip_fraction must be in [0, 1)")
        if not 0.0 <= self.p_sem <= 1.0:
            raise ValueError("p_sem must be in [0, 1]")
        if self.sem_temperature < 0 or self.sem_temperature > _MAX_TEMPERATURE:
            raise ValueError(f"sem_temperature must be in [0, {_MAX_TEMPERATURE}]")
        if self.sigma0 < 0 or self.beta < 0:
            raise ValueError("sigma0 and beta must be >= 0")


def _shape_for_class(class_id: int) -> tuple[str, tuple[float, ...]]:
    return _SHAPES[class_id % len(_SHAPES)]


def _surface_area(kind: str, dims: tuple[float, ...]) -> float:
    if kind == "box":
        a, b, c = dims
        return 2.0 * (a * b + b * c + c * a)
    if kind == "sphere":
        r = dims[0] / 2.0
        return 4.0 * np.pi * r * r
    r = dims[0] / 2.0
    h = dims[1]
    return 2.0 * np.pi * r * h + 2.0 * np.pi * r * r


def _bounding_radius(kind: str, dims: tuple[float, ...]) -> float:
    if kind == "box":
        return float(np.linalg.norm(dims)) / 2.0
    if kind == "sphere":
        return dims[0] / 2.0
    r = dims[0] / 2.0
    return float(np.hypot(r, dims[1] / 2.0))


def _axis_extent(kind: str, dims: tuple[float, ...], axis: int) -> float:
    """Half-width of the primitive along a horizontal axis (0 or 1)."""
    if kind == "box":
        return dims[axis] / 2.0
    return dims[0] / 2.0  # sphere/cylinder radius


def _half_height(kind: str, dims: tuple[float, ...]) -> float:
    if kind == "box":
        return dims[2] / 2.0
    if kind == "sphere":
        return dims[0] / 2.0
    return dims[1] / 2.0


def _sample_surface(
    rng: np.random.Generator, kind: str, dims: tuple[float, ...], n: int
) -> np.ndarray:
    if kind == "box":
        hx, hy, hz = dims[0] / 2.0, dims[1] / 2.0, dims[2] / 2.0
        areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
        face = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-1.0, 1.0, n)
        v = rng.uniform(-1.0, 1.0, n)
        pts = np.empty((n, 3))
        sign = np.where(face % 2 == 0, 1.0, -1.0)
        for f, (fixed, aa, bb, ha, hb) in enumerate(
            [(0, 1, 2, hy, hz), (0, 1, 2, hy, hz),
             (1, 0, 2, hx, hz), (1, 0, 2, hx, hz),
             (2, 0, 1, hx, hy), (2, 0, 1, hx, hy)]
        ):
            m = face == f
            half_fixed = (hx, hy, hz)[fixed]
            pts[m, fixed] = sign[m] * half_fixed
            pts[m, aa] = u[m] * ha
            pts[m, bb] = v[m] * hb
        return pts
    if kind == "sphere":
        r = dims[0] / 2.0
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * r
    r = dims[0] / 2.0
    h = dims[1]
    lateral = 2.0 * np.pi * r * h
    caps = np.pi * r * r
    part = rng.choice(3, size=n, p=np.array([lateral, caps, caps]) / (lateral + 2 * caps))
    pts = np.empty((n, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    m = part == 0
    pts[m, 0] = r * np.cos(theta[m])
    pts[m, 1] = r * np.sin(theta[m])
    pts[m, 2] = rng.uniform(-h / 2.0, h / 2.0, int(m.sum()))
    for p, zsign in ((1, 1.0), (2, -1.0)):
        m = part == p
        rad = r * np.sqrt(rng.uniform(0.0, 1.0, int(m.sum())))
        pts[m, 0] = rad * np.cos(theta[m])
        pts[m, 1] = rad * np.sin(theta[m])
        pts[m, 2] = zsign * h / 2.0
    return pts


def generate_scene(config: GenConfig) -> tuple[Scene, OffsetField]:
    """Build a room scene with oracle semantics, instances, and offsets.

    Instances are spatially disjoint; object points get one-hot semantic
    scores, stuff points sit on the floor and wall planes with instance id
    -1, and the returned offsets point every instance point exactly at its
    instance centroid (zero on stuff).
    """
    plan_rng = _rng(config.seed, 0)
    lx, ly, lz = config.room

    # plan classes and sizes
    classes = []
    if config.same_class_gap is not None:
        while len(classes) < config.n_objects:
            c = int(plan_rng.choice(np.asarray(config.thing_classes)))
            classes.append(c)
            if len(classes) < config.n_objects:
                classes.append(c)  # adjacent partner, same class
    else:
        classes = [
            int(plan_rng.choice(np.asarray(config.thing_classes)))
            for _ in range(config.n_objects)
        ]

    placed: list[dict] = []
    for k, class_id in enumerate(classes):
        kind, base = _shape_for_class(class_id)
        scale = plan_rng.uniform(*config.size_scale)
        dims = tuple(d * scale for d in base)
        bound = _bounding_radius(kind, dims)
        hh = _half_height(kind, dims)
        is_partner = (
            config.same_class_gap is not None
            and k % 2 == 1
            and placed
            and placed[-1]["class_id"] == class_id
        )
        ok = False
        for _ in range(MAX_PLACE_TRIES):
            if is_partner:
                prev = placed[-1]
                axis = int(plan_rng.integers(0, 2))
                direction = 1.0 if plan_rng.random() < 0.5 else -1.0
                touch = (
                    _axis_extent(prev["kind"], prev["dims"], axis)
                    + config.same_class_gap
                    + _axis_extent(kind, dims, axis)
                )
                center = prev["center"].copy()
                center[axis] += direction * touch
                center[2] = hh + plan_rng.uniform(0.02, 0.3)
            else:
                margin = bound + 0.05
                if lx - 2 * margin <= 0 or ly - 2 * margin <= 0:
                    break
                center = np.array(
                    [
                        plan_rng.uniform(margin, lx - margin),
                        plan_rng.uniform(margin, ly - margin),
                        hh + plan_rng.uniform(0.02, 0.3),
                    ]
                )
            if center[2] + bound > lz - 0.02:
                center[2] = hh + 0.02
            if (
                center[0] < bound
                or center[0] > lx - bound
                or center[1] < bound
                or center[1] > ly - bound
            ):
                continue
            clear = True
            for other in placed:
                if is_partner and other is placed[-1]:
                    continue  # the pair relationship sets its own gap
                d = float(np.linalg.norm(center - other["center"]))
                if d - bound - other["bound"] < config.min_gap:
                    clear = False
                    break
            if clear:
                ok = True
                break
        if not ok:
            raise ValueError(
                f"could not place object {k} (class {class_id}) within the room "
                f"after {MAX_PLACE_TRIES} tries"
            )
        placed.append(
            {"kind": kind, "dims": dims, "center": center, "class_id": class_id,
             "bound": bound}
        )

    coords_parts = []
    labels_parts = []
    inst_parts = []
    colors_parts = []
    for k, obj in enumerate(placed):
        obj_rng = _rng(config.seed, 10 + k)
        n = max(
            config.min_object_points,
            int(round(_surface_area(obj["kind"], obj["dims"]) * config.density)),
        )
        pts = _sample_surface(obj_rng, obj["kind"], obj["dims"], n)
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
            n = pts.shape[0]
        pts = pts + obj["center"]
        coords_parts.append(pts)
        labels_parts.append(np.full(n, obj["class_id"], dtype=np.int32))
        inst_parts.append(np.full(n, k, dtype=np.int32))
        color = obj_rng.integers(40, 256, 3)
        colors_parts.append(np.tile(color, (n, 1)))

    stuff_rng = _rng(config.seed, 1)
    stuff_ids = tuple(sorted(config.stuff_classes))
    if stuff_ids and config.stuff_density > 0:
        floor_class = stuff_ids[0]
        wall_class = stuff_ids[1] if len(stuff_ids) > 1 else stuff_ids[0]
        n_floor = int(round(lx * ly * config.stuff_density))
        floor = np.column_stack(
            [
                stuff_rng.uniform(0, lx, n_floor),
                stuff_rng.uniform(0, ly, n_floor),
                np.zeros(n_floor),
            ]
        )
        coords_parts.append(floor)
        labels_parts.append(np.full(n_floor, floor_class, dtype=np.int32))
        inst_parts.append(np.full(n_floor, -1, dtype=np.int32))
        colors_parts.append(np.tile(stuff_rng.integers(110, 150, 3), (n_floor, 1)))
        for fixed_axis, fixed_val, ua, ub in (
            (0, 0.0, ly, lz), (0, lx, ly, lz), (1, 0.0, lx, lz), (1, ly, lx, lz),
        ):
            n_wall = int(round(ua * ub * config.stuff_density))
            wall = np.empty((n_wall, 3))
            wall[:, fixed_axis] = fixed_val
            other = 1 - fixed_axis
            wall[:, other] = stuff_rng.uniform(0, ua, n_wall)
            wall[:, 2] = stuff_rng.uniform(0, ub, n_wall)
            coords_parts.append(wall)
            labels_parts.append(np.full(n_wall, wall_class, dtype=np.int32))
            inst_parts.append(np.full(n_wall, -1, dtype=np.int32))
            colors_parts.append(np.tile(stuff_rng.integers(140, 180, 3), (n_wall, 1)))

    if coords_parts:
        coords = np.concatenate(coords_parts).astype(np.float32)
        labels = np.concatenate(labels_parts)
        insts = np.concatenate(inst_parts)
        colors = np.concatenate(colors_parts)
    else:
        coords = np.zeros((0, 3), dtype=np.float32)
        labels = np.zeros(0, dtype=np.int32)
        insts = np.zeros(0, dtype=np.int32)
        colors = np.zeros((0, 3), dtype=np.int64)

    scores = np.zeros((coords.shape[0], config.n_classes), dtype=np.float32)
    labeled = labels >= 0
    scores[np.flatnonzero(labeled), labels[labeled]] = 1.0

    scene = Scene(
        n_classes=config.n_classes,
        coords=coords,
        colors=colors,
        sem_labels=labels,
        inst_ids=insts,
        stuff_classes=frozenset(config.stuff_classes),
        sem_scores=scores,
    )
    return scene, offset_targets(scene)


def _soften_scores(
    scores: np.ndarray, labels: np.ndarray, n_classes: int, temperature: float
) -> np.ndarray:
    """One-hot-around-the-label rows softened by a temperature.

    The off-label mass is exp(-1/T) relative to the label mass, so the
    arg-max stays strictly at the label for any allowed temperature.
    """
    out = np.array(scores, dtype=np.float64, copy=True)
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        return out.astype(np.float32)
    if temperature <= 0.0:
        out[labeled] = 0.0
        out[labeled, labels[labeled]] = 1.0
        return out.astype(np.float32)
    off = np.exp(-1.0 / temperature)
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
    holds; evaluate noisy predictions against the clean original scene.
    """
    if not 0.0 <= p_sem <= 1.0:
        raise ValueError("p_sem must be in [0, 1]")
    if temperature < 0 or temperature > _MAX_TEMPERATURE:
        raise ValueError(f"temperature must be in [0, {_MAX_TEMPERATURE}]")
    things = sorted(set(range(scene.n_classes)) - scene.stuff_classes)
    if p_sem > 0 and len(things) < 2:
        raise ValueError("need at least 2 non-stuff classes to flip labels")

    labels = np.array(scene.sem_labels, copy=True)
    insts = np.array(scene.inst_ids, copy=True)
    eligible = np.flatnonzero(~scene.stuff_mask())
    rng = _rng(seed, 101)
    if p_sem > 0 and eligible.size:
        flip = eligible[rng.random(eligible.size) < p_sem]
        if flip.size:
            things_arr = np.asarray(things, dtype=np.int32)
            cur_pos = np.searchsorted(things_arr, labels[flip])
            draw = rng.integers(0, len(things) - 1, flip.size)
            draw = draw + (draw >= cur_pos)
            labels[flip] = things_arr[draw]
            insts[flip] = -1

    # keep surviving instance ids contiguous
    live = insts >= 0
    if live.any():
        uniq = np.unique(insts[live])
        insts[live] = np.searchsorted(uniq, insts[live])

    scores = scene.sem_scores
    if scores is not None:
        scores = _soften_scores(scores, labels, scene.n_classes, temperature)

    return Scene(
        n_classes=scene.n_classes,
        coords=scene.coords,
        colors=scene.colors,
        sem_labels=labels,
        inst_ids=insts,
        stuff_classes=scene.stuff_classes,
        sem_scores=scores,
    )


def perturb_offsets(
    offsets: OffsetField, scene: Scene, sigma0: float, beta: float, seed: int
) -> OffsetField:
    """Add zero-mean Gaussian noise whose stdev grows with the point's
    distance to its instance centroid: sigma0 * (1 + beta * d).

    Stuff and unassigned points are untouched.  Deterministic in the seed.
    """
    if sigma0 < 0 or beta < 0:
        raise ValueError("sigma0 and beta must be >= 0")
    check_offsets(scene, offsets)
    if sigma0 == 0.0:
        return offsets
    out = np.array(offsets.offsets, copy=True)
    on_inst = np.flatnonzero(scene.inst_ids >= 0)
    if on_inst.size:
        centroids = instance_centroids(scene)
        d = np.linalg.norm(
            centroids[scene.inst_ids[on_inst]]
            - scene.coords[on_inst].astype(np.float64),
            axis=1,
        )
        stdev = sigma0 * (1.0 + beta * d)
        rng = _rng(seed, 202)
        out[on_inst] += rng.standard_normal((on_inst.size, 3)) * stdev[:, None]
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
    offsets = oracle
    if config.sigma0 > 0:
        offsets = perturb_offsets(oracle, clean, config.sigma0, config.beta, config.seed)
    return clean, observed, offsets
