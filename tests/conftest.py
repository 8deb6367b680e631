"""Shared scene builders and ``hypothesis`` strategies for the test suite,
and scalar references for the library's vectorised paths."""

import ast
import re
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import cloudinst
from cloudinst import formats, synth
from cloudinst.core import FormatError, OffsetField, Scene, check_offsets
from cloudinst.spatial import _FINE_FACTOR, radius_squared, squared_distances
from cloudinst.synth import GenConfig

# every property replays the same examples on every run, however long each takes
settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")


def package_uses(name: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of each use of ``name`` in the
    package: a name, an attribute or an imported name, not a definition."""
    uses = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            names = (getattr(child, attr, None) for attr in ("attr", "id", "name"))
            if name in names:
                uses.append((module, where))
            visit(child, module, where)

    for path in sorted(Path(cloudinst.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return uses


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it traced, in bytes: how
    every memory test measures."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def iou(a, b) -> float:
    """Scalar IoU of two sorted, duplicate-free index sets: the reference for
    the library's IoU matrices."""
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (len(a) + len(b) - inter)


def disjoint_masks(rng, n_points, n_masks, size_max):
    """Up to ``n_masks`` disjoint sorted masks of 1 to ``size_max`` points:
    the leading chunks of a permutation of ``n_points`` points."""
    cuts = np.cumsum(rng.integers(1, size_max + 1, n_masks))
    chunks = np.split(rng.permutation(n_points), cuts[cuts < n_points])
    return [np.sort(m) for m in chunks[:n_masks]]


def best_iou(cluster, gt) -> float:
    """Scalar best IoU of one cluster over every instance, of any class."""
    return max(iou(cluster.point_idx, g.point_idx) for g in gt)


def cluster_descriptor(cluster, scene, offsets) -> np.ndarray:
    """Scalar 8-dim descriptor of one cluster: the reference for the rows of
    ``cluster_descriptors``.

    [log point count, bbox extent x/y/z in original space, mean and stdev of
    member distance to the cluster's shifted-space centroid, mean semantic
    probability of the cluster's class (1.0 when scores are absent), source
    flag].
    """
    check_offsets(scene, offsets)
    idx = cluster.point_idx
    p = scene.coords[idx].astype(np.float64)
    q = p + offsets.offsets[idx]
    extent = p.max(axis=0) - p.min(axis=0)
    dq = np.linalg.norm(q - q.mean(axis=0), axis=1)
    if scene.sem_scores is not None:
        mean_prob = float(scene.sem_scores[idx, cluster.class_id].mean(dtype=np.float64))
    else:
        mean_prob = 1.0
    return np.array(
        [
            np.log(float(idx.size)),
            extent[0],
            extent[1],
            extent[2],
            dq.mean(),
            dq.std(),
            mean_prob,
            float(cluster.source.value),
        ],
        dtype=np.float64,
    )


def placed_objects(config: GenConfig) -> list[tuple]:
    """Scalar placement: the reference for ``synth._place``.  A try tests the
    object against each object placed before it in turn, skipping a
    partner's pair, by ``np.linalg.norm`` of the centres' difference."""
    rng = synth._rng(config.seed, 0)
    lx, ly, lz = config.room
    paired = config.same_class_gap is not None
    n_draws = (config.n_objects + 1) // 2 if paired else config.n_objects
    draws = [int(rng.choice(np.asarray(synth.THING_CLASSES))) for _ in range(n_draws)]
    classes = [c for c in draws for _ in range(1 + paired)][: config.n_objects]
    placed = []  # (kind, dims, area, centre, class id, bound, half-widths)
    for k, class_id in enumerate(classes):
        kind, base = synth._SHAPES[class_id % len(synth._SHAPES)]
        scale = rng.uniform(*config.size_scale)
        dims = tuple(d * scale for d in base)
        area, bound, half = synth._geometry(kind, dims)
        pair = placed[-1] if paired and k % 2 == 1 else None
        margin = bound + 0.05
        ok = False
        for _ in range(synth.MAX_PLACE_TRIES):
            if pair is not None:
                axis = int(rng.integers(0, 2))
                direction = 1.0 if rng.random() < 0.5 else -1.0
                center = pair[3].copy()
                center[axis] += direction * (pair[6][axis] + config.same_class_gap + half[axis])
                center[2] = half[2] + rng.uniform(0.02, 0.3)
            else:
                if lx - 2 * margin <= 0 or ly - 2 * margin <= 0:
                    break
                x, y = rng.uniform(margin, lx - margin), rng.uniform(margin, ly - margin)
                center = np.array([x, y, half[2] + rng.uniform(0.02, 0.3)])
            if center[2] + bound > lz - 0.02:
                center[2] = half[2] + 0.02
            if center[0] < bound or center[0] > lx - bound:
                continue
            if center[1] < bound or center[1] > ly - bound:
                continue
            ok = True
            for other in placed:
                d = float(np.linalg.norm(center - other[3]))
                if other is not pair and d - bound - other[5] < config.min_gap:
                    ok = False
                    break
            if ok:
                break
        if not ok:
            raise ValueError(
                f"could not place object {k} (class {class_id}) within the room "
                f"after {synth.MAX_PLACE_TRIES} tries"
            )
        placed.append((kind, dims, area, center, class_id, bound, half))
    return [obj[:5] for obj in placed]


def walk_rows(lines, lineno, fields) -> list[np.ndarray]:
    """Token-by-token reference for ``formats._read_rows``: Python's ``int`` and
    ``float`` without ``_`` digit separators, each group narrowed to its dtype,
    and the first faulty line's wrong field count or first bad field named."""
    width = sum(count for _, _, count in fields)
    cols = [[] for _ in fields]
    for at, line in enumerate(lines, start=lineno):
        toks = line.split()
        if len(toks) != width:
            raise FormatError(f"line {at}: expected {width} fields, got {len(toks)}")
        pos = 0
        for (names, dtype, count), col in zip(fields, cols):
            if not isinstance(names, tuple):
                names = (names,) * count
            for tok, name in zip(toks[pos : pos + count], names):
                col.append(_reference_value(tok, at, name, dtype))
            pos += count
    out = []
    for col, (_, dtype, count) in zip(cols, fields):
        wide = np.array(col, dtype=np.float64 if np.dtype(dtype).kind == "f" else np.int64)
        with np.errstate(over="ignore"):  # a float beyond float32 becomes inf
            out.append(wide.reshape(len(lines), count).astype(dtype))
    return out


def read_lines(path) -> list[str]:
    """The lines of the file at ``path`` as the loaders read them before they
    streamed: the whole text, split at newlines (text mode ends a line at a
    CR or a CR LF too), with a run of empty lines that ends the file
    dropped; a non-ASCII byte is a FormatError naming its line."""
    text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    if not text.isascii():
        pos = re.search("[^\x00-\x7f]", text).start()
        lineno = text.count("\n", 0, pos) + 1
        raise FormatError(f"line {lineno}: non-ASCII byte 0x{ord(text[pos]) - 0xDC00:02x}")
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def load_by_lines(load, path):
    """``load(path)`` by the line-list route, the reference for the streamed
    loaders: the file's whole line list (``read_lines``) gives the header
    lines and the line count, and ``_read_rows`` reads the body from it, as
    ``walk_rows`` is the reference for ``_read_rows``."""
    lines = read_lines(path)

    def scan(fh, keep):
        return lines[:keep], len(lines), None

    def table(fh, kept, head, count, fields, halves=None):
        return formats._read_rows(lines[head:], head + 1, fields)

    def body_lines(fh, head):
        return iter(lines[head:])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_scan", scan)
        patch.setattr(formats, "_table", table)
        patch.setattr(formats, "_body_lines", body_lines)
        return load(path)


def _reference_value(tok: str, at: int, name: str, dtype):
    is_float = np.dtype(dtype).kind == "f"
    try:
        if "_" in tok:
            raise ValueError(tok)
        value = float(tok) if is_float else int(tok)
    except ValueError:
        noun = "a number" if is_float else "an integer"
        raise FormatError(f"line {at}: {name} is not {noun}: {tok!r}") from None
    if not is_float and not np.iinfo(dtype).min <= value <= np.iinfo(dtype).max:
        raise FormatError(f"line {at}: {name} is out of range: {tok!r}")
    return value


def make_scene(
    coords,
    sem_labels,
    inst_ids,
    n_classes=4,
    stuff_classes=frozenset({0}),
    sem_scores="onehot",
    colors=None,
):
    """Construct a small scene; sem_scores 'onehot' derives scores from labels."""
    coords = np.asarray(coords, dtype=np.float32)
    sem_labels = np.asarray(sem_labels, dtype=np.int32)
    inst_ids = np.asarray(inst_ids, dtype=np.int32)
    n = coords.shape[0]
    if colors is None:
        colors = np.full((n, 3), 200, dtype=np.int64)
    if isinstance(sem_scores, str) and sem_scores == "onehot":
        scores = np.zeros((n, n_classes), dtype=np.float32)
        labeled = sem_labels >= 0
        scores[np.flatnonzero(labeled), sem_labels[labeled]] = 1.0
        unl = ~labeled
        scores[unl] = 1.0 / n_classes
    else:
        scores = sem_scores
    return Scene(
        n_classes=n_classes,
        coords=coords,
        colors=colors,
        sem_labels=sem_labels,
        inst_ids=inst_ids,
        stuff_classes=stuff_classes,
        sem_scores=scores,
    )


def two_object_scene(gap=0.5, n_per_object=60, spacing=0.01, class_a=1, class_b=1, seed=0):
    """Two small dense point blocks along x, separated by ``gap`` (surface gap)."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_per_object)))
    xs, ys = np.meshgrid(np.arange(side) * spacing, np.arange(side) * spacing)
    base = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])[:n_per_object]
    base = base + rng.uniform(-1e-4, 1e-4, base.shape)
    width = (side - 1) * spacing
    a = base.copy()
    b = base.copy()
    b[:, 0] += width + gap
    coords = np.concatenate([a, b]).astype(np.float32)
    n = coords.shape[0]
    labels = np.concatenate(
        [np.full(n_per_object, class_a), np.full(n_per_object, class_b)]
    ).astype(np.int32)
    insts = np.concatenate(
        [np.zeros(n_per_object), np.ones(n_per_object)]
    ).astype(np.int32)
    return make_scene(coords, labels, insts)


def random_cluster_inputs(seed, n_max=300, n_classes=3):
    """Random coords/labels for clustering fuzz; label -1 and stuff id 0 included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, n_max))
    coords = rng.uniform(0, 0.4, (n, 3)).astype(np.float32)
    labels = rng.integers(-1, n_classes, n).astype(np.int32)
    return coords, labels


def small_rooms(**noise):
    """``GenConfig`` strategy of the metamorphic pipeline tests: four small
    objects in a 2.5 x 2.5 m room, in same-class pairs 0.01 m apart or not;
    ``noise`` gives noise fields of ``GenConfig`` a value or a strategy."""
    noise = {k: v if isinstance(v, st.SearchStrategy) else st.just(v) for k, v in noise.items()}
    return st.builds(
        GenConfig, seed=st.integers(0, 2**16), room=st.just((2.5, 2.5, 1.5)),
        n_objects=st.just(4), size_scale=st.just((0.3, 0.5)), stuff_density=st.just(20.0),
        same_class_gap=st.sampled_from([None, 0.01]), **noise,
    )


class OracleScene(NamedTuple):
    """A clustering input small enough for the O(N^2) oracles: float64
    ``coords`` (one point lies beyond the float32 range), int32 ``labels``
    with -1 and the stuff class 0, the ``radius``, and the point indices of
    each family."""

    coords: np.ndarray
    labels: np.ndarray
    radius: float
    families: dict

    def in_float32(self):
        """Coordinates and labels of the points a grid can hold: all but the
        one beyond the float32 range, every coordinate a float32 value."""
        keep = np.setdiff1d(np.arange(self.labels.size), self.families["beyond"])
        return self.coords[keep], self.labels[keep]

    def only(self, *names):
        """Coordinates and labels of the points of the named families alone."""
        keep = np.concatenate([self.families[name] for name in names])
        return self.coords[keep], self.labels[keep]


def _clutter(draw, rng, r, x0):
    # a uniform cloud of every label, unlabelled and stuff points included
    n = draw(st.integers(20, 200))
    pts = rng.uniform(0, draw(st.sampled_from([8, 16])) * r, (n, 3)) + [x0, 0, 0]
    return {"clutter": (pts, np.append([-1, 0], rng.integers(-1, 4, n - 2)))}


def _piles(draw, rng, r, x0):
    # piles 5 cells apart along x: one inside a cell, with three nodes of
    # label 1 and a point of label 2; one on a face between two cells and one
    # around a corner of eight, where point i lies on the far side of the
    # j-th boundary when bit j of i is set, so that every cell gets points
    side, out = r * _FINE_FACTOR, {}
    cell = np.array([np.floor(x0 / side) + 1, *rng.integers(0, 12, 2)])
    for k, boundary in enumerate(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 1]])):
        n = draw(st.integers(130, 190) if k == 0 else st.integers(8, 100))
        flip = (np.arange(n)[:, None] >> np.maximum(np.cumsum(boundary) - 1, 0)) & boundary
        offset = np.where(
            boundary, (1 - 2 * flip) * rng.uniform(0.01, 0.3, (n, 3)), rng.uniform(-0.3, 0.3, (n, 3))
        )
        labels = rng.choice(np.arange(-1, 4), n, p=[0.05, 0.05, 0.7, 0.1, 0.1])  # mostly 1
        if k == 0:
            labels[:130] = [1] * 129 + [2]
        pts = (cell + [5 * k, 0, 0] + 0.5 * (1 - boundary) + offset) * side
        out[f"pile_{2 ** boundary.sum()}"] = pts, labels
    return out


def _near_r(draw, rng, r, x0):
    # label-1 pairs 4r apart along x.  The first lies exactly r apart in
    # float32: f32(r) / 2 either side of y = 0.  The next two take, along a
    # drawn axis, the last float32 inside r and the first one outside.  The
    # rest are the float32 rounding of a point r away, nudged by up to one
    # ulp per coordinate: within an ulp of r on either side
    m, axis, r2 = draw(st.integers(3, 30)), draw(st.integers(0, 2)), radius_squared(r)
    a = np.float32(np.column_stack([x0 + r * (2 + 4 * np.arange(m)), rng.uniform(0, 8 * r, (m, 2))]))
    direction = rng.normal(size=(m, 3))
    direction[: m // 3] = np.eye(3)[rng.integers(0, 3, m // 3)]
    b = (a + r * direction / np.linalg.norm(direction, axis=1, keepdims=True)).astype(np.float32)
    b = np.nextafter(b, b + rng.integers(-1, 2, b.shape).astype(np.float32))  # a step of -1, 0 or 1 ulp
    a[0, 1], b[0], b[0, 1] = -np.float32(r) / 2, a[0], np.float32(r) / 2
    for k in (1, 2):
        b[k] = a[k]
        b[k, axis] += np.float32(r)
        while squared_distances(a[k], b[k]) < r2:
            b[k, axis] = np.nextafter(b[k, axis], np.float32(np.inf))
        while squared_distances(a[k], b[k]) >= r2:
            b[k, axis] = np.nextafter(b[k, axis], np.float32(-np.inf))
    b[2, axis] = np.nextafter(b[2, axis], np.float32(np.inf))
    return {"near_r": (np.stack([a, b], axis=1).reshape(-1, 3), np.ones(2 * m))}


def _chains(draw, rng, r, x0):
    # chains of label 1 or 2 whose hops sit just under r: one along each
    # axis, whose hops of about 1.73 cells cross two cells at least every
    # second hop, and two in drawn directions; a hop that rounds to r or
    # over splits its chain, and the oracle decides where each one breaks
    pts, labels, drawn = [], [], rng.normal(size=(2, 3))
    drawn[:, 0] = np.abs(drawn[:, 0])  # onward in x, away from the family before
    for k, step in enumerate([*np.eye(3), *drawn]):
        n = draw(st.integers(3, 60))
        step = step * r * (1 - rng.uniform(0, 1e-5)) / np.linalg.norm(step)
        pts.append([x0, *rng.uniform(0, 8 * r, 2)] + np.arange(n)[:, None] * step)
        labels.append(np.full(n, 1 + k % 2))
    return {"chains": (np.concatenate(pts), np.concatenate(labels))}


# the clustering radii the oracle scenes are drawn at
ORACLE_RADII = (0.02, 0.03, 0.05, 0.1)


@st.composite
def oracle_scenes(draw, radius=None):
    """One scene that holds every input on which the clustering kernel's
    shortcuts must match the oracles, each family by construction: clutter,
    dense mixed-label piles over one, two and eight cells, pairs within an
    ulp of r, chains of hops just under r, and far outliers.  The first four
    lie side by side along x in a drawn order, 0.5 r to 3 r apart, so that
    they share the grid's rows and may touch; the outliers go last.  r is
    ``radius``, or else drawn from ``ORACLE_RADII``."""
    r = radius or draw(st.sampled_from(ORACLE_RADII))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts, x0 = {}, 0.0
    for build in draw(st.permutations([_clutter, _piles, _near_r, _chains])):
        made = build(draw, rng, r, x0)
        parts.update((name, (np.float32(p).astype(np.float64), q)) for name, (p, q) in made.items())
        x0 = max(p[:, 0].max() for p, _ in made.values()) + draw(st.floats(0.5, 3.0)) * r
    # clutter points moved 1e4 to 1e36 m away, the first two onto one spot
    # with label 1; and a point of label 1 at a finite 1e39 m, beyond float32
    clutter = parts["clutter"][0]
    far = clutter[rng.choice(len(clutter), 5)]
    far += 10.0 ** rng.uniform(4, 36, (5, 1)) * rng.choice([-1, 1], (5, 3))
    far[1] = far[0]
    parts["far"] = np.float32(far).astype(np.float64), np.append([1, 1], rng.integers(-1, 4, 3))
    beyond = clutter[:1].copy()
    beyond[0, draw(st.integers(0, 2))] = draw(st.sampled_from([-1e39, 1e39]))
    parts["beyond"] = beyond, [1]
    sizes = np.cumsum([0] + [len(q) for _, q in parts.values()])
    return OracleScene(
        np.concatenate([p for p, _ in parts.values()]),
        np.concatenate([q for _, q in parts.values()]).astype(np.int32), r,
        {name: np.arange(lo, hi) for name, lo, hi in zip(parts, sizes, sizes[1:])},
    )


def float64_limit_offset_scene():
    """300 points of one label in a 0.3 m cube, one of them offset by 1.7e308
    in x: finite, yet the shifted-space distances of its P cluster overflow."""
    n = 300
    coords = np.random.default_rng(0).uniform(0.0, 0.3, (n, 3))
    offsets = np.zeros((n, 3))
    offsets[0, 0] = 1.7e308
    return make_scene(coords, np.ones(n), np.zeros(n)), OffsetField(offsets)


@pytest.fixture
def simple_scene():
    # two instances of class 1 plus stuff floor points of class 0
    coords = [
        [0.0, 0.0, 0.0], [0.02, 0.0, 0.0], [0.04, 0.0, 0.0],
        [1.0, 0.0, 0.0], [1.02, 0.0, 0.0],
        [0.5, 0.5, 0.0], [0.52, 0.5, 0.0],
    ]
    labels = [1, 1, 1, 1, 1, 0, 0]
    insts = [0, 0, 0, 1, 1, -1, -1]
    return make_scene(coords, labels, insts)


@pytest.fixture
def zero_offsets(simple_scene):
    return OffsetField(np.zeros((simple_scene.n_points, 3)))
