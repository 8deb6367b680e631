"""Shared scene builders for the test suite, and scalar references for the
library's vectorised paths."""

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cloudinst
from cloudinst import formats
from cloudinst.core import FormatError, OffsetField, Scene, check_offsets


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
        return lines[:keep], len(lines)

    def table(fh, kept, head, count, fields):
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
