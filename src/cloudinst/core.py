"""Domain types for labeled point-cloud scenes and instance predictions.

Everything here is immutable after construction (each array is a read-only
copy of the one passed in), so all types are safe to share across threads.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


class SceneError(ValueError):
    """A scene (or related object) violates one of its invariants.

    ``point_index`` identifies the first offending point or row (of a scorer
    model) when the violation is attributable to a single one, else it is None.
    """

    def __init__(self, message: str, point_index: int | None = None):
        super().__init__(message)
        self.point_index = point_index


class FormatError(ValueError):
    """A file does not conform to one of the text formats (.sc1/.off1/.pred1)."""


class Source(enum.IntEnum):
    """Coordinate set a cluster was discovered in."""

    ORIGINAL = 0
    SHIFTED = 1


def argmax_labels(sem_scores: np.ndarray) -> np.ndarray:
    """Per-row arg-max class, ties broken by the lowest class id.

    np.argmax already returns the first maximal index, which is the lowest
    class id; this wrapper exists so the tie-break rule has one home.
    """
    return np.argmax(sem_scores, axis=1).astype(np.int32)


def is_bool(value) -> bool:
    """Whether ``value`` is a bool (``True`` or ``np.True_``), which no rule
    reads as the number 1."""
    return isinstance(value, (bool, np.bool_))


def bools(values) -> np.ndarray:
    """Which entries of ``values`` (a number, or an array or nested sequence
    of them) are bools: each entry of a bool array, and each ``is_bool``
    entry of a sequence, where ``np.asarray`` would read it as 0 or 1."""
    arr = np.asarray(values)
    if arr.dtype == bool:
        return np.ones(arr.shape, dtype=bool)
    if arr.dtype == object or (arr.ndim and not isinstance(values, np.ndarray)):
        return np.vectorize(is_bool, otypes=[bool])(np.asarray(values, dtype=object))
    return np.zeros(arr.shape, dtype=bool)


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not is_bool(value)


def _finite_number(x) -> bool:
    try:
        return isinstance(x, numbers.Real) and not is_bool(x) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def check(name: str, value, ok: Callable[..., bool], rule: str) -> None:
    """ValueError ``"{name} must be {rule}, got {value}"`` unless ``value``, a
    number or a sequence of them, is finite (an int beyond the float range is
    not) and not a bool (``is_bool``), and then ``ok(value)``, the caller's
    range test, holds; it runs only on numbers, so a string is refused by name."""
    good = all(map(_finite_number, np.asarray(value, dtype=object).flat))
    try:
        good = good and ok(value)
    except TypeError:  # a range test that does not apply, such as len() of a number
        good = False
    if not good:
        raise ValueError(f"{name} must be {rule}, got {value}")


def check_seed(name: str, seed, nonnegative: bool) -> None:
    """ValueError naming ``name`` unless ``seed`` is an integer of any size (a
    Philox key takes its low 64 bits), and >= 0 where ``nonnegative`` (numpy's
    generators refuse a negative one); not a bool."""
    if not is_int(seed):
        raise ValueError(f"{name} must be an integer, got {seed}")
    if nonnegative and seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


def stuff_ids(ids) -> frozenset[int]:
    """``ids`` as Python ints; SceneError for an id that is not integral
    (``1.0`` and ``np.int64(1)`` are, ``1.5``, ``"1"`` and the bools
    ``True`` and ``np.True_`` are not)."""
    out = set()
    for c in ids:
        try:
            k = int(c)
        except (TypeError, ValueError, OverflowError):
            k = None
        if k is None or k != c or is_bool(c):
            raise SceneError(f"stuff class id must be an integer, got {c!r}")
        out.add(k)
    return frozenset(out)


def refuse(bad: np.ndarray, message: str, values=None) -> None:
    """SceneError naming the first point or row flagged in ``bad`` (one flag
    per point or row, or one per point and column), if any: ``message``
    formatted with ``i``, that point or row, and ``v``, its entry of ``values``."""
    if bad.any():
        i = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
        raise SceneError(message.format(i=i, v=None if values is None else values[i]), i)


def int32_ids(values, what: str) -> np.ndarray:
    """``values`` (labels or instance ids) as an int32 array; SceneError
    naming the first point whose value is not an integer in the int32 range.
    ``1.0`` is stored as 1; ``1.5``, NaN, ``2**32 + 1`` and a bool, in a bool
    array or among a list's numbers, are refused, not truncated, wrapped or
    read as 1, as ``stuff_ids`` refuses them."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iuf" and not isinstance(values, np.ndarray):
        # np.asarray reads a bool among a list's numbers as 0 or 1; an object
        # array keeps it a bool
        if {bool, np.bool_} & set(map(type, values)):
            arr = np.asarray(values, dtype=object)
    if arr.dtype == np.int32:
        return arr
    try:
        wide = arr.astype(np.float64) if arr.dtype.kind in "biufO" else None
    except (TypeError, ValueError, OverflowError):
        wide = None
    if wide is None:
        raise SceneError(f"{what}s must be integers, got {arr.dtype} values")
    lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    with np.errstate(invalid="ignore"):
        bad = ~((wide >= lo) & (wide <= hi) & (wide == np.floor(wide))) | (arr.dtype.kind == "b")
    if arr.dtype == object:
        bad |= bools(arr)
    refuse(bad.ravel(), what + " {v} at point {i} is not an integer in the int32 range", arr.ravel())
    return wide.astype(np.int32)


def never_clustered(sem_labels: np.ndarray, stuff_classes) -> np.ndarray:
    """Boolean mask of points that can never join a cluster.

    Unlabeled (-1) points are treated like stuff: they are excluded from
    clustering rather than grouped by guesswork.  A stuff id beyond int64
    equals no label, so it masks nothing.
    """
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    stuff = np.array([c for c in stuff_ids(stuff_classes) if lo <= c <= hi], dtype=np.int64)
    return (sem_labels < 0) | np.isin(sem_labels, stuff)


def _as_readonly(arr, dtype=None) -> np.ndarray:
    """A read-only C-ordered copy of ``arr`` (as ``dtype``, if given): the
    object owns its arrays, so neither the caller's array nor the base of a
    view passed in is frozen, and writing to either later changes nothing."""
    arr = np.array(arr, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _instance_groups(inst_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points with an instance id (>= 0) ordered by id, ascending within
    an id, and the position where each id's run starts in that order."""
    on_inst = np.flatnonzero(inst_ids >= 0)
    members = on_inst[np.argsort(inst_ids[on_inst], kind="stable")]
    return members, np.flatnonzero(np.diff(inst_ids[members], prepend=-1))


@dataclass(frozen=True, eq=False)
class Scene:
    """A point cloud with semantics and ground-truth instance annotations.

    coords:   (N, 3) float32 positions in meters.
    colors:   (N, 3) uint8 RGB.
    sem_labels: (N,) int32 class ids in [0, n_classes) or -1 for unlabeled.
    inst_ids: (N,) int32 instance ids >= 0, or -1 for stuff/unassigned.
    sem_scores: optional (N, n_classes) float32 per-class probabilities.
    stuff_classes: class ids that are background and never form instances.
    """

    n_classes: int
    coords: np.ndarray
    colors: np.ndarray
    sem_labels: np.ndarray
    inst_ids: np.ndarray
    stuff_classes: frozenset[int] = field(default_factory=frozenset)
    sem_scores: np.ndarray | None = None

    def __post_init__(self):
        coords = _as_readonly(self.coords, np.float32)
        colors_in = np.asarray(self.colors)
        # refused before a value of a 2-D array is named by its flat index
        one_per_point = "sem_labels and inst_ids must have shape (n_points,)"
        if np.ndim(self.sem_labels) != 1 or np.ndim(self.inst_ids) != 1:
            raise SceneError(one_per_point)
        labels = _as_readonly(int32_ids(self.sem_labels, "semantic label"))
        insts = _as_readonly(int32_ids(self.inst_ids, "instance id"))
        stuff = stuff_ids(self.stuff_classes)
        scores = self.sem_scores

        if coords.ndim != 2 or coords.shape[1] != 3:
            raise SceneError("coords must have shape (n_points, 3)")
        n = coords.shape[0]
        if not (is_int(self.n_classes) and self.n_classes >= 1):
            raise SceneError(f"n_classes must be an integer >= 1, got {self.n_classes!r}")
        n_classes = int(self.n_classes)
        if colors_in.shape != (n, 3):
            raise SceneError("colors must have shape (n_points, 3)")
        if labels.shape != (n,) or insts.shape != (n,):
            raise SceneError(one_per_point)
        refuse(~np.isfinite(coords), "non-finite coordinate at point {i}")
        bad_color = (colors_in < 0) | (colors_in > 255)
        refuse(bad_color, "color component out of [0, 255] at point {i}")
        colors = _as_readonly(colors_in, np.uint8)

        bad_label = (labels < -1) | (labels >= n_classes)
        refuse(bad_label, "semantic label {v} out of range at point {i}", labels)
        refuse(insts < -1, "instance id {v} invalid at point {i}", insts)
        if any(c < 0 or c >= n_classes for c in stuff):
            raise SceneError("stuff class id out of range")

        if scores is not None:
            as_bool = bools(scores)
            scores = _as_readonly(scores, np.float32)
            if scores.shape != (n, n_classes):
                raise SceneError("sem_scores must have shape (n_points, n_classes)")
            refuse(as_bool, "semantic score at point {i} is a bool, not a probability")
            refuse(~np.isfinite(scores), "non-finite semantic score at point {i}")
            refuse(scores < 0, "negative semantic score at point {i}")
            sums = scores.sum(axis=1, dtype=np.float64)
            off = np.abs(sums - 1.0) > 1e-5
            refuse(off, "semantic scores sum to {v:.8f} (not 1) at point {i}", sums)
            # Arg-max consistency holds for labeled points; unlabeled (-1)
            # points may carry any probability row.
            refuse(
                (labels >= 0) & (argmax_labels(scores) != labels),
                "sem_labels does not equal arg-max of sem_scores at point {i}",
            )

        on_instance = insts >= 0
        refuse(on_instance & (labels == -1), "instance point {i} is unlabeled")
        on_stuff = on_instance & np.isin(labels, np.fromiter(stuff, dtype=np.int32))
        refuse(on_stuff, "instance point {i} has a stuff-class label")
        members, starts = _instance_groups(insts)
        uniq = insts[members[starts]]
        if uniq.max(initial=-1) != uniq.size - 1:  # distinct ids >= 0: one is above its rank
            gap = uniq[np.argmax(uniq != np.arange(uniq.size))]
            refuse(insts == gap, "instance ids are not contiguous (id {v} at point {i})", insts)
        # one semantic label per instance id: the first member, in id order,
        # whose label differs from the one before it in its instance
        lab, ids = labels[members], insts[members]
        mism = np.flatnonzero((lab[1:] != lab[:-1]) & (ids[1:] == ids[:-1]))
        if mism.size:
            pos = int(members[mism[0] + 1])
            raise SceneError(f"instance label inconsistency at point {pos}", pos)

        object.__setattr__(self, "n_classes", n_classes)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "sem_labels", labels)
        object.__setattr__(self, "inst_ids", insts)
        object.__setattr__(self, "stuff_classes", stuff)
        object.__setattr__(self, "sem_scores", scores)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def n_instances(self) -> int:
        return int(self.inst_ids.max() + 1) if self.inst_ids.size else 0


def scenes_equal(a: Scene, b: Scene) -> bool:
    """Exact equality of two scenes, including optional scores."""
    if a.n_classes != b.n_classes or a.stuff_classes != b.stuff_classes:
        return False
    if a.n_points != b.n_points:
        return False
    if not (
        np.array_equal(a.coords, b.coords)
        and np.array_equal(a.colors, b.colors)
        and np.array_equal(a.sem_labels, b.sem_labels)
        and np.array_equal(a.inst_ids, b.inst_ids)
    ):
        return False
    if (a.sem_scores is None) != (b.sem_scores is None):
        return False
    if a.sem_scores is not None and not np.array_equal(a.sem_scores, b.sem_scores):
        return False
    return True


@dataclass(frozen=True, eq=False)
class OffsetField:
    """Per-point 3D offset vectors (meters), stored in float64."""

    offsets: np.ndarray

    def __post_init__(self):
        off = _as_readonly(self.offsets, np.float64)
        if off.ndim != 2 or off.shape[1] != 3:
            raise SceneError("offsets must have shape (n_points, 3)")
        refuse(~np.isfinite(off), "non-finite offset at point {i}")
        object.__setattr__(self, "offsets", off)

    @property
    def n_points(self) -> int:
        return self.offsets.shape[0]


def check_offsets(scene: Scene, offsets: OffsetField) -> None:
    """SceneError unless ``offsets`` holds one vector per point of ``scene``."""
    if offsets.n_points != scene.n_points:
        raise SceneError(
            f"offset field has {offsets.n_points} points, scene has {scene.n_points}"
        )


def shifted_coords(scene: Scene, offsets: OffsetField) -> np.ndarray:
    """Coordinates after applying offsets, in float64: q_i = p_i + o_i."""
    check_offsets(scene, offsets)
    return scene.coords.astype(np.float64) + offsets.offsets


@dataclass(frozen=True, eq=False)
class _Mask:
    """Point indices, sorted and duplicate-free, plus an integer class id."""

    point_idx: np.ndarray
    class_id: int
    _what: ClassVar[str]  # the kind of mask, named in messages

    def __post_init__(self):
        idx = _as_readonly(self.point_idx, np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise SceneError(f"{self._what} must contain at least one point index")
        if np.any(idx < 0):
            raise SceneError(f"{self._what} contains a negative point index")
        if np.any(np.diff(idx) <= 0):
            raise SceneError(f"{self._what} indices must be sorted and duplicate-free")
        if not is_int(self.class_id):
            raise SceneError(f"{self._what} class id must be an integer, got {self.class_id!r}")
        object.__setattr__(self, "point_idx", idx)
        object.__setattr__(self, "class_id", int(self.class_id))

    @property
    def size(self) -> int:
        return self.point_idx.size


@dataclass(frozen=True, eq=False)
class Cluster(_Mask):
    """A candidate instance: point indices plus the shared semantic class."""

    source: Source
    _what: ClassVar[str] = "cluster"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "source", Source(self.source))

    @property
    def min_index(self) -> int:
        return int(self.point_idx[0])


@dataclass(frozen=True, eq=False)
class InstancePrediction(_Mask):
    """A final predicted instance with a confidence score in [0, 1]."""

    score: float
    _what: ClassVar[str] = "prediction"

    def __post_init__(self):
        super().__post_init__()
        if bools(self.score).any():
            raise SceneError(f"prediction score {self.score} is a bool, not a number in [0, 1]")
        score = float(self.score)
        if not np.isfinite(score) or score < 0.0 or score > 1.0:
            raise SceneError(f"prediction score {score} not in [0, 1]")
        object.__setattr__(self, "score", score)


def check_predictions(scene: Scene, preds: list[InstancePrediction]) -> None:
    """SceneError unless every prediction indexes points of ``scene``."""
    for k, p in enumerate(preds):
        if p.point_idx[-1] >= scene.n_points:
            raise SceneError(
                f"prediction {k} references point {int(p.point_idx[-1])} "
                f"but the scene has {scene.n_points} points"
            )


@dataclass(frozen=True, eq=False)
class GroundTruthInstance(_Mask):
    """Annotated instance mask: point indices plus class id."""

    _what: ClassVar[str] = "instance"


def ground_truth_instances(scene: Scene) -> list[GroundTruthInstance]:
    """Extract instance masks from a scene, ordered by instance id."""
    members, starts = _instance_groups(scene.inst_ids)
    return [
        GroundTruthInstance(m, int(scene.sem_labels[m[0]])) for m in np.split(members, starts)[1:]
    ]
