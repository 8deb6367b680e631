"""Domain types for labeled point-cloud scenes and instance predictions.

Everything here is immutable after construction (arrays are marked
read-only), so all types are safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SceneError(ValueError):
    """A scene (or related object) violates one of its invariants.

    ``point_index`` identifies the first offending point when the violation
    is attributable to a single point, else it is None.
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


def never_clustered(sem_labels: np.ndarray, stuff_classes) -> np.ndarray:
    """Boolean mask of points that can never join a cluster.

    Unlabeled (-1) points are treated like stuff: they are excluded from
    clustering rather than grouped by guesswork.
    """
    stuff = np.fromiter((int(c) for c in stuff_classes), dtype=np.int64)
    return (sem_labels < 0) | np.isin(sem_labels, stuff)


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


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
        coords = _as_readonly(np.asarray(self.coords, dtype=np.float32))
        colors_in = np.asarray(self.colors)
        labels = _as_readonly(np.asarray(self.sem_labels, dtype=np.int32))
        insts = _as_readonly(np.asarray(self.inst_ids, dtype=np.int32))
        stuff = frozenset(int(c) for c in self.stuff_classes)
        scores = self.sem_scores

        if coords.ndim != 2 or coords.shape[1] != 3:
            raise SceneError("coords must have shape (n_points, 3)")
        n = coords.shape[0]
        if self.n_classes < 1:
            raise SceneError("n_classes must be at least 1")
        if colors_in.shape != (n, 3):
            raise SceneError("colors must have shape (n_points, 3)")
        if labels.shape != (n,) or insts.shape != (n,):
            raise SceneError("sem_labels and inst_ids must have shape (n_points,)")
        if not np.all(np.isfinite(coords)):
            idx = int(np.flatnonzero(~np.isfinite(coords).all(axis=1))[0])
            raise SceneError(f"non-finite coordinate at point {idx}", idx)
        if np.any((colors_in < 0) | (colors_in > 255)):
            idx = int(np.flatnonzero(((colors_in < 0) | (colors_in > 255)).any(axis=1))[0])
            raise SceneError(f"color component out of [0, 255] at point {idx}", idx)
        colors = _as_readonly(colors_in.astype(np.uint8))

        bad = (labels < -1) | (labels >= self.n_classes)
        if np.any(bad):
            idx = int(np.flatnonzero(bad)[0])
            raise SceneError(
                f"semantic label {int(labels[idx])} out of range at point {idx}", idx
            )
        if np.any(insts < -1):
            idx = int(np.flatnonzero(insts < -1)[0])
            raise SceneError(f"instance id {int(insts[idx])} invalid at point {idx}", idx)
        if any(c < 0 or c >= self.n_classes for c in stuff):
            raise SceneError("stuff class id out of range")

        if scores is not None:
            scores = np.asarray(scores, dtype=np.float32)
            if scores.shape != (n, self.n_classes):
                raise SceneError("sem_scores must have shape (n_points, n_classes)")
            if not np.all(np.isfinite(scores)):
                idx = int(np.flatnonzero(~np.isfinite(scores).all(axis=1))[0])
                raise SceneError(f"non-finite semantic score at point {idx}", idx)
            if np.any(scores < 0):
                idx = int(np.flatnonzero((scores < 0).any(axis=1))[0])
                raise SceneError(f"negative semantic score at point {idx}", idx)
            sums = scores.sum(axis=1, dtype=np.float64)
            off = np.abs(sums - 1.0) > 1e-5
            if np.any(off):
                idx = int(np.flatnonzero(off)[0])
                raise SceneError(
                    f"semantic scores sum to {sums[idx]:.8f} (not 1) at point {idx}", idx
                )
            # Arg-max consistency holds for labeled points; unlabeled (-1)
            # points may carry any probability row.
            labeled = labels >= 0
            if np.any(labeled):
                am = argmax_labels(scores[labeled])
                bad = am != labels[labeled]
                if np.any(bad):
                    idx = int(np.flatnonzero(labeled)[np.flatnonzero(bad)[0]])
                    raise SceneError(
                        f"sem_labels does not equal arg-max of sem_scores at point {idx}",
                        idx,
                    )
            scores = _as_readonly(scores)

        on_instance = insts >= 0
        if np.any(on_instance):
            inst_labels = labels[on_instance]
            if np.any(inst_labels == -1):
                idx = int(np.flatnonzero(on_instance & (labels == -1))[0])
                raise SceneError(f"instance point {idx} is unlabeled", idx)
            if stuff:
                stuff_arr = np.fromiter(stuff, dtype=np.int32)
                on_stuff = on_instance & np.isin(labels, stuff_arr)
                if np.any(on_stuff):
                    idx = int(np.flatnonzero(on_stuff)[0])
                    raise SceneError(
                        f"instance point {idx} has a stuff-class label", idx
                    )
            ids = insts[on_instance]
            uniq = np.unique(ids)
            if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
                expect = np.arange(uniq.size)
                gap = int(uniq[np.flatnonzero(uniq != expect)[0]])
                idx = int(np.flatnonzero(insts == gap)[0])
                raise SceneError(
                    f"instance ids are not contiguous (id {gap} at point {idx})", idx
                )
            # one semantic label per instance id
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            sorted_lab = inst_labels[order]
            starts = np.flatnonzero(np.diff(sorted_ids, prepend=-2))
            firsts = np.repeat(sorted_lab[starts], np.diff(np.append(starts, ids.size)))
            mism = sorted_lab != firsts
            if np.any(mism):
                pos = np.flatnonzero(on_instance)[order[np.flatnonzero(mism)[0]]]
                raise SceneError(
                    f"instance label inconsistency at point {int(pos)}", int(pos)
                )

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

    def stuff_mask(self) -> np.ndarray:
        """Boolean mask of points that can never join a cluster."""
        return never_clustered(self.sem_labels, self.stuff_classes)


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
        off = np.asarray(self.offsets, dtype=np.float64)
        if off.ndim != 2 or off.shape[1] != 3:
            raise SceneError("offsets must have shape (n_points, 3)")
        if not np.all(np.isfinite(off)):
            idx = int(np.flatnonzero(~np.isfinite(off).all(axis=1))[0])
            raise SceneError(f"non-finite offset at point {idx}", idx)
        object.__setattr__(self, "offsets", _as_readonly(off))

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


def _sorted_index_array(point_idx, what: str) -> np.ndarray:
    idx = np.asarray(point_idx, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise SceneError(f"{what} must contain at least one point index")
    if np.any(idx < 0):
        raise SceneError(f"{what} contains a negative point index")
    if np.any(np.diff(idx) <= 0):
        raise SceneError(f"{what} indices must be sorted and duplicate-free")
    return _as_readonly(idx)


@dataclass(frozen=True, eq=False)
class Cluster:
    """A candidate instance: point indices plus the shared semantic class."""

    point_idx: np.ndarray
    class_id: int
    source: Source

    def __post_init__(self):
        object.__setattr__(
            self, "point_idx", _sorted_index_array(self.point_idx, "cluster")
        )
        object.__setattr__(self, "source", Source(self.source))

    @property
    def size(self) -> int:
        return self.point_idx.size

    @property
    def min_index(self) -> int:
        return int(self.point_idx[0])


@dataclass(frozen=True, eq=False)
class InstancePrediction:
    """A final predicted instance with a confidence score in [0, 1]."""

    point_idx: np.ndarray
    class_id: int
    score: float

    def __post_init__(self):
        object.__setattr__(
            self, "point_idx", _sorted_index_array(self.point_idx, "prediction")
        )
        score = float(self.score)
        if not np.isfinite(score) or score < 0.0 or score > 1.0:
            raise SceneError(f"prediction score {score} not in [0, 1]")
        object.__setattr__(self, "score", score)

    @property
    def size(self) -> int:
        return self.point_idx.size


def check_predictions(scene: Scene, preds: list[InstancePrediction]) -> None:
    """SceneError unless every prediction indexes points of ``scene``."""
    for k, p in enumerate(preds):
        if p.point_idx[-1] >= scene.n_points:
            raise SceneError(
                f"prediction {k} references point {int(p.point_idx[-1])} "
                f"but the scene has {scene.n_points} points"
            )


@dataclass(frozen=True, eq=False)
class GroundTruthInstance:
    """Annotated instance mask: point indices plus class id."""

    point_idx: np.ndarray
    class_id: int

    def __post_init__(self):
        object.__setattr__(
            self, "point_idx", _sorted_index_array(self.point_idx, "instance")
        )

    @property
    def size(self) -> int:
        return self.point_idx.size


def ground_truth_instances(scene: Scene) -> list[GroundTruthInstance]:
    """Extract instance masks from a scene, ordered by instance id."""
    on_inst = np.flatnonzero(scene.inst_ids >= 0)
    if on_inst.size == 0:
        return []
    ids = scene.inst_ids[on_inst]
    order = np.argsort(ids, kind="stable")
    on_inst = on_inst[order]
    ids = ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    bounds = np.append(starts, ids.size)
    out = []
    for k in range(starts.size):
        members = on_inst[bounds[k] : bounds[k + 1]]
        out.append(
            GroundTruthInstance(
                point_idx=members, class_id=int(scene.sem_labels[members[0]])
            )
        )
    return out
