"""Training-loss kernels for the offset and semantic branches, the combined
total, analytic gradients with a finite-difference checker, and the
point-to-centroid distance histogram.

All reductions accumulate in float64 regardless of input precision.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .core import OffsetField, Scene, _id_groups, check_offsets, int32_ids, refuse

LOG_EPS = 1e-12  # clamp inside log() for cross entropy
DIR_EPS = 1e-8  # offsets or targets shorter than this skip the direction term
FD_STEP = 1e-4  # central-difference step of gradient_check
GRAD_TOLERANCE = 1e-5  # largest gradient_check error train_scorer and gradcheck accept
HIST_BIN = 0.1  # distance_histogram bin width, m
HIST_MAX = 2.0  # distance_histogram regular-bin range, m


@dataclass(frozen=True)
class LossReport:
    """The four loss terms and their unweighted sum."""

    l_sem: float
    l_offset_reg: float
    l_offset_dir: float
    l_score: float
    total: float


def instance_centroids(scene: Scene) -> np.ndarray:
    """Mean coordinate of each instance, shape (n_instances, 3), float64: the
    float64 sum of its run of ``_id_groups`` (``np.add.reduceat``) over its length."""
    if scene.n_instances == 0:
        raise ValueError("scene has no instances")
    members, starts = _id_groups(scene.inst_ids)
    sums = np.add.reduceat(scene.coords[members].astype(np.float64), starts)
    return sums / np.diff(starts, append=members.size)[:, None]


# offset_targets per scene: a Scene is frozen and its arrays are read-only
_TARGETS: weakref.WeakKeyDictionary[Scene, OffsetField] = weakref.WeakKeyDictionary()


def offset_targets(scene: Scene) -> OffsetField:
    """Ideal offsets: centroid minus position on instances, zero elsewhere.
    Computed once per scene; the field returned is read-only."""
    if scene not in _TARGETS:
        targets = np.zeros((scene.n_points, 3), dtype=np.float64)
        if scene.n_instances:
            centroids = instance_centroids(scene)
            on_inst = scene.inst_ids >= 0
            targets[on_inst] = (
                centroids[scene.inst_ids[on_inst]] - scene.coords[on_inst].astype(np.float64)
            )
        _TARGETS[scene] = OffsetField(targets)
    return _TARGETS[scene]


def semantic_loss(sem_scores: np.ndarray, gt_labels: np.ndarray) -> float:
    """Mean cross entropy of probability rows against labels.

    Points labeled -1 are excluded from the mean.  As in a scene, a label that
    is not an integer in [-1, n_classes) is refused, naming its point.
    """
    scores = np.asarray(sem_scores, dtype=np.float64)
    if scores.ndim != 2 or np.shape(gt_labels) != (scores.shape[0],):
        raise ValueError("sem_scores must be (n, n_classes) with one label per row")
    labels = int32_ids(gt_labels, "semantic label")
    bad = (labels < -1) | (labels >= scores.shape[1])
    refuse(bad, "semantic label {v} out of range at point {i}", labels)
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise ValueError("no labeled points")
    p = scores[labeled, labels[labeled]]
    return float(-np.log(np.maximum(p, LOG_EPS)).mean() + 0.0)


def _instance_mask_and_targets(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    mask = scene.inst_ids >= 0
    if not mask.any():
        raise ValueError("scene has no instance points")
    return mask, offset_targets(scene).offsets


def _scale(peak):
    """The power of two that scales ``peak`` (>= 0) into [0.5, 1) when it
    reaches 1, else 1: scaling by it is exact, and no sum or square of
    values up to ``peak`` overflows once scaled (LAPACK's dnrm2, Blue 1978)."""
    return np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], 0))


def offset_regression_loss(pred: OffsetField, scene: Scene) -> float:
    """Mean L1 norm of the offset residual over instance points, summed at
    the ``_scale`` of its largest component."""
    check_offsets(scene, pred)
    mask, targets = _instance_mask_and_targets(scene)
    res = np.abs(pred.offsets[mask] - targets[mask])
    scale = _scale(res.max())
    return float((res * scale).sum(axis=1).mean() / scale)


def offset_regression_grad(pred: OffsetField, scene: Scene) -> np.ndarray:
    """d(offset_regression_loss)/d(offsets), shape (n_points, 3).

    Uses the sign subgradient; exact wherever no residual component is zero.
    """
    check_offsets(scene, pred)
    mask, targets = _instance_mask_and_targets(scene)
    grad = np.zeros((scene.n_points, 3), dtype=np.float64)
    grad[mask] = np.sign(pred.offsets[mask] - targets[mask]) / mask.sum()
    return grad


def _direction_terms(pred: OffsetField, scene: Scene) -> tuple[np.ndarray, ...]:
    """Instance mask, masked offsets o (each row times the ``_scale`` of its
    largest component) and targets t, their norms, the scales, and where both
    unscaled norms reach DIR_EPS."""
    check_offsets(scene, pred)
    mask, targets = _instance_mask_and_targets(scene)
    o = pred.offsets[mask]
    scale = _scale(np.abs(o).max(axis=1))
    o *= scale[:, None]
    t = targets[mask]
    no = np.linalg.norm(o, axis=1)
    nt = np.linalg.norm(t, axis=1)
    return mask, o, t, no, nt, scale, (no >= DIR_EPS * scale) & (nt >= DIR_EPS)


def offset_direction_loss(pred: OffsetField, scene: Scene) -> float:
    """Negative mean cosine between predicted offsets and centroid directions.

    -1 when every offset points straight at its centroid, +1 when opposite.
    Points where either vector is shorter than DIR_EPS contribute 0 (the
    cosine is undefined there), but still count in the mean's denominator.
    """
    mask, o, t, no, nt, _, valid = _direction_terms(pred, scene)
    cos = np.zeros(o.shape[0], dtype=np.float64)
    cos[valid] = (o[valid] * t[valid]).sum(axis=1) / (no[valid] * nt[valid])
    return float(-cos.mean())


def offset_direction_grad(pred: OffsetField, scene: Scene) -> np.ndarray:
    """d(offset_direction_loss)/d(offsets), zero on guarded points."""
    mask, o, t, no, nt, scale, valid = _direction_terms(pred, scene)
    g = np.zeros_like(o)
    ov, tv = o[valid], t[valid]
    nov = no[valid][:, None]
    that = tv / nt[valid][:, None]
    dot = (ov * that).sum(axis=1, keepdims=True)
    g[valid] = -(that / nov - dot * ov / nov**3) / mask.sum() * scale[valid][:, None]
    grad = np.zeros((scene.n_points, 3), dtype=np.float64)
    grad[mask] = g
    return grad


def total_loss(
    l_sem: float, l_offset_reg: float, l_offset_dir: float, l_score: float
) -> LossReport:
    """Unweighted sum of the four training terms."""
    parts = (l_sem, l_offset_reg, l_offset_dir, l_score)
    if not all(np.isfinite(v) for v in parts):
        raise ValueError(f"non-finite loss term in {parts}")
    return LossReport(
        l_sem=float(l_sem),
        l_offset_reg=float(l_offset_reg),
        l_offset_dir=float(l_offset_dir),
        l_score=float(l_score),
        total=float(l_sem + l_offset_reg + l_offset_dir + l_score),
    )


def gradient_check(func, x0: np.ndarray) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``func(x)`` must return ``(value, grad)``; the differences step by
    ``FD_STEP`` on each side.  The relative error of
    component k is |ga - gn| / max(1, |ga|, |gn|); the max over components is
    returned.  Evaluation happens in float64.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    _, grad = func(x0)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != x0.shape:
        raise ValueError("gradient shape does not match parameter shape")
    num = np.empty_like(x0)
    for k in range(x0.size):
        xp = x0.copy()
        xp[k] += FD_STEP
        fp = func(xp)[0]
        xm = x0.copy()
        xm[k] -= FD_STEP
        fm = func(xm)[0]
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite loss evaluation at component {k}")
        num[k] = (fp - fm) / (2.0 * FD_STEP)
    denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(num)))
    return float((np.abs(grad - num) / denom).max())


def offset_objective(scene: Scene, loss, grad):
    """``x -> (loss(field, scene), grad(field, scene).ravel())`` with
    ``field = OffsetField(x.reshape(n_points, 3))``: an offset loss and its
    gradient as the flat-vector objective ``gradient_check`` takes."""

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        field = OffsetField(x.reshape(scene.n_points, 3))
        return loss(field, scene), grad(field, scene).ravel()

    return objective


def distance_histogram(scene: Scene) -> np.ndarray:
    """Normalized histogram of point-to-centroid distances over instance points.

    Regular bins of ``HIST_BIN`` cover [0, HIST_MAX); everything at or
    beyond ``HIST_MAX`` lands in one overflow bin at the end, 21 bins in
    all.  Fractions sum to 1.
    """
    mask, targets = _instance_mask_and_targets(scene)
    d = np.linalg.norm(targets[mask], axis=1)
    n_regular = round(HIST_MAX / HIST_BIN)
    idx = np.minimum((d / HIST_BIN).astype(np.int64), n_regular)
    counts = np.bincount(idx, minlength=n_regular + 1).astype(np.float64)
    return counts / counts.sum()
