"""Cluster quality scoring.

Three interchangeable scorers rank candidate clusters for NMS:

* ORACLE  — the best mask IoU against ground truth (cheating upper bound),
* SEMPROB — mean semantic probability of the cluster's class over members,
* MODEL   — a small feedforward net (tanh hidden layer, sigmoid output) over
  handcrafted per-cluster descriptors, trained with soft-label BCE.

Soft score targets come from the best IoU through a clamped linear ramp
between the paper's fixed thresholds ``SOFT_LOW`` and ``SOFT_HIGH``.

Descriptors come from one pass over all clusters: their member indices are
concatenated once, coordinates and offsets are gathered once, and every
per-cluster statistic is a segment reduction (``reduceat``) over that array.
SEMPROB scoring shares the mean-probability reduction.  The scorer file
format lives in ``formats``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterParams, cluster_dual_set
from .core import Cluster, GroundTruthInstance, OffsetField, Scene, check_offsets, ground_truth_instances
from .losses import gradient_check
from .spatial import expand_ranges

SCORE_EPS = 1e-7  # clamp inside the BCE
GRAD_TOLERANCE = 1e-5  # train_scorer's check of its analytic gradient
SOFT_LOW = 0.25  # soft-label ramp thresholds theta_l, theta_h of the paper
SOFT_HIGH = 0.75
DESCRIPTOR_DIM = 8


class Scorer(enum.Enum):
    ORACLE = "oracle"
    SEMPROB = "semprob"
    MODEL = "model"


def pairwise_iou(masks_a: list[np.ndarray], masks_b: list[np.ndarray]) -> np.ndarray:
    """Dense (len_a, len_b) IoU matrix of duplicate-free masks.

    Each point shared by mask i of A and mask j of B adds one to their
    intersection: B's entries are sorted by point, a count per point id
    gives the range of B's entries on each point of A, and ``bincount``
    sums the (i, j) pairs of those ranges.
    """
    sa = np.array([m.size for m in masks_a], dtype=np.int64)
    sb = np.array([m.size for m in masks_b], dtype=np.int64)
    if not sa.size or not sb.size:
        return np.zeros((sa.size, sb.size), dtype=np.float64)
    pa = np.concatenate(masks_a)
    pb = np.concatenate(masks_b)
    owner_b = np.repeat(np.arange(sb.size), sb)[np.argsort(pb, kind="stable")]
    per_point = np.bincount(pb, minlength=pa.max(initial=0) + 1)
    count = per_point[pa]
    item, pos = expand_ranges(np.cumsum(per_point)[pa] - count, count)
    pair = np.repeat(np.arange(sa.size) * sb.size, sa)[item] + owner_b[pos]
    inter = np.bincount(pair, minlength=sa.size * sb.size).reshape(sa.size, sb.size)
    inter = inter.astype(np.float64)
    union = sa[:, None] + sb[None, :] - inter
    return inter / union


def best_ious(clusters: list[Cluster], gt: list[GroundTruthInstance]) -> np.ndarray:
    """Largest IoU of each cluster against any ground-truth instance.

    The max runs over every instance regardless of class.
    """
    if not gt:
        raise ValueError("no ground-truth instances")
    if not clusters:
        return np.zeros(0, dtype=np.float64)
    return pairwise_iou([c.point_idx for c in clusters], [g.point_idx for g in gt]).max(axis=1)


def soft_labels(ious: np.ndarray) -> np.ndarray:
    """Score targets from IoUs: 0 below ``SOFT_LOW``, 1 above ``SOFT_HIGH``,
    linear between."""
    ious = np.asarray(ious, dtype=np.float64)
    if ious.size and (ious.min() < 0.0 or ious.max() > 1.0):
        raise ValueError("IoU outside [0, 1]")
    return np.clip((ious - SOFT_LOW) / (SOFT_HIGH - SOFT_LOW), 0.0, 1.0)


@dataclass(frozen=True)
class ScoreTargets:
    """Per-cluster best IoU plus the soft score labels ``soft_labels``
    derives from it; an IoU outside [0, 1] raises."""

    iou: np.ndarray
    soft: np.ndarray = field(init=False)

    def __post_init__(self):
        iou_arr = np.asarray(self.iou, dtype=np.float64)
        object.__setattr__(self, "soft", soft_labels(iou_arr))
        object.__setattr__(self, "iou", iou_arr)

    @classmethod
    def from_ious(cls, ious: np.ndarray) -> "ScoreTargets":
        return cls(iou=ious)


def score_loss(pred_scores: np.ndarray, targets: ScoreTargets) -> float:
    """Mean binary cross entropy between predicted scores and soft labels."""
    s = np.asarray(pred_scores, dtype=np.float64)
    t = targets.soft
    if s.shape != t.shape:
        raise ValueError("score/target length mismatch")
    if s.size == 0:
        raise ValueError("no clusters to score")
    return _bce(s, t)


def _bce(s: np.ndarray, t: np.ndarray) -> float:
    """Mean BCE of scores ``s``, clipped by SCORE_EPS, against targets ``t``."""
    s = np.clip(s, SCORE_EPS, 1.0 - SCORE_EPS)
    return float(-(t * np.log(s) + (1.0 - t) * np.log(1.0 - s)).mean())


def _forward(x_norm: np.ndarray, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """Hidden layer and scores sigmoid(w2 . tanh(W1 x + b1) + b2) of normalized ``x_norm``."""
    h = np.tanh(x_norm @ w1.T + b1)
    return h, 1.0 / (1.0 + np.exp(-(h @ w2 + b2)))


def _members(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All member indices end to end, with each cluster's size and start."""
    sizes = np.array([c.point_idx.size for c in clusters], dtype=np.int64)
    return np.concatenate([c.point_idx for c in clusters]), sizes, np.cumsum(sizes) - sizes


def _mean_class_prob(clusters, sem_scores, idx, sizes, starts) -> np.ndarray:
    """Mean semantic probability of each cluster's class over its members."""
    cls = np.repeat(np.array([c.class_id for c in clusters], dtype=np.int64), sizes)
    return np.add.reduceat(sem_scores[idx, cls].astype(np.float64), starts) / sizes


def cluster_descriptors(
    clusters: list[Cluster], scene: Scene, offsets: OffsetField
) -> np.ndarray:
    """Handcrafted 8-dim descriptor of each cluster, one row per cluster.

    [log point count, bbox extent x/y/z in original space, mean and stdev of
    member distance to the cluster's shifted-space centroid, mean semantic
    probability of the cluster's class (1.0 when scores are absent), source
    flag].  Shifted-space compactness is the informative part: a cluster that
    merges two objects shows a bimodal shifted cloud and a large spread.
    Every entry is invariant under global translation of the scene.
    """
    check_offsets(scene, offsets)
    if not clusters:
        return np.zeros((0, DESCRIPTOR_DIM), dtype=np.float64)
    idx, sizes, starts = _members(clusters)
    p = scene.coords[idx].astype(np.float64)
    q = p + offsets.offsets[idx]
    out = np.empty((len(clusters), DESCRIPTOR_DIM), dtype=np.float64)
    out[:, 0] = np.log(sizes)
    out[:, 1:4] = np.maximum.reduceat(p, starts) - np.minimum.reduceat(p, starts)
    centroid = np.add.reduceat(q, starts) / sizes[:, None]
    diff = q - np.repeat(centroid, sizes, axis=0)
    dq = np.sqrt((diff * diff).sum(axis=1))
    out[:, 4] = np.add.reduceat(dq, starts) / sizes
    spread = dq - np.repeat(out[:, 4], sizes)
    out[:, 5] = np.sqrt(np.add.reduceat(spread * spread, starts) / sizes)
    out[:, 6] = 1.0
    if scene.sem_scores is not None:
        out[:, 6] = _mean_class_prob(clusters, scene.sem_scores, idx, sizes, starts)
    out[:, 7] = [float(c.source.value) for c in clusters]
    return out


def _check_dims(d: int, h: int) -> None:
    if d < 1 or h < 1:
        raise ValueError(f"scorer model dimensions must be >= 1, got {d}x{h}")


@dataclass(frozen=True)
class ScorerModel:
    """Descriptor normalization plus one tanh hidden layer and a sigmoid output."""

    mean: np.ndarray
    std: np.ndarray
    w1: np.ndarray  # (hidden, DESCRIPTOR_DIM)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        d = mean.size
        h = b1.size
        _check_dims(d, h)
        if std.shape != (d,) or w1.shape != (h, d) or w2.shape != (h,):
            raise ValueError("inconsistent scorer model shapes")
        for arr in (mean, std, w1, b1, w2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite scorer model weights")
        if not np.isfinite(self.b2):
            raise ValueError("non-finite scorer model weights")
        if np.any(std < 1e-8):
            raise ValueError("normalization stdev entries must be >= 1e-8")
        for arr in (mean, std, w1, b1, w2):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", float(self.b2))

    @property
    def descriptor_dim(self) -> int:
        return self.mean.size

    @property
    def hidden(self) -> int:
        return self.b1.size

    @classmethod
    def default(cls, hidden: int = 16, seed: int = 0) -> "ScorerModel":
        """Untrained model with identity normalization and small seeded weights."""
        d = DESCRIPTOR_DIM
        _check_dims(d, hidden)
        rng = np.random.default_rng(seed)
        return cls(
            mean=np.zeros(d),
            std=np.ones(d),
            w1=rng.uniform(-0.5, 0.5, (hidden, d)),
            b1=np.zeros(hidden),
            w2=rng.uniform(-0.5, 0.5, hidden),
            b2=0.0,
        )

    def scores(self, descriptors: np.ndarray) -> np.ndarray:
        """Sigmoid network output for raw (unnormalized) descriptors."""
        x = (np.asarray(descriptors, dtype=np.float64) - self.mean) / self.std
        return _forward(x, self.w1, self.b1, self.w2, self.b2)[1]


def check_scorer_inputs(
    scorer: Scorer,
    scene: Scene,
    model: ScorerModel | None = None,
    gt: list[GroundTruthInstance] | None = None,
) -> None:
    """ValueError unless ``scorer`` has what it reads: ORACLE ground-truth
    instances, SEMPROB the scene's ``sem_scores``, MODEL a model that takes
    ``DESCRIPTOR_DIM``-dim descriptors."""
    scorer = Scorer(scorer)
    if scorer is Scorer.ORACLE and not gt:
        raise ValueError("oracle scoring needs ground-truth instances")
    if scorer is Scorer.SEMPROB and scene.sem_scores is None:
        raise ValueError("semprob scoring needs a scene with sem_scores")
    if scorer is Scorer.MODEL and model is None:
        raise ValueError("model scoring needs a trained ScorerModel")
    if scorer is Scorer.MODEL and model.descriptor_dim != DESCRIPTOR_DIM:
        raise ValueError(
            f"scorer model takes {model.descriptor_dim}-dim descriptors, "
            f"clusters have {DESCRIPTOR_DIM}-dim descriptors"
        )


def score_clusters(
    clusters: list[Cluster],
    scene: Scene,
    offsets: OffsetField,
    scorer: Scorer,
    model: ScorerModel | None = None,
    gt: list[GroundTruthInstance] | None = None,
) -> np.ndarray:
    """Score each cluster in [0, 1] with the selected scorer."""
    scorer = Scorer(scorer)
    check_scorer_inputs(scorer, scene, model, gt)
    if not clusters:
        return np.zeros(0, dtype=np.float64)
    if scorer is Scorer.ORACLE:
        return best_ious(clusters, gt)
    if scorer is Scorer.SEMPROB:
        return _mean_class_prob(clusters, scene.sem_scores, *_members(clusters))
    return model.scores(cluster_descriptors(clusters, scene, offsets))


def _pack_params(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([w1.ravel(), b1, w2, [b2]])


def _unpack_params(theta: np.ndarray, hidden: int, dim: int):
    w1 = theta[: hidden * dim].reshape(hidden, dim)
    b1 = theta[hidden * dim : hidden * dim + hidden]
    w2 = theta[hidden * dim + hidden : hidden * dim + 2 * hidden]
    b2 = theta[-1]
    return w1, b1, w2, b2


def scorer_objective(
    theta: np.ndarray, x_norm: np.ndarray, targets: np.ndarray, hidden: int
) -> tuple[float, np.ndarray]:
    """Soft-label BCE over normalized descriptors, with its analytic gradient.

    Standard backprop through the network of ``_forward``; the
    BCE-through-sigmoid derivative collapses to (score - target).
    """
    w1, b1, w2, b2 = _unpack_params(theta, hidden, x_norm.shape[1])
    h, s = _forward(x_norm, w1, b1, w2, b2)
    loss = _bce(s, targets)
    dz = (s - targets) / x_norm.shape[0]
    gw2 = h.T @ dz
    gb2 = dz.sum()
    dh = dz[:, None] * w2[None, :] * (1.0 - h * h)
    gw1 = dh.T @ x_norm
    gb1 = dh.sum(axis=0)
    return loss, _pack_params(gw1, gb1, gw2, gb2)


@dataclass(frozen=True)
class ScorerTraining:
    """Result of train_scorer: the model plus loss bookkeeping."""

    model: ScorerModel
    initial_loss: float
    final_loss: float
    grad_error: float
    n_clusters: int


def harvest_training_set(corpus, cluster_params=None) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors and soft labels from dual-set clustering of a corpus.

    ``corpus`` is an iterable of (scene, offsets) pairs; scenes must carry
    ground-truth instances.
    """
    if cluster_params is None:
        cluster_params = ClusterParams()
    xs = []
    ys = []
    for scene, offsets in corpus:
        clusters = cluster_dual_set(scene, offsets, cluster_params)
        if not clusters:
            continue
        gt = ground_truth_instances(scene)
        if not gt:
            raise ValueError("training scene has no ground-truth instances")
        xs.append(cluster_descriptors(clusters, scene, offsets))
        ys.append(soft_labels(best_ious(clusters, gt)))
    if not xs:
        raise ValueError("corpus produced no clusters to train on")
    return np.concatenate(xs), np.concatenate(ys)


def train_scorer(
    corpus,
    hidden: int = 16,
    lr: float = 0.5,
    epochs: int = 400,
    seed: int = 0,
    cluster_params=None,
) -> ScorerTraining:
    """Full-batch gradient descent on the soft-label BCE, from the weights of
    ``ScorerModel.default(hidden, seed)``.  Labels follow the fixed
    ``SOFT_LOW``/``SOFT_HIGH`` ramp of ``soft_labels``.

    Deterministic given the seed.  The analytic gradient is verified against
    central differences at the initial weights before any step is taken.
    """
    x, y = harvest_training_set(corpus, cluster_params)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-8)
    x_norm = (x - mean) / std
    start = ScorerModel.default(hidden, seed)
    theta = _pack_params(start.w1, start.b1, start.w2, start.b2)

    check_n = min(x_norm.shape[0], 64)
    grad_error = gradient_check(
        lambda t: scorer_objective(t, x_norm[:check_n], y[:check_n], hidden), theta
    )
    if grad_error > GRAD_TOLERANCE:
        raise ValueError(
            f"scorer gradient check failed: {grad_error:.3e} > {GRAD_TOLERANCE:.0e}"
        )

    initial_loss, _ = scorer_objective(theta, x_norm, y, hidden)
    loss = initial_loss
    for _ in range(epochs):
        loss, grad = scorer_objective(theta, x_norm, y, hidden)
        if not np.isfinite(loss):
            raise ValueError("training diverged to a non-finite loss")
        theta = theta - lr * grad
    loss, _ = scorer_objective(theta, x_norm, y, hidden)
    w1, b1, w2, b2 = _unpack_params(theta, hidden, DESCRIPTOR_DIM)
    model = ScorerModel(mean=mean, std=std, w1=w1, b1=b1, w2=w2, b2=float(b2))
    return ScorerTraining(
        model=model,
        initial_loss=float(initial_loss),
        final_loss=float(loss),
        grad_error=float(grad_error),
        n_clusters=int(x.shape[0]),
    )
