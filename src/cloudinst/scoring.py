"""Cluster quality scoring.

Three interchangeable scorers rank candidate clusters for NMS:

* ORACLE  — the best mask IoU against ground truth (cheating upper bound),
* SEMPROB — mean semantic probability of the cluster's class over members,
* MODEL   — a small feedforward net (tanh hidden layer, sigmoid output) over
  handcrafted per-cluster descriptors, trained with soft-label BCE.

Soft score targets come from the best IoU through ``soft_labels``, a
clamped linear ramp between the paper's fixed thresholds ``SOFT_LOW`` and
``SOFT_HIGH``.  They are not stored: ``score_loss`` and
``harvest_training_set`` derive them from the IoUs they are given.

Descriptors come from one pass over all clusters: their member indices are
concatenated once, coordinates and offsets are gathered once, and every
per-cluster statistic is a segment reduction (``reduceat``) over that array.
SEMPROB scoring shares the mean-probability reduction.  The scorer file
format lives in ``formats``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterParams, cluster_dual_set
from .core import (
    Cluster, GroundTruthInstance, OffsetField, Scene, _as_readonly, check_offsets,
    check, check_seed, ground_truth_instances, is_int, refuse,
)
from .losses import GRAD_TOLERANCE, gradient_check
from .trace import span

SCORE_EPS = 1e-7  # clamp inside the BCE
SOFT_LOW = 0.25  # soft-label ramp thresholds theta_l, theta_h of the paper
SOFT_HIGH = 0.75
DESCRIPTOR_DIM = 8


class Scorer(enum.Enum):
    ORACLE = "oracle"
    SEMPROB = "semprob"
    MODEL = "model"


def family_iou(masks: list[np.ndarray], family: list[np.ndarray]) -> np.ndarray:
    """Dense (len(masks), len(family)) IoU matrix of duplicate-free masks
    against a family of disjoint ones.

    The family becomes a per-point owner array, the member holding each
    point or -1; one that owns fewer points than its members' sizes add up
    to overlaps, and is refused with a ValueError.  A ``bincount`` of (mask,
    owner) over the masks' members that have an owner gives the
    intersections.
    """
    sa, sb = (np.array([m.size for m in side], dtype=np.int64) for side in (masks, family))
    pa, pb = (np.concatenate([*side, np.zeros(0, dtype=np.int64)]) for side in (masks, family))
    owner = np.full(max(pa.max(initial=0), pb.max(initial=0)) + 1, -1, dtype=np.int64)
    owner[pb] = np.repeat(np.arange(sb.size), sb)
    if np.count_nonzero(owner >= 0) != pb.size:
        raise ValueError("the members of a disjoint family overlap")
    held = owner[pa]
    hit = held >= 0
    pair = np.repeat(np.arange(sa.size) * sb.size, sa)[hit] + held[hit]
    inter = np.bincount(pair, minlength=sa.size * sb.size).reshape(sa.size, sb.size)
    inter = inter.astype(np.float64)
    return inter / (sa[:, None] + sb[None, :] - inter)


def best_ious(clusters: list[Cluster], gt: list[GroundTruthInstance]) -> np.ndarray:
    """Largest IoU of each cluster against any ground-truth instance.

    The max runs over every instance regardless of class; the instances
    must be disjoint, as those of a scene are (``family_iou``).
    """
    if not gt:
        raise ValueError("no ground-truth instances")
    return family_iou([c.point_idx for c in clusters], [g.point_idx for g in gt]).max(axis=1)


def soft_labels(ious: np.ndarray) -> np.ndarray:
    """Score targets from IoUs: 0 below ``SOFT_LOW``, 1 above ``SOFT_HIGH``,
    linear between.  An IoU outside [0, 1], NaN included, raises."""
    ious = np.asarray(ious, dtype=np.float64)
    if not ((ious >= 0.0) & (ious <= 1.0)).all():
        raise ValueError("IoU outside [0, 1]")
    return np.clip((ious - SOFT_LOW) / (SOFT_HIGH - SOFT_LOW), 0.0, 1.0)


def score_loss(pred_scores: np.ndarray, ious: np.ndarray) -> float:
    """Mean binary cross entropy between predicted scores and the soft labels
    of the clusters' IoUs (``soft_labels``)."""
    s = np.asarray(pred_scores, dtype=np.float64)
    t = soft_labels(ious)
    if s.shape != t.shape:
        raise ValueError("score/target length mismatch")
    if s.size == 0:
        raise ValueError("no clusters to score")
    return _bce(s, t)


def _bce(s: np.ndarray, t: np.ndarray) -> float:
    """Mean BCE of scores ``s``, clipped by SCORE_EPS, against targets ``t``."""
    s = np.clip(s, SCORE_EPS, 1.0 - SCORE_EPS)
    return float(-(t * np.log(s) + (1.0 - t) * np.log(1.0 - s)).mean())


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T``, each row's products summed in index order: a row's
    result does not depend on the rows beside it, as ``@``'s may, whose
    BLAS path changes with the row count (Demmel and Nguyen 2013)."""
    terms = x.T[:, :, None] * w.T[:, None, :]  # term k: x[:, k] times w[:, k]
    out = terms[0]
    for term in terms[1:]:
        out += term
    return out


def _forward(x_norm: np.ndarray, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """Hidden layer and scores sigmoid(w2 . tanh(W1 x + b1) + b2) of
    normalized ``x_norm``, each row's bits independent of its batch."""
    h = np.tanh(_rowwise_matmul(x_norm, w1) + b1)
    return h, 1.0 / (1.0 + np.exp(-(_rowwise_matmul(h, w2[None])[:, 0] + b2)))


def _members(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All member indices end to end, with each cluster's size and start."""
    sizes = np.array([c.point_idx.size for c in clusters], dtype=np.int64)
    idx = np.concatenate([*(c.point_idx for c in clusters), np.zeros(0, dtype=np.int64)])
    return idx, sizes, np.cumsum(sizes) - sizes


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
    Every entry is translation-invariant in exact arithmetic, and bit-exact
    under a translation that moves every point exactly: the shifted-space
    centroid is taken relative to the cluster's first member, so it does not
    round at the coordinates' size.  Offsets are read within the float32
    range, in which clustering reads coordinates, so no sum or square overflows.
    """
    check_offsets(scene, offsets)
    idx, sizes, starts = _members(clusters)
    out = np.empty((len(clusters), DESCRIPTOR_DIM), dtype=np.float64)
    out[:, 0] = np.log(sizes)
    p = scene.coords[idx].astype(np.float64)
    out[:, 1:4] = np.maximum.reduceat(p, starts) - np.minimum.reduceat(p, starts)
    # one (m, 3) array at a time, worked in place: q = p + offset, taken
    # relative to the cluster's first member, its difference from the
    # centroid, and that squared, in one layout, so every sum keeps its order
    q = offsets.offsets[idx]
    limit = np.finfo(np.float32).max  # a point shifted beyond it joins no Q cluster
    np.clip(q, -limit, limit, out=q)
    q += p
    del p
    q -= np.repeat(q[starts], sizes, axis=0)
    q -= np.repeat(np.add.reduceat(q, starts) / sizes[:, None], sizes, axis=0)
    q *= q
    dq = np.sqrt(q.sum(axis=1))
    out[:, 4] = np.add.reduceat(dq, starts) / sizes
    dq -= np.repeat(out[:, 4], sizes)  # the spread about the mean distance
    dq *= dq
    out[:, 5] = np.sqrt(np.add.reduceat(dq, starts) / sizes)
    out[:, 6] = 1.0
    if scene.sem_scores is not None:
        out[:, 6] = _mean_class_prob(clusters, scene.sem_scores, idx, sizes, starts)
    out[:, 7] = [float(c.source.value) for c in clusters]
    return out


def _check_dims(d: int, h: int) -> None:
    check("hidden", h, is_int, "an integer")
    if d < 1 or h < 1:
        raise ValueError(f"scorer model dimensions must be >= 1, got {d}x{h}")


def row_widths(dim: int, hidden: int) -> list[int]:
    """Widths of the rows of ``ScorerModel._rows``, in file order."""
    return [dim, dim] + [dim] * hidden + [hidden, hidden, 1]


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
        """Refuses the first non-finite row of ``_rows``, then the std row."""
        for name in ("mean", "std", "w1", "b1", "w2"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name), np.float64))
        object.__setattr__(self, "b2", float(self.b2))
        d, h = self.mean.size, self.b1.size
        _check_dims(d, h)
        if self.std.shape != (d,) or self.w1.shape != (h, d) or self.w2.shape != (h,):
            raise ValueError("inconsistent scorer model shapes")
        finite = [np.isfinite(row).all() for row in self._rows()]
        refuse(~np.array(finite), "non-finite scorer model weights")
        refuse(np.array([False, np.any(self.std < 1e-8)]), "normalization stdev entries must be >= 1e-8")

    def _rows(self) -> list[np.ndarray]:
        """The model as rows in file order, of ``row_widths`` values each."""
        return [self.mean, self.std, *self.w1, self.b1, self.w2, np.array([self.b2])]

    @classmethod
    def _from_rows(cls, rows) -> "ScorerModel":
        """The model whose ``_rows`` are ``rows``."""
        mean, std, *w1, b1, w2, (b2,) = rows
        return cls(mean, std, w1, b1, w2, b2)

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
        check_seed("seed", seed, nonnegative=True)
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
        """Sigmoid network output for raw (unnormalized) descriptors; each
        normalized input is clipped to +-1e6, where tanh has long saturated,
        so a model whose mean and stdev overflow an input still scores."""
        with np.errstate(over="ignore"):
            x = (np.asarray(descriptors, dtype=np.float64) - self.mean) / self.std
        return _forward(np.clip(x, -1e6, 1e6), self.w1, self.b1, self.w2, self.b2)[1]


def check_scorer_inputs(scorer: Scorer, scene: Scene, model: ScorerModel | None = None) -> None:
    """ValueError unless ``scorer`` has what it reads: ORACLE the scene's
    ground-truth instances, SEMPROB its ``sem_scores``, MODEL a model that
    takes ``DESCRIPTOR_DIM``-dim descriptors."""
    scorer = Scorer(scorer)
    if scorer is Scorer.ORACLE and not scene.n_instances:
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
) -> np.ndarray:
    """Score each cluster in [0, 1] with the selected scorer; ORACLE scores
    against the scene's own instances.  Runs in the span ``scoring``."""
    return _scorer(scene, offsets, scorer, model)(clusters)


def _scorer(scene: Scene, offsets: OffsetField, scorer: Scorer, model: ScorerModel | None = None):
    """``score_clusters`` on ``scene`` as a function of the clusters alone,
    called once or per batch; it checks the scorer's inputs and reads
    ORACLE's instances here, once.  Each score reads only its own cluster's
    members, so the clusters may come in any batches.  Both this call and
    each call of what it returns run in the span ``scoring``."""
    scorer = Scorer(scorer)
    with span("scoring"):
        check_scorer_inputs(scorer, scene, model)
        gt = ground_truth_instances(scene) if scorer is Scorer.ORACLE else None

    def scored(clusters) -> np.ndarray:
        with span("scoring"):
            if scorer is Scorer.ORACLE:
                return best_ious(clusters, gt)
            if scorer is Scorer.SEMPROB:
                return _mean_class_prob(clusters, scene.sem_scores, *_members(clusters))
            return model.scores(cluster_descriptors(clusters, scene, offsets))

    return scored


def _unpack_params(theta: np.ndarray, dim: int):
    """w1, b1, w2 and b2 from ``theta``, a model's rows after mean and std end
    to end; ValueError for a size that fits no model of ``dim``-dim descriptors."""
    hidden, extra = divmod(theta.size - 1, dim + 2)
    if hidden < 1 or extra:
        raise ValueError(f"{theta.size} parameters fit no scorer model of {dim}-dim descriptors")
    w1 = theta[: hidden * dim].reshape(hidden, dim)
    b1, w2 = theta[hidden * dim : -1].reshape(2, hidden)
    return w1, b1, w2, theta[-1]


def scorer_objective(
    theta: np.ndarray, x_norm: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Soft-label BCE over normalized descriptors, with its analytic gradient.

    Standard backprop through the network of ``_forward``; the
    BCE-through-sigmoid derivative collapses to (score - target).
    """
    w1, b1, w2, b2 = _unpack_params(theta, x_norm.shape[1])
    h, s = _forward(x_norm, w1, b1, w2, b2)
    loss = _bce(s, targets)
    dz = (s - targets) / x_norm.shape[0]
    gw2 = h.T @ dz
    gb2 = dz.sum()
    dh = dz[:, None] * w2[None, :] * (1.0 - h * h)
    gw1 = dh.T @ x_norm
    gb1 = dh.sum(axis=0)
    return loss, np.concatenate([*gw1, gb1, gw2, [gb2]])


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
    A ``hidden``, ``epochs`` or ``seed`` that is not an integer, ``hidden``
    below 1, ``epochs`` or ``seed`` below 0 and an ``lr`` that is not a
    positive finite number raise before any clustering.
    """
    _check_dims(DESCRIPTOR_DIM, hidden)
    check("epochs", epochs, is_int, "an integer")
    check("epochs", epochs, lambda n: n >= 0, ">= 0")
    check_seed("seed", seed, nonnegative=True)
    check("lr", lr, lambda x: x > 0, "a positive finite number")
    x, y = harvest_training_set(corpus, cluster_params)
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-8)
    x_norm = (x - mean) / std
    start = ScorerModel.default(hidden, seed)
    theta = np.concatenate(start._rows()[2:])

    check_n = min(x_norm.shape[0], 64)
    grad_error = gradient_check(
        lambda t: scorer_objective(t, x_norm[:check_n], y[:check_n]), theta
    )
    if grad_error > GRAD_TOLERANCE:
        raise ValueError(
            f"scorer gradient check failed: {grad_error:.3e} > {GRAD_TOLERANCE:.0e}"
        )

    initial_loss, _ = scorer_objective(theta, x_norm, y)
    loss = initial_loss
    for _ in range(epochs):
        loss, grad = scorer_objective(theta, x_norm, y)
        if not np.isfinite(loss):
            raise ValueError("training diverged to a non-finite loss")
        theta = theta - lr * grad
    loss, _ = scorer_objective(theta, x_norm, y)
    model = ScorerModel(mean, std, *_unpack_params(theta, DESCRIPTOR_DIM))
    return ScorerTraining(
        model=model,
        initial_loss=float(initial_loss),
        final_loss=float(loss),
        grad_error=float(grad_error),
        n_clusters=int(x.shape[0]),
    )
