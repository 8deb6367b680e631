"""cloudinst: instance segmentation for labeled 3D point clouds.

Clusters points by semantic label and spatial proximity in both the original
coordinates and centroid-shifted ones, scores the pooled candidates, removes
duplicates with NMS, and evaluates the result with average precision.
"""

from .bench import BenchResult, run_bench
from .clustering import (
    ClusterParams,
    cluster_dual_set,
    cluster_single_set,
    connected_components_oracle,
)
from .core import (
    Cluster,
    FormatError,
    GroundTruthInstance,
    InstancePrediction,
    OffsetField,
    Scene,
    SceneError,
    Source,
    ground_truth_instances,
    scenes_equal,
    shifted_coords,
)
from .evaluation import EvalResult, average_precision, evaluate, match_and_pr
from .formats import (
    export_ply,
    load_offsets,
    load_predictions,
    load_scene,
    load_scorer,
    save_offsets,
    save_predictions,
    save_scene,
    save_scorer,
)
from .losses import (
    LossReport,
    distance_histogram,
    gradient_check,
    instance_centroids,
    offset_direction_grad,
    offset_direction_loss,
    offset_regression_grad,
    offset_regression_loss,
    offset_targets,
    semantic_loss,
    total_loss,
)
from .pipeline import PipelineConfig, nms, run_pipeline
from .scoring import (
    Scorer,
    ScorerModel,
    ScorerTraining,
    score_clusters,
    score_loss,
    train_scorer,
)
from .spatial import GridIndex, ball_query, brute_force_query, build_index
from .synth import GenConfig, generate_sample, generate_scene, perturb_offsets, perturb_semantics

__version__ = "0.1.0"
