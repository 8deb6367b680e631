"""The public API, pinned: adding, removing or renaming a parameter or a
dataclass field of anything ``cloudinst`` exports shows up as a diff here."""

import dataclasses
import enum
import inspect
import types

import cloudinst

# callables: their signature; dataclasses: their field names; enums: their
# members; None: a constructor inherited from a builtin (an exception)
EXPECTED = {
    "average_precision": "(precision: 'np.ndarray', recall: 'np.ndarray') -> 'float'",
    "ball_query": "(index: 'GridIndex', center_idx: 'int') -> 'np.ndarray'",
    "BenchResult": ("stage_ms", "total_ms", "repeats", "n_points", "n_predictions"),
    "brute_force_query": (
        "(coords: 'np.ndarray', center_idx: 'int', radius: 'float') -> 'np.ndarray'"
    ),
    "build_index": "(coords: 'np.ndarray', radius: 'float') -> 'GridIndex'",
    "Cluster": ("point_idx", "class_id", "source"),
    "cluster_dual_set": (
        "(scene: 'Scene', offsets: 'OffsetField', params: 'ClusterParams', "
        "sources=(<Source.ORIGINAL: 0>, <Source.SHIFTED: 1>)) -> 'list[Cluster]'"
    ),
    "cluster_single_set": (
        "(coords: 'np.ndarray', sem_labels: 'np.ndarray', stuff_classes, "
        "params: 'ClusterParams', source: 'Source') -> 'list[Cluster]'"
    ),
    "ClusterParams": ("radius", "min_points"),
    "connected_components_oracle": (
        "(coords: 'np.ndarray', sem_labels: 'np.ndarray', stuff_classes, "
        "params: 'ClusterParams', source: 'Source' = <Source.ORIGINAL: 0>) -> 'list[Cluster]'"
    ),
    "distance_histogram": "(scene: 'Scene') -> 'np.ndarray'",
    "EvalResult": (
        "classes", "thresholds", "ap", "ap_classwise", "prec50_classwise", "rec50_classwise",
        "map", "ap50", "ap25", "mprec50", "mrec50", "matches50",
    ),
    "evaluate": (
        "(preds: 'list[InstancePrediction]', scene: 'Scene', "
        "score_filter: 'float' = 0.2) -> 'EvalResult'"
    ),
    "export_ply": "(scene: 'Scene', preds: 'list[InstancePrediction]', path) -> 'None'",
    "FormatError": None,
    "GenConfig": (
        "seed", "room", "n_objects", "density", "stuff_density", "min_gap", "same_class_gap",
        "size_scale", "min_object_points", "density_dip", "dip_fraction", "p_sem",
        "sem_temperature", "sigma0", "beta",
    ),
    "generate_sample": "(config: 'GenConfig') -> 'tuple[Scene, Scene, OffsetField]'",
    "generate_scene": "(config: 'GenConfig') -> 'tuple[Scene, OffsetField]'",
    "gradient_check": "(func, x0: 'np.ndarray') -> 'float'",
    "GridIndex": "(coords: 'np.ndarray', radius: 'float', labels: 'np.ndarray | None' = None)",
    "ground_truth_instances": "(scene: 'Scene') -> 'list[GroundTruthInstance]'",
    "GroundTruthInstance": ("point_idx", "class_id"),
    "instance_centroids": "(scene: 'Scene') -> 'np.ndarray'",
    "InstancePrediction": ("point_idx", "class_id", "score"),
    "load_offsets": "(path) -> 'OffsetField'",
    "load_predictions": "(path) -> 'list[InstancePrediction]'",
    "load_scene": "(path) -> 'Scene'",
    "load_scorer": "(path) -> 'ScorerModel'",
    "LossReport": ("l_sem", "l_offset_reg", "l_offset_dir", "l_score", "total"),
    "match_and_pr": (
        "(preds: 'list[InstancePrediction]', gt: 'list[GroundTruthInstance]', class_id: 'int', "
        "iou_thresh: 'float') -> 'MatchResult'"
    ),
    "nms": "(clusters: 'list[Cluster]', scores: 'np.ndarray', iou_thresh: 'float') -> 'list[int]'",
    "offset_direction_grad": "(pred: 'OffsetField', scene: 'Scene') -> 'np.ndarray'",
    "offset_direction_loss": "(pred: 'OffsetField', scene: 'Scene') -> 'float'",
    "offset_regression_grad": "(pred: 'OffsetField', scene: 'Scene') -> 'np.ndarray'",
    "offset_regression_loss": "(pred: 'OffsetField', scene: 'Scene') -> 'float'",
    "offset_targets": "(scene: 'Scene') -> 'OffsetField'",
    "OffsetField": ("offsets",),
    "perturb_offsets": (
        "(offsets: 'OffsetField', scene: 'Scene', sigma0: 'float', beta: 'float', "
        "seed: 'int') -> 'OffsetField'"
    ),
    "perturb_semantics": (
        "(scene: 'Scene', p_sem: 'float', temperature: 'float', seed: 'int') -> 'Scene'"
    ),
    "PipelineConfig": ("cluster_params", "scorer", "nms_iou", "min_score", "cluster_sets"),
    "run_bench": (
        "(scene: 'Scene', offsets: 'OffsetField', config: 'PipelineConfig', "
        "model: 'ScorerModel | None' = None, repeats: 'int' = 3) -> 'BenchResult'"
    ),
    "run_pipeline": (
        "(scene: 'Scene', offsets: 'OffsetField', config: 'PipelineConfig', "
        "model: 'ScorerModel | None' = None) -> 'list[InstancePrediction]'"
    ),
    "save_offsets": "(offsets: 'OffsetField', path) -> 'None'",
    "save_predictions": "(preds: 'list[InstancePrediction]', path) -> 'None'",
    "save_scene": "(scene: 'Scene', path) -> 'None'",
    "save_scorer": "(model: 'ScorerModel', path) -> 'None'",
    "Scene": (
        "n_classes", "coords", "colors", "sem_labels", "inst_ids", "stuff_classes", "sem_scores",
    ),
    "SceneError": "(message: 'str', point_index: 'int | None' = None)",
    "scenes_equal": "(a: 'Scene', b: 'Scene') -> 'bool'",
    "score_clusters": (
        "(clusters: 'list[Cluster]', scene: 'Scene', offsets: 'OffsetField', scorer: 'Scorer', "
        "model: 'ScorerModel | None' = None) -> 'np.ndarray'"
    ),
    "score_loss": "(pred_scores: 'np.ndarray', ious: 'np.ndarray') -> 'float'",
    "Scorer": ("ORACLE", "SEMPROB", "MODEL"),
    "ScorerModel": ("mean", "std", "w1", "b1", "w2", "b2"),
    "ScorerTraining": ("model", "initial_loss", "final_loss", "grad_error", "n_clusters"),
    "semantic_loss": "(sem_scores: 'np.ndarray', gt_labels: 'np.ndarray') -> 'float'",
    "shifted_coords": "(scene: 'Scene', offsets: 'OffsetField') -> 'np.ndarray'",
    "Source": ("ORIGINAL", "SHIFTED"),
    "total_loss": (
        "(l_sem: 'float', l_offset_reg: 'float', l_offset_dir: 'float', "
        "l_score: 'float') -> 'LossReport'"
    ),
    "train_scorer": (
        "(corpus, hidden: 'int' = 16, lr: 'float' = 0.5, epochs: 'int' = 400, seed: 'int' = 0, "
        "cluster_params=None) -> 'ScorerTraining'"
    ),
}


def _shape(obj):
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return tuple(obj.__members__)
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return None


def test_public_signatures_are_pinned():
    public = {
        name: obj
        for name, obj in vars(cloudinst).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(public) == sorted(EXPECTED)
    for name, obj in public.items():
        assert _shape(obj) == EXPECTED[name], name
