import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloudinst.core import (
    Cluster,
    FormatError,
    GroundTruthInstance,
    InstancePrediction,
    OffsetField,
    Scene,
    SceneError,
    Source,
    argmax_labels,
    check_offsets,
    ground_truth_instances,
    int32_ids,
    never_clustered,
    scenes_equal,
    shifted_coords,
)

import cloudinst
from cloudinst.bench import run_bench
from cloudinst.clustering import ClusterParams, cluster_single_set
from cloudinst.evaluation import evaluate
from cloudinst.formats import load_offsets, load_scene, save_offsets, save_scene
from cloudinst.pipeline import PipelineConfig, nms
from cloudinst.scoring import ScorerModel, train_scorer
from cloudinst.spatial import GridIndex
from cloudinst.synth import GenConfig, generate_scene, perturb_offsets, perturb_semantics

from conftest import make_scene


def test_valid_scene_roundtrips_fields(simple_scene):
    assert simple_scene.n_points == 7
    assert simple_scene.n_instances == 2
    assert simple_scene.coords.dtype == np.float32
    assert simple_scene.stuff_classes == {0}


def test_instance_on_stuff_class_rejected():
    with pytest.raises(SceneError, match="stuff-class label"):
        make_scene([[0, 0, 0]], [0], [0])


def test_instance_unlabeled_rejected():
    with pytest.raises(SceneError, match="unlabeled"):
        make_scene([[0, 0, 0]], [-1], [0], sem_scores=None)


def test_instance_label_inconsistency_rejected():
    with pytest.raises(SceneError, match="instance label inconsistency"):
        make_scene([[0, 0, 0], [0.1, 0, 0]], [1, 2], [0, 0])


def test_noncontiguous_instance_ids_rejected():
    with pytest.raises(SceneError, match="not contiguous"):
        make_scene([[0, 0, 0], [0.1, 0, 0]], [1, 1], [0, 2])


def test_argmax_mismatch_rejected():
    scores = np.array([[0.2, 0.8, 0.0, 0.0]], dtype=np.float32)
    with pytest.raises(SceneError, match="arg-max"):
        make_scene([[0, 0, 0]], [2], [-1], sem_scores=scores)


def test_argmax_tie_breaks_to_lowest_class():
    scores = np.array([[0.5, 0.5, 0.0, 0.0]], dtype=np.float32)
    assert argmax_labels(scores)[0] == 0
    scene = make_scene([[0, 0, 0]], [0], [-1], stuff_classes=frozenset(), sem_scores=scores)
    assert scene.sem_labels[0] == 0


def test_score_rows_must_sum_to_one():
    scores = np.array([[0.4, 0.4, 0.0, 0.0]], dtype=np.float32)
    with pytest.raises(SceneError, match="sum"):
        make_scene([[0, 0, 0]], [0], [-1], stuff_classes=frozenset(), sem_scores=scores)


@pytest.mark.parametrize(
    "scores,point",
    [
        (np.array([[False, True, False, False]]), 0),
        ([[0.0, 1.0, 0.0, 0.0], [0.0, True, 0.0, 0.0]], 1),
        (np.array([[0.0, 1.0, 0.0, 0.0], [0.0, np.True_, 0.0, 0.0]], dtype=object), 1),
    ],
    ids=["bool array", "a bool in a list", "a bool in an object array"],
)
def test_bool_semantic_scores_are_refused(scores, point):
    # a bool array was read as the probabilities 0 and 1
    with pytest.raises(SceneError) as err:
        make_scene([[0, 0, 0], [1, 0, 0]][: len(scores)], [1] * len(scores), [-1] * len(scores),
                   stuff_classes=frozenset(), sem_scores=scores)
    assert str(err.value) == f"semantic score at point {point} is a bool, not a probability"
    assert err.value.point_index == point


@pytest.mark.parametrize("score", [True, np.True_, np.array(True), False], ids=repr)
def test_a_bool_prediction_score_is_refused(score):
    # True was stored as a score of 1.0
    with pytest.raises(SceneError) as err:
        InstancePrediction(np.array([0, 1]), 1, score)
    assert str(err.value) == f"prediction score {score} is a bool, not a number in [0, 1]"
    assert InstancePrediction(np.array([0, 1]), 1, 1).score == 1.0


def test_nonfinite_coordinate_rejected():
    with pytest.raises(SceneError, match="non-finite"):
        make_scene([[np.nan, 0, 0]], [1], [-1])


def test_color_range_enforced():
    with pytest.raises(SceneError, match="color"):
        make_scene([[0, 0, 0]], [1], [-1], colors=np.array([[300, 0, 0]]))


def test_label_range_enforced():
    with pytest.raises(SceneError, match="out of range"):
        make_scene([[0, 0, 0]], [9], [-1], sem_scores=None)
    for stuff in ({4}, {-1}):
        with pytest.raises(SceneError, match="^stuff class id out of range$"):
            make_scene([[0, 0, 0]], [1], [-1], stuff_classes=stuff)


def test_recomputed_argmax_reproduces_labels():
    rng = np.random.default_rng(0)
    raw = rng.random((200, 5)).astype(np.float32)
    scores = raw / raw.sum(axis=1, keepdims=True)
    labels = argmax_labels(scores)
    scene = make_scene(
        np.zeros((200, 3)), labels, np.full(200, -1), n_classes=5,
        stuff_classes=frozenset(), sem_scores=scores,
    )
    assert np.array_equal(argmax_labels(scene.sem_scores), scene.sem_labels)


def test_scene_arrays_immutable(simple_scene):
    with pytest.raises(ValueError):
        simple_scene.coords[0, 0] = 5.0
    with pytest.raises(ValueError):
        simple_scene.sem_labels[0] = 2
    # each object keeps its own copy: the caller's array stays writable, and
    # writing to it, or to the base of a view passed in, changes nothing
    # (the arrays are already of the stored dtype, so no cast copies them)
    fields = dict(
        n_classes=3, coords=np.float32([[0, 0, 0], [1, 0, 0]]), colors=np.zeros((2, 3), np.uint8),
        sem_labels=np.int32([1, 1]), inst_ids=np.int32([0, 0]), sem_scores=np.float32([[0, 1, 0]] * 2),
    )

    def model(mean=np.zeros(8), w1=np.zeros((2, 8))):
        return ScorerModel(mean, np.ones(8), w1, np.zeros(2), np.zeros(2), 0.0)

    stored_by = [
        *[
            (lambda a, f=f: getattr(Scene(**{**fields, f: a}), f), fields[f])
            for f in ("coords", "colors", "sem_labels", "inst_ids", "sem_scores")
        ],
        (lambda a: OffsetField(a).offsets, np.zeros((2, 3))),
        (lambda a: GridIndex(a, 0.03).xyz, fields["coords"]),
        (lambda a: model(mean=a).mean, np.zeros(8)),
        (lambda a: model(w1=a).w1, np.zeros((2, 8))),
        (lambda a: Cluster(a, 1, Source.ORIGINAL).point_idx, np.int64([0, 3])),
    ]
    for stored_from, values in stored_by:
        for given in (values.copy(), np.concatenate([values, values])[: len(values)]):
            stored = stored_from(given)
            before = stored.copy()
            assert given.flags.writeable and not stored.flags.writeable
            (given if given.base is None else given.base)[...] += 1
            assert np.array_equal(stored, before)


def test_stuff_mask_covers_unlabeled():
    scene = make_scene(
        [[0, 0, 0], [1, 0, 0], [2, 0, 0]], [0, 1, -1], [-1, -1, -1]
    )
    assert never_clustered(scene.sem_labels, scene.stuff_classes).tolist() == [True, False, True]


@pytest.mark.parametrize("stuff", [[1.5], ["1"], [float("nan")], [None], [True], [np.True_]])
def test_non_integral_stuff_class_id_rejected(stuff):
    coords, labels = np.zeros((2, 3), np.float32), np.array([0, 1], np.int32)
    with pytest.raises(SceneError, match="stuff class id must be an integer"):
        make_scene(coords, labels, [-1, -1], stuff_classes=frozenset(stuff))
    with pytest.raises(SceneError, match="stuff class id must be an integer"):
        never_clustered(labels, stuff)
    with pytest.raises(SceneError, match="stuff class id must be an integer"):
        cluster_single_set(coords, labels, stuff, ClusterParams(0.03, 1), Source.ORIGINAL)


@pytest.mark.parametrize("stuff", [1, np.int64(1), 1.0])
def test_integral_stuff_class_ids_load(stuff):
    scene = make_scene(np.zeros((2, 3)), [0, 1], [-1, -1], stuff_classes={stuff})
    assert scene.stuff_classes == {1} and all(type(c) is int for c in scene.stuff_classes)
    assert never_clustered(scene.sem_labels, [stuff]).tolist() == [False, True]


def test_ground_truth_instances(simple_scene):
    gt = ground_truth_instances(simple_scene)
    assert len(gt) == 2
    assert gt[0].point_idx.tolist() == [0, 1, 2]
    assert gt[1].point_idx.tolist() == [3, 4]
    assert gt[0].class_id == gt[1].class_id == 1


def test_ground_truth_instances_of_interleaved_ids():
    scene = make_scene(np.zeros((6, 3)), [2, 1, 0, 2, 1, 3], [1, 0, -1, 1, 0, 2])
    gt = ground_truth_instances(scene)
    assert [g.point_idx.tolist() for g in gt] == [[1, 4], [0, 3], [5]]
    assert [g.class_id for g in gt] == [1, 2, 3]
    assert ground_truth_instances(make_scene(np.zeros((2, 3)), [0, 1], [-1, -1])) == []


@pytest.mark.parametrize("n_classes", [2.5, "3", np.float64(3.0), True, np.True_])
def test_non_integer_class_count_rejected(n_classes):
    with pytest.raises(SceneError, match="n_classes must be an integer >= 1"):
        make_scene(np.zeros((2, 3)), [0, 1], [-1, -1], n_classes=n_classes, sem_scores=None)


@pytest.mark.parametrize(
    "field,values,shown,at",
    [
        ("sem_labels", [1.5, 2.9], "semantic label 1.5", 0),
        ("inst_ids", [0.7, -1], "instance id 0.7", 0),
        ("sem_labels", np.array([1, 2**32 + 1]), "semantic label 4294967297", 1),
        ("inst_ids", [0, 2**40], "instance id 1099511627776", 1),
        ("sem_labels", [1, float("nan")], "semantic label nan", 1),
        ("sem_labels", [True, True], "semantic label True", 0),
        ("inst_ids", np.zeros(2, bool), "instance id False", 0),
        ("sem_labels", [1, True], "semantic label True", 1),
    ],
)
def test_labels_and_ids_outside_int32_integers_rejected(field, values, shown, at):
    # truncated, wrapped or an uncaught OverflowError before one rule held them
    fields = dict(
        n_classes=3, coords=np.zeros((2, 3)), colors=np.zeros((2, 3)),
        sem_labels=[1, 1], inst_ids=[-1, -1],
    )
    fields[field] = values
    with pytest.raises(SceneError, match=f"^{shown} at point {at} is not an integer in the int32 range$") as err:
        Scene(**fields)
    assert err.value.point_index == at


# the 2-D array was named by its flat index ("semantic label 1.5 at point 3"
# of a 2-point scene), and a bare int raised TypeError
@pytest.mark.parametrize("values", [np.array([[1, 1], [1, 1.5]]), np.ones((2, 1)), 1, [1, 1, 1]])
@pytest.mark.parametrize("field", ["sem_labels", "inst_ids"])
def test_labels_and_ids_not_one_per_point_rejected_before_their_values(field, values):
    fields = dict(
        n_classes=3, coords=np.zeros((2, 3)), colors=np.zeros((2, 3)),
        sem_labels=[1, 1], inst_ids=[-1, -1],
    )
    fields[field] = values
    with pytest.raises(SceneError) as err:
        Scene(**fields)
    assert str(err.value) == "sem_labels and inst_ids must have shape (n_points,)"
    assert err.value.point_index is None


@pytest.mark.parametrize(
    "field,values,message",
    [
        ("coords", np.zeros((2, 2)), "coords must have shape (n_points, 3)"),
        ("coords", np.zeros(6), "coords must have shape (n_points, 3)"),
        ("colors", np.zeros((3, 3)), "colors must have shape (n_points, 3)"),
        ("colors", np.zeros((2, 4)), "colors must have shape (n_points, 3)"),
        ("sem_scores", np.full((2, 2), 0.5), "sem_scores must have shape (n_points, n_classes)"),
        ("sem_scores", np.full((3, 3), 1 / 3), "sem_scores must have shape (n_points, n_classes)"),
    ],
)
def test_arrays_not_shaped_per_point_rejected(field, values, message):
    fields = dict(
        n_classes=3, coords=np.zeros((2, 3)), colors=np.zeros((2, 3)),
        sem_labels=[1, 1], inst_ids=[-1, -1],
    )
    fields[field] = values
    with pytest.raises(SceneError) as err:
        Scene(**fields)
    assert str(err.value) == message and err.value.point_index is None


def test_integral_float_labels_and_ids_are_stored_as_int32():
    scene = Scene(
        n_classes=3, coords=np.zeros((2, 3)), colors=np.zeros((2, 3)),
        sem_labels=[1.0, 2.0], inst_ids=np.array([0.0, -1.0]),
    )
    assert scene.sem_labels.dtype == scene.inst_ids.dtype == np.int32
    assert scene.sem_labels.tolist() == [1, 2] and scene.inst_ids.tolist() == [0, -1]


def test_numpy_integer_class_count_round_trips(tmp_path):
    scene = make_scene(np.zeros((2, 3)), [0, 1], [-1, -1], n_classes=np.int64(3))
    assert type(scene.n_classes) is int
    save_scene(scene, tmp_path / "s.sc1")
    assert scenes_equal(load_scene(tmp_path / "s.sc1"), scene)


def test_scenes_equal(simple_scene):
    other = make_scene(
        simple_scene.coords, simple_scene.sem_labels, simple_scene.inst_ids
    )
    assert scenes_equal(simple_scene, other)


@pytest.mark.parametrize(
    "change",
    [
        "n_classes", "coords", "colors", "sem_labels", "inst_ids", "stuff_classes", "sem_scores",
        "sem_scores absent", "n_points",
    ],
)
def test_scenes_equal_tells_apart_scenes_one_field_apart(simple_scene, change):
    # each pair but the last is one scene and a copy with one field replaced
    scored, bare = simple_scene, dataclasses.replace(simple_scene, sem_scores=None)
    coords, colors = scored.coords.copy(), scored.colors.copy()
    coords[3, 1] = 0.25
    colors[0, 2] = 17
    scores = scored.sem_scores.copy()
    scores[0] = [0.1, 0.9, 0.0, 0.0]  # still arg-max 1
    one_more = np.vstack([scored.coords, [[2.0, 2.0, 0.0]]])
    pairs = {
        "n_classes": (bare, dataclasses.replace(bare, n_classes=5)),
        "coords": (scored, dataclasses.replace(scored, coords=coords)),
        "colors": (scored, dataclasses.replace(scored, colors=colors)),
        "sem_labels": (bare, dataclasses.replace(bare, sem_labels=[1, 1, 1, 1, 1, 0, 2])),
        "inst_ids": (scored, dataclasses.replace(scored, inst_ids=[1, 1, 1, 0, 0, -1, -1])),
        "stuff_classes": (scored, dataclasses.replace(scored, stuff_classes={0, 3})),
        "sem_scores": (scored, dataclasses.replace(scored, sem_scores=scores)),
        "sem_scores absent": (scored, bare),
        "n_points": (scored, make_scene(
            one_more, [*scored.sem_labels, 0], [*scored.inst_ids, -1]
        )),
    }
    a, b = pairs[change]
    assert scenes_equal(a, dataclasses.replace(a)) and scenes_equal(b, dataclasses.replace(b))
    assert not scenes_equal(a, b) and not scenes_equal(b, a)


def test_offset_field_validation():
    with pytest.raises(SceneError, match="non-finite"):
        OffsetField(np.array([[np.inf, 0, 0]]))
    with pytest.raises(SceneError, match="shape"):
        OffsetField(np.zeros((3, 2)))


def test_shifted_coords_and_length_check(simple_scene):
    off = OffsetField(np.full((7, 3), 0.5))
    q = shifted_coords(simple_scene, off)
    assert q.dtype == np.float64
    assert np.allclose(q - simple_scene.coords, 0.5)
    with pytest.raises(SceneError, match="points"):
        check_offsets(simple_scene, OffsetField(np.zeros((3, 3))))


def test_cluster_validation():
    c = Cluster(point_idx=[3, 5, 9], class_id=1, source=Source.ORIGINAL)
    assert c.size == 3 and c.min_index == 3
    with pytest.raises(SceneError, match="sorted"):
        Cluster(point_idx=[5, 3], class_id=1, source=Source.ORIGINAL)
    with pytest.raises(SceneError, match="sorted"):
        Cluster(point_idx=[3, 3], class_id=1, source=Source.ORIGINAL)
    with pytest.raises(SceneError, match="at least one"):
        Cluster(point_idx=[], class_id=1, source=Source.ORIGINAL)
    with pytest.raises(SceneError, match="^cluster contains a negative point index$"):
        Cluster(point_idx=[-1, 3], class_id=1, source=Source.ORIGINAL)


def test_prediction_score_range():
    with pytest.raises(SceneError, match="score"):
        InstancePrediction(point_idx=[0], class_id=1, score=1.5)
    with pytest.raises(SceneError, match="score"):
        InstancePrediction(point_idx=[0], class_id=1, score=float("nan"))
    p = InstancePrediction(point_idx=[0, 2], class_id=1, score=0.25)
    assert p.size == 2


def test_ground_truth_instance_requires_members():
    with pytest.raises(SceneError):
        GroundTruthInstance(point_idx=[], class_id=1)


MASKS = {
    "cluster": lambda c: Cluster(point_idx=[0, 1], class_id=c, source=Source.ORIGINAL),
    "prediction": lambda c: InstancePrediction(point_idx=[0, 1], class_id=c, score=0.5),
    "instance": lambda c: GroundTruthInstance(point_idx=[0, 1], class_id=c),
}


@pytest.mark.parametrize("kind", sorted(MASKS))
@pytest.mark.parametrize("class_id", [1.5, "x", float("nan"), np.float64(1.0), True, np.True_])
def test_non_integer_mask_class_id_rejected(kind, class_id):
    with pytest.raises(SceneError, match=f"^{kind} class id must be an integer"):
        MASKS[kind](class_id)


@pytest.mark.parametrize("kind", sorted(MASKS))
def test_mask_class_id_stored_as_int(kind):
    mask = MASKS[kind](np.int32(2))
    assert type(mask.class_id) is int and mask.class_id == 2 and mask.size == 2


def test_import_loads_no_scipy():
    # a fresh interpreter: pytest or another test may have loaded scipy here
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import cloudinst, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# One row per point of a valid scene: x y z r g b sem inst p0 p1 p2, the
# columns of a .sc1 point line, with n_classes 3 and stuff class 0.
ROWS = np.array([
    [0.0, 0.0, 0.0, 10, 10, 10, 1, 0, 0, 1, 0],
    [0.1, 0.0, 0.0, 10, 10, 10, 1, 0, 0, 1, 0],
    [0.2, 0.0, 0.0, 10, 10, 10, 1, 0, 0, 1, 0],
    [0.3, 0.0, 0.0, 10, 10, 10, 2, 1, 0, 0, 1],
    [0.4, 0.0, 0.0, 10, 10, 10, 2, 1, 0, 0, 1],
    [0.5, 0.0, 0.0, 10, 10, 10, 2, 1, 0, 0, 1],
    [0.6, 0.0, 0.0, 10, 10, 10, 0, -1, 1, 0, 0],
    [0.7, 0.0, 0.0, 10, 10, 10, -1, -1, 0.5, 0.5, 0],
])
XYZ = ROWS[:, :3]


def scene_of(rows):
    return Scene(
        n_classes=3, coords=rows[:, 0:3], colors=rows[:, 3:6], sem_labels=rows[:, 6],
        inst_ids=rows[:, 7], stuff_classes={0}, sem_scores=rows[:, 8:],
    )


# a file that can hold the fault: its writer, its reader and its header lines
SC1 = (lambda rows, path: save_scene(scene_of(rows), path), load_scene, 3)
OFF1 = (lambda rows, path: save_offsets(OffsetField(rows), path), load_offsets, 1)

# (what is built from the rows, its valid rows, the columns set at point k,
# the message, a file that can hold the fault)
FAULTS = {
    "coordinate": (scene_of, ROWS, {1: np.nan}, "non-finite coordinate at point {k}", SC1),
    "color": (scene_of, ROWS, {5: 256}, "color component out of [0, 255] at point {k}", SC1),
    "label range": (scene_of, ROWS, {6: 3}, "semantic label 3 out of range at point {k}", SC1),
    "label integer": (
        scene_of, ROWS, {6: 1.5},
        "semantic label 1.5 at point {k} is not an integer in the int32 range", None,
    ),
    "instance id": (scene_of, ROWS, {7: -2}, "instance id -2 invalid at point {k}", SC1),
    "score finite": (scene_of, ROWS, {9: np.inf}, "non-finite semantic score at point {k}", SC1),
    "score sign": (
        scene_of, ROWS, {8: -0.5, 9: 1.5}, "negative semantic score at point {k}", SC1,
    ),
    "score sum": (
        scene_of, ROWS, {9: 0.9}, "semantic scores sum to 0.89999998 (not 1) at point {k}", SC1,
    ),
    "arg-max": (
        scene_of, ROWS, {8: 0.6, 9: 0.4},
        "sem_labels does not equal arg-max of sem_scores at point {k}", SC1,
    ),
    "unlabeled instance": (scene_of, ROWS, {6: -1}, "instance point {k} is unlabeled", SC1),
    "stuff instance": (
        scene_of, ROWS, {6: 0, 8: 1, 9: 0}, "instance point {k} has a stuff-class label", SC1,
    ),
    "id gap": (
        scene_of, ROWS, {7: 3}, "instance ids are not contiguous (id 3 at point {k})", SC1,
    ),
    "label consistency": (
        scene_of, ROWS, {6: 2, 9: 0, 10: 1}, "instance label inconsistency at point {k}", SC1,
    ),
    "offset": (OffsetField, XYZ, {1: np.nan}, "non-finite offset at point {k}", OFF1),
    "int32_ids": (
        lambda rows: int32_ids(rows[:, 1], "label"), XYZ, {1: 2**31},
        "label 2147483648.0 at point {k} is not an integer in the int32 range", None,
    ),
    "grid coordinate": (
        lambda rows: GridIndex(rows, 0.1), XYZ, {2: -np.inf},
        "non-finite coordinate at point {k}", None,
    ),
}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("rule", sorted(FAULTS))
def test_each_point_rule_names_its_point_and_its_line(tmp_path, rule, k):
    # the message, the point and, read from a file, the line of point k:
    # messages alone passed with a point named in a subset
    build, valid, cols, message, file = FAULTS[rule]
    message = message.format(k=k)
    rows = valid.copy()
    for col, value in cols.items():
        rows[k, col] = value
    with pytest.raises(SceneError) as err:
        build(rows)
    assert str(err.value) == message and err.value.point_index == k
    if file:
        write, read, head = file
        path = tmp_path / "bad"
        write(valid, path)
        lines = path.read_text().splitlines()
        toks = lines[head + k].split()
        for col, value in cols.items():
            toks[col] = f"{value:g}"
        lines[head + k] = " ".join(toks)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(err.value) == f"line {head + k + 1}: {message}"


def test_one_home_for_naming_a_bad_point():
    # a SceneError carries a point index only where core.refuse builds it,
    # and in the label-consistency rule, which names its point in id order
    found = []
    for path in sorted(Path(cloudinst.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SceneError"
                    and (len(node.args) > 1 or node.keywords)
                ):
                    found.append((path.stem, func.name))
    assert found == [("core", "refuse"), ("core", "__post_init__")]


def test_one_home_for_the_number_rule():
    # a ValueError reads "<name> must be <rule>, got <value>" only where
    # core.check builds it, and in the rules of what is not a number: seeds
    # (any integer), the scorer's "{d}x{h}" dimensions and cluster_sets
    found = set()
    for path in sorted(Path(cloudinst.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ValueError"
                    and node.args
                ):
                    continue
                text = "".join(
                    part.value for part in ast.walk(node.args[0])
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )
                if re.search("must be .*got", text):
                    found.add((path.stem, func.name))
    assert sorted(found) == [
        ("core", "check"), ("core", "check_seed"), ("pipeline", "__post_init__"),
        ("scoring", "_check_dims"),
    ]


def _gen(name, wrap=lambda v: v):
    return name, lambda v, scene, offsets: GenConfig(**{name: wrap(v)})


# each field or argument that takes a number, as (name in the message, a
# call that hands it the value v)
NUMBER_FIELDS = {
    "GenConfig.room": _gen("room", lambda v: (5.0, v, 2.5)),
    "GenConfig.n_objects": _gen("n_objects"),
    "GenConfig.density": _gen("density"),
    "GenConfig.stuff_density": _gen("stuff_density"),
    "GenConfig.min_gap": _gen("min_gap"),
    "GenConfig.same_class_gap": _gen("same_class_gap"),
    "GenConfig.size_scale": _gen("size_scale", lambda v: (0.7, v)),
    "GenConfig.min_object_points": _gen("min_object_points"),
    "GenConfig.density_dip": _gen("density_dip"),
    "GenConfig.dip_fraction": _gen("dip_fraction"),
    "GenConfig.p_sem": _gen("p_sem"),
    "GenConfig.sem_temperature": _gen("sem_temperature"),
    "GenConfig.sigma0": _gen("sigma0"),
    "GenConfig.beta": _gen("beta"),
    "perturb_semantics.p_sem": ("p_sem", lambda v, s, o: perturb_semantics(s, v, 0.0, 0)),
    "perturb_semantics.temperature": (
        "sem_temperature", lambda v, s, o: perturb_semantics(s, 0.5, v, 0)
    ),
    "perturb_offsets.sigma0": ("sigma0", lambda v, s, o: perturb_offsets(o, s, v, 0.0, 0)),
    "perturb_offsets.beta": ("beta", lambda v, s, o: perturb_offsets(o, s, 0.01, v, 0)),
    "ClusterParams.radius": ("radius", lambda v, s, o: ClusterParams(radius=v)),
    "ClusterParams.min_points": ("min_points", lambda v, s, o: ClusterParams(min_points=v)),
    "PipelineConfig.nms_iou": ("nms_iou", lambda v, s, o: PipelineConfig(nms_iou=v)),
    "PipelineConfig.min_score": ("min_score", lambda v, s, o: PipelineConfig(min_score=v)),
    "nms.iou_thresh": ("nms_iou", lambda v, s, o: nms([], [], v)),
    "evaluate.score_filter": ("score_filter", lambda v, s, o: evaluate([], s, score_filter=v)),
    "run_bench.repeats": ("repeats", lambda v, s, o: run_bench(s, o, PipelineConfig(), repeats=v)),
    "ScorerModel.default.hidden": ("hidden", lambda v, s, o: ScorerModel.default(hidden=v)),
    "train_scorer.hidden": ("hidden", lambda v, s, o: train_scorer([], hidden=v)),
    "train_scorer.epochs": ("epochs", lambda v, s, o: train_scorer([], epochs=v)),
    "train_scorer.lr": ("lr", lambda v, s, o: train_scorer([], lr=v)),
}


@pytest.mark.parametrize("value", [True, np.True_, float("nan"), float("inf"), -float("inf")], ids=repr)
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_each_number_refuses_a_bool_nan_and_inf_by_name(field, value, simple_scene, zero_offsets):
    # True once read as 1: a 1 m radius, an IoU threshold of 1, an lr of 1
    name, call = NUMBER_FIELDS[field]
    with pytest.raises(ValueError) as err:
        call(value, simple_scene, zero_offsets)
    rule, got = str(err.value).rsplit(", got ", 1)
    assert rule.startswith(f"{name} must be ") and str(value) in got


@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_each_number_refuses_a_string_by_name(field, simple_scene, zero_offsets):
    # the caller's range test compared the string before check saw it
    name, call = NUMBER_FIELDS[field]
    with pytest.raises(ValueError) as err:
        call("5", simple_scene, zero_offsets)
    rule, got = str(err.value).rsplit(", got ", 1)
    assert rule.startswith(f"{name} must be ") and "5" in got


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ClusterParams(radius="0.03"),
         "radius must be positive with a normal finite float32 square, got 0.03"),
        (lambda: PipelineConfig(nms_iou="0.3"), "nms_iou must be in (0, 1], got 0.3"),
        (lambda: GenConfig(density="5"), "density must be positive and finite, got 5"),
        (lambda: GenConfig(room=5.0),
         "room must be three positive finite lengths up to 3.40282e+38, got 5.0"),
    ],
    ids=["radius", "nms_iou", "density", "room"],
)
def test_a_value_the_range_test_cannot_read_is_refused_by_name(call, message):
    # each raised a bare TypeError from its comparison (or len) naming no field
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_run_bench_refuses_a_repeats_that_is_not_an_integer(simple_scene, zero_offsets):
    # range(2.5) once raised a TypeError after the warm-up run
    for repeats in (2.5, 2.0, "3", None):
        with pytest.raises(ValueError) as err:
            run_bench(simple_scene, zero_offsets, PipelineConfig(), repeats=repeats)
        assert str(err.value) == f"repeats must be an integer >= 1, got {repeats}"


# each seed, as a call that hands it the seed v; Philox seeds take any
# integer (their low 64 bits), numpy's any integer >= 0
PHILOX_SEEDS = {
    "GenConfig": lambda v, s, o: GenConfig(seed=v, n_objects=1, stuff_density=0.0),
    "perturb_semantics": lambda v, s, o: perturb_semantics(s, 0.5, 0.0, v),
    "perturb_offsets": lambda v, s, o: perturb_offsets(o, s, 0.01, 1.0, v),
    "perturb_offsets (no noise)": lambda v, s, o: perturb_offsets(o, s, 0.0, 1.0, v),
}
NUMPY_SEEDS = {
    "ScorerModel.default": lambda v, s, o: ScorerModel.default(seed=v),
    "train_scorer": lambda v, s, o: train_scorer([], seed=v),
}


@pytest.mark.parametrize("seed", [1.5, 2.0, None, True, np.True_, "1"], ids=repr)
@pytest.mark.parametrize("call", sorted({**PHILOX_SEEDS, **NUMPY_SEEDS}))
def test_a_seed_that_is_not_an_integer_is_refused_by_name(call, seed, simple_scene, zero_offsets):
    # a TypeError from the Philox key (or numpy's) before, or none at all
    with pytest.raises(ValueError) as err:
        {**PHILOX_SEEDS, **NUMPY_SEEDS}[call](seed, simple_scene, zero_offsets)
    assert str(err.value) == f"seed must be an integer, got {seed}"


@pytest.mark.parametrize("call", sorted(PHILOX_SEEDS))
def test_a_philox_seed_is_any_integer(call, simple_scene, zero_offsets):
    # a numpy integer once overflowed in the Philox key's mask: its low 64 bits
    # are its Python int's
    for seed, same in [(5, np.int64(5)), (-3, np.int32(-3)), (2**63, np.uint64(2**63))]:
        for value in (seed, same, seed + 2**64, seed - 2**200):
            PHILOX_SEEDS[call](value, simple_scene, zero_offsets)
    scene, _ = generate_scene(GenConfig(seed=-3, n_objects=2))
    assert scenes_equal(scene, generate_scene(GenConfig(seed=np.int32(-3), n_objects=2))[0])
    assert scenes_equal(scene, generate_scene(GenConfig(seed=2**64 - 3, n_objects=2))[0])


def test_a_numpy_seed_is_any_integer_at_least_zero():
    assert ScorerModel.default(seed=2**200).hidden == 16
    assert ScorerModel.default(seed=np.uint64(2**63)).hidden == 16
    for seed in (-1, np.int64(-1), -(2**200)):
        with pytest.raises(ValueError) as err:
            ScorerModel.default(seed=seed)
        assert str(err.value) == f"seed must be >= 0, got {seed}"
