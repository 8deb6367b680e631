import ast
import os
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
from cloudinst.clustering import ClusterParams, cluster_single_set
from cloudinst.formats import load_offsets, load_scene, save_offsets, save_scene
from cloudinst.scoring import ScorerModel
from cloudinst.spatial import GridIndex

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
