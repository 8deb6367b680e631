import argparse
import importlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloudinst.cli import _build_parser, dispatch
from cloudinst.clustering import ClusterParams
from cloudinst.formats import load_predictions, load_scene, load_scorer, save_scorer
from cloudinst.pipeline import PipelineConfig
from cloudinst.scoring import GRAD_TOLERANCE, ScorerModel
from cloudinst.synth import GenConfig


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEN_ARGS = [
    "--n-objects", "3", "--density", "700", "--stuff-density", "15",
    "--room", "4", "4", "2.5",
]


def gen_scene(capsys, tmp_path, name="a", seed="7", extra=()):
    out = tmp_path / f"{name}.sc1"
    code, _, err = run(
        capsys, "generate", "--seed", seed, "--out", str(out), *GEN_ARGS, *extra
    )
    assert code == 0, err
    return out, out.with_suffix(".off1")


def test_no_arguments_prints_usage_and_exits_1(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--bogus", "1", "--out", "x.sc1")
    assert code == 1
    assert "error" in err.lower()


def test_generate_is_deterministic(capsys, tmp_path):
    a, a_off = gen_scene(capsys, tmp_path, "a")
    b, b_off = gen_scene(capsys, tmp_path, "b")
    assert a.read_bytes() == b.read_bytes()
    assert a_off.read_bytes() == b_off.read_bytes()
    c, _ = gen_scene(capsys, tmp_path, "c", seed="8")
    assert a.read_bytes() != c.read_bytes()
    # --offsets-out moves the offset file, and only that file
    d, d_off = gen_scene(capsys, tmp_path, "d", extra=["--offsets-out", str(tmp_path / "o.off1")])
    assert (tmp_path / "o.off1").read_bytes() == a_off.read_bytes()
    assert d.read_bytes() == a.read_bytes() and not d_off.exists()


def test_cluster_writes_predictions_and_stdout(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    preds_path = tmp_path / "p.pred1"
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle", "--min-points", "40", "--min-score", "0.5",
        "--out", str(preds_path),
    )
    assert code == 0, err
    preds = load_predictions(preds_path)
    assert len(preds) == 3
    code, out, _ = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle", "--min-points", "40",
    )
    assert code == 0
    assert out.startswith("PRED1 ")


def test_cluster_oracle_without_instances_rejected(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path, "noisy", extra=["--p-sem", "1"])
    # p_sem=1 flips every object point out of its instance: no ground truth
    assert load_scene(scene).n_instances == 0
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle",
    )
    assert code == 2
    assert "oracle" in err


def test_cluster_model_requires_model_file(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "model",
    )
    assert code == 2
    assert "--model" in err
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle", "--model", str(tmp_path / "m.scorer"),
    )
    assert code == 2
    assert "error: --model is only valid with --scorer model" in err


def test_cluster_scorer_of_the_wrong_width_exits_2(capsys, tmp_path):
    # a 2-dim scorer loads, but cannot score 8-dim cluster descriptors
    scene, offsets = gen_scene(capsys, tmp_path)
    model = tmp_path / "narrow.scorer"
    save_scorer(
        ScorerModel(mean=np.zeros(2), std=np.ones(2), w1=np.zeros((2, 2)),
                    b1=np.zeros(2), w2=np.zeros(2), b2=0.0),
        model,
    )
    assert load_scorer(model).descriptor_dim == 2
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "model", "--model", str(model), "--out", str(tmp_path / "p.pred1"),
    )
    assert code == 2
    assert "scorer model takes 2-dim descriptors, clusters have 8-dim descriptors" in err
    assert "broadcast" not in err


def test_evaluate_table_and_tsv(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    preds_path = tmp_path / "p.pred1"
    code, _, _ = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle", "--min-points", "40", "--out", str(preds_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "evaluate", "--scene", str(scene), "--preds", str(preds_path)
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["class", "AP", "AP50", "AP25", "Prec50", "Rec50"]
    assert lines[-1].split()[0] == "mean"
    assert all(v == "1.0000" for v in lines[-1].split()[1:])

    code, tsv, _ = run(
        capsys, "evaluate", "--scene", str(scene), "--preds", str(preds_path), "--tsv"
    )
    assert code == 0
    assert "\t" in tsv.split("\n")[0]


def test_cli_workflow_bit_identical_across_runs(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    outputs = []
    for name in ("p1.pred1", "p2.pred1"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
            "--scorer", "oracle", "--min-points", "40",
            "--threads", "1" if name == "p1.pred1" else "2",
            "--out", str(path),
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]  # thread count does not change results

    evals = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "evaluate", "--scene", str(scene), "--preds", str(tmp_path / "p1.pred1")
        )
        assert code == 0
        evals.append(out)
    assert evals[0] == evals[1]


def test_benchmark_cluster_command_line_runs(capsys, tmp_path, monkeypatch):
    # the benchmark's `cluster` arguments (perfbench/run.py) must stay valid
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    cluster_args = importlib.import_module("run").cluster_args
    scene, offsets = gen_scene(capsys, tmp_path)
    model = tmp_path / "m.scorer"
    save_scorer(ScorerModel.default(), model)
    out = tmp_path / "bench.pred1"
    argv = cluster_args({"scene": str(scene), "offsets": str(offsets)}, str(model), str(out))
    assert dispatch(argv) == 0, capsys.readouterr().err
    assert load_predictions(out)


def test_p_vs_both_ablation_improves_ap50(capsys, tmp_path):
    # adjacency corpus: original-set clustering merges pairs, dual set fixes it
    ap50 = {}
    for sets in ("p", "both"):
        vals = []
        for seed in ("21", "22", "23"):
            scene, offsets = gen_scene(
                capsys, tmp_path, f"adj{seed}", seed=seed,
                extra=["--same-class-gap", "0.02", "--n-objects", "4",
                       "--density", "2500"],
            )
            preds_path = tmp_path / f"{sets}{seed}.pred1"
            code, _, err = run(
                capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
                "--scorer", "oracle", "--set", sets, "--out", str(preds_path),
            )
            assert code == 0, err
            code, out, _ = run(
                capsys, "evaluate", "--scene", str(scene), "--preds", str(preds_path),
                "--tsv",
            )
            assert code == 0
            vals.append(float(out.strip().split("\n")[-1].split("\t")[2]))
        ap50[sets] = float(np.mean(vals))
    assert ap50["both"] > ap50["p"]


def test_bench_reports_six_stages(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    code, out, err = run(
        capsys, "bench", "--scene", str(scene), "--offsets", str(offsets),
        "--repeats", "1", "--tsv",
    )
    assert code == 0, err
    head, row = out.strip().split("\n")
    stages = head.split("\t")[1:]
    assert stages == ["bq_p", "cl_p", "bq_q", "cl_q", "scoring", "nms", "total"]
    values = [float(v) for v in row.split("\t")[1:]]
    assert all(v >= 0.0 for v in values)
    # serial stage times sum to no more than the wall total plus jitter
    assert sum(values[:-1]) <= values[-1] * 1.25 + 5.0
    code, out, err = run(
        capsys, "bench", "--scene", str(scene), "--offsets", str(offsets), "--repeats", "0",
    )
    assert code == 2 and out == ""
    assert "error: repeats must be an integer >= 1, got 0" in err


def test_gradcheck_passes(capsys):
    code, out, err = run(capsys, "gradcheck", "--seed", "0")
    assert code == 0, err
    assert out.count("[ok]") == 3


def test_gradcheck_refuses_a_negative_seed_by_its_flag(capsys):
    # numpy's generator refused it as "expected non-negative integer"
    assert run(capsys, "gradcheck", "--seed", "-1") == (2, "", "error: --seed must be >= 0, got -1\n")


def test_train_scorer_writes_loadable_model(capsys, tmp_path):
    scenes = []
    for seed in ("31", "32"):
        scene, _ = gen_scene(capsys, tmp_path, f"t{seed}", seed=seed,
                             extra=["--sigma0", "0.01"])
        scenes.append(str(scene))
    model_path = tmp_path / "m.scorer"
    code, out, err = run(
        capsys, "train-scorer", *scenes, "--out", str(model_path),
        "--min-points", "40", "--epochs", "50",
    )
    assert code == 0, err
    model = load_scorer(model_path)
    assert model.hidden == 16
    assert "loss" in out


def test_train_scorer_with_zero_hidden_units_exits_2(capsys, tmp_path):
    scene, _ = gen_scene(capsys, tmp_path)
    model_path = tmp_path / "m.scorer"
    for hidden in ("0", "-1"):
        code, _, err = run(
            capsys, "train-scorer", str(scene), "--out", str(model_path), "--hidden", hidden,
        )
        assert code == 2
        assert f"dimensions must be >= 1, got 8x{hidden}" in err
        assert not model_path.exists()


@pytest.mark.parametrize(
    "argv,field",
    [
        (["--sigma0", "nan", "--beta", "2"], "sigma0"),
        (["--room", "nan", "5", "2.5"], "room"),
        (["--density", "inf"], "density"),
    ],
)
def test_generate_with_a_non_finite_float_exits_2(capsys, tmp_path, argv, field):
    out = tmp_path / "a.sc1"
    code, _, err = run(capsys, "generate", "--seed", "1", "--out", str(out), *argv)
    assert code == 2
    assert f"error: {field} must be" in err
    assert list(tmp_path.iterdir()) == []


def test_generate_that_cannot_allocate_exits_2(capsys, tmp_path):
    # numpy refuses a 9 PiB request before allocating anything
    out = tmp_path / "y.sc1"
    code, _, err = run(capsys, "generate", "--out", str(out), "--density", "1e15")
    assert code == 2
    assert err.startswith("error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,fields",
    [
        (["--room", "3e38", "3e38", "2.5", "--n-objects", "0"], "room and stuff_density"),
        (["--density", "1e300"], "density"),
        (["--room", "3e38", "5", "2.5", "--n-objects", "0"], "room and stuff_density"),
        (["--n-objects", "100000000000000000000"], "n_objects and min_object_points"),
    ],
)
def test_generate_of_more_points_than_an_array_holds_exits_2(capsys, tmp_path, argv, fields):
    # the planned point count is refused before the array it sizes is made
    out = tmp_path / "z.sc1"
    code, _, err = run(capsys, "generate", "--out", str(out), *argv)
    assert code == 2
    assert err.startswith(f"error: {fields} too large: ")
    assert list(tmp_path.iterdir()) == []


def _generate_alone(tmp_path, *argv):
    """``cloudinst generate`` in a process of its own, in a 2 GiB address
    space; its stderr, once it has exited 2 and written nothing."""
    run = subprocess.run(
        [sys.executable, "-m", "cloudinst.cli", "generate", "--out", str(tmp_path / "x.sc1"), *argv],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )
    assert (run.returncode, list(tmp_path.iterdir())) == (2, []), run.stderr
    return run.stderr


def test_generate_of_more_objects_than_the_room_holds_exits_2_at_once(tmp_path):
    # a class was drawn for each of 1e9 objects before the first was placed,
    # until the process was killed
    err = _generate_alone(tmp_path, "--n-objects", "1000000000")
    assert err.startswith("error: n_objects too large: 1000000000 objects of at least ")


def test_generate_of_more_objects_than_memory_holds_exits_2_at_once(tmp_path):
    # a room that holds 1e9 objects: their 6e10 points need ~3.3 TB, more
    # than any machine that runs this has
    err = _generate_alone(tmp_path, "--room", "100000", "100000", "2.5", "--n-objects", "1000000000")
    assert err.startswith("error: n_objects too large: 1000000000 objects of at least 60 points need ")
    assert "bytes of memory" in err


def test_evaluate_with_a_nan_score_filter_exits_2(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    preds = tmp_path / "p.pred1"
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle", "--min-points", "40", "--out", str(preds),
    )
    assert code == 0, err
    code, out, err = run(
        capsys, "evaluate", "--scene", str(scene), "--preds", str(preds), "--score-filter", "nan"
    )
    assert code == 2
    assert "score_filter must be in [0, 1], got nan" in err
    assert out == ""


def test_gradcheck_with_a_nan_tolerance_fails(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--tolerance", "nan")
    assert code == 2
    assert out.count("[FAIL]") == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--epochs", "-3"], "epochs must be >= 0, got -3"),
        (["--lr", "nan"], "lr must be a positive finite number, got nan"),
        (["--lr", "0"], "lr must be a positive finite number, got 0.0"),
    ],
)
def test_train_scorer_with_a_bad_schedule_exits_2(capsys, tmp_path, argv, message):
    scene, _ = gen_scene(capsys, tmp_path)
    model_path = tmp_path / "m.scorer"
    code, _, err = run(capsys, "train-scorer", str(scene), "--out", str(model_path), *argv)
    assert code == 2
    assert f"error: {message}" in err
    assert not model_path.exists()


def test_defaults_are_the_library_defaults():
    parse = _build_parser().parse_args
    gen = GenConfig()
    g = parse(["generate", "--out", "x.sc1"])
    assert tuple(g.room) == gen.room
    # each flag that sets a config field is stored under the field's name
    for name in [
        "seed", "n_objects", "density", "stuff_density", "min_gap", "same_class_gap",
        "p_sem", "sem_temperature", "sigma0", "beta",
    ]:
        assert getattr(g, name) == getattr(gen, name), name

    params, pipeline = ClusterParams(), PipelineConfig()
    files = ["--scene", "s.sc1", "--offsets", "s.off1"]
    c = parse(["cluster", *files])
    b = parse(["bench", *files])
    t = parse(["train-scorer", "s.sc1", "--out", "m.scorer"])
    for args in (c, b, t):
        assert (args.radius, args.min_points) == (params.radius, params.min_points)
    for args in (c, b):
        assert args.nms_iou == pipeline.nms_iou
    assert (c.cluster_sets, c.min_score) == (pipeline.cluster_sets, pipeline.min_score)
    assert b.scorer == pipeline.scorer.value
    assert parse(["gradcheck"]).tolerance == GRAD_TOLERANCE


def test_option_strings_are_pinned():
    # one row per subcommand: adding or removing a knob shows up here
    expected = {
        "generate": {
            "--seed", "--out", "--offsets-out", "--n-objects", "--room", "--density",
            "--stuff-density", "--min-gap", "--same-class-gap", "--p-sem", "--temperature",
            "--sigma0", "--beta",
        },
        "cluster": {
            "--scene", "--offsets", "--scorer", "--model", "--radius", "--min-points",
            "--nms-iou", "--set", "--min-score", "--threads", "--out",
        },
        "evaluate": {"--scene", "--preds", "--score-filter", "--tsv"},
        "bench": {
            "--scene", "--offsets", "--scorer", "--model", "--radius", "--min-points",
            "--nms-iou", "--repeats", "--tsv",
        },
        "gradcheck": {"--seed", "--tolerance"},
        "train-scorer": {
            "--out", "--hidden", "--lr", "--epochs", "--seed", "--radius", "--min-points",
        },
    }
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == expected


def test_missing_file_is_runtime_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "cluster", "--scene", str(tmp_path / "nope.sc1"),
        "--offsets", str(tmp_path / "nope.off1"),
    )
    assert code == 2
    assert "error" in err


def test_cluster_radius_with_underflowing_square_exits_2(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    code, _, err = run(
        capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
        "--scorer", "oracle", "--radius", "1e-30",
    )
    assert code == 2
    assert "radius" in err
