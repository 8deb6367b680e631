import argparse
import contextlib
import dataclasses
import errno
import importlib
import io
import os
import resource
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinst import cli, clustering, formats, pipeline, trace
from cloudinst.cli import _build_parser, _load_inputs, dispatch
from cloudinst.clustering import ClusterParams, cluster_dual_set
from cloudinst.core import FormatError, OffsetField, Scene, SceneError, Source
from cloudinst.evaluation import evaluate
from cloudinst.formats import (
    load_offsets,
    load_predictions,
    load_scene,
    load_scorer,
    predictions_text,
    save_offsets,
    save_scene,
    save_scorer,
)
from cloudinst.pipeline import PipelineConfig, run_pipeline
from cloudinst.scoring import Scorer, score_clusters
from cloudinst.scoring import GRAD_TOLERANCE, ScorerModel
from cloudinst.synth import GenConfig
from conftest import float64_limit_offset_scene, oracle_scenes


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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("flag", ["--scene", "--preds"])
def test_evaluate_refuses_a_pipe_by_name(capsys, tmp_path, flag):
    # as a shell's <(cat x.sc1) passes it: a pipe, not a regular file the loaders can seek
    scene, _ = gen_scene(capsys, tmp_path)
    preds = tmp_path / "p.pred1"
    preds.write_text(predictions_text([]))
    r, w = os.pipe()
    os.close(w)
    files = {"--scene": str(scene), "--preds": str(preds), flag: f"/dev/fd/{r}"}
    try:
        code, out, err = run(capsys, "evaluate", *[a for item in files.items() for a in item])
    finally:
        os.close(r)
    assert code == 2 and out == ""
    assert err == f"error: [Errno {errno.EINVAL}] input must be a regular file: '/dev/fd/{r}'\n"


def test_an_error_without_text_prints_its_type(capsys, tmp_path, monkeypatch):
    # a bare MemoryError printed "error: " and nothing else
    scene, _ = gen_scene(capsys, tmp_path)
    preds = tmp_path / "p.pred1"
    preds.write_text(predictions_text([]))

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "evaluate", out_of_memory)
    code, out, err = run(capsys, "evaluate", "--scene", str(scene), "--preds", str(preds))
    assert (code, out, err) == (2, "", "error: MemoryError\n")


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


def test_train_scorer_trains_on_an_offset_near_the_float64_limit(capsys, tmp_path):
    # it once ended in "non-finite scorer model weights"
    scene, offsets = float64_limit_offset_scene()
    save_scene(scene, tmp_path / "s.sc1")
    save_offsets(offsets, tmp_path / "s.off1")
    code, out, err = run(
        capsys, "train-scorer", str(tmp_path / "s.sc1"), "--out", str(tmp_path / "m.scorer"),
        "--radius", "0.05", "--min-points", "1",
    )
    assert (code, err) == (0, "")
    assert "trained on 10 clusters" in out
    load_scorer(tmp_path / "m.scorer")


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


def _after_the_call(log):
    """What a test runs after each call that loads a scene and its offsets:
    the call has left no child process, and only this process runs on (a
    child that unwound into the test would write its own pid to ``log``)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def _spoil(path, lineno):
    """Replace the first token of line ``lineno`` of ``path`` with ``x``."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = "x " + lines[lineno - 1].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed,noise", [("7", ()), ("8", ("--sigma0", "0.01", "--beta", "2"))])
def test_cluster_writes_the_bytes_of_the_loads_in_turn(capsys, tmp_path, seed, noise):
    scene, offsets = gen_scene(capsys, tmp_path, seed=seed, extra=noise)
    log, out = tmp_path / "log", tmp_path / "p.pred1"
    code, _, err = run(capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets),
                       "--min-points", "40", "--out", str(out))
    _after_the_call(log)
    assert code == 0, err
    config = PipelineConfig(ClusterParams(min_points=40), scorer=Scorer.ORACLE)
    preds = run_pipeline(load_scene(scene), load_offsets(offsets), config)
    assert out.read_text() == predictions_text(preds)
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_faulty_scene_is_named_before_faulty_offsets(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    _spoil(scene, 9)
    _spoil(offsets, 5)
    with pytest.raises(FormatError) as fault:
        load_scene(scene)
    with pytest.raises(FormatError) as offsets_fault:
        load_offsets(offsets)
    assert str(offsets_fault.value) != str(fault.value)
    log = tmp_path / "log"
    code, out, err = run(capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets))
    _after_the_call(log)
    assert (code, out, err) == (2, "", f"error: {fault.value}\n")
    assert log.read_text() == f"{os.getpid()}\n"


def test_faulty_offsets_keep_their_loader_message_and_line(capsys, tmp_path):
    scene, offsets = gen_scene(capsys, tmp_path)
    _spoil(offsets, 5)
    with pytest.raises(FormatError) as fault:
        load_offsets(offsets)
    assert str(fault.value).startswith("line 5: ")
    log = tmp_path / "log"
    with pytest.raises(FormatError) as err:
        _load_inputs(scene, offsets)
    _after_the_call(log)
    assert str(err.value) == str(fault.value)
    code, out, err = run(capsys, "cluster", "--scene", str(scene), "--offsets", str(offsets))
    _after_the_call(log)
    assert (code, out, err) == (2, "", f"error: {fault.value}\n")
    assert log.read_text() == f"{os.getpid()}\n" * 2


def test_a_missing_offsets_file_keeps_its_os_error(capsys, tmp_path):
    scene, _ = gen_scene(capsys, tmp_path)
    missing = tmp_path / "nope.off1"
    with pytest.raises(OSError) as fault:
        load_offsets(missing)
    log = tmp_path / "log"
    with pytest.raises(type(fault.value)) as err:
        _load_inputs(scene, missing)
    _after_the_call(log)
    assert str(err.value) == str(fault.value)
    code, out, err = run(capsys, "cluster", "--scene", str(scene), "--offsets", str(missing))
    _after_the_call(log)
    assert (code, out, err) == (2, "", f"error: {fault.value}\n")
    assert log.read_text() == f"{os.getpid()}\n" * 2


class _Terminated(Exception):
    pass


def test_a_call_stopped_by_sigterm_leaves_no_child(capsys, tmp_path, monkeypatch):
    # as perfbench/run.py does, SIGTERM raises in the main thread; here it
    # arrives while this process parses the scene and the child the offsets
    scene, offsets = gen_scene(capsys, tmp_path)

    def raise_terminated(*_):
        raise _Terminated

    def terminated_load_scene(path):
        os.kill(os.getpid(), signal.SIGTERM)
        return load_scene(path)

    previous = signal.signal(signal.SIGTERM, raise_terminated)
    log = tmp_path / "log"
    try:
        monkeypatch.setattr(cli, "load_scene", terminated_load_scene)
        with pytest.raises(_Terminated):
            _load_inputs(scene, offsets)
        _after_the_call(log)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert log.read_text() == f"{os.getpid()}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_scene_fault_does_not_wait_for_the_offsets(capsys, tmp_path):
    # the child blocks opening a named pipe that nothing writes to; as in turn,
    # the missing scene ends the call at once
    fifo = tmp_path / "never.off1"
    os.mkfifo(fifo)

    def hung(*_):
        raise _Terminated

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    log = tmp_path / "log"
    try:
        with pytest.raises(FileNotFoundError):
            _load_inputs(tmp_path / "nope.sc1", fifo)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        with contextlib.suppress(OSError):  # opens only while a child still waits on it
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    _after_the_call(log)
    assert log.read_text() == f"{os.getpid()}\n"


@pytest.mark.parametrize("end", ["exit", "sigterm"])
def test_a_child_that_ends_without_a_reply_leaves_the_offsets_to_the_parent(
    capsys, tmp_path, monkeypatch, end
):
    scene, offsets = gen_scene(capsys, tmp_path)
    parent = os.getpid()

    def child_dies(path):
        if os.getpid() != parent:
            if end == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGTERM)
        return load_offsets(path)

    monkeypatch.setattr(cli, "load_offsets", child_dies)
    log = tmp_path / "log"
    loaded_scene, loaded = _load_inputs(scene, offsets)
    _after_the_call(log)
    np.testing.assert_array_equal(loaded.offsets, load_offsets(offsets).offsets)
    assert loaded_scene.n_points == loaded.n_points
    assert log.read_text() == f"{os.getpid()}\n"


def test_without_fork_the_loads_run_in_turn(capsys, tmp_path, monkeypatch):
    scene, offsets = gen_scene(capsys, tmp_path)
    forked = _load_inputs(scene, offsets)
    monkeypatch.delattr(os, "fork")
    in_turn = _load_inputs(scene, offsets)
    np.testing.assert_array_equal(forked[1].offsets, in_turn[1].offsets)
    assert not forked[1].offsets.flags.writeable
    np.testing.assert_array_equal(forked[0].coords, in_turn[0].coords)


def test_cluster_in_its_own_process_warns_of_nothing_and_leaves_no_child(capsys, tmp_path):
    # -W always prints every warning, a warning about fork (in a process with
    # threads) among them; -W error would turn it into an exception that the
    # interpreter reports nowhere when os.fork raises it
    scene, offsets = gen_scene(capsys, tmp_path)
    argv = ["cluster", "--scene", str(scene), "--offsets", str(offsets), "--min-points", "40"]
    assert dispatch([*argv, "--out", str(tmp_path / "in.pred1")]) == 0
    out = tmp_path / "own-process.pred1"
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "cloudinst.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert out.read_bytes() == (tmp_path / "in.pred1").read_bytes()
    # a child left running would still hold the command line that names ``out``
    if Path("/proc").is_dir():
        for proc in Path("/proc").iterdir():
            try:
                assert str(out).encode() not in (proc / "cmdline").read_bytes()
            except OSError:  # not a process, or one that has ended
                pass


# ``cluster`` with ``--set both`` clusters the shifted set Q in a forked child
# while this process clusters the original set P


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes, one entry each."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _cluster_points_with(monkeypatch, before):
    """Make every clustering call ``before(source)`` ahead of each run of the
    kernel: a whole set, or one job of P's labels in ``cli._cluster_beside``."""
    kernel = clustering._cluster_points

    def wrapped(coords, sem_labels, active_idx, params, source):
        before(source)
        return kernel(coords, sem_labels, active_idx, params, source)

    monkeypatch.setattr(clustering, "_cluster_points", wrapped)
    monkeypatch.setattr(cli, "_cluster_points", wrapped)


def _raise(faults):
    """A ``before`` for ``_cluster_points_with``: raise ``faults[source]``."""
    def before(source):
        if source in faults:
            raise faults[source]
    return before


def _cluster_argv(scene, offsets, *extra):
    return ["cluster", "--scene", str(scene), "--offsets", str(offsets), "--min-points", "40", *extra]


@pytest.mark.parametrize("sets,n_forks", [("p", 1), ("q", 1), ("both", 2)])
def test_only_both_sets_start_a_child_beside_the_loads(capsys, tmp_path, forks, sets, n_forks):
    scene, offsets = gen_scene(capsys, tmp_path)
    forks.clear()
    log, out = tmp_path / "log", tmp_path / "p.pred1"
    fds = _open_fds()
    code, _, err = run(capsys, *_cluster_argv(scene, offsets, "--set", sets, "--out", str(out)))
    _after_the_call(log)
    assert code == 0, err
    assert len(forks) == n_forks and _open_fds() == fds
    config = PipelineConfig(ClusterParams(min_points=40), scorer=Scorer.ORACLE, cluster_sets=sets)
    preds = run_pipeline(load_scene(scene), load_offsets(offsets), config)
    assert out.read_text() == predictions_text(preds)
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_q_fault_keeps_its_type_message_and_point_index(capsys, tmp_path, monkeypatch):
    scene, offsets = gen_scene(capsys, tmp_path)
    injected = SceneError("q fault at point 17", 17)
    _cluster_points_with(monkeypatch, _raise({Source.SHIFTED: injected}))
    loaded = _load_inputs(scene, offsets)
    log = tmp_path / "log"
    with pytest.raises(SceneError) as fault:
        _clusters_beside(*loaded, ClusterParams(min_points=40))
    _after_the_call(log)
    assert (type(fault.value), str(fault.value), fault.value.point_index) == (
        SceneError, "q fault at point 17", 17
    )
    beside = run(capsys, *_cluster_argv(scene, offsets))
    _after_the_call(log)
    monkeypatch.delattr(os, "fork")
    in_turn = run(capsys, *_cluster_argv(scene, offsets))
    assert beside == in_turn == (2, "", "error: q fault at point 17\n")
    assert log.read_text() == f"{os.getpid()}\n" * 2


def test_faults_before_the_q_child_start_none(capsys, tmp_path, monkeypatch, forks):
    # a coverage or scorer-input fault ends the call after the loads' fork,
    # before a Q fault could be made
    scene, offsets = gen_scene(capsys, tmp_path)
    other, _ = gen_scene(capsys, tmp_path, "other", seed="8")
    _cluster_points_with(monkeypatch, _raise({Source.SHIFTED: SceneError("q fault")}))
    log = tmp_path / "log"
    n = load_scene(scene).n_points
    uncovered = run(capsys, *_cluster_argv(other, offsets))
    _after_the_call(log)
    message = f"offset field has {n} points, scene has {load_scene(other).n_points}"
    assert uncovered == (2, "", f"error: {message}\n")
    model = tmp_path / "narrow.scorer"
    zeros = np.zeros(2)
    save_scorer(ScorerModel(zeros, np.ones(2), np.zeros((2, 2)), zeros, zeros, 0.0), model)
    narrow = run(capsys, *_cluster_argv(scene, offsets, "--scorer", "model", "--model", str(model)))
    _after_the_call(log)
    message = "scorer model takes 2-dim descriptors, clusters have 8-dim descriptors"
    assert narrow == (2, "", f"error: {message}\n")
    assert len(forks) == 2
    assert log.read_text() == f"{os.getpid()}\n" * 2


@pytest.mark.parametrize("sets", list(pipeline._SOURCES))
def test_a_scorer_fault_comes_after_the_loads_and_before_any_clustering(
    capsys, tmp_path, monkeypatch, forks, sets
):
    scene, offsets = gen_scene(capsys, tmp_path)
    bare = tmp_path / "bare.sc1"
    save_scene(dataclasses.replace(load_scene(scene), sem_scores=None), bare)
    _cluster_points_with(monkeypatch, _raise({source: AssertionError("clustered") for source in Source}))
    log = tmp_path / "log"
    forks.clear()
    argv = _cluster_argv(bare, offsets, "--scorer", "semprob", "--set", sets)
    assert run(capsys, *argv) == (2, "", "error: semprob scoring needs a scene with sem_scores\n")
    _after_the_call(log)
    assert len(forks) == 1
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_p_fault_is_named_before_a_q_fault(capsys, tmp_path, monkeypatch, forks):
    scene, offsets = gen_scene(capsys, tmp_path)
    _cluster_points_with(monkeypatch, _raise({
        Source.ORIGINAL: SceneError("p fault", 3), Source.SHIFTED: SceneError("q fault", 4)
    }))
    log = tmp_path / "log"
    fds = _open_fds()
    assert run(capsys, *_cluster_argv(scene, offsets)) == (2, "", "error: p fault\n")
    _after_the_call(log)
    assert len(forks) == 2 and _open_fds() == fds
    assert log.read_text() == f"{os.getpid()}\n"


@pytest.mark.parametrize("end", ["exit", "sigterm"])
def test_a_q_child_that_ends_without_a_reply_leaves_q_to_the_parent(
    capsys, tmp_path, monkeypatch, end
):
    scene, offsets = gen_scene(capsys, tmp_path, seed="8", extra=("--sigma0", "0.01", "--beta", "2"))
    log, want, got = tmp_path / "log", tmp_path / "want.pred1", tmp_path / "got.pred1"
    assert run(capsys, *_cluster_argv(scene, offsets, "--out", str(want)))[0] == 0
    parent = os.getpid()

    def child_dies(source):
        if os.getpid() != parent:
            if end == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGTERM)

    _cluster_points_with(monkeypatch, child_dies)
    code, _, err = run(capsys, *_cluster_argv(scene, offsets, "--out", str(got)))
    _after_the_call(log)
    assert code == 0, err
    assert got.read_bytes() == want.read_bytes()
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_sigterm_while_p_clusters_leaves_no_child(capsys, tmp_path, monkeypatch, forks):
    scene, offsets = gen_scene(capsys, tmp_path)
    parent = os.getpid()

    def raise_terminated(*_):
        raise _Terminated

    def terminated_during_p(source):
        if source == Source.ORIGINAL and os.getpid() == parent:
            os.kill(parent, signal.SIGTERM)

    _cluster_points_with(monkeypatch, terminated_during_p)
    previous = signal.signal(signal.SIGTERM, raise_terminated)
    log = tmp_path / "log"
    fds = _open_fds()
    try:
        with pytest.raises(_Terminated):
            dispatch(_cluster_argv(scene, offsets))
        _after_the_call(log)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(forks) == 2 and _open_fds() == fds
    assert log.read_text() == f"{os.getpid()}\n"


def test_without_fork_cluster_writes_the_same_bytes_and_spans(capsys, tmp_path, monkeypatch):
    scene, offsets = gen_scene(capsys, tmp_path, seed="8", extra=("--sigma0", "0.01", "--beta", "2"))
    outputs, stages = {}, ("bq_p", "cl_p", "bq_q", "cl_q", "scoring", "nms")
    for forked in (True, False):
        if not forked:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / f"{forked}.pred1"
        with trace.recording() as spans:
            assert dispatch(_cluster_argv(scene, offsets, "--out", str(out))) == 0
        assert all(spans.get(stage, 0.0) > 0.0 for stage in stages), spans
        outputs[forked] = out.read_bytes()
    assert outputs[True] == outputs[False]


# P's labels go as jobs into one queue, which this process drains while the
# child clusters Q and then drains what is left


def _open_fds():
    """The file descriptors this process holds open."""
    return sorted(os.listdir("/proc/self/fd")) if Path("/proc/self/fd").is_dir() else []


def _clusters_beside(scene, offsets, params):
    """The clusters of ``cli._cluster_beside`` on both sets, which it scores
    with the default model, as any scene allows."""
    return cli._cluster_beside(scene, offsets, PipelineConfig(params), ScorerModel.default())[0]


def _as_tuples(clusters, scores=None):
    """Each cluster as (source, members, class), and its score if given,
    sorted by source and first member: ``cli._cluster_beside`` returns its
    jobs' clusters in job order, and ``nms`` takes them in any order."""
    scores = [None] * len(clusters) if scores is None else scores.tolist()
    return sorted((c.source, c.point_idx.tolist(), c.class_id, s) for c, s in zip(clusters, scores))


def _beside_equals_dual_set(scene, offsets, params):
    """``cli._cluster_beside`` gives ``cluster_dual_set``'s clusters, with a
    child and in turn, and leaves no child and no descriptor."""
    both = (Source.ORIGINAL, Source.SHIFTED)
    want = _as_tuples(cluster_dual_set(scene, offsets, params, both))
    for forked in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not forked:
                patch.delattr(os, "fork")
            fds = _open_fds()
            got = _as_tuples(_clusters_beside(scene, offsets, params))
            assert _open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == want


@pytest.mark.parametrize("scorer", list(Scorer))
def test_the_jobs_score_their_clusters_as_the_library_scores_them_in_turn(capsys, tmp_path, scorer):
    # each job of ``cli._cluster_beside`` scores the clusters it finds: each
    # cluster keeps the score's bits it gets from one whole call
    scene, offsets = gen_scene(capsys, tmp_path, seed="8", extra=("--sigma0", "0.01", "--beta", "2"))
    loaded, model = _load_inputs(scene, offsets), ScorerModel.default()
    config = PipelineConfig(ClusterParams(0.05, 5), scorer=scorer)
    clusters = cluster_dual_set(*loaded, config.cluster_params)
    scores = score_clusters(clusters, *loaded, scorer, model)
    assert len({(c.source, c.class_id) for c in clusters}) > 3
    for forked in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not forked:
                patch.delattr(os, "fork")
            got, got_scores = cli._cluster_beside(*loaded, config, model)
        assert got_scores.dtype == scores.dtype
        assert _as_tuples(got, got_scores) == _as_tuples(clusters, scores)


@settings(max_examples=10)
@given(data=st.data())
def test_shared_labels_give_the_dual_set_clusters_on_oracle_scenes(data):
    drawn = data.draw(oracle_scenes())
    coords, labels = drawn.in_float32()
    n = labels.size
    scores = np.where(labels[:, None] == np.arange(4), 1.0, 0.0)
    scores[labels < 0] = 0.25
    scene = Scene(4, coords, np.zeros((n, 3)), labels, np.full(n, -1), {0}, scores)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    offsets = OffsetField(rng.normal(0.0, drawn.radius, (n, 3)))
    _beside_equals_dual_set(scene, offsets, ClusterParams(drawn.radius, data.draw(st.integers(1, 5))))


def _scene_of_labels(n_labels, n=3000, seed=0):
    """Points in a 0.3 m cube, each of a label drawn from 1 to ``n_labels``
    (0, the stuff class, when ``n_labels`` is 0), and offsets that shift them
    a little."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, n_labels + 1, n) if n_labels else np.zeros(n, dtype=np.int64)
    scene = Scene(max(n_labels, 1) + 1, rng.uniform(0.0, 0.3, (n, 3)), np.zeros((n, 3)),
                  labels, np.full(n, -1), {0})
    return scene, OffsetField(rng.normal(0.0, 0.01, (n, 3)))


@pytest.mark.parametrize("n_labels", [0, 1, 2, cli._JOBS, cli._JOBS + 1, 3 * cli._JOBS])
def test_shared_labels_give_the_dual_set_clusters_for_any_label_count(n_labels):
    # no active point, one label, and more labels than jobs, the smallest of
    # them sharing the last job; the queue is filled before the fork, so a
    # fill that blocked would hang here, and the alarm ends it
    assert cli._JOBS <= 256 and cli._JOBS <= select.PIPE_BUF
    scene, offsets = _scene_of_labels(n_labels)

    def hung(*_):
        raise _Terminated

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        _beside_equals_dual_set(scene, offsets, ClusterParams(0.03, 2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n_labels", [1, 2, cli._JOBS - 1, cli._JOBS, cli._JOBS + 1, 100])
def test_label_jobs_go_largest_first_and_the_smallest_labels_share_the_last(n_labels):
    rng = np.random.default_rng(n_labels)
    labels = np.repeat(rng.permutation(n_labels) * 1000, rng.integers(1, 50, n_labels))
    rng.shuffle(labels)
    job, n_jobs = cli._label_jobs(labels)
    assert n_jobs == min(n_labels, cli._JOBS) and set(job.tolist()) == set(range(n_jobs))
    assert (np.diff(np.bincount(job)) <= 0).all()
    job_of = {label: job[labels == label][0] for label in set(labels.tolist())}
    assert all((job[labels == label] == j).all() for label, j in job_of.items())
    # ties in size go to the smaller label
    ranked = sorted(job_of, key=lambda label: (-(labels == label).sum(), label))
    alone = {job_of[label] for label in ranked[: cli._JOBS - 1]}
    shared = {job_of[label] for label in ranked[cli._JOBS - 1 :]}
    assert len(alone) == min(n_labels, cli._JOBS - 1) and len(shared) <= 1 and not alone & shared


def _claimed_by_the_child(claims, parent, then):
    """A ``before`` for ``_cluster_points_with``: in the child, a P job notes
    its claim in ``claims`` and calls ``then()``; this process waits in its
    first P job until the child has claimed one."""
    def before(source):
        if source != Source.ORIGINAL:
            return
        if os.getpid() != parent:
            claims.write_text("claimed")
            then()
        deadline = time.monotonic() + 30
        while not claims.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
    return before


@pytest.mark.parametrize("end", ["exit", "sigterm"])
def test_p_jobs_a_child_claimed_and_sent_no_reply_for_run_in_the_parent(
    capsys, tmp_path, monkeypatch, forks, end
):
    scene, offsets = gen_scene(capsys, tmp_path)
    log, want, got = tmp_path / "log", tmp_path / "want.pred1", tmp_path / "got.pred1"
    # at r = 0.05 m the original set holds clusters of both its labels
    wide = ("--radius", "0.05")
    assert run(capsys, *_cluster_argv(scene, offsets, *wide, "--out", str(want)))[0] == 0
    claims, parent = tmp_path / "claims", os.getpid()

    def die():
        if end == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGTERM)

    loaded, params, both = _load_inputs(scene, offsets), ClusterParams(0.05, 40), tuple(Source)
    clusters = _as_tuples(cluster_dual_set(*loaded, params, both))
    _cluster_points_with(monkeypatch, _claimed_by_the_child(claims, parent, die))
    fds = _open_fds()
    # NMS may hide a lost P cluster behind its Q twin in the .pred1: the
    # clusters are compared too
    assert _as_tuples(_clusters_beside(*loaded, params)) == clusters
    _after_the_call(log)
    assert claims.exists()
    claims.unlink()
    forks.clear()
    code, _, err = run(capsys, *_cluster_argv(scene, offsets, *wide, "--out", str(got)))
    _after_the_call(log)
    assert (code, err, _open_fds(), len(forks)) == (0, "", fds, 2)
    assert claims.exists()
    assert got.read_bytes() == want.read_bytes()
    assert log.read_text() == f"{os.getpid()}\n" * 2


def test_a_p_fault_in_a_job_the_child_claimed_keeps_its_type_message_and_point_index(
    capsys, tmp_path, monkeypatch
):
    scene, offsets = gen_scene(capsys, tmp_path)
    claims, parent = tmp_path / "claims", os.getpid()

    def fault():
        raise SceneError("p fault at point 5", 5)

    _cluster_points_with(monkeypatch, _claimed_by_the_child(claims, parent, fault))
    loaded = _load_inputs(scene, offsets)
    log = tmp_path / "log"
    fds = _open_fds()
    with pytest.raises(SceneError) as err:
        _clusters_beside(*loaded, ClusterParams(0.05, 40))
    _after_the_call(log)
    assert (type(err.value), str(err.value), err.value.point_index) == (SceneError, "p fault at point 5", 5)
    assert _open_fds() == fds and claims.exists()
    assert log.read_text() == f"{os.getpid()}\n"


@pytest.mark.parametrize("command", ["cluster", "evaluate"])
def test_a_fork_that_fails_runs_both_calls_in_turn(capsys, tmp_path, monkeypatch, command):
    # as where there is no os.fork: both pipe ends are closed, nothing leaks
    scene, offsets = gen_scene(capsys, tmp_path)
    preds = tmp_path / "p.pred1"
    cluster = _cluster_argv(scene, offsets, "--scorer", "semprob", "--out", str(preds))
    argv = cluster if command == "cluster" else ["evaluate", "--scene", str(scene), "--preds", str(preds)]
    assert run(capsys, *cluster)[0] == 0
    want = run(capsys, *argv), preds.read_bytes()

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    fds = _open_fds()
    got = run(capsys, *argv), preds.read_bytes()
    assert _open_fds() == fds
    assert got == want and want[0][0] == 0


# ``evaluate`` parses the second range of its scene's rows in a forked child
# while this process parses the first


def _evaluate_inputs(capsys, tmp_path):
    """A scene, its predictions and the table ``evaluate`` prints when it
    loads the scene with ``load_scene``."""
    scene, offsets = gen_scene(capsys, tmp_path)
    preds = tmp_path / "p.pred1"
    assert run(capsys, *_cluster_argv(scene, offsets, "--out", str(preds)))[0] == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_load_scene", lambda path, beside: load_scene(path))
        code, want, err = run(capsys, "evaluate", "--scene", str(scene), "--preds", str(preds))
    assert code == 0, err
    return scene, preds, want


def _rows_with(monkeypatch, before):
    """Make the scene's range reads call ``before(skip)`` first: a skip of
    the header lines reads the first range, 0 the second."""
    rows = formats._rows

    def wrapped(fh, start, skip, *args):
        before(skip)
        return rows(fh, start, skip, *args)

    monkeypatch.setattr(formats, "_rows", wrapped)


def test_evaluate_reads_its_scene_beside_a_child_and_prints_the_same_table(
    capsys, tmp_path, forks
):
    scene, preds, want = _evaluate_inputs(capsys, tmp_path)
    log = tmp_path / "log"
    forks.clear()
    for _ in range(2):
        assert run(capsys, "evaluate", "--scene", str(scene), "--preds", str(preds)) == (0, want, "")
        _after_the_call(log)
    assert len(forks) == 2
    assert log.read_text() == f"{os.getpid()}\n" * 2


def test_the_library_never_forks(capsys, tmp_path, forks):
    scene, preds, _ = _evaluate_inputs(capsys, tmp_path)
    forks.clear()
    evaluate(load_predictions(preds), load_scene(scene))
    assert forks == []


@pytest.mark.parametrize("at", ["first", "second"])
def test_an_evaluate_fault_in_either_range_is_the_loader_message(capsys, tmp_path, forks, at):
    scene, preds, _ = _evaluate_inputs(capsys, tmp_path)
    n = load_scene(scene).n_points
    _spoil(scene, 5 if at == "first" else n + 3)
    with pytest.raises(FormatError) as fault:
        load_scene(scene)
    assert str(fault.value).startswith(f"line {5 if at == 'first' else n + 3}: ")
    log = tmp_path / "log"
    forks.clear()
    code, out, err = run(capsys, "evaluate", "--scene", str(scene), "--preds", str(preds))
    _after_the_call(log)
    assert (code, out, err) == (2, "", f"error: {fault.value}\n")
    assert len(forks) == 1
    assert log.read_text() == f"{os.getpid()}\n"


@pytest.mark.parametrize("end", ["exit", "sigterm"])
def test_an_evaluate_child_that_ends_without_a_reply_leaves_its_range_to_the_parent(
    capsys, tmp_path, monkeypatch, forks, end
):
    scene, preds, want = _evaluate_inputs(capsys, tmp_path)
    parent = os.getpid()

    def child_dies(skip):
        if os.getpid() != parent:
            if end == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGTERM)

    _rows_with(monkeypatch, child_dies)
    log = tmp_path / "log"
    forks.clear()
    assert run(capsys, "evaluate", "--scene", str(scene), "--preds", str(preds)) == (0, want, "")
    _after_the_call(log)
    assert len(forks) == 1
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_child_that_ends_amid_its_pickled_reply_leaves_its_job_to_the_parent(tmp_path, forks):
    # the child's alarm ends it while it blocks on a full pipe, this process
    # still in its first job: the part of the reply that came is not taken
    parent, here = os.getpid(), []

    def second():
        if os.getpid() == parent:
            here.append(1)
        else:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.setitimer(signal.ITIMER_REAL, 0.05)
        return np.arange(1 << 20)

    log = tmp_path / "log"
    first, got = cli._beside([lambda: time.sleep(0.5), second])
    _after_the_call(log)
    assert first is None and np.array_equal(got, np.arange(1 << 20))
    assert here == [1] and len(forks) == 1
    assert log.read_text() == f"{os.getpid()}\n"


def _fork_as(monkeypatch, fork):
    """Leave ``os.fork`` as it is (``present``), take it away (``missing``)
    or make it raise ``EAGAIN`` (``failing``)."""
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    elif fork == "failing":
        def fails():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fails)


@pytest.mark.parametrize("fork", ["present", "missing", "failing"])
@pytest.mark.parametrize("end", ["reply", "exit-1", "exit-2", "sigterm"])
@pytest.mark.parametrize("n_jobs", [2, 3, 17])
def test_beside_returns_each_job_value_and_leaves_no_child_or_descriptor(
    tmp_path, monkeypatch, n_jobs, end, fork
):
    # the child replies, exits after its first or second job, or ends by
    # SIGTERM in its first; this process meets the jobs as it would in turn,
    # jobs[0], jobs[2:], then jobs[1], those the child left included
    parent, mine, theirs = os.getpid(), [], []

    def job(k):
        def call():
            time.sleep(0.002)
            if os.getpid() == parent:
                mine.append(k)
            else:
                theirs.append(k)
                if end == "sigterm":
                    os.kill(os.getpid(), signal.SIGTERM)
                if end == f"exit-{len(theirs)}":
                    os._exit(3)
            return k, np.full(k, float(k))
        return call

    _fork_as(monkeypatch, fork)
    log, fds = tmp_path / "log", _open_fds()
    got = cli._beside([job(k) for k in range(n_jobs)])
    _after_the_call(log)
    assert [(k, v.tolist()) for k, v in got] == [(k, [float(k)] * k) for k in range(n_jobs)]
    assert _open_fds() == fds and len(set(mine)) == len(mine) and mine[0] == 0
    assert 1 not in mine[:-1]  # the last job this process meets, rerun or not
    if fork != "present":
        assert mine == [0, *range(2, n_jobs), 1]
    elif end in ("reply", "exit-1", "sigterm"):
        assert (1 in mine) == (end != "reply")
    assert log.read_text() == f"{os.getpid()}\n"


@pytest.mark.parametrize("fork", ["present", "missing", "failing"])
def test_a_fault_in_the_smallest_p_job_is_raised_before_a_q_fault(tmp_path, monkeypatch, forks, fork):
    # in turn P's jobs come before Q, which is jobs[1]: a runner that ran
    # what is left in index order would raise the Q fault
    scene, offsets = _scene_of_labels(5)
    _, labels, active = clustering._active_points(scene.coords, scene.sem_labels, scene.stuff_classes)
    job, n_jobs = cli._label_jobs(labels[active])
    smallest = labels[active][job == n_jobs - 1][0]
    kernel = clustering._cluster_points

    def faulty(coords, sem_labels, active_idx, params, source):
        if source == Source.SHIFTED:
            raise SceneError("q fault", 4)
        if sem_labels[active_idx[0]] == smallest:
            raise SceneError("p fault", 3)
        return kernel(coords, sem_labels, active_idx, params, source)

    monkeypatch.setattr(clustering, "_cluster_points", faulty)
    monkeypatch.setattr(cli, "_cluster_points", faulty)
    _fork_as(monkeypatch, fork)
    log, fds = tmp_path / "log", _open_fds()
    with pytest.raises(SceneError) as fault:
        _clusters_beside(scene, offsets, ClusterParams(0.03, 2))
    _after_the_call(log)
    assert (str(fault.value), fault.value.point_index) == ("p fault", 3)
    assert n_jobs == 5 and _open_fds() == fds and len(forks) == (fork == "present")
    assert log.read_text() == f"{os.getpid()}\n"


def test_a_sigterm_while_evaluate_parses_its_range_leaves_no_child(
    capsys, tmp_path, monkeypatch, forks
):
    scene, preds, _ = _evaluate_inputs(capsys, tmp_path)
    parent = os.getpid()

    def raise_terminated(*_):
        raise _Terminated

    def terminated_in_the_first_range(skip):
        if skip and os.getpid() == parent:
            os.kill(parent, signal.SIGTERM)

    _rows_with(monkeypatch, terminated_in_the_first_range)
    previous = signal.signal(signal.SIGTERM, raise_terminated)
    log = tmp_path / "log"
    forks.clear()
    try:
        with pytest.raises(_Terminated):
            dispatch(["evaluate", "--scene", str(scene), "--preds", str(preds)])
        _after_the_call(log)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(forks) == 1
    assert log.read_text() == f"{os.getpid()}\n"


def test_evaluate_in_its_own_process_warns_of_nothing_and_leaves_no_child(capsys, tmp_path):
    # -W always, as for cluster: a warning about fork would be printed
    scene, preds, want = _evaluate_inputs(capsys, tmp_path)
    argv = ["evaluate", "--scene", str(scene), "--preds", str(preds)]
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "cloudinst.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", want), done.stderr
    # a child left running would still hold the command line that names ``preds``
    if Path("/proc").is_dir():
        for proc in Path("/proc").iterdir():
            try:
                assert str(preds).encode() not in (proc / "cmdline").read_bytes()
            except OSError:  # not a process, or one that has ended
                pass


def _outcome(call):
    """``call()``, or the type and message of the fault it raises."""
    try:
        return call()
    except Exception as err:
        return type(err), str(err)


def test_cluster_scores_an_offset_near_the_float64_limit(capsys, tmp_path):
    # the descriptors read the offset clipped to the float32 range, and
    # MODEL scores its P cluster
    scene, offsets = float64_limit_offset_scene()
    paths = {name: tmp_path / name for name in ("s.sc1", "s.off1", "m.scorer", "p.pred1")}
    save_scene(scene, paths["s.sc1"])
    save_offsets(offsets, paths["s.off1"])
    save_scorer(ScorerModel.default(), paths["m.scorer"])
    code, _, err = run(
        capsys, "cluster", "--scene", str(paths["s.sc1"]), "--offsets", str(paths["s.off1"]),
        "--scorer", "model", "--model", str(paths["m.scorer"]), "--radius", "0.05",
        "--min-points", "1", "--out", str(paths["p.pred1"]),
    )
    assert (code, err) == (0, "")
    preds = load_predictions(paths["p.pred1"])
    assert preds and all(0.0 <= p.score <= 1.0 for p in preds)


@settings(max_examples=6)
@given(data=st.data())
def test_cluster_writes_what_the_library_predicts_on_oracle_scenes(data):
    # an offset near 1.7e308 on a point of a P cluster is read within the
    # float32 range by the MODEL scorer's descriptors in both
    drawn = data.draw(oracle_scenes())
    coords, labels = drawn.in_float32()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, n_classes = labels.size, 4
    scores = np.where(labels[:, None] == np.arange(n_classes), 1.0, 0.0)
    scores[labels < 0] = 1.0 / n_classes
    scene = Scene(n_classes, coords, np.zeros((n, 3)), labels, np.full(n, -1), {0}, scores)
    shift = rng.normal(0.0, drawn.radius, (n, 3))
    # a few points shifted beyond the float32 range, where no Q cluster holds them
    far = rng.choice(n, data.draw(st.integers(0, 3)), replace=False)
    shift[far] = rng.choice([-1.7e308, 1.7e308], (far.size, 3))
    min_points = data.draw(st.integers(1, 5))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in ("s.sc1", "s.off1", "m.scorer", "p.pred1")}
        save_scene(scene, paths["s.sc1"])
        save_offsets(OffsetField(shift), paths["s.off1"])
        save_scorer(ScorerModel.default(), paths["m.scorer"])
        loaded, loaded_offsets = load_scene(paths["s.sc1"]), load_offsets(paths["s.off1"])
        for scorer, model in [(Scorer.MODEL, ScorerModel.default()), (Scorer.SEMPROB, None)]:
            argv = [
                "cluster", "--scene", paths["s.sc1"], "--offsets", paths["s.off1"],
                "--scorer", scorer.value, "--radius", repr(drawn.radius),
                "--min-points", str(min_points), "--out", paths["p.pred1"],
            ] + (["--model", paths["m.scorer"]] if model is not None else [])
            config = PipelineConfig(ClusterParams(drawn.radius, min_points), scorer=scorer)

            def in_cli():
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = dispatch(argv)
                return code, err.getvalue() or Path(paths["p.pred1"]).read_text()

            def in_library():
                try:
                    return 0, predictions_text(run_pipeline(loaded, loaded_offsets, config, model=model))
                except (ValueError, OSError, MemoryError) as err:  # as dispatch reports them
                    return 2, f"error: {err}\n"

            with contextlib.suppress(FileNotFoundError):
                os.remove(paths["p.pred1"])
            assert _outcome(in_cli) == _outcome(in_library)
