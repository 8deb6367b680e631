"""The cloudinst benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 35 --trace 0

A closed loop with one client: the process sets up once (import, scorer
training, warm-up), then runs one scene at a time through the user's path,
`cloudinst cluster` (.sc1/.off1 in, .pred1 out) followed by
`cloudinst evaluate` against the clean ground truth, until --seconds have
passed.  With --trace 1 each scene also goes through the same work composed
from the modules' public functions, timed call by call, and the result
holds per-layer metrics instead of end-to-end ones.

Every time is wall time rescaled to a fixed host speed by calibrations run
next to each timed call (hostspeed.py), because the shared host's speed
drifts by up to 2x.  The unscaled wall times are printed and kept in the
record too.

The last stdout line is the result as JSON; the lines before it print every
metric by name and unit.  The full record, with provenance, per-scene
samples and spans, is written under --results.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from hostspeed import REFERENCE_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BENCHMARK.json gates clean and offset-noise; label-noise is for studies by
# hand, because its one ~20 s cluster call per run does not track the host
# speed calibration (README.md)
WORKLOADS = ("clean", "offset-noise", "label-noise")
SETUP_REPEATS = 3
MIN_EVALUATES = 9
RADIUS = 0.03
NMS_IOU = 0.3


def blas_cap() -> int:
    """Cap BLAS thread pools at the cores this process may run on.

    Must run before numpy is imported.
    """
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def git_state() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


class Spans:
    """Spans recorded around calls into the program, kept in memory.

    Spans hold wall times; ``scale[scene]`` rescales one scene's spans to the
    reference host speed.
    """

    def __init__(self):
        self.records: list[dict] = []
        self.scale: dict[int, float] = {}
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, scene: int):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append(
                {"name": name, "parent": parent, "scene": scene, "start": start, "end": end}
            )

    def total(self, name: str, scene: int, parent: str | None = None) -> float:
        """Scaled time in spans called ``name`` for one scene, under ``parent``
        if given."""
        return self.scale[scene] * sum(
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["scene"] == scene
            and (parent is None or r["parent"] == parent)
        )


def cli(args: list[str]) -> tuple[int, str]:
    """Run one `cloudinst` command in-process; returns (exit code, output)."""
    from cloudinst.cli import dispatch

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = dispatch(args)
    return code, out.getvalue()


def cluster_args(paths: dict, model: str, out: str, scene="scene", offsets="offsets"):
    return [
        "cluster", "--scene", paths[scene], "--offsets", paths[offsets],
        "--scorer", "model", "--model", model, "--threads", "1", "--out", out,
    ]


def mean_row(table: str) -> list[float]:
    """map, ap50, ap25 from the `mean` row of `cloudinst evaluate` output."""
    for line in table.splitlines():
        toks = line.split()
        if toks and toks[0] == "mean":
            return [float(t) for t in toks[1:4]]
    raise ValueError(f"no mean row in evaluate output: {table!r}")


class CheckError(Exception):
    """An output of the program is not what the benchmark expects."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def same_predictions(a, b) -> bool:
    return len(a) == len(b) and all(
        p.class_id == q.class_id and p.score == q.score
        and p.point_idx.shape == q.point_idx.shape
        and bool((p.point_idx == q.point_idx).all())
        for p, q in zip(a, b)
    )


def setup_round(corpus, paths: dict, model_path: str) -> tuple[object, float]:
    """Train the scorer and warm up once; returns (model, train_scorer wall s)."""
    import cloudinst as ci

    t0 = time.perf_counter()
    model = ci.train_scorer(corpus).model
    train_s = time.perf_counter() - t0
    ci.save_scorer(model, model_path)
    warm_pred = str(Path(model_path).with_name("warm.pred1"))
    code, out = cli(cluster_args(paths, model_path, warm_pred, "warm_scene", "warm_offsets"))
    if code != 0:
        raise RuntimeError(f"warm-up cluster failed: {out}")
    code, out = cli(["evaluate", "--scene", paths["warm_scene"], "--preds", warm_pred])
    if code != 0:
        raise RuntimeError(f"warm-up evaluate failed: {out}")
    return model, train_s


def setup(paths: dict, model_path: str, speed: HostSpeed) -> tuple[list, list[float], object]:
    """Train the scorer and warm up, SETUP_REPEATS times.

    Returns (wall, scaled) seconds of each repeat, the scaled time of each
    train_scorer call, and the last trained model.
    """
    from bench_inputs import training_corpus

    corpus = training_corpus()
    times, train_times = [], []
    for _ in range(SETUP_REPEATS):
        (model, train_s), wall, scaled = speed.timed(setup_round, corpus, paths, model_path)
        times.append((wall, scaled))
        train_times.append(train_s * scaled / wall)
    return times, train_times, model


def evaluate_once(paths: dict, pred_path: str, speed: HostSpeed) -> tuple[float, float, str]:
    """`cloudinst evaluate` against the clean ground truth;
    (wall s, scaled s, table)."""
    (code, table), wall, scaled = speed.timed(
        cli, ["evaluate", "--scene", paths["truth"], "--preds", pred_path]
    )
    check(code == 0, f"cloudinst evaluate exited {code}: {table.strip()}")
    return wall, scaled, table


def check_table(table: str, reference: dict) -> None:
    printed = mean_row(table)
    check(
        all(abs(a - b) <= 5e-5 for a, b in zip(printed, reference["ap"])),
        f"evaluate printed {printed}, in-process evaluate gives {reference['ap']}",
    )


def untraced_scene(paths: dict, model_path: str, pred_path: str, speed: HostSpeed) -> dict:
    """The user's path: `cloudinst cluster` then `cloudinst evaluate`."""
    (code, out), cluster_wall, cluster_s = speed.timed(
        cli, cluster_args(paths, model_path, pred_path)
    )
    check(code == 0, f"cloudinst cluster exited {code}: {out.strip()}")
    evaluate_wall, evaluate_s, table = evaluate_once(paths, pred_path, speed)
    return {
        "cluster_s": cluster_s, "evaluate_s": evaluate_s,
        "cluster_wall_s": cluster_wall, "evaluate_wall_s": evaluate_wall, "table": table,
    }


def traced_scene(paths: dict, model, pred_path: str, spans: Spans, k: int) -> dict:
    """The same work composed from public functions, one span per call.

    The spatial probes run after both paths, outside their spans, so they
    add nothing to the traced path times.
    """
    import numpy as np

    import cloudinst as ci
    from bench_inputs import active_mask, grid_stats

    params = ci.ClusterParams(radius=RADIUS)
    with spans.span("cluster_path", k):
        with spans.span("formats.load_scene_s", k):
            scene = ci.load_scene(paths["scene"])
        with spans.span("formats.load_offsets_s", k):
            offsets = ci.load_offsets(paths["offsets"])
        with spans.span("core.shifted_coords_s", k):
            q = ci.shifted_coords(scene, offsets)
        with spans.span("clustering.cluster_s.p", k):
            clusters_p = ci.cluster_single_set(
                scene.coords, scene.sem_labels, scene.stuff_classes, params, ci.Source.ORIGINAL
            )
        with spans.span("clustering.cluster_s.q", k):
            clusters_q = ci.cluster_single_set(
                q, scene.sem_labels, scene.stuff_classes, params, ci.Source.SHIFTED
            )
        clusters = clusters_p + clusters_q
        with spans.span("scoring.score_clusters_s", k):
            scores = ci.score_clusters(clusters, scene, offsets, ci.Scorer.MODEL, model=model)
        with spans.span("pipeline.nms_s", k):
            kept = ci.nms(clusters, scores, NMS_IOU)
        preds = [
            ci.InstancePrediction(
                point_idx=clusters[i].point_idx,
                class_id=clusters[i].class_id,
                score=float(np.clip(scores[i], 0.0, 1.0)),
            )
            for i in kept
        ]
        with spans.span("formats.save_predictions_s", k):
            ci.save_predictions(preds, pred_path)
    with spans.span("evaluate_path", k):
        with spans.span("formats.load_scene_s", k):
            truth = ci.load_scene(paths["truth"])
        with spans.span("formats.load_predictions_s", k):
            loaded = ci.load_predictions(pred_path)
        with spans.span("evaluation.evaluate_s", k):
            result = ci.evaluate(loaded, truth)

    active = active_mask(scene.sem_labels, scene.stuff_classes)
    with spans.span("spatial.build_index_s.p", k):
        ci.build_index(scene.coords[active], RADIUS)
    with spans.span("spatial.build_index_s.q", k):
        ci.build_index(q[active], RADIUS)
    grid_q = grid_stats(q[active], RADIUS)
    kept_q = sum(1 for i in kept if clusters[i].source is ci.Source.SHIFTED)
    counts = {
        "spatial.active_points": int(active.sum()),
        "spatial.cells.q": grid_q["cells"],
        "spatial.max_cell_points.q": grid_q["max_cell_points"],
        "spatial.pair_bound.q": grid_q["pair_bound"],
        "clustering.clusters.p": len(clusters_p),
        "clustering.clusters.q": len(clusters_q),
        "pipeline.kept.p": len(kept) - kept_q,
        "pipeline.kept.q": kept_q,
        "pipeline.kept_ratio": len(kept) / len(clusters) if clusters else 0.0,
        "formats.bytes_read": sum(
            os.path.getsize(paths[role]) for role in ("scene", "offsets", "truth")
        ) + os.path.getsize(pred_path),
    }
    return {"preds": preds, "eval": result, "counts": counts}


def run_scene(k, paths, model_path, model, work, trace, spans, reference, speed) -> dict:
    """One scene through the untraced path (and the traced one with --trace 1),
    with every output check.  Raises on any failure."""
    import cloudinst as ci

    pred_path = str(work / "scene.pred1")
    sample = untraced_scene(paths, model_path, pred_path, speed)
    pred_bytes = Path(pred_path).read_bytes()
    if "pred_bytes" not in reference:
        preds = ci.load_predictions(pred_path)
        check(len(preds) > 0, "no predictions")
        result = ci.evaluate(preds, ci.load_scene(paths["truth"]))
        reference.update(
            pred_bytes=pred_bytes, preds=preds,
            ap=[result.map, result.ap50, result.ap25],
        )
    check(pred_bytes == reference["pred_bytes"], f"scene {k}: .pred1 differs from scene 0")
    check_table(sample.pop("table"), reference)
    if reference["workload"] == "clean":
        check(reference["ap"] == [1.0, 1.0, 1.0], f"clean AP/AP50/AP25 {reference['ap']} != 1.0")
    if trace:
        traced, wall, scaled = speed.timed(
            traced_scene, paths, model, str(work / "traced.pred1"), spans, k
        )
        spans.scale[k] = scaled / wall
        check(
            same_predictions(traced["preds"], reference["preds"]),
            f"scene {k}: .pred1 does not parse back to the composed predictions",
        )
        check(
            Path(work / "traced.pred1").read_bytes() == pred_bytes,
            f"scene {k}: composed predictions serialise differently from .pred1",
        )
        res = traced["eval"]
        check(
            [res.map, res.ap50, res.ap25] == reference["ap"],
            f"scene {k}: composed evaluate differs from the untraced one",
        )
        sample["counts"] = traced["counts"]
    return sample


def end_to_end(samples, evaluates, setup_times, import_s, n_points, reference, ok_frac) -> dict:
    """End-to-end metrics; every time is scaled to the reference host speed."""
    cluster = [s["cluster_s"] for s in samples]
    return {
        "setup_s": (import_s + median(scaled for _, scaled in setup_times), "s"),
        "cluster_s.p50": (median(cluster), "s"),
        "evaluate_s.p50": (median(scaled for _, scaled in evaluates), "s"),
        "points_per_s": (n_points * len(cluster) / sum(cluster), "points/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "map": (reference["ap"][0], "ratio"),
        "ap50": (reference["ap"][1], "ratio"),
        "ap25": (reference["ap"][2], "ratio"),
        "ok_frac": (ok_frac, "ratio"),
    }


SPAN_METRICS = (
    "formats.load_scene_s", "formats.load_offsets_s", "formats.save_predictions_s",
    "formats.load_predictions_s", "core.shifted_coords_s",
    "spatial.build_index_s.p", "spatial.build_index_s.q",
    "clustering.cluster_s.p", "clustering.cluster_s.q",
    "scoring.score_clusters_s", "pipeline.nms_s", "evaluation.evaluate_s",
)
COUNT_UNITS = {
    "formats.bytes_read": "bytes",
    "spatial.active_points": "count",
    "spatial.cells.q": "count",
    "spatial.max_cell_points.q": "count",
    "spatial.pair_bound.q": "count",
    "clustering.clusters.p": "count",
    "clustering.clusters.q": "count",
    "pipeline.kept.p": "count",
    "pipeline.kept.q": "count",
    "pipeline.kept_ratio": "ratio",
}


def per_layer(samples, scenes, spans, train_times) -> dict:
    out = {
        name: (median([spans.total(name, k) for k in scenes]), "s")
        for name in SPAN_METRICS
    }
    for name, unit in COUNT_UNITS.items():
        out[name] = (median([s["counts"][name] for s in samples]), unit)
    out["scoring.train_scorer_s"] = (median(train_times), "s")
    out["trace.overhead_s"] = (
        median([spans.total("cluster_path", k) - s["cluster_s"] for k, s in zip(scenes, samples)]),
        "s",
    )
    return out


def cluster_path_shares(spans: Spans, scenes: list[int]) -> list[str]:
    """How the traced cluster path splits among its child spans."""
    path = median([spans.total("cluster_path", k) for k in scenes])
    lines = [f"  cluster path (traced, median over {len(scenes)} scenes) {path:.4f} s"]
    children = sorted({r["name"] for r in spans.records if r["parent"] == "cluster_path"})
    for name in children:
        t = median([spans.total(name, k, "cluster_path") for k in scenes])
        lines.append(f"  cluster path: {name:28s} {t:9.4f} s  {100.0 * t / path:5.1f} %")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(ROOT / ".perfbench" / "results"),
                   help="directory for the full run record")
    args = p.parse_args(argv)

    # let `finally` remove the work directory when the run is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cap = blas_cap()
    if not (SRC / "cloudinst" / "__init__.py").is_file():
        print(f"error: no cloudinst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        # inputs first: their child process has ended before the import is timed
        made = subprocess.run(
            [sys.executable, str(HERE / "bench_inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            capture_output=True, text=True, timeout=170,
        )
        if made.returncode != 0:
            print(f"error: input generation failed:\n{made.stderr}", file=sys.stderr)
            return 2
        inputs = json.loads(made.stdout.splitlines()[-1])
        paths, n_points = inputs["paths"], inputs["n_points"]

        speed = HostSpeed()
        cloudinst, import_wall, import_s = speed.timed(importlib.import_module, "cloudinst")
        if Path(cloudinst.__file__).resolve().parent != SRC / "cloudinst":
            print(f"error: imported cloudinst from {cloudinst.__file__}", file=sys.stderr)
            return 2
        import numpy
        import scipy

        model_path = str(work / "model.scorer")
        setup_times, train_times, model = setup(paths, model_path, speed)

        if args.trace:
            # the first large cluster call in a process runs slower (a fresh
            # heap), so a discarded one keeps it out of trace.overhead_s
            untraced_scene(paths, model_path, str(work / "scene.pred1"), speed)
        spans = Spans()
        reference = {"workload": args.workload}
        samples, scenes, failures = [], [], []
        n_scenes = 0
        loop_start = time.perf_counter()
        while True:
            k = n_scenes
            n_scenes += 1
            try:
                samples.append(
                    run_scene(
                        k, paths, model_path, model, work, args.trace, spans, reference, speed
                    )
                )
                scenes.append(k)
            except Exception as err:  # every failure is counted, never dropped
                failures.append(f"scene {k}: {type(err).__name__}: {err}")
                print(f"FAILED {failures[-1]}", file=sys.stderr)
            elapsed = time.perf_counter() - loop_start
            # stop when one more scene of average length would end past --seconds
            if elapsed * (n_scenes + 1) / n_scenes > args.seconds:
                break
        # an offset-noise run holds ~5 scenes and a label-noise run one; more
        # evaluate calls on the last predictions keep evaluate_s a median
        evaluates = [(s["evaluate_wall_s"], s["evaluate_s"]) for s in samples]
        n_extra = 0
        while not args.trace and not failures and len(evaluates) < MIN_EVALUATES:
            n_extra += 1
            try:
                wall, scaled, table = evaluate_once(paths, str(work / "scene.pred1"), speed)
                check_table(table, reference)
                evaluates.append((wall, scaled))
            except Exception as err:
                failures.append(f"extra evaluate {n_extra}: {type(err).__name__}: {err}")
                print(f"FAILED {failures[-1]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = n_scenes + n_extra
    failed = len(failures)
    if not samples:
        metrics = {}
    elif args.trace:
        metrics = per_layer(samples, scenes, spans, train_times)
    else:
        metrics = end_to_end(samples, evaluates, setup_times, import_s, n_points, reference,
                             (attempted - failed) / attempted)
    provenance = {
        **git_state(),
        "nproc": os.cpu_count(),
        "blas_thread_cap": cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "points_per_scene": n_points,
        "scenes": n_scenes,
        "extra_evaluates": n_extra,
        "reference_calibration_s": REFERENCE_S,
        "calibration_s.p50": median(speed.calibrations),
    }
    result = {
        "correct": failed == 0 and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "provenance": provenance, "result": result, "failures": failures,
        "samples": [{k: v for k, v in s.items() if k != "counts"} for s in samples],
        # each pair below is (wall s, s scaled to the reference host speed)
        "evaluate_s": evaluates, "setup_s": setup_times,
        "import_s": [import_wall, import_s], "calibrations": speed.calibrations,
        "span_scale": spans.scale, "spans": spans.records,
    }
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  scenes {n_scenes}  "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6g} {unit}")
    if samples and not args.trace:
        print(f"  unscaled wall times: cluster p50 "
              f"{median(s['cluster_wall_s'] for s in samples):.4f} s, evaluate p50 "
              f"{median(wall for wall, _ in evaluates):.4f} s, calibration p50 "
              f"{median(speed.calibrations):.4f} s (reference {REFERENCE_S} s)")
    if args.trace and samples:
        print("\n".join(cluster_path_shares(spans, scenes)))
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
