"""Command-line interface: generate, cluster, evaluate, bench, gradcheck,
train-scorer.

Exit codes: 0 success, 1 usage error, 2 validation or runtime error.
Diagnostics go to stderr; results go to stdout or to --out files.  The
parsed argparse namespace is the run's configuration: a flag that sets a
field of ``GenConfig``, ``ClusterParams`` or ``PipelineConfig`` is stored
under that field's name, and ``_config`` builds the dataclass from it.  The
defaults are read from the library (those three, ``GRAD_TOLERANCE`` and the
keyword defaults of ``train_scorer`` and ``run_bench``), and the library
checks every input: this module parses, dispatches and prints.  ``_beside``
runs a list of jobs on two processes, which take them from one queue: the
loads of a scene and of its offsets; in ``cluster`` the shifted set's
clustering and the original set's, as jobs of whole labels, each scoring
the clusters it finds (``_cluster_beside``); and in ``evaluate`` the two
ranges of the truth scene's rows (``formats._load_scene``).  The library
runs each whole and in turn, and hands ``pipeline._predict`` the clusters
and scores that ``cluster`` hands it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import pickle
import signal
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .clustering import ClusterParams, _active_points, _cluster_points, cluster_dual_set
from .core import Cluster, OffsetField, Scene, SceneError, Source, check_offsets, check_seed
from .evaluation import PR_SCORE_FILTER, evaluate
from .formats import (
    _load_scene,
    load_offsets,
    load_predictions,
    load_scene,
    load_scorer,
    predictions_text,
    save_offsets,
    save_predictions,
    save_scene,
    save_scorer,
)
from .losses import (
    GRAD_TOLERANCE,
    gradient_check,
    offset_direction_grad,
    offset_direction_loss,
    offset_objective,
    offset_regression_grad,
    offset_regression_loss,
    offset_targets,
)
from .pipeline import _SOURCES, PipelineConfig, _predict
from .scoring import Scorer, ScorerModel, _scorer, row_widths, scorer_objective, train_scorer
from .synth import GenConfig, generate_sample, generate_scene
from .trace import record, recording

_GEN = GenConfig()
_PIPELINE = PipelineConfig()
_CLUSTER = ClusterParams()
_JOBS = 16  # most jobs P is split into (``_beside`` takes at most 256)


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_cluster_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius", type=float, default=_CLUSTER.radius)
    p.add_argument("--min-points", type=int, default=_CLUSTER.min_points)


def _add_pipeline_options(p: argparse.ArgumentParser, scorer: str) -> None:
    """The options ``cluster`` and ``bench`` share."""
    p.add_argument("--scene", required=True)
    p.add_argument("--offsets", required=True)
    p.add_argument("--scorer", choices=[s.value for s in Scorer], default=scorer)
    p.add_argument("--model", default=None, help="scorer model path (.scorer)")
    _add_cluster_params(p)
    p.add_argument("--nms-iou", type=float, default=_PIPELINE.nms_iou)


def _build_parser() -> _Parser:
    p = _Parser(prog="cloudinst", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="write a synthetic scene (.sc1) and offsets (.off1)")
    g.add_argument("--seed", type=int, default=_GEN.seed)
    g.add_argument("--out", required=True, help="scene output path (.sc1)")
    g.add_argument("--offsets-out", default=None, help="offset output path (default: scene path with .off1)")
    g.add_argument("--n-objects", type=int, default=_GEN.n_objects)
    g.add_argument("--room", type=float, nargs=3, default=list(_GEN.room), metavar=("LX", "LY", "LZ"))
    g.add_argument("--density", type=float, default=_GEN.density)
    g.add_argument("--stuff-density", type=float, default=_GEN.stuff_density)
    g.add_argument("--min-gap", type=float, default=_GEN.min_gap)
    g.add_argument("--same-class-gap", type=float, default=_GEN.same_class_gap)
    g.add_argument("--p-sem", type=float, default=_GEN.p_sem)
    g.add_argument("--temperature", type=float, default=_GEN.sem_temperature,
                   dest="sem_temperature", metavar="TEMPERATURE")
    g.add_argument("--sigma0", type=float, default=_GEN.sigma0)
    g.add_argument("--beta", type=float, default=_GEN.beta)

    c = sub.add_parser("cluster", help="run clustering + scoring + NMS, write predictions (.pred1)")
    _add_pipeline_options(c, scorer=Scorer.ORACLE.value)
    c.add_argument("--set", choices=list(_SOURCES), default=_PIPELINE.cluster_sets,
                   dest="cluster_sets")
    c.add_argument("--min-score", type=float, default=_PIPELINE.min_score)
    # ignored; perfbench/run.py still passes it
    c.add_argument("--threads", help=argparse.SUPPRESS)
    c.add_argument("--out", default=None, help="predictions path (default: stdout)")

    e = sub.add_parser("evaluate", help="score predictions against a scene's ground truth")
    e.add_argument("--scene", required=True)
    e.add_argument("--preds", required=True)
    e.add_argument("--score-filter", type=float, default=PR_SCORE_FILTER)
    e.add_argument("--tsv", action="store_true")

    b = sub.add_parser("bench", help="time the pipeline stages on a scene")
    _add_pipeline_options(b, scorer=_PIPELINE.scorer.value)
    b.add_argument("--repeats", type=int, default=_default(bench_mod.run_bench, "repeats"))
    b.add_argument("--tsv", action="store_true")

    gc = sub.add_parser("gradcheck", help="verify analytic loss gradients against central differences")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tolerance", type=float, default=GRAD_TOLERANCE)

    t = sub.add_parser("train-scorer", help="train the cluster scorer on scene/offset file pairs")
    t.add_argument("scenes", nargs="+", help=".sc1 paths; offsets are read from matching .off1 files")
    t.add_argument("--out", required=True, help="model output path")
    t.add_argument("--hidden", type=int, default=_default(train_scorer, "hidden"))
    t.add_argument("--lr", type=float, default=_default(train_scorer, "lr"))
    t.add_argument("--epochs", type=int, default=_default(train_scorer, "epochs"))
    t.add_argument("--seed", type=int, default=_default(train_scorer, "seed"))
    _add_cluster_params(t)
    return p


def _offsets_path(scene_path: str, explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(scene_path).with_suffix(".off1")


def _beside(jobs):
    """``[job() for job in jobs]`` (two to 256 jobs) on two processes: this
    one calls ``jobs[0]`` and a forked child ``jobs[1]``, then each takes the
    rest in order from one queue, a pipe of one-byte job ids filled before
    the fork (a read of one byte is atomic, so each job goes to one process).
    The child pickles back ``{index: value}`` or its fault, and its spans
    (see ``trace``).  A job left with no value runs here: the child ended
    without a reply, or there is no ``os.fork`` or it fails.  This process
    meets the jobs in the order ``jobs[0]``, ``jobs[2:]``, ``jobs[1]``, and
    raises a fault of its own before the child's, as in turn; the child is
    killed and reaped however this call ends.
    It is a process, not a thread: numpy's text reader holds the GIL, and
    two clusterings in threads keep both peaks in one process."""
    done, reply, pid = {}, None, None

    def take(first):
        done[first] = jobs[first]()
        while claimed := os.read(queue, 1):
            done[claimed[0]] = jobs[claimed[0]]()

    queue, fill = os.pipe()
    try:
        with open(fill, "wb") as ids:  # at most 254 bytes: fills no pipe
            ids.write(bytes(range(2, len(jobs))))
        read_end, write_end = os.pipe()
        try:
            pid = os.fork() if hasattr(os, "fork") else None
        except OSError:  # EAGAIN or ENOMEM: no second process to be had
            pass
        if pid == 0:
            try:  # the child never unwinds into the caller's code
                os.close(read_end)
                with recording() as spans:
                    try:
                        take(1)
                        reply = True, done
                    except Exception as err:
                        reply = False, err
                with open(write_end, "wb") as pipe:
                    pickle.dump((reply, spans), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        try:
            os.close(write_end)
            with open(read_end, "rb") as pipe:
                take(0)
                try:
                    reply, spans = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # no child, or it ended without one
                    pass
        finally:
            if pid:
                if reply is None:  # its reply is not wanted or will not come
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    finally:
        os.close(queue)
    if reply is not None:
        record(spans)
        ok, theirs = reply
        if not ok:
            raise theirs
        done.update(theirs)
    for k in (0, *range(2, len(jobs)), 1):
        if k not in done:
            done[k] = jobs[k]()
    return [done[k] for k in range(len(jobs))]


def _load_inputs(scene_path, offsets_path) -> tuple[Scene, OffsetField]:
    """``load_scene(scene_path)`` and ``load_offsets(offsets_path)`` at once."""
    return tuple(_beside([lambda: load_scene(scene_path), lambda: load_offsets(offsets_path)]))


def _cluster_beside(scene, offsets, config, model) -> tuple[list[Cluster], np.ndarray]:
    """The clusters of ``config``'s sets and their scores, in job order, for
    ``pipeline._predict``.  One set is one whole job; both are the jobs of
    one ``_beside`` call, each scoring the clusters it finds: the original
    set P's largest label, the shifted set Q whole, then P's other labels,
    largest first (Graham 1969), so the last jobs taken are small.  Scorer
    inputs, then offset coverage, are checked before any clustering."""
    sources, params = _SOURCES[config.cluster_sets], config.cluster_params
    score = _scorer(scene, offsets, config.scorer, model)

    def scored(clusters):
        return clusters, score(clusters)

    def whole(source):
        return lambda: scored(cluster_dual_set(scene, offsets, params, (source,)))

    if len(sources) < 2:
        return whole(*sources)()
    check_offsets(scene, offsets)  # a coverage fault before the fork
    coords, labels, active = _active_points(scene.coords, scene.sem_labels, scene.stuff_classes)
    job, n_jobs = _label_jobs(labels[active])

    def p(j):
        return lambda: scored(_cluster_points(coords, labels, active[job == j], params, Source.ORIGINAL))

    parts, scores = zip(*_beside([p(0), whole(Source.SHIFTED), *map(p, range(1, n_jobs))]))
    return [c for part in parts for c in part], np.concatenate(scores)


def _label_jobs(labels) -> tuple[np.ndarray, int]:
    """The job of each of ``labels``, and the job count: one job per label,
    but the labels past the ``_JOBS - 1`` largest share the last; job 0 holds
    the most points, and so on down."""
    _, label, counts = np.unique(labels, return_inverse=True, return_counts=True)
    group = np.minimum(np.argsort(np.argsort(-counts, kind="stable")), _JOBS - 1)
    sizes = np.bincount(group, counts)
    return np.argsort(np.argsort(-sizes, kind="stable"))[group][label], sizes.size


def _config(cls, args, **overrides):
    """``cls`` built from the entries of ``args`` named after its fields, then
    ``overrides``; a field with no entry keeps its default."""
    given = vars(args)
    named = {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}
    return cls(**{**named, **overrides})


def _cmd_generate(args) -> int:
    _, observed, offsets = generate_sample(_config(GenConfig, args, room=tuple(args.room)))
    save_scene(observed, args.out)
    save_offsets(offsets, _offsets_path(args.out, args.offsets_out))
    print(f"wrote {observed.n_points} points, {observed.n_instances} instances to {args.out}")
    return 0


def _pipeline_config(args) -> PipelineConfig:
    return _config(PipelineConfig, args, cluster_params=_config(ClusterParams, args))


def _resolve_model(args, allow_default: bool = False) -> ScorerModel | None:
    if args.scorer != "model":
        if args.model is not None:
            raise SceneError("--model is only valid with --scorer model")
        return None
    if args.model is None:
        if allow_default:
            return ScorerModel.default()
        raise SceneError("--scorer model requires --model <path>")
    return load_scorer(args.model)


def _cmd_cluster(args) -> int:
    model = _resolve_model(args)
    scene, offsets = _load_inputs(args.scene, args.offsets)
    config = _pipeline_config(args)
    preds = _predict(*_cluster_beside(scene, offsets, config, model), config)
    if args.out is not None:
        save_predictions(preds, args.out)
        print(f"wrote {len(preds)} predictions to {args.out}")
    else:
        sys.stdout.write(predictions_text(preds))
    return 0


def _cmd_evaluate(args) -> int:
    scene = _load_scene(args.scene, _beside)
    r = evaluate(load_predictions(args.preds), scene, score_filter=args.score_filter)
    rows = [
        [str(c), r.ap_classwise[c], r.ap[c][0.5], r.ap[c][0.25], r.prec50_classwise[c], r.rec50_classwise[c]]
        for c in r.classes
    ]
    rows.append(["mean", r.map, r.ap50, r.ap25, r.mprec50, r.mrec50])
    sep = "\t" if args.tsv else "  "
    print(sep.join(["class", "AP", "AP50", "AP25", "Prec50", "Rec50"]))
    for name, *values in rows:
        print(sep.join([name] + [f"{v:.4f}" for v in values]))
    return 0


def _cmd_bench(args) -> int:
    model = _resolve_model(args, allow_default=True)
    scene, offsets = _load_inputs(args.scene, args.offsets)
    result = bench_mod.run_bench(
        scene, offsets, _pipeline_config(args), model=model, repeats=args.repeats
    )
    sep = "\t" if args.tsv else "  "
    print(sep.join(["stage"] + list(bench_mod.STAGES) + ["total"]))
    print(sep.join(["ms"] + [f"{v:.2f}" for v in result.row() + [result.total_ms]]))
    print(
        f"points={result.n_points} predictions={result.n_predictions} "
        f"repeats={result.repeats}",
        file=sys.stderr,
    )
    return 0


def _cmd_gradcheck(args) -> int:
    check_seed("--seed", args.seed, nonnegative=True)  # as numpy's generator would, naming the flag
    scene, _ = generate_scene(
        GenConfig(
            seed=args.seed, n_objects=3, density=150.0, stuff_density=0.0,
            min_object_points=40,
        )
    )
    rng = np.random.default_rng(args.seed)
    n = scene.n_points
    # keep every residual component well away from the L1 kink at zero and
    # every offset well away from the direction-loss epsilon guard
    residual = rng.uniform(0.01, 0.3, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    base = (offset_targets(scene).offsets + residual).ravel()
    x, y = rng.standard_normal((40, 8)), rng.uniform(0.0, 1.0, 40)
    errors = {
        "offset_regression": gradient_check(
            offset_objective(scene, offset_regression_loss, offset_regression_grad), base
        ),
        "offset_direction": gradient_check(
            offset_objective(scene, offset_direction_loss, offset_direction_grad), base
        ),
        "score_bce": gradient_check(
            lambda t: scorer_objective(t, x, y),
            rng.uniform(-0.5, 0.5, sum(row_widths(x.shape[1], 8)[2:])),
        ),
    }
    failed = False
    for name, err in errors.items():
        ok = err <= args.tolerance  # false for a NaN error or tolerance
        print(f"{name}: max relative error {err:.3e} [{'ok' if ok else 'FAIL'}]")
        failed = failed or not ok
    return 2 if failed else 0


def _cmd_train_scorer(args) -> int:
    corpus = [_load_inputs(p, _offsets_path(p, None)) for p in args.scenes]
    result = train_scorer(
        corpus, hidden=args.hidden, lr=args.lr, epochs=args.epochs, seed=args.seed,
        cluster_params=_config(ClusterParams, args),
    )
    save_scorer(result.model, args.out)
    print(
        f"trained on {result.n_clusters} clusters; "
        f"loss {result.initial_loss:.4f} -> {result.final_loss:.4f}; "
        f"gradient check {result.grad_error:.2e}; wrote {args.out}"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "cluster": _cmd_cluster,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
    "gradcheck": _cmd_gradcheck,
    "train-scorer": _cmd_train_scorer,
}


def dispatch(argv: list[str]) -> int:
    """Parse and run; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as err:  # SceneError and FormatError are ValueErrors
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
