"""Digests of the artifacts that a behaviour-preserving change keeps byte-identical.

    python3 tools/identity_digests.py [WORKLOAD:SEED ...]

Prints one ``name sha256`` line per artifact:

* the files perfbench's ``bench_inputs.write_inputs`` writes for each
  workload and seed (``clean``, ``offset-noise`` and ``label-noise`` at
  seeds 1-3 when no argument is given);
* the scorer file that ``train_scorer(training_corpus())`` saves, and the
  one that ``cloudinst train-scorer`` writes from that corpus saved as
  ``.sc1``/``.off1`` files, which loads each scene and its offsets at once;
* the ``.pred1`` that ``cloudinst cluster`` writes on each input with
  ``--scorer model`` (that scorer), ``semprob`` and ``oracle``, and with
  ``--scorer semprob`` on one coordinate set alone, ``--set p`` and
  ``--set q``: each way through the command's clustering;
* the table that ``cloudinst evaluate`` prints for each ``.pred1`` against
  the input's ``truth`` scene;
* what ``cloudinst evaluate`` prints for four faulty copies of that scene,
  each with the first token of one row spoiled: a row in the first half of
  the file, one in the second half, the first row that starts at half the
  file's bytes (where a reader that splits the file would cut it), and the
  last row; and for two more, with a row in the first or the second half
  made an empty line (numpy's reader skips an empty line, so it would read
  a range one row past its end);
* the ``.pred1`` that ``cloudinst cluster --scorer semprob`` writes on the
  input's scene and offsets with every line ended by CR LF;
* what ``cloudinst cluster`` prints for a copy of the offsets with the first
  token of a row spoiled, a fault of the load that runs beside the scene's;
* what ``cloudinst evaluate`` prints for two faulty copies of the last
  ``.pred1``, its first header row or its first index row spoiled, and what
  ``cloudinst cluster --scorer model`` prints for a copy of the scorer with
  one row spoiled: the faults of the files read one line at a time.

Run it on two checkouts and diff the outputs: an empty diff means the change
kept every artifact.  It reads perfbench's input code and its ``run.cli``
and writes only to a temporary directory.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported: the trained scorer's bits
# can depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_inputs  # noqa: E402
import cloudinst as ci  # noqa: E402
import run  # noqa: E402  (perfbench/run.py)

DEFAULT_RUNS = [(w, s) for w in sorted(bench_inputs.WORKLOADS) for s in (1, 2, 3)]
SCORERS = ("model", "semprob", "oracle")
SETS = ("p", "q")
FAULTS = ("first", "second", "split", "last")
BLANKS = ("blank-first", "blank-second")  # a row made an empty line
PRED_FAULTS = (("pred-header", 1), ("pred-index", 2))  # (name, line index) of a .pred1


def workload_seed(text: str) -> tuple[str, int]:
    """``WORKLOAD:SEED`` as (workload, seed)."""
    workload, _, seed = text.partition(":")
    if workload not in bench_inputs.WORKLOADS or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:SEED with WORKLOAD one of {sorted(bench_inputs.WORKLOADS)}, got {text!r}"
        )
    return workload, int(seed)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(args: list[str]) -> str:
    """Output of one in-process ``cloudinst`` command (perfbench's ``run.cli``);
    RuntimeError unless it exits 0."""
    code, out = run.cli(args)
    if code != 0:
        raise RuntimeError(f"cloudinst {' '.join(args)} exited {code}: {out.strip()}")
    return out


def spoiled(lines: list[str], at: int, path: Path, row: str | None = None) -> Path:
    """``path``, written with ``lines`` joined by newlines, the first token
    of ``lines[at]`` made ``x``, or the line made ``row`` if given."""
    lines = list(lines)
    lines[at] = "x " + lines[at].split(" ", 1)[1] if row is None else row
    path.write_text("\n".join(lines))
    return path


def faulty_scenes(scene: Path, out: Path):
    """(name, path) of copies of the scene file ``scene``, a ``FAULTS`` row
    of each spoiled."""
    text = scene.read_text()
    lines = text.split("\n")
    n_rows = len(lines) - 4  # three header lines and the empty piece after the last newline
    split = text.count("\n", 0, text.index("\n", len(text.encode()) // 2 - 1) + 1)
    for name, at in zip(FAULTS, (3 + n_rows // 4, 3 + 3 * n_rows // 4, split, 2 + n_rows)):
        yield name, spoiled(lines, at, out / f"fault-{name}.sc1")
    for name, at in zip(BLANKS, (3 + n_rows // 4, 3 + 3 * n_rows // 4)):
        yield name, spoiled(lines, at, out / f"fault-{name}.sc1", "")


def digests(runs, tmp: Path):
    """(name, sha256) of every artifact of ``runs``, in print order."""
    scorer = tmp / "model.scorer"
    corpus = bench_inputs.training_corpus()
    ci.save_scorer(ci.train_scorer(corpus).model, scorer)
    yield "scorer", sha256(scorer.read_bytes())
    scenes = []
    for k, (scene, offsets) in enumerate(corpus):
        scenes.append(str(tmp / f"corpus-{k}.sc1"))
        ci.save_scene(scene, scenes[-1])
        ci.save_offsets(offsets, tmp / f"corpus-{k}.off1")
    trained = tmp / "trained.scorer"
    cli(["train-scorer", *scenes, "--out", str(trained)])
    yield "train-scorer", sha256(trained.read_bytes())
    for workload, seed in runs:
        tag = f"{workload}:{seed}"
        out = tmp / tag.replace(":", "-")
        paths = bench_inputs.write_inputs(workload, seed, out)["paths"]
        for path in sorted(out.iterdir()):
            yield f"{tag}/{path.name}", sha256(path.read_bytes())
        for name in SCORERS:
            pred = out / f"{name}.pred1"
            # not run.cluster_args, which is fixed to --scorer model: the CLI
            # refuses --model beside the other scorers
            model = ["--model", str(scorer)] if name == "model" else []
            cli(["cluster", "--scene", paths["scene"], "--offsets", paths["offsets"],
                 "--scorer", name, *model, "--out", str(pred)])
            yield f"{tag}/{pred.name}", sha256(pred.read_bytes())
            table = cli(["evaluate", "--scene", paths["truth"], "--preds", str(pred)])
            yield f"{tag}/{name}.evaluate", sha256(table.encode())
        for sets in SETS:
            alone = out / f"semprob-{sets}.pred1"
            cli(["cluster", "--scene", paths["scene"], "--offsets", paths["offsets"],
                 "--scorer", "semprob", "--set", sets, "--out", str(alone)])
            yield f"{tag}/{alone.name}", sha256(alone.read_bytes())
        crlf = {key: tmp / f"crlf-{Path(paths[key]).name}" for key in ("scene", "offsets")}
        for key, path in crlf.items():
            path.write_bytes(Path(paths[key]).read_bytes().replace(b"\n", b"\r\n"))
        cli(["cluster", "--scene", str(crlf["scene"]), "--offsets", str(crlf["offsets"]),
             "--scorer", "semprob", "--out", str(out / "crlf.pred1")])
        yield f"{tag}/crlf.pred1", sha256((out / "crlf.pred1").read_bytes())
        for name, scene in faulty_scenes(Path(paths["truth"]), tmp):
            code, message = run.cli(["evaluate", "--scene", str(scene), "--preds", str(pred)])
            yield f"{tag}/fault-{name}.evaluate", sha256(f"{code} {message}".encode())
        lines = Path(paths["offsets"]).read_text().split("\n")
        offsets = spoiled(lines, len(lines) // 2, tmp / "fault.off1")
        code, message = run.cli(["cluster", "--scene", paths["scene"], "--offsets", str(offsets)])
        yield f"{tag}/fault-offsets.cluster", sha256(f"{code} {message}".encode())
        lines = pred.read_text().split("\n")
        for name, at in PRED_FAULTS:
            preds = spoiled(lines, at, tmp / f"fault-{name}.pred1")
            code, message = run.cli(["evaluate", "--scene", paths["truth"], "--preds", str(preds)])
            yield f"{tag}/fault-{name}.evaluate", sha256(f"{code} {message}".encode())
        lines = scorer.read_text().split("\n")
        model = spoiled(lines, len(lines) // 2, tmp / "fault.scorer")
        code, message = run.cli(["cluster", "--scene", paths["scene"], "--offsets", paths["offsets"],
                                 "--scorer", "model", "--model", str(model)])
        yield f"{tag}/fault-scorer.cluster", sha256(f"{code} {message}".encode())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("runs", nargs="*", type=workload_seed, metavar="WORKLOAD:SEED",
                   help="inputs to cover (default: every workload at seeds 1-3)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(args.runs or DEFAULT_RUNS, Path(tmp)):
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
