"""Digests of the artifacts that a behaviour-preserving change keeps byte-identical.

    python3 tools/identity_digests.py [WORKLOAD:SEED ...]

Prints one ``name sha256`` line per artifact:

* the files perfbench's ``bench_inputs.write_inputs`` writes for each
  workload and seed (``clean``, ``offset-noise`` and ``label-noise`` at
  seeds 1-3 when no argument is given);
* the scorer file that ``train_scorer(training_corpus())`` saves;
* the ``.pred1`` that ``cloudinst cluster`` writes on each input with
  ``--scorer model`` (that scorer), ``semprob`` and ``oracle``;
* the table that ``cloudinst evaluate`` prints for each ``.pred1`` against
  the input's ``truth`` scene.

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


def digests(runs, tmp: Path):
    """(name, sha256) of every artifact of ``runs``, in print order."""
    scorer = tmp / "model.scorer"
    ci.save_scorer(ci.train_scorer(bench_inputs.training_corpus()).model, scorer)
    yield "scorer", sha256(scorer.read_bytes())
    for workload, seed in runs:
        run = f"{workload}:{seed}"
        out = tmp / run.replace(":", "-")
        paths = bench_inputs.write_inputs(workload, seed, out)["paths"]
        for path in sorted(out.iterdir()):
            yield f"{run}/{path.name}", sha256(path.read_bytes())
        for name in SCORERS:
            pred = out / f"{name}.pred1"
            # not run.cluster_args, which is fixed to --scorer model: the CLI
            # refuses --model beside the other scorers
            model = ["--model", str(scorer)] if name == "model" else []
            cli(["cluster", "--scene", paths["scene"], "--offsets", paths["offsets"],
                 "--scorer", name, *model, "--out", str(pred)])
            yield f"{run}/{pred.name}", sha256(pred.read_bytes())
            table = cli(["evaluate", "--scene", paths["truth"], "--preds", str(pred)])
            yield f"{run}/{name}.evaluate", sha256(table.encode())


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
