"""Smoke test: tools/identity_digests.py prints one digest per artifact of
the inputs it is given, and a different one for each faulty file."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_identity_digests_names_every_artifact_of_one_input():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "identity_digests.py"), "clean:1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    inputs = ["scene.off1", "scene.sc1", "warm.off1", "warm.sc1"]
    preds = [f"{s}.{kind}" for s in ("model", "semprob", "oracle") for kind in ("pred1", "evaluate")]
    alone = ["semprob-p.pred1", "semprob-q.pred1"]
    faults = [f"fault-{at}.evaluate" for at in ("first", "second", "split", "last")]
    faults.append("fault-offsets.cluster")
    names = ["scorer", "train-scorer", *(f"clean:1/{n}" for n in inputs + preds + alone + faults)]
    assert [name for name, _ in lines] == names
    assert len({digest for _, digest in lines[-5:]}) == 5  # five lines named
