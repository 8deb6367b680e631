"""Smoke test: the demos still run to completion.  They drive the formats and
PLY export (01), ball_query and cluster_single_set (02), dual-set grouping
(03), the losses, soft_labels/score_loss and gradient checks (04),
train_scorer, the scorer file and all three scorers through run_pipeline
(05), and run_bench (06)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_01_formats_round_trip():
    assert "round-trip equal: True" in run_demo("01_scenes_and_formats.py")


def test_demo_02_grid_matches_oracles():
    out = run_demo("02_radius_search_and_clustering.py")
    assert "(grid == brute force: True)" in out
    assert "(matches O(N^2) oracle: True)" in out


@pytest.mark.parametrize(
    "name",
    [
        "03_dual_set_grouping.py",
        "04_losses_and_gradients.py",
        "05_scorer_training_and_nms.py",
        "06_benchmark.py",
    ],
)
def test_demo_runs(name):
    assert run_demo(name).strip()
