"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced through the real entry point and
checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_reported_and_nothing_fails(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    if not trace:
        assert "failed_frac 0 frac" in lines


def test_refuses_to_run_without_fibra_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "refine", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_partition_oracle_rejects_a_wrong_partition():
    lift = gen.random_lift(np.random.default_rng(0), 200, ("R1", "R2", "S1"), 0)
    blocks = [sorted(b) for b in oracles.coarsest_blocks(lift.total)]
    assert len(blocks) >= 2 and len(blocks[0]) >= 2
    assert oracles.check_partition(lift.total, blocks, lift.fibers) is None
    merged = [blocks[0] + blocks[1]] + blocks[2:]
    assert oracles.check_partition(lift.total, merged, lift.fibers) is not None
    split = [blocks[0][:1], blocks[0][1:]] + blocks[1:]
    assert oracles.check_partition(lift.total, split, lift.fibers) is not None
