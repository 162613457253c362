"""Smoke test of the benchmark: each workload once, at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced with ``--tiny --seconds 0``
(a warm-up op plus one op per worker count or per traced cycle) and
checks the output contract: every metric of ``BENCHMARK.json`` is
printed, in the table and in the result line, with its unit; no op
fails; and the layers' self times fit inside the traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_prints_every_metric(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    table = {
        words[0]: words[-1] for words in map(str.split, lines[:-1])
        if words and words[0] in units
    }
    assert table == units
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert 0.0 < self_total <= metrics["trace.wall_s"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "closed-form", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
