"""The benchmark's own tests; not part of the repository's tier-1 suite.

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload in its reduced `--smoke` pass, so they take about
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATABLE = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "bits") or m["name"] == "derivability.feasible_ratio"]


def bench(workload: str, trace: int, root: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = next(line for line in lines if line.startswith("digests:"))
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out, _ = result(bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    printed = {(name, m["unit"]) for name, m in out["metrics"].items()}
    assert printed == {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digests_repeat_for_a_seed(workload):
    (first, first_digests), (second, second_digests) = (result(bench(workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["correct"] and second["correct"]
    assert first_digests == second_digests
    counts = {name: first["metrics"][name]["value"] for name in REPEATABLE}
    assert counts == {name: second["metrics"][name]["value"] for name in REPEATABLE}
    assert any(counts.values())


def test_self_time_excludes_child_spans():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import nilgrade as ng
        from tracing import Tracer

        g = ng.catalog.get("g6_11").algebra
        witness = ng.e_invariant(g).witness
        tracer = Tracer()
        tracer.install()
        try:
            tracer.request = "r"
            ng.carnot_pair(g, witness)
        finally:
            tracer.uninstall()
        assert ng.carnot_pair.__name__ == "carnot_pair" and not hasattr(ng.carnot_pair, "__wrapped__")
        spans = tracer.spans
        by_name = {span[0]: span for span in spans}
        outer = by_name["carnot.carnot_pair"]
        children = [s for s in spans if s[3] == spans.index(outer)]
        assert {s[0] for s in children} >= {"carnot.grading_from_operator", "carnot.carnot_algebra"}
        totals = tracer.totals({"r"})["carnot.carnot_pair"]
        child_time = sum(s[2] - s[1] for s in children)
        assert totals["calls"] == 1
        assert totals["self_s"] == pytest.approx(totals["total_s"] - child_time)
        assert 0 <= totals["self_s"] < totals["total_s"]
    finally:
        del sys.path[:2]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("decide", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
