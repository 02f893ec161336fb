"""The per-layer summary of `tools/bench_pr.py`, on synthetic traced pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pr.py"


@pytest.fixture(scope="module")
def bench_pr():
    spec = importlib.util.spec_from_file_location("bench_pr", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_pair(names, parent_s, change_s, parent_slowdown, change_slowdown):
    def run(value, slowdown):
        return {"host_slowdown": slowdown, "metrics": {name: value for name in names}}

    return {"parent": run(parent_s, parent_slowdown), "change": run(change_s, change_slowdown)}


def test_pair_ratios_stand_beside_corrected_medians_that_invert(bench_pr):
    # the change's raw time is 0.9 of the parent's within every pair, but its
    # runs saw half the parent's slowdown, so the corrected medians invert
    names = [m["name"] for m in bench_pr.SPEC["per_layer"]]
    timed = [name for name in names if name.endswith("_s")]
    assert timed
    traces = [traced_pair(names, 1.0 * k, 0.9 * k, 1.0 + k / 10, (1.0 + k / 10) / 2) for k in (1, 2, 3)]
    out = bench_pr.per_layer(traces)
    for name in timed:
        layer = out[name]
        assert layer["change"] > layer["parent"]
        assert layer["pair_ratios"] == pytest.approx([0.9] * 3)
        assert layer["pair_ratio_median"] == pytest.approx(0.9)
        assert layer["pairs_won"] == 3
    for name in set(names) - set(timed):
        assert "pair_ratios" not in out[name]
        assert out[name]["parent"] == 2.0 and out[name]["change"] == pytest.approx(1.8)


def test_a_zero_parent_time_gives_no_ratio(bench_pr):
    names = [m["name"] for m in bench_pr.SPEC["per_layer"]]
    traces = [traced_pair(names, 0.0, 0.5, 1.0, 1.0), traced_pair(names, 2.0, 3.0, 1.0, 1.0)]
    layer = bench_pr.per_layer(traces)[next(name for name in names if name.endswith("_s"))]
    assert layer["pair_ratios"] == [None, 1.5]
    assert layer["pair_ratio_median"] == 1.5
    assert layer["pairs_won"] == 0
