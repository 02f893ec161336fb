"""nilgrade benchmark: one workload per invocation, each in fresh interpreters.

    python3 perfbench/run.py --workload decide|analyze|grouplaw --seed N \
        --seconds S --trace 0|1 [--smoke]

With `--trace 0` it sets the workload up in SETUP_SAMPLES fresh processes
(the last of which then runs the timed loop) and prints the end-to-end
metrics; with `--trace 1` it runs one traced process and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  `--smoke` runs a reduced pass with one set-up,
for the benchmark's own tests.  The program is run from `src/` of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    smoke = ["--smoke"] if args.smoke else []
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds), mode,
           repr(time.monotonic()), *smoke]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args: argparse.Namespace, deadline: float) -> dict:
    runs = [spawn(args, "setup", deadline) for _ in range(0 if args.smoke else SETUP_SAMPLES - 1)]
    run = spawn(args, "measure", deadline)
    runs.append(run)
    setups = [r["setup_s"] for r in runs]
    lat_ms = [x * 1000 for x in run["latencies"]]
    raw_ms = [x * 1000 for x in run["raw_latencies"]]
    n = len(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (1000 * n / sum(lat_ms), "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {run['passes']} passes, "
          f"{n} requests in {run['elapsed_s']:.3f} s")
    raw_setups = [r["raw_setup_s"] for r in runs]
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} "
          f"(raw {', '.join(f'{s:.4f}' for s in raw_setups)})")
    print(f"latency samples: n={n}; {n - int(0.5 * n)} at or above p50, "
          f"{n - int(0.9 * n)} at or above p90")
    print(f"host slowdown (median probe / reference probe): {run['host_slowdown']:.3f}")
    print(f"raw, uncorrected: throughput_rps {1000 * n / sum(raw_ms):.4f}, "
          f"latency_p50_ms {percentile(raw_ms, 50):.4f}, latency_p90_ms {percentile(raw_ms, 90):.4f}, "
          f"wall-clock rate {n / run['elapsed_s']:.4f}/s")
    print(f"failed_ratio: {run['failed']}/{run['attempted']}")
    print(f"digests: pass {run['digests']['pass']} fixed {run['digests']['fixed']}")
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def per_layer(args: argparse.Namespace, deadline: float) -> dict:
    run = spawn(args, "trace", deadline)
    metrics = {name: (value, layer_unit(name)) for name, value in run["metrics"].items()}
    print(f"workload {args.workload} seed {args.seed}: untraced pass {run['untraced_s']:.3f} s, "
          f"traced pass {run['traced_s']:.3f} s")
    print(f"host slowdown (median probe / reference probe): {run['host_slowdown']:.3f}")
    print(f"failed_ratio: {run['failed']}/{run['attempted']}")
    print(f"digests: pass {run['digests']['pass']} fixed {run['digests']['fixed']}")
    print(f"spans: .perfbench/spans-{args.workload}-seed{args.seed}.jsonl")
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    spec = json.loads(SPEC.read_text())
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "nilgrade" / "__init__.py").is_file():
        print(f"error: no nilgrade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    expected = {(m["name"], m["unit"]) for m in spec[section]}
    printed = {(name, unit) for name, (_, unit) in result["metrics"].items()}
    if printed != expected:
        print(f"error: metrics differ from BENCHMARK.json {section}: "
              f"{sorted(printed ^ expected)}", file=sys.stderr)
        return 1
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
