"""Repeat the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/steady.py --workload decide --seeds 1-10 --label baseline
    python3 perfbench/steady.py --summarize baseline --write-baseline

Every run is appended to perfbench/runs.jsonl with its label, so the
record keeps discarded tuning runs as well as the accepted ones.  The
spread of a metric is the distance between the first and third quartile
of its values (`statistics.quantiles(values, n=4)`) as a share of their
median; it is compared with the metric's bound from BENCHMARK.json.
`--summarize LABEL` prints the table for the runs recorded under LABEL,
and `--write-baseline` stores their medians and quartiles in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs.jsonl"
BASELINE = HERE / "baseline.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    report = [line for line in lines[:-1] if " = " not in line]  # the lines besides the metrics
    return {"exit": proc.returncode, "wall_s": wall, "report": report, "result": result}


def summarize(records: list[dict], spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r["result"] for r in records if r["workload"] == workload and r["result"]]
        table[workload] = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            table[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "runs": len(values),
                "unit": runs[0]["metrics"][name]["unit"],
            }
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"{workload:9s} {name:15s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}  {flag}  (n={len(values)})")
        failed = sum(run["failed"] for run in runs)
        print(f"{workload:9s} runs {len(runs)}, failed operations {failed}")
    return table


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="tuning")
    parser.add_argument("--summarize", metavar="LABEL")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.summarize:
        records = [json.loads(line) for line in RUNS.read_text().splitlines()]
        records = [r for r in records if r["label"] == args.summarize]
        table = summarize(records, spec)
        if args.write_baseline:
            BASELINE.write_text(json.dumps({"label": args.summarize, "workloads": table}, indent=2) + "\n")
        return 0
    records = []
    for workload in args.workload:
        for seed in seed_range(args.seeds):
            record = {"label": args.label, "workload": workload, "seed": seed,
                      **run_once(workload, seed, spec["run_seconds"])}
            with RUNS.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            records.append(record)
            status = "ok" if record["result"] and record["result"]["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status}, {record['wall_s']:.1f} s", flush=True)
    summarize(records, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
