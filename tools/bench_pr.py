"""Benchmark this checkout against a parent commit and write BENCH_<PR>.json.

    python3 tools/bench_pr.py --pr N --parent REV [--pairs 10] [--seed 1]

The change is this checkout's working tree; the parent is REV unpacked
with `git archive` into a fresh directory under the system temporary
directory, which is removed at the end.  Every workload of BENCHMARK.json
runs --pairs alternated pairs of `perfbench/run.py --trace 0` at the
benchmark's own run length: pair i uses seed SEED + i on both sides, and
the parent runs first in even pairs, the change first in odd ones.  Then
3 more pairs, at seeds SEED..SEED + 2 and alternated the same way, run
with `--trace 1` for the per-layer numbers.

The file holds every run (its metrics, host slowdown, attempted and failed
counts), and per end-to-end metric each side's median and quartiles, the
change's median relative to the parent's, the parent's interquartile
range and the pairs the change won, lost and tied; the metric's bound
from BENCHMARK.json is copied beside it.  Per per-layer metric it holds
each side's median over the traced runs, with every `*_s` time divided
by its own run's host slowdown first: span times are raw wall clock,
while the end-to-end times are already corrected inside perfbench.  The
slowdown swings between runs, so each `*_s` time also gets the raw
change/parent ratio within each traced pair, whose two runs are adjacent
in time, the median of those ratios and the pairs the change won.
Both sides are pinned by the git tree ids of their `src/` and
`perfbench/` directories; the change's ids are those of the working
tree, untracked files included, so `git rev-parse COMMIT:src` on the
commit that lands it gives the same id.
It also records the parent's `tools/output_digest.py` hash on both trees:
the parent's unmodified tool is run once on each side's `src/`.  Once the
file is written the script exits 1, naming each cause, if the two hashes
differ or any run reports `correct: false` or a failed operation.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600
TRACED_PAIRS = 3
MEASURED = ("src", "perfbench")
SLOWDOWN = re.compile(r"^host slowdown \(median probe / reference probe\): ([0-9.]+)$", re.M)


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def worktree_ids() -> dict:
    """The git tree id of each MEASURED directory as it stands in the working tree."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--all", "--", *MEASURED, env=env)
        return {d: git("rev-parse", f"{git('write-tree', env=env)}:{d}") for d in MEASURED}


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def digest(tool: Path, src: Path, work: Path) -> str:
    """The hash that `tool` prints when it reads the package from `src`."""
    (work / "tools").mkdir(parents=True)
    shutil.copy(tool, work / "tools" / tool.name)
    (work / "src").symlink_to(src, target_is_directory=True)
    out = subprocess.run([sys.executable, str(work / "tools" / tool.name)], check=True,
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S).stdout
    return out.strip().splitlines()[-1]


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py` run in `tree`: its last JSON line plus the host slowdown."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    slowdown = SLOWDOWN.search(proc.stdout)
    if slowdown is None:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed no host slowdown line:\n{proc.stdout}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host_slowdown": float(slowdown.group(1)),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def alternated(sides: dict, workload: str, seeds: list[int], trace: int) -> list[dict]:
    """One run per side at each seed; the parent goes first at even positions."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(sides[side], workload, seed, trace)
        print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
            f"{side} {pair[side]['host_slowdown']:.2f} slowdown" for side in order), flush=True)
        pairs.append(pair)
    return pairs


def per_layer(traces: list[dict]) -> dict:
    """Each side's median of every per-layer metric, `*_s` times host-corrected per run.

    A `*_s` time also gets the raw change/parent ratio of each traced pair
    (None where the parent's time is 0), their median and the pairs the
    change won.  The two runs of a pair are adjacent in time, so their raw
    ratio does not carry the slowdown swings between pairs that the
    corrected medians do.
    """
    out = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        out[name] = {"unit": metric["unit"], "better": metric["better"]}
        for side in ("parent", "change"):
            out[name][side] = statistics.median(
                run[side]["metrics"][name] / (run[side]["host_slowdown"] if name.endswith("_s") else 1)
                for run in traces)
        if name.endswith("_s"):
            ratios = [run["change"]["metrics"][name] / run["parent"]["metrics"][name]
                      if run["parent"]["metrics"][name] else None for run in traces]
            known = [r for r in ratios if r is not None]
            higher = metric["better"] == "higher"
            out[name]["pair_ratios"] = ratios
            out[name]["pair_ratio_median"] = statistics.median(known) if known else None
            out[name]["pairs_won"] = sum((r > 1) if higher else (r < 1) for r in known)
    return out


def failures(report: dict) -> list[str]:
    """Why the two sides cannot be compared: unequal digests, incorrect or failed runs."""
    causes = []
    if not report["digest"]["equal"]:
        causes.append(f"output digests differ: parent {report['digest']['parent']}, "
                      f"change {report['digest']['change']}")
    for workload, result in report["workloads"].items():
        for kind in ("pairs", "traces"):
            for pair in result[kind]:
                for side in ("parent", "change"):
                    run = pair[side]
                    if not run["correct"] or run["failed"]:
                        causes.append(f"{workload} {kind} seed {pair['seed']} {side}: correct "
                                      f"{run['correct']}, failed {run['failed']}/{run['attempted']}")
    return causes


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": ps,
            "change": cs,
            "change_over_parent": cs["median"] / ps["median"] - 1 if ps["median"] else None,
            "parent_iqr": ps["q3"] - ps["q1"],
            "wins": wins,
            "ties": ties,
            "losses": len(pairs) - wins - ties,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", type=int, required=True, help="N in the BENCH_N.json written at the repo root")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="10 is the fewest a claimed gain rests on")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    work = Path(tempfile.mkdtemp(prefix="bench_pr-"))
    try:
        parent = work / "parent"
        unpack(parent_rev, parent)
        tool = parent / "tools" / "output_digest.py"
        report = {
            "pr": args.pr,
            "parent": {"commit": parent_rev, **{d: git("rev-parse", f"{parent_rev}:{d}") for d in MEASURED}},
            "change": {"head": git("rev-parse", "HEAD"), **worktree_ids()},
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "seconds": SPEC["run_seconds"],
            "pairs": args.pairs,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "trace_seeds": [args.seed + i for i in range(TRACED_PAIRS)],
            "digest": {
                "tool": f"tools/output_digest.py at {parent_rev}",
                "parent": digest(tool, parent / "src", work / "digest-parent"),
                "change": digest(tool, ROOT / "src", work / "digest-change"),
            },
            "workloads": {},
        }
        report["digest"]["equal"] = report["digest"]["parent"] == report["digest"]["change"]
        sides = {"parent": parent, "change": ROOT}
        for workload in (w["name"] for w in SPEC["workloads"]):
            pairs = alternated(sides, workload, report["seeds"], 0)
            traces = alternated(sides, workload, report["trace_seeds"], 1)
            report["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs,
                                             "per_layer": per_layer(traces), "traces": traces}
        out = ROOT / f"BENCH_{args.pr}.json"
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    causes = failures(report)
    for cause in causes:
        print(f"error: {cause}", file=sys.stderr)
    return 1 if causes else 0


if __name__ == "__main__":
    sys.exit(main())
