"""One fresh interpreter running one workload; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED_AT [--smoke]

MODE is `setup` (set up, report the set-up time, exit), `measure` (set up,
repeat whole passes for SECONDS, check the outputs) or `trace` (set up
and run one pass untraced and one pass traced, for the per-layer
numbers).  SPAWNED_AT is the parent's `time.monotonic()` just before the
process was started, so set-up time counts interpreter start and import.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
PINNED = HERE / "digests.json"

# Every request runs at least twice: the repeat is checked against the first
# output, and analyze's 59-request pass then gives p90 at least 10 samples beyond it.
MIN_PASSES = 2
PROBE_EVERY_S = 0.02
PROBE_WINDOW = 5
# The probe's time on an uncontended core of the reference host (2 vCPUs
# at 2.0 GHz, Python 3.11); corrected times are expressed at that speed.
REFERENCE_PROBE_S = 150e-6


def probe() -> float:
    """Best of three timings of a fixed loop of Fraction and dict work (about 0.15 ms each).

    The loop does the kind of work nilgrade does (rational arithmetic,
    small allocations), so host interference slows it as it slows the
    requests; a plain integer loop tracked the requests less closely.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        acc = Fraction(0)
        for k in range(1, 60):
            acc += Fraction(k, k + 1)
            table[(k, k % 7)] = [acc] * 4
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Request latencies, raw and corrected for the host's changing speed.

    On a shared host the same pure-Python work runs up to about 1.7x
    slower for stretches of seconds while other tenants load the cores.
    While the clock is entered, an interval timer runs `probe` every
    PROBE_EVERY_S, also in the middle of long requests; the time spent in
    probes is taken out of the latencies.  A corrected latency is the raw
    latency times REFERENCE_PROBE_S / local probe, where the local probe is
    the mean of the probes during the request and the PROBE_WINDOW probes
    on either side of it: the latency at the speed at which the probe
    takes REFERENCE_PROBE_S.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.samples: list[tuple[float, int, int]] = []  # (raw latency, probe index range)
        self._probe_time = 0.0
        self._probing = False

    def __enter__(self) -> "HostClock":
        self._probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:
            self._probe()

    def _probe(self) -> None:
        self._probing = True
        t0 = perf_counter()
        self.probes.append(probe())
        self._probe_time += perf_counter() - t0
        self._probing = False

    def time(self, call):
        """call(), with its latency recorded net of the probes that ran during it."""
        first, spent = len(self.probes), self._probe_time
        t0 = perf_counter()
        try:
            return call()
        finally:
            latency = perf_counter() - t0 - (self._probe_time - spent)
            self.samples.append((latency, first, len(self.probes)))

    def raw(self) -> list[float]:
        return [latency for latency, _, _ in self.samples]

    def corrected(self) -> list[float]:
        probes, k = self.probes, PROBE_WINDOW
        return [latency * REFERENCE_PROBE_S / statistics.fmean(probes[max(lo - k, 0):hi + k])
                for latency, lo, hi in self.samples]

    def slowdown(self) -> float:
        """Median probe over the reference: how much slower than the reference host it ran."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S


def run_pass(workload, clock: HostClock, reference: list | None = None, tracer=None):
    """Run every request of the pass once.

    Returns (outputs, changed).  Without `reference` the outputs are kept;
    with it (the first pass's outputs) none are kept and `changed` counts
    the outputs that differ from the reference.
    """
    outputs: list = []
    changed = 0
    for index, request in enumerate(workload.requests):
        if tracer is not None:
            tracer.request = request.key
        try:
            output = clock.time(request.call)
        except Exception as exc:  # a failed request is counted, the run goes on
            output = exc
            print(f"request failed: {request.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if reference is None:
            outputs.append(output)
        elif isinstance(output, Exception) or output != reference[index]:
            changed += 1
    return outputs, changed


def check_outputs(workload, outputs: list) -> tuple[int, dict]:
    """Failed checks among the first pass's outputs, plus their digests."""
    failures = 0
    canon: list[str | None] = []
    for request, output in zip(workload.requests, outputs):
        if isinstance(output, Exception):
            failures += 1
            canon.append(None)
            continue
        try:
            message = workload.check(request, output)
            canon.append(workload.canonical(request, output))
        except Exception as exc:  # a malformed output is a failed check
            message = f"{type(exc).__name__}: {exc}"
            canon.append(None)
        if message is not None:
            failures += 1
            print(f"check failed: {request.key}: {message}", file=sys.stderr)
    digests = {
        "pass": _digest((r.key, t) for r, t in zip(workload.requests, canon)),
        "fixed": _digest(sorted((r.key, t) for r, t in zip(workload.requests, canon) if r.fixed)),
    }
    return failures, digests


def _digest(items) -> str:
    h = hashlib.sha256()
    for key, text in items:
        h.update(f"{key}\t{text}\n".encode())
    return h.hexdigest()


def digest_failures(workload, digests: dict) -> int:
    """Mismatches against the pinned digests (none are pinned for smoke runs)."""
    if workload.smoke:
        return 0
    pinned = json.loads(PINNED.read_text()).get(workload.name, {})
    wanted = {"fixed": pinned.get("fixed")}
    if workload.seed == pinned.get("seed"):
        wanted["pass"] = pinned.get("pass")
    failures = 0
    for kind, value in wanted.items():
        if value is not None and value != digests[kind]:
            failures += 1
            print(f"digest mismatch ({kind}): {digests[kind]} != pinned {value}", file=sys.stderr)
    return failures


def measure(workload, seconds: float) -> dict:
    with HostClock() as clock:
        start = perf_counter()
        first, changed = run_pass(workload, clock)
        passes = 1
        while passes < MIN_PASSES or perf_counter() - start < seconds:
            changed += run_pass(workload, clock, first)[1]
            passes += 1
        elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, digests = check_outputs(workload, first)
    failures += changed + digest_failures(workload, digests)
    return {
        "elapsed_s": elapsed,
        "passes": passes,
        "latencies": clock.corrected(),
        "raw_latencies": clock.raw(),
        "host_slowdown": clock.slowdown(),
        "attempted": len(clock.samples),
        "failed": failures,
        "peak_rss_mb": peak_rss_mb,
        "digests": digests,
    }


def trace(workload, tracer) -> dict:
    from counts import layer_counts

    cold = tracer.totals({"setup"})["bch.bch_table"]["total_s"]
    with HostClock() as clock:
        untraced, _ = run_pass(workload, clock)
        tracer.install()
        _, changed = run_pass(workload, clock, untraced, tracer)
        tracer.uninstall()
    corrected = clock.corrected()
    n = len(workload.requests)

    failures, digests = check_outputs(workload, untraced)
    failures += changed + digest_failures(workload, digests)
    keys = {r.key for r in workload.requests}
    metrics: dict[str, float] = {}
    for span_name, entry in tracer.totals(keys).items():
        for stat in ("calls", "total_s", "self_s"):
            metrics[f"{span_name}.{stat}"] = entry[stat]
    metrics["bch.bch_table.cold_s"] = cold
    metrics["trace.overhead_ratio"] = sum(corrected[:n]) / sum(corrected[n:])
    metrics.update(layer_counts([c for c in tracer.calls if c[1] in keys]))
    return {
        "attempted": 2 * n,
        "failed": failures,
        "digests": digests,
        "untraced_s": sum(clock.raw()[:n]),
        "traced_s": sum(clock.raw()[n:]),
        "host_slowdown": clock.slowdown(),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, spawned_at = argv[:5]
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    smoke = "--smoke" in argv[5:]

    WORKDIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    tracer = None
    try:
        with HostClock() as clock:
            workloads = clock.time(lambda: importlib.import_module("workloads"))
            if mode == "trace":
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
                tracer.request = "setup"
            workload = workloads.WORKLOADS[name](seed, smoke, scratch)
            clock.time(workload.setup)
        # Interpreter start as measured, import and set-up corrected for the host's speed.
        setup = {"setup_s": (_STARTED - spawned_at) + sum(clock.corrected()),
                 "raw_setup_s": time.monotonic() - spawned_at}
        if mode == "setup":
            result = setup
        elif mode == "measure":
            result = dict(measure(workload, seconds), **setup)
        else:
            tracer.uninstall()
            result = trace(workload, tracer)
            result["metrics"]["setup.import_s"] = clock.raw()[0]
            tracer.write(WORKDIR / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
