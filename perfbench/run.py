"""hornenum benchmark: one command per workload run, every output checked.

    python3 perfbench/run.py --workload verify5 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  The
workloads are closed loops with one client (see workloads.py).  With
--trace 0 the loop sends the workload's requests, round after round, for
--seconds (and at least one round), and reports the end-to-end metrics,
measured with tracing off and scaled to the reference host speed (see
HostClock).  With --trace 1 it makes one untraced and one traced pass
over the first round, reports the per-layer metrics with the tracing
overhead, and writes the spans to .perfbench/.  --smoke shrinks every
round for a quick check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every output
checked, 1 on any wrong output, exception or exceeded budget, 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable

from tracer import Tracer
from workloads import FULL, SMOKE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 11

#: Size of the host-speed probe, and its time on the reference host when
#: that host runs at full speed (2 vCPUs of an Intel Xeon under KVM).
PROBE_LOOPS = 2000
REFERENCE_PROBE_S = 200e-6
PROBE_INTERVAL_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
}

PER_LAYER = {
    "counter.dpll.busy_s": "s",
    "counter.dpll.nodes": "count",
    "counter.dpll.decisions": "count",
    "counter.dpll.propagations": "count",
    "counter.dpll.nodes_per_s": "1/s",
    "counter.components.busy_s": "s",
    "counter.components.nodes": "count",
    "counter.components.decisions": "count",
    "counter.components.propagations": "count",
    "counter.components.components": "count",
    "counter.components.cache_hits": "count",
    "counter.components.cache_hit_ratio": "ratio",
    "counter.components.cache_entries": "count",
    "counter.components.cache_evictions": "count",
    "counter.components.nodes_per_s": "1/s",
    "counter.pool.speedup": "ratio",
    "counter.pool.cpu_ratio": "ratio",
    "counter.pool.worker_cpu_s": "s",
    "oracle.brute_s": "s",
    "oracle.orbit_s": "s",
    "validation.self_s": "s",
    "theory.parse_s": "s",
    "theory.translate_s": "s",
    "theory.models_s": "s",
    "theory.format_s": "s",
    "families.closure_s": "s",
    "families.is_closed_s": "s",
    "encoder.encode_s": "s",
    "encoder.clauses": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tally:
    """Requests attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def import_package() -> None:
    """Import the package afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "hornenum" or m.startswith("hornenum.")]:
        del sys.modules[name]
    importlib.import_module("hornenum")


def cpu_seconds() -> tuple[float, float]:
    """User plus system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def probe() -> float:
    """Time a fixed piece of pure-Python work: the host's current speed."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        key = i & 63
        table[key] = table.get(key, 0) + i % 7
    return perf_counter() - start


class HostClock:
    """Times work at the reference host speed.

    The host shares its cores and runs pure Python at two speeds about
    1.45x apart, switching every few seconds.  While the clock runs, a
    timer signal takes a probe every PROBE_INTERVAL_S; a probe is also
    taken before and after each measured call.  A call's wall and CPU
    time, less the probes taken inside it, are scaled by the reference
    probe time over the mean probe time of its window.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.inside = 0.0   # time of the probes taken from the timer signal

    def _on_timer(self, _signum, _frame) -> None:
        took = probe()
        self.probes.append(took)
        self.inside += took

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.probes.append(probe())
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run fn; return its result and its wall and CPU time at the
        reference speed."""
        first = len(self.probes) - 1
        own0, kids0 = cpu_seconds()
        inside = self.inside
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        stolen = self.inside - inside
        own1, kids1 = cpu_seconds()
        self.probes.append(probe())
        window = self.probes[first:]
        scale = REFERENCE_PROBE_S * len(window) / sum(window)
        cpu = own1 - own0 + kids1 - kids0
        return result, (wall - stolen) * scale, (cpu - stolen) * scale


def request(workload, item, tally: Tally, tracer=None) -> tuple[float, float, float]:
    """Send one request, check its output and count it.  Returns its wall
    time, its CPU time and the part of that CPU time spent in worker
    processes."""
    own0, kids0 = cpu_seconds()
    began = perf_counter()
    try:
        if tracer is None:
            ok = workload.call(item)
        else:
            tracer.request += 1
            with tracer.span("request"):
                ok = workload.call(item, tracer)
    except Exception:
        traceback.print_exc()
        ok = False
    wall = perf_counter() - began
    own1, kids1 = cpu_seconds()
    tally.attempted += 1
    if not ok:
        tally.failed += 1
        print(f"FAILED: {workload.name} request {tally.attempted}", file=sys.stderr)
    return wall, own1 - own0 + kids1 - kids0, kids1 - kids0


def run_round(workload, items, tally: Tally, tracer=None) -> dict:
    own0, kids0 = cpu_seconds()
    start = perf_counter()
    worker_cpu = sum(request(workload, item, tally, tracer)[2] for item in items)
    wall = perf_counter() - start
    own1, kids1 = cpu_seconds()
    return {"wall": wall, "cpu": own1 - own0 + kids1 - kids0, "worker_cpu": worker_cpu}


def setup(workload, seed: int, scale, clock: HostClock) -> tuple[float, list]:
    times = []
    for _ in range(SETUP_REPEATS):
        rounds, elapsed, _ = clock.measure(lambda: (import_package(), workload.build(seed, scale))[1])
        times.append(elapsed)
    return statistics.median(times), rounds


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workload, seed: int, seconds: float, scale, tally: Tally) -> dict:
    raw: list[float] = []
    wall: dict = defaultdict(list)   # per request class, at the reference speed
    cpu: dict = defaultdict(list)
    with HostClock() as clock:
        setup_s, rounds = setup(workload, seed, scale, clock)
        # every round has this shape: request classes and how often each occurs
        shape = Counter(workload.kind(item) for item in rounds[0])
        per_round = len(rounds[0])
        stream = (item for items in itertools.cycle(rounds) for item in items)
        start = perf_counter()
        while tally.attempted < per_round or perf_counter() - start < seconds:
            item = next(stream)
            (seconds_wall, _, _), at_ref_wall, at_ref_cpu = clock.measure(
                lambda: request(workload, item, tally))
            raw.append(seconds_wall)
            wall[workload.kind(item)].append(at_ref_wall)
            cpu[workload.kind(item)].append(at_ref_cpu)
        elapsed = perf_counter() - start

    wall_s = sum(n * statistics.median(wall[kind]) for kind, n in shape.items())
    samples = sorted(len(times) for times in wall.values())
    probes = clock.probes
    print(f"{workload.name} seed {seed}: {tally.attempted} requests ({per_round} per round) "
          f"in {elapsed:.1f}s, {samples[0]}..{samples[-1]} samples in each of "
          f"{len(shape)} request classes, fail_frac {tally.failed / tally.attempted:g} "
          f"({tally.failed}/{tally.attempted}); {len(probes)} host probes, "
          f"{1e6 * min(probes):.0f} us fastest, {1e6 * statistics.median(probes):.0f} us median "
          f"(reference {1e6 * REFERENCE_PROBE_S:.0f} us); raw request latency p50 "
          f"{1000.0 * statistics.median(raw):.3f} ms, p99 {1000.0 * p99(raw):.3f} ms "
          f"({len(raw) // 100} of {len(raw)} samples beyond p99)")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": sum(n * statistics.median(cpu[kind]) for kind, n in shape.items()),
        "peak_rss_mb": peak_rss_mb(),
        "req_per_s": per_round / wall_s,
        # the median request of one round, each request at its class's median
        "req_p50_ms": 1000.0 * statistics.median(
            t for kind, n in shape.items() for t in [statistics.median(wall[kind])] * n),
    }


def one_pass(workload, seed: int, scale, tally: Tally, tracer=None) -> dict:
    """Build the inputs and run the first round, traced or not."""
    patches = nullcontext() if tracer is None else tracer.patched(workload.targets(tracer))
    start = perf_counter()
    with patches:
        rounds = workload.build(seed, scale)
        result = run_round(workload, rounds[0], tally, tracer)
    result["wall"] = perf_counter() - start
    return result


def traced(workload, seed: int, scale, tally: Tally) -> dict:
    import_package()
    untraced = one_pass(workload, seed, scale, tally)
    pool = {"speedup": 0.0, "cpu_ratio": 0.0, "worker_cpu_s": 0.0}
    pooled = workload.pooled()
    if pooled is not None:
        par = one_pass(pooled, seed, scale, tally)
        pool = {"speedup": untraced["wall"] / par["wall"],
                "cpu_ratio": par["cpu"] / untraced["cpu"],
                "worker_cpu_s": par["worker_cpu"]}
    tracer = Tracer()
    with_spans = one_pass(workload, seed, scale, tally, tracer)
    tracer.dump(TRACE_DIR / f"{workload.name}-seed{seed}.json")
    print(f"{workload.name} seed {seed}: traced {with_spans['wall']:.3f}s, "
          f"untraced {untraced['wall']:.3f}s, {len(tracer.spans)} spans")

    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for layer in ("counter.dpll", "counter.components"):
        busy = self_s.get(layer, 0.0)
        nodes = counts.get(f"{layer}.nodes", 0)
        metrics[f"{layer}.busy_s"] = busy
        for key in ("nodes", "decisions", "propagations"):
            metrics[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0)
        metrics[f"{layer}.nodes_per_s"] = nodes / busy if busy else 0.0
    comp = "counter.components"
    for key in ("components", "cache_hits", "cache_entries", "cache_evictions"):
        metrics[f"{comp}.{key}"] = counts.get(f"{comp}.{key}", 0)
    nodes = metrics[f"{comp}.nodes"]
    metrics[f"{comp}.cache_hit_ratio"] = metrics[f"{comp}.cache_hits"] / nodes if nodes else 0.0
    for key, value in pool.items():
        metrics[f"counter.pool.{key}"] = value
    for span, metric in (("oracle.brute", "oracle.brute_s"), ("oracle.orbit", "oracle.orbit_s"),
                         ("validation", "validation.self_s"),
                         ("theory.parse", "theory.parse_s"),
                         ("theory.translate", "theory.translate_s"),
                         ("theory.models", "theory.models_s"),
                         ("theory.format", "theory.format_s"),
                         ("families.closure", "families.closure_s"),
                         ("families.is_closed", "families.is_closed_s"),
                         ("encoder", "encoder.encode_s")):
        metrics[metric] = self_s.get(span, 0.0)
    metrics["encoder.clauses"] = counts.get("encoder.clauses", 0)
    metrics["trace.overhead_s"] = with_spans["wall"] - untraced["wall"]
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hornenum benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every round (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "hornenum" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    scale = SMOKE if args.smoke else FULL
    tally = Tally()
    if args.trace:
        values, names = traced(workload, args.seed, scale, tally), PER_LAYER
    else:
        values, names = end_to_end(workload, args.seed, args.seconds, scale, tally), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
