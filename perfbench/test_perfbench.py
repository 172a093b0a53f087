"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

The end-to-end tests copy the benchmark and the package source into a
temporary checkout and run perfbench/run.py there, as a user would.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, relabel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checkout(tmp_path: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def _bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name]
    assert workload.build(7, FULL) == workload.build(7, FULL)


@pytest.mark.parametrize("name", ["slices6", "theory-mix"])
def test_seed_changes_inputs(name):
    workload = WORKLOADS[name]
    assert workload.build(7, FULL) != workload.build(8, FULL)


def test_pooled_pass_counts_the_same_slices():
    slices = WORKLOADS["slices6"]
    assert slices.pooled().threads > 1
    assert slices.pooled().build(5, FULL) == slices.build(5, FULL)


def test_every_round_has_the_same_request_classes():
    for workload in WORKLOADS.values():
        rounds = workload.build(4, FULL)
        shapes = {tuple(sorted(map(str, map(workload.kind, items)))) for items in rounds}
        assert len(shapes) == 1


def test_host_clock_probes_during_a_call_and_stops_its_timer():
    def spin():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "done"

    with run.HostClock() as clock:
        result, wall, cpu = clock.measure(spin)
    assert result == "done"
    assert len(clock.probes) >= 4          # before, after, and from the timer
    assert wall > 0 and cpu > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_slice_rounds_hold_every_pool_slice_relabeled():
    pool = json.loads((HERE / "slice_pool.json").read_text())
    rounds = WORKLOADS["slices6"].build(11, FULL)
    assert len(rounds) == FULL.slice_rounds
    expected = sorted(entry["count"] for entry in pool["slices"])
    for items in rounds:
        assert sorted(count for _bin, _nv, _clauses, count in items) == expected


@pytest.mark.parametrize("variant", ["h", "h1"])
def test_relabeling_preserves_the_count(variant):
    from hornenum import Variant, count_models, encode

    rng = random.Random(variant)
    instance = encode(3, Variant.from_name(variant))
    for perm in itertools.permutations(range(3)):
        units = [rng.choice((1, -1)) * p for p in rng.sample(range(2, 8), 2)]
        counts = {count_models(instance.clauses + tuple((u,) for u in lits), 8)
                  for lits in (units, relabel(units, list(perm), 3))}
        assert len(counts) == 1


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["outer", 1, None, 0.0, 10.0], ["inner", 1, 0, 2.0, 5.0],
                    ["inner", 1, 0, 6.0, 7.0], ["leaf", 1, 1, 3.0, 4.0]]
    times = tracer.self_times()
    assert times == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_patched_targets_are_restored():
    import hornenum.theory as theory

    original = theory.models
    tracer = Tracer()
    with tracer.patched([(theory, "models", "theory.models", None)]):
        assert theory.models is not original
        theory.models([], 2)
    assert theory.models is original
    assert [span[0] for span in tracer.spans] == ["theory.models"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_checks_every_output(tmp_path, name, trace):
    proc = _bench(_checkout(tmp_path), name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly(tmp_path):
    checkout = _checkout(tmp_path)
    exact = ("nodes", "decisions", "propagations", "cache_hits", "clauses")
    runs = []
    for _ in range(2):
        proc = _bench(checkout, "slices6", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if k.endswith(exact)})
    assert runs[0] == runs[1]
    assert runs[0]["counter.components.nodes"] > 0


def test_refuses_to_run_without_package_source(tmp_path):
    proc = _bench(_checkout(tmp_path, with_source=False), "verify5", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
