"""Regenerate the verified width-6 slice pool used by the slices workloads.

A slice is a width-6 instance (variant h or h1) restricted by 8 to 12
unit literals on its predicates.  Candidates are drawn from a fixed seed
and counted with ComponentCounter; the first candidate of the bin's
variant (h and h1 alternate) whose node count lands near the centre of
a hardness bin becomes that bin's slice.  Each
kept slice is counted again with DpllCounter, and with ComponentCounter
under a few relabelings of the six coordinates (which map the instance
onto an isomorphic one, see workloads.relabel); the pool records it only
when every count agrees.  A disagreement stops the script with exit
code 1.

Run from the repository root (takes a few minutes on one core):

    python3 perfbench/make_pool.py [--out perfbench/slice_pool.json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hornenum.counter import ComponentCounter, DpllCounter, preprocess  # noqa: E402
from hornenum.encoder import encode  # noqa: E402
from hornenum.errors import ResourceLimitError  # noqa: E402
from hornenum.families import Variant  # noqa: E402
from workloads import relabel  # noqa: E402

GENERATOR_SEED = 20061
WIDTH = 6
NUM_VARS = 1 << WIDTH
VARIANTS = (Variant.H, Variant.H1)
UNIT_RANGE = (8, 12)

#: ComponentCounter node counts at the bin centres; log-spaced so that
#: the slices span roughly 0.3 s to 2.5 s on one core.
BIN_CENTRES = (8_000, 12_100, 18_400, 27_900, 42_200, 64_000)
BIN_TOLERANCE = 0.15
RELABEL_CHECKS = 3

CANDIDATE_BUDGET_S = 4.0
DPLL_BUDGET_S = 300.0


def slice_clauses(instance, units):
    return list(instance.clauses) + [(lit,) for lit in units]


def candidate(rng: random.Random) -> tuple[Variant, list[int]]:
    variant = rng.choice(VARIANTS)
    pids = rng.sample(range(2, NUM_VARS), rng.randint(*UNIT_RANGE))
    return variant, sorted((p if rng.random() < 0.5 else -p for p in pids), key=abs)


def bin_of(nodes: int):
    for i, centre in enumerate(BIN_CENTRES):
        if abs(nodes - centre) <= BIN_TOLERANCE * centre:
            return i
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "slice_pool.json"))
    args = parser.parse_args(argv)

    instances = {v: encode(WIDTH, v) for v in VARIANTS}
    rng = random.Random(GENERATOR_SEED)
    bins: list = [None] * len(BIN_CENTRES)
    tried = 0
    while None in bins:
        tried += 1
        variant, units = candidate(rng)
        if not any(slot is None and VARIANTS[i % 2] is variant for i, slot in enumerate(bins)):
            continue
        clauses = preprocess(slice_clauses(instances[variant], units), NUM_VARS)
        if clauses is None:
            continue
        comp = ComponentCounter(NUM_VARS, clauses,
                                deadline=time.monotonic() + CANDIDATE_BUDGET_S)
        try:
            count = comp.count()
        except ResourceLimitError:
            continue
        slot = bin_of(comp.stats.nodes)
        if (count == 0 or slot is None or bins[slot] is not None
                or VARIANTS[slot % 2] is not variant):
            continue
        dpll = DpllCounter(NUM_VARS, clauses, deadline=time.monotonic() + DPLL_BUDGET_S)
        t0 = time.monotonic()
        try:
            dpll_count = dpll.count()
        except ResourceLimitError:
            print(f"skip: dpll over budget {variant.value} {units}", file=sys.stderr)
            continue
        relabeled = []
        for _ in range(RELABEL_CHECKS):
            perm = rng.sample(range(WIDTH), WIDTH)
            image = relabel(units, perm, WIDTH)
            relabeled.append(ComponentCounter(NUM_VARS, preprocess(
                slice_clauses(instances[variant], image), NUM_VARS)).count())
        if dpll_count != count or any(value != count for value in relabeled):
            print(f"MISMATCH {variant.value} {units}: components {count}, dpll {dpll_count}, "
                  f"relabeled {relabeled}", file=sys.stderr)
            return 1
        bins[slot] = {"variant": variant.value, "units": units, "count": count,
                      "bin": slot, "nodes": comp.stats.nodes, "dpll_nodes": dpll.stats.nodes}
        print(f"bin {slot} after {tried} candidates "
              f"(nodes {comp.stats.nodes}, dpll {time.monotonic() - t0:.1f}s)",
              file=sys.stderr, flush=True)

    pool = {
        "width": WIDTH,
        "generator_seed": GENERATOR_SEED,
        "bin_centres": list(BIN_CENTRES),
        "bin_tolerance": BIN_TOLERANCE,
        "cross_checked_by": ["ComponentCounter", "DpllCounter"],
        "slices": bins,
    }
    Path(args.out).write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {len(pool['slices'])} slices after {tried} candidates", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
