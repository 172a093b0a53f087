"""The benchmark's workloads: seeded inputs, the requests, and their checks.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has returned and its output has been
checked.  A round is the workload's fixed unit of work; `build` returns
the rounds for a seed and the loop cycles through them.

* verify5: one round is one request, `verify_matrix(5)` in one process,
  the acceptance path behind `hornenum verify --n-max 5`.  Its input is
  fixed, so the seed does not change it.
* slices6: one round holds the verified pool's slice of each hardness
  bin, each under a seeded relabeling of the six coordinates, in seeded
  order, counted by the component engine in one process.  The traced
  run also counts the first round with a pool of POOL_THREADS processes.
* theory-mix: each round has the same shape of small requests (equation
  round trips over 4..12 variables, meet closures of width-6..10
  families, counts at n <= 4) with seeded contents and order.

A request's class (`kind`) groups requests that do the same amount of
work up to their seeded contents; the benchmark reports a time per class.

Nothing here imports the package at module load: the benchmark imports
it afresh during set-up, and the requests look modules up when called.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

POOL_PATH = Path(__file__).resolve().parent / "slice_pool.json"

#: Per-count time budget; a request that exceeds it fails.
BUDGET_S = 120.0

#: Processes of the pooled pass in the traced slices6 run.
POOL_THREADS = 2

#: The paper's table for n <= 4, pinned here so that the small counts are
#: checked against values the program does not supply.
SMALL_COUNTS = {
    "h": (1, 1, 4, 45, 2271),
    "h0": (1, 2, 8, 90, 4542),
    "h1": (1, 2, 7, 61, 2480),
    "h01": (2, 4, 14, 122, 4960),
}


@dataclass(frozen=True)
class Scale:
    """How much work a round holds, and how many distinct rounds a seed makes."""

    verify_n_max: int = 5
    #: Pool bins that contribute a slice to a round; None means all of them.
    slice_bins: Optional[tuple[int, ...]] = None
    slice_rounds: int = 8
    theory_rounds: int = 20
    #: (variables, round trips per round); model enumeration is 2^n
    #: points, so wider theories get fewer requests.
    roundtrips: tuple[tuple[int, int], ...] = (
        (4, 16), (5, 14), (6, 12), (7, 10), (8, 10), (9, 8), (10, 8), (11, 6), (12, 6))
    closures_per_width: int = 7      # widths 6..10
    counts_per_n: int = 5            # n = 0..4


FULL = Scale()
SMOKE = Scale(verify_n_max=3, slice_bins=(0,), slice_rounds=1, theory_rounds=1,
              roundtrips=((4, 2), (8, 1), (12, 1)), closures_per_width=1, counts_per_n=1)


def encoder_targets(tracer) -> list:
    """Calls into the encoder, from the benchmark and from count_variant."""
    from hornenum import counter, encoder

    def hook(instance):
        tracer.add("encoder", {"clauses": instance.clause_count})

    return [(encoder, "encode", "encoder", hook), (counter, "encode", "encoder", hook)]


def _dpll_hook(tracer):
    return lambda report: tracer.add("counter.dpll", report.stats.to_dict())


class Workload:
    """One workload: `build` makes the rounds for a seed, `call` sends one
    request and checks its output, `kind` names its class, `targets`
    names what the traced run wraps."""

    name: str

    def build(self, seed: int, scale: Scale) -> list:
        raise NotImplementedError

    def call(self, item, tracer=None) -> bool:
        raise NotImplementedError

    def kind(self, item):
        """The request's class: requests of one class do the same amount of
        work, up to the seeded contents."""
        raise NotImplementedError

    def targets(self, tracer) -> list:
        return encoder_targets(tracer)

    def pooled(self) -> Optional["Workload"]:
        """The same work through the process pool, timed by the traced run;
        None when the workload has no pooled path."""
        return None


class Verify(Workload):
    name = "verify5"

    def build(self, seed: int, scale: Scale) -> list:
        return [[scale.verify_n_max]]

    def kind(self, n_max: int):
        return n_max

    def call(self, n_max: int, tracer=None) -> bool:
        from hornenum import validation

        _clear_package_caches()
        run = validation.verify_matrix(n_max, threads=1, budget_seconds=BUDGET_S)
        return run.passed

    def targets(self, tracer) -> list:
        from hornenum import validation

        return encoder_targets(tracer) + [
            (validation, "verify_matrix", "validation", None),
            (validation, "count_variant", "counter.dpll", _dpll_hook(tracer)),
            (validation, "brute_count", "oracle.brute", None),
            (validation, "orbit_summary", "oracle.orbit", None),
        ]


def _clear_package_caches() -> None:
    """Drop every module-level functools cache of the package, so that
    each pass pays what a fresh command-line invocation pays."""
    for name, module in list(sys.modules.items()):
        if name == "hornenum" or name.startswith("hornenum."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def relabel(units: list[int], perm: list[int], width: int) -> list[int]:
    """Map unit literals through a permutation of the coordinates.

    Coordinate i of every vector moves to perm[i].  This permutes the
    vectors, fixes the all-ones and all-zeros vectors, and maps meets to
    meets, so it maps each encoded instance onto itself: a slice and its
    relabeling have the same model count.
    """
    out = []
    for lit in units:
        value = abs(lit) - 1
        image = sum(1 << perm[i] for i in range(width) if value >> i & 1)
        out.append((image + 1) if lit > 0 else -(image + 1))
    return out


class Slices(Workload):
    """Width-6 slices from the verified pool, one per hardness bin.

    The seed draws a relabeling per slice and round, and the order of the
    slices in each round.  Relabelings change the search only through tie
    breaks (node counts move by a few percent), so every seed does nearly
    the same work.
    """

    name = "slices6"

    def __init__(self, threads: int = 1):
        self.threads = threads

    def build(self, seed: int, scale: Scale) -> list:
        from hornenum import encoder, families

        pool = json.loads(POOL_PATH.read_text())
        width = pool["width"]
        chosen = [entry for entry in pool["slices"]
                  if scale.slice_bins is None or entry["bin"] in scale.slice_bins]
        bases = {v: encoder.encode(width, families.Variant.from_name(v)).clauses
                 for v in sorted({entry["variant"] for entry in chosen})}
        rng = random.Random(f"slices:{seed}")
        rounds = []
        for _ in range(scale.slice_rounds):
            items = []
            for entry in chosen:
                units = relabel(entry["units"], rng.sample(range(width), width), width)
                items.append((entry["bin"], 1 << width,
                              bases[entry["variant"]] + tuple((u,) for u in units),
                              entry["count"]))
            rng.shuffle(items)
            rounds.append(items)
        return rounds

    def call(self, item, tracer=None) -> bool:
        from hornenum import counter

        _bin, num_vars, clauses, expected = item
        if tracer is None:
            return counter.count_models(clauses, num_vars, components=True,
                                        threads=self.threads,
                                        budget_seconds=BUDGET_S) == expected
        # the traced run counts through the engine itself to read its stats
        with tracer.span("counter.components"):
            prepared = counter.preprocess(clauses, num_vars)
            engine = counter.ComponentCounter(num_vars, prepared,
                                              deadline=time.monotonic() + BUDGET_S)
            value = engine.count()
        tracer.add("counter.components", engine.stats.to_dict())
        return value == expected

    def kind(self, item):
        return item[0]

    def pooled(self) -> Workload:
        return Slices(POOL_THREADS)


class TheoryMix(Workload):
    """Many small requests, in rounds of a fixed shape.  The seed draws the
    contents and order of every round.  The number of equations per round
    trip and of vectors per closure is spread evenly over its range
    instead of drawn, so that every seed gives each request class the
    same mix of sizes."""

    name = "theory-mix"

    def build(self, seed: int, scale: Scale) -> list:
        rng = random.Random(f"theory-mix:{seed}")
        rounds = []
        for _ in range(scale.theory_rounds):
            items = [("roundtrip", n, _equations(rng, n, _spread(j, k, 1, 8)))
                     for n, k in scale.roundtrips for j in range(k)]
            items += [("closure", w, tuple(rng.randrange(1 << w) for _ in range(
                          _spread(j, scale.closures_per_width, 2, 12))))
                      for w in range(6, 11) for j in range(scale.closures_per_width)]
            items += [("count", n, rng.choice(sorted(SMALL_COUNTS)))
                      for n in range(5) for _ in range(scale.counts_per_n)]
            rng.shuffle(items)
            rounds.append(items)
        return rounds

    def kind(self, item):
        return item[:2]

    def call(self, item, tracer=None) -> bool:
        from hornenum import counter, families, theory

        kind = item[0]
        if kind == "roundtrip":
            _, n, text = item
            eqs = theory.parse_equations(text)
            horn = theory.equations_to_horn(eqs)
            back = theory.horn_to_equations(horn)
            again = theory.parse_equations(theory.format_equations(back))
            return again == back and theory.models(eqs, n) == theory.models(horn, n)
        if kind == "closure":
            _, width, values = item
            family = families.VectorFamily(width, values)
            closed = families.meet_closure(family)
            return families.is_meet_closed(closed) and set(values) <= set(closed.values)
        _, n, variant = item
        report = counter.count_variant(n, families.Variant.from_name(variant))
        return report.count == SMALL_COUNTS[variant][n]

    def targets(self, tracer) -> list:
        from hornenum import counter, families, theory

        return encoder_targets(tracer) + [
            (theory, "parse_equations", "theory.parse", None),
            (theory, "equations_to_horn", "theory.translate", None),
            (theory, "horn_to_equations", "theory.translate", None),
            (theory, "format_equations", "theory.format", None),
            (theory, "models", "theory.models", None),
            (families, "meet_closure", "families.closure", None),
            (families, "is_meet_closed", "families.is_closed", None),
            (counter, "count_variant", "counter.dpll", _dpll_hook(tracer)),
        ]


def _spread(j: int, k: int, low: int, high: int) -> int:
    """The j-th of k values spread evenly over low..high."""
    return low if k == 1 else round(low + (high - low) * j / (k - 1))


def _monomial(rng: random.Random, n: int) -> str:
    roll = rng.random()
    if roll < 0.06:
        return "0"
    if roll < 0.12:
        return "1"
    names = [f"x{i + 1}" for i in sorted(rng.sample(range(n), rng.randint(1, 3)))]
    return (" * " if rng.random() < 0.3 else " ").join(names)


def _equations(rng: random.Random, n: int, count: int) -> str:
    lines = []
    while len(lines) < count:
        lhs, rhs = _monomial(rng, n), _monomial(rng, n)
        if lhs.replace(" * ", " ") != rhs.replace(" * ", " "):
            lines.append(f"{lhs} = {rhs}")
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (Verify(), Slices(), TheoryMix())}
