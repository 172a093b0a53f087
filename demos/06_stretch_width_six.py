"""Width 6 with the component-caching search.

At n = 6 the instance has 64 predicates and 1351 ternary clauses.  The
search decomposes residual subproblems into independent parts, caches
repeated ones and counts each residual or part of at most 14 variables
from its truth table; that is enough to finish h1(6) = 75,973,751,474
in 1.5 to 4 minutes (88 to 90 s and 3.98M nodes on one core of a
2-vCPU Xeon, whose speed varies over time) at a peak RSS of 0.58 GB;
h(6) takes about as long.

Run with a finite budget first to see the partial statistics report.
"""

import argparse

from hornenum import ResourceLimitError, Variant, count_variant


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", choices=["h", "h1"], default="h1")
    parser.add_argument("--budget-seconds", type=float, default=30.0,
                        help="0 means run to completion")
    args = parser.parse_args()
    budget = args.budget_seconds if args.budget_seconds > 0 else None

    try:
        report = count_variant(6, Variant.from_name(args.variant), "dpll",
                               budget_seconds=budget)
    except ResourceLimitError as exc:
        print(f"stopped by the {args.budget_seconds}s budget, as expected "
              "for a short run")
        print("progress so far:", exc.stats)
        return

    print(f"{args.variant}(6) = {report.count}")
    print(f"elapsed {report.elapsed:.1f}s, {report.stats.nodes} nodes, "
          f"{report.stats.cache_hits} cache hits, "
          f"{report.stats.components} component splits")


if __name__ == "__main__":
    main()
