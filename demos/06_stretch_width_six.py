"""Width 6 with the component-caching search.

At n = 6 the instance has 64 predicates and 1351 ternary clauses.  The
search decomposes residual subproblems into independent parts, caches
repeated ones and counts each residual or part of at most 14 variables
from its truth table.  count_width searches h01(6) once; its component
cache then gives h1(6), h0(6) and h(6) in a node or so each, since the
four variants differ only in their endpoint predicates.  The whole run
takes as long as one separate count: 1.5 to 4 minutes at a peak RSS of
0.58 GB (89.5 and 195 s over 3.98M nodes in two runs on one core of a
2-vCPU Xeon whose speed varies over time, where h1(6) alone took 89.0
and 153 s).

Run with a finite budget first to see the partial statistics report.
"""

import argparse

from hornenum import ResourceLimitError, count_width


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget-seconds", type=float, default=30.0,
                        help="0 means run to completion")
    args = parser.parse_args()
    budget = args.budget_seconds if args.budget_seconds > 0 else None

    try:
        reports = count_width(6, budget_seconds=budget)
    except ResourceLimitError as exc:
        print(f"stopped by the {args.budget_seconds}s budget, as expected "
              "for a short run")
        print("progress so far:", exc.stats)
        return

    for variant, report in reports.items():
        print(f"{variant.value}(6) = {report.count}: {report.elapsed:.1f}s, "
              f"{report.stats.nodes} nodes, {report.stats.cache_hits} cache hits, "
              f"{report.stats.components} component splits")


if __name__ == "__main__":
    main()
