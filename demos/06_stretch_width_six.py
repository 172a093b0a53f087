"""Width 6 with the component-caching search.

At n = 6 the instance has 64 predicates and 1351 ternary clauses.  The
search propagates units, closes the clauses that a new binary clause
subsumes, decomposes residual subproblems into independent parts,
caches repeated ones and counts each residual or part of at most 26
variables from its truth table.  count_width searches h01(6) once; its component
cache then gives h1(6), h0(6) and h(6) in a node or so each, since the
four variants differ only in their endpoint predicates.  The whole run
takes as long as one separate count: 15 s to 1 minute at a peak RSS
of 0.06 GB (15.3, 17.0 and 16.5 s over 144,365 nodes in three runs on
one core of a 2-vCPU Xeon whose speed varies over time).

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
