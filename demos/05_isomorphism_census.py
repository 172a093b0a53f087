"""Counting theories up to renaming of the variables.

Permuting the n variables permutes the coordinates of every vector, so
labeled families fall into orbits.  The census takes each family not yet
seen, collects its images under all n! permutations as one orbit, and
tallies the classes; orbit sizes must divide n! and sum to the labeled
count, which makes for a sharp self-check.

The h1 and h01 rows match the public integer-sequence database entries
A108798 and A108799.
"""

import math

from hornenum import Variant, orbit_summary

N_MAX = 4


def main():
    print("  n" + "".join(f"{v.value:>8}" for v in Variant))
    for n in range(N_MAX + 1):
        row = []
        for variant in Variant:
            summary = orbit_summary(n, variant)
            assert sum(summary.orbit_sizes) == summary.labeled_count
            assert all(math.factorial(n) % size == 0
                       for size in summary.orbit_sizes)
            row.append(summary.orbit_count)
        print(f"{n:3d}" + "".join(f"{c:8d}" for c in row))

    print()
    summary = orbit_summary(3, Variant.H1)
    print(f"h1 at n=3: {summary.labeled_count} labeled families in "
          f"{summary.orbit_count} classes")
    print("orbit sizes:", ", ".join(map(str, summary.orbit_sizes)))


if __name__ == "__main__":
    main()
