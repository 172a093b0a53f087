"""CNF generation: one predicate per bit vector, clauses assert meet closure.

For width n there are 2^n predicates P_mu, one per vector mu, and the
1-based id of P_mu is mu's int value plus one; a truth assignment picks
the set {mu : P_mu true}, and the clauses force that set to be
meet-closed.  Only incomparable pairs need a clause: whenever
u = meet(r, s) equals r or s the constraint is a tautology and is skipped,
which also keeps the ternary clause count below 4^n.  Variant endpoint
requirements enter as unit clauses, so the predicate id map is the same
for all four variants.

Every generated ternary clause has exactly two negative literals and one
positive one, i.e. the instance is itself Horn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .families import Variant, _check_width

#: Widest n encoded; 2^n predicates and ~4^n/2 pair probes.
ENCODE_CAP = 6


@dataclass(frozen=True)
class CnfInstance:
    """A generated instance: units first, then ternary clauses in (r, s)
    numeric order.  Clauses are tuples of signed 1-based predicate ids."""

    n: int
    variant: Variant
    predicate_count: int
    unit_clauses: tuple[tuple[int, ...], ...]
    ternary_clauses: tuple[tuple[int, int, int], ...]

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        return self.unit_clauses + self.ternary_clauses

    @property
    def clause_count(self) -> int:
        return len(self.unit_clauses) + len(self.ternary_clauses)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clauses)


def encode(n: int, variant: Variant) -> CnfInstance:
    """Build the meet-closure instance for width n under a variant.

    Ternary clauses: for each unordered pair r < s with u = r AND s not in
    {r, s}, the clause (-P_r, -P_s, +P_u).  Unit clauses pin the all-ones
    and/or all-zeros predicate as the variant requires; at n = 0 the two
    endpoints coincide and the unit is emitted once.
    """
    _check_width(n, ENCODE_CAP, "encoding")
    variant = Variant.from_name(variant)
    size = 1 << n
    units = tuple((pid,) for pid in endpoint_units(n, variant))

    ternary = []
    for r in range(size):
        for s in range(r + 1, size):
            u = r & s
            if u != r and u != s:
                ternary.append((-(r + 1), -(s + 1), u + 1))

    return CnfInstance(n, variant, size, units, tuple(ternary))


def endpoint_units(n: int, variant: Variant) -> tuple[int, ...]:
    """The predicate ids that a variant's unit clauses pin true: each
    vector of Variant.required_vectors, as its value plus one, in that
    order (all-ones, then all-zeros, one id at n = 0, where the two
    coincide)."""
    return tuple(v + 1 for v in variant.required_vectors(n))


def emit_dimacs(instance: CnfInstance) -> str:
    """Standard DIMACS CNF text for the instance.

    One comment line records the variant and n, then the header, then the
    clauses (units first, ternary in generation order), each terminated by
    0.  Output is byte-deterministic given (n, variant).
    """
    lines = [
        f"c variant={instance.variant.value} n={instance.n}",
        f"p cnf {instance.predicate_count} {instance.clause_count}",
    ]
    for clause in instance.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
