"""Exact CNF model counting with DPLL-style search, in exact integers.

One engine, ComponentCounter, does every count: a DPLL search with unit
propagation that splits the residual clause set into connected
components, multiplies their counts, and memoizes residual subproblems
under a bounded cache (the component-caching design of sharpSAT).  The
`dpll` method name refers to this search.

Counts are over ALL declared variables, so a variable appearing in no
clause doubles the count.  There is deliberately no pure-literal rule:
fixing a pure literal preserves satisfiability but loses models.

A budget is one absolute deadline for the whole count, shared by every
pool worker and every sub-count of an identity derivation.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Sequence, Union

from .encoder import ENCODE_CAP, CnfInstance, emit_dimacs, encode
from .errors import ExternalToolError, ResourceLimitError
from .families import Variant
from .identities import binomial, inverse_binomial_sum

#: Default wall-clock budget per count, seconds.
DEFAULT_BUDGET_SECONDS = 600.0

#: Component-cache entry bound; the cache is cleared when it fills.
DEFAULT_CACHE_LIMIT = 2_000_000

#: Environment variable consulted for the external counter command.
EXTERNAL_CMD_ENV = "HORNENUM_EXTERNAL_CMD"

#: Default pattern locating the reported count in external-tool output:
#: a line consisting of one decimal integer.
DEFAULT_EXTERNAL_PATTERN = r"^\s*(\d+)\s*$"

METHODS = ("dpll", "bruteforce", "identity", "external")

Clauses = Sequence[Sequence[int]]


@dataclass
class CounterStats:
    """Search-effort counters; merged by summation across workers."""

    nodes: int = 0
    decisions: int = 0
    propagations: int = 0
    components: int = 0
    cache_hits: int = 0
    cache_entries: int = 0
    cache_evictions: int = 0
    subproblems: int = 0

    def merge(self, other: "CounterStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CountReport:
    """One finished count: what was counted, how, the exact value, and the
    effort it took."""

    variant: Variant
    n: int
    method: str
    count: int
    elapsed: float
    stats: CounterStats = field(default_factory=CounterStats)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "n": self.n,
            "method": self.method,
            "count": self.count,
            "elapsed": self.elapsed,
            "stats": self.stats.to_dict(),
        }


def preprocess(clauses: Clauses, num_vars: int) -> Optional[list[tuple[int, ...]]]:
    """Canonicalize clauses: sort and dedupe literals, drop tautologies,
    dedupe clauses.  Returns None if an empty clause is present (count 0).
    """
    out = []
    seen = set()
    for clause in clauses:
        lits = tuple(sorted(set(clause)))
        if not lits:
            return None
        for lit in lits:
            if not isinstance(lit, int) or lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit!r} invalid for {num_vars} variables")
        if any(-lit in lits for lit in lits):
            continue
        if lits not in seen:
            seen.add(lits)
            out.append(lits)
    return out


def _vars_of(clauses: Iterable[Sequence[int]]) -> set[int]:
    return {abs(lit) for clause in clauses for lit in clause}


def _simplify(clauses: frozenset, lit: int) -> Optional[frozenset]:
    """Residual clause set after asserting lit; None on an emptied clause."""
    out = []
    neg = -lit
    for clause in clauses:
        if lit in clause:
            continue
        if neg in clause:
            rest = tuple(x for x in clause if x != neg)
            if not rest:
                return None
            out.append(rest)
        else:
            out.append(clause)
    return frozenset(out)


class ComponentCounter:
    """Cached functional counting: count(clauses) is the number of
    assignments of exactly the variables occurring in `clauses` that
    satisfy them.  Disjoint components multiply; identical residual
    subproblems are answered from the cache.

    Cache keys are canonical byte strings when every variable id fits a
    byte, which keeps width-6 runs inside memory; otherwise the clause
    set itself is the key.
    """

    def __init__(self, num_vars: int, clauses: list[tuple[int, ...]],
                 deadline: Optional[float] = None,
                 cache_limit: int = DEFAULT_CACHE_LIMIT):
        self.num_vars = num_vars
        self.clauses = frozenset(clauses)
        self.deadline = deadline
        self.cache_limit = cache_limit
        self.cache: dict = {}
        self.stats = CounterStats()
        self._bytes_keys = num_vars <= 120

    def count(self) -> int:
        used = _vars_of(self.clauses)
        result = self._count(self.clauses)
        self.stats.cache_entries = len(self.cache)
        return result << (self.num_vars - len(used))

    def _key(self, clauses: frozenset):
        if self._bytes_keys:
            return b"".join(
                bytes(lit + 128 for lit in clause) + b"\x00"
                for clause in sorted(clauses)
            )
        return clauses

    def _check_budget(self) -> None:
        # node 1 is checked too, so a count started after the deadline
        # (a queued pool job, a later identity sub-count) stops at once
        if self.deadline is not None and self.stats.nodes % 2048 == 1:
            if time.monotonic() > self.deadline:
                self.stats.cache_entries = len(self.cache)
                raise ResourceLimitError("count budget exceeded", stats=self.stats.to_dict())

    def _count(self, clauses: frozenset) -> int:
        if not clauses:
            return 1
        self.stats.nodes += 1
        self._check_budget()
        key = self._key(clauses)
        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached

        # fold unit chains without caching the intermediates
        shift = 0
        current = clauses
        result = None
        while True:
            unit = next((c[0] for c in current if len(c) == 1), None)
            if unit is None:
                break
            before = len(_vars_of(current))
            reduced = _simplify(current, unit)
            self.stats.propagations += 1
            if reduced is None:
                result = 0
                break
            shift += before - 1 - len(_vars_of(reduced))
            current = reduced

        if result is None:
            if not current:
                result = 1 << shift
            else:
                result = self._count_split(current) << shift

        if len(self.cache) >= self.cache_limit:
            self.cache.clear()
            self.stats.cache_evictions += 1
        self.cache[key] = result
        return result

    def _count_split(self, clauses: frozenset) -> int:
        parts = _components(clauses)
        if len(parts) > 1:
            self.stats.components += len(parts)
            result = 1
            for part in parts:
                result *= self._count(frozenset(part))
            return result
        return self._branch(clauses)

    def _branch(self, clauses: frozenset) -> int:
        v, before = _branch_variable(clauses)
        self.stats.decisions += 1
        total = 0
        for lit in (v, -v):
            reduced = _simplify(clauses, lit)
            if reduced is None:
                continue
            total += self._count(reduced) << (before - 1 - len(_vars_of(reduced)))
        return total


def _branch_variable(clauses: frozenset) -> tuple[int, int]:
    """The most frequent variable (lowest id on ties), and the number of
    distinct variables in the clauses."""
    freq: dict[int, int] = {}
    for clause in clauses:
        for lit in clause:
            v = abs(lit)
            freq[v] = freq.get(v, 0) + 1
    return max(sorted(freq), key=freq.get), len(freq)


def _components(clauses: frozenset) -> list[list[tuple[int, ...]]]:
    """Partition clauses into variable-connected groups (union-find)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for clause in clauses:
        vs = [abs(lit) for lit in clause]
        for v in vs:
            parent.setdefault(v, v)
        root = find(vs[0])
        for v in vs[1:]:
            r = find(v)
            if r != root:
                parent[r] = root
    groups: dict[int, list[tuple[int, ...]]] = {}
    for clause in clauses:
        groups.setdefault(find(abs(clause[0])), []).append(clause)
    return list(groups.values())


def _search(num_vars: int, clauses: list[tuple[int, ...]],
            deadline: Optional[float]) -> tuple[int, CounterStats]:
    """Run the engine on prepared clauses.  The search recurses once per
    decision level, so an instance deeper than the interpreter's stack
    raises ResourceLimitError instead of RecursionError."""
    counter = ComponentCounter(num_vars, clauses, deadline=deadline)
    try:
        value = counter.count()
    except RecursionError:
        raise ResourceLimitError(
            f"search deeper than the recursion limit ({sys.getrecursionlimit()}) "
            f"on {num_vars} variables", stats=counter.stats.to_dict()) from None
    counter.stats.subproblems = 1
    return value, counter.stats


def _count_remapped(clauses: Iterable[tuple[int, ...]],
                    deadline: Optional[float]) -> tuple[int, dict]:
    """Count a residual clause set over exactly its own variables."""
    clause_list = [tuple(c) for c in clauses]
    used = sorted(_vars_of(clause_list))
    remap = {v: i + 1 for i, v in enumerate(used)}
    mapped = [tuple((1 if lit > 0 else -1) * remap[abs(lit)] for lit in c) for c in clause_list]
    value, stats = _search(len(used), mapped, deadline)
    return value, stats.to_dict()


def _split_subproblems(clauses: list[tuple[int, ...]], num_vars: int,
                       target: int) -> tuple[int, list[tuple[frozenset, int]]]:
    """Cofactor-expand the instance into independent subproblems.

    Returns (settled, open) where settled already sums the fully decided
    branches and each open entry (residual, shift) contributes
    count-over-own-vars(residual) << shift.  The expansion is exact:
    settled plus those contributions equals the full model count.
    """
    start = frozenset(clauses)
    entries = [(start, num_vars - len(_vars_of(start)))]
    settled = 0
    while len(entries) < target:
        entries.sort(key=lambda e: (-len(e[0]), e[1]))
        split_at = next((i for i, e in enumerate(entries) if e[0]), None)
        if split_at is None:
            break
        clauses_here, shift = entries.pop(split_at)
        v, before = _branch_variable(clauses_here)
        for lit in (v, -v):
            reduced = _simplify(clauses_here, lit)
            if reduced is None:
                continue
            child_shift = shift + (before - 1 - len(_vars_of(reduced)))
            if not reduced:
                settled += 1 << child_shift
            else:
                entries.append((reduced, child_shift))
    return settled, entries


def _deadline(budget_seconds: Optional[float]) -> Optional[float]:
    return None if budget_seconds is None else time.monotonic() + budget_seconds


def _count_clauses(clauses: Clauses, num_vars: int, *, threads: int = 1,
                   deadline: Optional[float] = None) -> tuple[int, CounterStats]:
    """Count over all num_vars variables, stopping at the absolute
    time.monotonic() deadline.  With threads > 1 the instance is split
    into independent subproblems counted by a process pool; every worker
    gets the same deadline (the monotonic clock is system-wide)."""
    if num_vars < 0:
        raise ValueError("variable count must be nonnegative")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    prepared = preprocess(clauses, num_vars)
    if prepared is None:
        return 0, CounterStats()
    if threads == 1:
        return _search(num_vars, prepared, deadline)

    settled, open_entries = _split_subproblems(prepared, num_vars, target=4 * threads)
    stats = CounterStats()
    total = settled
    residuals = [tuple(entry) for entry, _shift in open_entries]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        results = pool.map(_count_remapped, residuals, [deadline] * len(residuals))
        for (value, stat_dict), (_entry, shift) in zip(results, open_entries):
            total += value << shift
            stats.merge(CounterStats(**stat_dict))
    return total, stats


def count_models(instance: Union[CnfInstance, Clauses], num_vars: Optional[int] = None,
                 *, threads: int = 1,
                 budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
                 components: bool = False) -> int:
    """Exact number of satisfying assignments over all declared variables.

    Accepts a generated instance (variable count implied) or a raw clause
    list plus num_vars.  budget_seconds=None disables the time budget.
    `components` is accepted and ignored: there is one engine, and the
    keyword stays only because perfbench/workloads.py still passes it.
    """
    if isinstance(instance, CnfInstance):
        clauses: Clauses = instance.clauses
        num_vars = instance.predicate_count
    else:
        clauses = instance
        if num_vars is None:
            raise ValueError("num_vars is required for raw clause lists")
    value, _stats = _count_clauses(clauses, num_vars, threads=threads,
                                   deadline=_deadline(budget_seconds))
    return value


def run_external_counter(instance: CnfInstance, command: Optional[str] = None,
                         pattern: Optional[str] = None,
                         timeout: Optional[float] = DEFAULT_BUDGET_SECONDS) -> int:
    """Write the instance as DIMACS, run a configured counting command on
    it, and parse the reported model count.

    The command template may reference the file as {file}; otherwise the
    path is appended.  The pattern must match somewhere in stdout, with
    the count in group 1 (or the whole match).
    """
    command = command or os.environ.get(EXTERNAL_CMD_ENV)
    if not command:
        raise ExternalToolError(
            f"no external counter configured (flag --external-cmd or ${EXTERNAL_CMD_ENV})")
    pattern = pattern or DEFAULT_EXTERNAL_PATTERN
    text = emit_dimacs(instance)
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(text)
        path = handle.name
    try:
        quoted = shlex.quote(path)
        cmd = command.replace("{file}", quoted) if "{file}" in command else f"{command} {quoted}"
        try:
            proc = subprocess.run(cmd, shell=True, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ResourceLimitError(f"external counter exceeded {timeout}s") from exc
        output = proc.stdout + (("\n" + proc.stderr) if proc.stderr else "")
        if proc.returncode != 0:
            raise ExternalToolError(f"external counter exited {proc.returncode}",
                                    command=cmd, output=output)
        match = re.search(pattern, proc.stdout, re.MULTILINE)
        if not match:
            raise ExternalToolError(f"no count matching {pattern!r} in external output",
                                    command=cmd, output=output)
        return int(match.group(1) if match.groups() else match.group(0))
    finally:
        os.unlink(path)


def count_variant(n: int, variant: Variant, method: str = "dpll", *,
                  threads: int = 1, budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
                  encode_cap: int = ENCODE_CAP,
                  external_cmd: Optional[str] = None,
                  external_pattern: Optional[str] = None) -> CountReport:
    """Count one variant at one width by the requested method.

    dpll encodes and counts with the component-caching search; bruteforce
    defers to the exhaustive family enumeration; identity derives the
    value from dpll counts of other variants, all under one deadline;
    external shells out to a configured tool.  All four must agree
    wherever more than one applies.
    """
    if isinstance(variant, str):
        variant = Variant.from_name(variant)
    if method == "identity-derived":
        method = "identity"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    start = time.monotonic()

    if method == "bruteforce":
        from .oracle import brute_count
        value = brute_count(n, variant)
        return CountReport(variant, n, "bruteforce", value,
                           time.monotonic() - start, CounterStats())

    if method == "external":
        instance = encode(n, variant, cap=encode_cap)
        value = run_external_counter(instance, command=external_cmd,
                                     pattern=external_pattern, timeout=budget_seconds)
        return CountReport(variant, n, "external", value,
                           time.monotonic() - start, CounterStats())

    deadline = _deadline(budget_seconds)
    stats = CounterStats()

    def dpll_count(k: int, v: Variant) -> int:
        instance = encode(k, v, cap=encode_cap)
        value, sub = _count_clauses(instance.clauses, instance.predicate_count,
                                    threads=threads, deadline=deadline)
        stats.merge(sub)
        return value

    if method == "dpll":
        value = dpll_count(n, variant)
        return CountReport(variant, n, "dpll", value, time.monotonic() - start, stats)

    # identity: derive from dpll counts of the other variants
    if variant is Variant.H0:
        if n == 0:
            raise ValueError(
                "no identity derives the h0 count at n=0: the all-ones and "
                "all-zeros vectors coincide there, so the h0/h doubling fails")
        value = 2 * dpll_count(n, Variant.H)
    elif variant is Variant.H01:
        value = 2 * dpll_count(n, Variant.H1)
    elif variant is Variant.H1:
        value = sum(binomial(n, k) * dpll_count(k, Variant.H) for k in range(n + 1))
    else:
        # h has no doubling source; invert the h1 binomial sum instead
        h1 = [dpll_count(k, Variant.H1) for k in range(n + 1)]
        value = inverse_binomial_sum(h1)[n]
    return CountReport(variant, n, "identity-derived", value,
                       time.monotonic() - start, stats)
