"""Exact CNF model counting with DPLL-style search, in exact integers.

One engine, ComponentCounter, does every count: a DPLL search with unit
propagation that splits each residual into connected components,
multiplies their counts, and memoizes components under a bounded cache
(the component-caching design of sharpSAT).  A residual is three
bitmasks over a static clause table: its free variables, its open
clauses, and the open clauses shortened on the path to it, so the search
loops touch only ints.  Unit propagation also closes the clauses that a
new binary clause subsumes: once an open clause has two free literals
left, every other open clause that holds both is implied by it and
drops out (on-the-fly subsumption; Han & Somenzi, SAT 2009), so fewer
clauses tie the free variables together.  One breadth-first pass over
a residual's free variables finds its components.  A residual or
component of at most TABLE_VARS variables is neither split nor branched
on: it is counted from a truth table with one bit per assignment.  Each
leaf splits off every variable that shares no open clause with an
earlier pick, sparsest first, and sums them out row by row by weights
(the elimination step of bucket elimination) over a table of the
others.  Each open clause excludes the rows that falsify it, the AND of
one precomputed column per table literal (a variable's column, or its
complement for a positive literal).  A row's weight depends on how many
split variables exclude it at one of their values; a bit-sliced binary
counter (carry-save, as in the Harley-Seal popcount) keeps that count in
a few digit ints, and the rows are then summed by cells of equal count.
No table is wider than TABLE_BASE variables.  A component wider than
TABLE_VARS, or a leaf whose split leaves more than TABLE_BASE variables,
branches on the variable in the most open clauses, shortened ones
weighing five times.
The `dpll` method name refers to this search.

The four variants of a width share their ternary clauses and differ
only in their endpoint unit clauses, so count_width counts all four in
one engine over the clauses of h01, which has none: each variant starts
from the residual that assumes its endpoint literals.  h01 is counted
first; h1, h0 and h are then answered from its component cache, whose
keys name a subproblem of the shared clause table whichever variant
reached it.  count_variant counts one variant the same way, in an
engine of its own.

Counts are over ALL declared variables, so a variable appearing in no
clause doubles the count.  There is deliberately no pure-literal rule:
fixing a pure literal preserves satisfiability but loses models.

A budget is one absolute deadline for the whole count, shared by every
pool worker and every sub-count of an identity derivation.  Each engine
run reads it on entry and then every 512 nodes.
"""

from __future__ import annotations

import os
import re
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional, Sequence, Union

from .encoder import ENCODE_CAP, CnfInstance, emit_dimacs, encode, endpoint_units
from .errors import ExternalToolError, ResourceLimitError
from .families import Variant
from .identities import binomial_sum, doubling, inverse_binomial_sum

#: Default wall-clock budget per count, seconds.
DEFAULT_BUDGET_SECONDS = 600.0

#: Component-cache entry bound; the cache is cleared when it fills.
DEFAULT_CACHE_LIMIT = 2_000_000

#: Width of the widest truth table built: a leaf is counted over the
#: 2^TABLE_BASE-row columns of _tables(TABLE_BASE) at most.
TABLE_BASE = 16

#: Components of at most this many variables are counted whole, from a
#: truth table of the variables their split leaves, instead of by
#: branching.
TABLE_VARS = 26

#: Environment variable consulted for the external counter command.
EXTERNAL_CMD_ENV = "HORNENUM_EXTERNAL_CMD"

#: Default pattern locating the reported count in external-tool output:
#: a line consisting of one decimal integer.
DEFAULT_EXTERNAL_PATTERN = r"^\s*(\d+)\s*$"

METHODS = ("dpll", "bruteforce", "identity", "external")

Clauses = Sequence[Sequence[int]]

#: A residual subproblem (free, open, shortened) of a ComponentCounter's
#: clause table; see the class docstring.
Residual = tuple[int, int, int]


@dataclass
class CounterStats:
    """Search-effort counters; merged by summation across workers.

    nodes: components the search reached after unit propagation, and
        residuals of at most TABLE_VARS variables counted whole, cache
        hits included.
    decisions: branching variables chosen, one per cache miss on a
        component wider than TABLE_VARS or on a narrower one whose
        split leaves more than TABLE_BASE variables (see _count_table);
        nodes - cache_hits - decisions is the number of nodes counted by
        truth table.
    propagations: literals implied by unit clauses, the input's own unit
        clauses and a variant's endpoint literals included; a decision
        literal is not counted.
    components: parts of residuals wider than TABLE_VARS that split into
        more than one component (a residual in one piece, or one counted
        whole, adds nothing).  The parts are those of the open clauses
        left after propagation has closed every clause that a binary
        clause subsumes.
    cache_hits: nodes answered from the component cache.
    cache_entries: entries in the cache when the count ended.
    cache_evictions: times the full cache was cleared.
    subproblems: engine runs merged into these stats (one per pool job).
    """

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
    Raises ValueError on a literal that is not a nonzero int (a bool is
    not a literal) of magnitude at most num_vars.
    """
    out = []
    seen = set()
    for clause in clauses:
        for lit in clause:
            if (type(lit) is not int and (not isinstance(lit, int) or isinstance(lit, bool))
                    or not 0 < abs(lit) <= num_vars):
                raise ValueError(f"literal {lit!r} invalid for {num_vars} variables")
        lits = tuple(sorted(set(clause)))
        if not lits:
            return None
        if any(-lit in lits for lit in lits):
            continue
        if lits not in seen:
            seen.add(lits)
            out.append(lits)
    return out


class ComponentCounter:
    """Cached component counting: count() is the number of assignments of
    all num_vars variables that satisfy the clauses (as returned by
    preprocess: no empty clause, no tautology).

    The clauses go into a static table once.  Bit v of a variable mask is
    variable v and bit i of a clause mask is clause i.  Each clause has a
    variable mask, a positive-variable mask and its own one-bit mask
    (loops over a clause mask take its top bit and clear it through that
    mask, one wide-int operation per clause); each variable has the
    mask of the clauses it occurs in; each literal has the mask of the
    clauses it satisfies.  A residual subproblem is then three ints
    (free, open, shortened): its free variables, its open clauses, and
    those open clauses that lost a literal on the path to it.  The first
    two identify it exactly: every assigned literal of an open clause is
    false, so the residual of an open clause is the clause restricted to
    the free variables.  The third only guides branching.

    Assigning a literal propagates the units it implies, and closes each
    open clause that a clause it leaves binary subsumes (both hold the
    two free literals), which keeps the open mask exact: while the binary
    clause is open, every assignment that satisfies it satisfies the
    clauses it subsumes.  A residual of at most TABLE_VARS free
    variables is counted whole.  A wider one splits into
    variable-connected components whose counts multiply, and each free
    variable in no open clause doubles the count.  A component,
    or a residual counted whole, is looked up in a bounded cache under
    the one int `clauses << (num_vars + 1) | variables` (the sharpSAT
    component key), which means the count of these clauses over exactly
    these variables in either case.  On a miss, one of at most TABLE_VARS
    variables is counted in one step from its truth table (see
    _count_table: split variables summed out by weight, the weights read
    from a bit-sliced binary count of each row's exclusions), which the
    same invariant makes exact; a wider one, or
    one whose split leaves more than TABLE_BASE variables, by branching
    on the variable of highest score.
    """

    def __init__(self, num_vars: int, clauses: list[tuple[int, ...]],
                 deadline: Optional[float] = None,
                 cache_limit: int = DEFAULT_CACHE_LIMIT):
        self.num_vars = num_vars
        self.deadline = deadline
        self.cache_limit = cache_limit
        self.clauses = clauses
        self.cache: dict[int, int] = {}
        self.stats = CounterStats()
        self._key_shift = num_vars + 1
        self._bit = [1 << i for i in range(len(clauses))]
        self._vars: list[int] = []
        self._positive: list[int] = []
        self._occ = [0] * (num_vars + 1)
        self._sat_pos = [0] * (num_vars + 1)
        self._sat_neg = [0] * (num_vars + 1)
        for i, clause in enumerate(clauses):
            vars_mask = positive = 0
            for lit in clause:
                v = abs(lit)
                vars_mask |= 1 << v
                self._occ[v] |= 1 << i
                if lit > 0:
                    positive |= 1 << v
                    self._sat_pos[v] |= 1 << i
                else:
                    self._sat_neg[v] |= 1 << i
            self._vars.append(vars_mask)
            self._positive.append(positive)

    def count(self, residual: Optional[Residual] = None) -> int:
        """The model count of a residual (free, open, shortened) of this
        table, by default the whole instance.  A deadline already past on
        entry (a queued pool job, an instance its unit clauses settle) or
        reached later, and a search deeper than the interpreter's stack
        (two frames per decision level), raise ResourceLimitError."""
        self._check_budget()
        try:
            if residual is None:
                residual = self._start()
            result = 0 if residual is None else self._count_residual(*residual)
        except RecursionError:
            raise ResourceLimitError(
                f"search deeper than the recursion limit ({sys.getrecursionlimit()}) "
                f"on {self.num_vars} variables", stats=self.stats.to_dict()) from None
        self.stats.cache_entries = len(self.cache)
        self.stats.subproblems = 1
        return result

    def _start(self, assumed: Sequence[int] = ()) -> Optional[Residual]:
        """The residual after the assumed literals and the input's unit
        clauses, or None on a conflict.  An assumed literal counts as a
        propagation, as a unit clause does.  Scanning every variable's
        clauses once then finds the unit clauses and what the assumed
        literals imply."""
        free, open_, shortened = ((1 << self.num_vars) - 1) << 1, (1 << len(self._vars)) - 1, 0
        for lit in assumed:
            v = abs(lit)
            if not free >> v & 1:
                if -lit in assumed:
                    return None
                continue
            free ^= 1 << v
            open_ &= ~(self._sat_pos[v] if lit > 0 else self._sat_neg[v])
            shortened |= self._occ[v]
            self.stats.propagations += 1
        return self._propagate(free, open_, shortened, list(range(1, self.num_vars + 1)))

    def _check_budget(self) -> None:
        self.stats.cache_entries = len(self.cache)
        _check_deadline(self.deadline, self.stats)

    def _propagate(self, free: int, open_: int, shortened: int,
                   queue: list[int]) -> Optional[Residual]:
        """Propagate units from the just-assigned variables in queue.

        Only the open clauses of an assigned variable can become unit or
        empty.  A unit is assigned when it is found, so a clause that a
        later unit closes leaves the scan, and one that a later unit
        falsifies is found empty when that unit's clauses are scanned.
        A scanned clause left with exactly two free literals closes every
        other open clause that holds both of them (the AND of the two
        literals' satisfied-clause masks), as it implies each of them;
        a clause with one of them, or with one of the opposite sign,
        stays.  Each implied variable's clauses join shortened.  Returns
        the residual (free, open, shortened), or None on a conflict."""
        vars_of, positive, occ, bit = self._vars, self._positive, self._occ, self._bit
        sat_pos, sat_neg = self._sat_pos, self._sat_neg
        implied = 0
        while queue:
            scan = occ[queue.pop()] & open_
            while scan:
                i = scan.bit_length() - 1
                scan ^= bit[i]
                rest = vars_of[i] & free
                high = rest & (rest - 1)
                if high:
                    if high & (high - 1):
                        continue
                    low = rest ^ high
                    a, b, pos = low.bit_length() - 1, high.bit_length() - 1, positive[i]
                    subsumed = ((sat_pos[a] if pos & low else sat_neg[a])
                                & (sat_pos[b] if pos & high else sat_neg[b]) & open_)
                    open_ ^= subsumed ^ bit[i]
                    scan &= open_
                    continue
                if not rest:
                    self.stats.propagations += implied
                    return None
                v = rest.bit_length() - 1
                free ^= rest
                open_ &= ~(sat_pos[v] if positive[i] & rest else sat_neg[v])
                scan &= open_
                shortened |= occ[v]
                queue.append(v)
                implied += 1
        self.stats.propagations += implied
        return free, open_, shortened & open_

    def _count_residual(self, free: int, open_: int, shortened: int) -> int:
        """Count a residual over all its free variables.  One of at most
        TABLE_VARS free variables is counted whole, as one component.  A
        wider one is split into components by one breadth-first search
        over the occurrence masks; a variable in no open clause is a
        component without clauses, which doubles the count and is not
        searched."""
        if free.bit_count() <= TABLE_VARS:
            if not open_:
                return 1 << free.bit_count()
            return self._count_component(free, open_, shortened)
        occ, vars_of, bit = self._occ, self._vars, self._bit
        result = 1
        parts = []
        unvisited = free
        while unvisited:
            frontier = unvisited & -unvisited
            unvisited ^= frontier
            comp_vars = frontier
            comp_clauses = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = occ[low.bit_length() - 1] & open_
                open_ ^= new
                comp_clauses |= new
                while new:
                    i = new.bit_length() - 1
                    new ^= bit[i]
                    reached = vars_of[i] & unvisited
                    if reached:
                        unvisited ^= reached
                        comp_vars |= reached
                        frontier |= reached
            if comp_clauses:
                parts.append((comp_vars, comp_clauses))
            else:
                result <<= 1
        if len(parts) > 1:
            self.stats.components += len(parts)
        for comp_vars, comp_clauses in parts:
            result *= self._count_component(comp_vars, comp_clauses, shortened & comp_clauses)
            if not result:
                break
        return result

    def _count_component(self, variables: int, clauses: int, shortened: int) -> int:
        """Count one component, or a residual counted whole, over exactly
        its variables."""
        self.stats.nodes += 1
        if self.stats.nodes % 512 == 0:
            self._check_budget()
        key = clauses << self._key_shift | variables
        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        total = (self._count_table(variables, clauses)
                 if variables.bit_count() <= TABLE_VARS else None)
        if total is None:
            total = 0
            for state in self._branch(variables, clauses, shortened):
                if state is not None:
                    total += self._count_residual(*state)
        if len(self.cache) >= self.cache_limit:
            self.cache.clear()
            self.stats.cache_evictions += 1
        self.cache[key] = total
        return total

    def _count_table(self, variables: int, clauses: int) -> Optional[int]:
        """Count a component of k <= TABLE_VARS variables from a truth
        table, or return None if its split leaves more than TABLE_BASE
        variables.

        The leaf splits off u variables: every one that shares no open
        clause with an earlier pick, sparsest first (fewest open clauses,
        ties to the lowest id), so every one in no open clause.  The t =
        k - u others take columns 0..t-1 of _tables(t) in pick order, and
        the leaf returns None as soon as the pick has rejected more than
        TABLE_BASE variables.  An open clause has at least one free
        literal and its assigned literals are all false, so the rows it
        excludes are those that falsify every free literal: the AND of
        the rows falsifying each of its table literals (a variable's
        column for a negative literal, its complement for a positive one),
        or all rows if its only free literal is split off.  A clause with
        split variable s excludes these rows only at the value b of s that
        falsifies it, into Q[s][b]; any other clause, outright.  Summed
        over s, row x weighs 2 - [x in Q[s][0]] - [x in Q[s][1]]: rows in
        both weigh 0 and are excluded, and a row in c of the sets Q[s][0]
        | Q[s][1] weighs 2^(u - c) (the elimination step of bucket
        elimination).  The digits count c in binary, bit-sliced: digit j
        holds the rows whose count has bit j set, and each set is added by
        ripple carry (a carry-save counter).  The kept rows then split
        into cells of equal c, top digit first."""
        occ, bit, sat_pos, lits_of = self._occ, self._bit, self._sat_pos, self.clauses
        order = []
        rest = variables
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            mine = occ[v] & clauses
            order.append((mine.bit_count(), v, mine))
        split, table = [], []
        taken = 0
        for _, v, mine in sorted(order):
            if not mine & taken:
                split.append((v, mine))
                taken |= mine
            else:
                table.append(v)
                if len(table) > TABLE_BASE:
                    return None
        falsify = {}
        for v, column, complement in zip(table, *_tables(len(table))):
            falsify[-v] = column
            falsify[v] = complement
        rows_of = falsify.get
        # the clauses without a split variable, then for each split
        # variable v in a clause its clauses with +v (Q[v][0]) and -v
        groups = [clauses ^ taken]
        for v, mine in split:
            if mine:
                pos = sat_pos[v] & mine
                groups += (pos, mine ^ pos)
        rows = (1 << (1 << len(table))) - 1
        sets = []
        for mask in groups:
            union = 0
            while mask:
                i = mask.bit_length() - 1
                mask ^= bit[i]
                falsified = None
                for lit in lits_of[i]:
                    lit_rows = rows_of(lit)
                    if lit_rows is not None:
                        falsified = lit_rows if falsified is None else falsified & lit_rows
                union |= rows if falsified is None else falsified
            sets.append(union)
        excluded = sets[0]
        digits = []
        for s in range(1, len(sets), 2):
            at_zero, at_one = sets[s], sets[s + 1]
            excluded |= at_zero & at_one
            carry = at_zero | at_one
            for j, digit in enumerate(digits):
                digits[j] = digit ^ carry
                carry &= digit
                if not carry:
                    break
            else:
                digits.append(carry)
        cells = [(rows ^ excluded, 0)]
        for j in reversed(range(len(digits))):
            digit, parts = digits[j], []
            for cell, c in cells:
                inside = cell & digit
                if inside:
                    parts.append((inside, c + (1 << j)))
                    cell ^= inside
                if cell:
                    parts.append((cell, c))
            cells = parts
        return sum(cell.bit_count() << (len(split) - c) for cell, c in cells)

    def _branch(self, free: int, open_: int, shortened: int) -> list[Optional[Residual]]:
        """Decide the variable of highest score both ways: the two
        propagated residuals, None on conflict.  A variable scores one per
        open clause it is in and four more per shortened one, so clauses
        near unit are decided first; ties go to the lowest id."""
        occ = self._occ
        v, best = 0, -1
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            mask = occ[low.bit_length() - 1]
            k = (mask & open_).bit_count() + 4 * (mask & shortened).bit_count()
            if k > best:
                v, best = low.bit_length() - 1, k
        self.stats.decisions += 1
        free ^= 1 << v
        shortened |= occ[v]
        return [self._propagate(free, open_ & ~satisfied, shortened, [v])
                for satisfied in (self._sat_pos[v], self._sat_neg[v])]


#: _tables(k) by k <= TABLE_BASE, filled on first use.  The tables are
#: constants, so a plain dict holds them, where a functools cache would be
#: emptied and rebuilt by every cache clear, and each rebuild grew the heap.
_TABLES: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}


def _tables(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The k variable columns of a 2^k-row truth table, each a 2^k-bit
    int (bit x of column j is bit j of x), and their complements within
    the rows.  Adding variable j doubles the rows: the upper half repeats
    the columns so far and sets column j, so a table costs shifts and ORs
    of its own size.  A leaf's j-th table variable v takes column j: the
    rows that falsify -v, and the complement those that falsify +v; the
    leaf's digits and cells are sets of the same rows.  The engine asks
    for k <= TABLE_BASE only: the
    columns at TABLE_BASE = 16 take 16 x 8 KiB, and their complements as
    much again."""
    tables = _TABLES.get(k)
    if tables is None:
        columns: tuple[int, ...] = ()
        for j in range(k):
            half = 1 << j
            columns = (tuple(column | column << half for column in columns)
                       + (((1 << half) - 1) << half,))
        rows = (1 << (1 << k)) - 1
        tables = _TABLES[k] = columns, tuple(rows ^ column for column in columns)
    return tables


def _count_job(num_vars: int, clauses: list[tuple[int, ...]], deadline: Optional[float],
               residual: Residual) -> tuple[int, dict]:
    """One pool job: count one residual of the instance's clause table,
    over a table of only its open clauses."""
    free, open_, shortened = residual
    ids = [i for i in range(open_.bit_length()) if open_ >> i & 1]
    counter = ComponentCounter(num_vars, [clauses[i] for i in ids], deadline=deadline)
    shortened = sum(1 << j for j, i in enumerate(ids) if shortened >> i & 1)
    return counter.count((free, (1 << len(ids)) - 1, shortened)), counter.stats.to_dict()


def _split_residuals(table: ComponentCounter, start: Optional[Residual],
                     target: int) -> list[Residual]:
    """Cofactor-expand the start residual (None on a conflict) into
    independent residuals whose counts sum to its model count: branch the
    residual with the most open clauses by the engine's rule until there
    are target residuals or none has an open clause.  A conflict leaves
    no residual."""
    residuals = [] if start is None else [start]
    while len(residuals) < target:
        j = max(range(len(residuals)), key=lambda j: residuals[j][1].bit_count(), default=None)
        if j is None or not residuals[j][1]:
            break
        residuals += [state for state in table._branch(*residuals.pop(j)) if state is not None]
    return residuals


def _deadline(budget_seconds: Optional[float]) -> Optional[float]:
    return None if budget_seconds is None else time.monotonic() + budget_seconds


def _check_deadline(deadline: Optional[float], stats: CounterStats) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceLimitError("count budget exceeded", stats=stats.to_dict())


def _count_assuming(engine: ComponentCounter, assumed: Sequence[int],
                    threads: int) -> tuple[int, CounterStats]:
    """Count the engine's instance under the assumed literals, stopping at
    the engine's deadline, with fresh stats.  With one thread the engine
    counts, and its cache stays for the next call.  With threads > 1 the
    search is split into residuals of the engine, counted by a process
    pool, each job with a cache of its own; every job gets the same
    deadline (the monotonic clock is system-wide).  Pooled stats add the
    jobs' stats to the engine's own propagations and split decisions."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    engine.stats = CounterStats()
    engine._check_budget()
    start = engine._start(assumed)
    if threads == 1:
        return (0 if start is None else engine.count(start)), engine.stats

    from concurrent.futures import ProcessPoolExecutor
    residuals = _split_residuals(engine, start, target=4 * threads)
    total, stats = 0, engine.stats
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for value, stat_dict in pool.map(
                partial(_count_job, engine.num_vars, engine.clauses, engine.deadline),
                residuals):
            total += value
            stats.merge(CounterStats(**stat_dict))
    return total, stats


def _count_clauses(clauses: Clauses, num_vars: int, *, threads: int = 1,
                   deadline: Optional[float] = None) -> tuple[int, CounterStats]:
    """Count over all num_vars variables, stopping at the absolute
    time.monotonic() deadline; threads as in _count_assuming."""
    if num_vars < 0:
        raise ValueError("variable count must be nonnegative")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    prepared = preprocess(clauses, num_vars)
    _check_deadline(deadline, CounterStats())
    if prepared is None:
        return 0, CounterStats()
    return _count_assuming(ComponentCounter(num_vars, prepared, deadline=deadline), (), threads)


def _count_width(n: int, variants: Sequence[Variant], threads: int,
                 deadline: Optional[float], encode_cap: int) -> dict[Variant, CountReport]:
    """Count the variants at width n, in this order, in one engine over
    the clauses of h01, each under its endpoint literals.  A report's
    elapsed time runs from the end of the previous count, the first's
    from the call, so it includes the encoding and the clause table."""
    mark = time.monotonic()
    instance = encode(n, Variant.H01, cap=encode_cap)
    num_vars = instance.predicate_count
    engine = ComponentCounter(num_vars, preprocess(instance.clauses, num_vars),
                              deadline=deadline)
    reports = {}
    for variant in variants:
        value, stats = _count_assuming(engine, endpoint_units(n, variant), threads)
        now = time.monotonic()
        reports[variant] = CountReport(variant, n, "dpll", value, now - mark, stats)
        mark = now
    return reports


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
    import shlex
    import subprocess
    import tempfile

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


def count_width(n: int, *, threads: int = 1,
                budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
                encode_cap: int = ENCODE_CAP) -> dict[Variant, CountReport]:
    """Count all four variants at width n by method dpll, in one engine
    under one deadline: h01 first, then h1, h0 and h.

    h0 and h01 are h and h1 with the all-ones predicate free, and it is in
    no clause; h is the branch of h1 with the all-zeros predicate true.  So
    after h01 the other three come from the component cache, at n = 5 and
    n = 6 in one node each.  With threads > 1 each variant is pooled on its
    own and no cache is shared.
    """
    return _count_width(n, (Variant.H01, Variant.H1, Variant.H0, Variant.H), threads,
                        _deadline(budget_seconds), encode_cap)


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
    variant = Variant.from_name(variant)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if method == "identity-derived":
        method = "identity"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    start = time.monotonic()
    deadline = _deadline(budget_seconds)

    if method == "bruteforce":
        from .oracle import brute_count
        _check_deadline(deadline, CounterStats())
        value = brute_count(n, variant)
        return CountReport(variant, n, "bruteforce", value,
                           time.monotonic() - start, CounterStats())

    if method == "external":
        instance = encode(n, variant, cap=encode_cap)
        value = run_external_counter(instance, command=external_cmd,
                                     pattern=external_pattern, timeout=budget_seconds)
        return CountReport(variant, n, "external", value,
                           time.monotonic() - start, CounterStats())

    if method == "dpll":
        return _count_width(n, (variant,), threads, deadline, encode_cap)[variant]

    stats = CounterStats()

    def dpll_count(k: int, v: Variant) -> int:
        report = _count_width(k, (v,), threads, deadline, encode_cap)[v]
        stats.merge(report.stats)
        return report.count

    # identity: derive from dpll counts of the other variants
    if variant is Variant.H0:
        if n == 0:
            raise ValueError(
                "no identity derives the h0 count at n=0: the all-ones and "
                "all-zeros vectors coincide there, so the h0/h doubling fails")
        value = doubling(dpll_count(n, Variant.H))
    elif variant is Variant.H01:
        value = doubling(dpll_count(n, Variant.H1))
    elif variant is Variant.H1:
        value = binomial_sum([dpll_count(k, Variant.H) for k in range(n + 1)])
    else:
        # h has no doubling source; invert the h1 binomial sum instead
        h1 = [dpll_count(k, Variant.H1) for k in range(n + 1)]
        value = inverse_binomial_sum(h1)[n]
    return CountReport(variant, n, "identity-derived", value,
                       time.monotonic() - start, stats)
