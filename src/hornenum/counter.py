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
clauses tie the free variables together.  A sweep over a residual's
free variables finds its components: each grows from its lowest
variable by every variable in one of its open clauses, testing only
the variables that share a table clause with one it has taken
(per-variable neighbour masks, built on first use).  A residual or
component of at most TABLE_VARS variables is neither split nor branched
on: it is counted from a truth table with one bit per assignment.  Each
leaf splits off groups of one or two variables, no two groups sharing an
open clause: every variable that shares no open clause with an earlier
pick, sparsest first, and then each other variable whose open clauses
meet those of exactly one such single, as its partner.  It sums the
groups out row by row by weights (the elimination step of bucket
elimination, Dechter 1999, over buckets of one or two variables) over a
table of the others.  Each open clause excludes the rows that falsify
it, the AND of one precomputed column per table literal (a variable's
column, or its complement for a positive literal).  A row weighs the
product over the groups of the values of each group that exclude it
nowhere; bit-sliced binary counters (carry-save, as in the Harley-Seal
popcount) keep, in a few digit ints, the number of halvings and of
weight-3 pairs of every row, and the rows are then summed by cells of
equal counts.  No table is wider than TABLE_BASE variables.  A component
wider than TABLE_VARS, or a leaf whose split leaves more than TABLE_BASE
variables, branches on the variable in the most open clauses, shortened
ones weighing five times.
The `dpll` method name refers to this search.

An engine has one start: the mask of the clauses in force, every
clause by default; a clause out of force is closed from the start.
Propagation runs from the variables of the unit and binary clauses in
force: it assigns each unit clause's literal and lets each binary clause
close the clauses it subsumes, as for a clause left binary, and no other
clause can become unit or binary before one of these reaches it.  An
engine that counts from its own start (count() with no residual, as
count_models does) and whose start closed a clause searches a table
rebuilt over only the open clauses, in their order: the same search, on
clause masks a fifth as wide for the unit-clause slices of a width-6
instance.

The four variants of a width share their ternary clauses and differ
only in their endpoint unit clauses, so count_width counts all four in
one engine over the clauses of h, each variant from the mask of the
ternary clauses and its own endpoint unit clauses.  h01 is counted
first; h1, h0 and h are then answered from its component cache, whose
keys name a subproblem of the shared clause table whichever variant
reached it: a unit clause is closed from the start when out of force,
and once it propagates when in force.  Each variant's residual is
passed to count(), so all four are searched over that one table and
none is rebuilt.  count_variant counts one variant the same way, in an
engine of its own.

Counts are over ALL declared variables, so a variable appearing in no
clause doubles the count.  There is deliberately no pure-literal rule:
fixing a pure literal preserves satisfiability but loses models.

Every count runs in the calling process, in one engine, so that all its
residuals share one component cache.  A budget is one absolute deadline
for the whole count, shared by every sub-count of an identity
derivation.  Each engine run reads it on entry and then every 512 nodes.
"""

from __future__ import annotations

import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from operator import neg, or_
from typing import Optional, Sequence, Union

from .encoder import CnfInstance, emit_dimacs, encode, endpoint_units
from .errors import ExternalToolError, ResourceLimitError
from .families import Variant, _check_width
from .identities import derive_count

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
    """Search-effort counters; merged by summation across the counts of
    an identity derivation.

    nodes: components the search reached after unit propagation, and
        residuals of at most TABLE_VARS variables counted whole, cache
        hits included.
    decisions: branching variables chosen, one per cache miss on a
        component wider than TABLE_VARS or on a narrower one whose split
        into singles and pairs leaves more than TABLE_BASE variables
        (see _count_table); nodes - cache_hits - decisions is the number
        of nodes counted by truth table, leaves - leaf_fallbacks.
    propagations: literals implied by unit clauses, those of the unit
        clauses in force at the start included; a decision literal is not
        counted.
    components: parts of residuals wider than TABLE_VARS that split into
        more than one component (a residual in one piece, or one counted
        whole, adds nothing).  The parts are those of the open clauses
        left after propagation has closed every clause that a binary
        clause subsumes.
    cache_hits: nodes answered from the component cache.
    cache_entries: entries in the cache when the count ended.
    cache_evictions: times the full cache was cleared.
    subproblems: engine runs merged into these stats: 1 per count (0 if
        its start is a conflict), summed over the counts of an identity
        derivation.
    leaves: truth-table attempts, one per cache miss on a component of
        at most TABLE_VARS variables.
    leaf_fallbacks: leaves whose split left more than TABLE_BASE
        variables, so that the component was branched on instead; each
        is also a decision.
    sweeps: component passes run (_components), one per residual wider
        than TABLE_VARS.
    """

    nodes: int = 0
    decisions: int = 0
    propagations: int = 0
    components: int = 0
    cache_hits: int = 0
    cache_entries: int = 0
    cache_evictions: int = 0
    subproblems: int = 0
    leaves: int = 0
    leaf_fallbacks: int = 0
    sweeps: int = 0

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
        return {**asdict(self), "variant": self.variant.value}


def preprocess(clauses: Clauses, num_vars: int) -> Optional[list[tuple[int, ...]]]:
    """Canonicalize clauses: sort and dedupe literals, drop tautologies,
    dedupe clauses, keeping their first order.  Returns None if an empty
    clause is present (count 0).  Raises ValueError on a literal that is
    not a nonzero int (a bool is not a literal) of magnitude at most
    num_vars.  Clauses are read in order, so an empty clause before an
    invalid literal gives None and one after it the error.
    """
    out = []
    for clause in clauses:
        # each clause is read once, so an iterator clause is not used up
        # by the check.  A bool or a float equals an int, so the types are
        # tested; an int subclass other than bool passes
        clause = tuple(clause)
        for lit in clause:
            if (type(lit) is not int and (not isinstance(lit, int) or isinstance(lit, bool))
                    or not 0 < abs(lit) <= num_vars):
                raise ValueError(f"literal {lit!r} invalid for {num_vars} variables")
        lits = set(clause)
        if not lits:
            return None
        if lits.isdisjoint(map(neg, lits)):
            out.append(tuple(sorted(lits)))
    return list(dict.fromkeys(out))


class ComponentCounter:
    """Cached component counting: count() is the number of assignments of
    all num_vars variables that satisfy the clauses: none empty,
    tautological or a duplicate, every literal in range, as preprocess
    returns them and the encoder emits them.

    The clauses go into a static table once.  Bit v of a variable mask is
    variable v and bit i of a clause mask is clause i.  Each clause has a
    variable mask, a positive-variable mask and its own one-bit mask
    (loops over a clause mask take its top bit and clear it through that
    mask, one wide-int operation per clause); each variable has the
    mask of the clauses it occurs in; each literal has the mask of the
    clauses it satisfies, each clause's bit OR-ed into the masks of its
    literals.  A residual subproblem is then three ints
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
    variable-connected components whose counts multiply, found by a
    sweep over the variables' occurrence and neighbour masks
    (_components), and each free variable in no open clause doubles the
    count.  A component,
    or a residual counted whole, is looked up in a bounded cache under
    the one int `clauses << (num_vars + 1) | variables` (the sharpSAT
    component key), which means the count of these clauses over exactly
    these variables in either case.  On a miss, one of at most TABLE_VARS
    variables is counted in one step from its truth table (see
    _count_table: split variables summed out in groups of one or two by
    weight, the weights read from bit-sliced binary counts over the
    rows), which the
    same invariant makes exact; a wider one, or
    one whose split leaves more than TABLE_BASE variables, by branching
    on the variable of highest score.

    The one start (_start) takes the mask of the clauses in force, every
    clause by default, and propagates from its unit and binary clauses.
    count() from the engine's own start, once the start has closed a
    clause, hands the search to an engine over only the open clauses
    (_open_table) that shares this one's stats and deadline.  A residual
    given to count() is searched over this table, so that the counts of
    several residuals share one cache, as count_width's four variants,
    each a mask over one table, do.
    """

    def __init__(self, num_vars: int, clauses: Sequence[tuple[int, ...]],
                 deadline: Optional[float] = None):
        self.num_vars = num_vars
        self.deadline = deadline
        self.clauses = clauses
        self.cache: dict[int, int] = {}
        self.stats = CounterStats()
        self._key_shift = num_vars + 1
        self._bit = bit = [1 << i for i in range(len(clauses))]
        self._vars: list[int] = []
        self._positive: list[int] = []
        self._sat_pos = sat_pos = [0] * (num_vars + 1)
        self._sat_neg = sat_neg = [0] * (num_vars + 1)
        # the ids of the unit and binary clauses, whose variables _start
        # propagates from
        self._seeds: list[int] = []
        for i, clause in enumerate(clauses):
            vars_mask = positive = 0
            for lit in clause:
                if lit > 0:
                    positive |= 1 << lit
                    sat_pos[lit] |= bit[i]
                else:
                    vars_mask |= 1 << -lit
                    sat_neg[-lit] |= bit[i]
            vars_mask |= positive
            self._vars.append(vars_mask)
            self._positive.append(positive)
            if len(clause) <= 2:
                self._seeds.append(i)
        self._occ = list(map(or_, sat_pos, sat_neg))
        self._near: list[int] = []

    def count(self, residual: Optional[Residual] = None) -> int:
        """The model count of a residual (free, open, shortened) of this
        table, by default the whole instance.  Counted from its own start,
        an instance whose start closed a clause (a unit clause satisfies
        some) is searched over a table of only the open clauses, in their
        order (_open_table): the same search on narrower clause masks, in
        an engine that shares these stats and deadline.  A residual given
        here is counted over this table, so that counts of residuals share
        its cache.  A deadline already past on entry (also for an instance
        its unit clauses settle) or reached later, and a search deeper than
        the interpreter's stack (two frames per decision level), raise
        ResourceLimitError."""
        self._check_budget()
        if residual is None:
            residual = self._start()
            if residual is not None and residual[1] != (1 << len(self.clauses)) - 1:
                engine, residual = self._open_table(residual)
                return engine.count(residual)
        if residual is None:
            return 0
        try:
            result = self._count_residual(*residual)
        except RecursionError:
            raise ResourceLimitError(
                f"search deeper than the recursion limit ({sys.getrecursionlimit()}) "
                f"on {self.num_vars} variables", stats=self.stats.to_dict()) from None
        self.stats.cache_entries = len(self.cache)
        self.stats.subproblems = 1
        return result

    def _start(self, open_: Optional[int] = None) -> Optional[Residual]:
        """The residual of the clauses in force, the clause mask open_ (by
        default every clause), or None on a conflict: a clause out of force
        is closed from the start.  Propagation runs from the variables of
        the unit and binary clauses in force, highest first.  It assigns
        each unit clause's literal, counted as a propagation, and lets each
        binary clause close every other clause that holds both its
        literals; no other clause can become unit or binary before one of
        these assignments reaches it."""
        clauses = self.clauses
        if open_ is None:
            open_ = (1 << len(clauses)) - 1
        queue = sorted({abs(lit) for i in self._seeds if open_ >> i & 1 for lit in clauses[i]})
        return self._propagate(((1 << self.num_vars) - 1) << 1, open_, 0, queue)

    def _open_table(self, residual: Residual) -> tuple["ComponentCounter", Residual]:
        """An engine over only the residual's open clauses, in their
        order, sharing this one's stats and deadline, and the residual
        re-indexed onto it.  Clause j of the new table is the j-th open
        clause, so every loop meets the clauses in the same order and the
        search is the same, on narrower clause masks."""
        free, open_, shortened = residual
        ids, short = [], 0
        rest = open_
        while rest:
            low = rest & -rest
            rest ^= low
            if shortened & low:
                short |= 1 << len(ids)
            ids.append(low.bit_length() - 1)
        engine = ComponentCounter(self.num_vars, [self.clauses[i] for i in ids],
                                  deadline=self.deadline)
        engine.stats = self.stats
        return engine, (free, (1 << len(ids)) - 1, short)

    def _check_budget(self) -> None:
        self.stats.cache_entries = len(self.cache)
        _check_deadline(self.deadline, self.stats)

    def _propagate(self, free: int, open_: int, shortened: int,
                   queue: list[int]) -> Optional[Residual]:
        """Propagate units from the variables in queue: those just
        assigned, or at the start those of the unit and binary clauses in
        force, whose scan assigns a unit and closes what a binary subsumes.

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
        wider one is split into the components of _components; a variable
        in no open clause is a component without clauses, which doubles
        the count and is not searched."""
        if free.bit_count() <= TABLE_VARS:
            if not open_:
                return 1 << free.bit_count()
            return self._count_component(free, open_, shortened)
        lone, parts = self._components(free, open_)
        if len(parts) > 1:
            self.stats.components += len(parts)
        result = 1 << lone
        for comp_vars, comp_clauses in parts:
            result *= self._count_component(comp_vars, comp_clauses, shortened & comp_clauses)
            if not result:
                break
        return result

    def _components(self, free: int, open_: int) -> tuple[int, list[tuple[int, int]]]:
        """The number of free variables in no open clause, and the
        variable-connected components of the others as (variables,
        clauses), by lowest variable.

        A sweep over variables finds each component: it starts at the
        lowest unvisited variable, keeps `reached`, the OR of the
        component's open clauses, and absorbs a variable u when occ[u] &
        reached is nonzero.  It tests only the unvisited variables that
        share a table clause with an absorbed one (_neighbours), and
        tests them again after each absorption that reaches them, so a
        variable in an open clause of the component is absorbed, and a
        finished component costs no pass over the rest of the residual.
        When the residual has fewer open clauses than free variables, the
        variables of its open clauses are OR-ed first, and those left out
        are counted in one step instead of seeded one by one."""
        occ, vars_of, bit = self._occ, self._vars, self._bit
        self.stats.sweeps += 1
        lone = 0
        unvisited = free
        if open_.bit_count() < free.bit_count():
            busy = 0
            rest = open_
            while rest:
                i = rest.bit_length() - 1
                rest ^= bit[i]
                busy |= vars_of[i]
            unvisited &= busy
            lone = (free ^ unvisited).bit_count()
        near = self._near or self._neighbours()
        parts = []
        while unvisited:
            seed = unvisited & -unvisited
            unvisited ^= seed
            v = seed.bit_length() - 1
            reached = occ[v] & open_
            if not reached:
                lone += 1
                continue
            comp_vars, rest = seed, near[v] & unvisited
            while rest:
                u = rest.bit_length() - 1
                low = 1 << u
                rest ^= low
                if occ[u] & reached:
                    reached |= occ[u] & open_
                    comp_vars |= low
                    unvisited ^= low
                    rest |= near[u] & unvisited
            parts.append((comp_vars, reached))
        return lone, parts

    def _neighbours(self) -> list[int]:
        """Each variable's mask of the variables it shares a table clause
        with, itself included.  Built on the first component sweep, not in
        __init__: an engine whose count() hands its search to an
        _open_table engine (a raw CNF with unit clauses, such as a width-6
        slice) never sweeps."""
        near = self._near = [0] * (self.num_vars + 1)
        for clause, mask in zip(self.clauses, self._vars):
            for lit in clause:
                near[abs(lit)] |= mask
        return near

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
        if len(self.cache) >= DEFAULT_CACHE_LIMIT:
            self.cache.clear()
            self.stats.cache_evictions += 1
        self.cache[key] = total
        return total

    def _count_table(self, variables: int, clauses: int) -> Optional[int]:
        """Count a component of k <= TABLE_VARS variables from a truth
        table, or return None if its split leaves more than TABLE_BASE
        variables.

        The leaf splits off groups of one or two variables, no two groups
        sharing an open clause.  The singles are every variable that
        shares no open clause with an earlier pick, sparsest first
        (fewest open clauses, ties to the lowest id), so every one in no
        open clause.  Then each rejected variable r, in the same order,
        whose open clauses meet those of exactly one group, a single s,
        joins it: s and r become a pair, and r's clauses join the
        group's.  The t others take columns 0..t-1 of _tables(t) in pick
        order.  The leaf returns None, before it builds a table, once more
        than TABLE_BASE are sure to be left: after the singles, if the
        rejected variables outnumber them by more (each single takes at
        most one partner), and then as soon as the table has more.

        An open clause has at least one free literal and its assigned
        literals are all false, so the rows it excludes are those that
        falsify every free literal left in the table: the AND of the rows
        falsifying each of its table literals (a variable's column for a
        negative literal, its complement for a positive one), or all rows
        if it has none.  Such a clause excludes these rows outright if it
        has no split variable, and otherwise only at the values of its
        group that falsify its split literals.

        A single s sums out into the row weight 2 - [x in Q_0] - [x in
        Q_1], where Q_b holds the rows excluded at s = b: rows in both
        are excluded, and a row in one is halved.  For a pair (s, r), let
        X_ab hold the rows excluded at s = a, r = b: a clause of s only
        goes into X_a0 and X_a1, one of r only into X_0b and X_1b, and one
        of both into one X_ab.  A row in n of the four sets weighs 4 - n:
        at n = 4 it is excluded, at n = 1 it counts one weight-3 pair, at
        n = 2 one halving and at n = 3 two.  A bit-sliced adder gives n in
        three digit ints.  Over all groups a row then weighs 3^t3 * 2^(U
        - h - 2 t3), with U = singles + 2 * pairs, h its halvings and t3
        its weight-3 pairs (the elimination step of bucket elimination).
        Two counters hold h and t3 in binary, bit-sliced: digit j holds
        the rows whose count has bit j set, and each set of rows is added
        by ripple carry (a carry-save counter, see _add), at digit 1 for
        the two halvings of n = 3.  The kept rows then split into cells of
        equal (h, t3), top digits first, and each cell adds its popcount
        times its weight."""
        occ, bit, sat_pos, lits_of = self._occ, self._bit, self._sat_pos, self.clauses
        self.stats.leaves += 1
        order = []
        rest = variables
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            mine = occ[v] & clauses
            order.append((mine.bit_count(), v, mine))
        singles, rejected = [], []
        taken = 0
        for _, v, mine in sorted(order):
            if not mine & taken:
                singles.append((v, mine))
                taken |= mine
            else:
                rejected.append((v, mine))
        if len(rejected) - len(singles) > TABLE_BASE:
            self.stats.leaf_fallbacks += 1
            return None
        pairs, table = [], []
        paired = 0
        for r, mine in rejected:
            hit = mine & taken
            if not hit & paired:
                # hit is in the clauses of singles only, so one meets it
                for j, (s, group) in enumerate(singles):
                    if group & hit:
                        break
                if group & hit == hit:
                    del singles[j]
                    pairs.append((s, group, r, mine))
                    paired |= group | mine
                    taken |= mine
                    continue
            table.append(r)
            if len(table) > TABLE_BASE:
                self.stats.leaf_fallbacks += 1
                return None
        falsify = {}
        for v, column, complement in zip(table, *_tables(len(table))):
            falsify[-v] = column
            falsify[v] = complement
        rows_of = falsify.get
        # the clauses of no group; per single s in a clause its clauses
        # with +s, failing at s = 0, and with -s; per pair (s, r) its
        # clauses of s only, then of r only, by the value failing them,
        # then those of both by the pair of values (0 0, 0 1, 1 0, 1 1)
        groups = [clauses ^ taken]
        for v, mine in singles:
            if mine:
                pos = sat_pos[v] & mine
                groups += (pos, mine ^ pos)
        singles_end = len(groups)
        for s, at_s, r, at_r in pairs:
            both = at_s & at_r
            at_0 = both & sat_pos[s]
            for mask, v in ((at_s ^ both, s), (at_r ^ both, r), (at_0, r), (both ^ at_0, r)):
                pos = mask & sat_pos[v]
                groups += (pos, mask ^ pos)
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
        digits, threes = [], []
        for j in range(1, singles_end, 2):
            at_zero, at_one = sets[j], sets[j + 1]
            excluded |= at_zero & at_one
            _add(digits, at_zero | at_one, 0)
        for j in range(singles_end, len(sets), 8):
            s_0, s_1, r_0, r_1, both_00, both_01, both_10, both_11 = sets[j:j + 8]
            # n = the number of the sets X_ab = S_a | R_b | B_ab that hold a
            # row, by a bit-sliced adder: digit 0, digit 1, and n = 4
            x_00, x_01 = s_0 | r_0 | both_00, s_0 | r_1 | both_01
            x_10, x_11 = s_1 | r_0 | both_10, s_1 | r_1 | both_11
            low, high = x_00 ^ x_01, x_10 ^ x_11
            carry_0, carry_1 = x_00 & x_01, x_10 & x_11
            n_0 = low ^ high
            n_1 = carry_0 ^ carry_1 ^ (low & high)
            excluded |= carry_0 & carry_1
            three = n_0 & n_1
            _add(threes, n_0 ^ three, 0)
            _add(digits, n_1 ^ three, 0)
            _add(digits, three, 1)
        # each cell's weight, 3^t3 * 2^(U - h - 2 t3), follows it through
        # the splits: 3/4 per weight-3 pair and a halving per h.  The top
        # digits hold few rows, so splitting by them first keeps the cells
        # few until the last layers
        cells = [(rows ^ excluded, 1 << (len(singles) + 2 * len(pairs)))]
        layers = ([(threes[j], 3 ** (1 << j), 2 << j) for j in reversed(range(len(threes)))]
                  + [(digits[j], 1, 1 << j) for j in reversed(range(len(digits)))])
        for digit, times, shift in layers:
            parts = []
            for cell, weight in cells:
                inside = cell & digit
                if inside:
                    parts.append((inside, weight * times >> shift))
                    cell ^= inside
                if cell:
                    parts.append((cell, weight))
            cells = parts
        return sum(cell.bit_count() * weight for cell, weight in cells)

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


def _add(digits: list[int], rows: int, j: int) -> None:
    """Add 2^j to the bit-sliced binary count of each row in rows: digit i
    holds the rows whose count has bit i set, and the carry ripples up
    from digit j until it is empty."""
    while rows:
        if j >= len(digits):
            digits += [0] * (j - len(digits)) + [rows]
            return
        digit = digits[j]
        digits[j] = digit ^ rows
        rows &= digit
        j += 1


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


def _deadline(threads: int, budget_seconds: Optional[float],
              now: Optional[float] = None) -> Optional[float]:
    """The deadline of a run that starts at now (by default, this
    module's clock now), after checking its threads and budget: threads
    below 1, and a NaN budget, which no clock reading ever passes, are a
    ValueError.  A budget of None means no deadline."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if budget_seconds is None:
        return None
    if math.isnan(budget_seconds):
        raise ValueError("budget_seconds must be a number of seconds, got nan")
    return (time.monotonic() if now is None else now) + budget_seconds


def _check_deadline(deadline: Optional[float], stats: CounterStats) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceLimitError("count budget exceeded", stats=stats.to_dict())


def _count_width(n: int, variants: Sequence[Variant],
                 deadline: Optional[float]) -> dict[Variant, CountReport]:
    """Count the variants at width n, in this order, in one engine over
    the clauses of h, each started from the mask of its clauses in force:
    the ternary clauses and its endpoint unit clauses.  A report's
    elapsed time runs from the end of the previous count, the first's
    from the call, so it includes the encoding and the clause table.
    Each variant starts with fresh stats, and the cache stays for the
    next.

    The encoder's clauses go to the engine as emitted, not through
    preprocess: none is empty, tautological or a duplicate, and every
    literal is in range, so preprocess would only sort each clause's
    literals, an order the search never reads (clause masks are ORs and
    leaf rows ANDs, and a unit clause has one literal)."""
    mark = time.monotonic()
    instance = encode(n, Variant.H)
    engine = ComponentCounter(instance.predicate_count, instance.clauses, deadline=deadline)
    units = instance.unit_clauses
    ternary = (1 << len(instance.clauses)) - (1 << len(units))
    reports = {}
    for variant in variants:
        engine.stats = CounterStats()
        engine._check_budget()
        start = engine._start(ternary | sum(1 << units.index((pid,))
                                            for pid in endpoint_units(n, variant)))
        value = 0 if start is None else engine.count(start)
        now = time.monotonic()
        reports[variant] = CountReport(variant, n, "dpll", value, now - mark, engine.stats)
        mark = now
    return reports


def count_models(instance: Union[CnfInstance, Clauses], num_vars: Optional[int] = None,
                 *, threads: int = 1,
                 budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
                 components: bool = False) -> int:
    """Exact number of satisfying assignments over all declared variables.

    Accepts a generated instance (variable count implied; a num_vars
    that differs from it is a ValueError) or a raw clause list plus
    num_vars.  budget_seconds=None disables the time budget, and a NaN
    budget is a ValueError.
    threads must be >= 1 and is otherwise unused: every count runs in this
    process.  `components` is accepted and ignored: there is one engine,
    and the keyword stays only because perfbench/workloads.py still
    passes it.
    """
    clauses = instance
    if isinstance(instance, CnfInstance):
        if num_vars not in (None, instance.predicate_count):
            raise ValueError(f"num_vars={num_vars} but the instance has {instance.predicate_count}")
        clauses, num_vars = instance.clauses, instance.predicate_count
    if num_vars is None:
        raise ValueError("num_vars is required for raw clause lists")
    _check_width(num_vars, name="num_vars")
    deadline = _deadline(threads, budget_seconds)
    prepared = preprocess(clauses, num_vars)
    _check_deadline(deadline, CounterStats())
    if prepared is None:
        return 0
    return ComponentCounter(num_vars, prepared, deadline=deadline).count()


def run_external_counter(instance: CnfInstance, command: Optional[str] = None,
                         pattern: Optional[str] = None,
                         timeout: Optional[float] = DEFAULT_BUDGET_SECONDS) -> int:
    """Write the instance as DIMACS, run a configured counting command on
    it, and parse the reported model count.

    The command template may reference the file as {file}; otherwise the
    path is appended.  The pattern must match somewhere in stdout, with
    the count in group 1 (or the whole match); a pattern that does not
    compile raises ValueError before the command is looked up, and no match,
    or a match that is not an integer, raises ExternalToolError.
    """
    import shlex
    import subprocess
    import tempfile

    pattern = pattern or DEFAULT_EXTERNAL_PATTERN
    try:
        regex = re.compile(pattern, re.MULTILINE)
    except re.error as exc:
        raise ValueError(f"invalid external pattern {pattern!r}: {exc}") from None
    command = command or os.environ.get(EXTERNAL_CMD_ENV)
    if not command:
        raise ExternalToolError(
            f"no external counter configured (flag --external-cmd or ${EXTERNAL_CMD_ENV})")
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
            raise ResourceLimitError(f"external counter exceeded {timeout:.1f}s") from exc
        output = proc.stdout + (("\n" + proc.stderr) if proc.stderr else "")
        if proc.returncode != 0:
            raise ExternalToolError(f"external counter exited {proc.returncode}",
                                    command=cmd, output=output)
        match = regex.search(proc.stdout)
        found = match and (match.group(1) if match.groups() else match.group(0))
        if not (found and found.strip().isdecimal()):
            raise ExternalToolError(f"no integer count matching {pattern!r} in external output",
                                    command=cmd, output=output)
        return int(found)
    finally:
        os.unlink(path)


def count_width(n: int, *, threads: int = 1,
                budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS
                ) -> dict[Variant, CountReport]:
    """Count all four variants at width n by method dpll, in one engine
    under one deadline: h01 first, then h1, h0 and h.

    Each variant is a mask over the clauses of h (see _count_width).  h0
    and h01 are h and h1 with the all-ones predicate free, and it is in
    no ternary clause; h is the branch of h1 with the all-zeros predicate
    true.  So after h01 the other three come from the component cache,
    at n = 5 and n = 6 in one node each.  threads must be >= 1 and is
    otherwise unused: every count runs in this process.
    """
    return _count_width(n, (Variant.H01, Variant.H1, Variant.H0, Variant.H),
                        _deadline(threads, budget_seconds))


def count_variant(n: int, variant: Variant, method: str = "dpll", *,
                  threads: int = 1, budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS,
                  external_cmd: Optional[str] = None,
                  external_pattern: Optional[str] = None) -> CountReport:
    """Count one variant at one width by the requested method.

    dpll encodes and counts with the component-caching search; bruteforce
    defers to the exhaustive family enumeration; identity derives the
    value from dpll counts of other variants, all under one deadline;
    external shells out to a configured tool, with the time left as its
    timeout.  All four must agree wherever more than one applies.
    """
    variant = Variant.from_name(variant)
    _check_width(n)
    start = time.monotonic()
    deadline = _deadline(threads, budget_seconds, start)
    if method == "identity-derived":
        method = "identity"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    stats = CounterStats()

    def dpll_count(v: Variant, k: int) -> int:
        report = _count_width(k, (v,), deadline)[v]
        stats.merge(report.stats)
        return report.count

    if method == "dpll":
        value = dpll_count(variant, n)
    elif method == "identity":
        method = "identity-derived"
        value = derive_count(variant, n, dpll_count)
    else:
        _check_deadline(deadline, stats)
        if method == "bruteforce":
            from .oracle import brute_count
            value = brute_count(n, variant)
        else:
            value = run_external_counter(
                encode(n, variant), command=external_cmd, pattern=external_pattern,
                timeout=None if deadline is None else deadline - time.monotonic())
    return CountReport(variant, n, method, value, time.monotonic() - start, stats)
