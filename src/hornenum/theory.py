"""Monomials, binomial equations, Horn clauses, and their shared semantics.

A monomial is a product of propositional variables (1 being the empty
product) or the absurd constant 0.  A binomial equation equates two
monomials; a Horn clause implies a single variable or falsum from a
conjunction of variables.  The two presentations define the same class of
constraints, and both directions of the translation live here, together
with brute-force model enumeration that serves as the semantic referee:
two systems are equivalent exactly when their model sets coincide.

Each object derives its ascending indices, sort key and (for a monomial)
largest index once, at construction, so ordering, printing and the width
check of every evaluation read stored values.  `models()` stays the
per-point referee: one `BitVector` per point, `holds_at` per constraint.

Variables are 0-indexed in code and rendered as x1..xn in text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Iterator, Optional, Union

from .errors import ParseError
from .families import BitVector, VectorFamily, _check_width, _content_lines

#: Largest n for which model sets are enumerated brute force (2^n points).
MODEL_ENUM_CAP = 16

#: A variable in either text format: x<k>, k >= 1, names index k - 1.
VARIABLE = re.compile(r"x(\d+)")

#: One token of an equation side: a run of characters other than blanks and `*`.
_TOKEN = re.compile(r"[^\s*]+")


@dataclass(frozen=True)
class Monomial:
    """A product of variables, the constant 1 (empty product), or 0.

    is_zero=True denotes the constant 0; vars must then be empty.
    """

    vars: FrozenSet[int] = frozenset()
    is_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vars", frozenset(self.vars))
        if self.is_zero and self.vars:
            raise ValueError("the zero monomial carries no variables")
        indices = tuple(sorted(self.vars))
        if indices and indices[0] < 0:
            raise ValueError("variable indices must be nonnegative")
        # derived once, read on every evaluation, comparison and print
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_key", (0, 0, ()) if self.is_zero else (1, len(indices), indices))
        object.__setattr__(self, "_max", indices[-1] if indices else -1)

    @classmethod
    def zero(cls) -> "Monomial":
        return cls(frozenset(), True)

    @classmethod
    def one(cls) -> "Monomial":
        return cls(frozenset(), False)

    @classmethod
    def of(cls, *indices: int) -> "Monomial":
        return cls(frozenset(indices), False)

    @property
    def is_one(self) -> bool:
        return not self.is_zero and not self.vars

    def sort_key(self) -> tuple:
        """Total order: 0 first, then products by (size, variable indices)."""
        return self._key

    def max_index(self) -> int:
        """Largest variable index used, or -1 for constants."""
        return self._max

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if not self._indices:
            return "1"
        return " ".join(f"x{i + 1}" for i in self._indices)


@dataclass(frozen=True)
class BinomialEquation:
    """An equality of two distinct monomials, stored in sorted orientation.

    Construction rejects reflexive equations; parsing and translation drop
    them before getting here.
    """

    lhs: Monomial
    rhs: Monomial

    def __post_init__(self):
        if self.lhs == self.rhs:
            raise ValueError(f"reflexive equation {self.lhs} = {self.rhs}")
        lhs_key, rhs_key = self.lhs._key, self.rhs._key
        if lhs_key > rhs_key:
            lhs, rhs = self.rhs, self.lhs
            object.__setattr__(self, "lhs", lhs)
            object.__setattr__(self, "rhs", rhs)
            lhs_key, rhs_key = rhs_key, lhs_key
        object.__setattr__(self, "_key", (lhs_key, rhs_key))

    def sort_key(self) -> tuple:
        return self._key

    def max_index(self) -> int:
        return max(self.lhs._max, self.rhs._max)

    def holds_at(self, v: BitVector) -> bool:
        return eval_monomial(self.lhs, v) == eval_monomial(self.rhs, v)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class HornClause:
    """body implies head; head None denotes falsum.

    A clause whose head variable occurs in its own body is a tautology and
    is rejected here; builders drop such clauses instead of constructing
    them.
    """

    body: FrozenSet[int]
    head: Optional[int]

    def __post_init__(self):
        object.__setattr__(self, "body", frozenset(self.body))
        body = tuple(sorted(self.body))
        if body and body[0] < 0:
            raise ValueError("variable indices must be nonnegative")
        if self.head is not None:
            if self.head < 0:
                raise ValueError("variable indices must be nonnegative")
            if self.head in self.body:
                raise ValueError(f"tautological clause: head x{self.head + 1} is in the body")
        head_key = (1, 0) if self.head is None else (0, self.head)
        object.__setattr__(self, "_body", body)
        object.__setattr__(self, "_key", (len(body), body, head_key))

    def sort_key(self) -> tuple:
        return self._key

    def max_index(self) -> int:
        top = self._body[-1] if self._body else -1
        return top if self.head is None else max(top, self.head)

    def holds_at(self, v: BitVector) -> bool:
        if any(v.bit(i) == 0 for i in self.body):
            return True
        if self.head is None:
            return False
        return v.bit(self.head) == 1

    def __str__(self) -> str:
        body = " & ".join(f"x{i + 1}" for i in self._body)
        head = "false" if self.head is None else f"x{self.head + 1}"
        return f"{body} -> {head}" if body else f"-> {head}"


# quoted, so that typing's cache of Union objects holds no reference to
# these classes and a fresh import of the package can free the old ones
Constraint = Union["BinomialEquation", "HornClause"]


def eval_monomial(m: Monomial, v: BitVector) -> bool:
    """Value of the monomial at a point: 0 is false everywhere, a product is
    true where all its variables are 1 (so 1 is true everywhere)."""
    if m.is_zero:
        return False
    if m._max >= v.width:
        raise ValueError(f"monomial uses x{m._max + 1} but vector has width {v.width}")
    return all(v.bit(i) == 1 for i in m.vars)


def equations_to_horn(equations: Iterable[BinomialEquation]) -> frozenset[HornClause]:
    """Translate each equation m1 = m2 into the clauses c(m1) => x for every
    x in m2 and symmetrically, reading the constant 1 as containing "true"
    and 0 as containing "false".

    Consequences of that reading: a side equal to 0 contributes a falsum
    head (and its own clauses vanish, their body being unsatisfiable); a
    side equal to 1 contributes an empty body (and only a tautological
    "=> true" head, which yields no clause).  Tautologies are dropped and
    the result is deduplicated.
    """
    clauses = set()
    for eq in equations:
        for src, dst in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if src.is_zero:
                continue
            if dst.is_zero:
                clauses.add(HornClause(src.vars, None))
                continue
            for x in dst.vars:
                if x not in src.vars:
                    clauses.add(HornClause(src.vars, x))
    return frozenset(clauses)


def horn_to_equations(clauses: Iterable[HornClause]) -> frozenset[BinomialEquation]:
    """Translate each clause into one equation: body B with head y becomes
    Product(B) = Product(B + y); a falsum head becomes Product(B) = 0.  An
    empty body makes the left side the constant 1."""
    equations = set()
    for clause in clauses:
        lhs = Monomial(clause.body)
        if clause.head is None:
            rhs = Monomial.zero()
        else:
            rhs = Monomial(clause.body | {clause.head})
        equations.add(BinomialEquation(lhs, rhs))
    return frozenset(equations)


def models(constraints: Iterable[Constraint], n: int) -> VectorFamily:
    """All points of {0,1}^n satisfying every constraint, by enumeration.

    Accepts equations and clauses interchangeably (also mixed).  Capped
    because the loop is 2^n evaluations.
    """
    constraints = list(constraints)
    _check_width(n, MODEL_ENUM_CAP, "model enumeration")
    for c in constraints:
        if c.max_index() >= n:
            raise ValueError(f"constraint {c} uses x{c.max_index() + 1} but n = {n}")
    satisfying = []
    for value in range(1 << n):
        v = BitVector(n, value)
        if all(c.holds_at(v) for c in constraints):
            satisfying.append(value)
    return VectorFamily(n, satisfying)


def canonical_form(constraints: Iterable[Constraint], n: int) -> VectorFamily:
    """The canonical representative of a theory: its model set, in the
    family's canonical ascending order.  Two systems, in either
    presentation, are equivalent iff their canonical forms are equal."""
    return models(constraints, n)


def _lines(text: str, separator: str, what: str) -> Iterator[tuple[int, str, int, str]]:
    """The lines of a theory file that hold something once `#` comments are
    cut (families._content_lines), each as (line number, text before its
    one separator, the separator's 0-based column, text after it)."""
    for lineno, line in _content_lines(text):
        if line.count(separator) != 1:
            raise ParseError(f"expected exactly one {separator!r} per {what}", lineno, 1)
        at = line.index(separator)
        yield lineno, line[:at], at, line[at + len(separator):]


def _variable(text: str, lineno: int, col: int, expected: str = "a variable like x1") -> int:
    """The 0-based index of the variable x<k>, k >= 1, that text names,
    blanks around it allowed.  col is the column where text starts; an
    error points past the leading blanks, at the variable itself."""
    name = text.strip()
    m = VARIABLE.fullmatch(name)
    if not m or int(m.group(1)) == 0:
        raise ParseError(f"expected {expected}, got {name!r}", lineno,
                         col + len(text) - len(text.lstrip()))
    return int(m.group(1)) - 1


def _format_lines(items: Iterable, key: Callable) -> str:
    """One item per line, in the order of key."""
    return "".join(f"{item}\n" for item in sorted(items, key=key))


def _parse_monomial(side: str, lineno: int, col_offset: int) -> Monomial:
    """One equation side: `0`, `1`, or variables separated by spaces or `*`."""
    tokens = [(m.group(), col_offset + m.start()) for m in _TOKEN.finditer(side)]
    if not tokens:
        raise ParseError("empty side in equation", lineno, col_offset)
    if len(tokens) == 1 and tokens[0][0] in ("0", "1"):
        return Monomial.zero() if tokens[0][0] == "0" else Monomial.one()
    return Monomial({_variable(text, lineno, col, "a variable like x1 (or a lone constant 0/1)")
                     for text, col in tokens})


def parse_equations(text: str) -> frozenset[BinomialEquation]:
    """Parse the one-equation-per-line format; `#` starts a comment.

    Reflexive equations (both sides identical after normalization) are
    dropped, matching what the constructor would reject.
    """
    equations = set()
    for lineno, lhs_text, eq_pos, rhs_text in _lines(text, "=", "equation"):
        lhs = _parse_monomial(lhs_text, lineno, 1)
        rhs = _parse_monomial(rhs_text, lineno, eq_pos + 2)
        if lhs != rhs:
            equations.add(BinomialEquation(lhs, rhs))
    return frozenset(equations)


def format_equations(equations: Iterable[BinomialEquation]) -> str:
    """One equation per line, sides in normalized orientation, lines in the
    monomial total order; parsing the output reproduces the input set."""
    return _format_lines(equations, BinomialEquation.sort_key)


def parse_clauses(text: str) -> frozenset[HornClause]:
    """Parse the one-clause-per-line format `x1 & x2 -> x3`; an empty body
    is written `-> x3`, falsum heads as `-> false`; `#` starts a comment.

    Tautological clauses (head inside body) are dropped.
    """
    clauses = set()
    for lineno, body_text, arrow, head_text in _lines(text, "->", "clause"):
        body = set()
        if body_text.strip():
            col = 1
            for part in body_text.split("&"):
                body.add(_variable(part, lineno, col))
                col += len(part) + 1
        head_clean = head_text.strip()
        if not head_clean:
            raise ParseError("missing clause head", lineno, arrow + 3)
        head = None if head_clean == "false" else _variable(head_text, lineno, arrow + 3)
        if head is None or head not in body:
            clauses.add(HornClause(body, head))
    return frozenset(clauses)


def format_clauses(clauses: Iterable[HornClause]) -> str:
    """One clause per line, body variables ascending, lines ordered by
    (body size, body, head); inverse of parse_clauses up to normalization."""
    return _format_lines(clauses, HornClause.sort_key)
