"""Bit vectors as ints, vector families, and meet closure.

A width-n bit vector stands for a point of {0,1}^n and is held as an int:
coordinate i holds the value of variable x(i+1), which is bit n-1-i, so the
textual form writes x1 as the leftmost (most significant) character.  A
family of such vectors is a candidate Horn set: it is one exactly when it
is closed under the meet of any two members, the coordinatewise AND, which
is `&` on their values.  The four counting variants differ only in which of
the two lattice endpoints (all-ones, all-zeros) the family must contain.
A vector is an int at every entry point; a family prints its own members
(VectorFamily.format_vector).
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from .errors import ParseError, ResourceLimitError

#: Hard cap on vector width for family-level work.  Packed-int meets stay
#: cheap only while a vector fits one machine word.
MAX_WIDTH = 64


class Variant(Enum):
    """The four counting problems, named by which constants the source
    equation systems may use (h = neither, h0 = constant 0 allowed,
    h1 = constant 1 allowed, h01 = both).  On the family side a variant
    fixes which lattice endpoints every family contains; required_vectors
    is the one place that rule is read."""

    H = "h"
    H0 = "h0"
    H1 = "h1"
    H01 = "h01"

    def required_vectors(self, n: int) -> tuple[int, ...]:
        """The values of the width-n vectors that every family of this
        variant contains: the all-ones vector 2^n - 1 in h and h1, then
        the all-zeros vector 0 in h and h0.  At n = 0 the two coincide and
        the vector is listed once."""
        vectors = ((1 << n) - 1,) if self in (Variant.H, Variant.H1) else ()
        if self in (Variant.H, Variant.H0) and 0 not in vectors:
            vectors += (0,)
        return vectors

    @classmethod
    def from_name(cls, name: Union[str, "Variant"]) -> "Variant":
        """The variant a name stands for, in any case; a Variant passes."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown variant {name!r}; expected one of h, h0, h1, h01") from None


VARIANTS = (Variant.H, Variant.H0, Variant.H1, Variant.H01)


def _is_int(x) -> bool:
    """Whether x is an int and not a bool.  A float, a numeric string and
    a bool would all pass through int() silently, so the type is tested;
    an int subclass other than bool passes.  Callers on a hot path test
    `type(x) is int` first, the common case."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_width(n, cap: Optional[int] = None, what: str = "", name: str = "n") -> None:
    """The width rule of every public entry point that takes a number of
    variables: n must be an int and not a bool (else ValueError, naming
    the value) and at least 0 (else ValueError), and if the caller gives
    its cap, at most that (else ResourceLimitError, naming `what` the cap
    bounds)."""
    if type(n) is not int and not _is_int(n):
        raise ValueError(f"{name} must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    if cap is not None and n > cap:
        raise ResourceLimitError(f"{what} cap is {name} <= {cap}, got {n}")


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """The line rule of every text format: each line is cut at its first
    `#`, and each one that still holds something besides blanks is
    yielded as (line number, the text before the `#`).  The text is not
    stripped, so its columns are the file's."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


class VectorFamily:
    """An immutable, duplicate-free set of equal-width bit vectors.

    Members are ints.  Iteration and ``values`` give them in ascending
    numeric order, the order used everywhere families are compared.
    """

    __slots__ = ("_width", "_values", "_value_set")

    def __init__(self, width: int, members: Iterable[int] = ()):
        if type(width) is not int and not _is_int(width) or not 0 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be an int in [0, {MAX_WIDTH}], got {width!r}")
        values = set()
        for m in members:
            if type(m) is not int and not _is_int(m):
                raise ValueError(f"member {m!r} is not an int")
            if not 0 <= m < (1 << width):
                raise ValueError(f"member value {m} out of range for width {width}")
            values.add(int(m))
        self._width = width
        self._values = tuple(sorted(values))
        self._value_set = frozenset(values)

    @property
    def width(self) -> int:
        return self._width

    @property
    def values(self) -> tuple[int, ...]:
        """Member vectors as packed ints, ascending."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __contains__(self, value: int) -> bool:
        return value in self._value_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorFamily):
            return NotImplemented
        return self._width == other._width and self._value_set == other._value_set

    def __hash__(self) -> int:
        return hash((self._width, self._value_set))

    def format_vector(self, value: int) -> str:
        """The text of the vector of this family's width that value
        stands for: one 0/1 character per variable, x1 leftmost, and the
        empty string at width 0."""
        return format(value, f"0{self._width}b") if self._width else ""

    def __repr__(self) -> str:
        shown = ", ".join(self.format_vector(v) or "<empty>" for v in self._values[:8])
        if len(self._values) > 8:
            shown += ", ..."
        return f"VectorFamily(width={self._width}, {{{shown}}})"

    def to_text(self) -> str:
        """One vector per line, x1 leftmost.  Width-0 families have no
        textual form (an empty line cannot encode the empty vector)."""
        if self._width == 0:
            raise ValueError("width-0 families cannot be written as text")
        return "".join(f"{self.format_vector(v)}\n" for v in self._values)

    @classmethod
    def parse(cls, text: str) -> "VectorFamily":
        """Parse the to_text format.  Blank lines are ignored and `#`
        starts a comment, anywhere on a line; blanks around a vector are
        ignored.  The width is taken from the first vector.  A ParseError
        gives the file column: an unexpected character's own, a width
        mismatch the vector's first."""
        values, width = [], None
        for lineno, line in _content_lines(text):
            vector = line.strip()
            start = len(line) - len(line.lstrip()) + 1
            for col, ch in enumerate(vector, start=start):
                if ch not in "01":
                    raise ParseError(f"unexpected character {ch!r} in vector", lineno, col)
            if width is None:
                width = len(vector)
            elif len(vector) != width:
                raise ParseError(
                    f"vector has width {len(vector)}, expected {width}", lineno, start
                )
            values.append(int(vector, 2))
        if width is None:
            raise ParseError("no vectors found", 1, 1)
        return cls(width, values)


def _new_meets(family: VectorFamily) -> Iterator[set[int]]:
    """The one closure routine.  It takes the members by falling popcount,
    skips each member that the closure built so far already holds, and
    yields, for each member it keeps, the vectors that member adds: itself
    and its meets with the closure so far, less what that closure held.

    For a closed set C and a vector g, closure(C + {g}) is C, g and every
    meet g & c with c in C: that set is closed, since the meet of two of
    its members is in C, is g, or is g & c' for some c' in C.  A member g
    = a & b with a != g != b has fewer bits set than a and b, so both came
    before it and the closure already holds g: only meet-irreducible
    members are kept.  A closed family of m members thus costs about
    (meet-irreducible members x m) set operations.
    """
    closed: set[int] = set()
    for g in sorted(family.values, key=int.bit_count, reverse=True):
        if g not in closed:
            new = {m for c in closed if (m := g & c) not in closed}
            new.add(g)
            closed |= new
            yield new


def is_meet_closed(family: VectorFamily) -> bool:
    """True iff the meet of every pair of members is itself a member.
    It stops at the first added vector that is not a member.

    The empty family and all singletons are vacuously closed.
    """
    present = family._value_set
    return all(new <= present for new in _new_meets(family))


def meet_closure(family: VectorFamily) -> VectorFamily:
    """Smallest meet-closed superset: the union of what _new_meets adds."""
    return VectorFamily(family.width, chain.from_iterable(_new_meets(family)))


def variant_member(family: VectorFamily, variant: Variant) -> bool:
    """Whether the family counts toward the given variant: it must hold
    each of the variant's required vectors, and be meet-closed."""
    return (all(v in family for v in variant.required_vectors(family.width))
            and is_meet_closed(family))
