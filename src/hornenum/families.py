"""Bit vectors, vector families, and the meet operation.

A width-n bit vector stands for a point of {0,1}^n; coordinate i holds the
value of variable x(i+1), and the textual form writes x1 as the leftmost
(most significant) character.  A family of such vectors is a candidate Horn
set: it is one exactly when it is closed under the coordinatewise AND of any
two members (the "meet").  The four counting variants differ only in which
of the two lattice endpoints (all-ones, all-zeros) the family must contain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Union

from .errors import ParseError, ResourceLimitError

#: Hard cap on vector width for family-level work.  Packed-int meets stay
#: cheap only while a vector fits one machine word.
MAX_WIDTH = 64


class Variant(Enum):
    """The four counting problems, named by which constants the source
    equation systems may use (h = neither, h0 = constant 0 allowed,
    h1 = constant 1 allowed, h01 = both)."""

    H = "h"
    H0 = "h0"
    H1 = "h1"
    H01 = "h01"

    @property
    def requires_all_ones(self) -> bool:
        """Families in this variant must contain the all-ones vector."""
        return self in (Variant.H, Variant.H1)

    @property
    def requires_all_zeros(self) -> bool:
        """Families in this variant must contain the all-zeros vector."""
        return self in (Variant.H, Variant.H0)

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


@dataclass(frozen=True)
class BitVector:
    """An immutable point of {0,1}^width, packed into a Python int.

    Variable x1 occupies the most significant bit of ``value``, so the
    integer value of a vector equals the number its textual form denotes in
    binary.  Width 0 is legal and has the single (empty) vector.
    """

    width: int
    value: int

    def __post_init__(self):
        width, value = self.width, self.value
        if ((type(width) is not int or type(value) is not int)
                and not (_is_int(width) and _is_int(value))):
            raise ValueError(f"width and value must be ints, got {width!r} and {value!r}")
        if not 0 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be in [0, {MAX_WIDTH}], got {width}")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} out of range for width {width}")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"expected a nonempty string of 0/1 characters, got {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        bits = list(bits)
        value = 0
        for b in bits:
            if not _is_int(b) or b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            value = (value << 1) | b
        return cls(len(bits), value)

    @classmethod
    def all_ones(cls, width: int) -> "BitVector":
        return cls(width, (1 << width) - 1)

    @classmethod
    def all_zeros(cls, width: int) -> "BitVector":
        return cls(width, 0)

    def bit(self, index: int) -> int:
        """Value of variable x(index+1); index counts from 0."""
        if not 0 <= index < self.width:
            raise IndexError(f"variable index {index} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - index)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.width))

    @property
    def is_all_ones(self) -> bool:
        return self.value == (1 << self.width) - 1

    @property
    def is_all_zeros(self) -> bool:
        return self.value == 0

    def meet(self, other: "BitVector") -> "BitVector":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return BitVector(self.width, self.value & other.value)

    def __str__(self) -> str:
        if self.width == 0:
            return ""
        return format(self.value, f"0{self.width}b")

    def __repr__(self) -> str:
        return f"BitVector({self.width}, 0b{self})" if self.width else "BitVector(0, <empty>)"


def meet(r: BitVector, s: BitVector) -> BitVector:
    """Coordinatewise AND.  Commutative, associative, idempotent."""
    return r.meet(s)


class VectorFamily:
    """An immutable, duplicate-free set of equal-width bit vectors.

    Iteration and ``values`` are always in ascending numeric order, which is
    the canonical order used everywhere counts or families are compared.
    """

    __slots__ = ("_width", "_values", "_value_set")

    def __init__(self, width: int, members: Iterable[Union[BitVector, int]] = ()):
        if type(width) is not int and not _is_int(width) or not 0 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be an int in [0, {MAX_WIDTH}], got {width!r}")
        values = set()
        for m in members:
            if isinstance(m, BitVector):
                if m.width != width:
                    raise ValueError(f"member width {m.width} does not match family width {width}")
                values.add(m.value)
            else:
                if type(m) is not int and not _is_int(m):
                    raise ValueError(f"member {m!r} is neither a BitVector nor an int")
                v = int(m)
                if not 0 <= v < (1 << width):
                    raise ValueError(f"member value {v} out of range for width {width}")
                values.add(v)
        self._width = width
        self._values = tuple(sorted(values))
        self._value_set = frozenset(values)

    @classmethod
    def full(cls, width: int) -> "VectorFamily":
        """The family of all 2^width vectors (width capped at 16 to keep the
        member list enumerable)."""
        if width > 16:
            raise ValueError(f"full family only supported up to width 16, got {width}")
        return cls(width, range(1 << width))

    @classmethod
    def empty(cls, width: int) -> "VectorFamily":
        return cls(width, ())

    @property
    def width(self) -> int:
        return self._width

    @property
    def values(self) -> tuple[int, ...]:
        """Member vectors as packed ints, ascending."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[BitVector]:
        w = self._width
        return (BitVector(w, v) for v in self._values)

    def __contains__(self, item: Union[BitVector, int]) -> bool:
        if isinstance(item, BitVector):
            return item.width == self._width and item.value in self._value_set
        return item in self._value_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorFamily):
            return NotImplemented
        return self._width == other._width and self._value_set == other._value_set

    def __hash__(self) -> int:
        return hash((self._width, self._value_set))

    def __repr__(self) -> str:
        shown = ", ".join(str(BitVector(self._width, v)) for v in self._values[:8])
        if len(self._values) > 8:
            shown += ", ..."
        return f"VectorFamily(width={self._width}, {{{shown}}})"

    def to_text(self) -> str:
        """One vector per line, x1 leftmost.  Width-0 families have no
        textual form (an empty line cannot encode the empty vector)."""
        if self._width == 0:
            raise ValueError("width-0 families cannot be written as text")
        return "".join(f"{BitVector(self._width, v)}\n" for v in self._values)

    @classmethod
    def parse(cls, text: str, width: int | None = None) -> "VectorFamily":
        """Parse the to_text format.  Blank lines and lines starting with
        '#' are ignored; the width is taken from the first vector unless
        given explicitly."""
        values = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            for col, ch in enumerate(line, start=1):
                if ch not in "01":
                    raise ParseError(f"unexpected character {ch!r} in vector", lineno, col)
            if width is None:
                width = len(line)
            elif len(line) != width:
                raise ParseError(
                    f"vector has width {len(line)}, expected {width}", lineno, 1
                )
            values.append(int(line, 2))
        if width is None:
            raise ParseError("no vectors found", 1, 1)
        return cls(width, values)


def is_meet_closed(family: VectorFamily) -> bool:
    """True iff the meet of every pair of members is itself a member.

    The empty family and all singletons are vacuously closed.
    """
    values = family.values
    present = family._value_set
    for i, r in enumerate(values):
        for s in values[i + 1:]:
            if r & s not in present:
                return False
    return True


def meet_closure(family: VectorFamily) -> VectorFamily:
    """Smallest meet-closed superset: add pairwise meets to a fixed point."""
    current = set(family.values)
    frontier = list(current)
    while frontier:
        fresh = []
        for r, s in itertools.product(frontier, current.copy()):
            u = r & s
            if u not in current:
                current.add(u)
                fresh.append(u)
        frontier = fresh
    return VectorFamily(family.width, current)


def variant_member(family: VectorFamily, variant: Variant) -> bool:
    """Whether the family counts toward the given variant: it must be
    meet-closed, and contain the all-ones and/or all-zeros vector as the
    variant demands."""
    if variant.requires_all_ones and (1 << family.width) - 1 not in family:
        return False
    if variant.requires_all_zeros and 0 not in family:
        return False
    return is_meet_closed(family)
