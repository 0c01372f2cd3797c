"""Partitions, skew diagrams, cell coordinates, and the two cell orders.

Cells use matrix coordinates: row 1 is the top row, column 1 the leftmost
column.  All values here are immutable and hashable.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter, ge, lt
from typing import Iterable, Iterator

__all__ = [
    "Cell",
    "Partition",
    "SkewShape",
    "leq_p",
    "leq_j",
    "j_order_cells",
    "add_sequence",
    "partitions_of",
    "partitions_in_box",
    "subpartitions",
]

# Distinct skew shapes kept per process by SkewShape.from_json and
# SkewTableau.straight; the roundtrip benchmark uses 93.  This cache is the
# one holder of shared shapes: no other memo keeps a shape it hands out.
_SHAPE_CACHE_SIZE = 256
# The bounds of _kept, the shape cache's keep rule.  Every benchmark shape
# has at most 12 rows and 9 cells.
_CACHED_ROWS = 32
_CACHED_SHAPE_CELLS = 64


def _ints(values) -> tuple[int, ...]:
    """values, a list or tuple, as a tuple of ints; floats, booleans and
    strings are refused, not coerced, and so are other iterables."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of integers, got {values!r}")
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise ValueError(f"expected an integer, got {x!r}")
    return values


def _positive(x, what: str) -> None:
    """Refuse x unless it is a positive int: a non-int as _ints refuses it,
    then one below 1 as what."""
    if type(x) is not int:
        _ints((x,))
    if x < 1:
        raise ValueError(f"{what} must be positive, got {x}")


def _json_pair(obj, what: str) -> list | tuple:
    """obj itself when it is a two-item list; otherwise a ValueError saying
    that a what pair was expected."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"expected a {what} pair, got {obj!r}")
    return obj


def _json_object(obj, *keys: str, optional: tuple[str, ...] = ()) -> dict:
    """obj itself when it is a JSON object with every key of keys, none beyond
    them, and only the optional ones left out; otherwise a ValueError naming
    the keys."""
    if type(obj) is dict and obj.keys() == set(keys):
        return obj  # the common case: every key, optional ones too
    if isinstance(obj, dict):
        extra = obj.keys() - set(keys)
        missing = [k for k in keys if k not in obj and k not in optional]
        if not extra and not missing:
            return obj
    expected = f"expected an object with keys {', '.join(keys)}"
    if not isinstance(obj, dict):
        raise ValueError(f"{expected}; got {obj!r}")
    if extra:
        raise ValueError(f"unexpected keys {', '.join(sorted(map(str, extra)))}; {expected}")
    raise ValueError(f"missing keys {', '.join(missing)}; {expected}")


def _value_type(cls: type) -> type:
    """cls as a frozen value over its fields, the names in its __slots__
    that are not dunders: == holds within the class over the field tuple,
    the hash and repr are those of that tuple, a field cannot be assigned
    or deleted, and copies and pickles call the constructor on the fields.
    cls writes its fields in __init__ with object.__setattr__.  cls._built
    takes the fields in order and sets them with no check, for values the
    library made itself; the constructor's checks are for values from
    outside."""
    names = tuple(n for n in cls.__slots__ if not n.startswith("__"))
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    setters = tuple(getattr(cls, n).__set__ for n in names)

    def _built(*values):
        obj = object.__new__(cls)
        for set_field, value in zip(setters, values):
            set_field(obj, value)
        return obj

    def __eq__(self, other):
        if other is self:  # as the field tuples would compare: fields equal themselves
            return True
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        inside = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({inside})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, fields(self)

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__, __reduce__):
        setattr(cls, method.__name__, method)
    cls._built = staticmethod(_built)
    return cls


@_value_type
class Cell:
    """One box, 1-based, rows counted downward."""

    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int) -> None:
        if type(row) is not int or type(col) is not int:
            _ints((row, col))
        if row < 1 or col < 1:
            raise ValueError(f"cell coordinates are 1-based, got ({row}, {col})")
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)

    def to_json(self) -> list[int]:
        return [self.row, self.col]


def leq_p(a: Cell, b: Cell) -> bool:
    """Componentwise partial order: a weakly above and weakly left of b."""
    return a.row <= b.row and a.col <= b.col


def leq_j(a: Cell, b: Cell) -> bool:
    """Total order sweeping rows top to bottom, each row right to left."""
    return a.row < b.row or (a.row == b.row and a.col >= b.col)


@_value_type
class Partition:
    """Weakly decreasing non-negative parts; trailing zeros are stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = _ints(parts)
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {parts}")
        if any(map(lt, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Length of row i (1-based); rows past the end have length 0."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        # Parts are positive, so a longer other has a row that self lacks.
        return len(other.parts) <= len(self.parts) and all(map(ge, self.parts, other.parts))

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, obj) -> "Partition":
        return cls(obj)


@_value_type
class SkewShape:
    """The diagram outer minus inner; a straight shape has an empty inner."""

    # The size and the tables below are kept in the instance __dict__,
    # outside the fields, so equality and hashing ignore them.
    __slots__ = ("outer", "inner", "__dict__")

    def __init__(self, outer: Partition, inner: Partition = Partition()) -> None:
        if not outer.contains(inner):
            raise ValueError(f"inner {inner.parts} not contained in outer {outer.parts}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @cached_property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def is_straight(self) -> bool:
        return self.inner.rows == 0

    def contains_cell(self, c: Cell) -> bool:
        return self.inner.part(c.row) < c.col <= self.outer.part(c.row)

    def cell_set(self) -> frozenset[Cell]:
        return frozenset(j_order_cells(self))

    @cached_property
    def _j_order(self) -> tuple[Cell, ...]:
        return tuple(
            Cell(i, j)
            for i in range(1, self.outer.rows + 1)
            for j in range(self.outer.part(i), self.inner.part(i), -1)
        )

    @cached_property
    def _j_index(self) -> dict[tuple[int, int], int]:
        """The J position of each cell, keyed by its plain (row, col) pair and
        listed in J order.  Position k names the Cell _j_order[k]."""
        return {(c.row, c.col): k for k, c in enumerate(self._j_order)}

    @cached_property
    def _j_rows(self) -> tuple[int, ...]:
        """The row of each cell, in J order: weakly increasing, row i
        repeated as often as row i's length."""
        return tuple(i for i, m in enumerate(self._row_lengths, start=1) for _ in range(m))

    @cached_property
    def _json_head(self) -> str:
        """The compact JSON text of to_json() without its closing brace:
        '{"outer":[...],"inner":[...]', to be closed or extended by a writer."""
        outer, inner = (",".join(map(str, p.parts)) for p in (self.outer, self.inner))
        return f'{{"outer":[{outer}],"inner":[{inner}]'

    @cached_property
    def _cell_texts(self) -> tuple[str, ...]:
        """The compact JSON text '[row,col]' of each cell, in J order."""
        return tuple(f"[{c.row},{c.col}]" for c in self._j_order)

    @cached_property
    def _row_lengths(self) -> tuple[int, ...]:
        """The length of each row of outer, top to bottom."""
        return tuple(m - self.inner.part(i) for i, m in enumerate(self.outer.parts, start=1))

    @cached_property
    def _fill_bounds(self) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
        """J positions of each cell's right neighbour (an upper bound on its
        entry) and of the cell above it (a strict lower bound), or None.  Both
        precede the cell, so a filling in J order knows its bounds."""
        outer, inner = self.outer, self.inner
        right: list[int | None] = []
        above: list[int | None] = []
        prev_start = 0
        for i in range(1, outer.rows + 1):
            start = len(right)
            # Cell (i, j) reads at start + outer_i - j.
            for j in range(outer.part(i), inner.part(i), -1):
                right.append(len(right) - 1 if j < outer.part(i) else None)
                above.append(
                    prev_start + outer.part(i - 1) - j if i > 1 and j > inner.part(i - 1) else None
                )
            prev_start = start
        return tuple(right), tuple(above)

    def to_json(self) -> dict:
        return {"outer": self.outer.to_json(), "inner": self.inner.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SkewShape":
        """The shared shape of obj's outer and inner lists; equal lists give
        the same object."""
        obj = _json_object(obj, "outer", "inner", optional=("inner",))
        return _parsed_shape(obj["outer"], obj.get("inner", ()))


def _parsed_shape(outer, inner) -> SkewShape:
    """The shared shape of a JSON outer and inner list, checked as plain ints."""
    outer = _ints(outer)
    try:
        inner = _ints(inner)
    except ValueError:
        Partition(outer)  # a bad outer is reported first
        raise
    return _interned_shape(outer, inner)


def _kept(rows: int, cells: int) -> bool:
    """The shape cache's keep rule: keep a shape of this many rows and cells
    only within _CACHED_ROWS and _CACHED_SHAPE_CELLS; build a larger one
    afresh on every call."""
    return rows <= _CACHED_ROWS and cells <= _CACHED_SHAPE_CELLS


def _interned_shape(outer: tuple[int, ...], inner: tuple[int, ...]) -> SkewShape:
    """One SkewShape per (outer, inner) of plain ints; the key must not hold
    floats or booleans, which hash like the ints they equal.  _kept reads
    the ints before anything is built."""
    if _kept(len(outer), sum(outer) - sum(inner)):
        return _shape_cached(outer, inner)
    return SkewShape(Partition(outer), Partition(inner))


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_cached(outer: tuple[int, ...], inner: tuple[int, ...]) -> SkewShape:
    """_interned_shape of a kept key, held per process by its key."""
    return SkewShape(Partition(outer), Partition(inner))


def j_order_cells(shape: SkewShape) -> tuple[Cell, ...]:
    """All cells of the shape, ascending in the total order leq_j.

    Rows are visited top to bottom and each row right to left, so the k-th
    cell is the source of the k-th letter of any J-order reading.  Each
    shape builds the tuple once and keeps it.
    """
    return shape._j_order


def add_sequence(base: Partition, word: Iterable[int]) -> Partition | None:
    """Add boxes at the rows named by word, left to right.

    The partition reached when every intermediate stays weakly decreasing,
    else None.  Each letter must be a positive row index, wherever it stands.
    """
    parts = list(base.parts)
    valid = True
    for i in word:
        _positive(i, "row index")
        if i > len(parts) + 1:
            valid = False  # a box past the first empty row leaves a gap above it
            continue
        if i > len(parts):
            parts.append(0)
        parts[i - 1] += 1
        if i > 1 and parts[i - 2] < parts[i - 1]:
            valid = False
    return Partition(tuple(parts)) if valid else None


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, largest part first."""
    _ints((n,) if max_part is None else (n, max_part))
    if n < 0:
        return
    cap = n if max_part is None else min(max_part, n)

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for p in range(min(largest, remaining), 0, -1):
            yield from rec(remaining - p, p, prefix + (p,))

    for parts in rec(n, cap, ()):
        yield Partition(parts)


def partitions_in_box(max_size: int, max_rows: int, max_cols: int) -> Iterator[Partition]:
    """All partitions of size at most max_size with at most max_rows rows and parts at most max_cols."""
    _ints((max_size, max_rows, max_cols))
    for n in range(max_size + 1):
        for p in partitions_of(n, max_part=max_cols):
            if p.rows <= max_rows:
                yield p


def subpartitions(nu: Partition) -> Iterator[Partition]:
    """All partitions contained in nu, in a deterministic order."""
    parts = nu.parts

    def rec(i: int, prev: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(parts):
            yield prefix
            return
        for v in range(min(prev, parts[i]), -1, -1):
            yield from rec(i + 1, v, prefix + (v,))

    for lam in rec(0, parts[0] if parts else 0, ()):
        yield Partition(lam)
