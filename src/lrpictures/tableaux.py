"""Semistandard skew tableaux, their readings, and brute-force enumeration."""

from __future__ import annotations

from typing import Iterator, Sequence

from .shapes import (
    Cell,
    Partition,
    SkewShape,
    _interned_shape,
    _ints,
    _json_object,
    _parsed_shape,
    _value_type,
    j_order_cells,
)
from .words import Word

__all__ = [
    "SkewTableau",
    "validate_semistandard",
    "me_reading",
    "skew_word",
    "highest_tableau",
    "p_index",
    "enumerate_ssyt",
]


@_value_type
class SkewTableau:
    """A filling of a skew shape; rows[i] covers columns inner[i]+1 .. outer[i] of row i+1."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SkewShape, rows: tuple[tuple[int, ...], ...] = ()) -> None:
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"expected a list of rows, got {rows!r}")
        rows = tuple(map(_ints, rows))
        lengths = shape._row_lengths
        if len(rows) != len(lengths):
            raise ValueError(f"expected {len(lengths)} rows, got {len(rows)}")
        for i, (row, m) in enumerate(zip(rows, lengths), start=1):
            if len(row) != m:
                raise ValueError(f"row {i} has {len(row)} entries, shape wants {m}")
            if row and min(row) < 1:
                raise ValueError(f"entries must be positive, got row {row}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_reading(cls, shape: SkewShape, letters: Sequence[int]) -> "SkewTableau":
        """The filling whose J-order reading is letters; inverse of reading()."""
        if len(letters) != shape.size:
            raise ValueError(f"{len(letters)} letters for a shape of {shape.size} cells")
        return cls(shape, _reading_rows(shape, letters))

    @classmethod
    def straight(cls, rows: tuple[tuple[int, ...], ...]) -> "SkewTableau":
        """A straight filling, on the shared shape of its row lengths."""
        return cls(_interned_shape(tuple(len(r) for r in rows), ()), rows)

    @property
    def size(self) -> int:
        return self.shape.size

    def entry(self, c: Cell) -> int:
        if not self.shape.contains_cell(c):
            raise ValueError(f"cell ({c.row}, {c.col}) outside the shape")
        return self.rows[c.row - 1][c.col - 1 - self.shape.inner.part(c.row)]

    def reading(self) -> tuple[int, ...]:
        """Entries along the J order: rows top to bottom, each right to left."""
        return tuple(a for row in self.rows for a in reversed(row))

    def to_json(self) -> dict:
        return {
            "outer": self.shape.outer.to_json(),
            "inner": self.shape.inner.to_json(),
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj) -> "SkewTableau":
        obj = _json_object(obj, "outer", "inner", "rows", optional=("inner",))
        shape, rows = _parsed_shape(obj["outer"], obj.get("inner", ())), obj["rows"]
        checked = _json_rows(rows, shape._row_lengths)
        # Anything but JSON rows that fit goes to the constructor, which
        # names the first fault, or reads tuples alike.
        return cls(shape, rows) if checked is None else cls._built(shape, checked)


def _json_rows(rows, lengths: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | None:
    """rows as tuples when it is a JSON list of lists of positive ints with
    the given lengths, else None."""
    if type(rows) is not list or len(rows) != len(lengths):
        return None
    out = []
    for row, m in zip(rows, lengths):
        if type(row) is not list or len(row) != m:
            return None
        for a in row:
            if type(a) is not int or a < 1:
                return None
        out.append(tuple(row))
    return tuple(out)


def _reading_rows(shape: SkewShape, letters: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The rows of the filling of shape whose J-order reading is letters."""
    rows, end = [], 0
    for m in shape._row_lengths:
        start, end = end, end + m
        rows.append(tuple(letters[start:end][::-1]))
    return tuple(rows)


def validate_semistandard(t: SkewTableau) -> bool:
    """Rows weakly increase left to right, columns strictly increase top to bottom."""
    return _semistandard(t.reading(), t.shape)


def _semistandard_reading(t: SkewTableau) -> tuple[int, ...] | None:
    """t's J-order reading when t is semistandard, else None: the check of
    validate_semistandard and the reading from one read of the rows."""
    r = t.reading()
    return r if _semistandard(r, t.shape) else None


def _semistandard(r: Sequence[int], shape: SkewShape) -> bool:
    """Is r, written into shape along its J order, weakly increasing along
    rows and strictly increasing down columns?

    Each letter is compared with its right neighbour and the letter above
    it, at the positions the shape's fill table keeps.
    """
    right, above = shape._fill_bounds
    for a, j, i in zip(r, right, above):
        if (j is not None and r[j] < a) or (i is not None and r[i] >= a):
            return False
    return True


def me_reading(t: SkewTableau) -> Word:
    """The entries of a semistandard t along the J order of its shape, as a
    word the crystal operators read."""
    reading = _semistandard_reading(t)
    if reading is None:
        raise ValueError("tableau is not semistandard")
    return Word._built(reading)


def skew_word(t: SkewTableau) -> Word:
    """Rows read left to right, bottom row first."""
    letters: list[int] = []
    for row in reversed(t.rows):
        letters.extend(row)
    return Word(tuple(letters))


def highest_tableau(lam: Partition) -> SkewTableau:
    """The straight tableau of shape lam whose row k is filled with k."""
    return SkewTableau(
        SkewShape(lam), tuple(tuple(i for _ in range(n)) for i, n in enumerate(lam.parts, 1))
    )


def p_index(t: SkewTableau, c: Cell) -> int:
    """1-based rank of c among the cells of the same entry, counted from the
    right; cells of one column, which a semistandard t never has, count
    from the top."""
    k = t.entry(c)  # refuses a cell outside the shape
    return 1 + sum(
        a == k and (d.col, -d.row) > (c.col, -c.row)
        for d, a in zip(j_order_cells(t.shape), t.reading())
    )


def _fillings(shape: SkewShape, parts: list[int], cap: list[int]) -> Iterator[list[int]]:
    """J-order readings of the semistandard fillings of shape, one letter
    per row of cap, that add boxes to the partition parts without leaving
    cap.

    Each reading is yielded as the loop's own list, which it goes on to
    change: a caller that keeps a reading copies it.  Cells are filled along
    the J order, values ascending, so the output is lexicographic.  A letter
    v is refused when its box at row v would leave cap or break the
    partition.  parts, of as many rows as cap, is updated in place and
    restored once the fillings run out.

    The search is one backtrack in this frame: values holds the letter
    placed at each position, and stepping back to a position takes its box
    out of parts and resumes at the next letter, so no cell costs a frame.
    """
    size = shape.size
    if not size:
        yield []
        return
    right, above = shape._fill_bounds
    top, last = len(cap), size - 1
    values = [0] * size
    pos, v, hi = 0, 1, top
    while True:
        while v <= hi:
            r = v - 1
            if parts[r] < cap[r]:
                if r == 0 or parts[r - 1] > parts[r]:
                    break
                if not parts[r - 1]:
                    # Rows r - 1 onward are empty, so no larger letter fits.
                    v = hi
            v += 1
        else:
            # No letter is left at pos: take back the one before it.
            if not pos:
                return
            pos -= 1
            v = values[pos]
            parts[v - 1] -= 1
            j = right[pos]
            hi = top if j is None else values[j]
            v += 1
            continue
        values[pos] = v
        if pos == last:
            yield values
            v += 1
            continue
        parts[v - 1] += 1
        pos += 1
        i, j = above[pos], right[pos]
        v = 1 if i is None else values[i] + 1
        hi = top if j is None else values[j]


def enumerate_ssyt(shape: SkewShape, max_entry: int) -> Iterator[SkewTableau]:
    """All semistandard fillings with entries in 1..max_entry.

    Output order is lexicographic in the J-order reading.  The filler does
    not recurse, so the shape may have any number of cells.
    """
    # Rows g apart, each with room for g more boxes: a row gains at most
    # |shape| < g boxes, so no row catches up with the one above it and no
    # cap is reached, and the LR filler refuses no letter.
    g = shape.size + 1
    parts = [(max_entry - r) * g for r in range(max_entry)]
    for reading in _fillings(shape, parts, [p + g for p in parts]):
        yield SkewTableau._built(shape, _reading_rows(shape, reading))
