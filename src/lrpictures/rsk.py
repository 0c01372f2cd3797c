"""Column bumping, reverse bumping, and the column-type RSK correspondence.

Insertion convention: an incoming letter bumps the topmost entry of the
column that is greater than or equal to it, and is appended at the bottom
when every entry is smaller.  This is the unique choice under which the
column bumping lemma, the plactic relation w(x -> T) ~ x.w(T), and the
bijection with lexicographic arrays all hold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Sequence

from .shapes import Cell, SkewShape, _interned_shape, _ints, _json_object, _value_type
from .tableaux import SkewTableau, validate_semistandard
from .words import Word

__all__ = [
    "TwoRowedArray",
    "BumpOutcome",
    "column_insert",
    "column_insert_sequence",
    "reverse_column_insert",
    "validate_lex_array",
    "rsk_forward",
    "rsk_inverse",
]


@_value_type
class TwoRowedArray:
    """Two aligned words; lexicographic validity is checked separately."""

    __slots__ = ("top", "bottom")

    def __init__(self, top: Word, bottom: Word) -> None:
        if len(top) != len(bottom):
            raise ValueError(f"rows have different lengths: {len(top)} vs {len(bottom)}")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    def __len__(self) -> int:
        return len(self.top)

    def to_json(self) -> dict:
        return {"top": self.top.to_json(), "bottom": self.bottom.to_json()}

    @classmethod
    def from_json(cls, obj) -> "TwoRowedArray":
        obj = _json_object(obj, "top", "bottom")
        return cls(Word.from_json(obj["top"]), Word.from_json(obj["bottom"]))


class BumpOutcome(NamedTuple):
    tableau: SkewTableau
    new_cell: Cell


def _to_columns(t: SkewTableau) -> list[list[int]]:
    cols: list[list[int]] = [[] for _ in range(t.shape.outer.part(1))]
    for row in t.rows:
        for j, a in enumerate(row):
            cols[j].append(a)
    return cols


def _straight(rows: tuple[tuple[int, ...], ...]) -> SkewTableau:
    """SkewTableau.straight without the checks, for rows of checked letters."""
    return SkewTableau._built(_interned_shape(tuple(map(len, rows)), ()), rows)


def _columns_to_tableau(cols: Sequence[Sequence[int]]) -> SkewTableau:
    cols = [c for c in cols if c]
    nrows = len(cols[0]) if cols else 0
    return _straight(
        tuple(tuple(col[i] for col in cols if len(col) > i) for i in range(nrows))
    )


def _require_straight(t: SkewTableau) -> None:
    if not t.shape.is_straight:
        raise ValueError("straight tableau required")


def _bump(cols: list[list[int]], x: int) -> tuple[int, int]:
    """Insert x into the column list, returning the new cell (row, col), 1-based."""
    j = 0
    while True:
        if j == len(cols):
            cols.append([])
        col = cols[j]
        i = bisect_left(col, x)  # topmost entry >= x
        if i == len(col):
            col.append(x)
            return (len(col), j + 1)
        col[i], x = x, col[i]
        j += 1


def _check_letter(x: int) -> None:
    if type(x) is not int:
        _ints((x,))
    if x < 1:
        raise ValueError(f"letters must be positive, got {x}")


def column_insert(t: SkewTableau, x: int) -> BumpOutcome:
    """Column-insert x into a straight semistandard tableau."""
    _require_straight(t)
    _check_letter(x)
    cols = _to_columns(t)
    r, c = _bump(cols, x)
    return BumpOutcome(_columns_to_tableau(cols), Cell(r, c))


def column_insert_sequence(letters: Iterable[int]) -> tuple[SkewTableau, tuple[Cell, ...]]:
    """Insert the letters left to right into an empty tableau, tracking each new box."""
    cols: list[list[int]] = []
    boxes: list[Cell] = []
    for x in letters:
        _check_letter(x)
        r, c = _bump(cols, x)
        boxes.append(Cell(r, c))
    return _columns_to_tableau(cols), tuple(boxes)


def _is_removable_corner(shape: SkewShape, c: Cell) -> bool:
    return (
        shape.contains_cell(c)
        and not shape.contains_cell(Cell(c.row, c.col + 1))
        and not shape.contains_cell(Cell(c.row + 1, c.col))
    )


def _unbump(cols: list[list[int]], j: int) -> int:
    """Undo the _bump whose new box ended column j (0-based); returns the
    ejected letter.

    Walking leftward from column j, the carried value replaces the
    bottom-most entry less than or equal to it, and whatever leaves the
    first column is ejected.
    """
    carry = cols[j].pop()
    if not cols[j]:  # a corner alone in its column ends the last column
        cols.pop()
    for k in range(j - 1, -1, -1):
        col = cols[k]
        i = bisect_right(col, carry) - 1  # bottom-most entry <= carry
        if i < 0:
            raise ValueError("reverse bumping failed; tableau is not semistandard")
        col[i], carry = carry, col[i]
    return carry


def reverse_column_insert(t: SkewTableau, c: Cell) -> tuple[SkewTableau, int]:
    """Undo a column insertion whose new box was c; returns the ejected letter.

    This inverts column_insert exactly.
    """
    _require_straight(t)
    if not _is_removable_corner(t.shape, c):
        raise ValueError(f"cell ({c.row}, {c.col}) is not a removable corner")
    cols = _to_columns(t)
    carry = _unbump(cols, c.col - 1)
    return _columns_to_tableau(cols), carry


def validate_lex_array(w: TwoRowedArray) -> bool:
    """Top row weakly increases; bottom row weakly decreases where the top ties."""
    u, v = w.top.letters, w.bottom.letters
    for k in range(len(u) - 1):
        if u[k] > u[k + 1]:
            return False
        if u[k] == u[k + 1] and v[k] < v[k + 1]:
            return False
    return True


def rsk_forward(w: TwoRowedArray) -> tuple[SkewTableau, SkewTableau]:
    """Column-insert the bottom row, recording top entries at each new box.

    Returns (P, Q): P is the insertion tableau of the bottom row, Q the
    same-shaped recording tableau holding the top row.
    """
    if not validate_lex_array(w):
        raise ValueError("array is not in lexicographic order (of column type)")
    return _rsk_forward(w)


def _rsk_forward(w: TwoRowedArray) -> tuple[SkewTableau, SkewTableau]:
    """rsk_forward on an array the caller knows to be lexicographic."""
    cols: list[list[int]] = []
    q_rows: list[list[int]] = []
    for u, v in zip(w.top.letters, w.bottom.letters):
        r, c = _bump(cols, v)
        if r > len(q_rows):
            q_rows.append([])
        q_rows[r - 1].append(u)
    p = _columns_to_tableau(cols)
    q = _straight(tuple(tuple(row) for row in q_rows))
    return p, q


def rsk_inverse(p: SkewTableau, q: SkewTableau) -> TwoRowedArray:
    """Invert rsk_forward on two same-shaped straight semistandard tableaux."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have the same shape")
    if not p.shape.is_straight:
        raise ValueError("straight tableaux required")
    if not (validate_semistandard(p) and validate_semistandard(q)):
        raise ValueError("tableaux must be semistandard")
    return _rsk_inverse(p, q)


def _rsk_inverse(p: SkewTableau, q: SkewTableau) -> TwoRowedArray:
    """rsk_inverse on tableaux the caller has already checked.

    Repeatedly reverse-bump P from the position of the right-most maximum
    entry of Q; emitted pairs are stacked back to front so the result is
    again lexicographic.  In a semistandard Q every cell holding the
    maximum ends its column, and removing them leaves the next maximum's
    cells at column ends; so the removal order is Q's (entry, column) pairs
    sorted once, largest first.
    """
    p_cols = _to_columns(p)
    order = sorted(((u, j) for row in q.rows for j, u in enumerate(row)), reverse=True)
    ejected = [_unbump(p_cols, j) for _, j in order]
    return TwoRowedArray._built(
        Word._built(tuple(u for u, _ in reversed(order))), Word._built(tuple(reversed(ejected)))
    )
