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

from .shapes import Cell, SkewShape, _interned_shape, _json_object, _positive, _value_type
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


def _transpose(lines: Sequence[Sequence[int]]) -> list[list[int]]:
    """The columns of a straight filling from its rows, or its rows from its
    columns: either way the lines are weakly shorter down the list."""
    out: list[list[int]] = [[] for _ in lines[0]] if lines else []
    for line in lines:
        for other, a in zip(out, line):
            other.append(a)
    return out


def _columns_to_tableau(cols: Sequence[Sequence[int]]) -> SkewTableau:
    """SkewTableau.straight without the checks, from columns of checked letters."""
    # _bump fills each column it opens; _unbump drops the last one it empties.
    rows = tuple(map(tuple, _transpose(cols)))
    return SkewTableau._built(_interned_shape(tuple(map(len, rows)), ()), rows)


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


def column_insert(t: SkewTableau, x: int) -> BumpOutcome:
    """Column-insert x into a straight semistandard tableau."""
    _require_straight(t)
    _positive(x, "letters")
    cols = _transpose(t.rows)
    r, c = _bump(cols, x)
    return BumpOutcome(_columns_to_tableau(cols), Cell(r, c))


def column_insert_sequence(letters: Iterable[int]) -> tuple[SkewTableau, tuple[Cell, ...]]:
    """Insert the letters left to right into an empty tableau, tracking each new box."""
    cols: list[list[int]] = []
    boxes: list[Cell] = []
    for x in letters:
        _positive(x, "letters")
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
    cols = _transpose(t.rows)
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
    shape, p, q = _rsk_rows(w.top.letters, w.bottom.letters)
    return SkewTableau._built(shape, p), SkewTableau._built(shape, q)


def _rsk_rows(top: Sequence[int], bottom: Sequence[int]):
    """rsk_forward on the two rows of an array the caller knows to be
    lexicographic: the straight shape of P and Q, interned once, then P's
    rows and Q's rows."""
    cols: list[list[int]] = []
    q_rows: list[list[int]] = []
    for u, v in zip(top, bottom):
        r = _bump(cols, v)[0]
        if r > len(q_rows):
            q_rows.append([])
        q_rows[r - 1].append(u)
    shape = _interned_shape(tuple(map(len, q_rows)), ())
    return shape, tuple(map(tuple, _transpose(cols))), tuple(map(tuple, q_rows))


def rsk_inverse(p: SkewTableau, q: SkewTableau) -> TwoRowedArray:
    """Invert rsk_forward on two same-shaped straight semistandard tableaux."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have the same shape")
    if not p.shape.is_straight:
        raise ValueError("straight tableaux required")
    if not (validate_semistandard(p) and validate_semistandard(q)):
        raise ValueError("tableaux must be semistandard")
    return TwoRowedArray._built(*map(Word._built, _unrsk_rows(p.rows, q.rows)))


def _unrsk_rows(p_rows, q_rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """rsk_inverse on the rows of P and Q the caller has already checked:
    the array's top and bottom rows.

    Repeatedly reverse-bump P from the position of the right-most maximum
    entry of Q; emitted pairs are stacked back to front so the result is
    again lexicographic.  In a semistandard Q every cell holding the
    maximum ends its column, and removing them leaves the next maximum's
    cells at column ends; so the removal order is Q's (entry, column) pairs
    sorted once, largest first.
    """
    p_cols = _transpose(p_rows)
    order = sorted(((u, j) for row in q_rows for j, u in enumerate(row)), reverse=True)
    ejected = [_unbump(p_cols, j) for _, j in order]
    return tuple(u for u, _ in reversed(order)), tuple(reversed(ejected))
