"""Crystal operators on words, the combinatorial R matrix, Knuth and crystal
equivalence, and Littlewood-Richardson crystal membership.

The operator convention is the signature rule: for index k, each letter k is
an opening bracket and each letter k+1 a closing one; brackets match when an
opening letter precedes a closing one.  The raising operator turns the
rightmost unmatched k+1 into k, the lowering operator turns the leftmost
unmatched k into k+1.  Equivalently, on two factors the first factor is
preferred exactly when phi(first) >= eps(second) (raising) or
phi(first) > eps(second) (lowering), where phi and eps count the lowering
and raising steps that apply.  No rank enters: the raising operator for an
index k at or past a word's largest letter vanishes, since no k+1 occurs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Literal

from .shapes import Partition, SkewShape, _interned_shape, _ints, _positive, _value_type
from .tableaux import SkewTableau, _fillings, _reading_rows, _semistandard_reading, enumerate_ssyt
from .words import Word

__all__ = [
    "LrWitness",
    "apply_crystal_op",
    "epsilon",
    "is_highest_weight",
    "combinatorial_r",
    "neighbours",
    "equiv_check",
    "lr_membership",
    "enumerate_lr_crystal",
    "DEFAULT_BFS_LENGTH",
    "cached_ssyt",
]

# Longest words equiv_check will close over.
DEFAULT_BFS_LENGTH = 8

# Tableau lists kept per process by cached_ssyt; `verify --suite all` uses
# 65.  LR listings and counts are made afresh on every call: no benchmark
# workload repeats one, and verify keeps its own per suite call.
_SSYT_CACHE_SIZE = 256


@_value_type
class LrWitness:
    """Outcome of a Littlewood-Richardson membership test."""

    __slots__ = ("member",)

    def __init__(self, member: bool) -> None:
        object.__setattr__(self, "member", member)


def _unmatched(letters: tuple[int, ...], k: int) -> tuple[list[int], list[int]]:
    """Positions of unmatched k+1's and unmatched k's after bracket cancellation."""
    plus: list[int] = []
    minus: list[int] = []
    for i, a in enumerate(letters):
        if a == k:
            plus.append(i)
        elif a == k + 1:
            if plus:
                plus.pop()
            else:
                minus.append(i)
    return minus, plus


def apply_crystal_op(w: Word, k: int, direction: Literal["raise", "lower"]) -> Word | None:
    """Apply the raising or lowering operator for index k; None when it vanishes."""
    _positive(k, "operator index")
    minus, plus = _unmatched(w.letters, k)
    if direction == "raise":
        if not minus:
            return None
        i, new = minus[-1], k
    elif direction == "lower":
        if not plus:
            return None
        i, new = plus[0], k + 1
    else:
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    return Word._built(w.letters[:i] + (new,) + w.letters[i + 1:])


def epsilon(w: Word, k: int) -> int:
    """How many times the raising operator for k applies."""
    _positive(k, "operator index")
    return len(_unmatched(w.letters, k)[0])


def is_highest_weight(w: Word) -> bool:
    """Every raising operator vanishes; equivalently every prefix has #k >= #(k+1).
    Only k = a - 1 for the letters a > 1 of w are checked: the raising
    operator for k needs an unmatched k+1."""
    return all(epsilon(w, a - 1) == 0 for a in set(w.letters) if a > 1)


def _r_move(letters: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The R matrix on the window at 0-based position i; identity when no case fits."""
    x, y, z = letters[i], letters[i + 1], letters[i + 2]
    if (y <= x < z) or (z <= x < y):
        # patterns b(a)(c) <-> b(c)(a) with a <= b < c: swap the last two
        return letters[:i + 1] + (z, y) + letters[i + 3:]
    if (y < z <= x) or (x < z <= y):
        # patterns (c)(a)b <-> (a)(c)b with a < b <= c: swap the first two
        return letters[:i] + (y, x) + letters[i + 2:]
    return letters


def combinatorial_r(w: Word, pos: int) -> Word:
    """Apply the combinatorial R matrix to the three factors at pos (1-based)."""
    if type(pos) is not int:
        _ints((pos,))
    if not 1 <= pos <= len(w.letters) - 2:
        raise ValueError(f"window {pos}..{pos + 2} out of range for length {len(w.letters)}")
    return Word._built(_r_move(w.letters, pos - 1))


def _knuth_moves(letters: tuple[int, ...], i: int) -> tuple[tuple[int, ...], ...]:
    """All single Knuth transformations at the 0-based window i."""
    a, b, c = letters[i], letters[i + 1], letters[i + 2]
    out: list[tuple[int, ...]] = []
    if b < a <= c:  # yxz -> yzx with x < y <= z
        out.append(letters[:i] + (a, c, b) + letters[i + 3:])
    if c < a <= b:  # yzx -> yxz
        out.append(letters[:i] + (a, c, b) + letters[i + 3:])
    if a <= c < b:  # xzy -> zxy with x <= y < z
        out.append(letters[:i] + (b, a, c) + letters[i + 3:])
    if b <= c < a:  # zxy -> xzy
        out.append(letters[:i] + (b, a, c) + letters[i + 3:])
    return tuple(out)


def neighbours(
    mode: Literal["knuth", "crystal"],
) -> Callable[[tuple[int, ...]], Iterator[tuple[int, ...]]]:
    """A function yielding the letter tuples one move away from its argument:
    one fundamental Knuth transformation for mode 'knuth', one non-trivial
    R step for mode 'crystal'."""
    if mode == "knuth":
        def step(t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            for i in range(len(t) - 2):
                yield from _knuth_moves(t, i)
    elif mode == "crystal":
        def step(t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            for i in range(len(t) - 2):
                m = _r_move(t, i)
                if m != t:
                    yield m
    else:
        raise ValueError(f"mode must be 'knuth' or 'crystal', got {mode!r}")
    return step


def _letters_of(x) -> tuple[int, ...]:
    if isinstance(x, Word):
        return x.letters
    return _ints(x)


def equiv_check(x, y, mode: Literal["knuth", "crystal"] = "knuth") -> bool:
    """Exact equivalence by closure under single moves.

    mode 'knuth' closes a word under the fundamental Knuth transformations;
    mode 'crystal' closes a word under R at every window.  The two
    notions correspond under letter reversal.  Words longer than
    DEFAULT_BFS_LENGTH are refused.
    """
    a, b = _letters_of(x), _letters_of(y)
    if len(a) != len(b):
        raise ValueError(f"words have different lengths: {len(a)} vs {len(b)}")
    if len(a) > DEFAULT_BFS_LENGTH:
        raise ValueError(f"length {len(a)} exceeds the BFS bound {DEFAULT_BFS_LENGTH}")
    if sorted(a) != sorted(b):
        return False  # both move families permute letters
    return b in _closure(a, neighbours(mode))


def _closure(
    start: tuple[int, ...], step: Callable[[tuple[int, ...]], Iterator[tuple[int, ...]]]
) -> Iterator[tuple[int, ...]]:
    """start, then every tuple reachable from it by step, each once."""
    yield start
    seen = {start}
    todo = [start]
    while todo:
        for m in step(todo.pop()):
            if m not in seen:
                seen.add(m)
                todo.append(m)
                yield m


def lr_membership(t: SkewTableau, lam: Partition, nu: Partition) -> LrWitness:
    """Does adding boxes along t's J-order reading carry lam to nu through partitions?

    t must be a straight semistandard tableau.  Its reading goes through
    _lr_member, so a letter past nu's rows makes t no member.
    """
    if not t.shape.is_straight:
        raise ValueError("straight tableau required")
    reading = _semistandard_reading(t)
    if reading is None:
        raise ValueError("tableau is not semistandard")
    return LrWitness(_lr_member(reading, lam, nu))


def _lr_member(reading: tuple[int, ...], lam: Partition, nu: Partition) -> bool:
    """Does adding one box at row a for each letter a of reading, in order,
    carry lam to nu through partitions?

    The caller checks that the reading is a semistandard tableau's.  The
    letters are nu's rows: lam is padded to them, and a letter past them
    takes no box and fails.
    """
    cap, parts = nu.parts, list(lam.parts)
    top = len(cap)
    parts += [0] * (top - len(parts))
    for a in reading:
        r = a - 1
        if r >= top or parts[r] >= cap[r] or (r and parts[r - 1] <= parts[r]):
            return False
        parts[r] += 1
    return tuple(parts) == cap


@lru_cache(maxsize=_SSYT_CACHE_SIZE, typed=True)
def cached_ssyt(shape: SkewShape, max_entry: int) -> tuple[SkewTableau, ...]:
    """Memoised exhaustive enumeration; shared by the counting routines.
    Keys are typed, so True and 1.0 miss the entry of 1 and are refused."""
    return tuple(enumerate_ssyt(shape, max_entry))


def _lr_readings(shape: SkewShape, lam: Partition, nu: Partition) -> Iterator[list[int]]:
    """J-order readings of the semistandard fillings of shape that add boxes
    to lam through partitions and end at nu; each is the filler's own list
    (see _fillings).  Letter a adds its box to row a, so the letters are
    nu's rows.

    A filling that stays inside nu ends at nu since |lam| + |shape| = |nu|,
    so these are the readings of enumerate_ssyt(shape, m) filtered by the
    addition condition, in the same order, for any m of at least nu's row
    count.  On a straight shape mu they read the LR crystal; on nu/lam from
    the empty partition to mu, the LR rule (content mu, lattice reading).
    """
    if lam.size + shape.size != nu.size or not nu.contains(lam):
        return iter(())
    return _fillings(shape, list(lam.parts) + [0] * (nu.rows - lam.rows), list(nu.parts))


def _lr_fillings(shape: SkewShape, lam: Partition, nu: Partition) -> tuple[SkewTableau, ...]:
    """The tableaux of _lr_readings(shape, lam, nu), in its order."""
    return tuple(
        SkewTableau._built(shape, _reading_rows(shape, r))
        for r in _lr_readings(shape, lam, nu)
    )


def _lr_count(shape: SkewShape, lam: Partition, nu: Partition) -> int:
    """len(_lr_fillings(shape, lam, nu)), with no tableau built or kept."""
    return sum(1 for _ in _lr_readings(shape, lam, nu))


def enumerate_lr_crystal(mu: Partition, lam: Partition, nu: Partition) -> tuple[SkewTableau, ...]:
    """All straight shape-mu tableaux whose reading is a valid lam -> nu addition,
    lexicographic in the J-order reading.

    The count is the Littlewood-Richardson coefficient of the triple.  The
    letters are nu's rows, since a letter past them could add no box.  mu
    may have any number of cells: the filler does not recurse.
    """
    return _lr_fillings(_interned_shape(mu.parts, ()), lam, nu)
