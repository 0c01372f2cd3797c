"""Words: finite sequences of positive integers.  The crystal operators read a
word as the tensor product of its letters, left to right."""

from __future__ import annotations

from typing import Iterator

from .shapes import _ints, _value_type

__all__ = ["Word"]


@_value_type
class Word:
    """A finite sequence of positive integers."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        letters = _ints(letters)
        if any(a < 1 for a in letters):
            raise ValueError(f"letters must be positive, got {letters}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def to_json(self) -> list[int]:
        return list(self.letters)

    @classmethod
    def from_json(cls, obj) -> "Word":
        return cls(obj)
