"""Pictures: bijections between skew diagrams that are PJ-standard both ways."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .crystal import LR_MAX_CELLS
from .shapes import Cell, SkewShape, _json_object, _json_pair, j_order_cells, leq_j, leq_p
from .tableaux import _semistandard

__all__ = [
    "Picture",
    "is_pj_standard",
    "validate_picture",
    "enumerate_pictures",
    "DEFAULT_PICTURE_CELLS",
]

# Largest shapes enumerate_pictures will exhaust unless the caller widens it.
DEFAULT_PICTURE_CELLS = 8


@dataclass(frozen=True)
class Picture:
    """A cell map stored as the image sequence along the domain's J order."""

    domain: SkewShape
    codomain: SkewShape
    images: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.domain.size:
            raise ValueError(
                f"{len(self.images)} images for a domain of {self.domain.size} cells"
            )

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "pairs": [
                [src.to_json(), img.to_json()]
                for src, img in zip(j_order_cells(self.domain), self.images)
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Picture":
        obj = _json_object(obj, "domain", "codomain", "pairs")
        domain = SkewShape.from_json(obj["domain"])
        codomain = SkewShape.from_json(obj["codomain"])
        pairs = obj["pairs"]
        if not isinstance(pairs, (list, tuple)):
            raise ValueError(f"expected a list of [cell, image] pairs, got {pairs!r}")
        given = {
            _coordinates(s): _coordinates(i)
            for s, i in (_json_pair(p, "[cell, image]") for p in pairs)
        }
        if len(given) != len(pairs):
            raise ValueError("pairs name a domain cell more than once")
        # Both sizes are checked before a shape builds its tables, so the
        # tables are no larger than the pairs given.
        if len(given) != domain.size or given.keys() != domain._j_index.keys():
            raise ValueError("pairs do not cover exactly the domain cells")
        if codomain.size != domain.size:
            raise ValueError(f"sizes differ: {domain.size} vs {codomain.size}")
        # Each image is the codomain's own Cell; one outside the codomain
        # gets a Cell of its own, which validate_picture refuses.
        index, cells = codomain._j_index, codomain._j_order
        images = (given[x] for x in domain._j_index)
        return cls(
            domain, codomain, tuple(cells[index[y]] if y in index else Cell(*y) for y in images)
        )


def _coordinates(obj) -> tuple[int, int]:
    """obj as a plain (row, col) pair, with the checks and messages of the
    Cell constructor."""
    row, col = _json_pair(obj, "[row, col]")
    if type(row) is not int or type(col) is not int or row < 1 or col < 1:
        Cell(row, col)  # raises the constructor's message
    return row, col


def is_pj_standard(cells: Sequence[Cell], images: Sequence[Cell]) -> bool:
    """Whenever one source cell sits weakly north-west of another, the images
    must compare in the J order."""
    if len(cells) != len(images):
        raise ValueError("cells and images must be aligned")
    n = len(cells)
    for i in range(n):
        for j in range(n):
            if i != j and leq_p(cells[i], cells[j]) and not leq_j(images[i], images[j]):
                return False
    return True


def validate_picture(p: Picture) -> bool:
    """Bijective onto the codomain, PJ-standard in both directions.

    Each image becomes its codomain J position.  The map is a picture
    exactly when these positions, written into the domain cells, form a
    standard filling (increasing along rows and down columns), and the
    inverse positions form one of the codomain: in a skew shape every
    a <=_p b is a chain of right and down steps, and the J order is
    transitive.  On distinct values, weak and strict increase agree, so the
    semistandard check of tableaux serves both fillings.
    """
    index = p.codomain._j_index
    r = [index.get((c.row, c.col)) for c in p.images]
    if len(r) != len(index) or None in r or len(set(r)) != len(r):
        return False
    back = [0] * len(r)
    for k, y in enumerate(r):
        back[y] = k
    return _semistandard(r, p.domain) and _semistandard(back, p.codomain)


def enumerate_pictures(
    kappa1: SkewShape, kappa2: SkewShape, max_cells: int | None = None
) -> Iterator[Picture]:
    """All pictures from kappa1 to kappa2, by backtracking over images.

    Images are assigned along the domain's J order and candidates tried in
    the codomain's J order, so output order is deterministic.  Codomain
    cells are numbered in J order, where leq_j is <= on the numbers.  The
    forward condition on the current source is an open interval of numbers:
    above the image of the cell above it, below the image of its right
    neighbour, both earlier sources.  The images assigned so far respect
    <=_p, and every earlier source weakly north-west (south-east) of the
    current one lies in the rectangle through the cell above (the right
    neighbour), so these two images are the extremes.  The inverse
    condition is a lookahead: an image is taken only when the cell above it
    and its left neighbour are used, so the used cells stay an order ideal
    and every codomain cell weakly north-west of the image is used.  This
    is exact, because a cell still unused gets its source later, so J-after
    the current source, which the inverse condition forbids.  Every leaf is
    therefore a picture and is yielded without re-validation.  The tests
    compare the output with a brute force filtered by validate_picture and
    with a search that checks every assigned pair.

    Shapes past max_cells cells (default DEFAULT_PICTURE_CELLS) are refused
    with ValueError.  The search recurses once per cell, so shapes past
    LR_MAX_CELLS cells are refused whatever max_cells says.
    """
    bound = min(DEFAULT_PICTURE_CELLS if max_cells is None else max_cells, LR_MAX_CELLS)
    if kappa1.size != kappa2.size:
        raise ValueError(f"sizes differ: {kappa1.size} vs {kappa2.size}")
    if kappa1.size > bound:
        raise ValueError(f"{kappa1.size} cells exceed the enumeration bound {bound}")

    codomain = j_order_cells(kappa2)
    n = len(codomain)
    right, up = kappa1._fill_bounds
    # The bits of the cell above each codomain cell and of its left
    # neighbour, the cell whose right neighbour it is.
    right2, up2 = kappa2._fill_bounds
    need = [0 if a is None else 1 << a for a in up2]
    for v, u in enumerate(right2):
        if u is not None:
            need[u] |= 1 << v
    images: list[int] = []

    def rec(pos: int, used: int) -> Iterator[Picture]:
        if pos == n:
            yield Picture(kappa1, kappa2, tuple(codomain[y] for y in images))
            return
        lo = -1 if up[pos] is None else images[up[pos]]
        hi = n if right[pos] is None else images[right[pos]]
        for y in range(lo + 1, hi):
            if not used >> y & 1 and used & need[y] == need[y]:
                images.append(y)
                yield from rec(pos + 1, used | 1 << y)
                images.pop()

    yield from rec(0, 0)
