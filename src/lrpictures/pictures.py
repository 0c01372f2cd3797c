"""Pictures: bijections between skew diagrams that are PJ-standard both ways."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .crystal import LR_MAX_CELLS
from .shapes import Cell, SkewShape, _json_object, _json_pair, j_order_cells, leq_j, leq_p

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

    def inverse(self) -> "Picture":
        back = dict(zip(self.images, j_order_cells(self.domain)))
        if len(back) != len(self.images):
            raise ValueError("map is not injective; no inverse")
        return Picture(
            self.codomain,
            self.domain,
            tuple(back[c] for c in j_order_cells(self.codomain)),
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
        sources = domain._j_index
        if given.keys() != sources.keys():
            raise ValueError("pairs do not cover exactly the domain cells")
        # Each image is the codomain's own Cell; one outside the codomain
        # gets a Cell of its own, which validate_picture refuses.
        index, cells = codomain._j_index, codomain._j_order
        images = (given[x] for x in sources)
        return cls(
            domain, codomain, tuple(cells[index[y]] if y in index else Cell(*y) for y in images)
        )


def _coordinates(obj) -> tuple[int, int]:
    """obj as a plain (row, col) pair, with the checks and messages of
    Cell.from_json."""
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

    Each image becomes its codomain J position.  The order conditions are
    checked on neighbouring cells only: in a skew shape every a <=_p b is
    a chain of right and down steps, and the J order is transitive.
    """
    index = p.codomain._j_index
    r = [index.get((c.row, c.col)) for c in p.images]
    if len(r) != len(index) or None in r or len(set(r)) != len(r):
        return False
    back = [0] * len(r)
    for k, y in enumerate(r):
        back[y] = k
    return all(r[k] < r[m] for k, m in p.domain._neighbours) and all(
        back[k] < back[m] for k, m in p.codomain._neighbours
    )


def enumerate_pictures(
    kappa1: SkewShape, kappa2: SkewShape, max_cells: int | None = None
) -> Iterator[Picture]:
    """All pictures from kappa1 to kappa2, by backtracking over images.

    Images are assigned along the domain's J order and candidates tried in
    the codomain's J order, so output order is deterministic.  Codomain
    cells are numbered in J order, where leq_j is <= on the numbers.  The
    forward condition on the current source is an open interval of numbers:
    above every image of an earlier source weakly north-west of it, below
    every image of an earlier source weakly south-east of it.  The inverse
    condition is a lookahead: an image is taken only when every other
    codomain cell weakly north-west of it is already used.  This is exact,
    because a cell still unused gets its source later, so J-after the
    current source, which the inverse condition forbids.  Every leaf is
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

    domain = j_order_cells(kappa1)
    codomain = j_order_cells(kappa2)
    n = len(domain)
    # Earlier sources weakly north-west (before) and south-east (after) of
    # each source; the bits of the other codomain cells weakly north-west
    # of each image.  leq_p is written out: on small shapes these tables
    # cost more than the search.
    before = [
        [k for k in range(pos) if domain[k].row <= c.row and domain[k].col <= c.col]
        for pos, c in enumerate(domain)
    ]
    after = [
        [k for k in range(pos) if c.row <= domain[k].row and c.col <= domain[k].col]
        for pos, c in enumerate(domain)
    ]
    above = [
        sum(1 << t for t, x in enumerate(codomain) if x.row <= y.row and x.col <= y.col and t != u)
        for u, y in enumerate(codomain)
    ]
    images: list[int] = []

    def rec(pos: int, used: int) -> Iterator[Picture]:
        if pos == n:
            yield Picture(kappa1, kappa2, tuple(codomain[y] for y in images))
            return
        lo = max([images[k] for k in before[pos]], default=-1)
        hi = min([images[k] for k in after[pos]], default=n)
        for y in range(lo + 1, hi):
            if not used >> y & 1 and used & above[y] == above[y]:
                images.append(y)
                yield from rec(pos + 1, used | 1 << y)
                images.pop()

    yield from rec(0, 0)
