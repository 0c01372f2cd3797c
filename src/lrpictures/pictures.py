"""Pictures: bijections between skew diagrams that are PJ-standard both ways."""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

from .crystal import _lr_readings
from .shapes import Cell, SkewShape, _ints, _json_object, _json_pair, _value_type, j_order_cells, leq_j, leq_p
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


@_value_type
class Picture:
    """A cell map stored as the image sequence along the domain's J order."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: SkewShape, codomain: SkewShape, images: tuple[Cell, ...]) -> None:
        if len(images) != domain.size:
            raise ValueError(f"{len(images)} images for a domain of {domain.size} cells")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", images)

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
        # An image outside the codomain gets a Cell that validate_picture refuses.
        domain, codomain, positions, given = _read_picture(obj)
        cells = codomain._j_order
        return cls(domain, codomain, tuple(
            Cell(*given[x]) if k is None else cells[k] for x, k in zip(domain._j_index, positions)
        ))


def _read_picture(obj) -> tuple[SkewShape, SkewShape, list[int | None], dict]:
    """A picture document as (domain, codomain, positions, given): positions[k]
    is the codomain J position of the k-th domain cell's image, or None
    outside the codomain, and given maps each (row, col) to its image's."""
    obj = _json_object(obj, "domain", "codomain", "pairs")
    domain = SkewShape.from_json(obj["domain"])
    codomain = SkewShape.from_json(obj["codomain"])
    pairs = obj["pairs"]
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"expected a list of [cell, image] pairs, got {pairs!r}")
    given = {}
    for p in pairs:
        # A JSON pair of two [row, col] lists of positive ints is read
        # inline; any other item goes through the helpers, which give it
        # the message of its first fault, or read a tuple alike.
        if type(p) is list and len(p) == 2:
            s, i = p
            if type(s) is list and type(i) is list and len(s) == len(i) == 2:
                (a, b), (c, d) = s, i
                if (
                    type(a) is int and type(b) is int and type(c) is int and type(d) is int
                    and a > 0 and b > 0 and c > 0 and d > 0
                ):
                    given[a, b] = c, d
                    continue
        s, i = _json_pair(p, "[cell, image]")
        source = _coordinates(s)  # before the image, whose fault comes second
        given[source] = _coordinates(i)
    if len(given) != len(pairs):
        raise ValueError("pairs name a domain cell more than once")
    # Both sizes are checked before a shape builds its tables, so the
    # tables are no larger than the pairs given.
    if len(given) != domain.size or given.keys() != domain._j_index.keys():
        raise ValueError("pairs do not cover exactly the domain cells")
    if codomain.size != domain.size:
        raise ValueError(f"sizes differ: {domain.size} vs {codomain.size}")
    index = codomain._j_index
    return domain, codomain, [index.get(given[x]) for x in domain._j_index], given


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
    """Bijective onto the codomain, PJ-standard in both directions."""
    return _is_picture(p.domain, p.codomain, _positions(p))


def _positions(p: Picture) -> list[int | None]:
    """The codomain J position of each image, None for one outside it."""
    index = p.codomain._j_index
    return [index.get((c.row, c.col)) for c in p.images]


def _is_picture(domain: SkewShape, codomain: SkewShape, r: Sequence[int | None]) -> bool:
    """validate_picture on the codomain J positions r of the images: the map
    is a picture exactly when r, written into the domain cells, is a standard
    filling (increasing along rows and down columns), and so are the inverse
    positions in the codomain: in a skew shape every a <=_p b is a chain of
    right and down steps, and the J order is transitive.  On distinct
    values, weak and strict increase agree, so the semistandard check of
    tableaux serves both fillings."""
    if len(r) != codomain.size or None in r or len(set(r)) != len(r):
        return False
    back = [0] * len(r)
    for k, y in enumerate(r):
        back[y] = k
    return _semistandard(r, domain) and _semistandard(back, codomain)


def _picture_readings(
    kappa1: SkewShape, kappa2: SkewShape, max_cells: int | None = None
) -> Iterator[list[int]]:
    """enumerate_pictures' checks, then the LR readings it maps to its
    pictures: those of kappa1 from kappa2's inner to its outer partition."""
    bound = DEFAULT_PICTURE_CELLS if max_cells is None else _ints((max_cells,))[0]
    if kappa1.size != kappa2.size:
        raise ValueError(f"sizes differ: {kappa1.size} vs {kappa2.size}")
    if kappa1.size > bound:
        raise ValueError(f"{kappa1.size} cells exceed the enumeration bound {bound}")
    return _lr_readings(kappa1, kappa2.inner, kappa2.outer)


def _lr_images(kappa2: SkewShape, reading: Sequence[int], table: Sequence) -> list:
    """c1's image map on an LR reading of kappa1 from kappa2's inner to its
    outer partition: table's entry at each image's J position in kappa2,
    such as its Cell or its text, or with table a range the position.

    The cells of one letter form a horizontal strip, read right to left, so
    the t-th letter k goes to (k, inner_k + t), at J position end_k - t of
    kappa2, where end_k is the position just past row k.
    """
    end = [0, *accumulate(kappa2._row_lengths)]
    images = []
    for k in reading:
        end[k] -= 1
        images.append(table[end[k]])
    return images


def _lr_picture(kappa1: SkewShape, kappa2: SkewShape, reading: Sequence[int]) -> Picture:
    """The picture of c1's image map on reading."""
    return Picture(kappa1, kappa2, tuple(_lr_images(kappa2, reading, kappa2._j_order)))


def enumerate_pictures(
    kappa1: SkewShape, kappa2: SkewShape, max_cells: int | None = None
) -> Iterator[Picture]:
    """All pictures from kappa1 to kappa2, lexicographic in their images'
    codomain J positions.

    The listing is s1's inverse over the LR filler: s1 fills kappa1 with
    its images' rows, a bijection onto the LR fillings of kappa1 from
    kappa2's inner to its outer partition, and _lr_picture inverts it.  The
    fillings come lexicographic in their readings, and where two readings
    first differ their images lie in different rows, which the J order
    numbers top to bottom; so the pictures come in order.

    Shapes past max_cells cells (default DEFAULT_PICTURE_CELLS) are refused
    with ValueError.  The filler does not recurse, so there is no other bound.
    """
    for reading in _picture_readings(kappa1, kappa2, max_cells):
        yield _lr_picture(kappa1, kappa2, reading)
