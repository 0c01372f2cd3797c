from collections import defaultdict
from itertools import product

from hypothesis import strategies as st

from lrpictures import (
    Cell,
    CorrespondenceContext,
    Partition,
    SkewShape,
    enumerate_pictures,
    partitions_in_box,
    subpartitions,
)

cells = st.builds(Cell, st.integers(1, 8), st.integers(1, 8))


@st.composite
def partitions(draw, max_rows=4, max_part=5):
    rows = draw(st.integers(0, max_rows))
    parts = sorted(
        (draw(st.integers(0, max_part)) for _ in range(rows)), reverse=True
    )
    return Partition(tuple(parts))


@st.composite
def skew_shapes(draw, max_rows=4, max_part=5):
    outer = draw(partitions(max_rows, max_part))
    inner_parts = []
    prev = max_part
    for i in range(1, outer.rows + 1):
        v = draw(st.integers(0, min(prev, outer.part(i))))
        inner_parts.append(v)
        prev = v
    return SkewShape(outer, Partition(tuple(inner_parts)))


letters = st.integers(1, 5)
words = st.lists(letters, max_size=8).map(tuple)


def roundtrip_population():
    """Every picture between equal-sized 5-7-cell shapes nu/lam with nu in
    the 4x4 box and |nu| <= 8, with its context."""
    by_size = defaultdict(list)
    for nu in partitions_in_box(8, 4, 4):
        for lam in subpartitions(nu):
            if 5 <= nu.size - lam.size <= 7:
                by_size[nu.size - lam.size].append(SkewShape(nu, lam))
    for shapes in by_size.values():
        for kappa1, kappa2 in product(shapes, repeat=2):
            ctx = CorrespondenceContext(kappa1, kappa2)
            for f in enumerate_pictures(kappa1, kappa2):
                yield ctx, f
