"""Reference definitions for the differential tests.

The cell-by-cell checks read a tableau one Cell at a time through
SkewTableau.entry, so they share no logic with the row-based kernels they
are compared against.  The LR crystal reference filters every semistandard
tableau by lr_membership instead of pruning a filling.
"""

from functools import lru_cache

from lrpictures import (
    Cell,
    SkewShape,
    add_sequence,
    enumerate_ssyt,
    lr_membership,
    me_reading,
    row_lengths,
)


# Memoised: the in_s_set comparison asks about each filling once per context
# of its shape, and visits the contexts of one shape together.
@lru_cache(maxsize=1024)
def validate_semistandard_by_cells(t):
    shape = t.shape
    for i in range(1, shape.outer.rows + 1):
        lo, hi = shape.inner.part(i), shape.outer.part(i)
        for j in range(lo + 1, hi + 1):
            if j + 1 <= hi and t.entry(Cell(i, j)) > t.entry(Cell(i, j + 1)):
                return False
            below = Cell(i + 1, j)
            if shape.contains_cell(below) and t.entry(Cell(i, j)) >= t.entry(below):
                return False
    return True


def in_s_set_with_content_check(ctx, s):
    """in_s_set with its explicit check of the content against kappa2's row lengths."""
    if s.shape != ctx.kappa1:
        raise ValueError("tableau shape differs from the context's first shape")
    if not validate_semistandard_by_cells(s):
        return False
    counts = s.content()
    lengths = row_lengths(ctx.kappa2)
    top = max([ctx.kappa2.outer.rows, *counts.keys()], default=0)
    if any(counts.get(i, 0) != lengths.part(i) for i in range(1, top + 1)):
        return False
    added = add_sequence(ctx.lambda2, me_reading(s, rank=ctx.rank).letters)
    return added.valid and added.result.to_partition() == ctx.nu2


def lr_crystal_by_filter(mu, lam, nu, n):
    """enumerate_lr_crystal by exhaustion: every shape-mu semistandard
    tableau with entries at most n+1 that passes lr_membership."""
    if lam.size + mu.size != nu.size or not nu.contains(lam):
        return ()
    return tuple(
        t
        for t in enumerate_ssyt(SkewShape(mu), n + 1)
        if lr_membership(t, lam, nu, n).member
    )
