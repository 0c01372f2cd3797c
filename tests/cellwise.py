"""Reference definitions for the differential tests.

The cell-by-cell checks read a tableau one Cell at a time through
SkewTableau.entry, so they share no logic with the row-based kernels they
are compared against.  The LR crystal reference filters every semistandard
tableau by lr_membership instead of pruning a filling.  The picture search
reference checks each candidate image against every assigned pair of Cells,
and the picture reference compares every pair of cells both ways.
add_one builds a shape one box at a time, for a second route to add_sequence.
c1_by_new_cells and rsk_inverse_by_max_scan are the first forms of the c1
and RSK-inverse kernels: a new Cell per image, and a max scan of Q's column
ends per removed letter.  equiv_by_insertion decides Knuth and crystal
equivalence by column insertion, the reference for the closure walk, and
inverse_picture turns a picture's cell map around.  fillings_by_recursion is
the first form of the J-order filler, one generator frame per cell.
picture_from_json_by_helpers and tableau_from_json_by_constructor are the
first forms of the two document readers: every pair through _json_pair and
_coordinates, every row through the SkewTableau constructor, and every
object through json_object_by_key_sets.
"""

from collections import Counter
from functools import lru_cache

from lrpictures import Cell, CrystalPair, Picture, SkewShape, TwoRowedArray
from lrpictures.crystal import lr_membership
from lrpictures.pictures import _coordinates, is_pj_standard
from lrpictures.rsk import _to_columns, _unbump, column_insert_sequence
from lrpictures.shapes import (
    _json_pair,
    _parsed_shape,
    add_sequence,
    j_order_cells,
    leq_j,
    leq_p,
)
from lrpictures.tableaux import SkewTableau, _reading_rows, enumerate_ssyt, me_reading
from lrpictures.words import Word


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
    counts = Counter(s.reading())
    outer, inner = ctx.kappa2.outer, ctx.kappa2.inner
    top = max([outer.rows, *counts.keys()], default=0)
    if any(counts.get(i, 0) != outer.part(i) - inner.part(i) for i in range(1, top + 1)):
        return False
    return add_sequence(ctx.lambda2, me_reading(s, rank=ctx.rank).letters) == ctx.nu2


def add_one(parts, i):
    """parts with one box added to row i; rows beyond the current length
    count as empty, and the result need not be weakly decreasing."""
    parts = list(parts) + [0] * max(0, i - len(parts))
    parts[i - 1] += 1
    return tuple(parts)


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


def fill_bounds_by_cells(shape):
    """The right-neighbour and cell-above reading positions, looked up by Cell
    in an index of the J-order cells."""
    cells = j_order_cells(shape)
    index = {c: i for i, c in enumerate(cells)}
    right = [index.get(Cell(c.row, c.col + 1)) for c in cells]
    above = [index.get(Cell(c.row - 1, c.col)) if c.row > 1 else None for c in cells]
    return right, above


def j_order_cells_by_rows(shape):
    """The J-order cell tuple, built afresh: rows top down, each right to left."""
    return tuple(
        Cell(i, j)
        for i in range(1, shape.outer.rows + 1)
        for j in range(shape.outer.part(i), shape.inner.part(i), -1)
    )


def pictures_by_pairwise_search(kappa1, kappa2):
    """enumerate_pictures without a size bound, pruning each candidate image
    by comparing it with every (source, image) pair assigned so far."""
    domain = j_order_cells(kappa1)
    codomain = j_order_cells(kappa2)
    n = len(domain)
    images = []
    used = [False] * n

    def admits(c, y):
        # c is later than every assigned source in the J order, so the
        # inverse direction only forbids y sitting weakly north-west of a
        # used image; the forward direction is checked both ways.
        for src, img in zip(domain, images):
            if leq_p(src, c) and not leq_j(img, y):
                return False
            if leq_p(c, src) and not leq_j(y, img):
                return False
            if leq_p(y, img):
                return False
        return True

    def rec(pos):
        if pos == n:
            yield Picture(kappa1, kappa2, tuple(images))
            return
        c = domain[pos]
        for idx, y in enumerate(codomain):
            if not used[idx] and admits(c, y):
                used[idx] = True
                images.append(y)
                yield from rec(pos + 1)
                images.pop()
                used[idx] = False

    if kappa1.size != kappa2.size:
        raise ValueError(f"sizes differ: {kappa1.size} vs {kappa2.size}")
    yield from rec(0)


def picture_by_all_pairs(p):
    """validate_picture by its definition: a bijection onto the codomain
    cells, PJ-standard both ways over every pair of cells."""
    targets = j_order_cells(p.codomain)
    if len(set(p.images)) != len(p.images) or set(p.images) != set(targets):
        return False
    sources = j_order_cells(p.domain)
    back = dict(zip(p.images, sources))
    return is_pj_standard(sources, p.images) and is_pj_standard(
        targets, [back[c] for c in targets]
    )


def c1_by_new_cells(ctx, reading):
    """The c1 kernel with each image a new Cell: the t-th letter k of the
    reading goes to (k, lambda2_k + t)."""
    seen = {}
    images = []
    for k in reading:
        seen[k] = seen.get(k, 0) + 1
        images.append(Cell(k, ctx.lambda2.part(k) + seen[k]))
    return Picture(ctx.kappa1, ctx.kappa2, tuple(images))


def rsk_inverse_by_max_scan(p, q):
    """The RSK inverse that finds each removed letter by scanning Q's column
    ends: the maximum, in the right-most column that ends with it."""
    p_cols, q_cols = _to_columns(p), _to_columns(q)
    pairs = []
    while q_cols:
        u = max(col[-1] for col in q_cols)
        j = max(k for k, col in enumerate(q_cols) if col[-1] == u)
        q_cols[j].pop()
        if not q_cols[j]:
            q_cols.pop()
        pairs.append((u, _unbump(p_cols, j)))
    pairs.reverse()
    return TwoRowedArray(Word(tuple(u for u, _ in pairs)), Word(tuple(v for _, v in pairs)))


def equiv_by_insertion(x, y, mode):
    """Equivalence of two words or tensor words by equality of their
    column-insertion tableaux: a word is inserted right to left, a tensor
    word left to right."""
    a, b = x.letters, y.letters
    if mode == "knuth":
        a, b = a[::-1], b[::-1]
    return column_insert_sequence(a)[0] == column_insert_sequence(b)[0]


def inverse_picture(p):
    """The picture from p's codomain to its domain that undoes p's cell map."""
    back = dict(zip(p.images, j_order_cells(p.domain)))
    assert len(back) == len(p.images), "map is not injective"
    return Picture(p.codomain, p.domain, tuple(back[c] for c in j_order_cells(p.codomain)))


def fillings_by_recursion(shape, top, parts, cap):
    """The J-order filler as a recursive generator, one frame per cell."""
    right, above = shape._fill_bounds
    size = shape.size
    values = [0] * size

    def fill(pos):
        if pos == size:
            yield SkewTableau._built(shape, _reading_rows(shape, values))
            return
        lo = 1 if above[pos] is None else values[above[pos]] + 1
        hi = top if right[pos] is None else values[right[pos]]
        for v in range(lo, hi + 1):
            r = v - 1
            if parts[r] < cap[r] and (r == 0 or parts[r - 1] > parts[r]):
                values[pos] = v
                parts[r] += 1
                yield from fill(pos + 1)
                parts[r] -= 1

    return fill(0)


def json_object_by_key_sets(obj, *keys, optional=()):
    """_json_object without its fast path: obj when it is a JSON object with
    every key of keys, none beyond them, and only the optional ones left
    out; otherwise a ValueError naming the keys."""
    if isinstance(obj, dict):
        extra = obj.keys() - set(keys)
        missing = [k for k in keys if k not in obj and k not in optional]
        if not extra and not missing:
            return obj
    expected = f"expected an object with keys {', '.join(keys)}"
    if not isinstance(obj, dict):
        raise ValueError(f"{expected}; got {obj!r}")
    if extra:
        raise ValueError(f"unexpected keys {', '.join(sorted(map(str, extra)))}; {expected}")
    raise ValueError(f"missing keys {', '.join(missing)}; {expected}")


def shape_from_json_by_key_sets(obj):
    """SkewShape.from_json through json_object_by_key_sets."""
    obj = json_object_by_key_sets(obj, "outer", "inner", optional=("inner",))
    return _parsed_shape(obj["outer"], obj.get("inner", ()))


def picture_from_json_by_helpers(obj):
    """Picture.from_json with every pair read by _json_pair and _coordinates."""
    obj = json_object_by_key_sets(obj, "domain", "codomain", "pairs")
    domain = shape_from_json_by_key_sets(obj["domain"])
    codomain = shape_from_json_by_key_sets(obj["codomain"])
    pairs = obj["pairs"]
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"expected a list of [cell, image] pairs, got {pairs!r}")
    given = {
        _coordinates(s): _coordinates(i)
        for s, i in (_json_pair(p, "[cell, image]") for p in pairs)
    }
    if len(given) != len(pairs):
        raise ValueError("pairs name a domain cell more than once")
    if len(given) != domain.size or given.keys() != domain._j_index.keys():
        raise ValueError("pairs do not cover exactly the domain cells")
    if codomain.size != domain.size:
        raise ValueError(f"sizes differ: {domain.size} vs {codomain.size}")
    index, cells = codomain._j_index, codomain._j_order
    images = (given[x] for x in domain._j_index)
    return Picture(
        domain, codomain, tuple(cells[index[y]] if y in index else Cell(*y) for y in images)
    )


def tableau_from_json_by_constructor(obj):
    """SkewTableau.from_json with the rows read by the constructor."""
    obj = json_object_by_key_sets(obj, "outer", "inner", "rows", optional=("inner",))
    return SkewTableau(_parsed_shape(obj["outer"], obj.get("inner", ())), obj["rows"])


def crystal_pair_from_json_by_constructor(obj):
    """CrystalPair.from_json on tableau_from_json_by_constructor."""
    obj = json_object_by_key_sets(obj, "first", "second")
    return CrystalPair(
        tableau_from_json_by_constructor(obj["first"]),
        tableau_from_json_by_constructor(obj["second"]),
    )
