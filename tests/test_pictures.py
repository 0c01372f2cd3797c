import itertools
import random

import pytest

from lrpictures import (
    Cell,
    Partition,
    Picture,
    SkewShape,
    enumerate_pictures,
    partitions_in_box,
    subpartitions,
)
from lrpictures.cli import cmd_run
from lrpictures.pictures import _picture_readings, is_pj_standard, validate_picture
from lrpictures.shapes import j_order_cells
from lrpictures.verify import acceptance_contexts
from cellwise import inverse_picture, picture_by_all_pairs, pictures_by_pairwise_search

HOOK = SkewShape(Partition((2, 1)), Partition((1,)))
ROW2 = SkewShape(Partition((2,)))
COL2 = SkewShape(Partition((1, 1)))


def staircase(n):
    return SkewShape(Partition(tuple(range(n, 0, -1))), Partition(tuple(range(n - 1, 0, -1))))


def _brute_force_pictures(kappa1, kappa2):
    # Every bijection, in the enumerator's order (lexicographic in the
    # codomain J order), kept when validate_picture accepts it.
    candidates = (
        Picture(kappa1, kappa2, images)
        for images in itertools.permutations(j_order_cells(kappa2))
    )
    return [p for p in candidates if validate_picture(p)]


def test_is_pj_standard_examples():
    col = j_order_cells(COL2)
    assert is_pj_standard(col, col)
    row = j_order_cells(ROW2)
    assert not is_pj_standard(row, row)
    hook = j_order_cells(HOOK)
    assert is_pj_standard(hook, hook)  # domain is an antichain


def test_validate_picture_examples():
    single = SkewShape(Partition((1,)))
    assert validate_picture(Picture(single, single, (Cell(1, 1),)))
    swap = Picture(ROW2, ROW2, (Cell(1, 1), Cell(1, 2)))
    identity = Picture(ROW2, ROW2, (Cell(1, 2), Cell(1, 1)))
    assert validate_picture(swap)
    assert not validate_picture(identity)
    found = list(enumerate_pictures(ROW2, ROW2))
    assert found == [swap]


def test_validate_picture_rejects_non_bijections():
    assert not validate_picture(Picture(ROW2, ROW2, (Cell(1, 1), Cell(1, 1))))
    assert not validate_picture(Picture(ROW2, ROW2, (Cell(1, 1), Cell(2, 1))))


def test_hook_pictures():
    found = list(enumerate_pictures(HOOK, HOOK))
    assert len(found) == 2
    for p in found:
        assert validate_picture(p)
        assert validate_picture(inverse_picture(p))
        assert inverse_picture(inverse_picture(p)) == p


@pytest.mark.parametrize(
    "n, count", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720), (7, 5040)]
)
def test_staircase_antichain_counts(n, count):
    found = list(enumerate_pictures(staircase(n), staircase(n)))
    assert len(found) == count
    assert len(set(found)) == count
    assert found == _brute_force_pictures(staircase(n), staircase(n))


def test_enumeration_errors():
    with pytest.raises(ValueError):
        list(enumerate_pictures(ROW2, SkewShape(Partition((1,)))))
    big = SkewShape(Partition((5, 4)))
    with pytest.raises(ValueError):
        list(enumerate_pictures(big, big))
    assert len(list(enumerate_pictures(big, big, max_cells=9))) >= 1


def test_enumeration_lists_a_long_row_and_column():
    # one picture each, read off one LR filling; the filler stops its letter
    # scan at the first empty row, so the column is not quadratic
    m = 20000
    for shape in (SkewShape(Partition((m,))), SkewShape(Partition((1,) * m))):
        found = list(enumerate_pictures(shape, shape, max_cells=m))
        assert len(found) == 1 and validate_picture(found[0])


def test_cross_check_counts_a_long_row_and_column():
    for mu in ([6000], [1] * 6000):
        argv = ["lr-coeff", "--lambda", "[]", "--mu", str(mu), "--nu", str(mu), "--cross-check"]
        assert cmd_run(argv) == (0, '{"coefficient":1,"routes_agree":true}\n')


def test_empty_shapes_have_one_picture():
    empty = SkewShape(Partition(()))
    found = list(enumerate_pictures(empty, empty))
    assert len(found) == 1 and found[0].images == ()
    assert validate_picture(found[0])


def test_count_symmetry_small_family():
    from lrpictures import partitions_in_box, subpartitions

    shapes = []
    for nu in partitions_in_box(4, 3, 3):
        for lam in subpartitions(nu):
            if nu.size - lam.size <= 3:
                shapes.append(SkewShape(nu, lam))
    by_size = {}
    for s in shapes:
        by_size.setdefault(s.size, []).append(s)
    for size, group in by_size.items():
        for a in group[:12]:
            for b in group[:12]:
                found = list(enumerate_pictures(a, b))
                backward = len(list(enumerate_pictures(b, a)))
                assert len(found) == backward
                for p in found:
                    assert validate_picture(inverse_picture(p))
    # The count of each direction fills a different shape: kappa1 from
    # kappa2's inner partition, and kappa2 from kappa1's.
    pictures = 0
    for ctx in acceptance_contexts(6):
        forward = sum(1 for _ in _picture_readings(ctx.kappa1, ctx.kappa2))
        assert forward == sum(1 for _ in _picture_readings(ctx.kappa2, ctx.kappa1)), ctx
        pictures += forward
    assert pictures == 13594


def test_picture_json_round_trip():
    p = list(enumerate_pictures(HOOK, HOOK))[0]
    assert Picture.from_json(p.to_json()) == p
    doc = p.to_json()
    assert doc["domain"] == {"outer": [2, 1], "inner": [1]}
    assert len(doc["pairs"]) == 2
    # every image read back is one of the codomain's own cells
    pictures = 0
    for ctx in acceptance_contexts(5):
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            g = Picture.from_json(f.to_json())
            assert g == f, f
            assert {id(c) for c in g.images} == {id(c) for c in j_order_cells(g.codomain)}
            pictures += 1
    assert pictures == 5162
    # an image outside the codomain is read as a Cell of its own and refused
    # by validate_picture
    doc["pairs"][0][1] = [3, 3]
    outside = Picture.from_json(doc)
    assert outside.images[0] == Cell(3, 3) and not validate_picture(outside)


def test_picture_json_refuses_a_repeated_source():
    doc = list(enumerate_pictures(HOOK, HOOK))[0].to_json()
    for extra in (doc["pairs"][1], [doc["pairs"][1][0], doc["pairs"][0][1]]):
        with pytest.raises(ValueError):
            Picture.from_json({**doc, "pairs": doc["pairs"] + [extra]})


def test_enumeration_is_deterministic():
    a = [p.to_json() for p in enumerate_pictures(staircase(3), staircase(3))]
    b = [p.to_json() for p in enumerate_pictures(staircase(3), staircase(3))]
    assert a == b


def test_enumeration_matches_validated_brute_force_on_family():
    # enumerate_pictures yields its leaves without re-validating them; the
    # sequence must equal the validated brute force, order and count included
    total = 0
    for ctx in acceptance_contexts(max_cells=5):
        found = list(enumerate_pictures(ctx.kappa1, ctx.kappa2))
        assert found == _brute_force_pictures(ctx.kappa1, ctx.kappa2)
        total += len(found)
    assert total == 5162


def test_validate_picture_matches_the_pairwise_definition_on_family():
    # every bijection of every context; validate_picture compares neighbours
    # only, the reference every pair of cells
    maps = accepted = 0
    for ctx in acceptance_contexts(max_cells=5):
        for images in itertools.permutations(j_order_cells(ctx.kappa2)):
            f = Picture(ctx.kappa1, ctx.kappa2, images)
            verdict = validate_picture(f)
            assert verdict == picture_by_all_pairs(f), f
            maps += 1
            accepted += verdict
    assert (maps, accepted) == (44097, 5162)


def test_validate_picture_matches_the_pairwise_definition_off_bijections():
    # every map into the codomain plus one cell outside it, so images repeat
    # or leave the codomain
    maps = accepted = 0
    for ctx in acceptance_contexts(max_cells=3):
        targets = j_order_cells(ctx.kappa2)
        outside = Cell(1, 1) if ctx.kappa2.inner.rows else Cell(1, ctx.kappa2.outer.part(1) + 1)
        for images in itertools.product(targets + (outside,), repeat=len(targets)):
            f = Picture(ctx.kappa1, ctx.kappa2, images)
            verdict = validate_picture(f)
            assert verdict == picture_by_all_pairs(f), f
            maps += 1
            accepted += verdict
    assert (maps, accepted) == (98355, 4695)


def _connected(shape):
    cells = {(c.row, c.col) for c in j_order_cells(shape)}
    todo = [cells.pop()]
    while todo:
        r, c = todo.pop()
        for d in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if d in cells:
                cells.remove(d)
                todo.append(d)
    return not cells


def _stacked(pieces):
    # Straight pieces along the antidiagonal, first piece top right; they
    # touch at most at a corner.
    outer, inner = [], []
    offset = sum(p[0] for p in pieces)
    for piece in pieces:
        offset -= piece[0]
        outer.extend(offset + length for length in piece)
        inner.extend(offset for _ in piece)
    return SkewShape(Partition(tuple(outer)), Partition(tuple(x for x in inner if x)))


def _assert_same_as_pairwise_search(kappa1, kappa2):
    found = list(enumerate_pictures(kappa1, kappa2, max_cells=9))
    assert found == list(pictures_by_pairwise_search(kappa1, kappa2))
    return len(found)


def test_search_matches_pairwise_reference_on_connected_shapes():
    # Connected 7-9-cell skew shapes with nu in the 4x4 box, paired at random
    joined = {k: [] for k in (7, 8, 9)}
    for nu in partitions_in_box(16, 4, 4):
        for lam in subpartitions(nu):
            shape = SkewShape(nu, lam)
            if shape.size in joined and _connected(shape):
                joined[shape.size].append(shape)
    rng = random.Random(5)
    total = 0
    for i in range(600):
        group = joined[7 + i % 3]
        total += _assert_same_as_pairwise_search(rng.choice(group), rng.choice(group))
    assert total == 554


def test_search_matches_pairwise_reference_on_disconnected_shapes():
    # Four straight pieces of 1-3 cells each, 7-9 cells in all
    pieces = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
    splits = {
        k: [c for c in itertools.product((1, 2, 3), repeat=4) if sum(c) == k]
        for k in (7, 8, 9)
    }
    rng = random.Random(11)
    total = 0
    for i in range(48):
        split = splits[7 + i % 3]
        a, b = (
            _stacked([rng.choice(pieces[s]) for s in rng.choice(split)]) for _ in range(2)
        )
        assert not _connected(a) and not _connected(b)
        total += _assert_same_as_pairwise_search(a, b)
    assert total == 6029


def test_search_matches_pairwise_reference_on_staircases():
    # Disconnected staircases: every fill-table entry is None, so neither
    # the cell-above / right-neighbour bounds nor the lookahead applies
    counts = [_assert_same_as_pairwise_search(staircase(n), staircase(n)) for n in range(1, 9)]
    assert counts == [1, 2, 6, 24, 120, 720, 5040, 40320]
