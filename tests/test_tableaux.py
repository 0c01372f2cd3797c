from itertools import product

import pytest
from hypothesis import given

from lrpictures import (
    Cell,
    Partition,
    SkewShape,
    SkewTableau,
    partitions_in_box,
    partitions_of,
    subpartitions,
)
from lrpictures.crystal import enumerate_lr_crystal
from lrpictures.shapes import _shape_cached, j_order_cells
from lrpictures.tableaux import (
    _fillings,
    enumerate_ssyt,
    highest_tableau,
    me_reading,
    p_index,
    skew_word,
    validate_semistandard,
)
from lrpictures.rsk import _straight
from cellwise import (
    fill_bounds_by_cells,
    fillings_by_recursion,
    j_order_cells_by_rows,
    validate_semistandard_by_cells,
)
from conftest import skew_shapes

HOOK = SkewShape(Partition((2, 1)), Partition((1,)))


def small_family():
    """Skew shapes of at most 6 cells inside a 3x3 box, with all fillings up to entry 4."""
    for nu in partitions_in_box(9, 3, 3):
        for lam in subpartitions(nu):
            shape = SkewShape(nu, lam)
            if shape.size <= 6:
                for t in enumerate_ssyt(shape, 4):
                    yield t


def test_validate_semistandard_examples():
    assert validate_semistandard(SkewTableau.straight(((1, 2), (2,))))
    assert not validate_semistandard(SkewTableau.straight(((1, 1), (1,))))
    assert validate_semistandard(SkewTableau(HOOK, ((1,), (2,))))


def test_tableau_structure_validation():
    with pytest.raises(ValueError):
        SkewTableau(HOOK, ((1, 2), (2,)))  # row 1 too long for the skew shape
    with pytest.raises(ValueError):
        SkewTableau(HOOK, ((1,),))  # missing row 2


def test_me_reading_examples():
    assert me_reading(SkewTableau.straight(((1, 2),))).letters == (2, 1)
    assert me_reading(highest_tableau(Partition((2, 1)))).letters == (1, 1, 2)
    assert me_reading(SkewTableau(HOOK, ((1,), (2,)))).letters == (1, 2)


def test_me_reading_rejects_non_semistandard():
    with pytest.raises(ValueError):
        me_reading(SkewTableau.straight(((2, 1),)))


def test_skew_word_examples():
    assert skew_word(SkewTableau.straight(((1, 2), (2,)))).letters == (2, 1, 2)
    assert skew_word(SkewTableau(HOOK, ((1,), (2,)))).letters == (2, 1)
    assert skew_word(SkewTableau.straight(((5,),))).letters == (5,)


def test_highest_tableau_examples():
    assert highest_tableau(Partition((2, 1))).rows == ((1, 1), (2,))
    assert highest_tableau(Partition(())).rows == ()
    assert highest_tableau(Partition((3,))).rows == ((1, 1, 1),)


def test_p_index_examples():
    t = SkewTableau(SkewShape(Partition((3,)), Partition((1,))), ((1, 1),))
    assert p_index(t, Cell(1, 3)) == 1
    assert p_index(t, Cell(1, 2)) == 2
    assert p_index(SkewTableau.straight(((5,),)), Cell(1, 1)) == 1
    y = highest_tableau(Partition((2, 1)))
    assert p_index(y, Cell(1, 1)) == 2
    with pytest.raises(ValueError):
        p_index(y, Cell(3, 3))
    # not semistandard: equal entries in one column count from the top
    z = SkewTableau.straight(((1, 1), (1,)))
    assert [p_index(z, c) for c in (Cell(1, 2), Cell(1, 1), Cell(2, 1))] == [1, 2, 3]


def test_enumerate_ssyt_examples():
    assert len(list(enumerate_ssyt(SkewShape(Partition((1,))), 2))) == 2
    assert len(list(enumerate_ssyt(SkewShape(Partition((1, 1))), 2))) == 1
    rows = [t.rows for t in enumerate_ssyt(SkewShape(Partition((2,))), 2)]
    assert rows == [((1, 1),), ((1, 2),), ((2, 2),)]


def test_enumerate_ssyt_bound():
    # enumerate_ssyt bounds no shape: these 13 cells are listed in the
    # recursive filler's order, started from rows spaced as enumerate_ssyt
    # spaces them; 63 is the number of (7,6) tableaux with entries at most 3
    shape = SkewShape(Partition((7, 6)))
    g = shape.size + 1
    parts = [(3 - r) * g for r in range(3)]
    expected = list(fillings_by_recursion(shape, 3, parts, [p + g for p in parts]))
    assert list(enumerate_ssyt(shape, 3)) == expected
    assert len(expected) == 63


def same_fillings(shape, parts, cap):
    """The loop's readings are those of the recursive filler's tableaux, in
    its order, with one letter per row of cap, and both give parts back as
    they found it."""
    given = list(parts)
    found = [tuple(r) for r in _fillings(shape, parts, cap)]
    assert parts == given, (shape, cap)
    expected = [t.reading() for t in fillings_by_recursion(shape, len(cap), parts, cap)]
    assert found == expected, (shape, given, cap)
    assert parts == given, (shape, cap)
    return found


def test_flat_filler_matches_the_recursive_one():
    # Every skew shape with nu in the 4x4 box, empty ones included, under
    # caps of 1-5 rows.  The lattice caps (rows from empty, each of room
    # |shape|) refuse every letter that would break the partition;
    # enumerate_ssyt's caps refuse none, and 5 rows of them would add
    # 746,075 leaves.
    shapes = [SkewShape(nu, lam) for nu in partitions_in_box(16, 4, 4) for lam in subpartitions(nu)]
    assert len(shapes) == 1764 and SkewShape(Partition()) in shapes
    lattice = wide = 0
    for shape in shapes:
        g = shape.size + 1
        for top in range(1, 6):
            lattice += len(same_fillings(shape, [0] * top, [shape.size] * top))
            if top < 5:
                parts = [(top - r) * g for r in range(top)]
                wide += len(same_fillings(shape, parts, [p + g for p in parts]))
    assert (lattice, wide) == (12280, 164786)
    empty = SkewShape(Partition((2, 1)), Partition((2, 1)))
    assert same_fillings(empty, [0, 0, 0], [0, 0, 0]) == [()]


def test_flat_filler_matches_the_recursive_one_under_lr_caps():
    # The crystal route's caps (shape mu, from lam inside nu) and the LR
    # rule's (shape nu/lam, from the empty partition inside mu) refuse
    # letters, so both fillers prune the same branches.
    calls = refused = 0
    for nu in partitions_in_box(8, 4, 4):
        for lam in subpartitions(nu):
            for mu in partitions_of(nu.size - lam.size):
                for shape, start, cap in (
                    (SkewShape(mu), lam, nu),
                    (SkewShape(nu, lam), Partition(), mu),
                ):
                    parts = list(start.parts) + [0] * (cap.rows - start.rows)
                    found = same_fillings(shape, parts, list(cap.parts))
                    refused += not found  # every shape has a semistandard filling
                    calls += 1
    assert calls == 3972 and refused > calls // 2
    # a cap of nothing refuses every letter
    assert same_fillings(SkewShape(Partition((2,))), [0, 0], [0, 0]) == []


def test_fill_bounds_match_the_cell_index():
    checked = 0
    for nu in partitions_in_box(12, 5, 5):
        for lam in subpartitions(nu):
            shape = SkewShape(nu, lam)
            right, above = fill_bounds_by_cells(shape)
            assert shape._fill_bounds == (tuple(right), tuple(above)), shape
            checked += 1
    assert checked == 3700


def test_each_shape_keeps_one_fill_table():
    for shape in {t.shape for t in small_family()}:
        table = shape._fill_bounds
        assert shape._fill_bounds is table
        assert type(table) is tuple and all(type(bounds) is tuple for bounds in table)
    # the crystal route fills the shared shape of mu, so each mu builds its
    # table once, whatever earlier tests have cached or evicted.
    mu = Partition((2, 1))
    (t,) = enumerate_lr_crystal(mu, Partition((1,)), Partition((2, 2)))
    assert t.shape is SkewShape.from_json({"outer": [2, 1]})
    assert enumerate_lr_crystal(mu, Partition((1,)), Partition((3, 1)))[0].shape is t.shape


def test_a_cached_listing_keeps_its_shape_shared_past_the_shape_cache():
    # The LR listing cache (4,096 keys) outlives the shape cache (256): a
    # listing still holds its mu after the shape cache has dropped it, and
    # interning mu again gives that same shape back, tables and all.
    mu = Partition((2, 1))
    (t,) = enumerate_lr_crystal(mu, Partition((1,)), Partition((2, 2)))
    table = t.shape._fill_bounds
    for a in range(1, 40):
        for b in range(a + 1):
            SkewShape.from_json({"outer": [a, b]})  # 819 shapes, past the 256 kept
    assert _shape_cached(t.shape.outer.parts, ()) is t.shape
    again = SkewShape.from_json({"outer": [2, 1]})
    assert again is t.shape and again._fill_bounds is table
    assert enumerate_lr_crystal(mu, Partition((1,)), Partition((2, 2)))[0].shape is again


def test_library_built_tableaux_equal_the_checked_constructor():
    checked = straight = 0
    for t in small_family():
        twins = [
            SkewTableau(t.shape, [list(row) for row in t.rows]),
            SkewTableau.from_reading(t.shape, list(t.reading())),
        ]
        if t.shape.is_straight:
            twins.append(SkewTableau.straight(t.rows))
            assert _straight(t.rows) == twins[-1] and _straight(t.rows).shape is twins[-1].shape
            straight += 1
        for twin in twins:
            assert twin == t and hash(twin) == hash(t)
        assert type(t.rows) is tuple and all(type(row) is tuple for row in t.rows)
        checked += 1
    assert (checked, straight) == (3844, 385)


def test_enumerate_ssyt_is_j_reading_lexicographic():
    shape = SkewShape(Partition((2, 2)), Partition((1,)))
    readings = [me_reading(t).letters for t in enumerate_ssyt(shape, 3)]
    assert readings == sorted(readings)
    assert len(set(readings)) == len(readings)


def test_enumerated_family_properties():
    count = 0
    for t in small_family():
        count += 1
        assert validate_semistandard(t)
        seen_letters = set(t.reading())
        for k in seen_letters:
            cells = [c for c, a in zip(j_order_cells(t.shape), t.reading()) if a == k]
            # a horizontal strip: one cell per column, so the J order lists
            # the cells right to left, and p_index counts them in that order
            assert all(cells[i].col > cells[i + 1].col for i in range(len(cells) - 1))
            for idx, c in enumerate(cells, start=1):
                assert p_index(t, c) == idx
        reading = me_reading(t)
        word = skew_word(t)
        assert len(reading.letters) == len(word.letters) == t.size
        assert sorted(reading.letters) == sorted(word.letters)
    assert count > 100


@given(skew_shapes(max_rows=3, max_part=3))
def test_me_reading_of_highest_tableau_weakly_increases(shape):
    y = highest_tableau(shape.outer)
    letters = me_reading(y).letters
    assert all(letters[i] <= letters[i + 1] for i in range(len(letters) - 1))


def test_entries_map_matches_j_order():
    t = SkewTableau(HOOK, ((1,), (2,)))
    assert dict(zip(j_order_cells(HOOK), t.reading())) == {Cell(1, 2): 1, Cell(2, 1): 2}
    assert [t.entry(c) for c in j_order_cells(HOOK)] == [1, 2]


def test_json_round_trip():
    t = SkewTableau(HOOK, ((1,), (2,)))
    assert SkewTableau.from_json(t.to_json()) == t
    assert t.to_json() == {"outer": [2, 1], "inner": [1], "rows": [[1], [2]]}


def test_row_based_semistandard_check_matches_cellwise():
    # Every filling with entries <= 3, semistandard or not, of every skew
    # shape of at most 5 cells in the 3x3 box.  The accepted ones, in
    # product order, are enumerate_ssyt's output in its order.
    checked = accepted = 0
    for nu in partitions_in_box(9, 3, 3):
        for lam in subpartitions(nu):
            shape = SkewShape(nu, lam)
            if shape.size > 5:
                continue
            found = []
            for letters in product(range(1, 4), repeat=shape.size):
                t = SkewTableau.from_reading(shape, letters)
                verdict = validate_semistandard(t)
                assert verdict == validate_semistandard_by_cells(t), t
                checked += 1
                accepted += verdict
                if verdict:
                    found.append(t)
            assert found == list(enumerate_ssyt(shape, 3)), shape
    assert 0 < accepted < checked


def test_reading_is_the_j_order_entries():
    for t in small_family():
        assert t.reading() == tuple(t.entry(c) for c in j_order_cells(t.shape))
        assert SkewTableau.from_reading(t.shape, t.reading()) == t


def test_from_reading_rejects_a_wrong_length():
    assert SkewTableau.from_reading(HOOK, (1, 2)).rows == ((1,), (2,))
    with pytest.raises(ValueError):
        SkewTableau.from_reading(HOOK, (1,))
    with pytest.raises(ValueError):
        SkewTableau.from_reading(HOOK, (1, 2, 3))
    with pytest.raises(ValueError, match="entries must be positive"):
        SkewTableau.from_reading(HOOK, (1, 0))
    with pytest.raises(ValueError, match="expected an integer, got 1.0"):
        SkewTableau.from_reading(HOOK, (1.0, 2))


def test_from_json_accepts_integers_only():
    with pytest.raises(ValueError):
        SkewTableau.from_json({"outer": [2, 1], "inner": [1], "rows": [[1], [2.0]]})
    with pytest.raises(ValueError):
        SkewTableau.from_json({"outer": [2, 1], "inner": [1], "rows": [[True], [2]]})


def test_j_order_cells_built_once_per_shape():
    for shape in {t.shape for t in small_family()}:
        twin = SkewShape.from_json(shape.to_json())
        cells = j_order_cells(shape)
        assert cells == j_order_cells_by_rows(shape)
        assert j_order_cells(shape) is cells
        # the kept tuple plays no part in equality or hashing
        assert twin == shape and hash(twin) == hash(shape)
        assert j_order_cells(twin) == cells
        assert twin == shape and hash(twin) == hash(shape)
