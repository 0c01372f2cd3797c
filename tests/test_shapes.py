import itertools
import json
from operator import ge, lt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrpictures import (
    Cell,
    Partition,
    SkewShape,
    partitions_in_box,
    partitions_of,
    subpartitions,
)
from lrpictures.pictures import _coordinates
from lrpictures.shapes import (
    _CACHED_ROWS,
    _CACHED_SHAPE_CELLS,
    _SHAPE_CACHE_SIZE,
    _interned_shape,
    _shape_cached,
    add_sequence,
    j_order_cells,
    leq_j,
    leq_p,
)
from lrpictures.tableaux import SkewTableau, _semistandard
from cellwise import add_one
from conftest import cells, partitions, skew_shapes

GRID = [Cell(r, c) for r in range(1, 7) for c in range(1, 7)]


def test_partition_normalizes_trailing_zeros():
    assert Partition((2, 1, 0, 0)) == Partition((2, 1))
    assert Partition((0, 0)) == Partition(())
    assert Partition((2, 1, 0)).rows == 2


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


@pytest.mark.parametrize(
    "parts, message",
    [
        ((1, 2, -1), "negative part in (1, 2, -1)"),
        ((-1,), "negative part in (-1,)"),
        ((0, -2, 0), "negative part in (0, -2, 0)"),
        ((1, 2), "parts not weakly decreasing: (1, 2)"),
        ((3, 0, 1), "parts not weakly decreasing: (3, 0, 1)"),
        ((2, 2, 1, 3), "parts not weakly decreasing: (2, 2, 1, 3)"),
    ],
)
def test_partition_reports_a_negative_part_first(parts, message):
    with pytest.raises(ValueError) as exc:
        Partition(parts)
    assert str(exc.value) == message


def test_contains_matches_the_row_by_row_definition():
    # Every ordered pair in the 4x4 box, and each against a longer other.
    box = list(partitions_in_box(16, 4, 4))
    longer = [Partition((1,) * 5), Partition((4, 4, 4, 4, 1)), Partition((5,) * 5)]
    checked = 0
    for big in box + longer:
        for small in box + longer:
            rows = range(1, small.rows + 1)
            assert big.contains(small) == all(big.part(i) >= small.part(i) for i in rows)
            checked += 1
    assert checked == 73 * 73
    assert not Partition((4, 4, 4, 4)).contains(Partition((1,) * 5))


def test_cell_requires_positive_coordinates():
    with pytest.raises(ValueError):
        Cell(0, 1)
    with pytest.raises(ValueError):
        Cell(1, 0)


@pytest.mark.parametrize(
    "a, b, expected",
    [((1, 1), (2, 2), True), ((1, 2), (2, 1), False), ((1, 1), (1, 1), True)],
)
def test_leq_p_examples(a, b, expected):
    assert leq_p(Cell(*a), Cell(*b)) is expected


@pytest.mark.parametrize(
    "a, b, expected",
    [((1, 2), (1, 1), True), ((1, 1), (2, 5), True), ((2, 1), (1, 9), False)],
)
def test_leq_j_examples(a, b, expected):
    assert leq_j(Cell(*a), Cell(*b)) is expected


def test_leq_j_total_order_on_grid():
    for a, b in itertools.product(GRID, repeat=2):
        forward, backward = leq_j(a, b), leq_j(b, a)
        if a == b:
            assert forward and backward
        else:
            assert forward != backward


def test_leq_j_admissible_on_grid():
    for a, b in itertools.product(GRID, repeat=2):
        if a.row <= b.row and a.col >= b.col:
            assert leq_j(a, b)


@given(cells, cells, cells)
def test_leq_j_transitive(a, b, c):
    if leq_j(a, b) and leq_j(b, c):
        assert leq_j(a, c)


@pytest.mark.parametrize(
    "outer, inner, expected",
    [
        ((2,), (), [(1, 2), (1, 1)]),
        ((2, 1), (1,), [(1, 2), (2, 1)]),
        ((1, 1), (), [(1, 1), (2, 1)]),
    ],
)
def test_j_order_cells_examples(outer, inner, expected):
    shape = SkewShape(Partition(outer), Partition(inner))
    assert j_order_cells(shape) == tuple(Cell(*c) for c in expected)


@given(skew_shapes())
def test_j_order_cells_sorted_and_complete(shape):
    ordered = j_order_cells(shape)
    assert len(ordered) == shape.size
    assert all(leq_j(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1))
    assert all(shape.contains_cell(c) for c in ordered)


@pytest.mark.parametrize(
    "outer, inner, expected",
    [((2, 1), (1,), (1, 1)), ((3, 2), (1, 1), (2, 1)), ((2, 2), (2, 2), (0, 0))],
)
def test_row_lengths_examples(outer, inner, expected):
    assert SkewShape(Partition(outer), Partition(inner))._row_lengths == expected


def test_skew_shape_rejects_non_nested():
    with pytest.raises(ValueError):
        SkewShape(Partition((2,)), Partition((3,)))


@pytest.mark.parametrize(
    "base, i, expected",
    [((2, 2), 3, (2, 2, 1)), ((2, 2), 2, (2, 3)), ((), 1, (1,))],
)
def test_add_one_examples(base, i, expected):
    # add_one adds the box whether or not the result is a partition;
    # add_sequence returns the partition reached, or None
    assert add_one(base, i) == expected
    reached = add_sequence(Partition(base), (i,))
    if all(map(ge, expected, expected[1:])):
        assert reached == Partition(expected)
    else:
        assert reached is None


def test_add_sequence_worked_example():
    steps = []
    running = (2, 2)
    for letter in (3, 1, 2, 1, 2):
        running = add_one(running, letter)
        steps.append(running)
    assert steps == [(2, 2, 1), (3, 2, 1), (3, 3, 1), (4, 3, 1), (4, 4, 1)]
    assert add_sequence(Partition((2, 2)), (3, 1, 2, 1, 2)) == Partition((4, 4, 1))


def test_add_sequence_invalid_cases():
    assert add_sequence(Partition((2, 2)), (2,)) is None
    assert add_sequence(Partition(()), (1, 2, 3)) == Partition((1, 1, 1))


@pytest.mark.parametrize("word", [(0,), (1, 0), (2, 0)])
def test_add_sequence_refuses_a_row_below_one(word):
    # (2, 0) refuses the 0 although the 2 already left the partitions
    with pytest.raises(ValueError, match="row index must be positive"):
        add_sequence(Partition(()), word)


def test_add_sequence_pads_no_row_past_the_first_empty_one():
    # a letter past the first empty row leaves a gap, so the result is None
    # without the rows between being made; later letters are still checked
    assert add_sequence(Partition(()), [10**9]) is None
    assert add_sequence(Partition((2, 1)), [4, 1]) is None
    with pytest.raises(ValueError, match="row index must be positive, got 0"):
        add_sequence(Partition(()), [10**9, 0])
    with pytest.raises(ValueError, match="expected an integer, got 1.5"):
        add_sequence(Partition(()), [10**9, 1.5])


def test_add_sequence_reports_first_failure_only():
    # (2, 2) -> (2, 3) -> (3, 3): the total is a partition, but the first
    # step was not, so the sequence fails
    assert add_one(add_one((2, 2), 2), 1) == (3, 3)
    assert add_sequence(Partition((2, 2)), (2, 1)) is None
    assert add_sequence(Partition((2, 2)), (2, 2, 1, 3, 3)) is None


@given(partitions(), st.lists(st.integers(1, 6), max_size=10))
def test_add_sequence_size_invariant(base, word):
    reached = add_sequence(base, word)
    assert reached is None or reached.size == base.size + len(word)


@given(partitions(), st.lists(st.integers(1, 6), max_size=10))
def test_add_sequence_matches_add_one(base, word):
    # None exactly when some step leaves the weakly decreasing tuples;
    # otherwise the last step
    steps = [base.parts]
    for letter in word:
        steps.append(add_one(steps[-1], letter))
    broken = any(any(map(lt, t, t[1:])) for t in steps)
    reached = add_sequence(base, word)
    if broken:
        assert reached is None
    else:
        assert reached == Partition(steps[-1])


@given(partitions(), st.lists(st.integers(1, 6), min_size=1, max_size=10))
def test_valid_addition_grows_by_single_cells(base, word):
    reached = add_sequence(base, word)
    if reached is None:
        return
    previous = base
    for letter in word:
        step = Partition(add_one(previous.parts, letter))
        assert step.contains(previous) and step.size == previous.size + 1
        previous = step
    assert previous == reached


def test_partition_generators_on_empty_input():
    # the empty partition comes from the general recursion, not a base case
    assert list(partitions_of(0)) == [Partition()]
    assert list(partitions_of(0, 0)) == [Partition()]
    assert list(partitions_of(0, 3)) == [Partition()]
    assert list(partitions_of(3, 0)) == []
    assert list(partitions_of(-1)) == []
    assert list(subpartitions(Partition())) == [Partition()]
    assert list(subpartitions(Partition((1,)))) == [Partition((1,)), Partition()]
    assert list(partitions_in_box(0, 0, 0)) == [Partition()]
    assert list(partitions_in_box(2, 0, 2)) == [Partition()]


@given(partitions(max_rows=3, max_part=3))
def test_subpartitions_contained(nu):
    subs = list(subpartitions(nu))
    assert len(set(subs)) == len(subs)
    for lam in subs:
        assert nu.contains(lam)


def test_json_round_trips():
    p = Partition((3, 1))
    assert Partition.from_json(p.to_json()) == p
    c = Cell(2, 5)
    assert _coordinates(c.to_json()) == (c.row, c.col)
    s = SkewShape(Partition((3, 1)), Partition((1,)))
    assert SkewShape.from_json(s.to_json()) == s


@pytest.mark.parametrize("x", [2.0, 2.9, True, "2"])
def test_from_json_accepts_integers_only(x):
    with pytest.raises(ValueError):
        Partition.from_json([x, 1])
    with pytest.raises(ValueError):
        _coordinates([1, x])
    with pytest.raises(ValueError):
        SkewShape.from_json({"outer": [3, x], "inner": [1]})


def test_equal_json_gives_one_shared_shape():
    a = SkewShape.from_json(json.loads('{"outer":[3,1],"inner":[1]}'))
    b = SkewShape.from_json(json.loads('{"inner":[1],"outer":[3,1]}'))
    assert a is b and a == SkewShape(Partition((3, 1)), Partition((1,)))
    assert SkewShape.from_json({"outer": [2, 1]}) is SkewShape.from_json({"outer": [2, 1], "inner": []})
    # rsk_forward's straight tableaux share the same shapes
    assert SkewTableau.straight(((1, 1), (2,))).shape is SkewShape.from_json({"outer": [2, 1]})


def test_shape_cache_is_bounded():
    assert _shape_cached.cache_info().maxsize == _SHAPE_CACHE_SIZE
    for nu in itertools.islice(partitions_in_box(20, 6, 6), _SHAPE_CACHE_SIZE + 50):
        SkewShape.from_json({"outer": list(nu.parts)})
    assert _shape_cached.cache_info().currsize == _SHAPE_CACHE_SIZE


@pytest.mark.parametrize(
    "outer, inner, kept",
    [
        ((1,) * 12, (1,) * 3, True),  # 12 rows and 9 cells, the benchmark's largest
        ((2,) * _CACHED_ROWS, (), True),
        ((2,) * _CACHED_ROWS + (1,), (1,), False),
        ((_CACHED_SHAPE_CELLS + 1,), (1,), True),
        ((_CACHED_SHAPE_CELLS + 1,), (), False),
    ],
)
def test_shapes_past_the_row_or_cell_bound_are_built_afresh(outer, inner, kept):
    a, b = _interned_shape(outer, inner), _interned_shape(outer, inner)
    assert a == b == SkewShape(Partition(outer), Partition(inner))
    assert (a is b) == kept


def test_standard_fillings_increase_along_the_right_and_lower_steps():
    # the picture check writes distinct J positions into a shape; a filling
    # passes exactly when it increases along each right and lower step
    shape = SkewShape(Partition((3, 2)), Partition((1,)))
    cells = j_order_cells(shape)  # (1,3) (1,2) (2,2) (2,1)
    steps = [(Cell(1, 2), Cell(1, 3)), (Cell(1, 2), Cell(2, 2)), (Cell(2, 1), Cell(2, 2))]
    standard = 0
    for r in itertools.permutations(range(4)):
        value = dict(zip(cells, r))
        expected = all(value[a] < value[b] for a, b in steps)
        assert _semistandard(r, shape) == expected, r
        standard += expected
    assert standard == 5
