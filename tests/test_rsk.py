import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrpictures import (
    Cell,
    Partition,
    SkewShape,
    SkewTableau,
    TwoRowedArray,
    rsk_forward,
    rsk_inverse,
)
from lrpictures.crystal import equiv_check
from lrpictures.rsk import (
    _rsk_inverse,
    column_insert,
    column_insert_sequence,
    reverse_column_insert,
    validate_lex_array,
)
from lrpictures.tableaux import skew_word, validate_semistandard
from lrpictures.words import Word
from cellwise import rsk_inverse_by_max_scan

EMPTY = SkewTableau.straight(())


def arr(top, bottom):
    return TwoRowedArray(Word(top), Word(bottom))


def test_column_insert_examples():
    out = column_insert(EMPTY, 1)
    assert out.tableau.rows == ((1,),) and out.new_cell == Cell(1, 1)
    out = column_insert(SkewTableau.straight(((1,),)), 2)
    assert out.tableau.rows == ((1,), (2,)) and out.new_cell == Cell(2, 1)
    out = column_insert(SkewTableau.straight(((2,),)), 1)
    assert out.tableau.rows == ((1, 2),) and out.new_cell == Cell(1, 2)


def test_column_insert_requires_straight():
    skew = SkewTableau(SkewShape(Partition((2, 1)), Partition((1,))), ((1,), (2,)))
    with pytest.raises(ValueError):
        column_insert(skew, 1)


def test_reverse_column_insert_examples():
    t, ejected = reverse_column_insert(SkewTableau.straight(((1, 2),)), Cell(1, 2))
    assert t.rows == ((2,),) and ejected == 1
    t, ejected = reverse_column_insert(SkewTableau.straight(((1,), (2,))), Cell(2, 1))
    assert t.rows == ((1,),) and ejected == 2
    t, ejected = reverse_column_insert(SkewTableau.straight(((1,),)), Cell(1, 1))
    assert t.rows == () and ejected == 1


def test_reverse_column_insert_rejects_non_corner():
    t = SkewTableau.straight(((1, 1), (2,)))
    with pytest.raises(ValueError):
        reverse_column_insert(t, Cell(1, 1))
    with pytest.raises(ValueError):
        reverse_column_insert(t, Cell(3, 1))


@given(st.lists(st.integers(1, 5), max_size=10), st.integers(1, 5))
def test_reverse_inverts_insert(letters, x):
    t = column_insert_sequence(letters)[0]
    grown, cell = column_insert(t, x)
    assert validate_semistandard(grown)
    assert grown.shape.cell_set() == t.shape.cell_set() | {cell}
    back, ejected = reverse_column_insert(grown, cell)
    assert back == t and ejected == x


def test_validate_lex_array_examples():
    assert validate_lex_array(arr((1, 1), (2, 1)))
    assert not validate_lex_array(arr((1, 1), (1, 2)))
    assert not validate_lex_array(arr((2, 1), (1, 1)))


def test_rsk_forward_examples():
    p, q = rsk_forward(arr((1,), (1,)))
    assert p.rows == ((1,),) and q.rows == ((1,),)
    p, q = rsk_forward(arr((1, 1), (2, 1)))
    assert p.rows == ((1, 2),) and q.rows == ((1, 1),)
    p, q = rsk_forward(arr((1, 2), (1, 2)))
    assert p.rows == ((1,), (2,)) and q.rows == ((1,), (2,))


def test_rsk_forward_rejects_non_lexicographic():
    with pytest.raises(ValueError):
        rsk_forward(arr((2, 1), (1, 1)))


def test_rsk_inverse_examples():
    assert rsk_inverse(
        SkewTableau.straight(((1, 2),)), SkewTableau.straight(((1, 1),))
    ) == arr((1, 1), (2, 1))
    assert rsk_inverse(
        SkewTableau.straight(((1,), (2,))), SkewTableau.straight(((1,), (2,)))
    ) == arr((1, 2), (1, 2))
    assert rsk_inverse(
        SkewTableau.straight(((1,),)), SkewTableau.straight(((1,),))
    ) == arr((1,), (1,))


def test_rsk_inverse_rejects_bad_pairs():
    with pytest.raises(ValueError):
        rsk_inverse(SkewTableau.straight(((1, 1),)), SkewTableau.straight(((1,), (2,))))
    with pytest.raises(ValueError):
        rsk_inverse(SkewTableau.straight(((2, 1),)), SkewTableau.straight(((1, 1),)))


def test_empty_array_round_trip():
    p, q = rsk_forward(arr((), ()))
    assert p.size == q.size == 0
    assert rsk_inverse(p, q) == arr((), ())


def all_lex_arrays(n, m):
    for top in itertools.product(range(1, n + 1), repeat=m):
        for bottom in itertools.product(range(1, n + 1), repeat=m):
            candidate = arr(top, bottom)
            if validate_lex_array(candidate):
                yield candidate


def test_round_trip_exhaustive_small():
    seen = set()
    for w in all_lex_arrays(3, 3):
        p, q = rsk_forward(w)
        assert p.shape == q.shape
        assert rsk_inverse(p, q) == w
        assert (p, q) not in seen
        seen.add((p, q))
    assert len(seen) == 165


def test_sorted_removal_order_matches_the_max_scan():
    # Every lexicographic array of up to six letters over 1..3: a multiset
    # of (top, bottom) pairs, listed top ascending and bottom descending.
    alphabet = sorted(itertools.product(range(1, 4), repeat=2), key=lambda uv: (uv[0], -uv[1]))
    count = 0
    for m in range(7):
        for pairs in itertools.combinations_with_replacement(alphabet, m):
            w = arr(tuple(u for u, _ in pairs), tuple(v for _, v in pairs))
            p, q = rsk_forward(w)
            assert _rsk_inverse(p, q) == rsk_inverse_by_max_scan(p, q) == w, w
            count += 1
    assert count == 5005


def test_forward_contents():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(0, 8)
        pairs = sorted(
            ((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(m)),
            key=lambda uv: (uv[0], -uv[1]),
        )
        w = arr(tuple(u for u, _ in pairs), tuple(v for _, v in pairs))
        p, q = rsk_forward(w)
        assert p.size == m
        assert sorted(a for row in p.rows for a in row) == sorted(w.bottom.letters)
        assert sorted(a for row in q.rows for a in row) == sorted(w.top.letters)
        assert validate_semistandard(p) and validate_semistandard(q)


def test_column_bumping_lemma_random():
    rng = random.Random(11)
    for _ in range(2000):
        t = column_insert_sequence([rng.randint(1, 5) for _ in range(rng.randint(0, 12))])[0]
        x, x2 = rng.randint(1, 5), rng.randint(1, 5)
        first = column_insert(t, x)
        second = column_insert(first.tableau, x2)
        a, b = first.new_cell, second.new_cell
        if x < x2:
            assert b.col <= a.col and b.row > a.row
        else:
            assert a.col < b.col and a.row >= b.row


def test_insertion_respects_knuth_class():
    from lrpictures import partitions_of
    from lrpictures.tableaux import enumerate_ssyt

    # growing a tableau by one letter keeps the word in its plactic class
    for size in range(5):
        for mu in partitions_of(size):
            for t in enumerate_ssyt(SkewShape(mu), 3):
                for x in (1, 2, 3):
                    grown = column_insert(t, x).tableau
                    assert equiv_check(
                        skew_word(grown), Word((x,) + skew_word(t).letters), "knuth"
                    )
