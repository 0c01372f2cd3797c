import itertools
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrpictures import (
    Partition,
    SkewShape,
    SkewTableau,
    lr_coefficient,
    lr_routes,
    partitions_in_box,
    partitions_of,
    subpartitions,
)
from lrpictures.crystal import (
    _knuth_moves,
    _lr_fillings,
    apply_crystal_op,
    cached_ssyt,
    combinatorial_r,
    enumerate_lr_crystal,
    epsilon,
    equiv_check,
    is_highest_weight,
    lr_membership,
    neighbours,
)
from lrpictures.tableaux import me_reading, skew_word
from lrpictures.words import Word
from cellwise import equiv_by_insertion, lr_crystal_by_filter, pictures_by_pairwise_search


def all_words(top, length):
    for letters in itertools.product(range(1, top + 1), repeat=length):
        yield Word(letters)


def test_apply_crystal_op_examples():
    assert apply_crystal_op(Word((2, 1)), 1, "raise").letters == (1, 1)
    assert apply_crystal_op(Word((1, 2)), 1, "raise") is None
    assert apply_crystal_op(Word((1, 1)), 1, "lower").letters == (2, 1)


def test_apply_crystal_op_validates_index():
    with pytest.raises(ValueError):
        apply_crystal_op(Word((1, 2)), 0, "raise")
    with pytest.raises(ValueError):
        apply_crystal_op(Word((1, 2)), 1, "sideways")
    # an index past the letters is no error: its raising operator vanishes
    assert apply_crystal_op(Word((1, 2)), 3, "raise") is None
    assert apply_crystal_op(Word((1, 2)), 2, "lower").letters == (1, 3)


def test_epsilon_phi_weight():
    w = Word((2, 1, 2, 3))
    assert epsilon(w, 1) == 1  # the leading 2 has no earlier 1 to pair with
    assert epsilon(w, 2) == 0  # the 3 pairs with the nearest unmatched 2
    assert epsilon(w, 3) == epsilon(w, 9) == 0  # no letter 4 or 10 to raise


def test_is_highest_weight_examples():
    assert is_highest_weight(Word((1, 1)))
    assert is_highest_weight(Word((1, 2)))
    assert not is_highest_weight(Word((2, 1)))


def test_raise_lower_are_inverse_exhaustively():
    for top in (2, 3):
        for length in range(6):
            for w in all_words(top, length):
                for k in range(1, top):
                    up = apply_crystal_op(w, k, "raise")
                    if up is not None:
                        assert apply_crystal_op(up, k, "lower") == w
                    down = apply_crystal_op(w, k, "lower")
                    if down is not None:
                        assert apply_crystal_op(down, k, "raise") == w


def test_epsilon_counts_raises():
    for w in all_words(3, 4):
        for k in (1, 2):
            n, current = 0, w
            while (nxt := apply_crystal_op(current, k, "raise")) is not None:
                n, current = n + 1, nxt
            assert n == epsilon(w, k)


def test_highest_weight_prefix_characterization():
    for top in (2, 3):
        for length in range(7):
            for w in all_words(top, length):
                prefix_ok = all(
                    sum(1 for a in w.letters[:p] if a == k)
                    >= sum(1 for a in w.letters[:p] if a == k + 1)
                    for p in range(1, length + 1)
                    for k in range(1, top)
                )
                assert is_highest_weight(w) == prefix_ok


def test_combinatorial_r_examples():
    assert combinatorial_r(Word((1, 1, 2)), 1).letters == (1, 2, 1)
    assert combinatorial_r(Word((2, 1, 2)), 1).letters == (1, 2, 2)
    assert combinatorial_r(Word((1, 1, 1)), 1).letters == (1, 1, 1)
    with pytest.raises(ValueError):
        combinatorial_r(Word((1, 1, 2)), 2)


def test_combinatorial_r_involution_and_weight():
    for w in all_words(4, 3):
        out = combinatorial_r(w, 1)
        assert combinatorial_r(out, 1) == w
        assert sorted(out.letters) == sorted(w.letters)


def test_r_commutes_with_crystal_ops():
    for w in all_words(3, 4):
        for pos in (1, 2):
            other = combinatorial_r(w, pos)
            if other == w:
                continue
            for k in (1, 2):
                for direction in ("raise", "lower"):
                    a = apply_crystal_op(w, k, direction)
                    b = apply_crystal_op(other, k, direction)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert equiv_check(a, b, "crystal")


def test_knuth_step_examples():
    assert _knuth_moves((2, 1, 2), 0) == ((2, 2, 1),)
    assert _knuth_moves((1, 2, 1), 0) == ((2, 1, 1),)
    assert _knuth_moves((1, 1, 1), 0) == ()
    assert list(neighbours("knuth")((1, 2))) == []
    assert list(neighbours("knuth")((3, 2, 1, 2))) == [(3, 2, 2, 1)]


def test_knuth_step_is_symmetric():
    for letters in itertools.product(range(1, 4), repeat=3):
        for out in _knuth_moves(letters, 0):
            assert letters in _knuth_moves(out, 0)


def test_neighbours_match_single_moves():
    # one move at every window: the Knuth moves for 'knuth', non-trivial R
    # steps for 'crystal'
    for letters in itertools.product(range(1, 4), repeat=4):
        knuth = {m for i in (0, 1) for m in _knuth_moves(letters, i)}
        assert set(neighbours("knuth")(letters)) == knuth
        b = Word(letters)
        r = {combinatorial_r(b, pos).letters for pos in (1, 2)} - {letters}
        assert set(neighbours("crystal")(letters)) == r
    with pytest.raises(ValueError):
        neighbours("plactic")


def test_equiv_check_examples():
    assert equiv_check(Word((2, 1, 2)), Word((2, 2, 1)), "knuth")
    assert equiv_check(Word((2, 1, 2)), Word((1, 2, 2)), "crystal")
    assert not equiv_check(Word((1, 2)), Word((2, 1)), "knuth")


def test_equiv_check_bounds_and_errors():
    with pytest.raises(ValueError):
        equiv_check(Word((1,) * 9), Word((1,) * 9), "knuth")
    assert equiv_check(Word((1,) * 8), Word((1,) * 8), "knuth")
    with pytest.raises(ValueError):
        equiv_check(Word((1,)), Word((1, 1)), "knuth")


@pytest.mark.parametrize("bad", [[1.9, 2], [True, 2], ["1", "2"]])
def test_equiv_check_refuses_non_integer_letters(bad):
    # int() would read each of these as the word 1 2
    with pytest.raises(ValueError, match="expected an integer"):
        equiv_check(bad, [1, 2])
    with pytest.raises(ValueError, match="expected an integer"):
        equiv_check([1, 2], bad, "crystal")


def test_reversal_matches_knuth_and_crystal():
    # full class-partition agreement is covered by the acceptance suite; here
    # all pairs of words of length 4 over {1,2,3}
    words4 = list(itertools.product(range(1, 4), repeat=4))
    for a in words4:
        for b in words4:
            knuth = equiv_check(Word(a), Word(b), "knuth")
            crystal = equiv_check(Word(a[::-1]), Word(b[::-1]), "crystal")
            assert knuth == crystal


def test_tensor_word_conversions():
    # the J-order tensor reading lists the row word's letters reversed
    t = SkewTableau.straight(((1, 2), (3,)))
    assert me_reading(t) == Word((2, 1, 3))
    assert skew_word(t) == Word(tuple(reversed(me_reading(t).letters)))


@given(st.lists(st.integers(1, 3), max_size=6).map(tuple), st.randoms())
def test_fast_equivalence_matches_bfs(letters, rng):
    shuffled = list(letters)
    rng.shuffle(shuffled)
    a, b = Word(letters), Word(tuple(shuffled))
    assert equiv_check(a, b, "knuth") == equiv_by_insertion(a, b, "knuth")
    assert equiv_check(a, b, "crystal") == equiv_by_insertion(a, b, "crystal")


def test_equiv_check_matches_insertion_on_every_rearrangement():
    # every pair of rearrangements of every word of length <= 5 over {1,2,3}
    for length in range(6):
        for content in itertools.combinations_with_replacement(range(1, 4), length):
            words = sorted(set(itertools.permutations(content)))
            for a, b in itertools.product(words, repeat=2):
                assert equiv_check(Word(a), Word(b), "knuth") == equiv_by_insertion(
                    Word(a), Word(b), "knuth"
                )
                assert equiv_check(Word(a), Word(b), "crystal") == equiv_by_insertion(
                    Word(a), Word(b), "crystal"
                )


def test_lr_membership_examples():
    w = lr_membership(SkewTableau.straight(((1, 2),)), Partition((1,)), Partition((2, 1)))
    assert w.member
    assert lr_membership(
        SkewTableau.straight(((1, 1),)), Partition(()), Partition((2,))
    ).member
    w = lr_membership(SkewTableau.straight(((2, 2),)), Partition(()), Partition((2,)))
    assert not w.member


def test_lr_membership_wrong_final_shape():
    w = lr_membership(SkewTableau.straight(((1, 1),)), Partition(()), Partition((1, 1)))
    assert not w.member


def test_lr_membership_rejects_bad_input():
    skew = SkewTableau(SkewShape(Partition((2, 1)), Partition((1,))), ((1,), (2,)))
    with pytest.raises(ValueError, match="straight tableau required"):
        lr_membership(skew, Partition(()), Partition((2,)))
    with pytest.raises(ValueError, match="not semistandard"):
        lr_membership(SkewTableau.straight(((2, 1),)), Partition(()), Partition((2,)))
    # a letter past nu's rows adds no box
    assert not lr_membership(
        SkewTableau.straight(((1, 3),)), Partition(()), Partition((1, 1))
    ).member


def test_enumerate_lr_crystal_examples():
    assert [
        t.rows
        for t in enumerate_lr_crystal(Partition((1,)), Partition((1,)), Partition((2,)))
    ] == [((1,),)]
    assert [
        t.rows
        for t in enumerate_lr_crystal(Partition((2,)), Partition((1,)), Partition((2, 1)))
    ] == [((1, 2),)]
    two = enumerate_lr_crystal(Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1)))
    assert sorted(t.rows for t in two) == [((1, 2), (3,)), ((1, 3), (2,))]
    # the letters are nu's rows, with no rank to cut them short
    column = Partition((1, 1, 1))
    assert [t.rows for t in enumerate_lr_crystal(column, Partition(), column)] == [
        ((1,), (2,), (3,))
    ]
    with pytest.raises(TypeError):
        enumerate_lr_crystal(column, Partition(), column, 1)


def test_enumerate_lr_crystal_accepts_mu_past_the_recursion_limit():
    mu = Partition((1200,))
    assert [t.rows for t in enumerate_lr_crystal(mu, Partition(), mu)] == [((1,) * 1200,)]


def test_enumerate_lr_crystal_size_mismatch_is_empty():
    assert enumerate_lr_crystal(Partition((2,)), Partition((1,)), Partition((2,))) == ()


def test_lr_counts_stable_in_rank():
    # The rank-free listing counts what the filtered enumeration counts at
    # any rank large enough, and that count does not move with the rank.
    for nu in (Partition((3, 2, 1)), Partition((2, 2)), Partition((4, 2))):
        for lam in (Partition((1,)), Partition((2, 1))):
            if not nu.contains(lam):
                continue
            from lrpictures import partitions_of

            for mu in partitions_of(nu.size - lam.size):
                base = max(nu.rows, mu.rows + lam.rows, 1)
                found = len(enumerate_lr_crystal(mu, lam, nu))
                a = len(lr_crystal_by_filter(mu, lam, nu, base))
                b = len(lr_crystal_by_filter(mu, lam, nu, base + 1))
                assert found == a == b, (lam, mu, nu)


def lr_triples(sizes):
    """Every (lam, mu, nu) with |nu| in sizes, lam inside nu and |mu| = |nu| - |lam|."""
    for size in sizes:
        for nu in partitions_of(size):
            for lam in subpartitions(nu):
                for mu in partitions_of(size - lam.size):
                    yield lam, mu, nu


def test_pruned_filling_equals_the_filtered_enumeration():
    # Whole tableau sequences, not counts: same members, same order.  The
    # listing takes no rank, and it is the filtered enumeration at every
    # rank n whose letters 1..n+1 cover nu's rows, from nu's row count less
    # one up to one past max(nu's rows, mu's rows + lam's rows).
    for lam, mu, nu in lr_triples(range(7)):
        found = enumerate_lr_crystal(mu, lam, nu)
        base = max(nu.rows, mu.rows + lam.rows, 1)
        for n in range(max(nu.rows - 1, 1), base + 2):
            assert found == lr_crystal_by_filter(mu, lam, nu, n), (lam, mu, nu, n)


def test_skew_route_equals_the_crystal_route():
    # The LR rule on nu/lam (content mu, lattice reading) against the crystal
    # route on mu: two fillings of different shapes, one count.
    checked = 0
    for lam, mu, nu in lr_triples(range(9)):
        skew = _lr_fillings(SkewShape(nu, lam), Partition(), mu)
        assert len(skew) == len(enumerate_lr_crystal(mu, lam, nu)), (lam, mu, nu)
        checked += 1
    assert checked == 4136


def test_filling_caches_stay_bounded():
    # 10,000 distinct triples: one box added to a row of 1 to 10,000 cells,
    # counted and listed, with no memo left to fill; then 1,000 distinct
    # tableau lists.
    for k in range(1, 10001):
        triple = Partition((k,)), Partition((1,)), Partition((k + 1,))
        assert lr_coefficient(*triple) == 1
        assert len(enumerate_lr_crystal(triple[1], triple[0], triple[2])) == 1
    for k in range(1, 1001):
        assert len(cached_ssyt(SkewShape(Partition((k,)), Partition((k - 1,))), 1)) == 1
    info = cached_ssyt.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_long_fillings_are_not_kept():
    # 300 distinct lam = nu of 2,000 rows, listed from the empty mu: no
    # listing is kept.  A listing cache keyed by them holds about 5 MB.
    def long(k):
        return Partition((2,) * k + (1,) * (2000 - k))

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 301):
            lam = long(k)
            assert len(enumerate_lr_crystal(Partition(), lam, lam)) == 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_fillings_of_shapes_past_the_cell_bound_are_not_kept():
    # 100 distinct one-row mu of 500-599 cells, listed from the empty
    # lambda to nu = mu: each shape has more cells than the shape cache
    # keeps, and no listing is kept.  A listing cache keyed by them holds
    # about 2.5 MB.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(500, 600):
            mu = Partition((k,))
            assert len(enumerate_lr_crystal(mu, Partition(), mu)) == 1
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 17


def test_counts_equal_the_listing_and_the_pictures_route():
    # Every triple with nu in the 4x4 box, |nu| <= 10 and 4 <= |mu| <= 7:
    # the count, the listed crystal and the pictures agree.  The pictures
    # come from the pairwise search, which shares no code with the filler
    # (enumerate_pictures maps the filler's own readings).
    checked = 0
    for nu in partitions_in_box(10, 4, 4):
        for lam in subpartitions(nu):
            if not 4 <= nu.size - lam.size <= 7:
                continue
            for mu in partitions_of(nu.size - lam.size):
                c = lr_coefficient(lam, mu, nu)
                assert c == len(enumerate_lr_crystal(mu, lam, nu)), (lam, mu, nu)
                pictures = pictures_by_pairwise_search(SkewShape(mu), SkewShape(nu, lam))
                assert c == sum(1 for _ in pictures), (lam, mu, nu)
                checked += 1
    assert checked == 3113


def test_pruned_filling_agrees_with_the_pictures_route():
    # 8-9 cell triples with mu of at most 4 rows, against the pairwise
    # picture search, as above.
    checked = 0
    for nu in partitions_in_box(12, 4, 4):
        for lam in subpartitions(nu):
            if not 8 <= nu.size - lam.size <= 9:
                continue
            for mu in partitions_of(nu.size - lam.size):
                if mu.rows > 4:
                    continue
                pictures = pictures_by_pairwise_search(SkewShape(mu), SkewShape(nu, lam))
                assert len(enumerate_lr_crystal(mu, lam, nu)) == sum(1 for _ in pictures)
                checked += 1
    assert checked == 1707


@pytest.mark.parametrize(
    "lam, mu, nu, expected",
    [
        ((4, 3, 2, 1), (4, 3, 2, 1), (7, 5, 4, 3, 1), 12),
        ((5, 4, 3, 2, 1), (4, 3, 2, 1), (8, 6, 5, 3, 2, 1), 26),
        ((4, 3, 2, 1), (4, 3, 2, 1), (6, 5, 4, 3, 1, 1), 18),
    ],
)
def test_ten_cell_coefficients(lam, mu, nu, expected):
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    assert lr_coefficient(lam, mu, nu) == expected
    assert len(enumerate_lr_crystal(mu, lam, nu)) == expected
    pictures = pictures_by_pairwise_search(SkewShape(mu), SkewShape(nu, lam))
    assert sum(1 for _ in pictures) == expected


def test_pieri_rule_past_twelve_cells():
    # Adding a 13-box row to (5, 3) gives (13, 5, 3) in exactly one way.
    assert lr_coefficient(Partition((5, 3)), Partition((13,)), Partition((13, 5, 3))) == 1


@pytest.mark.parametrize(
    "lam, mu, nu, expected",
    [
        ((3, 2, 1), (5, 4, 3, 1), (7, 5, 4, 2, 1), 8),
        ((2, 1), (6, 4, 3, 1), (7, 5, 4, 1), 2),
        ((3, 1), (6, 5, 3, 1), (7, 6, 4, 2), 3),
        ((2, 1), (7, 5, 3, 1), (8, 6, 4, 1), 2),
        ((3, 2), (6, 5, 4, 1), (7, 6, 5, 3), 3),
    ],
)
def test_coefficients_past_twelve_cells_are_symmetric(lam, mu, nu, expected):
    # mu has 13-16 cells; swapped, the small shape is filled instead.
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    assert lr_coefficient(lam, mu, nu) == expected
    routes = lr_routes(mu, lam, nu)
    assert routes == {"crystal": expected, "skew_tableaux": expected}
