import importlib
import sys
from collections import Counter, defaultdict
from itertools import combinations_with_replacement, product

import pytest

from lrpictures import (
    Cell,
    CorrespondenceContext,
    CrystalPair,
    Partition,
    Picture,
    SkewShape,
    SkewTableau,
    TwoRowedArray,
    enumerate_pictures,
    full_c,
    full_s,
    lr_coefficient,
    lr_routes,
    partitions_in_box,
    partitions_of,
    subpartitions,
)
from lrpictures.correspondence import (
    c1_skewtab_to_picture,
    c2_array_to_skewtab,
    c3_pair_to_array,
    in_s_set,
    in_w_set,
    s1_picture_to_skewtab,
    s2_skewtab_to_array,
    s3_array_to_pair,
)
from lrpictures.crystal import (
    _lr_fillings,
    _lr_member,
    cached_ssyt,
    combinatorial_r,
    lr_membership,
)
from lrpictures.pictures import _lr_picture
from lrpictures.rsk import column_insert_sequence, validate_lex_array
from lrpictures.shapes import j_order_cells
from lrpictures.tableaux import enumerate_ssyt, p_index
from lrpictures.words import Word
from lrpictures.verify import acceptance_contexts, suite_roundtrip
from cellwise import (
    c1_by_new_cells,
    enumerate_crystal_pairs,
    in_s_set_with_content_check,
    in_w_set_with_content_check,
    lr_member_by_addition,
)
from conftest import roundtrip_population

HOOK = SkewShape(Partition((2, 1)), Partition((1,)))
ROW2 = SkewShape(Partition((2,)))
HOOK_CTX = CorrespondenceContext(HOOK, HOOK)
ROW_CTX = CorrespondenceContext(ROW2, ROW2)

IDENTITY = Picture(HOOK, HOOK, (Cell(1, 2), Cell(2, 1)))
SWAP = Picture(HOOK, HOOK, (Cell(2, 1), Cell(1, 2)))


def tab(entries, shape=HOOK):
    return SkewTableau.from_reading(shape, [entries[c.row, c.col] for c in j_order_cells(shape)])


def small_contexts():
    return acceptance_contexts(max_cells=3, box=(3, 3), max_outer=4)


def test_context_derives_everything():
    ctx = CorrespondenceContext(HOOK, SkewShape(Partition((2, 1)), Partition((1,))))
    assert ctx.lambda1 == Partition((1,)) and ctx.nu1 == Partition((2, 1))
    assert ctx.lambda2 == Partition((1,)) and ctx.nu2 == Partition((2, 1))
    assert ctx.size == 2
    with pytest.raises(ValueError):
        CorrespondenceContext(HOOK, SkewShape(Partition((1,))))


def test_s1_examples():
    assert s1_picture_to_skewtab(HOOK_CTX, IDENTITY) == tab({(1, 2): 1, (2, 1): 2})
    assert s1_picture_to_skewtab(HOOK_CTX, SWAP) == tab({(1, 2): 2, (2, 1): 1})
    swap_row = Picture(ROW2, ROW2, (Cell(1, 1), Cell(1, 2)))
    assert s1_picture_to_skewtab(ROW_CTX, swap_row).rows == ((1, 1),)


def test_s1_rejects_non_picture():
    not_picture = Picture(ROW2, ROW2, (Cell(1, 2), Cell(1, 1)))
    with pytest.raises(ValueError):
        s1_picture_to_skewtab(ROW_CTX, not_picture)
    with pytest.raises(ValueError, match="not a picture"):
        full_s(ROW_CTX, not_picture)


def test_in_s_set_examples():
    assert in_s_set(HOOK_CTX, tab({(1, 2): 1, (2, 1): 2}))
    assert in_s_set(ROW_CTX, SkewTableau.straight(((1, 1),)))
    assert not in_s_set(HOOK_CTX, tab({(1, 2): 2, (2, 1): 2}))
    with pytest.raises(ValueError):
        in_s_set(HOOK_CTX, SkewTableau.straight(((1, 1),)))


def test_s2_examples():
    assert s2_skewtab_to_array(HOOK_CTX, tab({(1, 2): 1, (2, 1): 2})) == TwoRowedArray(
        Word((1, 2)), Word((1, 2))
    )
    assert s2_skewtab_to_array(HOOK_CTX, tab({(1, 2): 2, (2, 1): 1})) == TwoRowedArray(
        Word((1, 2)), Word((2, 1))
    )
    assert s2_skewtab_to_array(ROW_CTX, SkewTableau.straight(((1, 1),))) == TwoRowedArray(
        Word((1, 1)), Word((1, 1))
    )


def test_s3_examples():
    pair = s3_array_to_pair(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((1, 2))))
    assert pair.first.rows == ((1,), (2,)) and pair.second.rows == ((1,), (2,))
    assert pair.first.shape == pair.second.shape == SkewShape(Partition((1, 1)))
    pair = s3_array_to_pair(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((2, 1))))
    assert pair.first.rows == ((1, 2),) and pair.second.rows == ((1, 2),)
    pair = s3_array_to_pair(ROW_CTX, TwoRowedArray(Word((1, 1)), Word((1, 1))))
    assert pair.first.rows == ((1, 1),) and pair.second.rows == ((1, 1),)


def test_in_w_set_examples():
    assert in_w_set(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((2, 1))))
    assert not in_w_set(HOOK_CTX, TwoRowedArray(Word((1, 1)), Word((1, 2))))
    assert not in_w_set(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((1, 1))))
    # a letter past the rank is refused by the LR membership, not by a raise
    assert not in_w_set(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((5, 1))))


def test_c3_examples():
    assert c3_pair_to_array(
        HOOK_CTX,
        CrystalPair(SkewTableau.straight(((1, 2),)), SkewTableau.straight(((1, 2),))),
    ) == TwoRowedArray(Word((1, 2)), Word((2, 1)))
    column = SkewTableau.straight(((1,), (2,)))
    assert c3_pair_to_array(HOOK_CTX, CrystalPair(column, column)) == TwoRowedArray(
        Word((1, 2)), Word((1, 2))
    )
    one = SkewTableau.straight(((1,),))
    ctx1 = CorrespondenceContext(SkewShape(Partition((1,))), SkewShape(Partition((1,))))
    assert c3_pair_to_array(ctx1, CrystalPair(one, one)) == TwoRowedArray(
        Word((1,)), Word((1,))
    )


def test_c2_examples():
    s = c2_array_to_skewtab(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((2, 1))))
    assert s == tab({(1, 2): 2, (2, 1): 1})
    s = c2_array_to_skewtab(HOOK_CTX, TwoRowedArray(Word((1, 2)), Word((1, 2))))
    assert s == tab({(1, 2): 1, (2, 1): 2})
    s = c2_array_to_skewtab(ROW_CTX, TwoRowedArray(Word((1, 1)), Word((1, 1))))
    assert s.rows == ((1, 1),)


def test_c1_examples():
    assert c1_skewtab_to_picture(HOOK_CTX, tab({(1, 2): 1, (2, 1): 2})) == IDENTITY
    assert c1_skewtab_to_picture(HOOK_CTX, tab({(1, 2): 2, (2, 1): 1})) == SWAP
    f = c1_skewtab_to_picture(ROW_CTX, SkewTableau.straight(((1, 1),)))
    assert f.images == (Cell(1, 1), Cell(1, 2))  # J order lists (1,2) first


def test_c1_running_count_matches_p_index():
    # c1 counts equal entries along the J order instead of calling p_index
    for ctx in small_contexts():
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            s = s1_picture_to_skewtab(ctx, f)
            expected = tuple(
                Cell(s.entry(c), ctx.lambda2.part(s.entry(c)) + p_index(s, c))
                for c in j_order_cells(ctx.kappa1)
            )
            assert c1_skewtab_to_picture(ctx, s).images == expected


def test_c1_takes_the_codomain_cells():
    # the kernel looks each image up among kappa2's own cells; its first
    # form built a new Cell per image
    pictures = 0
    for ctx in acceptance_contexts(5):
        own = {id(c) for c in j_order_cells(ctx.kappa2)}
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            reading = s1_picture_to_skewtab(ctx, f).reading()
            g = _lr_picture(ctx.kappa1, ctx.kappa2, reading)
            assert g == c1_by_new_cells(ctx, reading) == f, (ctx, f)
            assert {id(c) for c in g.images} == own
            pictures += 1
    assert pictures == 5162


def test_lr_kernel_matches_lr_membership():
    # every straight tableau with entries at most n + 1, read against each
    # side (lambda, nu) of every context at the context's rank n, the row
    # count of its larger outer shape
    sides = {
        (lam, nu, max(ctx.nu1.rows, ctx.nu2.rows, 1))
        for ctx in acceptance_contexts(5)
        for lam, nu in ((ctx.lambda1, ctx.nu1), (ctx.lambda2, ctx.nu2))
    }
    members = tableaux = 0
    for lam, nu, n in sides:
        for mu in partitions_of(nu.size - lam.size):
            for t in cached_ssyt(SkewShape(mu), n + 1):
                verdict = lr_member_by_addition(t, lam, nu, n)
                assert _lr_member(t.reading(), lam, nu) == verdict, (lam, nu, n, t)
                assert lr_membership(t, lam, nu).member == verdict, (lam, nu, n, t)
                members += verdict
                tableaux += 1
    assert 0 < members < tableaux


def test_in_s_set_matches_the_content_checked_definition():
    # in_s_set dropped its content check as implied by the addition
    # condition.  Both definitions open with the same semistandard gate,
    # compared with its cellwise original in test_tableaux, so the
    # semistandard fillings are the ones that tell them apart.
    groups = defaultdict(list)
    for ctx in acceptance_contexts(4):
        groups[ctx.kappa1, max(ctx.nu1.rows, ctx.nu2.rows, 1) + 2].append(ctx)
    members = 0
    for (kappa1, max_entry), ctxs in groups.items():
        fillings = list(enumerate_ssyt(kappa1, max_entry))
        for ctx in ctxs:
            found = []
            for s in fillings:
                verdict = in_s_set(ctx, s)
                assert verdict == in_s_set_with_content_check(ctx, s), (ctx, s)
                if verdict:
                    found.append(s)
            # The pruned filler reaches the same members in the same order.
            assert tuple(found) == _lr_fillings(ctx.kappa1, ctx.lambda2, ctx.nu2), ctx
            members += len(found)
    assert members > 0


def test_in_w_set_matches_the_content_checked_definition():
    # in_w_set dropped its length and content checks as implied by the two
    # LR memberships.  Every array with a weakly increasing top, lexicographic
    # or not, is asked of every context; most have the wrong length or
    # content, and only the LR memberships refuse them now.
    arrays = [
        TwoRowedArray(Word(top), Word(bottom))
        for m in range(4)
        for top in combinations_with_replacement(range(1, 4), m)
        for bottom in product(range(1, 4), repeat=m)
    ]
    assert len(arrays) == 334
    cases = members = 0
    for ctx in acceptance_contexts(3, box=(3, 3), max_outer=5):
        for w in arrays:
            verdict = in_w_set(ctx, w)
            assert verdict == in_w_set_with_content_check(ctx, w), (ctx, w)
            members += verdict
            cases += 1
    assert (cases, members) == (320974, 913)


def test_stage_errors_are_value_errors():
    with pytest.raises(ValueError):
        s2_skewtab_to_array(HOOK_CTX, tab({(1, 2): 2, (2, 1): 2}))
    with pytest.raises(ValueError):
        s3_array_to_pair(HOOK_CTX, TwoRowedArray(Word((1, 1)), Word((1, 2))))
    with pytest.raises(ValueError):
        c2_array_to_skewtab(HOOK_CTX, TwoRowedArray(Word((1, 1)), Word((1, 2))))
    outside = CrystalPair(SkewTableau.straight(((1, 1),)), SkewTableau.straight(((1, 1),)))
    with pytest.raises(ValueError):
        c3_pair_to_array(HOOK_CTX, outside)
    with pytest.raises(ValueError, match="crystal product"):
        full_c(HOOK_CTX, outside)


def test_full_maps_on_hook_context():
    assert full_s(HOOK_CTX, IDENTITY).second.rows == ((1,), (2,))
    assert full_s(HOOK_CTX, SWAP).second.rows == ((1, 2),)
    for f in (IDENTITY, SWAP):
        assert full_c(HOOK_CTX, full_s(HOOK_CTX, f)) == f


def composed_s(ctx, f):
    return s3_array_to_pair(ctx, s2_skewtab_to_array(ctx, s1_picture_to_skewtab(ctx, f)))


def composed_c(ctx, pair):
    return c1_skewtab_to_picture(ctx, c2_array_to_skewtab(ctx, c3_pair_to_array(ctx, pair)))


def test_full_maps_equal_the_composed_stages():
    pictures = pairs = 0
    for ctx in acceptance_contexts(5):
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            assert full_s(ctx, f) == composed_s(ctx, f), (ctx, f)
            pictures += 1
        for pair in enumerate_crystal_pairs(ctx):
            assert full_c(ctx, pair) == composed_c(ctx, pair), (ctx, pair)
            pairs += 1
    assert pictures == pairs == 5162
    population = 0
    for ctx, f in roundtrip_population():
        pair = full_s(ctx, f)
        assert pair == composed_s(ctx, f), (ctx, f)
        assert full_c(ctx, pair) == composed_c(ctx, pair) == f, (ctx, f)
        population += 1
    assert population == 3044


# Counted functions, public and private, by the module that defines them.
COUNTED = {
    "validate_picture": "pictures",
    "validate_semistandard": "tableaux",
    "_semistandard_reading": "tableaux",
    "lr_membership": "crystal",
    "_lr_member": "crystal",
    "rsk_forward": "rsk",
    "_rsk_forward": "rsk",
    "reverse_column_insert": "rsk",
    "rsk_inverse": "rsk",
    "in_s_set": "correspondence",
    "in_w_set": "correspondence",
    "c1_skewtab_to_picture": "correspondence",
    "c2_array_to_skewtab": "correspondence",
    "c3_pair_to_array": "correspondence",
}


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of COUNTED through every binding in the lrpictures
    modules."""
    counts = Counter()
    originals = {
        name: getattr(importlib.import_module(f"lrpictures.{module}"), name)
        for name, module in COUNTED.items()
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, module in list(sys.modules.items()):
        if modname == "lrpictures" or modname.startswith("lrpictures."):
            for attr, value in list(vars(module).items()):
                for name, fn in originals.items():
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted(name, fn))
    return counts


def test_full_maps_check_once(calls):
    ctx = CorrespondenceContext(
        SkewShape(Partition((3, 2, 1)), Partition((1,))),
        SkewShape(Partition((4, 2)), Partition((1,))),
    )
    f = next(enumerate_pictures(ctx.kappa1, ctx.kappa2))
    calls.clear()
    assert full_c(ctx, full_s(ctx, f)) == f
    # full_s checks the picture and inserts its array unchecked; full_c
    # checks through c3, which reads each tableau once, checks that reading
    # semistandard and runs it through the LR kernel, then runs the RSK
    # inverse unchecked; validate_semistandard, which reads again, is not
    # called
    assert calls == Counter(
        validate_picture=1,
        _lr_member=2,
        _semistandard_reading=2,
        _rsk_forward=1,
        c3_pair_to_array=1,
    )


def test_roundtrip_suite_checks_each_set_once(calls):
    report = suite_roundtrip(max_cells=2)
    n = report.checked["pictures"]
    assert report.ok and n == report.checked["pairs"] > 0
    # no backward stage map: the inverses run on the kernels, and each
    # tableau is checked semistandard once and read once by the LR kernel
    # (the skew tableau in in_s_set, the pair in s3's W membership)
    assert calls == Counter(
        validate_picture=n,
        in_s_set=n,
        _rsk_forward=n,
        _lr_member=3 * n,
        _semistandard_reading=3 * n,
    )


def test_stage_round_trips_small_family():
    for ctx in small_contexts():
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            s = s1_picture_to_skewtab(ctx, f)
            assert c1_skewtab_to_picture(ctx, s) == f
            w = s2_skewtab_to_array(ctx, s)
            assert c2_array_to_skewtab(ctx, w) == s
            pair = s3_array_to_pair(ctx, w)
            assert c3_pair_to_array(ctx, pair) == w
        for pair in enumerate_crystal_pairs(ctx):
            w = c3_pair_to_array(ctx, pair)
            assert s3_array_to_pair(ctx, w) == pair
            s = c2_array_to_skewtab(ctx, w)
            assert s2_skewtab_to_array(ctx, s) == w
            f = c1_skewtab_to_picture(ctx, s)
            assert s1_picture_to_skewtab(ctx, f) == s


def test_s2_output_is_always_lexicographic():
    for ctx in small_contexts():
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            w = s2_skewtab_to_array(ctx, s1_picture_to_skewtab(ctx, f))
            assert validate_lex_array(w)


def test_r_move_on_insertion_word_swaps_two_new_boxes():
    # one R step never changes the final tableau and permutes the new-box
    # sequence by exactly one adjacent transposition inside the window
    for length in range(3, 6):
        for letters in product(range(1, 4), repeat=length):
            b = Word(letters)
            for pos in range(1, length - 1):
                b2 = combinatorial_r(b, pos)
                if b2 == b:
                    continue
                t1, boxes1 = column_insert_sequence(letters)
                t2, boxes2 = column_insert_sequence(b2.letters)
                assert t1 == t2
                diff = [i for i in range(length) if boxes1[i] != boxes2[i]]
                assert len(diff) == 2
                i, j = diff
                assert j == i + 1 and pos - 1 <= i and j <= pos + 1
                assert boxes1[i] == boxes2[j] and boxes1[j] == boxes2[i]


@pytest.mark.parametrize(
    "lam, mu, nu, expected",
    [
        ((), (1,), (1,), 1),
        ((1,), (2,), (2, 1), 1),
        ((2, 1), (2, 1), (3, 2, 1), 2),
        ((1,), (1,), (3,), 0),
        ((2,), (2,), (2, 1), 0),
    ],
)
def test_lr_coefficient_values(lam, mu, nu, expected):
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    assert lr_coefficient(lam, mu, nu) == expected
    routes = lr_routes(lam, mu, nu)
    assert routes == {"crystal": expected, "skew_tableaux": expected}


def _conjugate(p):
    return Partition(tuple(sum(1 for x in p.parts if x > j) for j in range(p.part(1))))


def test_lr_coefficient_symmetries():
    # c(lam, mu; nu) = c(mu, lam; nu) = c(lam', mu'; nu'): each side fills a
    # different shape, so these compare fills that lr_routes does not
    triples = nonzero = 0
    for nu in partitions_in_box(10, 5, 5):
        for lam in subpartitions(nu):
            for mu in partitions_of(nu.size - lam.size):
                c = lr_coefficient(lam, mu, nu)
                assert c == lr_coefficient(mu, lam, nu), (lam, mu, nu)
                assert c == lr_coefficient(_conjugate(lam), _conjugate(mu), _conjugate(nu))
                triples += 1
                nonzero += c > 0
    assert (triples, nonzero) == (11482, 3418)


def test_lr_routes_agree_spot():
    routes = lr_routes(Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1)))
    assert routes == {"crystal": 2, "skew_tableaux": 2}


def test_empty_context_round_trip():
    empty = SkewShape(Partition(()))
    ctx = CorrespondenceContext(empty, empty)
    pics = list(enumerate_pictures(empty, empty))
    pairs = list(enumerate_crystal_pairs(ctx))
    assert len(pics) == 1 and len(pairs) == 1
    assert full_s(ctx, pics[0]) == pairs[0]
    assert full_c(ctx, pairs[0]) == pics[0]


def test_mismatched_picture_is_an_input_error():
    # a context whose shapes disagree in content admits no pictures at all,
    # so stage one can never be reached with a valid picture; feeding a
    # mismatched picture is a plain input error
    ctx = CorrespondenceContext(ROW2, SkewShape(Partition((1, 1))))
    with pytest.raises(ValueError):
        s1_picture_to_skewtab(ctx, IDENTITY)
    with pytest.raises(ValueError):
        full_s(ctx, IDENTITY)


def test_pair_json_round_trip():
    pair = CrystalPair(SkewTableau.straight(((1, 2),)), SkewTableau.straight(((1, 2),)))
    assert CrystalPair.from_json(pair.to_json()) == pair
