"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything is exact (zero tolerance); the only randomized family is the
column bumping one, which is fixed by seed.  Run with -s (or -v) to see the
per-criterion lines.
"""

import time

import pytest

from lrpictures import enumerate_pictures
from lrpictures.verify import (
    acceptance_contexts,
    check_cardinality_identity,
    check_highest_weight_equivalence,
    check_lr_triple_agreement,
    check_staircase_counts,
    check_tensor_decomposition,
    suite_bumping_lemma,
    suite_knuth_crystal,
    suite_roundtrip,
    suite_rsk_bijection,
)
from cellwise import enumerate_crystal_pairs

BUMPING_SEED = 0


def report_line(number, label, ok):
    print(f"ACCEPTANCE {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def roundtrip():
    start = time.monotonic()
    report = suite_roundtrip(max_cells=5)
    return report, time.monotonic() - start


def test_criterion_01_roundtrip_bijection(roundtrip):
    report, elapsed = roundtrip
    ok = report.ok and elapsed < 300
    report_line(1, "round-trip bijection", ok)
    assert report.ok, report.counterexample
    assert report.checked == {"contexts": 5739, "pictures": 5162, "transport": 5162, "pairs": 5162}
    assert elapsed < 300, f"round trips took {elapsed:.1f}s, target is five minutes"


def test_criterion_02_cardinality_identity():
    report = check_cardinality_identity(max_cells=5)
    report_line(2, "cardinality identity", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["contexts"] == 5739


def test_criterion_03_permutation_specialization():
    report = check_staircase_counts()
    report_line(3, "permutation specialization", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["staircases"] == 4


def test_criterion_04_rsk_bijectivity():
    report = suite_rsk_bijection()
    report_line(4, "RSK bijectivity", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["arrays[3;3]"] == report.checked["pairs[3;3]"] == 165
    assert report.checked["arrays[2;4]"] == report.checked["pairs[2;4]"] == 35


def test_criterion_05_column_bumping_lemma():
    report = suite_bumping_lemma(instances=10000, seed=BUMPING_SEED)
    report_line(5, "column bumping lemma", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["instances"] == 10000


def test_criterion_06_knuth_crystal_equivalence():
    report = suite_knuth_crystal()
    report_line(6, "Knuth/crystal equivalence", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["words"] == 364  # all words over {1,2,3} up to length 5
    assert report.checked["insertions"] == 420


def test_criterion_07_highest_weight_characterization():
    report = check_highest_weight_equivalence()
    report_line(7, "highest-weight characterization", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["memberships"] > 1000


def test_criterion_08_crystal_equivalence_transport(roundtrip):
    report, _ = roundtrip
    transported = report.checked.get("transport", 0)
    ok = report.ok and transported == report.checked["pictures"]
    report_line(8, "crystal-equivalence transport", ok)
    assert report.ok, report.counterexample
    assert transported == report.checked["pictures"]


def test_criterion_09_lr_triple_agreement():
    report = check_lr_triple_agreement()
    report_line(9, "LR coefficient triple agreement", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["coefficient_triples"] == 533
    assert report.checked["spot_values"] == 1


def test_criterion_10_decomposition_dimensions():
    report = check_tensor_decomposition()
    report_line(10, "tensor decomposition dimensions", report.ok)
    assert report.ok, report.counterexample
    assert report.checked["decompositions"] == 85


def test_acceptance_family_matches_specification():
    # the round-trip family: outer shapes of at most six cells in a 4x4 box,
    # any nested inner shape, both sides of equal size at most five
    contexts = list(acceptance_contexts(max_cells=5))
    assert len(contexts) == 5739
    sizes = {ctx.size for ctx in contexts}
    assert sizes == set(range(6))
    for ctx in contexts:
        assert ctx.kappa1.size == ctx.kappa2.size <= 5
        for kappa in (ctx.kappa1, ctx.kappa2):
            assert kappa.outer.size <= 6
            assert kappa.outer.rows <= 4
            assert kappa.outer.part(1) <= 4


def test_total_picture_count_is_stable():
    # frozen grand total over the family; a change means an algorithm moved
    total = sum(
        sum(1 for _ in enumerate_pictures(ctx.kappa1, ctx.kappa2))
        for ctx in acceptance_contexts(max_cells=5)
    )
    pair_total = sum(
        sum(1 for _ in enumerate_crystal_pairs(ctx))
        for ctx in acceptance_contexts(max_cells=5)
    )
    assert total == pair_total == 5162
