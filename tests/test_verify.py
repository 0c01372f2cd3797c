import hashlib
import json
from bisect import bisect_right
from types import SimpleNamespace

import pytest

import lrpictures.pictures
import lrpictures.rsk
import lrpictures.verify
from lrpictures import Cell, Picture, SkewTableau, partitions_of
from lrpictures.cli import cmd_run
from lrpictures.correspondence import CrystalPair
from lrpictures.crystal import enumerate_lr_crystal
from lrpictures.verify import (
    SUITE_NAMES,
    SuiteReport,
    _lr_counts,
    _pair_count,
    acceptance_contexts,
    run_suite,
    suite_bumping_lemma,
    suite_roundtrip,
)
from cellwise import enumerate_crystal_pairs


def test_report_mechanics():
    report = SuiteReport("demo")
    report.count("things")
    report.count("things", 4)
    assert report.checked == {"things": 5}
    report.fail(where="here")
    report.fail(where="later")  # only the first counterexample is kept
    assert not report.ok and report.counterexample == {"where": "here"}
    doc = report.to_json()
    assert doc["suite"] == "demo" and doc["checked"] == {"things": 5}


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_run_all_covers_every_suite():
    # The stdout of `verify --suite all` is pinned byte for byte: a change
    # that alters it updates this digest.
    code, out = cmd_run(["verify", "--suite", "all"])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "ad8f96c018cbbac421c8ca4deb4ebb37"
    reports = json.loads(out)["payload"]["reports"]
    assert [r["suite"] for r in reports] == list(SUITE_NAMES)
    assert all(r["ok"] for r in reports)


def test_larger_family_digests_are_pinned():
    # The family suites past the default size, pinned as the 5-cell run is.
    for argv, digest in (
        (["--suite", "roundtrip", "--max-cells", "6"], "5629221c7a8aae4cfdf07fd85966d237"),
        (["--suite", "cardinality", "--max-cells", "7"], "e559f7974add617030d3378e13dffe15"),
    ):
        code, out = cmd_run(["verify", *argv])
        assert code == 0 and hashlib.md5(out.encode()).hexdigest() == digest, argv


def test_bumping_suite_is_seed_deterministic():
    a = suite_bumping_lemma(instances=300, seed=9)
    b = suite_bumping_lemma(instances=300, seed=9)
    assert a.ok and b.ok and a.checked == b.checked


def _plant_broken_s1(monkeypatch):
    # shifts every entry up by one, so the tableau leaves the S set and the
    # next stage's input check rejects it
    real = lrpictures.verify.s1_picture_to_skewtab

    def broken(ctx, f):
        s = real(ctx, f)
        return SkewTableau(s.shape, tuple(tuple(a + 1 for a in row) for row in s.rows))

    monkeypatch.setattr(lrpictures.verify, "s1_picture_to_skewtab", broken)


def test_roundtrip_reports_a_broken_stage_as_a_violation(monkeypatch):
    _plant_broken_s1(monkeypatch)
    report = suite_roundtrip(max_cells=2)
    assert not report.ok
    assert set(report.counterexample) == {"context", "picture", "error"}
    assert "S set" in report.counterexample["error"]


def test_broken_stage_exits_1_not_2(monkeypatch):
    _plant_broken_s1(monkeypatch)
    code, out = cmd_run(["verify", "--suite", "roundtrip", "--max-cells", "2"])
    assert code == 1 and '"status":"violation"' in out


# Each fault breaks one fact the round-trip suite checks, on the two-cell
# contexts only; each builder takes the real function and returns the broken one.
def _one_pair_fewer(real):
    def broken(counts, ctx):
        return real(counts, ctx) - (ctx.size == 2)

    return broken


def _one_pair_more(real):
    def broken(counts, ctx):
        return real(counts, ctx) + (ctx.size == 2)

    return broken


def _first_pair_always(real):
    # every image stays in the crystal product and the count still holds;
    # the left inverse is the first check to see it
    def broken(ctx, w):
        return next(enumerate_crystal_pairs(ctx)) if ctx.size == 2 else real(ctx, w)

    return broken


def _repeat_first_picture(real):
    def broken(kappa1, kappa2):
        found = list(real(kappa1, kappa2))
        return found[:1] + found if kappa1.size == 2 else found

    return broken


def _shift_one_image(real):
    def broken(kappa1, kappa2, reading):
        f = real(kappa1, kappa2, reading)
        if kappa1.size != 2:
            return f
        first, *rest = f.images
        return Picture(f.domain, f.codomain, (Cell(first.row, first.col + 1), *rest))

    return broken


def _shift_images_one_position(real):
    # every image one J position later in the codomain: on two cells the
    # image at the last position runs past the codomain, so the map raises
    def broken(kappa1, kappa2, reading):
        f = real(kappa1, kappa2, reading)
        if kappa1.size != 2:
            return f
        index, cells = kappa2._j_index, kappa2._j_order
        return Picture(kappa1, kappa2, tuple(cells[index[c.row, c.col] + 1] for c in f.images))

    return broken


def _raise_bottom_row(real):
    def broken(p_rows, q_rows):
        top, bottom = real(p_rows, q_rows)
        if len(top) != 2:
            return top, bottom
        return top, tuple(a + 1 for a in bottom)

    return broken


def _bump_below_equal_entries(real):
    # bumps the topmost entry greater than x, so equal letters stack in one
    # column: RSK's insertion tableau is not semistandard, though W's LR
    # memberships may still hold
    def broken(cols, x):
        j = 0
        while True:
            if j == len(cols):
                cols.append([])
            col = cols[j]
            i = bisect_right(col, x)
            if i == len(col):
                col.append(x)
                return (len(col), j + 1)
            col[i], x = x, col[i]
            j += 1

    return broken


def _raise_written_entries(real):
    def from_reading(shape, letters):
        if len(letters) == 2:
            letters = [a + 1 for a in letters]
        return real.from_reading(shape, letters)

    return SimpleNamespace(from_reading=from_reading)


# Each entry names the module attribute to break and the counterexample's
# keys besides the context; a listing that raises is reported with the
# error, and no picture.
COUNTS = ("pictures", "crystal_pairs")
PLANTED = {
    "pair-dropped": (lrpictures.verify, "_pair_count", _one_pair_fewer, COUNTS),
    "pair-twice": (lrpictures.verify, "_pair_count", _one_pair_more, COUNTS),
    "pair-constant": (lrpictures.verify, "s3_array_to_pair", _first_pair_always, ("picture",)),
    "picture-twice": (
        lrpictures.verify, "enumerate_pictures", _repeat_first_picture, ("picture",)
    ),
    "c1-kernel": (lrpictures.verify, "_lr_picture", _shift_one_image, ("picture",)),
    "c2-kernel": (lrpictures.verify, "SkewTableau", _raise_written_entries, ("picture",)),
    "c3-kernel": (lrpictures.verify, "_unrsk_rows", _raise_bottom_row, ("picture",)),
    "rsk-weak-column": (lrpictures.rsk, "_bump", _bump_below_equal_entries, ("picture",)),
    "image-map": (lrpictures.pictures, "_lr_picture", _shift_images_one_position, ("error",)),
}


@pytest.fixture(params=sorted(PLANTED))
def planted(request, monkeypatch):
    module, name, build, keys = PLANTED[request.param]
    monkeypatch.setattr(module, name, build(getattr(module, name)))
    return keys


def test_roundtrip_reports_a_planted_fault(planted):
    report = suite_roundtrip(max_cells=2)
    assert not report.ok
    assert set(report.counterexample) == {"context", *planted}
    kappa1 = report.counterexample["context"]["kappa1"]
    assert sum(kappa1["outer"]) - sum(kappa1["inner"]) == 2


def test_planted_fault_exits_1(planted):
    code, out = cmd_run(["verify", "--suite", "roundtrip", "--max-cells", "2"])
    assert code == 1 and '"status":"violation"' in out


# Each fault breaks one side of the cardinality identity on the two-cell
# contexts only.
@pytest.mark.parametrize(
    "name, build",
    [("_pair_count", _one_pair_fewer), ("_picture_readings", _repeat_first_picture)],
)
def test_cardinality_reports_a_planted_fault(monkeypatch, name, build):
    monkeypatch.setattr(lrpictures.verify, name, build(getattr(lrpictures.verify, name)))
    code, out = cmd_run(["verify", "--suite", "cardinality", "--max-cells", "2"])
    assert code == 1 and '"status":"violation"' in out
    (report,) = json.loads(out)["payload"]["reports"]
    assert set(report["counterexample"]) == {"context", "pictures", "crystal_pairs"}
    kappa1 = report["counterexample"]["context"]["kappa1"]
    assert sum(kappa1["outer"]) - sum(kappa1["inner"]) == 2


@pytest.mark.parametrize("max_cells, count", [(6, 14068), (7, 31212)])
def test_family_grows_with_max_cells(max_cells, count):
    # the outer-shape bound follows max_cells past six; at five and below
    # the family is unchanged (see test_acceptance_family_matches_specification)
    assert sum(1 for _ in acceptance_contexts(max_cells)) == count


def _pairs_mu_by_mu(ctx):
    """The crystal pairs of ctx with each side listed apart for each mu."""
    for mu in partitions_of(ctx.size):
        firsts = enumerate_lr_crystal(mu, ctx.lambda1, ctx.nu1)
        seconds = enumerate_lr_crystal(mu, ctx.lambda2, ctx.nu2)
        for t1 in firsts:
            for t2 in seconds:
                yield CrystalPair(t1, t2)


def test_crystal_pair_listing_of_the_family_is_pinned_mu_by_mu():
    # The listing the round-trip suite counts: each context's pairs equal a
    # listing mu by mu, order included, and number as the suite counts
    # them.  The digest pins the listing's order over the whole family.
    counts: dict = {}
    digest, pairs = hashlib.md5(), 0
    for ctx in acceptance_contexts(6):
        listed = list(enumerate_crystal_pairs(ctx))
        assert listed == list(_pairs_mu_by_mu(ctx)), ctx
        assert _pair_count(counts, ctx) == len(listed), ctx
        for pair in listed:
            digest.update(json.dumps(pair.to_json()).encode())
        digest.update(b"|")
        pairs += len(listed)
    assert pairs == 13594
    assert digest.hexdigest() == "012436bb87c72497a2ace713e3dcf0da"


def test_suite_lr_counts_equal_the_lr_crystal_listings():
    counts: dict = {}
    shapes = {ctx.kappa1 for ctx in acceptance_contexts(6)}
    for kappa in shapes:
        listed = [
            len(enumerate_lr_crystal(mu, kappa.inner, kappa.outer))
            for mu in partitions_of(kappa.size)
        ]
        assert _lr_counts(counts, kappa) == listed, kappa
    assert len(counts) == len(shapes) == 290
