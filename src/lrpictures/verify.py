"""Exhaustive and randomized verification suites.

Each suite checks one family of structural identities at desk scale and
reports instance counts plus the first counterexample, if any.  All suites
are deterministic for a fixed seed.  The round-trip suite checks each stage's
set once per picture and runs the inverses on the kernels; it decides that
the images cover the crystal product by counting them, with no pair listed.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from operator import mul

from .cli import SUITE_NAMES
from .correspondence import (
    CorrespondenceContext,
    lr_coefficient,
    lr_routes,
    s1_picture_to_skewtab,
    s2_skewtab_to_array,
    s3_array_to_pair,
)
from .crystal import (
    _closure,
    apply_crystal_op,
    cached_ssyt,
    combinatorial_r,
    equiv_check,
    is_highest_weight,
    neighbours,
)
from .pictures import DEFAULT_PICTURE_CELLS, _lr_picture, _picture_readings, enumerate_pictures
from .rsk import (
    TwoRowedArray,
    _unrsk_rows,
    column_insert,
    column_insert_sequence,
    rsk_forward,
    rsk_inverse,
    validate_lex_array,
)
from .shapes import Partition, SkewShape, add_sequence, partitions_in_box, partitions_of, subpartitions
from .tableaux import SkewTableau, highest_tableau, me_reading, skew_word, validate_semistandard
from .words import Word

__all__ = ["SuiteReport", "SUITE_NAMES", "run_suite", "acceptance_contexts"]

# What a broken guarantee raises inside the library: a stage's input check
# refusing the previous stage's output, or a kernel indexing past a shape.
_BROKEN = (ValueError, LookupError)


class SuiteReport:
    """One suite's instance counts per key, and its first counterexample."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.ok = True
        self.checked: dict[str, int] = {}
        self.counterexample: dict | None = None

    def count(self, key: str, n: int = 1) -> None:
        self.checked[key] = self.checked.get(key, 0) + n

    def fail(self, **description) -> None:
        if self.ok:
            self.ok = False
            self.counterexample = description

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checked": dict(self.checked),
            "counterexample": self.counterexample,
        }


def _family_shapes(max_cells: int, box: tuple[int, int], max_outer: int):
    """Skew shapes nu/lam with nu in the box, |nu| <= max_outer, grouped by size."""
    by_size: dict[int, list[SkewShape]] = {k: [] for k in range(max_cells + 1)}
    for nu in partitions_in_box(max_outer, box[0], box[1]):
        for lam in subpartitions(nu):
            k = nu.size - lam.size
            if k <= max_cells:
                by_size[k].append(SkewShape(nu, lam))
    return by_size


def acceptance_contexts(
    max_cells: int = 5, box: tuple[int, int] = (4, 4), max_outer: int | None = None
):
    """Every ordered pair of equal-sized family shapes, as a context.

    max_outer defaults to max(6, max_cells + 1), so that every size up to
    max_cells has room for a non-empty inner shape.
    """
    if max_outer is None:
        max_outer = max(6, max_cells + 1)
    by_size = _family_shapes(max_cells, box, max_outer)
    for k in range(max_cells + 1):
        shapes = by_size[k]
        for kappa1 in shapes:
            for kappa2 in shapes:
                yield CorrespondenceContext(kappa1, kappa2)


def _lr_counts(counts: dict, kappa: SkewShape) -> list[int]:
    """|B(kappa; mu)| for each partition mu of kappa's size, in order, kept in
    counts under kappa; a mu with more rows than kappa's outer has none."""
    found = counts.get(kappa)
    if found is None:
        lam, nu = kappa.inner, kappa.outer
        found = counts[kappa] = [
            lr_coefficient(lam, mu, nu) if mu.rows <= nu.rows else 0
            for mu in partitions_of(kappa.size)
        ]
    return found


def _pair_count(counts: dict, ctx: CorrespondenceContext) -> int:
    """|B(kappa1) x B(kappa2)|: the pairs over each mu, summed."""
    return sum(map(mul, _lr_counts(counts, ctx.kappa1), _lr_counts(counts, ctx.kappa2)))


def suite_roundtrip(max_cells: int = 5) -> SuiteReport:
    """The staged bijection on the whole family, each set checked once.

    Per picture, s1, s2 and s3 check the picture, its skew tableau and its
    array against their sets (W membership includes both LR memberships).
    Both tableaux of the pair, which s3 takes from RSK unread, must be
    semistandard; the inverses run on the kernels and must recover each
    stage's input, and the skew tableau's reading must stay crystal
    equivalent to the insertion tableau's.  So the map sends the context's
    pictures, none listed twice, into the crystal product, and each image
    determines its picture; it is onto exactly when there are as many
    pictures as crystal pairs.
    """
    report = SuiteReport("roundtrip")
    counts: dict = {}  # each family shape's LR counts, counted once
    for ctx in acceptance_contexts(max_cells):
        report.count("contexts")
        readings = set()  # a reading fixes its picture
        # The listing runs c1's image map, so a fault there raises here.
        try:
            pictures = list(enumerate_pictures(ctx.kappa1, ctx.kappa2))
        except _BROKEN as exc:
            report.fail(context=ctx.to_json(), error=str(exc))
            return report
        for f in pictures:
            # Each stage's output is checked as the next stage's input, so a
            # fault here is a broken guarantee of the construction.
            try:
                s = s1_picture_to_skewtab(ctx, f)
                reading = s.reading()
                w = s2_skewtab_to_array(ctx, s)
                pair = s3_array_to_pair(ctx, w)
                inverted = (
                    validate_semistandard(pair.first)
                    and validate_semistandard(pair.second)
                    and _unrsk_rows(pair.second.rows, pair.first.rows)
                    == (w.top.letters, w.bottom.letters)
                    and SkewTableau.from_reading(ctx.kappa1, w.bottom.letters) == s
                    and _lr_picture(ctx.kappa1, ctx.kappa2, reading) == f
                )
            except _BROKEN as exc:
                report.fail(context=ctx.to_json(), picture=f.to_json(), error=str(exc))
                return report
            report.count("pictures")
            if not inverted or reading in readings:
                report.fail(context=ctx.to_json(), picture=f.to_json())
                return report
            readings.add(reading)
            report.count("transport")
            # s2 checked the skew tableau semistandard, and the test above the pair's.
            if not equiv_check(reading, pair.second.reading(), "crystal"):
                report.fail(context=ctx.to_json(), tableau=s.to_json())
                return report
        pairs = _pair_count(counts, ctx)
        report.count("pairs", pairs)
        if len(readings) != pairs:
            report.fail(context=ctx.to_json(), pictures=len(readings), crystal_pairs=pairs)
            return report
    return report


def check_cardinality_identity(max_cells: int = 5) -> SuiteReport:
    """Picture counts match the crystal-product counts on the whole family."""
    report = SuiteReport("cardinality-identity")
    counts: dict = {}  # as in suite_roundtrip
    for ctx in acceptance_contexts(max_cells):
        report.count("contexts")
        left = sum(1 for _ in _picture_readings(ctx.kappa1, ctx.kappa2))
        right = _pair_count(counts, ctx)
        if left != right:
            report.fail(context=ctx.to_json(), pictures=left, crystal_pairs=right)
            return report
    return report


def check_staircase_counts() -> SuiteReport:
    """Disconnected staircase differences carry exactly the permutations."""
    report = SuiteReport("staircase-counts")
    for n, target in {1: 1, 2: 2, 3: 6, 4: 24}.items():
        staircase = SkewShape(
            Partition(tuple(range(n, 0, -1))), Partition(tuple(range(n - 1, 0, -1)))
        )
        report.count("staircases")
        got = sum(1 for _ in _picture_readings(staircase, staircase))
        if got != target:
            report.fail(staircase=staircase.to_json(), pictures=got, expected=target)
            return report
    return report


def check_lr_triple_agreement() -> SuiteReport:
    """The two coefficient routes agree for every triple in the box family."""
    report = SuiteReport("lr-triple-agreement")
    for nu in partitions_in_box(6, 4, 4):
        for lam in subpartitions(nu):
            for mu in partitions_of(nu.size - lam.size):
                report.count("coefficient_triples")
                routes = lr_routes(lam, mu, nu)
                if len(set(routes.values())) != 1:
                    report.fail(
                        lam=lam.to_json(), mu=mu.to_json(), nu=nu.to_json(), routes=routes
                    )
                    return report
    spot = lr_routes(Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1)))
    report.count("spot_values")
    if spot["crystal"] != 2:
        report.fail(spot=spot)
    return report


def _merge(name: str, parts: list[SuiteReport]) -> SuiteReport:
    report = SuiteReport(name)
    for part in parts:
        for key, value in part.checked.items():
            report.count(key, value)
        if not part.ok:
            report.fail(**part.counterexample)
    return report


def _all_lex_arrays(n: int, m: int):
    """Every lexicographic array of length m with entries 1..n."""
    for top in combinations_with_replacement(range(1, n + 1), m):
        for bottom in product(range(1, n + 1), repeat=m):
            w = TwoRowedArray(Word(top), Word(bottom))
            if validate_lex_array(w):
                yield w


def suite_rsk_bijection() -> SuiteReport:
    """Forward then inverse is the identity, images are distinct, and every
    same-shaped pair of the right size is hit."""
    report = SuiteReport("rsk-bijection")
    for n, m in ((3, 3), (2, 4)):
        images = {}
        for w in _all_lex_arrays(n, m):
            report.count(f"arrays[{n};{m}]")
            p, q = rsk_forward(w)
            if rsk_inverse(p, q) != w:
                report.fail(array=w.to_json(), p=p.to_json(), q=q.to_json())
                return report
            if (p, q) in images:
                report.fail(array=w.to_json(), clash=images[(p, q)].to_json())
                return report
            images[(p, q)] = w
        all_pairs = set()
        for mu in partitions_of(m):
            tabs = cached_ssyt(SkewShape(mu), n)
            for p in tabs:
                for q in tabs:
                    all_pairs.add((p, q))
        report.count(f"pairs[{n};{m}]", len(all_pairs))
        if set(images) != all_pairs:
            missing = next(iter(all_pairs - set(images)))
            report.fail(missing_p=missing[0].to_json(), missing_q=missing[1].to_json())
            return report
    return report


def _random_tableau(rng: random.Random, max_ncells: int, max_entry: int) -> SkewTableau:
    letters = [rng.randint(1, max_entry) for _ in range(rng.randint(0, max_ncells))]
    return column_insert_sequence(letters)[0]


def suite_bumping_lemma(instances: int = 10000, seed: int = 0) -> SuiteReport:
    """Both directional clauses of the column bumping lemma on random input."""
    report = SuiteReport("bumping-lemma")
    rng = random.Random(seed)
    for _ in range(instances):
        t = _random_tableau(rng, 12, 5)
        x, x2 = rng.randint(1, 5), rng.randint(1, 5)
        first = column_insert(t, x)
        second = column_insert(first.tableau, x2)
        a, b = first.new_cell, second.new_cell
        if x < x2:
            ok = b.col <= a.col and b.row > a.row
        else:
            ok = a.col < b.col and a.row >= b.row
        report.count("instances")
        if not ok:
            report.fail(tableau=t.to_json(), x=x, x_prime=x2, first=a.to_json(), second=b.to_json())
            return report
    return report


def _words(alphabet: int, length: int):
    return product(range(1, alphabet + 1), repeat=length)


def _closure_classes(items, neighbours) -> dict:
    """Label each item with a class id under the symmetric closure of
    neighbours, numbering the classes in the order they first appear."""
    labels: dict = {}
    classes = 0
    for start in items:
        if start not in labels:
            labels.update(dict.fromkeys(_closure(start, neighbours), classes))
            classes += 1
    return labels


def suite_knuth_crystal() -> SuiteReport:
    """Knuth classes match crystal classes under reversal; R steps commute
    with the crystal operators; insertion realizes the plactic relation."""
    report = SuiteReport("knuth-crystal")
    for length in range(6):
        words = list(_words(3, length))
        knuth_labels = _closure_classes(words, neighbours("knuth"))
        crystal_labels = _closure_classes(words, neighbours("crystal"))
        pairing: dict[int, int] = {}
        for w in words:
            report.count("words")
            k, c = knuth_labels[w], crystal_labels[tuple(reversed(w))]
            if pairing.setdefault(k, c) != c:
                report.fail(word=list(w), knuth_class=k, crystal_class=c)
                return report
        if len(set(pairing.values())) != len(pairing):
            report.fail(length=length, reason="crystal classes collide across knuth classes")
            return report

    for length in range(3, 6):
        for letters in _words(3, length):
            b = Word(letters)
            for pos in range(1, length - 1):
                b2 = combinatorial_r(b, pos)
                if b2 == b:
                    continue
                report.count("r_windows")
                for k in (1, 2):
                    for direction in ("raise", "lower"):
                        x, y = (
                            apply_crystal_op(b, k, direction),
                            apply_crystal_op(b2, k, direction),
                        )
                        if (x is None) != (y is None):
                            report.fail(word=list(letters), pos=pos, k=k, direction=direction)
                            return report
                        if x is not None and not equiv_check(x, y, "crystal"):
                            report.fail(word=list(letters), pos=pos, k=k, direction=direction)
                            return report

    for size in range(6):
        for mu in partitions_of(size):
            for t in cached_ssyt(SkewShape(mu), 3):
                for x in range(1, 4):
                    report.count("insertions")
                    grown = column_insert(t, x).tableau
                    target = Word((x,) + skew_word(t).letters)
                    if not equiv_check(skew_word(grown), target, "knuth"):
                        report.fail(tableau=t.to_json(), x=x)
                        return report
    return report


def check_highest_weight_equivalence() -> SuiteReport:
    """The addition condition is exactly the tensor highest-weight condition."""
    report = SuiteReport("highest-weight-equivalence")
    lambdas = list(partitions_in_box(9, 3, 3))
    for n in (1, 2, 3):
        for size in range(5):
            for mu in partitions_of(size):
                for t in cached_ssyt(SkewShape(mu), n + 1):
                    reading = me_reading(t).letters
                    for lam in lambdas:
                        report.count("memberships")
                        valid = add_sequence(lam, reading) is not None
                        highest = is_highest_weight(
                            Word(me_reading(highest_tableau(lam)).letters + reading)
                        )
                        if valid != highest:
                            report.fail(
                                n=n, lam=lam.to_json(), tableau=t.to_json(), valid=valid
                            )
                            return report
    return report


def check_tensor_decomposition() -> SuiteReport:
    """Tensoring two crystals decomposes with matching cardinalities."""
    report = SuiteReport("tensor-decomposition")
    for n in (2, 3):
        small = [p for size in range(4) for p in partitions_of(size) if p.rows <= n]
        for lam in small:
            for mu in small:
                report.count("decompositions")
                lhs = len(cached_ssyt(SkewShape(lam), n + 1)) * len(
                    cached_ssyt(SkewShape(mu), n + 1)
                )
                rhs = 0
                for t in cached_ssyt(SkewShape(mu), n + 1):
                    added = add_sequence(lam, me_reading(t).letters)
                    if added is not None:
                        rhs += len(cached_ssyt(SkewShape(added), n + 1))
                if lhs != rhs:
                    report.fail(n=n, lam=lam.to_json(), mu=mu.to_json(), lhs=lhs, rhs=rhs)
                    return report
    return report


def run_suite(
    name: str,
    seed: int = 0,
    instances: int = 10000,
    max_cells: int = 5,
) -> list[SuiteReport]:
    """Run one named suite, or all of them, as one report per suite.

    The family suites list pictures, so a max_cells past the enumeration
    bound is refused before any work.
    """
    if name in ("roundtrip", "cardinality", "all") and max_cells > DEFAULT_PICTURE_CELLS:
        raise ValueError(
            f"max_cells {max_cells} exceeds the picture enumeration bound {DEFAULT_PICTURE_CELLS}"
        )
    # The checks of each suite, in order; their reports merge into the suite's.
    table = {
        "roundtrip": (lambda: suite_roundtrip(max_cells=max_cells),),
        "cardinality": (
            lambda: check_cardinality_identity(max_cells),
            check_staircase_counts,
            check_lr_triple_agreement,
        ),
        "rsk-bijection": (suite_rsk_bijection,),
        "bumping-lemma": (lambda: suite_bumping_lemma(instances=instances, seed=seed),),
        "knuth-crystal": (suite_knuth_crystal,),
        "lr-highest": (check_highest_weight_equivalence, check_tensor_decomposition),
    }
    if name != "all" and name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    names = SUITE_NAMES if name == "all" else (name,)
    return [_merge(n, [check() for check in table[n]]) for n in names]
