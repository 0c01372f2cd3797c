"""Seeded inputs, expected answers and output checks of the benchmark workloads.

A workload turns a seed into a stream of ops, cut into passes of
``pass_size`` ops; run.py runs each pass in a fresh child.  An op is a list
of argv steps for ``lrpictures.cli.cmd_run`` (see child.py); the program
sees nothing but these argv lists.  Inputs come only from
``random.Random(seed)`` and the library's deterministic enumerations, so
one seed always gives byte-identical ops.  The expected answer of an op is computed on demand,
after the timed phase, and is kept in ``answers`` where a test can overwrite
it to plant a wrong one.
"""

from __future__ import annotations

import json
import random
from itertools import product

from child import PREV
from lrpictures.pictures import Picture, enumerate_pictures, validate_picture
from lrpictures.shapes import (
    Cell,
    Partition,
    SkewShape,
    j_order_cells,
    partitions_in_box,
    partitions_of,
    subpartitions,
)


def dumps(obj) -> str:
    """The CLI's own JSON encoding."""
    return json.dumps(obj, separators=(",", ":"))


def family(cells: range, box: tuple[int, int], max_outer: int) -> dict[int, list[SkewShape]]:
    """Skew shapes nu/lam with nu in the box and |nu| <= max_outer, by size."""
    by_size: dict[int, list[SkewShape]] = {k: [] for k in cells}
    for nu in partitions_in_box(max_outer, *box):
        for lam in subpartitions(nu):
            k = nu.size - lam.size
            if k in by_size:
                by_size[k].append(SkewShape(nu, lam))
    return by_size


class Workload:
    """Ops for one seed, the input key of each op, and its expected answer."""

    name = ""
    env: dict[str, str] = {}
    # Ops in one pass: about five seconds of work at the parent commit, and
    # at least 100, so that at least ten latency samples lie beyond p90.
    PASS_SIZE = 0

    def __init__(self, seed: int, pass_size: int | None = None) -> None:
        self.rng = random.Random(seed)
        self.pass_size = pass_size or self.PASS_SIZE
        self.ops: list[list[list[str]]] = []
        self.keys: list = []
        self.answers: dict[int, object] = {}

    def pass_ops(self, p: int) -> range:
        """Indices of pass p's ops, drawing the passes up to p if they are new."""
        while len(self.keys) < (p + 1) * self.pass_size:
            self.add_pass()
        return range(p * self.pass_size, (p + 1) * self.pass_size)

    def add_pass(self) -> None:
        """Append the next pass_size keys and ops."""
        raise NotImplementedError

    def solve(self, key):
        raise NotImplementedError

    def verify(self, answer, out: str) -> bool:
        raise NotImplementedError

    def answer(self, i: int):
        if i not in self.answers:
            self.answers[i] = self.solve(self.keys[i])
        return self.answers[i]

    def check(self, i: int, code: int | None, out: str) -> bool:
        """Did op i exit 0 with the right stdout?"""
        return code == 0 and self.verify(self.answer(i), out)

    def distinct_mu_n(self, ops: range) -> int:
        """Distinct lr-coeff enumeration keys among the given ops."""
        return 0


class Roundtrip(Workload):
    """to-pair then to-picture on pictures of 5-7-cell contexts; the second
    stdout must reproduce the picture's JSON byte for byte.

    The population is every picture between equal-sized shapes of 5-7 cells
    of the family with nu in the 4x4 box and |nu| <= 8 (3,044 pictures).  Ops
    walk seeded permutations of it, one after another, so no op repeats until
    the whole population has been used.
    """

    name = "roundtrip"
    PASS_SIZE = 1000

    def __init__(self, seed: int, pass_size: int | None = None) -> None:
        super().__init__(seed, pass_size)
        self.population = []
        for shapes in family(range(5, 8), (4, 4), 8).values():
            for kappa1, kappa2 in product(shapes, repeat=2):
                k1, k2 = dumps(kappa1.to_json()), dumps(kappa2.to_json())
                for f in enumerate_pictures(kappa1, kappa2):
                    self.population.append((k1, k2, dumps(f.to_json())))
        self.queue: list[tuple[str, str, str]] = []

    def add_pass(self) -> None:
        while len(self.queue) < self.pass_size:
            order = self.population[:]
            self.rng.shuffle(order)
            self.queue.extend(order)
        new, self.queue = self.queue[:self.pass_size], self.queue[self.pass_size:]
        self.keys.extend(new)
        for k1, k2, picture in new:
            self.ops.append([
                ["to-pair", "--picture", picture],
                ["to-picture", "--kappa1", k1, "--kappa2", k2, "--pair", PREV],
            ])

    def solve(self, key):
        return key[2] + "\n"

    def verify(self, answer, out: str) -> bool:
        return out == answer


def _ssyt_count(mu: Partition, max_entry: int) -> int:
    """Semistandard tableaux of shape mu with entries <= max_entry (hook-content formula)."""
    num = den = 1
    for i, length in enumerate(mu.parts):
        for j in range(length):
            below = sum(1 for p in mu.parts[i + 1:] if p > j)
            num *= max_entry + j - i
            den *= (length - j - 1) + below + 1
    return num // den


class LrCoeff(Workload):
    """lr-coeff (no cross-check) on distinct triples, checked against the
    pictures route.

    The population is every (lam, mu, nu) with nu in the 4x4 box, |nu| <= 10,
    lam inside nu, 4 <= |mu| <= 7 and mu of at most 4 rows: 2,641 triples.
    The cost of one op follows the number of shape-mu tableaux the crystal
    route enumerates, which spans three orders of magnitude.  So the draw is
    stratified: triples sorted by that number are cut into pass_size strata,
    each in a seeded order, and pass p takes the p-th triple of every
    stratum, in a seeded order.  Every pass then runs about the same mix of
    cheap and expensive triples, and no triple repeats before its stratum
    has run out (20 passes).  Triples sharing (mu, n) share the cached_ssyt entry, as in a sweep.
    """

    name = "lr_coeff"
    PASS_SIZE = 130

    @staticmethod
    def population() -> list[tuple[Partition, Partition, Partition]]:
        out = []
        for nu in partitions_in_box(10, 4, 4):
            for lam in subpartitions(nu):
                k = nu.size - lam.size
                if 4 <= k <= 7:
                    out.extend((lam, mu, nu) for mu in partitions_of(k) if mu.rows <= 4)
        return out

    @staticmethod
    def rank(lam: Partition, mu: Partition, nu: Partition) -> int:
        """The n of lr_coefficient's crystal route."""
        return max(nu.rows, mu.rows + lam.rows, 1)

    def __init__(self, seed: int, pass_size: int | None = None) -> None:
        super().__init__(seed, pass_size)
        triples = self.population()
        triples.sort(key=lambda t: _ssyt_count(t[1], self.rank(*t) + 1))
        count = self.pass_size
        self.strata = [triples[s * len(triples) // count:(s + 1) * len(triples) // count]
                       for s in range(count)]
        for stratum in self.strata:
            self.rng.shuffle(stratum)

    def add_pass(self) -> None:
        p = len(self.keys) // self.pass_size
        new = [stratum[p % len(stratum)] for stratum in self.strata]
        self.rng.shuffle(new)
        self.keys.extend(new)
        for lam, mu, nu in new:
            self.ops.append([[
                "lr-coeff",
                "--lambda", dumps(list(lam.parts)),
                "--mu", dumps(list(mu.parts)),
                "--nu", dumps(list(nu.parts)),
            ]])

    def solve(self, key):
        lam, mu, nu = key
        return sum(1 for _ in enumerate_pictures(SkewShape(mu), SkewShape(nu, lam)))

    def verify(self, answer, out: str) -> bool:
        return out == dumps({"coefficient": answer}) + "\n"

    def distinct_mu_n(self, ops: range) -> int:
        keys = [self.keys[i] for i in ops]
        return len({(mu, self.rank(lam, mu, nu)) for lam, mu, nu in keys})


# Straight pieces of 1-3 cells, by size, for the disconnected shapes.
PIECES = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}
PIECE_COUNT = 4


def stacked(pieces: list[tuple[int, ...]]) -> SkewShape:
    """The pieces placed along the antidiagonal, first piece top right.

    Consecutive pieces touch at most at a corner, so the shape has one
    connected component per piece.
    """
    outer: list[int] = []
    inner: list[int] = []
    offset = sum(p[0] for p in pieces)
    for piece in pieces:
        offset -= piece[0]
        outer.extend(offset + length for length in piece)
        inner.extend(offset for _ in piece)
    return SkewShape(Partition(tuple(outer)), Partition(tuple(x for x in inner if x)))


def connected(shape: SkewShape) -> bool:
    """Are the cells of the shape edge-connected?"""
    cells = set(shape.cell_set())
    if not cells:
        return True
    seen, todo = set(), [next(iter(cells))]
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.add(c)
        for d in cells:
            if abs(d.row - c.row) + abs(d.col - c.col) == 1:
                todo.append(d)
    return len(seen) == len(cells)


class Pictures(Workload):
    """pictures with the full listing, on pairs of 7-9-cell skew shapes.

    Ops cycle through 7, 8 and 9 cells, each once with two connected shapes
    (nu in the 4x4 box; the search prunes early and finds few pictures) and
    twice with two disconnected shapes of PIECE_COUNT straight pieces of 1-3
    cells (tens to hundreds of pictures).  Every connected op is faster than
    every disconnected one, so with half of each the median would fall in
    the gap between the two classes and jump across it from seed to seed;
    with a third connected it falls among the disconnected ops.  Each
    listed picture must pass validate_picture, the listing must have no
    repeats, and the inverses must be exactly the listing from kappa2 to
    kappa1.  Shapes of 9 cells need LRPK_MAX_CELLS=9.
    """

    name = "pictures"
    PASS_SIZE = 270
    env = {"LRPK_MAX_CELLS": "9"}
    MAX_CELLS = 9

    def __init__(self, seed: int, pass_size: int | None = None) -> None:
        super().__init__(seed, pass_size)
        shapes = family(range(7, 10), (4, 4), 16)
        self.joined = {k: [s for s in v if connected(s)] for k, v in shapes.items()}
        self.splits = {
            k: [c for c in product((1, 2, 3), repeat=PIECE_COUNT) if sum(c) == k]
            for k in self.joined
        }

    def add_pass(self) -> None:
        for i in range(len(self.keys), len(self.keys) + self.pass_size):
            k = 7 + (i // 3) % 3
            if i % 3 == 0:
                pair = (self.rng.choice(self.joined[k]), self.rng.choice(self.joined[k]))
            else:
                pair = tuple(
                    stacked([self.rng.choice(PIECES[s]) for s in self.rng.choice(self.splits[k])])
                    for _ in range(2)
                )
            self.keys.append(pair)
            self.ops.append([[
                "pictures",
                "--kappa1", dumps(pair[0].to_json()),
                "--kappa2", dumps(pair[1].to_json()),
            ]])

    def solve(self, key):
        """The shapes, the domain cells in J order, and the pictures from
        kappa2 to kappa1, each as a set of (cell, image) pairs."""
        kappa1, kappa2 = key
        cells = [(c.row, c.col) for c in j_order_cells(kappa2)]
        back = enumerate_pictures(kappa2, kappa1, max_cells=self.MAX_CELLS)
        inverses = {frozenset(zip(cells, ((c.row, c.col) for c in g.images))) for g in back}
        return kappa1, kappa2, j_order_cells(kappa1), inverses

    def verify(self, answer, out: str) -> bool:
        kappa1, kappa2, sources, inverses = answer
        doc = json.loads(out)
        listed = doc["pictures"]
        found = set()
        for obj in listed:
            if obj["domain"] != kappa1.to_json() or obj["codomain"] != kappa2.to_json():
                return False
            image = {tuple(src): Cell(*img) for src, img in obj["pairs"]}
            if len(image) != len(sources) or len(obj["pairs"]) != len(sources):
                return False
            f = Picture(kappa1, kappa2, tuple(image[(c.row, c.col)] for c in sources))
            if not validate_picture(f):
                return False
            found.add(frozenset((tuple(img), tuple(src)) for src, img in obj["pairs"]))
        return doc["count"] == len(listed) == len(found) and found == inverses


WORKLOADS = {w.name: w for w in (Roundtrip, LrCoeff, Pictures)}
