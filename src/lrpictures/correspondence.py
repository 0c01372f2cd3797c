"""The staged bijection between pictures and pairs of Littlewood-Richardson
crystal elements, through skew tableaux and lexicographic arrays.

Each public stage map checks its input once, as the caller's value, and
raises ValueError when it lies outside the stage's set.  Outputs are not
re-checked: that each stage lands in the next stage's set is a theorem of
the construction, and ``verify --suite roundtrip`` sweeps it over the whole
acceptance family.  The composed maps check only at the boundary: full_s
checks the picture (s1's checks) and full_c the crystal pair (c3's test),
and both then run the remaining stages unchecked, each stage's computation
shared with its public map.  full_s builds no tableau for s1: the reading
of s1's tableau is the images' rows, and s2 takes it as it is.  full_c
reads each tableau of the pair once, for its semistandard and its LR test.
"""

from __future__ import annotations

from .crystal import _lr_count, _lr_member
from .pictures import Picture, _lr_picture, validate_picture
from .rsk import TwoRowedArray, _rsk_forward, _rsk_inverse, validate_lex_array
from .shapes import Partition, SkewShape, _interned_shape, _json_object, _value_type
from .tableaux import SkewTableau, _reading_rows, _semistandard_reading
from .words import Word

__all__ = [
    "CorrespondenceContext",
    "CrystalPair",
    "s1_picture_to_skewtab",
    "s2_skewtab_to_array",
    "s3_array_to_pair",
    "c3_pair_to_array",
    "c2_array_to_skewtab",
    "c1_skewtab_to_picture",
    "in_s_set",
    "in_w_set",
    "full_s",
    "full_c",
    "lr_routes",
    "lr_coefficient",
]

@_value_type
class CorrespondenceContext:
    """Fixes the two skew shapes; their inner and outer partitions are derived."""

    __slots__ = ("kappa1", "kappa2")

    def __init__(self, kappa1: SkewShape, kappa2: SkewShape) -> None:
        if kappa1.size != kappa2.size:
            raise ValueError(f"sizes differ: {kappa1.size} vs {kappa2.size}")
        object.__setattr__(self, "kappa1", kappa1)
        object.__setattr__(self, "kappa2", kappa2)

    @property
    def lambda1(self) -> Partition:
        return self.kappa1.inner

    @property
    def nu1(self) -> Partition:
        return self.kappa1.outer

    @property
    def lambda2(self) -> Partition:
        return self.kappa2.inner

    @property
    def nu2(self) -> Partition:
        return self.kappa2.outer

    @property
    def size(self) -> int:
        return self.kappa1.size

    def to_json(self) -> dict:
        return {"kappa1": self.kappa1.to_json(), "kappa2": self.kappa2.to_json()}


@_value_type
class CrystalPair:
    """Two same-shaped straight tableaux; the common shape plays the role of mu."""

    __slots__ = ("first", "second")

    def __init__(self, first: SkewTableau, second: SkewTableau) -> None:
        if not (first.shape.is_straight and second.shape.is_straight):
            raise ValueError("both tableaux must be straight")
        if first.shape != second.shape:
            raise ValueError("tableaux must share one shape")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def to_json(self) -> dict:
        return {"first": self.first.to_json(), "second": self.second.to_json()}

    @classmethod
    def from_json(cls, obj) -> "CrystalPair":
        obj = _json_object(obj, "first", "second")
        return cls(SkewTableau.from_json(obj["first"]), SkewTableau.from_json(obj["second"]))


def in_s_set(ctx: CorrespondenceContext, s: SkewTableau) -> bool:
    """Is s a Littlewood-Richardson skew tableau for this context?

    Requires shape kappa1 and a J-order reading that grows lambda2 into nu2
    through partitions; the latter forces entry i to occur exactly as often
    as the i-th row length of kappa2.
    """
    if s.shape != ctx.kappa1:
        raise ValueError("tableau shape differs from the context's first shape")
    reading = _semistandard_reading(s)
    return reading is not None and _lr_member(reading, ctx.lambda2, ctx.nu2)


def _in_product(ctx: CorrespondenceContext, pair: CrystalPair) -> bool:
    """Is each tableau of the pair in its Littlewood-Richardson crystal?  A
    tableau that is not semistandard is refused with ValueError, as
    lr_membership refuses it.  Each tableau is read once, for both tests."""
    for t, lam, nu in ((pair.second, ctx.lambda2, ctx.nu2), (pair.first, ctx.lambda1, ctx.nu1)):
        reading = _semistandard_reading(t)
        if reading is None:
            raise ValueError("tableau is not semistandard")
        if not _lr_member(reading, lam, nu):
            return False
    return True


def _s3(w: TwoRowedArray) -> CrystalPair:
    # Every caller's array is lexicographic: s2's by construction, s3's
    # input by _w_pair's check.  RSK output is two straight tableaux of one
    # shape, so the pair skips CrystalPair's checks.
    p, q = _rsk_forward(w)
    return CrystalPair._built(q, p)


def _w_pair(ctx: CorrespondenceContext, w: TwoRowedArray) -> CrystalPair | None:
    """s3's image of w when w is in the W set of this context, else None.
    The LR memberships of Q and P fix the top and bottom rows' contents to
    kappa1's and kappa2's rows, and so the length."""
    if not validate_lex_array(w):
        return None
    pair = _s3(w)
    return pair if _in_product(ctx, pair) else None


def in_w_set(ctx: CorrespondenceContext, w: TwoRowedArray) -> bool:
    """Is w a lexicographic array whose RSK tableaux both lie in their
    Littlewood-Richardson crystals of this context?"""
    return _w_pair(ctx, w) is not None


def _s1_reading(ctx: CorrespondenceContext, f: Picture) -> tuple[int, ...]:
    """The J-order reading of s1's tableau, after s1's checks: the row of
    each image, in the domain's J order."""
    if f.domain != ctx.kappa1 or f.codomain != ctx.kappa2:
        raise ValueError("picture does not match the context's shapes")
    if not validate_picture(f):
        raise ValueError("map is not a picture")
    return tuple(img.row for img in f.images)


def s1_picture_to_skewtab(ctx: CorrespondenceContext, f: Picture) -> SkewTableau:
    """Record the row coordinate of each image; the filling lands in the S set."""
    return SkewTableau._built(ctx.kappa1, _reading_rows(ctx.kappa1, _s1_reading(ctx, f)))


def _s2(ctx: CorrespondenceContext, reading: tuple[int, ...]) -> TwoRowedArray:
    # Both rows have one letter per cell of kappa1.
    return TwoRowedArray._built(Word._built(ctx.kappa1._j_rows), Word._built(reading))


def s2_skewtab_to_array(ctx: CorrespondenceContext, s: SkewTableau) -> TwoRowedArray:
    """Pair each reading letter with the row it was read from."""
    if not in_s_set(ctx, s):
        raise ValueError("tableau is not in the S set of this context")
    return _s2(ctx, s.reading())


def s3_array_to_pair(ctx: CorrespondenceContext, w: TwoRowedArray) -> CrystalPair:
    """Column-insert the bottom row; the recording tableau comes first."""
    pair = _w_pair(ctx, w)
    if pair is None:
        raise ValueError("array is not in the W set of this context")
    return pair


def c3_pair_to_array(ctx: CorrespondenceContext, pair: CrystalPair) -> TwoRowedArray:
    """Reverse-bump the second tableau using the first as recording tableau."""
    # CrystalPair makes both tableaux straight and same-shaped and the LR
    # memberships check them semistandard: all that rsk_inverse checks.
    if not _in_product(ctx, pair):
        raise ValueError("pair is not in the crystal product of this context")
    return _rsk_inverse(pair.second, pair.first)


def c2_array_to_skewtab(ctx: CorrespondenceContext, w: TwoRowedArray) -> SkewTableau:
    """Write the bottom row onto kappa1 along the J order."""
    if not in_w_set(ctx, w):
        raise ValueError("array is not in the W set of this context")
    return SkewTableau._built(ctx.kappa1, _reading_rows(ctx.kappa1, w.bottom.letters))


def c1_skewtab_to_picture(ctx: CorrespondenceContext, s: SkewTableau) -> Picture:
    """Send each cell to (entry, lambda2-offset + rank from the right among equal entries)."""
    if not in_s_set(ctx, s):
        raise ValueError("tableau is not in the S set of this context")
    return _lr_picture(ctx.kappa1, ctx.kappa2, s.reading())


def full_s(ctx: CorrespondenceContext, f: Picture) -> CrystalPair:
    """Picture to crystal pair: s3(s2(s1(f))), checking only the picture.
    s1's tableau is not built: its reading is the images' rows."""
    return _s3(_s2(ctx, _s1_reading(ctx, f)))


def full_c(ctx: CorrespondenceContext, pair: CrystalPair) -> Picture:
    """Crystal pair to picture, the inverse of full_s: c1(c2(c3(pair))),
    checking only the pair.  The J-order reading of c2's tableau is the
    array's bottom row."""
    return _lr_picture(ctx.kappa1, ctx.kappa2, c3_pair_to_array(ctx, pair).bottom.letters)


def lr_routes(lam: Partition, mu: Partition, nu: Partition) -> dict[str, int]:
    """The Littlewood-Richardson coefficient computed by two fills.

    'crystal' fills shape mu so that its reading carries lam to nu, and
    'skew_tableaux' fills nu/lam with content mu and a lattice reading (the
    LR rule).  The pictures from straight mu to nu/lam are s1's inverse over
    the crystal route's fill, so they count nothing new.  Each fill is a
    backtrack in a single frame, so mu may have any number of cells.
    """
    if lam.size + mu.size != nu.size or not nu.contains(lam):
        return {"crystal": 0, "skew_tableaux": 0}
    return {
        "crystal": _lr_count(_interned_shape(mu.parts, ()), lam, nu),
        "skew_tableaux": _lr_count(_interned_shape(nu.parts, lam.parts), Partition(), mu),
    }


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient of (lam, mu, nu), by the crystal
    route, counted without building a tableau; lr_routes compares it with
    the skew-tableau route.  mu may have any number of cells."""
    return _lr_count(_interned_shape(mu.parts, ()), lam, nu)
