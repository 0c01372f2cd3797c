"""The value-type contract of the ten JSON and result types: equality within
one class over the field tuple, the hash of that tuple, the repr, frozen
fields, copies and pickles, keyword construction and each constructor's
refusals."""

import copy
import pickle

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
)
from lrpictures.crystal import LrWitness
from lrpictures.words import Word


def _shape(outer, inner=()):
    return SkewShape(Partition(outer), Partition(inner))


_KAPPA = _shape((2, 1), (1,))
_STRAIGHT = _shape((2, 1))
_T = SkewTableau(shape=_STRAIGHT, rows=((1, 1), (2,)))
_U = SkewTableau(shape=_STRAIGHT, rows=((1, 2), (2,)))
_PICTURES = list(enumerate_pictures(_shape((2, 1)), _shape((2, 1))))

# class, keyword fields of one value, keyword fields of an unequal value, repr
CASES = [
    (Cell, {"row": 1, "col": 2}, {"row": 2, "col": 1}, "Cell(row=1, col=2)"),
    (Partition, {"parts": (2, 1)}, {"parts": (2,)}, "Partition(parts=(2, 1))"),
    (
        SkewShape,
        {"outer": Partition((2, 1)), "inner": Partition((1,))},
        {"outer": Partition((2, 1)), "inner": Partition(())},
        "SkewShape(outer=Partition(parts=(2, 1)), inner=Partition(parts=(1,)))",
    ),
    (
        SkewTableau,
        {"shape": _STRAIGHT, "rows": ((1, 1), (2,))},
        {"shape": _STRAIGHT, "rows": ((1, 2), (2,))},
        "SkewTableau(shape=SkewShape(outer=Partition(parts=(2, 1)), "
        "inner=Partition(parts=())), rows=((1, 1), (2,)))",
    ),
    (Word, {"letters": (1, 2)}, {"letters": (2, 1)}, "Word(letters=(1, 2))"),
    (
        TwoRowedArray,
        {"top": Word((1, 1)), "bottom": Word((1, 2))},
        {"top": Word((1, 2)), "bottom": Word((1, 2))},
        "TwoRowedArray(top=Word(letters=(1, 1)), bottom=Word(letters=(1, 2)))",
    ),
    (
        Picture,
        {"domain": _KAPPA, "codomain": _KAPPA, "images": (Cell(1, 2), Cell(2, 1))},
        {"domain": _KAPPA, "codomain": _KAPPA, "images": (Cell(2, 1), Cell(1, 2))},
        "Picture(domain=SkewShape(outer=Partition(parts=(2, 1)), inner=Partition(parts=(1,))), "
        "codomain=SkewShape(outer=Partition(parts=(2, 1)), inner=Partition(parts=(1,))), "
        "images=(Cell(row=1, col=2), Cell(row=2, col=1)))",
    ),
    (LrWitness, {"member": True}, {"member": False}, "LrWitness(member=True)"),
    (
        CorrespondenceContext,
        {"kappa1": _KAPPA, "kappa2": _shape((2,))},
        {"kappa1": _shape((2,)), "kappa2": _KAPPA},
        "CorrespondenceContext(kappa1=SkewShape(outer=Partition(parts=(2, 1)), "
        "inner=Partition(parts=(1,))), kappa2=SkewShape(outer=Partition(parts=(2,)), "
        "inner=Partition(parts=())))",
    ),
    (
        CrystalPair,
        {"first": _T, "second": _U},
        {"first": _U, "second": _T},
        f"CrystalPair(first={_T!r}, second={_U!r})",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_equality_hash_and_repr_read_the_field_tuple(cls, fields, other, text):
    x, y, z = cls(**fields), cls(*fields.values()), cls(**other)
    key = tuple(fields.values())
    assert x == y and not x != y and hash(x) == hash(y) == hash(key)
    assert x != z and not x == z and hash(z) == hash(tuple(other.values()))
    assert repr(x) == text
    assert tuple(getattr(x, name) for name in fields) == key
    # another class, or a plain tuple, with the same fields is not equal
    assert x != key and key != x
    for cls2, fields2, _, _ in CASES:
        if cls2 is not cls:
            assert x != cls2(**fields2)
    assert x.__eq__(key) is NotImplemented


def test_one_field_values_of_different_classes_differ():
    assert Partition((1,)) != Word((1,))
    assert hash(Partition((1,))) == hash(Word((1,))) == hash(((1,),))
    assert {LrWitness(True): 1}[LrWitness(True)] == 1


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, fields, other, text):
    x = cls(**fields)
    for name, value in other.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert tuple(getattr(x, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_values(cls, fields, other, text):
    x = cls(**fields)
    for twin in (
        copy.copy(x),
        copy.deepcopy(x),
        *(pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(twin) is cls and twin == x and hash(twin) == hash(x) and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(fields)), None)


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_built_values_equal_the_constructed_ones(cls, fields, other, text):
    # _built takes the fields in order and checks nothing
    x = cls._built(*fields.values())
    assert type(x) is cls and x == cls(**fields) and hash(x) == hash(cls(**fields))
    assert repr(x) == text
    with pytest.raises(AttributeError):
        setattr(x, next(iter(fields)), None)


def test_keyword_construction_keeps_defaults():
    assert Partition() == Partition(parts=()) == Partition((0, 0))
    assert Partition(parts=[2, 1, 0]).parts == (2, 1)
    assert Word() == Word(letters=()) and Word(letters=[3, 1]).letters == (3, 1)
    assert SkewShape(Partition((2,))) == SkewShape(outer=Partition((2,)), inner=Partition())
    assert SkewTableau(shape=_shape(())) == SkewTableau(_shape(()), ())
    assert SkewTableau(shape=_STRAIGHT, rows=[[1, 1], [2]]).rows == ((1, 1), (2,))
    f = _PICTURES[0]
    assert Picture(domain=f.domain, codomain=f.codomain, images=f.images) == f


def test_shape_tables_take_no_part_in_equality():
    built, fresh = SkewShape.from_json({"outer": [3, 2], "inner": [1]}), _shape((3, 2), (1,))
    tables = (built.size, built._j_order, built._j_index, built._j_rows, built._json_head,
              built._cell_texts, built._row_lengths, built._fill_bounds)
    assert tables[0] == 4
    assert built == fresh and hash(built) == hash(fresh) == hash((Partition((3, 2)), Partition((1,))))
    for twin in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert twin == built and twin._fill_bounds == built._fill_bounds


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Cell(0, 1), "cell coordinates are 1-based, got (0, 1)"),
        (lambda: Cell(1.0, 1), "expected an integer, got 1.0"),
        (lambda: Partition((1, -1)), "negative part in (1, -1)"),
        (lambda: Partition((1, 2)), "parts not weakly decreasing: (1, 2)"),
        (lambda: Partition("21"), "expected a list of integers, got '21'"),
        (lambda: _shape((1,), (2,)), "inner (2,) not contained in outer (1,)"),
        (lambda: SkewTableau(_STRAIGHT, "x"), "expected a list of rows, got 'x'"),
        (lambda: SkewTableau(_STRAIGHT, ((1, 1),)), "expected 2 rows, got 1"),
        (lambda: SkewTableau(_STRAIGHT, ((1,), (2,))), "row 1 has 1 entries, shape wants 2"),
        (lambda: SkewTableau(_STRAIGHT, ((0, 1), (2,))), "entries must be positive, got row (0, 1)"),
        (lambda: Word((1, 0)), "letters must be positive, got (1, 0)"),
        (lambda: TwoRowedArray(Word((1,)), Word(())), "rows have different lengths: 1 vs 0"),
        (lambda: Picture(_KAPPA, _KAPPA, ()), "0 images for a domain of 2 cells"),
        (lambda: CorrespondenceContext(_KAPPA, _STRAIGHT), "sizes differ: 2 vs 3"),
        (lambda: CrystalPair(SkewTableau(_KAPPA, ((1,), (1,))), _T), "both tableaux must be straight"),
        (lambda: CrystalPair(_T, SkewTableau.straight(((1, 1, 1),))), "tableaux must share one shape"),
    ],
)
def test_constructors_refuse_with_their_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
