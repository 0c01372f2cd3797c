"""Library constructors and from_json refuse what the CLI refuses."""

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
)
from lrpictures.rsk import column_insert, column_insert_sequence
from lrpictures.words import TensorWord, Word

BUILDERS = {
    "cell-row": lambda x: Cell(x, 2),
    "cell-col": lambda x: Cell(1, x),
    "partition": lambda x: Partition((3, x)),
    "word": lambda x: Word((2, x)),
    "tensor-word-rank": lambda x: TensorWord(x, (1,)),
    "tensor-word-letter": lambda x: TensorWord(2, (1, x)),
    "tableau-straight": lambda x: SkewTableau.straight(((x, 2),)),
    "tableau": lambda x: SkewTableau(SkewShape(Partition((2,))), ((1, x),)),
    "column-insert": lambda x: column_insert(SkewTableau.straight(((1,),)), x),
    "column-insert-sequence": lambda x: column_insert_sequence((2, x)),
}


@pytest.mark.parametrize("x", [1.0, 1.5, 2.9, True], ids=["1.0", "1.5", "2.9", "True"])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_constructors_refuse_non_integers(build, x):
    with pytest.raises(ValueError, match="expected an integer"):
        build(x)


def test_constructors_keep_integer_input():
    assert Cell(1, 2).row == 1
    assert Partition([2, 1]).parts == (2, 1)
    assert Word([2, 1]).letters == (2, 1)
    assert SkewTableau.straight(((1, 2),)).rows == ((1, 2),)


READERS = [
    (SkewShape, "outer"),
    (SkewTableau, "rows"),
    (TwoRowedArray, "top"),
    (CrystalPair, "first"),
    (Picture, "pairs"),
    (CorrespondenceContext, "kappa1"),
]


@pytest.mark.parametrize("obj", [[2, 1], "outer", 3, None])
@pytest.mark.parametrize("cls, key", READERS, ids=[c.__name__ for c, _ in READERS])
def test_from_json_names_the_keys_of_a_missing_object(cls, key, obj):
    with pytest.raises(ValueError, match=key):
        cls.from_json(obj)


SHAPE = {"outer": [2, 1], "inner": [1]}
TABLEAU = {"outer": [2], "inner": [], "rows": [[1, 2]]}
DOCUMENTS = [
    (SkewShape, SHAPE),
    (SkewTableau, TABLEAU),
    (TwoRowedArray, {"top": [1, 1], "bottom": [2, 1]}),
    (CrystalPair, {"first": TABLEAU, "second": TABLEAU}),
    (
        Picture,
        {"domain": SHAPE, "codomain": SHAPE, "pairs": [[[1, 2], [2, 1]], [[2, 1], [1, 2]]]},
    ),
    (CorrespondenceContext, {"kappa1": SHAPE, "kappa2": SHAPE}),
]


@pytest.mark.parametrize("cls, doc", DOCUMENTS, ids=[c.__name__ for c, _ in DOCUMENTS])
def test_from_json_refuses_an_extra_key(cls, doc):
    assert cls.from_json(doc).to_json() == doc
    with pytest.raises(ValueError, match="zzz"):
        cls.from_json({**doc, "zzz": 1})


# The documents that hold a nested object
@pytest.mark.parametrize("cls, doc", DOCUMENTS[3:], ids=[c.__name__ for c, _ in DOCUMENTS[3:]])
def test_from_json_refuses_an_extra_key_one_level_down(cls, doc):
    key, inner = next((k, v) for k, v in doc.items() if isinstance(v, dict))
    with pytest.raises(ValueError, match="zzz"):
        cls.from_json({**doc, key: {**inner, "zzz": 1}})


def test_skew_shape_inner_stays_optional():
    assert SkewShape.from_json({"outer": [2, 1]}) == SkewShape(Partition((2, 1)))
    assert SkewTableau.from_json({"outer": [2], "rows": [[1, 2]]}).shape.inner == Partition()
