"""Library constructors and from_json refuse what the CLI refuses."""

import pytest

from lrpictures import (
    Cell,
    Composition,
    CorrespondenceContext,
    CrystalPair,
    Partition,
    Picture,
    SkewShape,
    SkewTableau,
    TensorWord,
    TwoRowedArray,
    Word,
)

BUILDERS = {
    "cell-row": lambda x: Cell(x, 2),
    "cell-col": lambda x: Cell(1, x),
    "partition": lambda x: Partition((3, x)),
    "composition": lambda x: Composition((x, 0)),
    "word": lambda x: Word((2, x)),
    "tensor-word-rank": lambda x: TensorWord(x, (1,)),
    "tensor-word-letter": lambda x: TensorWord(2, (1, x)),
    "tableau-straight": lambda x: SkewTableau.straight(((x, 2),)),
    "tableau": lambda x: SkewTableau(SkewShape(Partition((2,))), ((1, x),)),
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
    (TensorWord, "letters"),
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
