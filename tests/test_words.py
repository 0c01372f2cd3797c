import pytest

from lrpictures.words import Word


def test_word_validation():
    assert Word((1, 2, 3)).letters == (1, 2, 3)
    assert len(Word(())) == 0
    with pytest.raises(ValueError):
        Word((0, 1))


def test_json_round_trips():
    w = Word((2, 1))
    assert Word.from_json(w.to_json()) == w


@pytest.mark.parametrize(
    "obj",
    [[1.0], [True], ["1"]],
)
def test_from_json_accepts_integers_only(obj):
    with pytest.raises(ValueError):
        Word.from_json(obj)
