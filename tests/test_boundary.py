"""Library constructors and from_json refuse what the CLI refuses."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    full_s,
)
from lrpictures.crystal import apply_crystal_op, combinatorial_r, epsilon
from lrpictures.rsk import column_insert, column_insert_sequence
from lrpictures.shapes import add_sequence
from lrpictures.verify import acceptance_contexts
from lrpictures.words import Word
from cellwise import (
    crystal_pair_from_json_by_constructor,
    picture_from_json_by_helpers,
    tableau_from_json_by_constructor,
)

BUILDERS = {
    "cell-row": lambda x: Cell(x, 2),
    "cell-col": lambda x: Cell(1, x),
    "partition": lambda x: Partition((3, x)),
    "word": lambda x: Word((2, x)),
    "tableau-straight": lambda x: SkewTableau.straight(((x, 2),)),
    "tableau": lambda x: SkewTableau(SkewShape(Partition((2,))), ((1, x),)),
    "column-insert": lambda x: column_insert(SkewTableau.straight(((1,),)), x),
    "column-insert-sequence": lambda x: column_insert_sequence((2, x)),
    "apply-crystal-op": lambda x: apply_crystal_op(Word((1, 1)), x, "lower"),
    "epsilon": lambda x: epsilon(Word((2, 1)), x),
    "combinatorial-r": lambda x: combinatorial_r(Word((2, 1, 3)), x),
    "add-sequence": lambda x: add_sequence(Partition((2, 1)), [x]),
}


# A non-integer is refused as one before any range test: 0.5 would fail a
# range test, 1.0 and True pass one, and "a" cannot be compared.
NON_INTEGERS = [1.0, 1.5, 2.9, True, "a", 0.5]


@pytest.mark.parametrize("x", NON_INTEGERS, ids=map(str, NON_INTEGERS))
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_constructors_refuse_non_integers(build, x):
    with pytest.raises(ValueError, match=f"^{re.escape(f'expected an integer, got {x!r}')}$"):
        build(x)


def test_constructors_keep_integer_input():
    assert Cell(1, 2).row == 1
    assert Partition([2, 1]).parts == (2, 1)
    assert Word([2, 1]).letters == (2, 1)
    assert SkewTableau.straight(((1, 2),)).rows == ((1, 2),)
    assert column_insert(SkewTableau.straight(((1,),)), 1).tableau.rows == ((1, 1),)
    assert column_insert_sequence((2, 1))[0].rows == ((1, 2),)
    assert apply_crystal_op(Word((1, 1)), 1, "lower") == Word((2, 1))
    assert epsilon(Word((2, 1)), 1) == 1
    assert combinatorial_r(Word((2, 1, 3)), 1) == Word((2, 3, 1))
    assert add_sequence(Partition((2, 1)), [1]) == Partition((3, 1))


READERS = [
    (SkewShape, "outer"),
    (SkewTableau, "rows"),
    (TwoRowedArray, "top"),
    (CrystalPair, "first"),
    (Picture, "pairs"),
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


# Every picture of the 3- and 4-cell acceptance contexts, and its crystal pair.
PICTURES = [
    f.to_json()
    for ctx in acceptance_contexts(4)
    if ctx.size >= 3
    for f in enumerate_pictures(ctx.kappa1, ctx.kappa2)
]
PAIRS = [
    full_s(CorrespondenceContext(f.domain, f.codomain), f).to_json()
    for f in map(Picture.from_json, PICTURES)
]


def node_paths(node, path=()):
    """The path of keys and indices to every node of a JSON document."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def replaced(node, path, new):
    """node with the node at path replaced by new; node is not changed."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: replaced(node[head], rest, new)}
    return [replaced(x, rest, new) if k == head else x for k, x in enumerate(node)]


def at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutations(draw, doc):
    """doc with one node changed: an int made a bool, a float, a string, 0,
    negative or larger (a cell outside its shape); a list shortened,
    lengthened, given a copy of one item over another (a duplicate source, a
    row of the wrong length) or made an object, a string or a tuple; an
    object given an extra key or stripped of one."""
    # Lists and ints are changed more often than objects, whose faults
    # mask the rest; the node is drawn by depth first, so the few lists
    # near the root (pairs, rows) are changed as often as the many below.
    kind = draw(st.sampled_from([int, int, list, list, list, dict]))
    paths = [p for p in node_paths(doc) if type(at(doc, p)) is kind] or [()]
    depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    node = at(doc, path)
    if type(node) is int:
        new = draw(st.sampled_from([True, False, float(node), str(node), 0, -node, node + 3]))
    elif type(node) is list:
        k = draw(st.integers(0, max(len(node) - 1, 0)))
        j = draw(st.integers(0, max(len(node) - 1, 0)))
        choices = [{"0": node}, str(node), tuple(node), node + [1], node + node[:1]]
        if node:
            choices += [node[:k] + node[k + 1:], replaced(node, (k,), node[j])]
        new = draw(st.sampled_from(choices))
    elif type(node) is dict:
        choices = [{**node, "zzz": 1}]
        choices += [{x: v for x, v in node.items() if x != key} for key in sorted(node)]
        new = draw(st.sampled_from(choices))
    else:
        new = [node]
    return replaced(doc, path, new)


@st.composite
def mutated(draw, docs):
    doc = draw(st.sampled_from(docs))
    for _ in range(draw(st.integers(0, 3))):
        doc = draw(mutations(doc))
    return doc


def outcome(read, doc):
    """read(doc), or the type and message of what it raised."""
    try:
        return read(doc)
    except Exception as exc:  # the two readers must fail alike, whatever the fault
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(mutated(PICTURES))
def test_picture_reader_refuses_as_its_first_form(doc):
    assert outcome(Picture.from_json, doc) == outcome(picture_from_json_by_helpers, doc)


@settings(max_examples=600, deadline=None)
@given(mutated(PAIRS))
def test_tableau_reader_refuses_as_its_first_form(doc):
    reference = crystal_pair_from_json_by_constructor
    assert outcome(CrystalPair.from_json, doc) == outcome(reference, doc)
    for key in ("first", "second"):
        if isinstance(doc, dict) and key in doc:
            tableau = doc[key]
            assert outcome(SkewTableau.from_json, tableau) == outcome(
                tableau_from_json_by_constructor, tableau
            )
