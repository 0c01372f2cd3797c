"""Random argv and JSON through cmd_run, and the table pass against the
whole parser."""

import argparse
import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrpictures import CorrespondenceContext, SkewShape, TwoRowedArray, enumerate_pictures, full_s
from lrpictures.words import Word
from lrpictures.cli import _PARSER, _parse, cmd_run
from lrpictures.rsk import rsk_forward
from lrpictures.verify import SUITE_NAMES
from conftest import letters, partitions, skew_shapes, words


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["outer", "inner", "rows", "top", "bottom", "p", "q", "first",
                         "second", "domain", "codomain", "pairs", "zzz"]),
        inner,
        max_size=4,
    ),
    max_leaves=10,
).map(dumps)

shapes = skew_shapes(max_rows=3, max_part=3)
HOOK = SkewShape.from_json({"outer": [2, 1], "inner": [1]})


@st.composite
def pictures(draw):
    shape = draw(skew_shapes(max_rows=2, max_part=2))
    return draw(st.sampled_from(list(enumerate_pictures(shape, shape))))


@st.composite
def lex_arrays(draw):
    pairs = sorted(draw(st.lists(st.tuples(letters, letters), max_size=5)),
                   key=lambda p: (p[0], -p[1]))
    return TwoRowedArray(Word(tuple(u for u, _ in pairs)), Word(tuple(v for _, v in pairs)))


def tableau_pair(w: TwoRowedArray) -> dict:
    p, q = rsk_forward(w)
    return {"p": p.to_json(), "q": q.to_json()}


def crystal_pair(f) -> dict:
    return full_s(CorrespondenceContext(f.domain, f.codomain), f).to_json()


def values(valid):
    """A JSON option value: mostly a well-formed document, else junk or '-'
    for stdin."""
    return st.sampled_from([valid.map(dumps)] * 3 + [junk, st.just("-")]).flatmap(lambda s: s)


SHAPE = values(shapes.map(lambda s: s.to_json()))
OPTIONS = {
    "pictures": {"--kappa1": SHAPE, "--kappa2": SHAPE | st.just("same"), "--count-only": None},
    "to-pair": {"--picture": values(pictures().map(lambda f: f.to_json()))},
    "to-picture": {
        "--kappa1": SHAPE,
        "--kappa2": SHAPE | st.just("same"),
        "--pair": values(pictures().map(crystal_pair)),
    },
    "lr-coeff": {
        "--lambda": values(partitions(3, 3).map(lambda p: p.to_json())),
        "--mu": values(partitions(3, 3).map(lambda p: p.to_json())),
        "--nu": values(partitions(3, 3).map(lambda p: p.to_json())),
        "--cross-check": None,
    },
    "rsk": {
        "--array": values(
            lex_arrays().map(lambda w: w.to_json())
            | st.builds(lambda t, b: {"top": list(t), "bottom": list(b)}, words, words)
        )
    },
    "unrsk": {"--pair": values(lex_arrays().map(tableau_pair))},
    "verify": {
        "--suite": st.sampled_from([*SUITE_NAMES, "all", "nope"]),
        "--seed": st.integers(-3, 9).map(str),
    },
}
# Tokens that break an argv in the ways users do: help, unknown options,
# prefixes, '--x=y', stray positionals, repeated and misplaced flags.  None
# of them abbreviates --instances or --max-cells, which a verify draw sets last.
NOISE = st.sampled_from(
    ["-h", "--zzz", "x", "1", "--lam", "--lambda=[1]", "--kappa1", "-", "--", "--count-only",
     "--seed=3", "--suite", "--cross-check", "lr-coeff", "--instances=x", "--max-cells=-1"]
) | st.text(max_size=4)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*OPTIONS, "bogus", "-h", "--zzz", "lr"]))
    argv = [command]
    options = OPTIONS.get(command, {})
    for name in draw(st.permutations(list(options))):
        if draw(st.integers(0, 5)) == 0:
            continue  # now and then a required option is missing
        argv.append(name)
        if options[name] is not None:
            argv.append(draw(options[name]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    if command == "verify":
        # small enough that the whole test runs in a few seconds
        argv += ["--instances", str(draw(st.integers(0, 20))),
                 "--max-cells", str(draw(st.integers(0, 2)))]
    return argv


def whole_parser(argv):
    """The whole parser's namespace for argv, or its exit code, with the help
    it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _PARSER.parse_args(argv), out.getvalue()
        except SystemExit as exc:
            return (int(exc.code) if exc.code else 0), out.getvalue()


LR = ["--lambda", "[1]", "--mu", "[1]", "--nu", "[2]"]
# Canonical argvs at the edges of the table pass, which must take them
CANONICAL_EDGES = [
    ["lr-coeff", "--lambda", "-", "--mu", "", "--nu", "[2]"],
    ["pictures", "--kappa2", "same", "--kappa1", '{"outer":[1]}'],
    ["verify", "--suite", "rsk-bijection", "--max-cells", "0", "--seed", "3"],
]
# and every other edge, which goes to the whole parser: help, usage errors
# and the parses that lean on argparse's rules
EDGE_ARGVS = CANONICAL_EDGES + [
    [],
    ["-h"],
    ["bogus"],
    ["lr-coeff", "-h"],
    ["lr-coeff", *LR, "-h"],
    ["lr-coeff", "--lambda", "[1]", "--nu", "[2]"],
    ["lr-coeff", *LR, "extra"],
    ["lr-coeff", *LR, "--zzz", "1"],
    ["lr-coeff", "--lam", "[1]", "--mu", "[1]", "--nu", "[2]"],
    ["lr-coeff", "--lambda=[1]", "--mu", "[1]", "--nu", "[2]"],
    ["lr-coeff", "--lambda", "[]", *LR],
    ["lr-coeff", "--lambda", "-[1]", "--mu", "[1]", "--nu", "[2]"],
    ["lr-coeff", "--lambda", "[1]", "--mu", "[1]", "--nu"],
    ["pictures", "--kappa1", "[1]", "--kappa2", "same", "--count-only", "x"],
    ["pictures", "--count-only", "--kappa1", "[1]", "--kappa2", "same", "--count-only"],
    ["lr-coeff", *LR, "--"],
    ["lr-coeff", "--", *LR],
    ["verify", "--suite", "rsk-bijection", "--seed", "-1"],
    ["verify", "--suite", "rsk-bijection", "--seed", "x"],
    ["verify", "--suite", "rsk-bijection", "--instances", "-1"],
    ["verify", "--suite", "rsk-bijection", "--instances", "x"],
    ["verify", "--suite", "rsk-bijection", "--max-cells", "-1"],
    ["--zzz", "lr-coeff", *LR],
]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), stdin_text=junk | SHAPE)
@example(argv=["rsk", "--array", '{"top":5,"bottom":[1]}'], stdin_text="")
def test_cmd_run_fuzz(argv, stdin_text):
    # the table pass parses exactly as the whole parser does
    fast = _parse(argv)
    whole, printed = whole_parser(argv)
    if fast is not None:
        assert fast == whole
    leaked, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(leaked), contextlib.redirect_stderr(err):
        code, out = cmd_run(argv, stdin_text)
    assert leaked.getvalue() == ""
    if not isinstance(whole, argparse.Namespace):
        # help, or a usage error with nothing on stdout
        assert (code, out) == (whole, printed)
        return
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out == ""
    if out:
        assert out.endswith("\n") and "\n" not in out[:-1]
        json.loads(out)


def test_edge_argvs_parse_as_the_whole_parser_does():
    # the table pass takes exactly the canonical edges, with argparse's
    # namespace; cmd_run answers every argv argparse exits on as it exits
    for argv in EDGE_ARGVS:
        fast = _parse(argv)
        whole, printed = whole_parser(argv)
        assert (fast is not None) == (argv in CANONICAL_EDGES), argv
        if fast is not None:
            assert fast == whole, argv
        if not isinstance(whole, argparse.Namespace):
            with contextlib.redirect_stderr(io.StringIO()):
                assert cmd_run(argv) == (whole, printed), argv


def test_help_comes_back_as_stdout(capsys):
    for argv in (["-h"], ["lr-coeff", "-h"], ["verify", "--suite", "all", "--help"]):
        code, out = cmd_run(argv)
        assert code == 0 and out.startswith("usage: lrpictures"), argv
        assert out == whole_parser(argv)[1]
    assert capsys.readouterr().out == ""


def test_well_formed_argvs_never_reach_argparse(monkeypatch):
    f = next(iter(enumerate_pictures(HOOK, HOOK)))
    w = TwoRowedArray(Word((1, 1, 2)), Word((2, 1, 1)))
    hook = dumps(HOOK.to_json())
    well_formed = [
        ["pictures", "--kappa1", hook, "--kappa2", "same", "--count-only"],
        ["to-pair", "--picture", dumps(f.to_json())],
        ["to-picture", "--kappa1", hook, "--kappa2", hook, "--pair", dumps(crystal_pair(f))],
        ["lr-coeff", "--lambda", "[2,1]", "--mu", "[2,1]", "--nu", "[3,2,1]", "--cross-check"],
        ["rsk", "--array", dumps(w.to_json())],
        ["unrsk", "--pair", dumps(tableau_pair(w))],
        ["verify", "--suite", "rsk-bijection", "--seed", "1", "--instances", "3",
         "--max-cells", "2"],
    ]
    assert {argv[0] for argv in well_formed} == set(OPTIONS)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed argv reached argparse")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in well_formed:
        code, out = cmd_run(argv)
        assert code == 0 and json.loads(out), argv
