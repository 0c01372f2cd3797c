import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from itertools import combinations_with_replacement

from lrpictures import (
    SkewShape,
    TwoRowedArray,
    enumerate_pictures,
    full_s,
    partitions_in_box,
    partitions_of,
    rsk_forward,
    subpartitions,
)
from lrpictures.cli import (
    _ENCODE,
    _argument,
    _pair_text,
    _parsed_argument,
    _picture_text,
    cmd_run,
)
from lrpictures.correspondence import enumerate_crystal_pairs
from lrpictures.verify import acceptance_contexts
from lrpictures.words import Word
from conftest import roundtrip_population
from schemas import (
    CRYSTAL_PAIR_SCHEMA,
    OUTPUT_SCHEMAS,
    PICTURE_SCHEMA,
    TWO_ROWED_ARRAY_SCHEMA,
)

HOOK = '{"outer":[2,1],"inner":[1]}'


def run_ok(argv, stdin_text=None):
    code, out = cmd_run(argv, stdin_text)
    assert code == 0, (argv, code)
    return json.loads(out)


def test_lr_coeff_example():
    code, out = cmd_run(
        ["lr-coeff", "--lambda", "[2,1]", "--mu", "[2,1]", "--nu", "[3,2,1]", "--cross-check"]
    )
    assert code == 0
    assert out == '{"coefficient":2,"routes_agree":true}\n'
    jsonschema.validate(json.loads(out), OUTPUT_SCHEMAS["lr-coeff"])


def test_lr_coeff_without_cross_check():
    doc = run_ok(["lr-coeff", "--lambda", "[1]", "--mu", "[2]", "--nu", "[2,1]"])
    assert doc == {"coefficient": 1}


def test_lr_coeff_output_is_pinned():
    # Every triple with nu in the 4x4 box and |nu| <= 8, each run plain and
    # with --cross-check: the exit codes and stdout are pinned byte for
    # byte, as verify's are.  A change that alters them updates this digest.
    digest, calls = hashlib.md5(), 0
    for nu in partitions_in_box(8, 4, 4):
        for lam in subpartitions(nu):
            for mu in partitions_of(nu.size - lam.size):
                argv = ["lr-coeff"]
                for flag, p in (("--lambda", lam), ("--mu", mu), ("--nu", nu)):
                    argv += [flag, json.dumps(p.to_json(), separators=(",", ":"))]
                for flags in ([], ["--cross-check"]):
                    code, out = cmd_run(argv + flags)
                    digest.update(f"{code}{out}".encode())
                    calls += 1
    assert calls == 3972
    assert digest.hexdigest() == "0d9ab9c13e72b13edccfe8e3bf1cb3a4"


def test_pictures_count_only():
    code, out = cmd_run(
        ["pictures", "--kappa1", HOOK, "--kappa2", "same", "--count-only"]
    )
    assert code == 0 and json.loads(out) == {"count": 2}


def test_pictures_full_listing_validates():
    doc = run_ok(["pictures", "--kappa1", HOOK, "--kappa2", HOOK])
    jsonschema.validate(doc, OUTPUT_SCHEMAS["pictures"])
    assert doc["count"] == 2 and len(doc["pictures"]) == 2
    for p in doc["pictures"]:
        jsonschema.validate(p, PICTURE_SCHEMA)


def test_round_trip_byte_identical():
    listing = run_ok(["pictures", "--kappa1", HOOK, "--kappa2", HOOK])
    for picture in listing["pictures"]:
        picture_text = json.dumps(picture, separators=(",", ":"))
        code, pair_out = cmd_run(["to-pair", "--picture", "-"], stdin_text=picture_text)
        assert code == 0
        jsonschema.validate(json.loads(pair_out), CRYSTAL_PAIR_SCHEMA)
        code, back = cmd_run(
            ["to-picture", "--kappa1", HOOK, "--kappa2", HOOK, "--pair", "-"],
            stdin_text=pair_out,
        )
        assert code == 0
        assert json.loads(back) == picture
        assert back.strip() == picture_text


def test_round_trip_on_the_whole_five_to_seven_cell_family():
    # one process, so the shapes stay interned across the 3,044 pictures
    pictures = 0
    for ctx in acceptance_contexts(max_cells=7):
        if ctx.size < 5:
            continue
        k1 = json.dumps(ctx.kappa1.to_json(), separators=(",", ":"))
        k2 = json.dumps(ctx.kappa2.to_json(), separators=(",", ":"))
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            picture = json.dumps(f.to_json(), separators=(",", ":")) + "\n"
            code, pair = cmd_run(["to-pair", "--picture", picture])
            assert code == 0
            assert cmd_run(["to-picture", "--kappa1", k1, "--kappa2", k2, "--pair", pair]) == (
                0,
                picture,
            )
            pictures += 1
    assert pictures == 3044


def test_writers_equal_the_encoder():
    # to-pair and to-picture write from the texts each shape keeps; on every
    # picture and crystal pair of the contexts of at most six cells, and of
    # the 5-7-cell family, the text is the encoder's, byte for byte
    pictures = pairs = 0
    for ctx in acceptance_contexts(max_cells=6):
        for f in enumerate_pictures(ctx.kappa1, ctx.kappa2):
            assert _picture_text(f) == _ENCODE(f.to_json()), f
            pictures += 1
        for pair in enumerate_crystal_pairs(ctx):
            assert _pair_text(pair) == _ENCODE(pair.to_json()), pair
            pairs += 1
    assert pictures == pairs == 13594
    population = 0
    for ctx, f in roundtrip_population():
        pair = full_s(ctx, f)
        assert _picture_text(f) == _ENCODE(f.to_json()), f
        assert _pair_text(pair) == _ENCODE(pair.to_json()), pair
        population += 1
    assert population == 3044


def test_rsk_and_unrsk_write_what_the_encoder_writes():
    # every lexicographic array of up to six letters over 1..3
    alphabet = sorted(
        ((u, v) for u in range(1, 4) for v in range(1, 4)), key=lambda uv: (uv[0], -uv[1])
    )
    arrays = 0
    for m in range(7):
        for pairs in combinations_with_replacement(alphabet, m):
            w = TwoRowedArray(Word(tuple(u for u, _ in pairs)), Word(tuple(v for _, v in pairs)))
            p, q = rsk_forward(w)
            tableaux = _ENCODE({"p": p.to_json(), "q": q.to_json()}) + "\n"
            array = _ENCODE(w.to_json()) + "\n"
            assert cmd_run(["rsk", "--array", array]) == (0, tableaux)
            assert cmd_run(["unrsk", "--pair", tableaux]) == (0, array)
            arrays += 1
    assert arrays == 5005


def test_rsk_and_unrsk():
    doc = run_ok(["rsk", "--array", '{"top":[1,1],"bottom":[2,1]}'])
    jsonschema.validate(doc, OUTPUT_SCHEMAS["rsk"])
    assert doc["p"]["rows"] == [[1, 2]] and doc["q"]["rows"] == [[1, 1]]
    back = run_ok(["unrsk", "--pair", json.dumps(doc)])
    jsonschema.validate(back, TWO_ROWED_ARRAY_SCHEMA)
    assert back == {"top": [1, 1], "bottom": [2, 1]}


def test_verify_suite_ok():
    code, out = cmd_run(["verify", "--suite", "rsk-bijection"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, OUTPUT_SCHEMAS["verify"])
    assert doc["status"] == "ok"
    report = doc["payload"]["reports"][0]
    assert report["suite"] == "rsk-bijection" and report["ok"]
    assert report["checked"]["arrays[3;3]"] == 165
    assert report["counterexample"] is None


def test_verify_seeded_bumping():
    code, out = cmd_run(["verify", "--suite", "bumping-lemma", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["reports"][0]["checked"]["instances"] == 10000


def test_verify_unknown_suite_exits_2():
    code, out = cmd_run(["verify", "--suite", "nope"])
    assert code == 2 and out == ""


def test_bad_json_exits_2():
    code, out = cmd_run(["lr-coeff", "--lambda", "[2,", "--mu", "[1]", "--nu", "[3]"])
    assert code == 2 and out == ""


def test_deeply_nested_json_exits_2(capsys):
    # json.loads raises RecursionError here, not JSONDecodeError
    argv = ["lr-coeff", "--lambda", "-", "--mu", "[1]", "--nu", "[1]"]
    assert cmd_run(argv, stdin_text="[" * 5000) == (2, "")
    assert capsys.readouterr().err.startswith("error: malformed JSON input: ")


def test_bad_value_exits_2():
    code, out = cmd_run(["rsk", "--array", '{"top":[2,1],"bottom":[1,1]}'])
    assert code == 2 and out == ""


def test_usage_error_exits_2():
    code, _ = cmd_run(["no-such-command"])
    assert code == 2
    code, _ = cmd_run(["lr-coeff", "--lambda", "[1]"])
    assert code == 2


def test_failed_parse_leaves_the_parser_usable():
    argv = ["pictures", "--kappa1", HOOK, "--kappa2", "same", "--count-only"]
    alone = cmd_run(argv)
    code, out = cmd_run(["bogus"])
    assert code == 2 and out == ""
    assert cmd_run(argv) == alone == (0, '{"count":2}\n')


@pytest.mark.parametrize(
    "argv",
    [
        ["lr-coeff", "--lambda", "[2.9,1]", "--mu", "[2,1]", "--nu", "[3,2,1]"],
        ["lr-coeff", "--lambda", "[true]", "--mu", "[1]", "--nu", "[2]"],
        ["rsk", "--array", '{"top":[1,1.5],"bottom":[2,1]}'],
        ["pictures", "--kappa1", '{"outer":[2,1.0],"inner":[1]}', "--kappa2", "same"],
        [
            "to-pair",
            "--picture",
            '{"domain":%s,"codomain":%s,"pairs":[[[1,2],[1,2]],[[2,1],[2,1]],[[2,1],[2,1]]]}'
            % (HOOK, HOOK),
        ],
    ],
    ids=["float-part", "bool-part", "float-letter", "float-shape", "repeated-pair"],
)
def test_non_integer_or_repeated_input_exits_2(argv):
    assert cmd_run(argv) == (2, "")


def test_non_object_shape_names_its_keys(capsys):
    assert cmd_run(["pictures", "--kappa1", "[2,1]", "--kappa2", "same"]) == (2, "")
    assert "outer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shape, message",
    [
        ('{"outer":[2.0,1]}', "expected an integer, got 2.0"),
        ('{"outer":[true,1]}', "expected an integer, got True"),
        ("[true,1]", "expected an object with keys outer, inner; got [True, 1]"),
        ("[1,2]", "expected an object with keys outer, inner; got [1, 2]"),
        ('{"outer":[1,2]}', "parts not weakly decreasing: (1, 2)"),
        ('{"outer":[1,2],"inner":[1.5]}', "parts not weakly decreasing: (1, 2)"),
        ('{"outer":5}', "expected a list of integers, got 5"),
    ],
)
def test_refusals_survive_a_cached_equal_shape(shape, message, capsys):
    # [2,1] is interned first; values equal to it, or hashing like it, must
    # still be refused with their own message
    assert cmd_run(["pictures", "--kappa1", '{"outer":[2,1]}', "--kappa2", "same"])[0] == 0
    capsys.readouterr()
    assert cmd_run(["pictures", "--kappa1", shape, "--kappa2", "same", "--count-only"]) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


PICTURE = '{"domain":{"outer":[1]},"codomain":{"outer":[1]},"pairs":%s}'
TABLEAU = '{"outer":[1],"rows":%s}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rsk", "--array", '{"top":5,"bottom":[1]}'], "expected a list of integers, got 5"),
        (["rsk", "--array", '{"top":[1],"bottom":null}'], "expected a list of integers, got None"),
        (
            ["lr-coeff", "--lambda", "5", "--mu", "[1]", "--nu", "[1]"],
            "expected a list of integers, got 5",
        ),
        (
            ["pictures", "--kappa1", '{"outer":[1],"inner":3}', "--kappa2", "same"],
            "expected a list of integers, got 3",
        ),
        (
            ["unrsk", "--pair", '{"p":%s,"q":%s}' % (TABLEAU % "5", TABLEAU % "[[1]]")],
            "expected a list of rows, got 5",
        ),
        (
            ["unrsk", "--pair", '{"p":%s,"q":%s}' % (TABLEAU % "[5]", TABLEAU % "[[1]]")],
            "expected a list of integers, got 5",
        ),
        (["to-pair", "--picture", PICTURE % "[[[1,1],5]]"], "expected a [row, col] pair, got 5"),
        (
            ["to-pair", "--picture", PICTURE % "[[[1],[1,1]]]"],
            "expected a [row, col] pair, got [1]",
        ),
        (
            ["to-pair", "--picture", PICTURE % "[[[1,1],[1,1,1]]]"],
            "expected a [row, col] pair, got [1, 1, 1]",
        ),
        (
            ["to-pair", "--picture", PICTURE % "[[[1,1]]]"],
            "expected a [cell, image] pair, got [[1, 1]]",
        ),
        (["to-pair", "--picture", PICTURE % "5"], "expected a list of [cell, image] pairs, got 5"),
    ],
)
def test_malformed_lists_name_what_was_expected(argv, message, capsys):
    assert cmd_run(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


EMPTY_TABLEAU = '{"outer":[],"rows":{}}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lr-coeff", "--lambda", "{}", "--mu", "[1]", "--nu", "[1]"], "got {}"),
        (["lr-coeff", "--lambda", '""', "--mu", "[1]", "--nu", "[1]"], "got ''"),
        (["lr-coeff", "--lambda", '{"2":1}', "--mu", "[1]", "--nu", "[1]"], "got {'2': 1}"),
        (
            ["pictures", "--kappa1", '{"outer":{},"inner":""}', "--kappa2", "same"],
            "got {}",
        ),
        (["pictures", "--kappa1", '{"outer":"21"}', "--kappa2", "same"], "got '21'"),
        (["rsk", "--array", '{"top":{},"bottom":""}'], "got {}"),
        (
            ["unrsk", "--pair", '{"p":%s,"q":%s}' % (EMPTY_TABLEAU, EMPTY_TABLEAU)],
            "expected a list of rows, got {}",
        ),
        (
            ["unrsk", "--pair", '{"p":%s,"q":%s}' % (TABLEAU % '["a"]', TABLEAU % "[[1]]")],
            "got 'a'",
        ),
        (
            ["to-pair", "--picture", '{"domain":{"outer":{}},"codomain":{"outer":[]},"pairs":[]}'],
            "got {}",
        ),
    ],
    ids=[
        "object-lambda", "string-lambda", "keyed-lambda", "object-shape", "string-shape",
        "object-array", "object-rows", "string-row", "object-picture-shape",
    ],
)
def test_objects_and_strings_are_not_lists(argv, message, capsys):
    # a JSON object or string iterates, but is no list: each was once read
    # as its keys or characters, the empty ones as an empty list
    assert cmd_run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: expected a list of ") and err.endswith(f"{message}\n")


def test_unrsk_non_object_pair_names_its_keys(capsys):
    assert cmd_run(["unrsk", "--pair", "[1]"]) == (2, "")
    assert "keys p, q" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["unrsk", "--pair", '{"p":{"outer":[2]},"q":{"outer":[2],"rows":[[1,1]]}}'],
            "missing keys rows; expected an object with keys outer, inner, rows",
        ),
        (
            ["pictures", "--kappa1", '{"inner":[]}', "--kappa2", "same"],
            "missing keys outer; expected an object with keys outer, inner",
        ),
        (
            ["to-pair", "--picture", '{"domain":%s,"codomain":%s}' % (HOOK, HOOK)],
            "missing keys pairs; expected an object with keys domain, codomain, pairs",
        ),
    ],
    ids=["unrsk-rows", "pictures-outer", "to-pair-pairs"],
)
def test_missing_key_is_named(argv, message, capsys):
    assert cmd_run(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unrsk_refuses_an_extra_key():
    doc = run_ok(["rsk", "--array", '{"top":[1,1],"bottom":[2,1]}'])
    assert cmd_run(["unrsk", "--pair", json.dumps({**doc, "zzz": 1})]) == (2, "")


def test_negative_env_bound_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("LRPK_MAX_CELLS", "-1")
    assert cmd_run(["pictures", "--kappa1", HOOK, "--kappa2", "same"]) == (2, "")
    assert "LRPK_MAX_CELLS" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["9_0", " 9", "9 ", "+9", "\u0669"])
def test_env_bound_takes_ascii_digits_only(raw, monkeypatch, capsys):
    # int() reads each of these as 9 or 90; nine cells would then list
    nine = '{"outer":[5,4]}'
    monkeypatch.setenv("LRPK_MAX_CELLS", raw)
    assert cmd_run(["pictures", "--kappa1", nine, "--kappa2", "same", "--count-only"]) == (2, "")
    assert capsys.readouterr().err == f"error: LRPK_MAX_CELLS must be an integer, got {raw!r}\n"


def test_env_bound_past_the_int_digit_limit_exits_2(monkeypatch, capsys):
    raw = "1" * (sys.get_int_max_str_digits() + 1)
    monkeypatch.setenv("LRPK_MAX_CELLS", raw)
    assert cmd_run(["pictures", "--kappa1", HOOK, "--kappa2", "same"]) == (2, "")
    assert capsys.readouterr().err == f"error: LRPK_MAX_CELLS must be an integer, got {raw!r}\n"


def test_lr_coeff_past_twelve_cells():
    # The 13-cell shape is filled directly; swapped, both routes fill six
    # cells (mu, and nu/lam).
    small, big, nu = "[3,2,1]", "[5,4,3,1]", "[7,5,4,2,1]"
    assert run_ok(["lr-coeff", "--lambda", small, "--mu", big, "--nu", nu]) == {"coefficient": 8}
    swapped = run_ok(["lr-coeff", "--lambda", big, "--mu", small, "--nu", nu, "--cross-check"])
    assert swapped == {"coefficient": 8, "routes_agree": True}


def test_cross_check_ignores_the_env_bound(monkeypatch):
    # No route of lr-coeff reads LRPK_MAX_CELLS.
    argv = ["lr-coeff", "--lambda", "[1]", "--mu", "[7,6]", "--nu", "[8,6]", "--cross-check"]
    assert cmd_run(argv) == (0, '{"coefficient":1,"routes_agree":true}\n')
    monkeypatch.setenv("LRPK_MAX_CELLS", "0")
    assert cmd_run(argv) == (0, '{"coefficient":1,"routes_agree":true}\n')


def test_cross_check_on_ten_cells():
    argv = ["lr-coeff", "--lambda", "[4,3,2,1]", "--mu", "[4,3,2,1]", "--nu", "[7,5,4,3,1]",
            "--cross-check"]
    assert cmd_run(argv) == (0, '{"coefficient":12,"routes_agree":true}\n')


@pytest.mark.parametrize(
    "flags, out",
    [([], '{"coefficient":1}\n'), (["--cross-check"], '{"coefficient":1,"routes_agree":true}\n')],
    ids=["crystal", "cross-check"],
)
def test_lr_coeff_accepts_mu_past_the_recursion_limit(flags, out):
    # No route recurses once per cell, so a mu longer than the recursion
    # limit is counted by every route.
    argv = ["lr-coeff", "--lambda", "[]", "--mu", "[1200]", "--nu", "[1200]", *flags]
    assert cmd_run(argv) == (0, out)


def test_pictures_accepts_shapes_past_the_recursion_limit(monkeypatch):
    # The filler does not recurse, so LRPK_MAX_CELLS is the only cell bound.
    monkeypatch.setenv("LRPK_MAX_CELLS", "1200")
    argv = ["pictures", "--kappa1", '{"outer":[1200]}', "--kappa2", "same", "--count-only"]
    assert cmd_run(argv) == (0, '{"count":1}\n')


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite", "roundtrip", "--max-cells", "-1"], "--max-cells"),
        (["verify", "--suite", "bumping-lemma", "--instances", "-3"], "--instances"),
    ],
    ids=["max-cells", "instances"],
)
def test_negative_verify_size_exits_2(argv, flag, capsys):
    assert cmd_run(argv) == (2, "")
    err = capsys.readouterr().err
    assert f"argument {flag}: must not be negative, got -" in err


@pytest.mark.parametrize("flag", ["--seed", "--instances", "--max-cells"])
@pytest.mark.parametrize("raw", ["+2", "2_0", " 2", "2 ", "\u0662", "-", "", "0x2", "9" * 5000])
def test_verify_integers_are_ascii_digits(flag, raw, capsys):
    # int() reads each of these as a number; the options take ASCII digits only
    argv = ["verify", "--suite", "knuth-crystal", "--instances", "1", "--max-cells", "1", flag, raw]
    assert cmd_run(argv) == (2, "")
    assert f"argument {flag}: invalid int value: {raw!r}" in capsys.readouterr().err


def test_verify_seed_may_be_negative():
    argv = ["verify", "--suite", "knuth-crystal", "--instances", "3", "--max-cells", "2"]
    code, out = cmd_run([*argv, "--seed", "-3"])
    assert code == 0 and json.loads(out)["status"] == "ok"
    assert cmd_run([*argv, "--seed", "07"]) == cmd_run([*argv, "--seed", "7"])


def test_same_shape_from_stdin_is_read_once():
    argv = ["pictures", "--kappa1", "-", "--kappa2", "same", "--count-only"]
    assert cmd_run(argv, stdin_text='{"outer":[2,1]}') == (0, '{"count":1}\n')
    out = subprocess.run(
        [sys.executable, "-m", "lrpictures", *argv],
        input='{"outer":[2,1]}\n',
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout) == (0, '{"count":1}\n'), out.stderr


def test_every_dash_sees_one_stdin_document():
    argv = ["pictures", "--kappa1", "-", "--kappa2", "-", "--count-only"]
    assert cmd_run(argv, stdin_text='{"outer":[2,1]}') == (0, '{"count":1}\n')
    out = subprocess.run(
        [sys.executable, "-m", "lrpictures", *argv],
        input='{"outer":[2,1]}\n',
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout) == (0, '{"count":1}\n'), out.stderr


def test_stdin_is_not_read_without_a_dash(monkeypatch):
    class Unreadable:
        def read(self):
            raise AssertionError("stdin was read")

    monkeypatch.setattr(sys, "stdin", Unreadable())
    assert cmd_run(["lr-coeff", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]"]) == (
        0,
        '{"coefficient":1}\n',
    )


@pytest.mark.parametrize("suite", ["roundtrip", "cardinality", "all"])
def test_family_suites_refuse_more_cells_than_pictures_list(suite, capsys):
    start = time.monotonic()
    assert cmd_run(["verify", "--suite", suite, "--max-cells", "9"]) == (2, "")
    assert time.monotonic() - start < 1
    assert "enumeration bound 8" in capsys.readouterr().err


def test_max_cells_at_the_bound_still_parses():
    argv = ["verify", "--suite", "bumping-lemma", "--instances", "10", "--max-cells", "8"]
    assert cmd_run(argv) == cmd_run(argv[:-2])
    assert cmd_run(argv)[0] == 0


def test_determinism():
    argv = ["verify", "--suite", "bumping-lemma", "--seed", "3", "--instances", "500"]
    first = cmd_run(argv)
    second = cmd_run(argv)
    assert first == second
    argv = ["pictures", "--kappa1", HOOK, "--kappa2", HOOK]
    assert cmd_run(argv) == cmd_run(argv)


ARGUMENT_ARGVS = [
    ["lr-coeff", "--lambda", "[2,1]", "--mu", "[2,1]", "--nu", "[3,2,1]"],
    ["lr-coeff", "--lambda", "[2,1]", "--mu", "[2,1]", "--nu", "[3,2,1]", "--cross-check"],
    ["lr-coeff", "--lambda", "[1]", "--mu", "[2,1]", "--nu", "[2,1]"],
    ["pictures", "--kappa1", HOOK, "--kappa2", "same"],
    ["pictures", "--kappa1", '{"outer":[1,1]}', "--kappa2", HOOK, "--count-only"],
    ["to-picture", "--kappa1", '{"outer":[1]}', "--kappa2", '{"outer":[1]}',
     "--pair", '{"first":{"outer":[1],"rows":[[1]]},"second":{"outer":[1],"rows":[[1]]}}'],
]


def test_cached_arguments_give_the_same_stdout():
    _parsed_argument.cache_clear()
    first = [cmd_run(argv) for argv in ARGUMENT_ARGVS]
    assert all(code == 0 for code, _ in first)
    assert _parsed_argument.cache_info().currsize == 6
    assert [cmd_run(argv) for argv in ARGUMENT_ARGVS] == first
    _parsed_argument.cache_clear()
    assert [cmd_run(argv) for argv in ARGUMENT_ARGVS] == first


@pytest.mark.parametrize(
    "raw, message",
    [
        ("[2.0]", "error: expected an integer, got 2.0"),
        ("[true]", "error: expected an integer, got True"),
        ("[1,2]", "error: parts not weakly decreasing: (1, 2)"),
        ("[-1]", "error: negative part in (-1,)"),
        ("{}", "error: expected a list of integers, got {}"),
        ("[2", "error: malformed JSON input: Expecting ',' delimiter: line 1 column 3 (char 2)"),
    ],
)
def test_refused_arguments_are_not_cached(raw, message, capsys):
    # [2] is cached first; a text equal to it, or malformed, is still refused
    argv = ["lr-coeff", "--lambda", "[]", "--mu", "[2]", "--nu", "[2]"]
    assert cmd_run(argv) == (0, '{"coefficient":1}\n')
    capsys.readouterr()
    size = _parsed_argument.cache_info().currsize
    refused = argv[:4] + [raw] + argv[5:]
    for _ in range(2):
        assert cmd_run(refused) == (2, "")
        assert capsys.readouterr().err == message + "\n"
    assert _parsed_argument.cache_info().currsize == size


def test_dash_reads_stdin_on_every_call():
    argv = ["lr-coeff", "--lambda", "[1]", "--mu", "-", "--nu", "[2,1]"]
    assert cmd_run(argv, stdin_text="[2]") == (0, '{"coefficient":1}\n')
    assert cmd_run(argv, stdin_text="[1,1]") == (0, '{"coefficient":1}\n')
    assert cmd_run(argv, stdin_text="[3]") == (0, '{"coefficient":0}\n')
    argv = ["pictures", "--kappa1", "-", "--kappa2", "same", "--count-only"]
    assert cmd_run(argv, stdin_text='{"outer":[2,1]}') == (0, '{"count":1}\n')
    assert cmd_run(argv, stdin_text='{"outer":[1,1,1]}') == (0, '{"count":1}\n')
    assert cmd_run(argv, stdin_text='{"outer":[2,1],"inner":[1]}') == (0, '{"count":2}\n')


def test_argument_cache_stays_bounded():
    for k in range(1000):
        assert cmd_run(["lr-coeff", "--lambda", f"[{k}]", "--mu", "[]", "--nu", f"[{k}]"]) == (
            0,
            '{"coefficient":1}\n',
        )
    info = _parsed_argument.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_long_arguments_are_not_kept():
    # 300 distinct lambda = nu of 2,000 rows: each text runs past the
    # argument cache's length bound, so the cache keeps none of them.  With
    # the bound lifted they hold about 5 MB.
    def long(k):
        return "[" + ",".join(["2"] * k + ["1"] * (2000 - k)) + "]"

    argv = ["lr-coeff", "--lambda", long(0), "--mu", "[]", "--nu", long(0)]
    assert cmd_run(argv) == (0, '{"coefficient":1}\n')  # "[]" is cached from here on
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 301):
            lam = long(k)
            argv = ["lr-coeff", "--lambda", lam, "--mu", "[]", "--nu", lam]
            assert cmd_run(argv) == (0, '{"coefficient":1}\n')
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_long_shapes_are_not_kept(capsys):
    # 150 to-pair calls whose domain = codomain has a distinct 2,000-row
    # outer, each refused: no shape past the shape cache's row or cell
    # bound is kept.  With the bounds lifted they hold about 2.5 MB.
    def doc(k):
        shape = {"outer": [2] * k + [1] * (2000 - k)}
        return json.dumps({"domain": shape, "codomain": shape, "pairs": [[[1, 1], [1, 1]]]})

    docs = [doc(k) for k in range(1, 151)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for text in docs:
            assert cmd_run(["to-pair", "--picture", text]) == (2, "")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == "error: pairs do not cover exactly the domain cells\n" * 150
    assert held < 1 << 20


def test_lr_coeff_keeps_no_count():
    # 100 distinct mu = nu of one row of 600-699 cells: no count is kept,
    # nor the shape or fill table it was counted on.  A count cache keyed
    # by the shape holds about 2.5 MB of them.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(600, 700):
            argv = ["lr-coeff", "--lambda", "[]", "--mu", f"[{k}]", "--nu", f"[{k}]"]
            assert cmd_run(argv) == (0, '{"coefficient":1}\n')
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 18


@pytest.mark.parametrize(
    "outer, kept", [([64], True), ([65], False), ([1] * 32, True), ([1] * 33, False)]
)
def test_argument_cache_keeps_by_the_shape_keep_rule(outer, kept):
    raw = json.dumps({"outer": outer})
    a, b = (_argument(SkewShape, raw, None) for _ in range(2))
    assert a == b == SkewShape.from_json({"outer": outer})
    assert (a is b) == kept


def test_an_argument_keeps_no_shape_past_the_shape_cache():
    # The argument text stays in the argument cache while ~800 other kept
    # shapes push its shape out of the shape cache; then no copy of the
    # shape may be alive.  The shape lies outside every family the tests
    # build, so no other test's memo holds one.
    rows = [{"outer": [a], "inner": [b]} for a in range(1, 64) for b in range(a)]

    def churn(start):
        for shape in rows[start:start + 800]:
            SkewShape.from_json(shape)

    kappa = '{"outer":[7,3],"inner":[2]}'
    argv = ["pictures", "--kappa1", kappa, "--kappa2", "same", "--count-only"]
    churn(0)
    first = cmd_run(argv)
    assert first == (0, '{"count":3}\n')
    churn(800)
    gc.collect()
    key = (7, 3), (2,)
    live = [x for x in gc.get_objects() if type(x) is SkewShape and
            (x.outer.parts, x.inner.parts) == key]
    assert live == []
    assert cmd_run(argv) == first


def test_short_texts_of_large_shapes_are_not_kept():
    # 50 to-picture calls on distinct one-row shapes of 200-249 cells,
    # each written in a short text: the argument cache keeps no shape that
    # the shape cache refuses, so the J-order tables built on it are not
    # kept either.  Keeping them by the text holds about 2.8 MB.
    def argv(k):
        shape, rows = f'{{"outer":[{k}]}}', ",".join(["1"] * k)
        tableau = f'{{"outer":[{k}],"rows":[[{rows}]]}}'
        pair = f'{{"first":{tableau},"second":{tableau}}}'
        return ["to-picture", "--kappa1", shape, "--kappa2", "same", "--pair", pair]

    argvs = [argv(k) for k in range(200, 250)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in argvs:
            assert cmd_run(a)[0] == 0
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 18
    # an unkept shape reads the same on every call
    assert cmd_run(argvs[0]) == cmd_run(argvs[0])


def test_cmd_verify_reports_elapsed_internally(capsys):
    code, out = cmd_run(["verify", "--suite", "rsk-bijection"])
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "ok" and "elapsed_ms" not in out
    assert set(doc) == {"status", "payload"} and set(doc["payload"]) == {"reports"}
    assert re.fullmatch(r"elapsed_ms=\d+\n", capsys.readouterr().err)


def test_count_only_does_not_hold_the_pictures():
    # eight cells, no two comparable: all 8! bijections are pictures
    stair = '{"outer":[8,7,6,5,4,3,2,1],"inner":[7,6,5,4,3,2,1]}'
    tracemalloc.start()
    try:
        result = cmd_run(["pictures", "--kappa1", stair, "--kappa2", "same", "--count-only"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, '{"count":40320}\n')
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "domain, codomain, message",
    [
        ([100000], [1], "pairs do not cover exactly the domain cells"),
        ([1], [99999, 1], "sizes differ: 1 vs 100000"),
    ],
)
def test_to_pair_checks_sizes_before_building_tables(domain, codomain, message, capsys):
    pairs = [[[1, 1], [1, 1]]]
    doc = {"domain": {"outer": domain}, "codomain": {"outer": codomain}, "pairs": pairs}
    # The 100,000-cell shape is not kept, so its tables are seen in the
    # peak: they would take about 27 MB.
    tracemalloc.start()
    try:
        result = cmd_run(["to-pair", "--picture", json.dumps(doc)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 1 << 20


def test_env_bound_override(monkeypatch):
    big = '{"outer":[5,4],"inner":[]}'
    code, _ = cmd_run(["pictures", "--kappa1", big, "--kappa2", big, "--count-only"])
    assert code == 2  # nine cells exceed the default bound
    monkeypatch.setenv("LRPK_MAX_CELLS", "9")
    code, out = cmd_run(["pictures", "--kappa1", big, "--kappa2", big, "--count-only"])
    assert code == 0 and json.loads(out)["count"] >= 1
    monkeypatch.setenv("LRPK_MAX_CELLS", "junk")
    code, _ = cmd_run(["pictures", "--kappa1", big, "--kappa2", big, "--count-only"])
    assert code == 2


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "lrpictures", "lr-coeff", "--lambda", "[]", "--mu", "[1]", "--nu", "[1]"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"coefficient": 1}


def test_module_entry_point_writes_the_help_cmd_run_returns():
    for argv in (["-h"], ["pictures", "--help"]):
        out = subprocess.run(
            [sys.executable, "-m", "lrpictures", *argv], capture_output=True, text=True
        )
        assert (out.returncode, out.stdout) == cmd_run(argv)
        assert out.stdout.startswith("usage: lrpictures")


def test_the_command_line_starts_without_dataclasses_or_verify():
    # Only the verify command loads lrpictures.verify, and no module loads
    # dataclasses; a fresh interpreter shows what an import pulls in.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, {0}; print(sorted({{'dataclasses', 'lrpictures.verify'}} & sys.modules.keys()))"
    )
    for module, loaded in (("lrpictures.cli", "[]"), ("lrpictures.verify", "['lrpictures.verify']")):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(module)], env=env, capture_output=True, text=True
        )
        assert (out.returncode, out.stdout) == (0, loaded + "\n"), out.stderr
    out = subprocess.run(
        [sys.executable, "-m", "lrpictures", "verify", "--suite", "roundtrip", "--max-cells", "3"],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0 and json.loads(out.stdout)["status"] == "ok", out.stderr
