"""JSON-in/JSON-out command line front end.

Exit codes: 0 for success, 1 when a verification suite (or cross-check)
reports a violation, 2 for usage or input errors.  Stdout carries exactly
one JSON document, or the help text; diagnostics go to stderr.  For a fixed argv and seed the
stdout bytes are reproducible, so timing is reported on stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from functools import lru_cache

from .correspondence import (
    CorrespondenceContext,
    CrystalPair,
    full_c,
    full_s,
    lr_coefficient,
    lr_routes,
)
from .pictures import Picture, _picture_readings, enumerate_pictures
from .rsk import TwoRowedArray, rsk_forward, rsk_inverse
from .shapes import Partition, SkewShape, _interned_shape, _json_object
from .tableaux import SkewTableau

__all__ = ["cmd_run", "main"]

_ENV_BOUND = "LRPK_MAX_CELLS"
# Partition and shape argument texts kept per process, as for JSON shapes
# in shapes._interned_shape; a 130-op lr_coeff benchmark pass names ~59.
_ARGUMENT_CACHE_SIZE = 256
# Longer argument texts are parsed on every call and never kept, so the
# cache holds at most 256 texts of this many characters and their values.
_CACHED_ARGUMENT_CHARS = 512
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
# The suites of lrpictures.verify, in the order of --suite all.  They are
# named here so that the parser is built without importing verify, which
# only the verify command loads.
SUITE_NAMES = (
    "roundtrip",
    "cardinality",
    "rsk-bijection",
    "bumping-lemma",
    "knuth-crystal",
    "lr-highest",
)


def _read_json(raw: str, stdin):
    """Parse raw, or the stdin document when raw is '-'; stdin() returns it.
    A document nested past the recursion limit is malformed input."""
    text = stdin() if raw == "-" else raw
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


@lru_cache(maxsize=_ARGUMENT_CACHE_SIZE)
def _parsed_argument(kind: type[Partition] | type[SkewShape], raw: str):
    """kind.from_json of the JSON text raw, kept per process by the text;
    a shape is kept as its (outer, inner) parts, which _argument interns.
    Equal values written apart ("[2]", "[2.0]") are read apart, and a
    refused text, which raises, is never kept."""
    value = kind.from_json(_read_json(raw, None))
    return value if kind is Partition else (value.outer.parts, value.inner.parts)


def _argument(kind: type[Partition] | type[SkewShape], raw: str, stdin):
    """A partition or shape argument; '-' reads stdin, and both it and a text
    past _CACHED_ARGUMENT_CHARS characters bypass the cache."""
    if raw == "-" or len(raw) > _CACHED_ARGUMENT_CHARS:
        return kind.from_json(_read_json(raw, stdin))
    value = _parsed_argument(kind, raw)
    return value if kind is Partition else _interned_shape(*value)


def _tableau_text(t: SkewTableau) -> str:
    """_ENCODE(t.to_json()), written from the text its shape keeps."""
    rows = ",".join(["[" + ",".join(map(str, r)) + "]" for r in t.rows])
    return f'{t.shape._json_head},"rows":[{rows}]}}'


def _pair_text(pair: CrystalPair) -> str:
    """_ENCODE(pair.to_json()), written as _tableau_text writes."""
    return f'{{"first":{_tableau_text(pair.first)},"second":{_tableau_text(pair.second)}}}'


def _picture_text(f: Picture) -> str:
    """_ENCODE(f.to_json()), written from the texts its shapes keep; every
    image must be a codomain cell, as in every picture full_c returns."""
    index, images = f.codomain._j_index, f.codomain._cell_texts
    pairs = ",".join(
        [f"[{s},{images[index[c.row, c.col]]}]" for s, c in zip(f.domain._cell_texts, f.images)]
    )
    return (
        f'{{"domain":{f.domain._json_head}}},"codomain":{f.codomain._json_head}}},'
        f'"pairs":[{pairs}]}}'
    )


def _ascii_int(raw: str) -> int | None:
    """raw as an int when it is ASCII digits after an optional '-', else None;
    int() would also take '9_0', ' 9', '+9' and non-ASCII digits, and it
    refuses more digits than sys.get_int_max_str_digits()."""
    digits = raw[1:] if raw.startswith("-") else raw
    try:
        return int(raw) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def _bound_override() -> int | None:
    raw = os.environ.get(_ENV_BOUND)
    if raw is None:
        return None
    bound = _ascii_int(raw)
    if bound is None:
        raise ValueError(f"{_ENV_BOUND} must be an integer, got {raw!r}")
    if bound < 0:
        raise ValueError(f"{_ENV_BOUND} must not be negative, got {raw!r}")
    return bound


def _integer(raw: str) -> int:
    value = _ascii_int(raw)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    return value


def _non_negative(raw: str) -> int:
    value = _integer(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The whole parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="lrpictures",
        description="Pictures between skew diagrams and Littlewood-Richardson crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pictures", help="enumerate or count pictures between two skew shapes")
    p.add_argument("--kappa1", required=True, help='skew shape JSON, e.g. {"outer":[2,1],"inner":[1]}')
    p.add_argument("--kappa2", required=True, help="skew shape JSON, or 'same'")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("to-pair", help="map a picture to its crystal pair")
    p.add_argument("--picture", required=True, help="picture JSON, or - for stdin")

    p = sub.add_parser("to-picture", help="map a crystal pair back to a picture")
    p.add_argument("--kappa1", required=True)
    p.add_argument("--kappa2", required=True)
    p.add_argument("--pair", required=True, help="crystal pair JSON, or - for stdin")

    p = sub.add_parser("lr-coeff", help="Littlewood-Richardson coefficient")
    p.add_argument("--lambda", dest="lam", required=True, help="partition JSON, e.g. [2,1]")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cross-check", action="store_true", help="compare the two counting routes")

    p = sub.add_parser("rsk", help="column-insert a lexicographic two-rowed array")
    p.add_argument("--array", required=True, help="array JSON, or - for stdin")

    p = sub.add_parser("unrsk", help="invert rsk on a pair of same-shaped tableaux")
    p.add_argument("--pair", required=True, help='{"p":tableau,"q":tableau}, or - for stdin')

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help=f"one of {', '.join(SUITE_NAMES)} or all")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--instances", type=_non_negative, default=10000)
    p.add_argument("--max-cells", type=_non_negative, default=5)
    return parser, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _option_table(parser: argparse.ArgumentParser):
    """parser's option strings that name a one-value store or a store_true
    action, each with its action; its defaults; and its required actions.
    Help, and any other kind of action, is left to the whole parser."""
    options = {
        name: action
        for name, action in parser._option_string_actions.items()
        if type(action) is argparse._StoreTrueAction
        or (type(action) is argparse._StoreAction and action.nargs is None
            and action.choices is None)
    }
    defaults = {a.dest: a.default for a in parser._actions if a.default is not argparse.SUPPRESS}
    required = frozenset(a for a in parser._actions if a.required)
    return options, defaults, required


_TABLES = {name: _option_table(parser) for name, parser in _COMMANDS.items()}


def _read_shapes(args, stdin) -> tuple[SkewShape, SkewShape]:
    """--kappa1 and --kappa2, where kappa2 'same' reuses kappa1 as parsed."""
    kappa1 = _argument(SkewShape, args.kappa1, stdin)
    if args.kappa2 == "same":
        return kappa1, kappa1
    return kappa1, _argument(SkewShape, args.kappa2, stdin)


def _run_pictures(args, stdin):
    kappa1, kappa2 = _read_shapes(args, stdin)
    bound = _bound_override()
    if args.count_only:
        return {"count": sum(1 for _ in _picture_readings(kappa1, kappa2, bound))}, 0
    pictures = [f.to_json() for f in enumerate_pictures(kappa1, kappa2, bound)]
    return {"count": len(pictures), "pictures": pictures}, 0


def _run_to_pair(args, stdin):
    f = Picture.from_json(_read_json(args.picture, stdin))
    return _pair_text(full_s(CorrespondenceContext(f.domain, f.codomain), f)), 0


def _run_to_picture(args, stdin):
    ctx = CorrespondenceContext(*_read_shapes(args, stdin))
    pair = CrystalPair.from_json(_read_json(args.pair, stdin))
    return _picture_text(full_c(ctx, pair)), 0


def _run_lr_coeff(args, stdin):
    lam = _argument(Partition, args.lam, stdin)
    mu = _argument(Partition, args.mu, stdin)
    nu = _argument(Partition, args.nu, stdin)
    if not args.cross_check:
        return {"coefficient": lr_coefficient(lam, mu, nu)}, 0
    routes = lr_routes(lam, mu, nu)
    agree = len(set(routes.values())) == 1
    doc = {"coefficient": routes["crystal"], "routes_agree": agree}
    return doc, 0 if agree else 1


def _run_rsk(args, stdin):
    w = TwoRowedArray.from_json(_read_json(args.array, stdin))
    p, q = rsk_forward(w)
    return f'{{"p":{_tableau_text(p)},"q":{_tableau_text(q)}}}', 0


def _run_unrsk(args, stdin):
    obj = _json_object(_read_json(args.pair, stdin), "p", "q")
    p = SkewTableau.from_json(obj["p"])
    q = SkewTableau.from_json(obj["q"])
    return rsk_inverse(p, q).to_json(), 0


def _run_verify(args, stdin):
    from .verify import run_suite

    start = time.monotonic()
    reports = run_suite(
        args.suite, seed=args.seed, instances=args.instances, max_cells=args.max_cells
    )
    print(f"elapsed_ms={int((time.monotonic() - start) * 1000)}", file=sys.stderr)
    ok = all(r.ok for r in reports)
    doc = {
        "status": "ok" if ok else "violation",
        "payload": {"reports": [r.to_json() for r in reports]},
    }
    return doc, 0 if ok else 1


_HANDLERS = {
    "pictures": _run_pictures,
    "to-pair": _run_to_pair,
    "to-picture": _run_to_picture,
    "lr-coeff": _run_lr_coeff,
    "rsk": _run_rsk,
    "unrsk": _run_unrsk,
    "verify": _run_verify,
}


def _parse(argv: list[str]) -> argparse.Namespace | None:
    """argv's options by one pass over its command's option table, or None
    unless argv is canonical: a command, then its options each once, as
    exact '--name value' pairs and flags, with every required option given.
    A value is '-', '' or any string that does not start with '-'.  On a
    canonical argv the whole parser returns the same namespace."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required = table
    values, seen = dict(defaults), set()
    tokens = iter(argv[1:])
    for name in tokens:
        action = options.get(name)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        raw = next(tokens, None)
        if raw is None or (raw != "-" and raw.startswith("-")):
            return None
        try:
            values[action.dest] = raw if action.type is None else action.type(raw)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
    return argparse.Namespace(command=argv[0], **values) if required <= seen else None


def cmd_run(argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Parse argv, run the subcommand, and return (exit_code, stdout text).

    A canonical argv takes the table pass; any other goes to the whole
    parser, whose help comes back as the stdout text."""
    args = _parse(argv)
    if args is None:
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return (int(exc.code) if exc.code else 0), printed.getvalue()
    # Real stdin is read on the first '-' only, so every '-' sees one document.
    def stdin() -> str:
        nonlocal stdin_text
        if stdin_text is None:
            stdin_text = sys.stdin.read()
        return stdin_text

    # A handler returns its document, or the document's text when it writes
    # one itself.
    try:
        doc, code = _HANDLERS[args.command](args, stdin)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return 2, ""
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    return code, (doc if type(doc) is str else _ENCODE(doc)) + "\n"


def main() -> None:
    code, out = cmd_run(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
