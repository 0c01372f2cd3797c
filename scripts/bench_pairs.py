#!/usr/bin/env python3
"""Run the benchmark in a parent checkout and in this one, in alternating
pairs, and record the runs in BENCH_<pr>.json.

Usage: python scripts/bench_pairs.py PARENT_DIR WORKLOAD FIRST-LAST --pr N [--claim]

For each seed from FIRST to LAST, the benchmark command of BENCHMARK.json
runs for its run_seconds once in PARENT_DIR and once in this checkout.  The
parent goes first on the first seed, and the sides swap every seed.  The
pairs are added to BENCH_<pr>.json at the root of this checkout, which is
made if missing.  With --claim they go under "pairs" and the claim line is
written again from every claimed pair of the workload: the pairs the change
wins on ops_per_s, both medians and the distance between the parent's
quartiles.  A gain stands when the change wins at least nine in ten pairs
and its median beats the parent's by more than that distance.  Without
--claim the pairs go under "runs", for workloads that must only not
regress.

After every invocation, each workload's pairs, claimed or not, are checked
for regression: for every end-to-end metric of BENCHMARK.json, one line
gives the parent and change medians, the relative change and whether the
change is worse by more than the metric's bound.  The same rows are stored
under "no_regression".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
CLAIMED_METRIC = "ops_per_s"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_side(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its result line, with the run's wall time."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    began = time.monotonic()
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark exited {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    result["run_wall_s"] = round(time.monotonic() - began)
    return result


def summarize(pairs: list[dict], metric: str, better: str) -> dict:
    """Wins, medians and the parent's quartile distance of one workload's pairs."""
    values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
    medians = {side: statistics.median(v) for side, v in values.items()}
    gain = sign * (medians["change"] - medians["parent"])
    return {
        "workload": pairs[0]["workload"],
        "metric": metric,
        "seeds": [p["seed"] for p in pairs],
        "wins": wins,
        "pairs": len(pairs),
        "parent_median": medians["parent"],
        "change_median": medians["change"],
        "parent_quartile_distance": q3 - q1,
        "gain_stands": wins >= 0.9 * len(pairs) and gain > q3 - q1,
    }


def _number(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 100 else f"{x:.3g}"


def claim_line(s: dict) -> str:
    seeds = s["seeds"]
    span = f"{min(seeds)}-{max(seeds)}" if len(seeds) > 1 else str(seeds[0])
    change = s["change_median"] / s["parent_median"] - 1
    return (
        f"{s['workload']} {s['metric']}; pairs on seeds {span}: change better in {s['wins']} of "
        f"{s['pairs']}, median {_number(s['parent_median'])} -> {_number(s['change_median'])} "
        f"({change:+.0%}), parent quartile distance {_number(s['parent_quartile_distance'])}; "
        f"the gain {'stands' if s['gain_stands'] else 'does not stand'}"
    )


def no_regression(pairs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """Per workload and end-to-end metric: both medians, the relative change
    and whether the change is worse by more than the metric's bound."""
    rows = []
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        for m in end_to_end:
            if any(m["name"] not in p[side]["metrics"] for p in mine for side in SIDES):
                continue
            medians = {side: statistics.median(p[side]["metrics"][m["name"]]["value"] for p in mine)
                       for side in SIDES}
            change = medians["change"] / medians["parent"] - 1
            worse = change if m["better"] == "lower" else -change
            rows.append({
                "workload": workload,
                "metric": m["name"],
                "parent_median": medians["parent"],
                "change_median": medians["change"],
                "change": round(change, 4),
                "bound": m["bound"],
                "worse_beyond_bound": worse > m["bound"],
            })
    return rows


def regression_line(r: dict) -> str:
    verdict = "WORSE beyond its bound" if r["worse_beyond_bound"] else "within its bound"
    return (
        f"{r['workload']} {r['metric']}: median {_number(r['parent_median'])} -> "
        f"{_number(r['change_median'])} ({r['change']:+.1%}), bound {r['bound']:.0%}; {verdict}"
    )


def write_bench(path: Path, doc: dict) -> None:
    """doc as JSON with one run per line, the layout of the earlier BENCH files."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, list):
            runs = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in value)
            lines.append(f' {json.dumps(key)}: [\n{runs}\n ]')
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("workload")
    parser.add_argument("seeds", type=seed_range, help="FIRST-LAST, or one seed")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--claim", action="store_true", help="pairs of the claimed workload")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    path = ROOT / f"BENCH_{args.pr}.json"
    commit = subprocess.run(["git", "-C", str(args.parent), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or None
    doc = json.loads(path.read_text()) if path.exists() else {
        "parent_commit": commit,
        "command": " ".join(bench["command"])
        + f" --workload <workload> --seed <seed> --seconds {seconds:g}",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
        f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
        "runs_order": "one run each side per seed; the side named first ran first, "
        "alternating by seed",
    }
    key = "pairs" if args.claim else "runs"
    doc.setdefault("claim", None)
    doc.setdefault(key, [])
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(checkouts[side], bench["command"], args.workload, seed, seconds)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{pair[side]['metrics'][CLAIMED_METRIC]['value']:.4g}", file=sys.stderr)
        doc[key].append(pair)
        write_bench(path, doc)  # keep every finished pair if a later run fails
    if args.claim:
        claimed = [p for p in doc["pairs"] if p["workload"] == args.workload]
        summary = summarize(claimed, CLAIMED_METRIC, better[CLAIMED_METRIC])
        doc["claim"] = claim_line(summary)
        print(doc["claim"])
    doc["no_regression"] = no_regression(doc.get("pairs", []) + doc.get("runs", []),
                                         bench["end_to_end"])
    write_bench(path, doc)
    for row in doc["no_regression"]:
        print(regression_line(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
