#!/usr/bin/env python3
"""Run the verification suites and print a small table, one row per suite
with its own seconds, and the total.

Usage: python scripts/run_verification.py [suite] [--seed N] [--instances N] [--max-cells N]
"""

import argparse
import sys
import time

from lrpictures.cli import _integer, _non_negative
from lrpictures.verify import SUITE_NAMES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("suite", nargs="?", default="all", help=f"{', '.join(SUITE_NAMES)} or all")
    parser.add_argument("--seed", type=_integer, default=0)
    parser.add_argument("--instances", type=_non_negative, default=10000)
    parser.add_argument("--max-cells", type=_non_negative, default=5)
    args = parser.parse_args()

    timed = []
    try:
        # run_suite refuses an unknown suite or too many cells before it runs
        # a check, and the first suite of all is a family suite, so either is
        # refused before any work.
        for name in SUITE_NAMES if args.suite == "all" else (args.suite,):
            start = time.monotonic()
            (report,) = run_suite(
                name, seed=args.seed, instances=args.instances, max_cells=args.max_cells
            )
            timed.append((report, time.monotonic() - start))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = max(len(r.suite) for r, _ in timed)
    for r, seconds in timed:
        counts = ", ".join(f"{k}={v}" for k, v in r.checked.items())
        print(f"{r.suite:<{width}}  {'ok ' if r.ok else 'FAIL'}  {seconds:6.2f}s  {counts}")
        if not r.ok:
            print(f"{'':<{width}}  first counterexample: {r.counterexample}")
    print(f"total {sum(seconds for _, seconds in timed):.1f}s")
    return 0 if all(r.ok for r, _ in timed) else 1


if __name__ == "__main__":
    sys.exit(main())
