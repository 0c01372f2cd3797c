#!/usr/bin/env python3
"""Run the verification suites and print a small table.

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

    start = time.monotonic()
    try:
        reports = run_suite(
            args.suite, seed=args.seed, instances=args.instances, max_cells=args.max_cells
        )
    except ValueError as exc:  # an unknown suite or too many cells, refused before any work
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start

    width = max(len(r.suite) for r in reports)
    for r in reports:
        counts = ", ".join(f"{k}={v}" for k, v in r.checked.items())
        print(f"{r.suite:<{width}}  {'ok ' if r.ok else 'FAIL'}  {counts}")
        if not r.ok:
            print(f"{'':<{width}}  first counterexample: {r.counterexample}")
    print(f"total {elapsed:.1f}s")
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
