#!/usr/bin/env python3
"""Tabulate nonzero Littlewood-Richardson coefficients, cross-checked two ways:
the crystal route and the Littlewood-Richardson rule on nu/lam.

Usage: python scripts/lr_table.py [--max-size N]
"""

import argparse
import sys

from lrpictures import lr_routes, partitions_in_box, partitions_of, subpartitions
from lrpictures.cli import _non_negative


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-size", type=_non_negative, default=6, help="largest |nu| to tabulate"
    )
    parser.add_argument(
        "--box", type=_non_negative, nargs=2, default=(4, 4), metavar=("ROWS", "COLS")
    )
    args = parser.parse_args()

    shown = 0
    disagreements = 0
    for nu in partitions_in_box(args.max_size, *args.box):
        for lam in subpartitions(nu):
            for mu in partitions_of(nu.size - lam.size):
                routes = lr_routes(lam, mu, nu)
                if len(set(routes.values())) != 1:
                    disagreements += 1
                    print(f"DISAGREE {lam.parts} * {mu.parts} -> {nu.parts}: {routes}")
                    continue
                value = routes["crystal"]
                if value:
                    shown += 1
                    print(f"c[{nu.parts}; {lam.parts}, {mu.parts}] = {value}")
    print(f"# {shown} nonzero coefficients, {disagreements} route disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
