#!/usr/bin/env python3
"""Explore how often non-isomorphic abelian groups of *different* orders
share their product of element orders.

At fixed order the product is a complete invariant, but across orders it
collides; the first collision is order 36 vs order 48.  This script scans
all orders up to a bound and prints the colliding pairs plus a few summary
statistics (smallest collision, collisions per order band).
"""

import argparse
from collections import Counter

from psiprime import find_cross_order_collisions, format_group
from psiprime.groups import ENUMERATION_CAP
from run_verification import bound


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("max_order", type=bound(ENUMERATION_CAP), nargs="?", default=300)
    args = parser.parse_args()

    census = find_cross_order_collisions(args.max_order)
    print(f"orders scanned: 1..{census.scope}")
    print(f"colliding pairs: {len(census.pairs)}")
    print()
    for a, b, value in census.pairs:
        same = "same order!" if a.order == b.order else ""
        print(f"  {format_group(a):<22} |G|={a.order:<6} "
              f"{format_group(b):<22} |H|={b.order:<6} psi'={value} {same}")

    if census.pairs:
        first = census.pairs[0]
        print()
        print(f"smallest pair: {format_group(first[0])} / {format_group(first[1])}")
        bands = Counter(max(a.order, b.order) // 100 for a, b, _ in census.pairs)
        print("pairs by max-order band of 100:",
              {f"{100 * k}-{100 * k + 99}": c for k, c in sorted(bands.items())})


if __name__ == "__main__":
    main()
