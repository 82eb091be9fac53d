#!/usr/bin/env python3
"""Full desk-scale verification campaign.

Runs every empirical check the library makes about element-order products:
exponent monotonicity along the partition order, injectivity at fixed
order, the cross-order collision census, formula-vs-brute concordance, and
the psi_k separation conjecture.  Prints one PASS/FAIL line per section.

Exit codes match the CLI: 0 clean, 3 theorem violation, 4 psi_k coincidence.
"""

import argparse
import sys
import time

from psiprime import (
    DomainError,
    brute_force_spectrum,
    check_theorem_c,
    enumerate_abelian_groups,
    find_cross_order_collisions,
    format_group,
    order_spectrum,
    psi_prime,
    psi_prime_from_spectrum,
    sweep_conjecture_f,
    sweep_injectivity,
)
from psiprime.arith import require_prime
from psiprime.cli import EXIT_COUNTEREXAMPLE, EXIT_OK, EXIT_VIOLATION
from psiprime.groups import BRUTE_FORCE_CAP, ENUMERATION_CAP
from psiprime.partitions import PARTITION_CAP
from psiprime.symmetric import CONJECTURE_F_CAP
from psiprime.verify import INJECTIVITY_CAP


def positive_int(text):
    """argparse type for a bound or job count: a bound of 0 would check
    nothing yet print PASS, and a job count of 0 cannot run."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def bound(cap):
    """argparse type for a sweep's bound, from 1 to the sweep's cap: past
    the cap the sweep would fail only after every section before it ran."""

    def positive_int_to_cap(text):
        value = positive_int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be <= {cap}, got {value}")
        return value

    return positive_int_to_cap


def prime(text):
    """argparse type for --primes: check_theorem_c refuses anything but a
    prime below 2**31, with a traceback after the primes before it ran."""
    value = int(text)
    try:
        require_prime(value)
    except DomainError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return value


def section(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=prime, nargs="+", default=[2, 3, 5, 7])
    parser.add_argument("--max-n", type=bound(PARTITION_CAP), default=12,
                        help="largest p-group exponent n")
    parser.add_argument("--injectivity-order", type=bound(INJECTIVITY_CAP), default=10**4)
    parser.add_argument("--collision-order", type=bound(ENUMERATION_CAP), default=100)
    parser.add_argument("--conjecture-order", type=bound(CONJECTURE_F_CAP), default=96)
    parser.add_argument("--brute-order", type=bound(BRUTE_FORCE_CAP), default=500)
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes for the conjecture-f section")
    args = parser.parse_args()

    t0 = time.perf_counter()
    violations = 0
    coincidences = 0

    section(f"monotonicity of the psi' exponent, p in {args.primes}, n <= {args.max_n}")
    for p in args.primes:
        bad = sum(bool(check_theorem_c(p, n)) for n in range(1, args.max_n + 1))
        violations += bad
        report(bad == 0, f"p = {p}: strictly increasing for every n (violations: {bad})")

    section(f"injectivity of psi' at fixed order, m <= {args.injectivity_order}")
    sweep = sweep_injectivity(args.injectivity_order)
    violations += len(sweep.failures)
    report(sweep.holds, f"{sweep.groups_checked} groups, duplicate psi' orders: {len(sweep.failures)}")

    section(f"cross-order psi' collision census, orders <= {args.collision_order}")
    census = find_cross_order_collisions(args.collision_order)
    print(f"{len(census.pairs)} colliding pair(s):")
    for a, b, value in census.pairs:
        print(f"  |{format_group(a)}| = {a.order}  vs  |{format_group(b)}| = {b.order}"
              f"  share psi' = {value}")
    report(True, "collisions across different orders are expected; census only")

    section(f"counting oracle vs literal enumeration, |G| <= {args.brute_order}")
    mismatches = 0
    for m in range(1, args.brute_order + 1):
        for G in enumerate_abelian_groups(m):
            s = order_spectrum(G)
            if s != brute_force_spectrum(G) or psi_prime(G) != psi_prime_from_spectrum(s):
                mismatches += 1
                print(f"  MISMATCH at {format_group(G)}")
    violations += mismatches
    report(mismatches == 0, f"spectra and psi' agree everywhere (mismatches: {mismatches})")

    section(f"single-psi_k separation, m <= {args.conjecture_order}")
    conj = sweep_conjecture_f(args.conjecture_order, jobs=args.jobs)
    coincidences += len(conj.failures)
    if not conj.holds:
        print("!" * 72)
        for r in conj.failures:
            for a, b, k, v in r.coincidences:
                print(f"  COINCIDENCE order {r.m}: psi_{k}({format_group(a)}) ="
                      f" psi_{k}({format_group(b)}) = {v}")
        print("!" * 72)
    report(conj.holds, f"{conj.pairs_checked} pairs, coincidences: {len(conj.failures)}")

    print()
    print(f"total time: {time.perf_counter() - t0:.1f}s")
    if coincidences:
        return EXIT_COUNTEREXAMPLE
    if violations:
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
