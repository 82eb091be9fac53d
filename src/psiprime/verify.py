"""Empirical verification harness: monotonicity of the psi' exponent along
the partition order, injectivity of psi' at fixed group order, the
cross-order collision census, and the psi_k distinguishability conjecture.

Monotonicity/injectivity failures would contradict proved statements, so
the test suite treats them as implementation bugs.  psi_k coincidences are
conjecture counterexample candidates: they are reported as findings, never
asserted away.  The checks that class groups by a shared exact value
(injectivity, the census and the prime-power failures) build the classes
with one helper, :func:`_shared`; the psi_k check compares packed
residues pair by pair instead (:func:`symmetric.slot_matches`).
"""

from __future__ import annotations

import itertools
import operator
import os
from array import array
from bisect import bisect_right
from math import isqrt, prod
from typing import Iterable, Iterator

from .arith import factorize, require_prime
from .errors import frozen, require_int
from .groups import ENUMERATION_CAP, AbelianGroup, enumerate_abelian_groups
from .partitions import PARTITION_CAP, iter_partitions, partitions_of
from .psi import FactoredInteger, pgroup_exponents, psi_prime
from .symmetric import CONJECTURE_F_CAP, FINGERPRINT_PRIMES, order_fingerprints, psi_all, slot_matches

# Largest max_order that sweep_injectivity accepts.  Its time and memory
# grow with the square root of the bound, not with the bound.
INJECTIVITY_CAP = 10**14


def _group_sort_key(G: AbelianGroup):
    # order, then type; enumerate_abelian_groups over ascending m follows it
    return (G.order, tuple((p, q.parts) for p, q in G.components))


@frozen
class InjectivityReport:
    """For one order m, the classes of two or more abelian groups of that
    order sharing a psi' value (each one a theorem violation)."""

    m: int
    duplicates: tuple[tuple[AbelianGroup, ...], ...]

    @property
    def holds(self) -> bool:
        return not self.duplicates


@frozen
class CollisionReport:
    """Pairs of non-isomorphic groups (orders allowed to differ) sharing an
    identical psi' value, over all orders up to ``scope``."""

    scope: int
    pairs: tuple[tuple[AbelianGroup, AbelianGroup, FactoredInteger], ...]


@frozen
class ConjectureFReport:
    """For one order m: every unordered pair of distinct groups tested at
    every k in 1..m; any psi_k coincidence is a finding."""

    m: int
    pair_count: int
    coincidences: tuple[tuple[AbelianGroup, AbelianGroup, int, int], ...]

    @property
    def holds(self) -> bool:
        return not self.coincidences


def theorem_c_rows(p: int, n: int) -> Iterator[tuple[str, int]]:
    """(partition text, psi' exponent) for every abelian p-group of order
    p^n, lazily, in ascending partition order.  The text is the JSON
    array of the descending parts, such as "[2,1]".

    p, n and the partition cap (64) are checked when this is called,
    before any row is made, and so is every run division of the pass, so
    an inexact one raises ConsistencyError here and not partway through
    the rows.  The rows come from one prefix-sum pass,
    :func:`psi.pgroup_exponents`, which adds two new run terms per ZS2 run
    start, writes the run of 2s after it from one closed form, and keeps
    only the run sums and text prefixes of one partition, so memory stays
    flat however large p(n) is.
    """
    require_int(n, "n", 1, PARTITION_CAP, "partition cap")
    require_prime(p)
    return pgroup_exponents(p, n)


def drops(exponents: Iterable[int], start: int = 0) -> Iterator[int]:
    """Every i where exponent i is not below exponent i + 1, the
    exponents numbered from ``start``; a C-level scan, with no Python
    frame per exponent."""
    a, b = itertools.tee(exponents)
    next(b, None)
    return itertools.compress(itertools.count(start), map(operator.ge, a, b))


def check_theorem_c(p: int, n: int) -> tuple[tuple[int, int], ...]:
    """Every (i, i + 1) where row i + 1 of :func:`theorem_c_rows` has an
    exponent not above row i's; empty when Theorem C holds at p^n.

    The rows are streamed through :func:`drops` and none is kept, so
    memory stays flat however large p(n) is (p(64) is over 1.7 million).
    """
    rows = theorem_c_rows(p, n)
    return tuple((i, i + 1) for i in drops(map(operator.itemgetter(1), rows)))


def _shared(keyed: Iterable[tuple]) -> dict:
    """{key: [items]} for each key that two or more of the (key, item)
    pairs share, keys in first-seen order and each class's items in
    arrival order; the one class builder of every check below that
    classes groups by a shared exact value."""
    classes: dict = {}
    for key, item in keyed:
        classes.setdefault(key, []).append(item)
    return {key: items for key, items in classes.items() if len(items) >= 2}


def check_injectivity(m: int) -> InjectivityReport:
    """The psi' value classes (from :func:`_shared`) that two or more
    abelian groups of order m share, values ascending by their factors,
    each class in enumeration order."""
    shared = _shared((psi_prime(G), G) for G in enumerate_abelian_groups(m))
    values = sorted(shared, key=operator.attrgetter("factors"))
    return InjectivityReport(m=m, duplicates=tuple(tuple(shared[v]) for v in values))


def find_cross_order_collisions(max_order: int) -> CollisionReport:
    """Group every abelian group of order <= max_order by its exact psi'
    value (:func:`_shared`) and report all cross-type coincidences, pairs
    sorted by order and type.

    These exist: with max_order >= 48 the scan contains the order-36 /
    order-48 pair Z4 x Z3^2 and Z2^4 x Z3 with shared value 2^45 * 3^32.
    """
    require_int(max_order, "max_order", 1, ENUMERATION_CAP, "enumeration cap")
    groups = (G for m in range(1, max_order + 1) for G in enumerate_abelian_groups(m))
    shared = _shared((psi_prime(G), G) for G in groups)
    pairs = [(a, b, v) for v, gs in shared.items() for a, b in itertools.combinations(gs, 2)]
    pairs.sort(key=lambda abv: (_group_sort_key(abv[0]), _group_sort_key(abv[1])))
    return CollisionReport(scope=max_order, pairs=tuple(pairs))


def check_conjecture_f(m: int) -> ConjectureFReport:
    """Test whether each single psi_k separates all abelian groups of
    order m.  A coincidence is reported, not raised: it would be a
    counterexample candidate, not an implementation error.

    The check is a staged filter over candidates (i, j, k), pairs i < j
    in enumeration order.  One stage runs at P1 and then at P2: it
    fingerprints the live groups, every group at P1, by their packed
    psi_1..psi_m mod P, read from the Sylow tables with no record built
    (:func:`symmetric.order_fingerprints`), finds the (i, j, k) where two
    fingerprints agree in slot k - 1 by one zero-slot test per pair
    (:func:`symmetric.slot_matches`), and keeps the candidates that every
    prime so far has matched; the groups in some candidate are live at
    the next prime.  Only an order with a candidate left after P2 builds
    its groups, for the exact psi_all of the live ones.  Two values with
    different residues mod either prime are different, so no stage drops
    an exact equality, and only exact equalities are reported: pairs
    (i, j), then k ascending."""
    require_int(m, "m", 1, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    # p(v_p(m)) types of Sylow p-subgroup for each p
    g = prod(len(partitions_of(e)) for e in factorize(m).values())
    if g < 2:
        return ConjectureFReport(m=m, pair_count=0, coincidences=())
    pair_count = g * (g - 1) // 2
    live, candidates = range(g), None
    for P in FINGERPRINT_PRIMES:
        found = slot_matches(order_fingerprints(m, P, live), m, P)
        matched = {(live[i], live[j], k) for i, j, k in found}
        candidates = matched if candidates is None else candidates & matched
        if not candidates:
            # P1 matches are rare (19 pairs in 18 orders up to 4096) and P2
            # refutes every one, so no order builds its groups
            return ConjectureFReport(m=m, pair_count=pair_count, coincidences=())
        live = sorted({x for i, j, _ in candidates for x in (i, j)})
    groups = enumerate_abelian_groups(m)
    values = {x: psi_all(groups[x], cap=CONJECTURE_F_CAP) for x in live}
    coincidences = tuple(
        (groups[i], groups[j], k, values[i][k - 1])
        for i, j, k in sorted(candidates)
        if values[i][k - 1] == values[j][k - 1]
    )
    return ConjectureFReport(m=m, pair_count=pair_count, coincidences=coincidences)


@frozen
class InjectivitySweep:
    """Injectivity of psi' at every order 1..max_order: one failure per
    colliding p^n, at the order p^n alone (see sweep_injectivity)."""

    max_order: int
    groups_checked: int
    failures: tuple[InjectivityReport, ...]

    @property
    def holds(self) -> bool:
        return not self.failures


@frozen
class ConjectureFSweep:
    """check_conjecture_f over every order 1..max_order."""

    max_order: int
    pairs_checked: int
    failures: tuple[ConjectureFReport, ...]

    @property
    def holds(self) -> bool:
        return not self.failures


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        # the CPUs this process may run on, which an affinity mask (taskset,
        # a container's cpuset) can hold below the host's os.cpu_count()
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return require_int(jobs, "jobs")


def _fan_out(fn, args, jobs):
    # deterministic: results returned in argument order regardless of jobs.
    # A fork-started pool forks all its workers at the first submit, so
    # never ask for more than there are arguments or usable CPUs.  The pool
    # is imported only here: with logging it cost every CLI start ~7 ms.
    workers = min(jobs, len(args), _resolve_jobs(None))
    if workers <= 1:
        return [fn(a) for a in args]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=64))


def _primes_to(limit: int) -> list[int]:
    """The primes up to limit >= 1, by a bytearray sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(itertools.compress(range(limit + 1), sieve))


def _count_groups(max_order: int, primes: list[int], types: list[int]) -> int:
    """sum_{m <= max_order} a(m), with a(m) = prod_p types[v_p(m)] the
    number of abelian groups of order m, from primes up to the square
    root of max_order and types[k] = p(k) for every p^k <= max_order.

    a = 1 * b (Dirichlet) with b multiplicative, b(p^k) = p(k) - p(k - 1).
    b(p) = 0, so b lives on the powerful numbers d, and the sum is
    sum_d b(d) * (max_order // d), about 2.2 * sqrt(max_order) terms,
    walked depth first, primes ascending.  At d, with n = max_order // d,
    a prime with p^4 > n extends d only by p^2 or p^3 (b = 1 for both) and
    no prime can follow, so those primes add n // p^2 + n // p^3 flat.
    """
    b = [0, 0] + [types[k] - types[k - 1] for k in range(2, len(types))]
    squares = array("q", map(operator.mul, primes, primes))
    cubes = array("q", itertools.takewhile(max_order.__ge__, map(operator.mul, squares, primes)))

    def walk(n: int, bd: int, i: int) -> int:
        # the terms of d times powerful numbers of primes[i:]; n = max_order // d, bd = b(d)
        total = bd * n
        mid = bisect_right(primes, isqrt(isqrt(n)), i)
        for j in range(i, mid):
            p = primes[j]
            pk, k = p * p, 2
            while pk <= n:
                total += walk(n // pk, bd * b[k], j + 1)
                pk, k = pk * p, k + 1
        top = bisect_right(primes, isqrt(n), mid)
        ends = squares[mid:top] + cubes[mid : bisect_right(cubes, n, mid)]
        return total + bd * sum(map(n.__floordiv__, ends))

    return walk(max_order, 1, 0)


def _square_exponents(p: int) -> list[int]:
    # E on [1,1] and [2]: p^2 - 1 elements of order p, or p - 1 of order p and p^2 - p of p^2
    return [p * p - 1, 2 * p * p - p - 1]


def sweep_injectivity(max_order: int) -> InjectivitySweep:
    """Injectivity of psi' at every order m <= max_order, checked through
    prime powers, with no group built, in time and memory ~ sqrt(max_order).

    At |G| = m, psi'(G) = prod_p p^(E_p * m / p^(n_p)) with n_p = v_p(m) and
    E_p the Sylow p-subgroup's exponent, so psi' is injective at m iff each
    E_p is injective on the partitions of n_p.  Every p^n <= max_order with
    n >= 2 is checked: n = 2, the one n of every prime past the cube root,
    by two closed forms, and larger n by :func:`psi.pgroup_exponents`.
    groups_checked is counted over the powerful numbers (:func:`_count_groups`).
    A colliding p^n breaks injectivity at every order it exactly divides
    and is reported once, at the order p^n, with check_injectivity(p**n)'s
    classes.  Theorem C says no E_p collides, so a failure is a bug.
    """
    require_int(max_order, "max_order", 1, INJECTIVITY_CAP, "injectivity cap")
    primes = _primes_to(isqrt(max_order))
    # types[n] = p(n); p = 2 comes first and reaches every n a larger p does
    types = [1, 1]
    failures = []
    for p in primes:
        n, pn = 2, p * p
        while pn <= max_order:
            exponents = _square_exponents(p) if n == 2 else [e for _, e in pgroup_exponents(p, n)]
            if n == len(types):
                types.append(len(exponents))
            if len(set(exponents)) < len(exponents):
                groups = (AbelianGroup([(p, q)]) for q in iter_partitions(n))
                shared = _shared(zip(exponents, groups))
                classes = tuple(tuple(shared[e]) for e in sorted(shared))
                failures.append(InjectivityReport(m=pn, duplicates=classes))
            n, pn = n + 1, pn * p
    return InjectivitySweep(max_order, _count_groups(max_order, primes, types), tuple(failures))


def sweep_conjecture_f(max_order: int, *, jobs: int | None = 1) -> ConjectureFSweep:
    """Run check_conjecture_f for every m <= max_order.

    Every group of order m > CONJECTURE_F_CAP is past the fingerprint cap,
    so a larger bound is refused before any order is computed."""
    require_int(max_order, "max_order", 1, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    reports = _fan_out(check_conjecture_f, range(1, max_order + 1), _resolve_jobs(jobs))
    pairs = sum(r.pair_count for r in reports)
    failures = tuple(r for r in reports if not r.holds)
    return ConjectureFSweep(max_order=max_order, pairs_checked=pairs, failures=failures)
