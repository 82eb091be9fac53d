"""Empirical verification harness: monotonicity of the psi' exponent along
the partition order, injectivity of psi' at fixed group order, the
cross-order collision census, and the psi_k distinguishability conjecture.

Monotonicity/injectivity failures would contradict proved statements, so
the test suite treats them as implementation bugs.  psi_k coincidences are
conjecture counterexample candidates: they are reported as findings, never
asserted away.  Every check that finds groups sharing a value builds its
classes with one helper, :func:`_shared`.
"""

from __future__ import annotations

import itertools
import operator
import os
from bisect import bisect_right
from math import isqrt
from typing import Iterable, Iterator

from .arith import require_prime
from .errors import frozen, require_int
from .groups import ENUMERATION_CAP, AbelianGroup, enumerate_abelian_groups
from .partitions import PARTITION_CAP, iter_partitions
from .psi import FactoredInteger, pgroup_exponents, psi_prime
from .symmetric import CONJECTURE_F_CAP, FINGERPRINT_PRIMES, psi_all, psi_all_mod

# Largest max_order that sweep_injectivity accepts.  Its time and memory
# grow with the square root of the bound, not with the bound.
INJECTIVITY_CAP = 10**12


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
    before any row is made.  The rows come from one prefix-sum pass,
    :func:`psi.pgroup_exponents`, which adds two new run terms per row and
    keeps only the run sums and text prefixes of one partition, so memory
    stays flat however large p(n) is.
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
    arrival order; the one class builder of every check below that finds
    groups sharing a value."""
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
    in enumeration order.  Every group is fingerprinted by psi_k mod P1
    at every k, and the candidates are the pairs within each class of
    groups (:func:`_shared`) whose residues match at k.  Each later
    stage, psi_all_mod at P2 and then the exact psi_all, computes values
    only for the groups still in some candidate and keeps the candidates
    whose values match at k.  Two values with different residues mod
    either prime are different, so no stage drops an exact equality, and
    only exact equalities are reported: pairs (i, j), then k ascending."""
    require_int(m, "m", 1, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    groups = enumerate_abelian_groups(m)
    g = len(groups)
    if g < 2:
        return ConjectureFReport(m=m, pair_count=0, coincidences=())
    p1, p2 = FINGERPRINT_PRIMES
    first = [psi_all_mod(G, p1) for G in groups]
    candidates = sorted(
        (i, j, k)
        for k, column in enumerate(zip(*first), start=1)
        # nearly every column is all distinct; one set() per column, in C,
        # skips building its classes
        if len(set(column)) < g
        for cls in _shared(zip(column, range(g))).values()
        for i, j in itertools.combinations(cls, 2)
    )
    # P1 matches are rare (one order below 4096 has any), so the later
    # stages run for few groups
    for stage in (lambda G: psi_all_mod(G, p2), lambda G: psi_all(G, cap=CONJECTURE_F_CAP)):
        live = sorted({x for i, j, _ in candidates for x in (i, j)})
        values = {x: stage(groups[x]) for x in live}
        candidates = [(i, j, k) for i, j, k in candidates if values[i][k - 1] == values[j][k - 1]]
    coincidences = tuple((groups[i], groups[j], k, values[i][k - 1]) for i, j, k in candidates)
    return ConjectureFReport(m=m, pair_count=g * (g - 1) // 2, coincidences=coincidences)


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
    sum_d b(d) * (max_order // d), about 2.2 * sqrt(max_order) terms.
    They are walked depth first, primes ascending.
    """
    b = [0, 0] + [types[k] - types[k - 1] for k in range(2, len(types))]

    def walk(n: int, bd: int, i: int) -> int:
        # the terms for d times a powerful number of the primes from
        # primes[i] on, where n = max_order // d and bd = b(d)
        total = bd * n
        for j in range(i, bisect_right(primes, isqrt(n), i)):
            p = primes[j]
            pk, k = p * p, 2
            while pk <= n:
                total += walk(n // pk, bd * b[k], j + 1)
                pk, k = pk * p, k + 1
        return total

    return walk(max_order, 1, 0)


def _prime_power_failure(p: int, n: int, exponents: list[int]) -> InjectivityReport:
    # the classes (from _shared) of p-groups of order p^n that share an
    # exponent, as check_injectivity(p**n) orders them: values ascending,
    # each class in partition order, which is the order the exponents came in
    shared = _shared((e, AbelianGroup([(p, q)])) for q, e in zip(iter_partitions(n), exponents))
    return InjectivityReport(m=p**n, duplicates=tuple(tuple(shared[e]) for e in sorted(shared)))


def sweep_injectivity(max_order: int) -> InjectivitySweep:
    """Injectivity of psi' at every order m <= max_order, checked through
    prime powers instead of by building every group; time and memory grow
    with sqrt(max_order).

    For |G| = m, psi'(G) = prod_p p^(E_p * m / p^(n_p)) with n_p = v_p(m)
    and E_p the exponent of the Sylow p-subgroup, so two groups of order m
    share psi' exactly when their Sylow exponents agree at every prime.
    psi' is thus injective at m iff each E_p is injective on the partitions
    of n_p.  For every prime p up to sqrt(max_order), found by a sieve, and
    every n >= 2 with p^n <= max_order, the exponents come from the
    prefix-sum pass :func:`psi.pgroup_exponents`, p(n) of them.

    groups_checked, the number of abelian groups of order at most
    max_order, is counted over the powerful numbers (:func:`_count_groups`).
    A p^n on which E_p collides breaks injectivity at every order it
    exactly divides, and p^n alone describes the collision, so each one
    is a single failure at the order p^n, whose classes are those of
    check_injectivity(p**n).  Theorem C, which check_theorem_c tests,
    says E_p never collides, so a failure is an implementation error.
    """
    require_int(max_order, "max_order", 1, INJECTIVITY_CAP, "injectivity cap")
    primes = _primes_to(isqrt(max_order))
    # types[n] = p(n), the number of abelian p-groups of order p^n; p = 2
    # comes first and reaches every n that a larger prime does
    types = [1, 1]
    colliding = []
    for p in primes:
        n, pn = 2, p * p
        while pn <= max_order:
            exponents = [e for _, e in pgroup_exponents(p, n)]
            if n == len(types):
                types.append(len(exponents))
            if len(set(exponents)) < len(exponents):
                colliding.append((p, n, exponents))
            n, pn = n + 1, pn * p
    return InjectivitySweep(
        max_order=max_order,
        groups_checked=_count_groups(max_order, primes, types),
        failures=tuple(_prime_power_failure(*c) for c in colliding),
    )


def sweep_conjecture_f(max_order: int, *, jobs: int | None = 1) -> ConjectureFSweep:
    """Run check_conjecture_f for every m <= max_order.

    Every group of order m > CONJECTURE_F_CAP is past the fingerprint cap,
    so a larger bound is refused before any order is computed."""
    require_int(max_order, "max_order", 1, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    reports = _fan_out(check_conjecture_f, range(1, max_order + 1), _resolve_jobs(jobs))
    pairs = sum(r.pair_count for r in reports)
    failures = tuple(r for r in reports if not r.holds)
    return ConjectureFSweep(max_order=max_order, pairs_checked=pairs, failures=failures)
