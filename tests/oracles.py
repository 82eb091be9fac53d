"""Independent oracles used across the test suite.

Everything here is deliberately naive (recursion, literal enumeration,
subset sums, plain trial division) and shares no code with the package
internals it checks; only the package's ``DomainError`` is borrowed, so
validation tests can expect the same exception from oracle and fast path.
The exceptions are :func:`counts_list_injectivity_sweep`,
:func:`record_violations`, :func:`successor_partitions`,
:func:`format_group_loop`, :func:`per_factor_expand_mod` (with
:func:`inverse_table`), :func:`two_mask_fold`, :func:`psi_packed_mod`,
:func:`column_candidates` and :func:`recursive_count_groups`, former
package paths kept whole as the references for the ones that replaced
them.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from functools import cache, lru_cache
from math import isqrt, prod
from typing import Iterable, Iterator, Sequence

from psiprime.errors import DomainError


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int | None = None) -> int:
    """p(n) by the classical bounded-largest-part recurrence."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return partition_count(n, max_part - 1) + partition_count(n - max_part, max_part)


def trial_division(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by dividing out every d with d*d <= n."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def subset_esp(values: list[int], k: int) -> int:
    """k-th elementary symmetric polynomial by literal subset enumeration."""
    return sum(prod(c) for c in itertools.combinations(values, k))


def spectrum_orders(spectrum) -> list[int]:
    """Flatten an OrderSpectrum into the sorted element-order multiset."""
    return [d for d, m in spectrum.entries for _ in range(m)]


def f_eval(alphas: Sequence[int], p: int, i: int) -> int:
    """Piecewise step factor in the paper's p-group exponent formula.

    With j = #{alphas <= i} clamped at k-1, returns
    p^((k-j-1)*i + alphas[0]+...+alphas[j-1]).  For k = 1 the exponent sum
    is empty and the value is 1 for every i.
    """
    alphas = tuple(alphas)
    if not alphas or any(alphas[j] > alphas[j + 1] for j in range(len(alphas) - 1)):
        raise DomainError(f"exponents {alphas} must be non-empty and ascending")
    if i < 0:
        raise DomainError(f"i = {i} must be non-negative")
    k = len(alphas)
    j = sum(1 for a in alphas if a <= i)
    j = min(j, k - 1)
    return p ** ((k - j - 1) * i + sum(alphas[:j]))


def psi_prime_exponent_loop(p: int, alphas: Sequence[int]) -> int:
    """The paper's formula read literally: a_k * p^n - sum_{i<a_k} p^i * f(i)."""
    a_k = alphas[-1]
    return a_k * p ** sum(alphas) - sum(p**i * f_eval(alphas, p, i) for i in range(a_k))


def ascending_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Descending-part tuples of the partitions of n with parts <= max_part,
    in ascending lex order, by recursion on the first part."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for head in range(1, min(n, max_part) + 1):
        for tail in ascending_partitions(n - head, head):
            yield (head,) + tail


def longest_partition_text(n: int) -> int:
    """Length of the longest "[l1,...,lk]" text over the partitions of n,
    by a knapsack over the parts: each part l costs l and adds
    len(str(l)) + 1 characters (its digits and a comma or the closing
    bracket), and the opening bracket adds one more."""
    best = [0]
    for m in range(1, n + 1):
        best.append(max(best[m - part] + len(str(part)) + 1 for part in range(1, m + 1)))
    return best[n] + 1


def successor_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """The same sequence as :func:`ascending_partitions`, by a successor
    step: take the rightmost i < len-1 where x[i] can grow without breaking
    the descent (i = 0 or x[i] < x[i-1]), add 1 to it, and spend what is
    left of the tail as 1s.  This was the package's generator before ZS2."""
    x = [1] * n
    while True:
        yield tuple(x)
        i = len(x) - 2
        if i < 0:
            return
        while i > 0 and x[i] == x[i - 1]:
            i -= 1
        rest = sum(x[i + 1 :]) - 1
        x[i] += 1
        del x[i + 1 :]
        x += [1] * rest


def record_violations(
    rows: Iterable[tuple[str, int]], violations: list[tuple[int, int]]
) -> Iterator[tuple[str, int]]:
    """Pass rows through, appending (i, i + 1) to ``violations`` whenever
    row i + 1's exponent is not above row i's: the Theorem C check as the
    package ran it, one row at a time, before it scanned for drops."""
    previous = None
    for i, row in enumerate(rows):
        if previous is not None and previous >= row[1]:
            violations.append((i - 1, i))
        previous = row[1]
        yield row


def format_group_loop(G) -> str:
    """Multiplicative notation as format_group wrote it before it ran
    groupby over cyclic_factors: one run-length loop per prime, deriving
    each p^a itself."""
    if not G.components:
        return "1"
    pieces = []
    for p, q in G.components:
        run_value, run_len = None, 0
        for a in q.parts:
            v = p**a
            if v == run_value:
                run_len += 1
            else:
                if run_value is not None:
                    pieces.append((run_value, run_len))
                run_value, run_len = v, 1
        pieces.append((run_value, run_len))
    return "x".join(f"Z{v}" if k == 1 else f"Z{v}^{k}" for v, k in pieces)


def counts_list_injectivity_sweep(max_order: int, *, jobs: int | None = 1):
    """The injectivity sweep as the package ran it before it counted
    groups over powerful numbers, kept unchanged but for these imports:
    it holds a list of max_order + 1 group counts, finds the primes by
    trial division and evaluates each p-group exponent by its own
    psi_prime_exponent call.
    It shares only the bound check with the sweep it checks, so the
    count, the primes and the exponents are independent.  A collision
    goes through check_injectivity at every order its p^n exactly
    divides, as the package once did up to 10^6, where the sweep reports
    the order p^n alone.
    """
    from math import isqrt

    from psiprime.arith import is_prime
    from psiprime.errors import require_int
    from psiprime.groups import ENUMERATION_CAP
    from psiprime.partitions import partitions_of
    from psiprime.psi import psi_prime_exponent
    from psiprime.verify import (
        InjectivitySweep,
        _fan_out,
        _resolve_jobs,
        check_injectivity,
    )

    require_int(max_order, "max_order", 1, ENUMERATION_CAP, "enumeration cap")
    jobs = _resolve_jobs(jobs)
    # counts[m] becomes prod_p p(v_p(m)), the number of groups of order m;
    # slot 0 stays 1 and is subtracted from the total
    counts = [1] * (max_order + 1)
    suspect: set[int] = set()
    for p in filter(is_prime, range(2, isqrt(max_order) + 1)):
        n, pn = 2, p * p
        while pn <= max_order:
            types = partitions_of(n)
            exponents = {psi_prime_exponent(p, q.parts) for q in types}
            exact = [m for m in range(pn, max_order + 1, pn) if m % (pn * p)]
            for m in exact:
                counts[m] *= len(types)
            if len(exponents) < len(types):
                suspect.update(exact)
            n, pn = n + 1, pn * p
    reports = _fan_out(check_injectivity, sorted(suspect), jobs)
    failures = tuple(r for r in reports if not r.holds)
    return InjectivitySweep(
        max_order=max_order, groups_checked=sum(counts) - 1, failures=failures
    )


@cache
def inverse_table(P: int) -> array:
    """inv[j] = j^-1 mod P for 1 <= j <= CONJECTURE_F_CAP, by the
    recurrence P = (P // j) * j + P % j; 64-bit slots hold it in 32 KiB."""
    from psiprime.symmetric import CONJECTURE_F_CAP

    inv = array("Q", [0, 1])
    for j in range(2, CONJECTURE_F_CAP + 1):
        inv.append(-(P // j) * inv[P % j] % P)
    return inv


def pack(coeffs: list[int], width: int) -> int:
    """One integer with coeffs[i] in its width-bit slot i, for a width
    that is a whole number of bytes."""
    w = width // 8
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")


def slots(q: int, n: int, width: int) -> list[int]:
    """The n width-bit slots of q, lowest first, read with ``to_bytes``
    alone, which refuses a q with a bit past slot n - 1."""
    w = width // 8
    raw = q.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, w * n, w)]


def per_factor_expand_mod(entries: tuple[tuple[int, int], ...], P: int) -> list[int]:
    """prod_d (1 + dX)^(m_d) mod P, ascending coefficients from the
    constant 1, as the package expanded it before its binary powering:
    one Kronecker product per spectrum entry, whose factor's coefficients
    C(m, j) * d^j are built one by one from :func:`inverse_table`, and
    every product unpacked and reduced slot by slot."""
    inv = inverse_table(P)
    acc = [1]
    for d, m in entries:
        factor = [1] * (m + 1)
        c = 1
        for j in range(1, m + 1):
            c = c * ((m - j + 1) * d % P) % P * inv[j] % P
            factor[j] = c
        product = slots(pack(acc, 64) * pack(factor, 64), len(acc) + m, 64)
        acc = [x % P for x in product]
    return acc


def two_mask_fold(z: int, P: int, width: int, n: int) -> int:
    """One fold of each of the n width-bit slots of z, as the package's
    fingerprint kernel folded a product before its one-subtraction form:
    a slot v becomes (v >> b) * c + v mod 2^b, with b = P.bit_length()
    and c = 2^b - P, through one mask of every slot's low b bits and one
    of its low width - b bits (Crandall and Pomerance, Prime Numbers,
    9.2.3)."""
    b = P.bit_length()
    ones = sum(1 << width * i for i in range(n))
    low, high = ((1 << b) - 1) * ones, ((1 << width - b) - 1) * ones
    return (z >> b & high) * (2**b - P) + (z & low)


def psi_packed_mod(G, P: int) -> int:
    """psi_1..psi_n mod P of the group record G, packed one per slot of
    ``symmetric._W`` bits, as the package fingerprinted each group before
    it read the Sylow tables: the packed kernel over the entries of G's
    own sorted ``order_spectrum``.  The fingerprint tests compare
    ``order_fingerprints`` with it, and it with [v % P for v in psi_all(G)]."""
    from psiprime.groups import order_spectrum
    from psiprime.symmetric import _expand_mod

    return _expand_mod(order_spectrum(G).entries, P)


def column_candidates(residues: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """Every (i, j, k), i < j and then k ascending, where residues[i] and
    residues[j] agree at k, as the conjecture-f check found its P1
    candidates before its pairwise zero-slot test: the residue lists
    transposed into columns, one set() per column, and the groups of a
    column with a repeated residue classed by value."""
    g = len(residues)
    candidates = []
    for k, column in enumerate(zip(*residues), start=1):
        if len(set(column)) < g:
            classes: dict[int, list[int]] = {}
            for i, x in enumerate(column):
                classes.setdefault(x, []).append(i)
            for cls in classes.values():
                candidates.extend((i, j, k) for i, j in itertools.combinations(cls, 2))
    return sorted(candidates)


def recursive_count_groups(max_order: int, primes: list[int], types: list[int]) -> int:
    """The number of abelian groups of order at most max_order, as
    ``verify._count_groups`` counted it before its flat pass over the
    primes with p^4 > n: sum_d b(d) * (max_order // d) over the powerful
    numbers d, with b(p^k) = types[k] - types[k - 1], every d reached by
    one recursive call.  primes runs up to sqrt(max_order) and types[k] is
    p(k) for every 2^k <= max_order."""
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
