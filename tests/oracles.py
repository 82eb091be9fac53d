"""Independent oracles used across the test suite.

Everything here is deliberately naive (recursion, literal enumeration,
subset sums, plain trial division) and shares no code with the package
internals it checks; only the package's ``DomainError`` is borrowed, so
validation tests can expect the same exception from oracle and fast path.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

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
