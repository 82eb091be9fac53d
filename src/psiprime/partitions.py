"""Integer partitions with the total lexicographic order used throughout
the package.

A partition of n is stored as its weakly decreasing positive parts with no
trailing zeros.  ``partitions_of`` yields partitions directly in ascending
lexicographic order of those tuples, so (1,...,1) comes first and (n)
last.  That is the paper's order, and it is plain tuple order on
``Partition.parts``.  (Padding with zeros to length n would not change that
order: of two different partitions of the same n, neither is a prefix of
the other.)
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .errors import DomainError, frozen, require_int, trusted

# Largest n that iter_partitions, partitions_of and the theorem-c rows
# accept.  Streaming holds no rows, so the cap bounds two things: the
# length of the tuple that partitions_of(n) builds, and the length of one
# theorem-c run, p(64) = 1,741,630 rows: 2.6-3.7 s for ``verify theorem-c
# --prime 2 --n 64 --json`` and 3.7-4.3 s for its table, with Python 3.11
# on a shared 2-core x86_64 host (BENCH_16.json, README).
PARTITION_CAP = 64


@frozen
class Partition:
    """Weakly decreasing positive integers; indexes abelian p-group types."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(parts)
        for i, x in enumerate(parts):
            require_int(x, "partition part")
            if i > 0 and parts[i - 1] < x:
                raise DomainError(f"partition parts {parts} are not weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @cached_property
    def n(self) -> int:
        """Sum of the parts (the integer being partitioned)."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def _zs2(n: int) -> Iterator[tuple[list[int], int, int]]:
    # The state (x, h, m) of ZS2 of Zoghbi and Stojmenovic (1998) after
    # each step, for the partitions of n in ascending lex order: constant
    # amortized time per partition.  x[1..m] is the partition and
    # x[m+1..n] stays 1, h is the index of the last part above 1 (0 for
    # the first, all 1s), and x[0] = -1 ends a scan.  x is one list,
    # changed in place by the next step, so a reader takes what it needs
    # from it before asking for the next state.
    x = [-1] + [1] * n
    h, m = 0, n
    yield x, h, m
    while m > 1:  # (n) is the one partition with a single part
        if m - h > 1:
            # the first 1 after x[h] becomes a 2
            h += 1
            x[h] = 2
            m -= 1
        else:
            # raise the first part equal to x[m-1]; the rest become 1s
            last = x[m - 1]
            j = m - 2
            while x[j] == last:
                x[j] = 1
                j -= 1
            h = j + 1
            x[h] = last + 1
            r = x[m] + last * (m - h - 1)
            x[m] = 1
            if m - h > 1:
                x[m - 1] = 1
            m = h + r - 1
        yield x, h, m


def _ascending(n: int) -> Iterator[tuple[int, ...]]:
    # parts of the partitions of n in ascending lex order, valid by construction
    return (tuple(x[1 : m + 1]) for x, _, m in _zs2(n))


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in ascending lexicographic order, lazily.

    n is checked when this is called, before the first partition is made.
    """
    require_int(n, "n", 0, PARTITION_CAP, "partition cap")
    return (trusted(Partition, parts=parts) for parts in _ascending(n))


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, strictly ascending in the paper's order, which
    is plain tuple order on their ``parts``.

    The result has exactly p(n) entries.  Beware that p(n) grows fast:
    p(40) = 37338 and p(64) above 1.7 million (the cap).  Only the lists
    for n < 24 are kept between calls; larger ones are rebuilt each time.
    """
    require_int(n, "n", 0, PARTITION_CAP, "partition cap")
    # group enumeration asks for n <= 19 only (2^20 > ENUMERATION_CAP),
    # and constantly
    if n < 24:
        return _kept_partitions(n)
    return tuple(iter_partitions(n))


@lru_cache(maxsize=None)
def _kept_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(iter_partitions(n))
