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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .errors import DomainError, SizeLimitError

# Largest n that iter_partitions and partitions_of accept.  Streaming holds
# no rows, so the cap bounds two things: the length of the tuple that
# partitions_of(n) builds, and the length of one theorem-c run, p(64) =
# 1,741,630 rows, about 6 s for ``verify theorem-c --prime 2 --n 64
# --json`` on one x86_64 core with Python 3.11.
PARTITION_CAP = 64


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integers; indexes abelian p-group types."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(parts)
        for i, x in enumerate(parts):
            if type(x) is not int or x < 1:
                raise DomainError(f"partition part {x!r} is not a positive integer")
            if i > 0 and parts[i - 1] < x:
                raise DomainError(f"partition parts {parts} are not weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @cached_property
    def n(self) -> int:
        """Sum of the parts (the integer being partitioned)."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.parts) + "]"


def _ascending(n: int) -> Iterator[tuple[int, ...]]:
    # Descending-part tuples of the partitions of n in ascending lex
    # order.  Successor step: take the rightmost i < len-1 where x[i] can
    # grow without breaking the descent (i = 0 or x[i] < x[i-1]), add 1 to
    # it, and spend what is left of the tail as 1s.
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


def _trusted(parts: tuple[int, ...]) -> Partition:
    # a Partition without the O(k) checks of Partition.__init__, for parts
    # that _ascending made weakly decreasing and positive by construction
    q = object.__new__(Partition)
    object.__setattr__(q, "parts", parts)
    return q


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in ascending lexicographic order, lazily.

    n is checked when this is called, before the first partition is made.
    """
    if n < 0:
        raise DomainError(f"cannot partition {n}")
    if n > PARTITION_CAP:
        raise SizeLimitError(f"n = {n} exceeds the partition cap {PARTITION_CAP}")
    return map(_trusted, _ascending(n))


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, strictly ascending in the paper's order, which
    is plain tuple order on their ``parts``.

    The result has exactly p(n) entries.  Beware that p(n) grows fast:
    p(40) = 37338 and p(64) above 1.7 million (the cap).  Only the lists
    for n < 24 are kept between calls; larger ones are rebuilt each time.
    """
    # the enumeration sweeps ask for n <= 19 only (2^20 > ENUMERATION_CAP),
    # and constantly
    if n < 24:
        return _kept_partitions(n)
    return tuple(iter_partitions(n))


@lru_cache(maxsize=None)
def _kept_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(iter_partitions(n))
