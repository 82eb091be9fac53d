import pytest

from psiprime import (
    DomainError,
    Partition,
    SizeLimitError,
    iter_partitions,
    partitions_of,
)
from psiprime.partitions import _ascending
from oracles import ascending_partitions, partition_count, successor_partitions


def test_partitions_of_3_exhaustive():
    assert [q.parts for q in partitions_of(3)] == [(1, 1, 1), (2, 1), (3,)]


def test_partitions_of_zero_is_empty_partition():
    assert [q.parts for q in partitions_of(0)] == [()]


def test_partitions_of_12_count_against_recurrence():
    assert partition_count(12) == 77
    assert len(partitions_of(12)) == 77


@pytest.mark.parametrize("n", range(21))
def test_partition_counts_match_recurrence(n):
    assert len(partitions_of(n)) == partition_count(n)


@pytest.mark.parametrize("n", [0, 1, 5, 9, 14])
def test_partitions_strictly_ascending_no_duplicates(n):
    qs = partitions_of(n)
    assert len(set(qs)) == len(qs)
    for a, b in zip(qs, qs[1:]):
        assert a.parts < b.parts


@pytest.mark.parametrize("n", range(31))
def test_generator_matches_recursive_oracle(n):
    got = list(_ascending(n))
    assert got == list(ascending_partitions(n))
    assert all(Partition(parts).n == n for parts in got)
    # iter_partitions skips Partition.__init__ on these parts; what it
    # builds must be indistinguishable from what the constructor builds
    built = list(iter_partitions(n))
    assert built == [Partition(parts) for parts in got]
    assert all(type(q.parts) is tuple and hash(q) == hash(Partition(q.parts)) for q in built)


@pytest.mark.parametrize("n", range(41))
def test_zs2_matches_the_successor_step_it_replaced(n):
    assert list(_ascending(n)) == list(successor_partitions(n))


def test_partition_cap():
    with pytest.raises(SizeLimitError):
        partitions_of(65)


def test_iter_partitions_checks_n_when_called():
    # before the first partition is asked for, so a caller that streams
    # the partitions can refuse n before it writes anything
    with pytest.raises(SizeLimitError):
        iter_partitions(65)
    with pytest.raises(DomainError):
        iter_partitions(-1)


def test_cap_boundary_n_64_is_accepted():
    assert sum(1 for _ in iter_partitions(64)) == partition_count(64) == 1_741_630


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((1, 2))  # increasing
    with pytest.raises(DomainError):
        Partition((2, 0))
    with pytest.raises(DomainError):
        Partition((-1,))


@pytest.mark.parametrize("parts", [(True,), (False,), (2, True), (3, 1.0)])
def test_partition_refuses_parts_that_are_not_plain_ints(parts):
    with pytest.raises(DomainError, match="is not a positive integer"):
        Partition(parts)


def test_partitions_of_keeps_small_lists_only():
    # lists for n < 24 are kept between calls; larger ones are rebuilt, so
    # none of them stays in memory after the call that built it
    assert partitions_of(23) is partitions_of(23)
    first, second = partitions_of(30), partitions_of(30)
    assert first == second and first is not second
