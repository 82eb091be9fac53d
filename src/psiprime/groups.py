"""Finite abelian groups in primary decomposition, their enumeration by
order, and two independent element-order-spectrum oracles.

An abelian p-group of order p^n is one component ``(p, Partition)`` of an
:class:`AbelianGroup`: the partition of n lists the cyclic-factor exponents
with parts descending, Z_{p^(a_1)} x ... x Z_{p^(a_k)}.  That component is
its only representation, and every psi' exponent function reads its parts
as stored, descending.

The counting oracle (:func:`order_spectrum`) uses the structure of abelian
p-groups: with exponents a_1, ..., a_k, the number of
solutions of x^(p^i) = e is p^(sum_j min(a_j, i)), so exact-order counts
fall out by successive differences, and multiplicities of coprime orders
multiply across primes.  The literal oracle (:func:`brute_force_spectrum`)
enumerates every element as a residue tuple and tallies lcm's; it exists
purely to distrust the counting oracle.  The constructors check every
input; enumerate_abelian_groups and order_spectrum build valid records
without them (errors.trusted), and sylow_spectra builds none: it reads
each group's spectrum entries straight from its Sylow tables, in the
enumeration order, for the conjecture-f fingerprints.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .arith import FACTORIZATION_CAP, _require_trusted_prime, factorize
from .errors import DomainError, SizeLimitError, frozen, require_int, trusted
from .partitions import Partition, partitions_of

# Largest group order enumerate_abelian_groups accepts.
ENUMERATION_CAP = 10**6

# Largest group the literal element-enumeration oracle will walk.
BRUTE_FORCE_CAP = 10**5


@frozen
class AbelianGroup:
    """Primary decomposition: (prime, exponent partition) pairs with
    strictly increasing primes.  The trivial group is the empty tuple."""

    components: tuple[tuple[int, Partition], ...]

    def __init__(self, components: Iterable[tuple[int, Partition]] = ()):
        components = tuple((p, q) for p, q in components)
        for i, (p, q) in enumerate(components):
            _require_trusted_prime(p)
            if not isinstance(q, Partition) or not q.parts:
                raise DomainError(f"component for prime {p} needs a non-empty partition")
            if i > 0 and components[i - 1][0] >= p:
                raise DomainError("component primes must be strictly increasing")
        object.__setattr__(self, "components", components)

    @cached_property
    def order(self) -> int:
        return prod(p**q.n for p, q in self.components)

    def cyclic_factors(self) -> list[int]:
        """Cyclic orders [p^a ...], primes ascending, exponents descending.

        This is exactly the bracketed list notation, e.g. Z4 x Z3^2 -> [4, 3, 3].
        """
        return [p**a for p, q in self.components for a in q.parts]


@frozen
class OrderSpectrum:
    """Map element order -> exact multiplicity, stored sorted by order."""

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: Iterable[tuple[int, int]]):
        # int() would truncate 2.7 to 2; bool is refused too
        entries = tuple(sorted(
            (require_int(d, "order", None), require_int(m, "multiplicity")) for d, m in entries
        ))
        if not entries or entries[0] != (1, 1):
            raise DomainError("a spectrum must contain the identity: m_1 = 1")
        total = 0
        for i, (d, m) in enumerate(entries):
            if i > 0 and entries[i - 1][0] == d:
                raise DomainError(f"duplicate order {d}")
            total += m
        for d, _ in entries:
            if total % d != 0:
                raise DomainError(f"order {d} does not divide the group order {total}")
        object.__setattr__(self, "entries", entries)
        # the group order; not a field, so equality, hash and repr ignore it
        object.__setattr__(self, "total", total)


def canonicalize(cyclic_orders: Sequence[int]) -> AbelianGroup:
    """Canonical form of a direct product of cyclic groups.

    Each cyclic order (at most FACTORIZATION_CAP) is split into prime-power
    factors (CRT), and the per-prime exponents are collected into
    descending partitions, so any two isomorphic spellings yield identical
    values.
    """
    per_prime: dict[int, list[int]] = {}
    for q in cyclic_orders:
        require_int(q, "cyclic order", 2, FACTORIZATION_CAP, "factorization cap")
        for p, e in factorize(q).items():
            per_prime.setdefault(p, []).append(e)
    components = tuple(
        (p, Partition(sorted(per_prime[p], reverse=True))) for p in sorted(per_prime)
    )
    return AbelianGroup(components)


def enumerate_abelian_groups(m: int) -> list[AbelianGroup]:
    """All isomorphism types of abelian groups of order m <= ENUMERATION_CAP.

    There are prod_p p(v_p(m)) of them.  Deterministic order: per-prime
    partitions ascend lexicographically, combined lexicographically with
    primes ascending.
    """
    require_int(m, "group order", None)
    if m < 1:
        raise DomainError(f"group order {m} must be >= 1")
    if m > ENUMERATION_CAP:
        raise SizeLimitError(f"order {m} exceeds the enumeration cap {ENUMERATION_CAP}")
    return [trusted(AbelianGroup, components=c) for c in _sylow_product(m, lambda p, q: (p, q))]


def _sylow_product(m: int, component) -> Iterator[tuple]:
    # (component(p, q) for each Sylow p-subgroup, primes ascending) for every
    # abelian group of order m, in enumerate_abelian_groups' order: per-prime
    # partitions ascending, combined lexicographically
    factors = factorize(m)
    per_prime = [[component(p, q) for q in partitions_of(factors[p])] for p in sorted(factors)]
    return itertools.product(*per_prime)


# The p-group spectra recur across the groups of a sweep, but a long-lived
# process must not keep every one: 1024 spectra hold all 938 p-group types
# of order <= 4096 (the conjecture-f cap).
@lru_cache(maxsize=1024)
def _pgroup_spectrum(p: int, parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    # Spectrum of the abelian p-group with the given exponent multiset:
    # |{x : o(x) | p^i}| = p^(sum_j min(a_j, i)); exact counts by differences.
    out = [(1, 1)]
    prev = 1
    for i in range(1, max(parts) + 1):
        cur = p ** sum(min(a, i) for a in parts)
        out.append((p**i, cur - prev))
        prev = cur
    return tuple(out)


def _convolve(tables: Iterable[tuple[tuple[int, int], ...]]) -> list[tuple[int, int]]:
    # the spectrum of a product of groups of coprime orders from theirs: the
    # orders multiply, so no two products of orders are equal; unsorted
    acc = [(1, 1)]
    for table in tables:
        acc = [(da * db, ma * mb) for da, ma in acc for db, mb in table]
    return acc


def order_spectrum(G: AbelianGroup) -> OrderSpectrum:
    """Exact element-order spectrum via per-prime counting + convolution."""
    entries = _convolve(_pgroup_spectrum(p, q.parts) for p, q in G.components)
    return trusted(OrderSpectrum, entries=tuple(sorted(entries)), total=G.order)


def sylow_spectra(m: int) -> Iterator[list[tuple[int, int]]]:
    """The spectrum entries of each abelian group of order m, in
    enumerate_abelian_groups(m)'s order, read from the Sylow subgroups'
    tables with no group or spectrum record built.  The entries of one
    group are those of order_spectrum, unsorted; m is not checked."""
    return map(_convolve, _sylow_product(m, lambda p, q: _pgroup_spectrum(p, q.parts)))


def brute_force_spectrum(G: AbelianGroup) -> OrderSpectrum:
    """Literal oracle: walk every element tuple, tally lcm's of component
    orders.  Capped at BRUTE_FORCE_CAP because it is Theta(|G|) with a real
    constant."""
    require_int(G.order, "|G|", None, BRUTE_FORCE_CAP, "brute-force cap")
    # the order of r in the additive group Z_q is q // gcd(r, q)
    order_lists = [[q // gcd(r, q) for r in range(q)] for q in G.cyclic_factors()]
    tally = Counter(itertools.starmap(lcm, itertools.product(*order_lists)))
    return OrderSpectrum(tally.items())

