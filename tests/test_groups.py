import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiprime import (
    AbelianGroup,
    DomainError,
    OrderSpectrum,
    Partition,
    SizeLimitError,
    brute_force_spectrum,
    canonicalize,
    enumerate_abelian_groups,
    order_spectrum,
)
from psiprime.arith import factorize, require_prime
from psiprime.verify import theorem_c_rows
from oracles import partition_count


def comps(G):
    return {p: list(q.parts) for p, q in G.components}


# ---------------------------------------------------------------- canonicalize

def test_canonicalize_crt_split():
    assert comps(canonicalize([6])) == {2: [1], 3: [1]}


def test_canonicalize_prime_power_split():
    assert comps(canonicalize([4, 6])) == {2: [2, 1], 3: [1]}


def test_canonicalize_identifies_isomorphic_spellings():
    a = canonicalize([2, 2, 2, 2, 3])
    b = canonicalize([2, 6, 2, 2])
    assert a == b
    assert comps(a) == {2: [1, 1, 1, 1], 3: [1]}


def test_canonicalize_trivial_and_errors():
    assert canonicalize([]) == AbelianGroup(())
    with pytest.raises(DomainError):
        canonicalize([1])
    with pytest.raises(DomainError):
        canonicalize([0, 6])


@given(st.lists(st.integers(min_value=2, max_value=200), max_size=6), st.randoms())
def test_canonicalize_permutation_invariant(orders, rng):
    shuffled = orders[:]
    rng.shuffle(shuffled)
    assert canonicalize(orders) == canonicalize(shuffled)


@given(st.lists(st.integers(min_value=2, max_value=100), min_size=1, max_size=4))
def test_canonicalize_agrees_with_prime_power_respelling(orders):
    # replacing every entry by its prime-power factors is the CRT respelling
    respelled = []
    for q in orders:
        left = q
        d = 2
        while d * d <= left:
            if left % d == 0:
                pe = 1
                while left % d == 0:
                    pe *= d
                    left //= d
                respelled.append(pe)
            d += 1
        if left > 1:
            respelled.append(left)
    assert canonicalize(orders) == canonicalize(respelled)


# ---------------------------------------------------------------- enumeration

def test_enumerate_36_exact_order():
    got = [comps(G) for G in enumerate_abelian_groups(36)]
    assert got == [
        {2: [1, 1], 3: [1, 1]},
        {2: [1, 1], 3: [2]},
        {2: [2], 3: [1, 1]},
        {2: [2], 3: [2]},
    ]


def test_enumerate_prime_and_48():
    assert len(enumerate_abelian_groups(7)) == 1
    assert len(enumerate_abelian_groups(48)) == 5  # p(4) * p(1)


@pytest.mark.parametrize("m", [1, 2, 12, 64, 360, 1024, 2**10 * 3**4])
def test_enumerate_count_formula(m):
    groups = enumerate_abelian_groups(m)
    expected = 1
    left = m
    d = 2
    while d * d <= left:
        if left % d == 0:
            v = 0
            while left % d == 0:
                v += 1
                left //= d
            expected *= partition_count(v)
        d += 1
    if left > 1:
        expected *= partition_count(1)
    assert len(groups) == expected
    assert len(set(groups)) == len(groups)
    assert all(G.order == m for G in groups)


def test_enumerate_cap():
    with pytest.raises(SizeLimitError):
        enumerate_abelian_groups(10**6 + 1)
    assert len(enumerate_abelian_groups(10**6)) > 1


@pytest.mark.parametrize("bad_p", [-3, 0, 1, 4, 6, 9, 2**31 - 2])
def test_composite_prime_rejected_at_construction(bad_p):
    with pytest.raises(DomainError, match="not a prime"):
        AbelianGroup(((bad_p, Partition((1,))),))


def test_composite_prime_group_never_reaches_the_spectrum():
    # Z4 spelled as a "4-group" of rank 1 used to give the spectrum
    # {1: 1, 4: 3}; the real Z4 has {1: 1, 2: 1, 4: 2}
    with pytest.raises(DomainError):
        order_spectrum(AbelianGroup(((4, Partition((1,))),)))
    z4 = AbelianGroup(((2, Partition((2,))),))
    assert dict(order_spectrum(z4).entries) == {1: 1, 2: 1, 4: 2}


def test_primes_past_the_testing_limit_are_trusted_at_construction():
    big = 2**31 + 11
    assert AbelianGroup(((big, Partition((1,))),)).order == big
    # a Mersenne prime, just below the limit, is tested and accepted
    assert AbelianGroup(((2**31 - 1, Partition((1,))),)).order == 2**31 - 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: require_prime(3.0),
        lambda: list(theorem_c_rows(3.0, 3)),
        lambda: list(theorem_c_rows(3.0, 40)),
        lambda: AbelianGroup([(2.0, Partition((2, 1)))]),
        lambda: enumerate_abelian_groups(10.0),
    ],
    ids=["require_prime", "theorem_c_rows", "theorem_c_rows-rounding", "AbelianGroup",
         "enumerate"],
)
def test_a_float_prime_is_refused(make):
    # 3.0 passes trial division, then spreads float exponents and orders
    # (or a false ConsistencyError from rounding) through every result
    with pytest.raises(DomainError, match="must be an int"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: factorize(10.0), r"^n = 10\.0 must be an int$"),
        (lambda: factorize(True), r"^n = True must be an int$"),
        (lambda: enumerate_abelian_groups(12.0), r"group order = 12\.0 must be an int"),
        (lambda: enumerate_abelian_groups(10.0), r"group order = 10\.0 must be an int"),
    ],
    ids=["factorize-float", "factorize-bool", "enumerate-12.0", "enumerate-10.0"],
)
def test_a_non_int_order_is_refused_by_its_value(make, message):
    # factorize(10.0) would give {2: 1, 5.0: 1} and enumerate_abelian_groups(12.0)
    # the groups of order 12; (10.0) would fail only on the prime 5.0
    with pytest.raises(DomainError, match=message):
        make()


# ---------------------------------------------------------------- spectra

def spectrum_dict(G):
    return dict(order_spectrum(G).entries)


def test_order_spectrum_examples():
    assert spectrum_dict(canonicalize([4])) == {1: 1, 2: 1, 4: 2}
    assert spectrum_dict(canonicalize([2, 2])) == {1: 1, 2: 3}
    assert spectrum_dict(canonicalize([4, 9])) == {
        1: 1, 2: 1, 4: 2, 3: 2, 6: 2, 12: 4, 9: 6, 18: 6, 36: 12,
    }


def test_brute_force_spectrum_examples():
    assert dict(brute_force_spectrum(canonicalize([6])).entries) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert dict(brute_force_spectrum(AbelianGroup(())).entries) == {1: 1}


def test_brute_force_cap():
    G = canonicalize([2] * 17)  # order 131072
    with pytest.raises(SizeLimitError, match=r"^\|G\| = 131072 exceeds the brute-force cap 100000$"):
        brute_force_spectrum(G)


def test_spectra_agree_up_to_200():
    for m in range(1, 201):
        for G in enumerate_abelian_groups(m):
            assert order_spectrum(G) == brute_force_spectrum(G), G


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=60)
def test_spectrum_invariants(m):
    for G in enumerate_abelian_groups(m):
        s = order_spectrum(G)
        d = dict(s.entries)
        assert d[1] == 1
        assert s.total == G.order == m
        assert all(m % order == 0 for order in d)


def test_enumerated_groups_and_spectra_equal_the_checked_records_up_to_2000():
    # enumerate_abelian_groups and order_spectrum skip the constructors'
    # checks; the constructors must accept what they build, unchanged
    for m in range(1, 2001):
        for G in enumerate_abelian_groups(m):
            assert G == AbelianGroup(G.components)
            spectrum = order_spectrum(G)
            checked = OrderSpectrum(spectrum.entries)
            assert spectrum == checked and spectrum.total == checked.total, G


def test_spectrum_multiplicative_convolution():
    # coprime direct factors convolve multiplicatively
    for m1 in range(2, 23):
        for m2 in range(2, 23):
            if m1 * m2 > 500 or math.gcd(m1, m2) != 1:
                continue
            for G1 in enumerate_abelian_groups(m1):
                for G2 in enumerate_abelian_groups(m2):
                    product = canonicalize(G1.cyclic_factors() + G2.cyclic_factors())
                    s1 = dict(order_spectrum(G1).entries)
                    s2 = dict(order_spectrum(G2).entries)
                    expected = {
                        d1 * d2: c1 * c2
                        for d1, c1 in s1.items()
                        for d2, c2 in s2.items()
                    }
                    assert dict(order_spectrum(product).entries) == expected


def test_cyclic_factors_matches_list_notation():
    assert canonicalize([4, 3, 3]).cyclic_factors() == [4, 3, 3]
    assert AbelianGroup(()).cyclic_factors() == []


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: AbelianGroup([(2, (1,))]), "prime 2 needs a non-empty partition"),
        (lambda: AbelianGroup([(2, Partition(()))]), "prime 2 needs a non-empty partition"),
        (lambda: AbelianGroup([(3, Partition((1,))), (2, Partition((1,)))]),
         "primes must be strictly increasing"),
        (lambda: OrderSpectrum([(2, 1)]), r"must contain the identity: m_1 = 1"),
        (lambda: OrderSpectrum([(1, 1), (2, 0)]), "^multiplicity = 0 must be >= 1$"),
        (lambda: OrderSpectrum([(1, 1), (2, 1), (2, 1)]), "duplicate order 2"),
        (lambda: OrderSpectrum([(1, 1), (3, 1)]), "order 3 does not divide the group order 2"),
        (lambda: factorize(0), "^n = 0 must be >= 1$"),
    ],
    ids=[
        "group-tuple-parts", "group-empty-partition", "group-primes-out-of-order",
        "spectrum-no-identity", "spectrum-zero-multiplicity", "spectrum-duplicate-order",
        "spectrum-order-not-dividing", "factorize-zero",
    ],
)
def test_malformed_values_are_refused(make, message):
    with pytest.raises(DomainError, match=message):
        make()


def test_private_spectrum_caches_are_bounded():
    from psiprime import groups

    maxsize = groups._pgroup_spectrum.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and maxsize > 0


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(1, 1), (2.7, 1)], r"^order = 2\.7 must be an int$"),
        ([(1, 1), (2, 1.0)], r"^multiplicity = 1\.0 must be an int$"),
        ([(1, 1), ("2", 1)], r"^order = '2' must be an int$"),
        ([(1, 1), (2, True)], r"^multiplicity = True must be an int$"),
        ([(True, 1)], r"^order = True must be an int$"),
    ],
    ids=["float-order", "float-multiplicity", "str-order", "bool-multiplicity", "bool-order"],
)
def test_order_spectrum_refuses_non_int_entries(entries, message):
    with pytest.raises(DomainError, match=message):
        OrderSpectrum(entries)
