import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psiprime import (
    AbelianGroup,
    ConsistencyError,
    DomainError,
    OrderPolynomial,
    OrderSpectrum,
    SizeLimitError,
    brute_force_spectrum,
    canonicalize,
    enumerate_abelian_groups,
    order_polynomial,
    order_spectrum,
    parse_group,
    psi_all,
    psi_k,
    psi_prime,
    psi_sum,
)
from psiprime import symmetric
from psiprime.arith import is_prime
from psiprime.errors import trusted
from psiprime.symmetric import CONJECTURE_F_CAP, FINGERPRINT_PRIMES
from oracles import (
    pack,
    per_factor_expand_mod,
    psi_packed_mod,
    slots,
    spectrum_orders,
    subset_esp,
    two_mask_fold,
)


def test_psi_all_z3():
    # multiset {1, 3, 3}: e1 = 7, e2 = 3 + 3 + 9 = 15, e3 = 9
    assert psi_all(canonicalize([3])) == [7, 15, 9]


def test_psi_all_z2():
    assert psi_all(canonicalize([2])) == [3, 2]


def test_psi_all_order_four_pair_differs_everywhere():
    assert psi_all(canonicalize([4])) == [11, 42, 64, 32]
    assert psi_all(canonicalize([2, 2])) == [7, 18, 20, 8]


def test_psi_all_trivial_group():
    assert psi_all(AbelianGroup(())) == [1]


def test_psi_all_against_subset_oracle_up_to_12():
    for m in range(1, 13):
        for G in enumerate_abelian_groups(m):
            orders = spectrum_orders(brute_force_spectrum(G))
            expected = [subset_esp(orders, k) for k in range(1, m + 1)]
            assert psi_all(G) == expected


def test_psi_k_single_value():
    G = canonicalize([3])
    assert [psi_k(G, k) for k in (1, 2, 3)] == [7, 15, 9]
    with pytest.raises(DomainError):
        psi_k(G, 0)
    with pytest.raises(DomainError):
        psi_k(G, 4)


def test_psi_all_endpoints_up_to_96():
    for m in range(1, 97):
        for G in enumerate_abelian_groups(m):
            values = psi_all(G)
            assert values[0] == psi_sum(G)
            assert values[-1] == psi_prime(G).materialize(200)
            assert all(v > 0 for v in values)


def test_psi_all_cap_and_override():
    G = canonicalize([2] * 10)  # order 1024
    message = "|G| = 1024 exceeds the symmetric-function cap 512"
    for refused in (psi_all, lambda G: psi_k(G, 1), order_polynomial):
        with pytest.raises(SizeLimitError, match=re.escape(message)):
            refused(G)
    with pytest.raises(SizeLimitError, match=re.escape(message.replace("512", "1000"))):
        psi_all(G, cap=1000)
    values = psi_all(G, cap=1024)
    assert len(values) == 1024
    assert values[0] == psi_sum(G)


_GROUPS_UP_TO_512 = st.integers(min_value=1, max_value=512).flatmap(
    lambda m: st.sampled_from(enumerate_abelian_groups(m))
)


def _residues(G, P):
    # [psi_1 mod P, ..., psi_n mod P] read from the packed kernel's slots
    return slots(psi_packed_mod(G, P), G.order, symmetric._W)


@given(_GROUPS_UP_TO_512)
@settings(max_examples=60, deadline=None)
def test_psi_all_mod_is_psi_all_reduced(G):
    values = psi_all(G)
    for P in FINGERPRINT_PRIMES:
        assert _residues(G, P) == [v % P for v in values]


def test_psi_all_mod_at_order_1024_with_two_equal_halves():
    # the last product multiplies 513 by 513 slots, the widest split
    G = canonicalize([4] + [2] * 8)
    values = psi_all(G, cap=1024)
    for P in FINGERPRINT_PRIMES:
        assert _residues(G, P) == [v % P for v in values]


def _expanded(entries, P):
    # the kernel's packed value as ascending coefficients from the constant 1
    n = sum(m for _, m in entries)
    return [1] + slots(symmetric._expand_mod(entries, P), n, symmetric._W)


def test_expand_mod_equals_the_per_factor_kernel_up_to_300():
    for m in range(1, 301):
        for G in enumerate_abelian_groups(m):
            entries = order_spectrum(G).entries
            for P in FINGERPRINT_PRIMES:
                assert _expanded(entries, P) == per_factor_expand_mod(entries, P)


def test_expand_mod_equals_the_per_factor_kernel_at_the_cap():
    # the widest cases of order 4096 each square a polynomial of degree 2047
    # last, 2048 terms in a slot, the most the cap allows. A 2-group's m_d
    # tile the bits, so a product with a small L_k follows every squaring;
    # Z3^2xZ5xZ7xZ13 (order 4095) leaves bits unset, so squarings follow
    # squarings, which a kernel with one fold fewer overflows
    for notation in ("Z2^12", "Z4096", "Z4xZ2^10", "Z64^2", "Z3^2xZ5xZ7xZ13"):
        entries = order_spectrum(parse_group(notation)).entries
        for P in FINGERPRINT_PRIMES:
            assert _expanded(entries, P) == per_factor_expand_mod(entries, P)


def test_expand_mod_subtracts_p_from_a_slot_folded_to_p_or_above():
    # two folds leave a slot of Z3xZ73 at P2 + 9 and one of Z2xZ9xZ47 at
    # exactly P2 (psi_70 and psi_643), which only the final subtraction
    # reduces; a scan of every group up to order 1200 found none at P1
    P = FINGERPRINT_PRIMES[1]
    for notation in ("Z3xZ73", "Z2xZ9xZ47"):
        entries = order_spectrum(parse_group(notation)).entries
        assert _expanded(entries, P) == per_factor_expand_mod(entries, P)


def _fold_bound(P):
    # B, the bound on a slot after two folds (symmetric's module docstring),
    # with c = 2^b - P for the b the kernel reads
    b = P.bit_length()
    assert symmetric._FOLDS[P][0] == b
    c = 2**b - P
    return c * (c * 2 ** (symmetric._W - 2 * b) + 1) + 2**b


# slot values below 2^W: 0, multiples of 2^b up to the largest, 2^W - 1,
# P and its neighbours, and any value at all
_W, _B = symmetric._W, FINGERPRINT_PRIMES[0].bit_length()
_SLOT_VALUES = st.one_of(
    st.sampled_from([0, 1, 2**_B, 2**_W - 2**_B, 2**_W - 1]),
    st.sampled_from([P + e for P in FINGERPRINT_PRIMES for e in (-1, 0, 1)]),
    st.integers(min_value=0, max_value=2 ** (_W - _B) - 1).map(lambda hi: hi << _B),
    st.integers(min_value=0, max_value=2**_W - 1),
)


@given(st.sampled_from(FINGERPRINT_PRIMES), st.lists(_SLOT_VALUES, min_size=1, max_size=40))
@example(FINGERPRINT_PRIMES[0], [2**_W - 1] * (CONJECTURE_F_CAP + 1))
@example(FINGERPRINT_PRIMES[1], [2**_W - 1] * (CONJECTURE_F_CAP + 1))
@settings(max_examples=300, deadline=None)
def test_one_subtraction_fold_equals_the_two_mask_fold_slot_by_slot(P, values):
    # the kernel's fold z - (z >> b & high) * P borrows across no slot, so
    # it leaves each slot where the two-mask fold does, at every slot count
    # up to the cap's CONJECTURE_F_CAP + 1
    b, high = symmetric._FOLDS[P]
    assert b == _B == FINGERPRINT_PRIMES[1].bit_length()
    n, z = len(values), pack(values, _W)
    folded = slots(z - (z >> b & high) * P, n, _W)
    assert folded == slots(two_mask_fold(z, P, _W, n), n, _W)
    assert [v % P for v in folded] == [v % P for v in values]


def test_two_folds_keep_every_slot_below_2p_up_to_the_cap():
    # one subtraction of P needs B <= 2P, and the widest product sums
    # ceil((CAP + 2) / 2) terms below B^2
    for P in FINGERPRINT_PRIMES:
        B = _fold_bound(P)
        assert B <= 2 * P
        assert (CONJECTURE_F_CAP + 3) // 2 * B**2 < 2**symmetric._W


def test_two_factors_of_l_k_fit_between_two_folds():
    # a factor (1 + dX), d <= CAP, multiplies a slot by at most 1 + d, so
    # two take a slot from below B to below B * 4097^2, and an L_k of one
    # factor, which starts at 1, is below 4097 < B unfolded
    for P in FINGERPRINT_PRIMES:
        B = _fold_bound(P)
        assert B * (CONJECTURE_F_CAP + 1) ** 2 < 2**symmetric._W
        assert CONJECTURE_F_CAP + 1 < B


@pytest.mark.parametrize(
    "entries",
    [
        ((1, 1),) + tuple((CONJECTURE_F_CAP - i, 1) for i in range(40)),
        ((1, 1),) + tuple((CONJECTURE_F_CAP - i, 3) for i in range(40)),
        ((1, 1),) + tuple((4070 - i, 6) for i in range(4)),
    ],
    ids=["41-factors", "41-factors-after-a-square", "4-factors-after-a-square"],
)
def test_expand_mod_equals_the_per_factor_kernel_on_the_largest_factors(entries):
    # L_k of linear factors near the cap, each growing a slot almost
    # 4097-fold, the most a factor can: 41 leave two after the last fold,
    # and 4 (at bits 1 and 2) leave one. Once L_k multiplies a squared Q,
    # that growth overflows a slot unless L_k is folded once more first
    for P in FINGERPRINT_PRIMES:
        assert _expanded(entries, P) == per_factor_expand_mod(entries, P)


def test_fingerprint_primes_are_usable_up_to_the_cap():
    # each P is prime and above the cap, so no element order is 0 mod P and
    # the top slot, psi_n mod P, is never 0 (order_fingerprints' length check);
    # a product of canonical coefficients sums at most ceil((n + 2) / 2)
    # terms of at most (P - 1)^2 in a slot, below 2^W as the live bound
    # on B (test_two_folds_keep_every_slot_below_2p_up_to_the_cap) implies
    for P in FINGERPRINT_PRIMES:
        assert is_prime(P) and P > CONJECTURE_F_CAP
        assert (CONJECTURE_F_CAP + 3) // 2 * (P - 1) ** 2 < 2**symmetric._W


def test_packed_slots_are_canonical():
    # symmetric.slot_matches reads two residues as equal iff their slots are
    # bit for bit equal, so a slot left at z + P would hide a match with z.
    # Two folds leave Z3xZ73 at P2 + 9 and Z2xZ9xZ47 at P2 in one slot each
    groups = [G for m in range(1, 301) for G in enumerate_abelian_groups(m)]
    cases = [(G, P) for G in groups for P in FINGERPRINT_PRIMES]
    cases += [(parse_group("Z2xZ9xZ47"), FINGERPRINT_PRIMES[1])]
    for G, P in cases:
        assert max(_residues(G, P)) < P


def test_order_fingerprints_equal_psi_packed_mod_in_enumeration_order():
    # the fingerprints read from the Sylow tables, with unsorted entries,
    # against each enumerated group's own: every group up to 300 at P1, and
    # every other one at P2, as the P2 stage fingerprints only its live
    # groups; then the groups of the cap cases
    # (test_expand_mod_equals_the_per_factor_kernel_at_the_cap) alone
    p1, p2 = FINGERPRINT_PRIMES
    for m in range(1, 301):
        groups = enumerate_abelian_groups(m)
        for P, live in [(p1, range(len(groups))), (p2, range(1, len(groups), 2))]:
            expected = [psi_packed_mod(groups[x], P) for x in live]
            assert symmetric.order_fingerprints(m, P, live) == expected
    for m, notations in [(4096, ("Z2^12", "Z4096", "Z4xZ2^10", "Z64^2")), (4095, ("Z3^2xZ5xZ7xZ13",))]:
        groups = enumerate_abelian_groups(m)
        live = sorted(groups.index(G) for G in map(parse_group, notations))
        expected = [psi_packed_mod(groups[x], p1) for x in live]
        assert symmetric.order_fingerprints(m, p1, live) == expected


def test_psi_packed_mod_refuses_a_q_longer_than_n_slots(monkeypatch):
    # a carry out of the top slot would lengthen Q by a slot; the check
    # raises, so it holds under python -O too (test_cli covers that run)
    expand = symmetric._expand_mod
    monkeypatch.setattr(symmetric, "_expand_mod", lambda e, P: expand(e, P) << symmetric._W)
    for P in FINGERPRINT_PRIMES:
        with pytest.raises(ConsistencyError, match="bits do not fill 4 slots"):
            symmetric.order_fingerprints(4, P, [1])


def test_psi_all_refuses_a_product_of_the_wrong_degree(monkeypatch):
    # a spectrum whose multiplicities sum past |G| = 3
    wrong = trusted(OrderSpectrum, entries=((1, 1), (3, 3)), total=3)
    monkeypatch.setattr(symmetric, "order_spectrum", lambda G: wrong)
    with pytest.raises(ConsistencyError, match=r"degree 4, not \|G\| = 3"):
        psi_all(canonicalize([3]))


def test_psi_all_mod_refuses_order_past_the_cap(monkeypatch):
    def never(arg):
        raise AssertionError(f"the spectra of order {arg} were read")

    monkeypatch.setattr(symmetric, "sylow_spectra", never)
    message = "m = 4097 exceeds the conjecture-f fingerprint cap 4096"  # 4097 = 17 * 241
    for P in FINGERPRINT_PRIMES:
        with pytest.raises(SizeLimitError, match=re.escape(message)):
            symmetric.order_fingerprints(CONJECTURE_F_CAP + 1, P, [0])


# the slot bound is proved only for the two fingerprint primes: a composite,
# the first prime past 2^22, a prime below the cap and a float are refused,
# and so are the 26-bit primes of 64-bit slots, whose products overflow 2^W;
# slot_matches refuses them too (7 raised a bare KeyError there)
@pytest.mark.parametrize(
    "P",
    [FINGERPRINT_PRIMES[0] * FINGERPRINT_PRIMES[1], 2**22 + 15, 4093, float(2**22 - 3), 7]
    + [(2**26 - 5) * (2**26 - 27), 2**26 + 15, float(2**26 - 5), 2**26 - 27],
)
def test_psi_all_mod_refuses_a_modulus_that_is_not_a_fingerprint_prime(monkeypatch, P):
    def never(arg):
        raise AssertionError(f"a spectrum of {arg} was read")

    monkeypatch.setattr(symmetric, "sylow_spectra", never)
    message = f"P = {P} is not one of the fingerprint primes"
    with pytest.raises(DomainError, match=message):
        symmetric.order_fingerprints(8, P, range(3))
    with pytest.raises(DomainError, match=message):
        symmetric.slot_matches([2**56 + 1, 2**56 + 2], 2, P)


def test_order_polynomial_z2():
    assert order_polynomial(canonicalize([2])).coeffs == (2, -3, 1)


def test_order_polynomial_z3():
    # (X - 1)(X - 3)^2 = X^3 - 7X^2 + 15X - 9
    assert order_polynomial(canonicalize([3])).coeffs == (-9, 15, -7, 1)


def test_sign_relation_up_to_64():
    for m in range(1, 65):
        for G in enumerate_abelian_groups(m):
            coeffs = order_polynomial(G).coeffs
            values = psi_all(G)
            assert coeffs[m] == 1
            for k in range(1, m + 1):
                assert coeffs[m - k] == (-1) ** k * values[k - 1]


def test_polynomial_evaluations():
    for m in (1, 2, 12, 36, 60):
        for G in enumerate_abelian_groups(m):
            poly = order_polynomial(G)
            spectrum = brute_force_spectrum(G)
            assert poly.degree == m
            # the polynomial's values at 0 and 1
            assert poly.coeffs[0] == (-1) ** m * psi_prime(G).materialize(200)
            expected_at_one = 1
            for d, c in spectrum.entries:
                expected_at_one *= (1 - d) ** c
            assert sum(poly.coeffs) == expected_at_one


def test_order_polynomial_requires_monic():
    with pytest.raises(DomainError):
        OrderPolynomial((2, 3))


def test_polynomial_str():
    assert str(order_polynomial(canonicalize([2]))) == "X^2 - 3*X + 2"
    assert str(order_polynomial(canonicalize([3]))) == "X^3 - 7*X^2 + 15*X - 9"
    assert str(OrderPolynomial((0, 1))) == "X"
    assert str(OrderPolynomial((-2, 0, 1))) == "X^2 - 2"
