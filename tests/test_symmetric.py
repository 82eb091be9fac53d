import re

import pytest
from hypothesis import given, settings
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
from psiprime.symmetric import CONJECTURE_F_CAP, FINGERPRINT_PRIMES, psi_all_mod, psi_packed_mod
from oracles import per_factor_expand_mod, slots, spectrum_orders, subset_esp


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


@given(_GROUPS_UP_TO_512)
@settings(max_examples=60, deadline=None)
def test_psi_all_mod_is_psi_all_reduced(G):
    values = psi_all(G)
    for P in FINGERPRINT_PRIMES:
        assert psi_all_mod(G, P) == [v % P for v in values]


def test_psi_all_mod_at_order_1024_with_two_equal_halves():
    # the last product multiplies 513 by 513 slots, the widest split
    G = canonicalize([4] + [2] * 8)
    values = psi_all(G, cap=1024)
    for P in FINGERPRINT_PRIMES:
        assert psi_all_mod(G, P) == [v % P for v in values]


def _expanded(entries, P):
    # the kernel's packed value as ascending coefficients from the constant 1
    return [1] + slots(symmetric._expand_mod(entries, P), sum(m for _, m in entries))


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
    # two folds leave a slot of Z1373 at P2 + 24 and one of Z8xZ17^2 at
    # P2 + 24 (slots 651 and 1364), which only the final subtraction reduces
    P = FINGERPRINT_PRIMES[1]
    for notation in ("Z1373", "Z8xZ17^2"):
        entries = order_spectrum(parse_group(notation)).entries
        assert _expanded(entries, P) == per_factor_expand_mod(entries, P)


def _fold_bound(P):
    # B, the bound on a slot after two folds (symmetric's module docstring),
    # from b and c as the kernel reads them
    b, c = symmetric._FOLDS[P][:2]
    assert P == 2**b - c
    return c * (c * 2 ** (64 - 2 * b) + 1) + 2**b


def test_two_folds_keep_every_slot_below_2p_up_to_the_cap():
    # one subtraction of P needs B <= 2P, and the widest product sums
    # ceil((CAP + 2) / 2) terms below B^2
    for P in FINGERPRINT_PRIMES:
        B = _fold_bound(P)
        assert B <= 2 * P
        assert (CONJECTURE_F_CAP + 3) // 2 * B**2 < 2**64


def test_three_factors_of_l_k_fit_between_two_folds():
    # a factor (1 + dX), d <= CAP, multiplies a slot by at most 1 + d, so
    # three take a slot from below B to below B * 4097^3, and an L_k of at
    # most two factors, which starts at 1, is below 4097^2 < B unfolded
    for P in FINGERPRINT_PRIMES:
        B = _fold_bound(P)
        assert B * (CONJECTURE_F_CAP + 1) ** 3 < 2**64
        assert (CONJECTURE_F_CAP + 1) ** 2 < B


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
    # the top slot, psi_n mod P, is never 0 (psi_packed_mod's length check);
    # a product of canonical coefficients sums at most ceil((n + 2) / 2)
    # terms of at most (P - 1)^2 in a slot, below 2^64 as the live bound
    # on B (test_two_folds_keep_every_slot_below_2p_up_to_the_cap) implies
    for P in FINGERPRINT_PRIMES:
        assert is_prime(P) and P > CONJECTURE_F_CAP
        assert (CONJECTURE_F_CAP + 3) // 2 * (P - 1) ** 2 < 2**64


def test_packed_slots_are_canonical():
    # verify._slot_matches reads two residues as equal iff their slots are
    # bit for bit equal, so a slot left at z + P would hide a match with z.
    # Two folds leave Z1373 and Z8xZ17^2 at P2 + 24 in one slot each
    groups = [G for m in range(1, 301) for G in enumerate_abelian_groups(m)]
    cases = [(G, P) for G in groups for P in FINGERPRINT_PRIMES]
    cases += [(parse_group(notation), FINGERPRINT_PRIMES[1]) for notation in ("Z1373", "Z8xZ17^2")]
    for G, P in cases:
        assert max(slots(psi_packed_mod(G, P), G.order)) < P


def test_psi_packed_mod_refuses_a_q_longer_than_n_slots(monkeypatch):
    # a carry out of the top slot would lengthen Q by a slot; the check
    # raises, so it holds under python -O too (test_cli covers that run)
    expand = symmetric._expand_mod
    monkeypatch.setattr(symmetric, "_expand_mod", lambda entries, P: expand(entries, P) << 64)
    for P in FINGERPRINT_PRIMES:
        with pytest.raises(ConsistencyError, match="bits do not fill 4 slots"):
            psi_packed_mod(canonicalize([4]), P)


def test_psi_all_refuses_a_product_of_the_wrong_degree(monkeypatch):
    # a spectrum whose multiplicities sum past |G| = 3
    wrong = trusted(OrderSpectrum, entries=((1, 1), (3, 3)), total=3)
    monkeypatch.setattr(symmetric, "order_spectrum", lambda G: wrong)
    with pytest.raises(ConsistencyError, match=r"degree 4, not \|G\| = 3"):
        psi_all(canonicalize([3]))


def test_psi_all_mod_refuses_order_past_the_cap():
    G = canonicalize([CONJECTURE_F_CAP + 1])  # 4097 = 17 * 241
    message = "|G| = 4097 exceeds the conjecture-f fingerprint cap 4096"
    for entry in (psi_all_mod, psi_packed_mod):
        for P in FINGERPRINT_PRIMES:
            with pytest.raises(SizeLimitError, match=re.escape(message)):
                entry(G, P)


# the slot bound is proved only for the two fingerprint primes: a composite,
# the first prime past 2^26, a prime below the cap and a float are refused
@pytest.mark.parametrize(
    "P", [FINGERPRINT_PRIMES[0] * FINGERPRINT_PRIMES[1], 2**26 + 15, 4093, float(2**26 - 5)]
)
def test_psi_all_mod_refuses_a_modulus_that_is_not_a_fingerprint_prime(monkeypatch, P):
    def never(G):
        raise AssertionError(f"order_spectrum({G}) ran")

    monkeypatch.setattr(symmetric, "order_spectrum", never)
    for entry in (psi_all_mod, psi_packed_mod):
        with pytest.raises(DomainError, match=f"P = {P} is not one of the fingerprint primes"):
            entry(canonicalize([4, 2]), P)


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
