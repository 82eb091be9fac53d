import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiprime import (
    FactoredInteger,
    OrderSpectrum,
    Partition,
    canonicalize,
    check_conjecture_f,
    check_theorem_c,
    enumerate_abelian_groups,
    find_cross_order_collisions,
    iter_partitions,
    order_spectrum,
    parse_group,
    partitions_of,
    psi_all,
    psi_k,
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    sweep_conjecture_f,
    sweep_injectivity,
)
from psiprime.arith import factorize
from psiprime.verify import check_injectivity, theorem_c_rows
from oracles import column_candidates, pack, psi_packed_mod, slots


def test_theorem_c_2_3():
    assert list(theorem_c_rows(2, 3)) == [
        ("[1,1,1]", 7),
        ("[2,1]", 11),
        ("[3]", 17),
    ]
    assert check_theorem_c(2, 3) == ()


def test_theorem_c_single_row():
    assert len(list(theorem_c_rows(2, 1))) == 1
    assert check_theorem_c(2, 1) == ()


def test_theorem_c_3_5_cross_checked_against_spectrum():
    rows = list(theorem_c_rows(3, 5))
    assert len(rows) == 7  # p(5)
    exponents = [e for _, e in rows]
    assert exponents == sorted(exponents) and len(set(exponents)) == 7
    for text, e in rows:
        G = canonicalize([3**a for a in json.loads(text)])
        assert dict(psi_prime_from_spectrum(order_spectrum(G)).factors) == {3: e}


def test_theorem_c_full_biconditional_small():
    for p in (2, 3):
        for n in range(1, 9):
            rows = [(tuple(json.loads(t)), e) for t, e in theorem_c_rows(p, n)]
            for (qa, ea), (qb, eb) in itertools.combinations(rows, 2):
                cmp_lex = (qa > qb) - (qa < qb)
                cmp_exp = (ea > eb) - (ea < eb)
                assert cmp_lex == cmp_exp


def test_injectivity_36():
    values = [psi_prime(G) for G in enumerate_abelian_groups(36)]
    assert len(values) == 4
    assert len(set(values)) == 4
    report = check_injectivity(36)
    assert report.duplicates == ()
    assert report.holds


def test_injectivity_prime_order_vacuous():
    assert len(enumerate_abelian_groups(13)) == 1
    assert check_injectivity(13).holds


def test_injectivity_64_exponents_increase_with_enumeration_order():
    values = [psi_prime(G) for G in enumerate_abelian_groups(64)]
    assert len(values) == 11  # p(6)
    exponents = [dict(value.factors)[2] for value in values]
    assert exponents == sorted(exponents)
    assert len(set(exponents)) == 11
    assert check_injectivity(64).holds


def test_collisions_up_to_10_empty():
    assert find_cross_order_collisions(10).pairs == ()


def test_enumeration_over_ascending_orders_follows_the_group_sort_key():
    # the classes of the shared-value checks keep their groups in arrival
    # order, which is this order
    from psiprime.verify import _group_sort_key

    keys = [_group_sort_key(G) for m in range(1, 2001) for G in enumerate_abelian_groups(m)]
    assert len(keys) == 4278
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_collisions_sort_the_pairs_of_planted_classes_by_group(monkeypatch):
    # Z2, Z5, Z7 share one planted value and Z3, Z4 another: the second
    # class's first member arrives after the first's, but its pair sorts
    # between the first class's pairs
    from psiprime import verify

    planted = {
        canonicalize([2]): FactoredInteger({2: 1000}),
        canonicalize([5]): FactoredInteger({2: 1000}),
        canonicalize([7]): FactoredInteger({2: 1000}),
        canonicalize([3]): FactoredInteger({3: 1000}),
        canonicalize([4]): FactoredInteger({3: 1000}),
    }
    real = verify.psi_prime
    monkeypatch.setattr(verify, "psi_prime", lambda G: planted[G] if G in planted else real(G))
    Z = {n: canonicalize([n]) for n in (2, 3, 4, 5, 7)}
    assert find_cross_order_collisions(10).pairs == (
        (Z[2], Z[5], planted[Z[2]]),
        (Z[2], Z[7], planted[Z[2]]),
        (Z[3], Z[4], planted[Z[3]]),
        (Z[5], Z[7], planted[Z[2]]),
    )


def test_collisions_up_to_48_contain_smallest_known_pair():
    report = find_cross_order_collisions(48)
    expected = (
        canonicalize([4, 3, 3]),
        canonicalize([2, 2, 2, 2, 3]),
        FactoredInteger({2: 45, 3: 32}),
    )
    assert expected in report.pairs
    assert all(a != b for a, b, _ in report.pairs)


def test_conjecture_f_order_4():
    report = check_conjecture_f(4)
    assert report.pair_count == 1
    assert report.coincidences == ()
    assert report.holds


def test_conjecture_f_prime_order_vacuous():
    report = check_conjecture_f(11)
    assert report.pair_count == 0
    assert report.holds


def test_conjecture_f_order_16():
    report = check_conjecture_f(16)
    assert report.pair_count == 10  # C(5, 2)
    assert report.coincidences == ()


def test_conjecture_f_reports_coincidences_without_raising():
    # same-spectrum groups of *different* orders are not compared; fabricate
    # a degenerate sweep over an order with a single group to show the
    # report shape stays sane
    report = check_conjecture_f(1)
    assert report.pair_count == 0 and report.coincidences == ()


def test_sweep_injectivity_small():
    sweep = sweep_injectivity(120)
    assert sweep.holds
    assert sweep.groups_checked == sum(
        len(enumerate_abelian_groups(m)) for m in range(1, 121)
    )


def test_sweep_conjecture_f_small():
    sweep = sweep_conjecture_f(24)
    assert sweep.holds
    assert sweep.pairs_checked > 0


@pytest.mark.parametrize("bad_n", [0, -3])
def test_theorem_c_rejects_bad_n(bad_n):
    from psiprime import DomainError

    with pytest.raises(DomainError):
        check_theorem_c(2, bad_n)


@pytest.mark.parametrize("bad_p", [1, 4, 6, 2**31 + 11])
def test_theorem_c_rejects_non_prime_p(bad_p):
    from psiprime import DomainError

    with pytest.raises(DomainError):
        check_theorem_c(bad_p, 3)


@pytest.mark.parametrize("p, n", [(2, 0), (4, 3), (2, 65)])
def test_theorem_c_rows_refuse_on_call(p, n):
    # a refusal before any row is made, so the CLI writes nothing.  The
    # pass reads the ZS2 state, not iter_partitions, so n >= 1 and the cap
    # are theorem_c_rows' own checks
    from psiprime import DomainError, SizeLimitError

    with pytest.raises((DomainError, SizeLimitError)):
        theorem_c_rows(p, n)


def test_check_theorem_c_returns_a_planted_drop(monkeypatch):
    from psiprime import verify

    real = verify.pgroup_exponents

    def planted(p, n):
        for i, (text, e) in enumerate(real(p, n)):
            yield text, 0 if i == 5 else e

    monkeypatch.setattr(verify, "pgroup_exponents", planted)
    assert check_theorem_c(2, 6) == ((4, 5),)


def test_check_theorem_c_keeps_no_rows():
    # p(36) = 17,977 rows, several megabytes if kept; streamed, the peak
    # is one row and the few violations
    import tracemalloc

    tracemalloc.start()
    try:
        assert check_theorem_c(2, 36) == ()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("bad_max", [0, -5])
@pytest.mark.parametrize(
    "sweep", [sweep_injectivity, find_cross_order_collisions, sweep_conjecture_f]
)
def test_sweeps_reject_empty_bound(sweep, bad_max):
    from psiprime import DomainError

    with pytest.raises(DomainError, match="must be >= 1"):
        sweep(bad_max)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: sweep_injectivity(20000.0), "20000.0"),
        (lambda: sweep_injectivity(True), "True"),
        (lambda: sweep_conjecture_f(4.0), "4.0"),
        (lambda: find_cross_order_collisions(10.0), "10.0"),
        (lambda: check_theorem_c(2, 3.0), "3.0"),
        (lambda: check_theorem_c(2, True), "True"),
        (lambda: iter_partitions(3.0), "3.0"),
        (lambda: partitions_of(3.0), "3.0"),
        (lambda: partitions_of(True), "True"),
        (lambda: partitions_of("5"), "'5'"),
        (lambda: check_conjecture_f("5"), "'5'"),
        (lambda: check_conjecture_f(4.0), "4.0"),
        (lambda: psi_all(canonicalize([2]), cap=2.5), "2.5"),
        (lambda: psi_all(canonicalize([2]), cap=True), "True"),
        (lambda: enumerate_abelian_groups("5"), "'5'"),
        (lambda: canonicalize(["5"]), "'5'"),
    ],
    ids=[
        "sweep_injectivity-float", "sweep_injectivity-bool", "sweep_conjecture_f-float",
        "collisions-float", "theorem_c-float", "theorem_c-bool", "iter_partitions-float",
        "partitions_of-float", "partitions_of-bool", "partitions_of-str",
        "conjecture_f-str", "conjecture_f-float", "psi_all-cap-float", "psi_all-cap-bool",
        "enumerate-str", "canonicalize-str",
    ],
)
def test_bounds_that_are_not_plain_ints_are_refused_on_entry(call, value):
    from psiprime import DomainError

    # the kept lists of 3 and 1 exist, and a float or bool must not hit them
    partitions_of(3), partitions_of(1)
    with pytest.raises(DomainError, match=f"{value}.*must be an int"):
        call()


_Z4xZ3_2 = canonicalize([4, 3, 3])


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: psi_k(_Z4xZ3_2, True), "True"),
        (lambda: psi_k(_Z4xZ3_2, 2.0), "2.0"),
        (lambda: FactoredInteger({2: 3}).materialize(True), "True"),
        (lambda: FactoredInteger({2: 3}).materialize(2.5), "2.5"),
        (lambda: psi_prime_cyclic_closed_form(2, True), "True"),
        (lambda: psi_prime_rank2_closed_form(2, True, 2), "True"),
        (lambda: psi_prime_cyclic_closed_form(True, 2), "True"),
        (lambda: psi_prime_cyclic_closed_form(2.0, 2), "2.0"),
        (lambda: psi_prime_rank2_closed_form(True, 1, 1), "True"),
        (lambda: psi_prime_rank2_closed_form(2.0, 1, 1), "2.0"),
        (lambda: sweep_conjecture_f(8, jobs=True), "True"),
        (lambda: sweep_conjecture_f(8, jobs=2.5), "2.5"),
        (lambda: sweep_conjecture_f(8, jobs="2"), "'2'"),
        (lambda: theorem_c_rows(2, "3"), "'3'"),
        (lambda: check_theorem_c(2, None), "None"),
        (lambda: parse_group(42), "42"),
        (lambda: Partition((2, True)), "True"),
        (lambda: FactoredInteger({2.0: 1}), "2.0"),
        (lambda: FactoredInteger({2: True}), "True"),
        (lambda: OrderSpectrum([(1, 1), (2.0, 1)]), "2.0"),
        (lambda: OrderSpectrum([(1, 1), (2, True)]), "True"),
        (lambda: factorize(12.0), "12.0"),
    ],
    ids=[
        "psi_k-bool", "psi_k-float", "materialize-bool", "materialize-float",
        "cyclic_closed_form-bool", "rank2_closed_form-bool", "cyclic_closed_form-p-bool",
        "cyclic_closed_form-p-float", "rank2_closed_form-p-bool", "rank2_closed_form-p-float",
        "conjecture_f-jobs-bool",
        "conjecture_f-jobs-float", "conjecture_f-jobs-str", "theorem_c_rows-str",
        "theorem_c-none", "parse_group-int", "Partition-part-bool", "FactoredInteger-prime-float",
        "FactoredInteger-exponent-bool", "OrderSpectrum-order-float",
        "OrderSpectrum-multiplicity-bool", "factorize-float",
    ],
)
def test_arguments_that_are_not_plain_ints_are_refused_on_entry(call, value):
    from psiprime import DomainError

    # each case is a bool, float, str or None where an int is asked for,
    # or an int where the notation string is
    with pytest.raises(DomainError, match=f"{value}.*must be an? (int|str)"):
        call()


def test_sweep_conjecture_f_refuses_bound_past_cap_before_any_order(monkeypatch):
    from psiprime import SizeLimitError, verify
    from psiprime.symmetric import CONJECTURE_F_CAP

    def never(m):
        raise AssertionError(f"check_conjecture_f({m}) ran")

    monkeypatch.setattr(verify, "check_conjecture_f", never)
    with pytest.raises(SizeLimitError, match="cap"):
        sweep_conjecture_f(CONJECTURE_F_CAP + 1)
    with pytest.raises(SizeLimitError, match="cap"):
        sweep_conjecture_f(CONJECTURE_F_CAP + 1, jobs=2)
    with pytest.raises(AssertionError, match="ran"):
        sweep_conjecture_f(CONJECTURE_F_CAP)


def _reference_check_conjecture_f(m):
    # the exact all-pairs check the fingerprints replaced: every group's
    # exact psi_1..psi_m, every pair at every k; psi_all is read through
    # verify so that a planted value reaches both paths
    from psiprime import ConjectureFReport, verify
    from psiprime.symmetric import CONJECTURE_F_CAP

    groups = enumerate_abelian_groups(m)
    values = [verify.psi_all(G, cap=CONJECTURE_F_CAP) for G in groups]
    coincidences = []
    pair_count = 0
    for (i, a), (j, b) in itertools.combinations(enumerate(groups), 2):
        pair_count += 1
        for k in range(1, m + 1):
            if values[i][k - 1] == values[j][k - 1]:
                coincidences.append((a, b, k, values[i][k - 1]))
    return ConjectureFReport(m=m, pair_count=pair_count, coincidences=tuple(coincidences))


def _reference_conjecture_f_sweep(max_order):
    from psiprime import ConjectureFSweep

    reports = [_reference_check_conjecture_f(m) for m in range(1, max_order + 1)]
    return ConjectureFSweep(
        max_order=max_order,
        pairs_checked=sum(r.pair_count for r in reports),
        failures=tuple(r for r in reports if not r.holds),
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_conjecture_f_equals_exact_reference(jobs):
    assert sweep_conjecture_f(128, jobs=jobs) == _reference_conjecture_f_sweep(128)


# Planted values at order 16, whose five groups differ at every psi_k: the
# second group is given the fourth group's psi_5 (or its residue only).
_A, _B, _K = 3, 1, 5


def _plant(monkeypatch, *, residues=(), exact=False, targets=(_B,), k=_K):
    """Copy group _A's psi_k onto each group of order 16 indexed in
    ``targets``: its residue in slot k - 1 of the packed fingerprints at
    the primes in ``residues``, and its exact value if ``exact``.  The
    planted fingerprints pass slot_matches' entry check, and each stage's
    (i, j, k) must equal the column oracle's on the planted residues.
    Returns the (index, prime) of every fingerprint made and the groups
    whose exact psi_all ran.  The patches wrap what verify holds, so a
    second plant stacks on the first."""
    from psiprime import symmetric, verify

    groups = enumerate_abelian_groups(16)
    fingerprints, matches, exact_values = verify.order_fingerprints, verify.slot_matches, verify.psi_all
    made, exact_ran = [], []

    def fake_fingerprints(m, P, live):
        live = list(live)
        made.extend((x, P) for x in live)
        packed = fingerprints(m, P, live)
        if m != 16 or P not in residues:
            return packed
        planted = []
        for x, q in zip(live, packed):
            values = slots(q, m, symmetric._W)
            if x in targets:
                values[k - 1] = slots(psi_packed_mod(groups[_A], P), m, symmetric._W)[k - 1]
            planted.append(pack(values, symmetric._W))
        return planted

    def checked_matches(packed, n, P):
        found = matches(packed, n, P)
        assert found == column_candidates([slots(q, n, symmetric._W) for q in packed])
        return found

    def fake_exact(G, *, cap):
        exact_ran.append(G)
        values = exact_values(G, cap=cap)
        if exact and G in [groups[t] for t in targets]:
            values[k - 1] = exact_values(groups[_A], cap=cap)[k - 1]
        return values

    monkeypatch.setattr(verify, "order_fingerprints", fake_fingerprints)
    monkeypatch.setattr(verify, "slot_matches", checked_matches)
    monkeypatch.setattr(verify, "psi_all", fake_exact)
    return made, exact_ran


def test_conjecture_f_confirms_a_residue_collision_exactly(monkeypatch):
    from psiprime.symmetric import FINGERPRINT_PRIMES

    _, ran = _plant(monkeypatch, residues=FINGERPRINT_PRIMES)
    groups = enumerate_abelian_groups(16)
    report = check_conjecture_f(16)
    assert ran == [groups[_B], groups[_A]]
    assert report.coincidences == ()
    assert report == _reference_check_conjecture_f(16)


@pytest.mark.parametrize("prime", [0, 1])
def test_conjecture_f_needs_no_exact_value_when_one_prime_differs(monkeypatch, prime):
    from psiprime.symmetric import FINGERPRINT_PRIMES

    _, ran = _plant(monkeypatch, residues=(FINGERPRINT_PRIMES[prime],))
    assert check_conjecture_f(16).coincidences == ()
    assert ran == []


def test_conjecture_f_keeps_only_candidates_that_both_primes_match(monkeypatch):
    # groups _B and _A match at k = 5 mod P1 and at k = 6 mod P2: each
    # prime has a match, but no (i, j, k) has both, so no exact value runs
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1, p2 = FINGERPRINT_PRIMES
    _plant(monkeypatch, residues=(p1,))
    made, ran = _plant(monkeypatch, residues=(p2,), k=_K + 1)
    report = check_conjecture_f(16)
    assert sorted(x for x, P in made if P == p2) == [_B, _A]
    assert ran == []
    assert report == _reference_check_conjecture_f(16)


@pytest.mark.parametrize(
    "planted, targets, p2_groups, exact_groups",
    [
        ((), (_B,), [], []),
        ((0,), (_B,), [_B, _A], []),
        ((1,), (_B,), [], []),
        ((0, 1), (_B,), [_B, _A], [_B, _A]),
        # a residue class of three groups: the source and two copies
        ((0, 1), (0, _B), [0, _B, _A], [0, _B, _A]),
    ],
    ids=["unplanted", "p1-only", "p2-only", "both", "triple"],
)
def test_conjecture_f_cascade_expands_mod_p2_only_for_p1_matches(
    monkeypatch, planted, targets, p2_groups, exact_groups
):
    # every group is fingerprinted mod P1; P2 fingerprints only the groups
    # of a P1 match, and exact psi_all runs only for pairs that match at both
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1, p2 = FINGERPRINT_PRIMES
    residues = tuple(FINGERPRINT_PRIMES[i] for i in planted)
    made, exact_ran = _plant(monkeypatch, residues=residues, targets=targets)
    groups = enumerate_abelian_groups(16)
    report = check_conjecture_f(16)
    assert [x for x, P in made if P == p1] == list(range(len(groups)))
    assert sorted(x for x, P in made if P == p2) == sorted(p2_groups)
    assert len(made) == len(groups) + len(p2_groups)
    assert sorted(groups.index(G) for G in exact_ran) == sorted(exact_groups)
    assert report == _reference_check_conjecture_f(16)


def test_conjecture_f_real_p1_match_at_324_is_refuted_mod_p2(monkeypatch):
    # the smallest order with a P1 match: groups 5 and 8 of order 324,
    # Z4xZ3^4 and Z4xZ27xZ3, share psi_116 mod P1 but not mod P2, so no
    # exact value is needed
    from psiprime import symmetric, verify
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1, p2 = FINGERPRINT_PRIMES
    groups = enumerate_abelian_groups(324)
    fingerprinted = []

    def spy(m, P, live):
        fingerprinted.append((P, list(live)))
        return symmetric.order_fingerprints(m, P, live)

    def never(G, *, cap):
        raise AssertionError(f"psi_all({G}) ran")

    monkeypatch.setattr(verify, "order_fingerprints", spy)
    monkeypatch.setattr(verify, "psi_all", never)
    report = check_conjecture_f(324)
    assert fingerprinted == [(p1, list(range(10))), (p2, [5, 8])]
    first = [slots(psi_packed_mod(groups[x], p1), 324, symmetric._W) for x in (5, 8)]
    assert [k for k, (a, b) in enumerate(zip(*first), start=1) if a == b] == [116]
    assert report.coincidences == () and report.pair_count == 45


# Every (m, i, j, k) up to the cap where groups i and j of order m share
# psi_k mod P1, one k per pair: 19 pairs in 18 orders, each refuted mod P2.
_REAL_P1_MATCHES = [
    (324, 5, 8, 116), (1152, 12, 13, 374), (1712, 3, 4, 969), (1792, 9, 10, 658),
    (2048, 12, 22, 1483), (2160, 6, 14, 900), (2304, 26, 39, 821), (2592, 1, 33, 239),
    (2592, 24, 30, 1782), (2896, 1, 4, 951), (2916, 5, 21, 2571), (3000, 1, 5, 212),
    (3008, 1, 6, 285), (3024, 9, 11, 1990), (3456, 35, 42, 304), (3648, 2, 4, 398),
    (3888, 0, 23, 3047), (4000, 8, 18, 3961), (4096, 15, 41, 970),
]


def test_conjecture_f_refutes_every_real_p1_match_mod_p2_with_no_record_built(monkeypatch):
    # the P1 stage's output at each order with a real P1 match, and the P2
    # stage fingerprinting only the groups of those pairs; every report
    # holds with no group, spectrum record or exact value made
    from psiprime import symmetric, verify
    from psiprime.symmetric import FINGERPRINT_PRIMES

    def never(*args, **kwargs):
        raise AssertionError(f"a record or an exact value of {args} was made")

    p1, p2 = FINGERPRINT_PRIMES
    stages = []

    def spy(packed, n, P):
        found = symmetric.slot_matches(packed, n, P)
        stages.append((n, P, len(packed), found))
        return found

    monkeypatch.setattr(verify, "enumerate_abelian_groups", never)
    monkeypatch.setattr(symmetric, "order_spectrum", never)
    monkeypatch.setattr(verify, "psi_all", never)
    monkeypatch.setattr(verify, "slot_matches", spy)
    orders = sorted({m for m, *_ in _REAL_P1_MATCHES})
    assert len(orders) == 18
    assert all(check_conjecture_f(m).holds for m in orders)
    assert [(n, *c) for n, P, _, found in stages if P == p1 for c in found] == _REAL_P1_MATCHES
    live = {m: {x for n, i, j, _ in _REAL_P1_MATCHES if n == m for x in (i, j)} for m in orders}
    assert [(n, size) for n, P, size, _ in stages if P == p2] == [(m, len(live[m])) for m in orders]


def test_the_record_oracle_matches_every_real_p1_match_mod_p1_and_refutes_it_mod_p2():
    # the list-based stages the packed ones replaced, on each pair's group
    # records: its residues agree at k mod P1 and differ there mod P2
    from psiprime import symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1, p2 = FINGERPRINT_PRIMES
    for m, i, j, k in _REAL_P1_MATCHES:
        groups = enumerate_abelian_groups(m)
        for P, agree in [(p1, True), (p2, False)]:
            a, b = (slots(psi_packed_mod(groups[x], P), m, symmetric._W)[k - 1] for x in (i, j))
            assert (a == b) == agree

def test_conjecture_f_reports_a_planted_coincidence_like_the_reference(monkeypatch):
    from psiprime.symmetric import FINGERPRINT_PRIMES

    _plant(monkeypatch, residues=FINGERPRINT_PRIMES, exact=True)
    groups = enumerate_abelian_groups(16)
    report = check_conjecture_f(16)
    assert report == _reference_check_conjecture_f(16)
    assert [(a, b, k) for a, b, k, _ in report.coincidences] == [(groups[_B], groups[_A], _K)]
    sweep = sweep_conjecture_f(16)
    assert sweep == _reference_conjecture_f_sweep(16)
    assert [r.m for r in sweep.failures] == [16]


def test_conjecture_f_reports_three_planted_coincidences_in_pair_order(monkeypatch):
    from psiprime.symmetric import FINGERPRINT_PRIMES

    _plant(monkeypatch, residues=FINGERPRINT_PRIMES, exact=True, targets=(0, _B))
    groups = enumerate_abelian_groups(16)
    report = check_conjecture_f(16)
    assert report == _reference_check_conjecture_f(16)
    pairs = [(0, _B), (0, _A), (_B, _A)]
    assert [(a, b, k) for a, b, k, _ in report.coincidences] == [
        (groups[i], groups[j], _K) for i, j in pairs
    ]


def test_cli_conjecture_f_reports_a_planted_coincidence(monkeypatch, capsys):
    from psiprime import cli
    from psiprime.symmetric import FINGERPRINT_PRIMES

    _plant(monkeypatch, residues=FINGERPRINT_PRIMES, exact=True)
    code = cli.main(["verify", "conjecture-f", "--max-order", "16"])
    out, err = capsys.readouterr()
    monkeypatch.setattr(cli, "sweep_conjecture_f", lambda m, jobs: _reference_conjecture_f_sweep(m))
    assert cli.main(["verify", "conjecture-f", "--max-order", "16"]) == code == 4
    assert capsys.readouterr() == (out, err)
    assert "PSI_K COINCIDENCE FOUND" in out


def test_conjecture_f_order_with_one_group_needs_no_fingerprint(monkeypatch):
    from psiprime import verify

    def never(m, P, live):
        raise AssertionError(f"a fingerprint of order {m} mod {P} ran")

    monkeypatch.setattr(verify, "order_fingerprints", never)
    for m in (1, 2, 97, 15, 30):
        assert check_conjecture_f(m).pair_count == 0


@pytest.mark.parametrize("k", [1, 16])
def test_conjecture_f_reports_a_coincidence_planted_in_an_edge_slot(monkeypatch, k):
    # the first and the last slot of order 16: a zero-slot mask one slot too
    # narrow misses k = 16.  Only the planted pair is unpacked, at each prime
    from psiprime import symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    _plant(monkeypatch, residues=FINGERPRINT_PRIMES, exact=True, k=k)
    unpacked = []
    unpack = symmetric._unpack
    monkeypatch.setattr(symmetric, "_unpack", lambda x, n: unpacked.append(n) or unpack(x, n))
    groups = enumerate_abelian_groups(16)
    report = check_conjecture_f(16)
    assert report == _reference_check_conjecture_f(16)
    assert [(a, b, j) for a, b, j, _ in report.coincidences] == [(groups[_B], groups[_A], k)]
    assert unpacked == [16, 16]


def test_conjecture_f_unpacks_no_pair_without_a_p1_match(monkeypatch):
    # no order up to 256 has a P1 match, so no pair's XOR has a zero slot; a
    # zero-slot mask one slot too wide reads one in every pair and unpacks
    # all 911, for the same output
    from psiprime import symmetric

    def never(x, n):
        raise AssertionError(f"a pair of order {n} was unpacked")

    monkeypatch.setattr(symmetric, "_unpack", never)
    sweep = sweep_conjecture_f(256)
    assert sweep.holds and sweep.pairs_checked == 911


def test_conjecture_f_builds_no_group_for_an_order_without_a_p1_match(monkeypatch):
    # no order up to 256 has a P1 match, so the sweep reads every spectrum
    # from the Sylow tables and builds no group or spectrum record
    from psiprime import symmetric, verify

    def never(arg):
        raise AssertionError(f"a record for {arg} was built")

    monkeypatch.setattr(verify, "enumerate_abelian_groups", never)
    monkeypatch.setattr(symmetric, "order_spectrum", never)
    sweep = sweep_conjecture_f(256)
    assert sweep.holds and sweep.pairs_checked == 911


def test_slot_matches_equal_the_column_oracle_up_to_300():
    from psiprime import symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1 = FINGERPRINT_PRIMES[0]
    for m in range(1, 301):
        packed = [psi_packed_mod(G, p1) for G in enumerate_abelian_groups(m)]
        expected = column_candidates([slots(q, m, symmetric._W) for q in packed])
        assert symmetric.slot_matches(packed, m, p1) == expected


def test_slot_matches_equal_the_column_oracle_at_the_real_p1_match_at_324():
    from psiprime import symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1 = FINGERPRINT_PRIMES[0]
    packed = [psi_packed_mod(G, p1) for G in enumerate_abelian_groups(324)]
    expected = column_candidates([slots(q, 324, symmetric._W) for q in packed])
    assert symmetric.slot_matches(packed, 324, p1) == expected == [(5, 8, 116)]


# residues mod P1 = 2^22 - 3 drawn from its edges: 0, 1, the top bit below
# 2^22 and P1 - 1, so that many pairs agree in some slot and the XORs of
# the rest run up to P1 = 1 ^ (P1 - 1); the top slot, psi_n mod P1, is
# never 0 in a fingerprint, and slot_matches refuses one where it is
_EDGE_RESIDUES = st.sampled_from([0, 1, 2**21, 2**22 - 4])


def _edge_fingerprints(n):
    below = st.lists(_EDGE_RESIDUES, min_size=n - 1, max_size=n - 1)
    row = st.builds(lambda low, top: low + [top], below, _EDGE_RESIDUES.filter(bool))
    return st.lists(row, min_size=2, max_size=6)


@given(st.integers(min_value=1, max_value=70).flatmap(_edge_fingerprints))
@settings(max_examples=200, deadline=None)
def test_slot_matches_equal_the_column_oracle_on_edge_residues(residues):
    from psiprime import symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    packed = [pack(r, symmetric._W) for r in residues]
    p1 = FINGERPRINT_PRIMES[0]
    assert symmetric.slot_matches(packed, len(residues[0]), p1) == column_candidates(residues)


def _fingerprints_of_324():
    # the 10 fingerprints of order 324 at P1, which match at (5, 8, 116)
    from psiprime.symmetric import FINGERPRINT_PRIMES

    return [psi_packed_mod(G, FINGERPRINT_PRIMES[0]) for G in enumerate_abelian_groups(324)]


@pytest.mark.parametrize(
    "n, error, message",
    [
        (0, "DomainError", "n = 0 must be >= 1"),
        (-3, "DomainError", "n = -3 must be >= 1"),
        (324.0, "DomainError", "n = 324.0 must be an int"),
        (True, "DomainError", "n = True must be an int"),
        (4097, "SizeLimitError", "n = 4097 exceeds the conjecture-f fingerprint cap 4096"),
        (5000, "SizeLimitError", "n = 5000 exceeds the conjecture-f fingerprint cap 4096"),
    ],
)
def test_slot_matches_refuses_n_outside_1_to_the_cap(n, error, message):
    # n = 0 and -3 returned [], and 5000 raised "negative shift count"
    import psiprime
    from psiprime import symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    with pytest.raises(getattr(psiprime, error), match=message):
        symmetric.slot_matches(_fingerprints_of_324(), n, FINGERPRINT_PRIMES[0])


@pytest.mark.parametrize("n", [1, 100, 323, 325, 400, 4096])
def test_slot_matches_refuses_fingerprints_that_do_not_fill_n_slots(n):
    # at n = 100 the real match (5, 8, 116) was missed, a false negative,
    # and at n = 400 matches were reported at k = 325 and above
    from psiprime import DomainError, symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    message = f"a fingerprint does not fill exactly n = {n} slots of 56 bits"
    with pytest.raises(DomainError, match=message):
        symmetric.slot_matches(_fingerprints_of_324(), n, FINGERPRINT_PRIMES[0])


def test_slot_matches_refuses_one_fingerprint_that_does_not_fill_n_slots():
    # among nine real fingerprints of order 324: one with its top slot,
    # psi_324 mod P1, cleared; one a slot longer; a negative one; a float
    from psiprime import DomainError, symmetric
    from psiprime.symmetric import FINGERPRINT_PRIMES

    p1, w = FINGERPRINT_PRIMES[0], symmetric._W
    packed = _fingerprints_of_324()
    assert symmetric.slot_matches(packed, 324, p1) == [(5, 8, 116)]
    top = packed[9] >> w * 323 << w * 323
    for bad in (packed[9] - top, packed[9] + (top << w), -packed[9], float(packed[0] & 0xFFFF)):
        with pytest.raises(DomainError, match="does not fill exactly n = 324 slots"):
            symmetric.slot_matches(packed[:9] + [bad], 324, p1)


def test_check_conjecture_f_refuses_an_order_past_the_cap_before_enumerating(monkeypatch):
    from psiprime import SizeLimitError
    from psiprime.symmetric import CONJECTURE_F_CAP

    _forbid_group_enumeration(monkeypatch)
    with pytest.raises(
        SizeLimitError,
        match=f"m = {CONJECTURE_F_CAP + 1} exceeds the conjecture-f fingerprint cap {CONJECTURE_F_CAP}",
    ):
        check_conjecture_f(CONJECTURE_F_CAP + 1)


def _reference_injectivity_sweep(max_order, jobs):
    # the full pipeline: every group of every order, psi' of each, grouped,
    # with the orders fanned out over jobs worker processes
    from psiprime import InjectivitySweep
    from psiprime.verify import _fan_out

    reports = _fan_out(check_injectivity, range(1, max_order + 1), jobs)
    return InjectivitySweep(
        max_order=max_order,
        groups_checked=sum(len(enumerate_abelian_groups(m)) for m in range(1, max_order + 1)),
        failures=tuple(r for r in reports if not r.holds),
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("max_order", [1, 2, 12, 120, 2000])
def test_sweep_injectivity_equals_full_pipeline(max_order, jobs):
    assert sweep_injectivity(max_order) == _reference_injectivity_sweep(max_order, jobs)


def _collide_partitions_of_4(monkeypatch, planted):
    # each partition of 4 in planted takes the exponent, at p = 2, of the
    # partition it maps to, both in the cached kernel behind
    # psi_prime_exponent (read by psi_prime, so the reference sweep, and
    # through psi_prime_exponent by the counts-list oracle) and in the
    # prefix-sum pass the fast sweep reads its exponents from
    from psiprime import psi, verify

    real_exponent = psi._exponent
    real_rows = psi.pgroup_exponents
    by_text = {"[" + ",".join(map(str, q)) + "]": to for q, to in planted.items()}

    def fake_exponent(p, parts):
        if p == 2:
            parts = planted.get(tuple(parts), parts)
        return real_exponent(p, parts)

    def fake_rows(p, n):
        for text, e in real_rows(p, n):
            if p == 2 and text in by_text:
                e = real_exponent(2, by_text[text])
            yield text, e

    monkeypatch.setattr(psi, "_exponent", fake_exponent)
    monkeypatch.setattr(verify, "pgroup_exponents", fake_rows)


def _collide_two_partitions_of_4(monkeypatch):
    # partitions 2+2 and 2+1+1 share the exponent at p = 2
    _collide_partitions_of_4(monkeypatch, {(2, 2): (2, 1, 1)})


def _forbid_full_check(monkeypatch):
    from psiprime import verify

    def never(m):
        raise AssertionError(f"check_injectivity({m}) ran")

    monkeypatch.setattr(verify, "check_injectivity", never)


def _forbid_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


def test_injectivity_classes_of_three_planted_partitions_come_in_partition_order(monkeypatch):
    # 1+1+1+1 and 4 copy 3+1's exponent and 2+2 copies 2+1+1's: two classes
    # at 16, the first seen holding the larger value; values ascending,
    # each class in partition order
    _collide_partitions_of_4(monkeypatch, {(1, 1, 1, 1): (3, 1), (4,): (3, 1), (2, 2): (2, 1, 1)})
    groups = enumerate_abelian_groups(16)
    assert [G.components[0][1].parts for G in groups] == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)
    ]
    report = check_injectivity(16)
    assert report.duplicates == ((groups[1], groups[2]), (groups[0], groups[3], groups[4]))
    assert sweep_injectivity(16).failures == (report,)


def test_sweep_injectivity_reports_a_planted_collision(monkeypatch):
    _collide_two_partitions_of_4(monkeypatch)
    _forbid_full_check(monkeypatch)
    _forbid_pool(monkeypatch)
    sweep = sweep_injectivity(200)
    # the per-order reference reports every order 16 exactly divides; the
    # sweep reports the prime power 16 alone, with the same classes
    reference = _reference_injectivity_sweep(200, 1)
    assert [r.m for r in reference.failures] == [16, 48, 80, 112, 144, 176]
    assert sweep.failures == reference.failures[:1] == (check_injectivity(16),)
    assert sweep.groups_checked == reference.groups_checked


def _assert_one_duplicate_at_16(fmt, out):
    if fmt == "json":
        assert json.loads(out)["duplicates"] == [
            {"m": "16", "groups": [{"2": [2, 1, 1]}, {"2": [2, 2]}]}
        ]
    else:
        assert out.count("DUPLICATE at order ") == 1
        assert out.endswith("DUPLICATE at order 16: Z4xZ2^2, Z4^2\n")


def _cli_injectivity(capsys, fmt, max_order):
    from psiprime import cli

    argv = ["verify", "injectivity", "--max-order", str(max_order), "--jobs", "2"]
    assert cli.main(argv + ([] if fmt == "table" else [f"--{fmt}"])) == 3
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_cli_injectivity_reports_a_planted_collision(monkeypatch, capsys):
    _collide_two_partitions_of_4(monkeypatch)
    _forbid_full_check(monkeypatch)
    _forbid_pool(monkeypatch)
    for fmt in ("table", "json", "csv"):
        _assert_one_duplicate_at_16(fmt, _cli_injectivity(capsys, fmt, 200))


def _without_summary(fmt, out, max_order, groups_checked):
    # out with its one summary row taken out, which must be there once
    row = {
        "table": f"{max_order:<9}  {groups_checked:<14}  1\n",
        "json": f'"max_order":"{max_order}","groups_checked":"{groups_checked}"',
        "csv": f"{max_order},{groups_checked},1\r\n",
    }[fmt]
    assert out.count(row) == 1, (fmt, out)
    return out.replace(row, "")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_cli_injectivity_reports_a_planted_collision_past_the_cap(monkeypatch, capsys, fmt):
    _collide_two_partitions_of_4(monkeypatch)
    _forbid_full_check(monkeypatch)
    _forbid_pool(monkeypatch)
    # the bytes at 200, at the cap 10^6 and past it differ only in the
    # summary row: one duplicate at 16 and no note
    small = _cli_injectivity(capsys, fmt, 200)
    _assert_one_duplicate_at_16(fmt, small)
    rest = _without_summary(fmt, small, 200, sweep_injectivity(200).groups_checked)
    for max_order in (10**6, 10**6 + 1):
        out = _cli_injectivity(capsys, fmt, max_order)
        groups_checked = sweep_injectivity(max_order).groups_checked
        assert _without_summary(fmt, out, max_order, groups_checked) == rest


def test_sweep_injectivity_reports_a_planted_collision_past_the_cap_at_its_prime_power(
    monkeypatch,
):
    from psiprime.groups import ENUMERATION_CAP

    _collide_two_partitions_of_4(monkeypatch)
    _forbid_full_check(monkeypatch)
    _forbid_pool(monkeypatch)
    for max_order in (ENUMERATION_CAP, ENUMERATION_CAP + 1):
        sweep = sweep_injectivity(max_order)
        # the classes check_injectivity gives at 16 (the name imported
        # above is the real one, which _forbid_full_check does not reach)
        assert sweep.failures == (check_injectivity(16),)


def test_sweep_injectivity_refuses_bound_past_cap_before_any_work(monkeypatch):
    from psiprime import SizeLimitError, verify
    from psiprime.verify import INJECTIVITY_CAP

    def never(*args):
        raise AssertionError(f"sweep work ran on {args}")

    monkeypatch.setattr(verify, "_primes_to", never)
    monkeypatch.setattr(verify, "pgroup_exponents", never)
    with pytest.raises(
        SizeLimitError,
        match=f"max_order = {INJECTIVITY_CAP + 1} exceeds the injectivity cap {INJECTIVITY_CAP}",
    ):
        sweep_injectivity(INJECTIVITY_CAP + 1)


def test_sweep_injectivity_at_cap_needs_no_group(monkeypatch):
    from psiprime.groups import ENUMERATION_CAP

    _forbid_full_check(monkeypatch)
    _forbid_pool(monkeypatch)
    sweep = sweep_injectivity(ENUMERATION_CAP)
    assert sweep.holds
    assert sweep.groups_checked == 2_284_717


def test_sweep_injectivity_at_10_9_needs_no_group(monkeypatch):
    # the count over powerful numbers, pinned where no list of counts fits
    _forbid_full_check(monkeypatch)
    _forbid_pool(monkeypatch)
    sweep = sweep_injectivity(10**9)
    assert sweep.holds
    assert sweep.groups_checked == 2_294_454_056


def test_sweep_injectivity_equals_the_counts_list_sweep_up_to_2000():
    from oracles import counts_list_injectivity_sweep

    for max_order in range(1, 2001):
        assert sweep_injectivity(max_order) == counts_list_injectivity_sweep(max_order)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("max_order", [10**5, 10**6])
def test_sweep_injectivity_equals_the_counts_list_sweep(max_order, jobs):
    from oracles import counts_list_injectivity_sweep

    expected = counts_list_injectivity_sweep(max_order, jobs=jobs)
    assert sweep_injectivity(max_order) == expected


def test_sweep_injectivity_equals_the_counts_list_sweep_with_a_planted_collision(monkeypatch):
    from oracles import counts_list_injectivity_sweep

    # the old sweep reads its exponents from psi_prime_exponent, one call
    # per group, so the planted collision reaches it too
    _collide_two_partitions_of_4(monkeypatch)
    expected = counts_list_injectivity_sweep(3000)
    assert [r.m for r in expected.failures][:3] == [16, 48, 80]
    # the old sweep reports every order 16 exactly divides; the sweep
    # reports the order 16 alone, with the same classes
    sweep = sweep_injectivity(3000)
    assert sweep.failures == expected.failures[:1]
    assert sweep.groups_checked == expected.groups_checked


def test_sweep_injectivity_count_matches_independent_factorization():
    from oracles import partition_count, trial_division

    expected = sum(
        math.prod(partition_count(e) for e in trial_division(m).values())
        for m in range(1, 10**5 + 1)
    )
    assert sweep_injectivity(10**5).groups_checked == 226_610 == expected


def _count_inputs(max_order):
    # the primes up to sqrt(max_order) by trial division and p(k) for every
    # 2^k <= max_order by the recurrence, not by the sweep's sieve and pass
    from oracles import partition_count, trial_division

    primes = [p for p in range(2, math.isqrt(max_order) + 1) if trial_division(p) == {p: 1}]
    return primes, [partition_count(k) for k in range(max_order.bit_length())]


@pytest.mark.parametrize("max_order", [1, 7, 100, 4096, 10**6, 123_456_789])
def test_count_groups_equals_the_recursion(max_order):
    # the flat pass over the primes with p^4 > n against one call per
    # powerful number; from 4096 on it takes p^3 terms (11^3 <= 4096 < 11^4)
    from oracles import recursive_count_groups
    from psiprime.verify import _count_groups

    primes, types = _count_inputs(max_order)
    assert _count_groups(max_order, primes, types) == recursive_count_groups(
        max_order, primes, types
    )


@given(st.integers(min_value=1, max_value=10**7))
@settings(max_examples=60, deadline=None)
def test_count_groups_equals_the_recursion_on_any_bound(max_order):
    from oracles import recursive_count_groups
    from psiprime.verify import _count_groups

    primes, types = _count_inputs(max_order)
    assert _count_groups(max_order, primes, types) == recursive_count_groups(
        max_order, primes, types
    )


def test_square_exponents_equal_the_prefix_sum_pass():
    from oracles import trial_division
    from psiprime.psi import pgroup_exponents
    from psiprime.verify import _square_exponents

    primes = [p for p in range(2, 10**4 + 1) if trial_division(p) == {p: 1}]
    for p in primes + [2**31 - 1]:
        assert _square_exponents(p) == [e for _, e in pgroup_exponents(p, 2)], p


def test_sweep_injectivity_reports_a_planted_square_collision_at_p_squared(monkeypatch):
    # Z9 takes the exponent of Z3^2, both in the kernel that psi_prime
    # reads and in the closed forms the sweep reads at n = 2
    from psiprime import psi, verify

    real_exponent, real_squares = psi._exponent, verify._square_exponents

    def fake_exponent(p, parts):
        return real_exponent(p, (1, 1) if (p, parts) == (3, (2,)) else parts)

    def fake_squares(p):
        e = real_squares(p)
        return [e[0], e[0]] if p == 3 else e

    monkeypatch.setattr(psi, "_exponent", fake_exponent)
    monkeypatch.setattr(verify, "_square_exponents", fake_squares)
    report = check_injectivity(9)
    assert report.duplicates == ((parse_group("Z3^2"), parse_group("Z9")),)
    _forbid_full_check(monkeypatch)
    for max_order, groups in ((9, 13), (10**6, 2_284_717), (10**9, 2_294_454_056)):
        sweep = sweep_injectivity(max_order)
        assert (sweep.failures, sweep.groups_checked) == ((report,), groups)


def _forbid_group_enumeration(monkeypatch):
    from psiprime import groups, verify

    def never(m, **kwargs):
        raise AssertionError(f"enumerate_abelian_groups({m}) ran")

    monkeypatch.setattr(groups, "enumerate_abelian_groups", never)
    monkeypatch.setattr(verify, "enumerate_abelian_groups", never)


def test_collisions_refuse_bound_past_cap_before_any_order(monkeypatch):
    from psiprime import SizeLimitError
    from psiprime.groups import ENUMERATION_CAP

    _forbid_group_enumeration(monkeypatch)
    with pytest.raises(
        SizeLimitError,
        match=f"max_order = {ENUMERATION_CAP + 1} exceeds the enumeration cap {ENUMERATION_CAP}",
    ):
        find_cross_order_collisions(ENUMERATION_CAP + 1)
    with pytest.raises(AssertionError, match="ran"):
        find_cross_order_collisions(1)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in
    this process, starts nothing."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args, chunksize=1):
        return map(fn, args)


@pytest.mark.parametrize(
    "cpus, max_order, jobs, workers",
    [(8, 2, 100_000, [2]), (4, 48, 100_000, [4]), (8, 48, 3, [3]), (None, 48, 100_000, []),
     (8, 1, 100_000, []), (8, 48, 1, [])],
    ids=["args-bound", "cpu-bound", "jobs-bound", "no-cpu-count", "one-order", "one-job"],
)
def test_fan_out_bounds_workers_by_args_and_cpus(monkeypatch, cpus, max_order, jobs, workers):
    import concurrent.futures
    import os

    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # the os.cpu_count() fallback, taken where there is no affinity mask
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    sweep = sweep_conjecture_f(max_order, jobs=jobs)
    assert _SerialPool.created == workers
    assert sweep == sweep_conjecture_f(max_order, jobs=1)


def test_jobs_auto_counts_the_cpus_this_process_may_run_on(monkeypatch, capsys):
    # one CPU in the affinity mask of an eight-CPU host: "auto" is one job,
    # and an asked-for two run in one process, with the same bytes
    import concurrent.futures
    import os

    from psiprime.cli import main
    from psiprime.verify import _resolve_jobs

    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _resolve_jobs(None) == 1
    outputs = []
    for jobs in ("auto", "2", "1"):
        argv = ["verify", "conjecture-f", "--max-order", "48", "--jobs", jobs, "--json"]
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert _SerialPool.created == []
    assert outputs[0] == outputs[1] == outputs[2]
