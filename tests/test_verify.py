import itertools

import pytest

from psiprime import (
    FactoredInteger,
    canonicalize,
    check_conjecture_f,
    check_injectivity,
    check_theorem_c,
    enumerate_abelian_groups,
    find_cross_order_collisions,
    lex_compare,
    order_spectrum,
    psi_prime_from_spectrum,
    sweep_conjecture_f,
    sweep_injectivity,
)


def test_theorem_c_2_3():
    report = check_theorem_c(2, 3)
    assert [(q.parts, e) for q, e in report.rows] == [
        ((1, 1, 1), 7),
        ((2, 1), 11),
        ((3,), 17),
    ]
    assert report.violations == ()
    assert report.holds


def test_theorem_c_single_row():
    report = check_theorem_c(2, 1)
    assert len(report.rows) == 1
    assert report.holds


def test_theorem_c_3_5_cross_checked_against_spectrum():
    report = check_theorem_c(3, 5)
    assert len(report.rows) == 7  # p(5)
    exponents = [e for _, e in report.rows]
    assert exponents == sorted(exponents) and len(set(exponents)) == 7
    for q, e in report.rows:
        G = canonicalize([3**a for a in q.parts])
        assert psi_prime_from_spectrum(order_spectrum(G)).as_dict() == {3: e}


def test_theorem_c_full_biconditional_small():
    for p in (2, 3):
        for n in range(1, 9):
            rows = check_theorem_c(p, n).rows
            for (qa, ea), (qb, eb) in itertools.combinations(rows, 2):
                cmp_lex = lex_compare(qa, qb)
                cmp_exp = (ea > eb) - (ea < eb)
                assert cmp_lex == cmp_exp


def test_injectivity_36():
    report = check_injectivity(36)
    assert len(report.entries) == 4
    assert len({value for _, value in report.entries}) == 4
    assert report.duplicates == ()
    assert report.holds


def test_injectivity_prime_order_vacuous():
    report = check_injectivity(13)
    assert len(report.entries) == 1
    assert report.holds


def test_injectivity_64_exponents_increase_with_enumeration_order():
    report = check_injectivity(64)
    assert len(report.entries) == 11  # p(6)
    exponents = [value.as_dict()[2] for _, value in report.entries]
    assert exponents == sorted(exponents)
    assert len(set(exponents)) == 11


def test_collisions_up_to_10_empty():
    assert find_cross_order_collisions(10).pairs == ()


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


def test_sweeps_deterministic_across_jobs():
    serial = sweep_injectivity(60, jobs=1)
    parallel = sweep_injectivity(60, jobs=2)
    assert serial == parallel


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


@pytest.mark.parametrize("bad_max", [0, -5])
@pytest.mark.parametrize(
    "sweep", [sweep_injectivity, find_cross_order_collisions, sweep_conjecture_f]
)
def test_sweeps_reject_empty_bound(sweep, bad_max):
    from psiprime import DomainError

    with pytest.raises(DomainError, match="must be >= 1"):
        sweep(bad_max)


def test_sweep_conjecture_f_refuses_bound_past_cap_before_any_order(monkeypatch):
    from psiprime import SizeLimitError, verify
    from psiprime.symmetric import SYMMETRIC_CAP

    def never(m):
        raise AssertionError(f"check_conjecture_f({m}) ran")

    monkeypatch.setattr(verify, "check_conjecture_f", never)
    with pytest.raises(SizeLimitError, match="cap"):
        sweep_conjecture_f(SYMMETRIC_CAP + 1)
    with pytest.raises(SizeLimitError, match="cap"):
        sweep_conjecture_f(SYMMETRIC_CAP + 1, jobs=2)
    with pytest.raises(AssertionError, match="ran"):
        sweep_conjecture_f(SYMMETRIC_CAP)
