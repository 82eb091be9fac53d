"""Acceptance suite: every criterion is exact (no tolerances anywhere) and
prints one pass/fail line, visible with ``pytest tests/test_acceptance.py -v -s``.

Each criterion also carries the runtime budget it must stay inside; elapsed
time is printed next to the verdict and asserted against the budget.
"""

import json
import time

from psiprime import (
    AbelianGroup,
    FactoredInteger,
    Partition,
    brute_force_spectrum,
    canonicalize,
    check_theorem_c,
    enumerate_abelian_groups,
    find_cross_order_collisions,
    order_polynomial,
    order_spectrum,
    partitions_of,
    psi_all,
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_exponent,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    psi_sum,
    sweep_conjecture_f,
    sweep_injectivity,
)
from psiprime.verify import theorem_c_rows
from oracles import spectrum_orders, subset_esp


def _criterion(num, name, limit_s, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = str(exc) or "assertion failed"
    elapsed = time.perf_counter() - start
    verdict = "FAIL" if failure else "PASS"
    budget = f", budget {limit_s:.0f}s" if limit_s else ""
    print(f"criterion {num} [{verdict}] {name} ({elapsed:.2f}s{budget})")
    assert failure is None, f"criterion {num} ({name}): {failure}"
    if limit_s is not None:
        assert elapsed < limit_s, (
            f"criterion {num} ({name}) blew its runtime budget: "
            f"{elapsed:.2f}s >= {limit_s}s"
        )


def test_criterion_1_known_collision_pair():
    def body():
        a = canonicalize([4, 3, 3])
        b = canonicalize([2, 2, 2, 2, 3])
        shared = FactoredInteger({2: 45, 3: 32})
        assert psi_prime(a) == shared
        assert psi_prime(b) == shared
        report = find_cross_order_collisions(48)
        assert (a, b, shared) in report.pairs

    _criterion(1, "cross-order collision pair (orders 36/48) reproduced", 1.0, body)


def test_criterion_2_pgroup_formula_vs_spectrum_oracle():
    def body():
        for p in (2, 3, 5, 7):
            n = 1
            while p**n <= 4096:
                for q in partitions_of(n):
                    G = AbelianGroup(((p, q),))
                    exponent_of = {p**i: i for i in range(q.parts[0] + 1)}
                    oracle = sum(
                        exponent_of[d] * m for d, m in order_spectrum(G).entries
                    )
                    assert psi_prime_exponent(p, q.parts) == oracle, (p, q.parts)
                n += 1

    _criterion(2, "p-group exponent formula = spectrum oracle (p^n <= 4096)", 10.0, body)


def test_criterion_3_closed_forms():
    def body():
        for p in (2, 3, 5):
            for alpha in range(1, 9):
                got = psi_prime_cyclic_closed_form(p, alpha)
                assert got == psi_prime(AbelianGroup(((p, Partition((alpha,))),))), (
                    p, alpha,
                )
            for alpha in range(1, 7):
                for beta in range(alpha, 7):
                    got = psi_prime_rank2_closed_form(p, alpha, beta)
                    G = AbelianGroup(((p, Partition((beta, alpha))),))
                    assert got == psi_prime(G), (p, alpha, beta)

    _criterion(3, "cyclic and rank-two closed forms, exact divisions", 1.0, body)


def test_criterion_4_monotonicity_biconditional():
    def body():
        for p in (2, 3, 5, 7):
            for n in range(1, 13):
                assert check_theorem_c(p, n) == (), (p, n)
                rows = [(tuple(json.loads(t)), e) for t, e in theorem_c_rows(p, n)]
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        (qa, ea), (qb, eb) = rows[i], rows[j]
                        assert (qa > qb) - (qa < qb) == (
                            (ea > eb) - (ea < eb)
                        ), (p, n, i, j)

    _criterion(4, "exponent order = partition order, all pairs (n <= 12)", 30.0, body)


def test_criterion_5_injectivity_at_fixed_order():
    def body():
        sweep = sweep_injectivity(10**4)
        assert sweep.holds, sweep.failures

    _criterion(5, "psi' injective on each order m <= 10^4", 120.0, body)


def test_criterion_6_coprime_combination_vs_spectrum():
    def body():
        for m in range(1, 2001):
            for G in enumerate_abelian_groups(m):
                assert psi_prime(G) == psi_prime_from_spectrum(order_spectrum(G)), m

    _criterion(6, "per-Sylow combine = direct spectrum product (|G| <= 2000)", 60.0, body)


def test_criterion_7_spectrum_oracle_concordance():
    def body():
        for m in range(1, 2001):
            for G in enumerate_abelian_groups(m):
                assert order_spectrum(G) == brute_force_spectrum(G), m

    _criterion(7, "counting spectrum = literal enumeration (|G| <= 2000)", 60.0, body)


def test_criterion_8_symmetric_functions():
    def body():
        for m in range(1, 13):
            for G in enumerate_abelian_groups(m):
                orders = spectrum_orders(brute_force_spectrum(G))
                assert psi_all(G) == [subset_esp(orders, k) for k in range(1, m + 1)], m
        for m in range(1, 257):
            for G in enumerate_abelian_groups(m):
                values = psi_all(G)
                assert values[0] == psi_sum(G), m
                assert values[-1] == psi_prime(G).materialize(1000), m
        for m in range(1, 65):
            for G in enumerate_abelian_groups(m):
                coeffs = order_polynomial(G).coeffs
                values = psi_all(G)
                for k in range(1, m + 1):
                    assert coeffs[m - k] == (-1) ** k * values[k - 1], (m, k)

    _criterion(8, "psi_k: subset oracle, endpoints, sign relation", None, body)


def test_criterion_9_single_psi_k_separates_groups():
    def body():
        sweep = sweep_conjecture_f(96)
        if not sweep.holds:
            # a genuine coincidence would be a finding worth publishing, not
            # a bug; make it impossible to miss
            lines = ["PSI_K COINCIDENCE FOUND (conjecture counterexample candidate):"]
            for report in sweep.failures:
                for a, b, k, v in report.coincidences:
                    lines.append(f"  order {report.m}: k={k} shared value {v}")
            raise AssertionError("\n".join(lines))

    _criterion(9, "every single psi_k separates same-order groups (m <= 96)", 300.0, body)
