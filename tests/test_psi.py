import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiprime import (
    AbelianGroup,
    ConsistencyError,
    DomainError,
    FactoredInteger,
    Partition,
    SizeLimitError,
    brute_force_spectrum,
    canonicalize,
    enumerate_abelian_groups,
    order_spectrum,
    partitions_of,
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_exponent,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    psi_sum,
)
from psiprime.arith import exact_div
from psiprime.partitions import iter_partitions
from psiprime.psi import pgroup_exponents
from psiprime.verify import check_theorem_c, sweep_injectivity
from oracles import f_eval, psi_prime_exponent_loop


def fi(d):
    return FactoredInteger(d)


def brute_psi_prime(G):
    return psi_prime_from_spectrum(brute_force_spectrum(G))


# ---------------------------------------------------------------- FactoredInteger

def test_factored_integer_normalization_and_arithmetic():
    assert fi({}) == FactoredInteger()
    assert fi({2: 0, 3: 2}) == fi({3: 2})
    with pytest.raises(DomainError):
        fi({4: 1})
    with pytest.raises(DomainError):
        fi({2: -1})
    with pytest.raises(DomainError, match="duplicate prime 2"):
        FactoredInteger(((2, 1), (2, 5)))


def test_factored_integer_materialize():
    assert fi({2: 3, 3: 4}).materialize(10) == 648
    assert FactoredInteger().materialize(1) == 1
    with pytest.raises(SizeLimitError):
        fi({2: 10**6}).materialize(1000)
    with pytest.raises(SizeLimitError, match=r"^value has ~4 digits, over the limit 3$"):
        fi({2: 3, 5: 3}).materialize(3)


def test_materialize_refuses_an_exponent_past_the_float_range():
    # a 401-digit exponent: e * log10(p) overflows a float
    value = FactoredInteger({2: 10**400})
    with pytest.raises(SizeLimitError, match=r"^value has over 11 digits, over the limit 10$"):
        value.materialize(10)


def test_materialize_refuses_an_exponent_past_the_float_range_under_a_huge_limit():
    # the limit does not refuse it, but the float estimate cannot be made and
    # the value, with over 10^300 digits, cannot be built
    refusal = r"^value has over 10\^300 digits, too many to build$"
    with pytest.raises(SizeLimitError, match=refusal):
        FactoredInteger({2: 10**400}).materialize(10**400)


@pytest.mark.parametrize(
    "factors, limit, value",
    [
        ({3: 2}, 1, 9),
        ({5: 4}, 3, 625),
        ({3: 3, 37: 1}, 3, 999),
        # its float estimate rounds to exactly 18 digits
        ({3: 2, 2071723: 1, 5363222357: 1}, 17, 10**17 - 1),
    ],
    ids=["Z3-psi-prime", "Z5-psi-prime", "999", "10^17-1"],
)
def test_materialize_accepts_values_that_fit(factors, limit, value):
    assert fi(factors).materialize(limit) == value


def test_materialize_limit_is_exact_for_small_psi_prime():
    # every value fits in its own digit count and not in one fewer
    for m in range(2, 200):
        for G in enumerate_abelian_groups(m):
            value = psi_prime(G)
            digits = len(str(value.materialize(10**4)))
            assert value.materialize(digits) == value.materialize(10**4), G
            if digits > 1:
                with pytest.raises(SizeLimitError):
                    value.materialize(digits - 1)


@pytest.mark.parametrize(
    "factors, message",
    [
        ({2.5: 1}, r"prime = 2\.5 must be an int"),
        ({2: 1.5}, r"exponent = 1\.5 must be an int"),
        ({"3": 1}, "prime = '3' must be an int"),
        ({3: True}, "exponent = True must be an int"),
        ({True: 1}, "prime = True must be an int"),
        ({2.0: 1}, r"prime = 2\.0 must be an int"),
        # a pair with exponent 0 is checked like any other before it is dropped
        ({4: 0}, "4 is not a prime"),
        ([(-3, 0)], "-3 is not a prime"),
        ([(2, 1), (4, 0)], "4 is not a prime"),
        ([(2, 1), (2, 0)], "duplicate prime 2"),
    ],
    ids=["float-prime", "float-exponent", "str-prime", "bool-exponent", "bool-prime",
         "integral-float-prime", "composite-zero-exponent", "negative-zero-exponent",
         "composite-zero-exponent-after-prime", "duplicate-zero-exponent"],
)
def test_factored_integer_refuses_non_int_keys_and_exponents(factors, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        fi(factors)


def test_factored_integer_json_round_trip():
    value = fi({2: 45, 3: 32})
    blob = value.to_json_dict()
    assert blob == {"factors": {"2": "45", "3": "32"}}


def test_factored_json_round_trips_a_trusted_prime_past_the_factorization_cap():
    # primes >= 2^31 are trusted by the group and FactoredInteger
    # constructors, and written as decimal strings like any other
    p = 10**13 + 37
    value = psi_prime(AbelianGroup(((p, Partition((1,))),)))
    assert value == fi({p: p - 1})
    assert value.to_json_dict() == {"factors": {str(p): str(p - 1)}}


# ---------------------------------------------------------------- f_eval (oracle)

def test_f_eval_z2xz4():
    # alphas (1,2), p=2: the exponent identity sum_{i<a_k} p^i f(i)
    # = a_k p^n - E must hold with E taken from the literal product
    alphas = (1, 2)
    assert [f_eval(alphas, 2, i) for i in (0, 1, 2)] == [1, 2, 2]
    E = dict(brute_psi_prime(canonicalize([2, 4])).factors)[2]
    assert E == 11
    assert sum(2**i * f_eval(alphas, 2, i) for i in range(2)) == 2 * 2**3 - E


def test_f_eval_rank_one_is_constant_one():
    for p in (2, 3, 5):
        for alpha in (1, 2, 5):
            for i in range(8):
                assert f_eval((alpha,), p, i) == 1


def test_f_eval_equal_exponents():
    alphas = (2, 2)
    assert f_eval(alphas, 3, 0) == 1
    assert f_eval(alphas, 3, 1) == 3
    E = dict(brute_psi_prime(canonicalize([9, 9])).factors)[3]
    assert sum(3**i * f_eval(alphas, 3, i) for i in range(2)) == 2 * 3**4 - E


def test_f_eval_validation():
    with pytest.raises(DomainError):
        f_eval((), 2, 0)
    with pytest.raises(DomainError):
        f_eval((2, 1), 2, 0)
    with pytest.raises(DomainError):
        f_eval((1, 2), 2, -1)


@given(
    st.integers(min_value=2, max_value=7).filter(lambda p: p in (2, 3, 5, 7)),
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=5),
)
def test_f_eval_branch_boundaries_agree(p, raw):
    # at every interior breakpoint a_j the two adjacent branch formulas and
    # f_eval itself must coincide
    alphas = tuple(sorted(raw))
    k = len(alphas)

    def branch(j, i):
        return p ** ((k - j - 1) * i + sum(alphas[:j]))

    for j in range(1, k):
        i = alphas[j - 1]
        assert branch(j - 1, i) == branch(j, i) == f_eval(alphas, p, i)


# ---------------------------------------------------------------- segment-sum exponent

@given(
    st.sampled_from([2, 3, 5, 7, 2**31 - 1]),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_psi_prime_exponent_matches_loop_oracle(p, raw):
    # the run-by-run sum on descending parts, the paper's literal loop on
    # the same exponents ascending
    parts = tuple(sorted(raw, reverse=True))
    assert psi_prime_exponent(p, parts) == psi_prime_exponent_loop(p, parts[::-1])


def _text(q):
    return "[" + ",".join(map(str, q.parts)) + "]"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_pgroup_exponents_equal_the_kernel_on_every_partition_up_to_30(p):
    # the prefix-sum pass, read from the ZS2 state, against
    # psi_prime_exponent called row by row on the partitions
    # iter_partitions makes
    for n in range(1, 31):
        want = [(_text(q), psi_prime_exponent(p, q.parts)) for q in iter_partitions(n)]
        assert list(pgroup_exponents(p, n)) == want, n


def test_pgroup_exponents_text_is_the_parts_joined_up_to_40():
    # the text kept by prefix against a join of each partition's parts
    for n in range(1, 41):
        want = [_text(q) for q in iter_partitions(n)]
        assert [text for text, _ in pgroup_exponents(2, n)] == want, n


def test_pgroup_exponents_on_the_packed_base_2_to_16():
    # the pass never checks that p is prime, and on the base 2^16 its
    # exponents are the kernel's, which a certificate packing several
    # rows into one integer reads
    from psiprime.psi import _exponent

    for n in range(1, 21):
        want = [_exponent(2**16, q.parts) for q in iter_partitions(n)]
        assert [e for _, e in pgroup_exponents(2**16, n)] == want, n


@pytest.mark.parametrize("p", [2, 3])
def test_pgroup_exponents_divide_each_run_sum_once(monkeypatch, p):
    # each g(t, d) = (p^(t*d) - 1) / (p^t - 1) with t * d <= n is divided,
    # checked exact, once and when the pass is called, before its first
    # row; the rows read the table and divide nothing
    from collections import Counter

    from psiprime import psi

    calls = Counter()

    def counting(numerator, denominator, what="division"):
        calls[numerator, denominator] += 1
        return exact_div(numerator, denominator, what)

    monkeypatch.setattr(psi, "exact_div", counting)
    for n in range(1, 31):
        calls.clear()
        rows = pgroup_exponents(p, n)
        made = Counter(calls)
        for _ in rows:
            pass
        assert calls == made, n
        assert calls and max(calls.values()) == 1, n
        runs = {(t, d) for t in range(1, n + 1) for d in range(1, n // t + 1)}
        assert set(calls) == {(p ** (t * d) - 1, p**t - 1) for t, d in runs}, n


def test_an_inexact_run_division_fails_on_entry(monkeypatch):
    # g(1, 24) at p = 3, the division of 3^24 - 1 by 2, is read only by the
    # last of 1,575 rows; made inexact, it fails the pass, the rows and the
    # check when they are called, before any row, and the injectivity sweep
    # that reaches 3^24
    from psiprime import psi
    from psiprime.verify import theorem_c_rows

    def inexact(numerator, denominator, what="division"):
        wrong = (numerator, denominator) == (3**24 - 1, 2)
        return exact_div(numerator + wrong, denominator, what)

    states = []
    zs2 = psi._zs2
    monkeypatch.setattr(psi, "exact_div", inexact)
    monkeypatch.setattr(psi, "_zs2", lambda n: states.append(n) or zs2(n))
    for call in (psi.pgroup_exponents, theorem_c_rows, check_theorem_c):
        with pytest.raises(ConsistencyError, match="not divisible by 2 "):
            call(3, 24)
    assert states == []
    with pytest.raises(ConsistencyError, match="not divisible by 2 "):
        sweep_injectivity(3**24)


def test_sweeps_store_no_exponent_cache_entry():
    before = psi_prime_exponent.cache_info()
    assert check_theorem_c(3, 12) == ()
    assert sweep_injectivity(2000).holds
    after = psi_prime_exponent.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize
    )


def test_psi_prime_exponent_matches_loop_oracle_on_all_partitions_of_14():
    for p in (2, 3, 5):
        for q in partitions_of(14):
            assert psi_prime_exponent(p, q.parts) == psi_prime_exponent_loop(p, q.parts[::-1])


# alphas are the cyclic-factor exponents, descending as a Partition stores them
@pytest.mark.parametrize(
    "p, alphas",
    [(2, ()), (2, (1, 2)), (2, (1, 0)), (1, (2, 1)), (0, (1,)), (-3, (1,)),
     (2, (True,)), (2, (2, True)), (2, (3.0, 1)), (4, (2, 1)), (6, (1,)), (2.0, (2, 1))],
)
def test_psi_prime_exponent_validation(p, alphas):
    psi_prime_exponent.cache_clear()
    with pytest.raises(DomainError):
        psi_prime_exponent(p, alphas)
    # the checks run before the cache, so a float or bool case is refused
    # after its int twin is cached too, although (2, True) == (2, 1)
    if type(p) is not int or any(type(a) is not int for a in alphas):
        psi_prime_exponent(int(p), tuple(map(int, alphas)))
        with pytest.raises(DomainError):
            psi_prime_exponent(p, alphas)


def test_psi_prime_exponent_refuses_a_float_prime_after_the_int_prime():
    # the checks run before the cache, so neither 3.0 nor the part True
    # reaches the entry that 3 and (2, 1) left
    psi_prime_exponent.cache_clear()
    assert psi_prime_exponent(3, (2, 1)) == 44
    with pytest.raises(DomainError, match=r"^prime = 3\.0 must be an int$"):
        psi_prime_exponent(3.0, (2, 1))
    with pytest.raises(DomainError, match=r"^partition part = True must be an int$"):
        psi_prime_exponent(3, (2, True))


# ---------------------------------------------------------------- psi' for p-groups

@pytest.mark.parametrize(
    "orders, expected",
    [
        ([4], {2: 5}),
        ([2, 2], {2: 3}),
        ([8], {2: 17}),
    ],
)
def test_psi_prime_pgroup_examples(orders, expected):
    G = canonicalize(orders)
    ((p, q),) = G.components
    assert dict(psi_prime(G).factors) == expected
    assert {p: psi_prime_exponent(p, q.parts)} == expected
    assert dict(brute_psi_prime(G).factors) == expected


def test_psi_prime_pgroup_matches_spectrum_oracle_up_to_4096():
    for p in (2, 3, 5, 7):
        n = 1
        while p**n <= 4096:
            for q in partitions_of(n):
                G = AbelianGroup(((p, q),))
                assert psi_prime(G) == psi_prime_from_spectrum(order_spectrum(G))
            n += 1


@st.composite
def groups_up_to_10_12(draw):
    # 1-3 distinct small primes, each with a random partition, |G| <= 10^12
    # so that the spectrum oracle can factorize every element order
    primes = sorted(draw(st.sets(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1,
                                 max_size=3)))
    budget = 10**12
    components = []
    for i, p in enumerate(primes):
        # leave room for one factor of each prime still to come
        room = budget // math.prod(primes[i + 1:])
        n_max = 0
        while p ** (n_max + 1) <= room:
            n_max += 1
        n = draw(st.integers(min_value=1, max_value=n_max))
        # a small largest part forces a high rank (all ones at 1)
        largest = draw(st.integers(min_value=1, max_value=n))
        parts = []
        while sum(parts) < n:
            parts.append(draw(st.integers(min_value=1, max_value=min(largest, n - sum(parts)))))
        components.append((p, Partition(sorted(parts, reverse=True))))
        budget //= p**n
    return AbelianGroup(components)


@given(groups_up_to_10_12())
@settings(max_examples=200, deadline=None)
def test_psi_prime_matches_spectrum_oracle_across_primes(G):
    assert G.order <= 10**12
    assert psi_prime(G) == psi_prime_from_spectrum(order_spectrum(G))


# ---------------------------------------------------------------- closed forms

def test_cyclic_closed_form_examples():
    assert dict(psi_prime_cyclic_closed_form(2, 2).factors) == {2: 5}
    assert dict(psi_prime_cyclic_closed_form(2, 3).factors) == {2: 17}
    # Z_3: product of orders 1*3*3 = 3^2
    assert dict(psi_prime_cyclic_closed_form(3, 1).factors) == {3: 2}
    assert dict(brute_psi_prime(canonicalize([3])).factors) == {3: 2}


def test_rank2_closed_form_examples():
    assert dict(psi_prime_rank2_closed_form(2, 1, 2).factors) == {2: 11}
    assert dict(brute_psi_prime(canonicalize([2, 4])).factors) == {2: 11}
    assert dict(psi_prime_rank2_closed_form(2, 1, 1).factors) == {2: 3}
    assert dict(psi_prime_rank2_closed_form(3, 1, 1).factors) == {3: 8}


def test_closed_forms_match_exponent_formula():
    for p in (2, 3, 5):
        for alpha in range(1, 9):
            assert psi_prime_cyclic_closed_form(p, alpha) == psi_prime(
                AbelianGroup(((p, Partition((alpha,))),))
            )
        for alpha in range(1, 7):
            for beta in range(alpha, 7):
                assert psi_prime_rank2_closed_form(p, alpha, beta) == psi_prime(
                    AbelianGroup(((p, Partition((beta, alpha))),))
                )


def test_closed_form_preconditions():
    with pytest.raises(DomainError, match="alpha = 0 must be >= 1"):
        psi_prime_cyclic_closed_form(2, 0)
    with pytest.raises(DomainError, match="alpha = 0 must be >= 1"):
        psi_prime_rank2_closed_form(2, 0, 1)
    with pytest.raises(DomainError, match="beta = 1 must be >= 2"):
        psi_prime_rank2_closed_form(2, 2, 1)
    # p is checked before any arithmetic: 1 and -1 would divide by zero
    for p in (0, 1, -1, 4):
        with pytest.raises(DomainError, match=f"{p} is not a prime"):
            psi_prime_cyclic_closed_form(p, 2)
        with pytest.raises(DomainError, match=f"{p} is not a prime"):
            psi_prime_rank2_closed_form(p, 1, 1)


def test_exact_div_raises_on_remainder():
    assert exact_div(33, 3) == 11
    with pytest.raises(ConsistencyError):
        exact_div(34, 3)


# ---------------------------------------------------------------- psi' and psi

def test_psi_prime_z6():
    # Z_6 literal product 1*6*3*2*3*6 = 648 = 2^3 * 3^4
    got = psi_prime(canonicalize([6]))
    assert got == fi({2: 3, 3: 4})
    assert brute_psi_prime(canonicalize([6])) == got


def test_psi_prime_single_component_unchanged():
    # a p-group is its own Sylow subgroup: psi' is p^E with E unscaled
    assert psi_prime(canonicalize([4])) == fi({2: 5}) == psi_prime_cyclic_closed_form(2, 2)


def test_psi_prime_order36_from_closed_forms():
    # Z4 x Z3^2: 2^(5 * 9) * 3^(8 * 4) from the Sylow closed forms
    z4 = dict(psi_prime_cyclic_closed_form(2, 2).factors)[2]
    z3sq = dict(psi_prime_rank2_closed_form(3, 1, 1).factors)[3]
    assert (z4, z3sq) == (5, 8)
    assert psi_prime(canonicalize([4, 3, 3])) == fi({2: z4 * 9, 3: z3sq * 4})


def test_psi_prime_smallest_cross_order_collision():
    assert dict(psi_prime(canonicalize([4, 3, 3])).factors) == {2: 45, 3: 32}
    assert dict(psi_prime(canonicalize([2, 2, 2, 2, 3])).factors) == {2: 45, 3: 32}
    assert psi_prime(AbelianGroup(())) == FactoredInteger()


def test_psi_sum_examples():
    assert psi_sum(canonicalize([4])) == 11
    assert psi_sum(AbelianGroup(())) == 1
    assert psi_sum(canonicalize([2, 2])) == 7


def test_psi_sum_matches_brute_up_to_2000():
    for m in range(1, 2001):
        for G in enumerate_abelian_groups(m):
            spectrum = brute_force_spectrum(G)
            assert psi_sum(G) == sum(d * c for d, c in spectrum.entries)


def test_psi_prime_from_spectrum_examples():
    assert dict(psi_prime_from_spectrum(order_spectrum(canonicalize([4]))).factors) == {2: 5}
    assert psi_prime_from_spectrum(order_spectrum(AbelianGroup(()))) == FactoredInteger()
    G = canonicalize([4, 9])
    assert psi_prime_from_spectrum(order_spectrum(G)) == psi_prime(G)


def test_psi_prime_matches_spectrum_oracle_up_to_500():
    for m in range(1, 501):
        for G in enumerate_abelian_groups(m):
            assert psi_prime(G) == psi_prime_from_spectrum(order_spectrum(G))


# ---------------------------------------------------------------- dependencies

def test_importing_the_cli_does_not_import_mpmath():
    # the package has no runtime dependencies; mpmath, its last one, cost
    # every CLI start its import time, so this keeps it from coming back
    import os
    import subprocess
    import sys

    import psiprime

    src = os.path.dirname(os.path.dirname(os.path.abspath(psiprime.__file__)))
    code = "import sys, psiprime.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"


def test_importing_the_cli_loads_no_module_only_some_commands_need():
    # dataclasses (with inspect, ast and dis) and concurrent.futures (with
    # logging) cost every CLI start about 17 ms: the value classes are
    # built without dataclasses, and the pool and csv are imported where
    # they are used.  The modules counted are those the import adds to a
    # bare interpreter's.
    import os
    import subprocess
    import sys

    import psiprime

    src = os.path.dirname(os.path.dirname(os.path.abspath(psiprime.__file__)))
    code = (
        "import sys; bare = set(sys.modules); import psiprime.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    added = set(
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    )
    assert "psiprime.cli" in added
    unwanted = {"dataclasses", "inspect", "concurrent.futures", "logging", "csv"}
    assert sorted(added & unwanted) == []


def test_package_imports_only_the_standard_library():
    # every absolute import in the package, at module level or nested in a
    # function, must name a standard-library module
    import ast
    import pathlib
    import sys

    import psiprime

    outside = []
    for path in sorted(pathlib.Path(psiprime.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_public_name_resolves_once():
    # a removed function cannot linger in __all__, nor a name be listed twice
    import psiprime

    missing = [name for name in psiprime.__all__ if not hasattr(psiprime, name)]
    repeated = sorted({name for name in psiprime.__all__ if psiprime.__all__.count(name) > 1})
    assert (missing, repeated) == ([], [])


def test_every_public_name_has_a_caller():
    # a public name that no module of the package and no script names is
    # reached only by tests, and should go
    import ast
    import pathlib

    import psiprime

    package = pathlib.Path(psiprime.__file__).parent
    scripts = pathlib.Path(__file__).resolve().parent.parent / "scripts"
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += scripts.glob("*.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(psiprime.__all__) - used) == []
