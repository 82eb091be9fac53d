import contextlib
import csv
import io
import json
import sys

import pytest

from psiprime import (
    enumerate_abelian_groups,
    group_to_json_dict,
    order_spectrum,
    parse_group,
    psi_prime,
    psi_sum,
)
from psiprime.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_psi_prime_json_exact_bytes(capsys):
    code, out, _ = run(capsys, "compute", "Z4xZ3^2", "--psi-prime", "--json")
    assert code == 0
    assert out == '{"factors":{"2":"45","3":"32"}}\n'


def test_compute_psi_plain(capsys):
    code, out, _ = run(capsys, "compute", "Z2", "--psi")
    assert code == 0
    assert out == "3\n"


def test_compute_psi_k_and_all(capsys):
    code, out, _ = run(capsys, "compute", "Z3", "--psi-k", "2")
    assert (code, out) == (0, "15\n")
    code, out, _ = run(capsys, "compute", "Z3", "--psi-all", "--json")
    assert code == 0
    assert json.loads(out) == {"psi_k": ["7", "15", "9"]}


def test_compute_spectrum_json(capsys):
    code, out, _ = run(capsys, "compute", "[4,9]", "--spectrum", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == "36"
    assert blob["spectrum"]["36"] == "12"
    # keys ascend numerically, not lexicographically
    assert [int(k) for k in blob["spectrum"]] == sorted(int(k) for k in blob["spectrum"])


def test_compute_poly(capsys):
    code, out, _ = run(capsys, "compute", "Z3", "--poly", "--json")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["-9", "15", "-7", "1"]}
    code, out, _ = run(capsys, "compute", "Z2", "--poly")
    assert out == "X^2 - 3*X + 2\n"


def test_compute_materialize_guard(capsys):
    code, _, err = run(capsys, "compute", "Z6", "--psi-prime", "--materialize")
    assert code == 1
    assert "--digit-limit" in err
    code, out, _ = run(
        capsys, "compute", "Z6", "--psi-prime", "--materialize", "--digit-limit", "10"
    )
    assert (code, out) == (0, "648\n")
    code, _, err = run(
        capsys, "compute", "Z256", "--psi-prime", "--materialize", "--digit-limit", "3"
    )
    assert code == 2


def test_compute_requires_exactly_one_selector(capsys):
    code, _, _ = run(capsys, "compute", "Z4")
    assert code == 1
    code, _, _ = run(capsys, "compute", "Z4", "--psi", "--psi-prime")
    assert code == 1


def test_bad_notation_exit_1_with_position(capsys):
    code, _, err = run(capsys, "compute", "Z4xQ8", "--psi")
    assert code == 1
    assert "position 3" in err


def test_size_cap_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "2000000")
    assert code == 2
    assert "cap" in err


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "36", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == "4"
    groups = enumerate_abelian_groups(36)
    assert len(blob["groups"]) == len(groups)
    for entry, G in zip(blob["groups"], groups):
        assert entry["group"] == group_to_json_dict(G)
        assert entry["psi_prime"] == psi_prime(G).to_json_dict()
    # re-emitting reproduces the bytes
    code2, out2, _ = run(capsys, "enumerate", "36", "--json")
    assert out2 == out


def test_verify_theorem_c_table(capsys):
    code, out, _ = run(capsys, "verify", "theorem-c", "--prime", "2", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 3 rows + violations line
    assert lines[-1] == "violations: 0"
    assert "7" in lines[1] and "17" in lines[3]


def test_verify_injectivity(capsys):
    code, out, _ = run(capsys, "verify", "injectivity", "--max-order", "50", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["duplicates"] == []


def test_verify_collisions_json(capsys):
    code, out, _ = run(capsys, "verify", "collisions", "--max-order", "48", "--json")
    assert code == 0
    blob = json.loads(out)
    pair = {
        "order_a": "36",
        "group_a": {"2": [2], "3": [1, 1]},
        "order_b": "48",
        "group_b": {"2": [1, 1, 1, 1], "3": [1]},
        "psi_prime": {"factors": {"2": "45", "3": "32"}},
    }
    assert pair in blob["pairs"]


def test_verify_conjecture_f(capsys):
    code, out, _ = run(capsys, "verify", "conjecture-f", "--max-order", "16", "--json")
    assert code == 0
    assert json.loads(out)["coincidences"] == []


def test_verify_json_stable_across_jobs(capsys):
    _, out1, _ = run(capsys, "verify", "injectivity", "--max-order", "40", "--jobs", "1", "--json")
    _, out2, _ = run(capsys, "verify", "injectivity", "--max-order", "40", "--jobs", "2", "--json")
    assert out1 == out2


def test_oracle_pass(capsys):
    code, out, _ = run(capsys, "oracle", "Z4xZ9", "--json")
    assert code == 0
    blob = json.loads(out)
    assert all(c["status"] in ("pass", "skipped") for c in blob["checks"])
    names = [c["name"] for c in blob["checks"]]
    assert any("brute" in n for n in names)


def test_oracle_skips_the_spectrum_product_past_the_factorization_cap(capsys):
    # the element order 1000003 * 1000033 is past 10^12, so trial division
    # of it is skipped like the other capped checks, not refused with exit 2
    skipped = ("psi' formula vs spectrum product", "element order > 1000000000000")
    code, out, err = run(capsys, "oracle", "Z1000003xZ1000033")
    assert (code, err) == (0, "")
    row = next(line for line in out.splitlines() if skipped[0] in line)
    assert row.split() == ["SKIPPED", *skipped[0].split(), *skipped[1].split()]
    code, out, err = run(capsys, "oracle", "Z1000003xZ1000033", "--json")
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert {"name": skipped[0], "status": "skipped", "detail": skipped[1]} in checks
    assert all(c["status"] == "skipped" for c in checks)


def test_theorem_violation_exit_code(monkeypatch, capsys):
    # wire-level check of exit code 3: substitute rows with a violation
    from psiprime import cli as cli_module
    from psiprime.partitions import Partition

    fake = ((Partition((1, 1)), 5), (Partition((2,)), 3))
    monkeypatch.setattr(cli_module, "theorem_c_rows", lambda p, n: iter(fake))
    code, out, _ = run(capsys, "verify", "theorem-c", "--prime", "2", "--n", "2")
    assert code == 3
    assert "violations: 1" in out


def test_consistency_error_exit_3_with_message(monkeypatch, capsys):
    # a division that leaves a remainder inside the exponent kernel must
    # surface as exit 3 and one error line, not as a traceback
    from psiprime import psi as psi_module
    from psiprime.arith import exact_div

    def off_by_one(numerator, denominator, what="division"):
        return exact_div(numerator + 1, denominator, what)

    monkeypatch.setattr(psi_module, "exact_div", off_by_one)
    psi_module.psi_prime_exponent.cache_clear()
    try:
        code, out, err = run(capsys, "verify", "theorem-c", "--prime", "3", "--n", "4")
    finally:
        psi_module.psi_prime_exponent.cache_clear()
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "not divisible" in err
    assert len(err.splitlines()) == 1


def _inexact_theorem_c(monkeypatch, capsys, argv, wrong):
    # theorem-c output with exact_div made wrong where wrong(numerator,
    # denominator) holds, next to the correct output
    from psiprime import psi as psi_module
    from psiprime.arith import exact_div

    good = run(capsys, *argv)

    def inexact(numerator, denominator, what="division"):
        return exact_div(numerator + wrong(numerator, denominator), denominator, what)

    # theorem-c calls the uncached kernel, so no cached exponent hides it
    monkeypatch.setattr(psi_module, "exact_div", inexact)
    return good, run(capsys, *argv)


def test_consistency_error_in_json_exit_3_with_message(monkeypatch, capsys):
    # the --json twin of the test above: JSON streams, so what was written
    # before the failure stays on stdout, truncated
    argv = ("verify", "theorem-c", "--prime", "3", "--n", "4", "--json")
    good, (code, out, err) = _inexact_theorem_c(monkeypatch, capsys, argv, lambda a, b: 1)
    assert good[0] == 0
    assert code == 3
    assert err.startswith("error: ") and "not divisible" in err
    assert len(err.splitlines()) == 1
    assert good[1].startswith(out) and out != good[1]


def test_consistency_error_midway_leaves_the_rows_before_it(monkeypatch, capsys):
    # at p = 3, n = 24 only the last row, (24), divides 3^24 - 1 by 2; the
    # 1,574 rows before it are made first and 1,024 of them already written
    argv = ("verify", "theorem-c", "--prime", "3", "--n", "24", "--json")
    good, (code, out, err) = _inexact_theorem_c(
        monkeypatch, capsys, argv, lambda a, b: int((a, b) == (3**24 - 1, 2))
    )
    assert code == 3
    assert len(err.splitlines()) == 1 and "not divisible" in err
    assert good[1].startswith(out) and out.endswith("}")
    assert out.count('"partition"') == 1024 < good[1].count('"partition"') == 1575


def _theorem_c_bytes(p, n, rows, violations, fmt):
    # the whole report, as one json.dumps or csv.writer would write it
    if fmt == "--json":
        return json.dumps(
            {
                "p": str(p),
                "n": str(n),
                "rows": [{"partition": list(q.parts), "exponent": str(e)} for q, e in rows],
                "violations": [list(v) for v in violations],
            },
            separators=(",", ":"),
        ) + "\n"
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["partition", "psi_prime_exponent"])
    writer.writerows(("[" + ",".join(map(str, q.parts)) + "]", e) for q, e in rows)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_theorem_c_streams_the_bytes_of_the_report(capsys, p, fmt):
    from psiprime.verify import check_theorem_c, theorem_c_rows

    for n in range(1, 13):
        want = _theorem_c_bytes(p, n, list(theorem_c_rows(p, n)), check_theorem_c(p, n), fmt)
        assert run(capsys, "verify", "theorem-c", "--prime", str(p), "--n", str(n), fmt) == (
            0, want, ""
        )


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("p, n", [(2, 30), (3, 24), (5, 13), (7, 1), (11, 2)])
def test_theorem_c_bytes_match_the_kernel_row_by_row(capsys, p, n, fmt):
    # the test above builds its bytes from theorem_c_rows itself; these
    # come from pgroup_exponent on each partition, independent of the
    # prefix-sum pass the CLI streams
    from psiprime.partitions import iter_partitions
    from psiprime.psi import pgroup_exponent

    rows = [(q, pgroup_exponent(p, q.parts)) for q in iter_partitions(n)]
    violations = [(i, i + 1) for i in range(len(rows) - 1) if rows[i][1] >= rows[i + 1][1]]
    want = _theorem_c_bytes(p, n, rows, violations, fmt)
    assert run(capsys, "verify", "theorem-c", "--prime", str(p), "--n", str(n), fmt) == (
        0, want, ""
    )


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
@pytest.mark.parametrize(
    "prime, n, code",
    [("4", "3", 1), ("2", "0", 1), ("2", "65", 2), ("1", "5", 1), ("2", "10000000000", 2)],
)
def test_theorem_c_refusals_write_nothing_to_stdout(capsys, fmt, prime, n, code):
    got, out, err = run(capsys, "verify", "theorem-c", "--prime", prime, "--n", n, *fmt)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_theorem_c_prime_past_the_testing_limit_exit_1(capsys):
    # 2147483659 is a prime above 2^31; the refusal names no library keyword
    code, out, err = run(capsys, "verify", "theorem-c", "--prime", "2147483659", "--n", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "primality-test" in err
    assert "assume_prime" not in err


def test_compute_psi_prime_of_a_trusted_prime_past_the_testing_limit(capsys):
    # psi_prime_exponent checks p on a cache miss and trusts it from 2^31 on
    from psiprime.psi import psi_prime_exponent

    psi_prime_exponent.cache_clear()
    code, out, err = run(capsys, "compute", "Z2147483659", "--psi-prime")
    assert (code, out, err) == (0, "2147483659^2147483658\n", "")


def test_conjecture_counterexample_exit_code(monkeypatch, capsys):
    from psiprime import cli as cli_module
    from psiprime.verify import ConjectureFReport, ConjectureFSweep

    group_a = parse_group("Z4")
    group_b = parse_group("Z2^2")
    finding = ConjectureFReport(
        m=4, pair_count=1, coincidences=((group_a, group_b, 2, 42),)
    )
    fake = ConjectureFSweep(max_order=4, pairs_checked=1, failures=(finding,))
    monkeypatch.setattr(cli_module, "sweep_conjecture_f", lambda m, jobs: fake)
    code, out, _ = run(capsys, "verify", "conjecture-f", "--max-order", "4")
    assert code == 4
    assert "COINCIDENCE" in out


def test_no_color_strips_ansi(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    monkeypatch.delenv("NO_COLOR", raising=False)
    _, out_styled, _ = run(capsys, "enumerate", "12")
    monkeypatch.setenv("NO_COLOR", "1")
    _, out_plain, _ = run(capsys, "enumerate", "12")
    assert "\x1b[" in out_styled
    assert "\x1b[" not in out_plain


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "Z4", "--psi", "--json", "--csv"],
        ["verify", "theorem-c", "--prime", "2"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("check", ["injectivity", "collisions", "conjecture-f"])
@pytest.mark.parametrize("bound", ["0", "-5"])
def test_sweep_bound_below_one_exit_1(check, bound, capsys):
    code, out, err = run(capsys, "verify", check, "--max-order", bound)
    assert (code, out) == (1, "")
    assert err == f"error: max_order = {bound} must be >= 1\n"


def test_conjecture_f_bound_past_cap_exit_2_before_any_order(monkeypatch, capsys):
    from psiprime import verify

    def never(m):
        raise AssertionError(f"check_conjecture_f({m}) ran")

    monkeypatch.setattr(verify, "check_conjecture_f", never)
    code, out, err = run(capsys, "verify", "conjecture-f", "--max-order", "4097")
    assert (code, out) == (2, "")
    assert err == "error: max_order = 4097 exceeds the conjecture-f fingerprint cap 4096\n"


def test_injectivity_bound_past_cap_exit_2_before_any_order(monkeypatch, capsys):
    from psiprime import verify

    def never(m):
        raise AssertionError(f"check_injectivity({m}) ran")

    monkeypatch.setattr(verify, "check_injectivity", never)
    code, out, err = run(capsys, "verify", "injectivity", "--max-order", "1000001")
    assert (code, out) == (2, "")
    assert err == "error: max_order = 1000001 exceeds the enumeration cap 1000000\n"


def test_collisions_bound_past_cap_exit_2_before_any_order(monkeypatch, capsys):
    from psiprime import groups, verify

    def never(m, **kwargs):
        raise AssertionError(f"enumerate_abelian_groups({m}) ran")

    monkeypatch.setattr(groups, "enumerate_abelian_groups", never)
    monkeypatch.setattr(verify, "enumerate_abelian_groups", never)
    code, out, err = run(capsys, "verify", "collisions", "--max-order", "1000001")
    assert (code, out) == (2, "")
    assert err == "error: max_order = 1000001 exceeds the enumeration cap 1000000\n"


def test_repeat_count_past_rank_cap_exit_2(capsys):
    from psiprime.notation import RANK_CAP

    code, out, err = run(capsys, "compute", "Z2^10000000000", "--psi")
    assert (code, out) == (2, "")
    assert err == f"error: rank 10000000000 exceeds the rank cap {RANK_CAP}\n"


LONG_RUN = "1" * 5000


@pytest.mark.parametrize(
    "group, message",
    [
        (f"Z{LONG_RUN}", "a 5000-digit cyclic order exceeds the factorization cap 1000000000000"),
        (f"[{LONG_RUN}]", "a 5000-digit cyclic order exceeds the factorization cap 1000000000000"),
        (f"Z2^{LONG_RUN}", "a 5000-digit repeat count exceeds the rank cap 4096"),
    ],
    ids=["cyclic-order", "list-entry", "repeat-count"],
)
def test_long_digit_run_exit_2_with_one_line(group, message, capsys):
    code, out, err = run(capsys, "compute", group, "--psi")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_leading_zeros_still_parse(capsys):
    assert run(capsys, "compute", "Z000000000000000000002^0003", "--psi") == (0, "15\n", "")


@contextlib.contextmanager
def long_int_strings():
    # the expected values below are themselves past Python's default
    # 4300-digit int <-> str limit; main() itself runs with the default
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_big_psi_prints_in_full(capsys):
    code, out, _ = run(capsys, "compute", "Z30^4096", "--psi")
    assert code == 0
    with long_int_strings():
        assert out == f"{psi_sum(parse_group('Z30^4096'))}\n"
    assert len(out) > 5000


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
def test_big_spectrum_renders_in_every_format(fmt, capsys):
    code, out, _ = run(capsys, "compute", "Z30^4096", "--spectrum", *fmt)
    assert code == 0
    entries = order_spectrum(parse_group("Z30^4096")).entries
    with long_int_strings():
        assert all(str(m) in out for _, m in entries)
        assert max(len(str(m)) for _, m in entries) > 5000


def test_big_materialized_psi_prime_prints_in_full(capsys):
    # psi'(Z2^16) = 2^(2^16 - 1): 19,729 digits
    code, out, _ = run(
        capsys, "compute", "Z2^16", "--psi-prime", "--materialize", "--digit-limit", "100000"
    )
    assert code == 0
    with long_int_strings():
        assert out == f"{2**65535}\n"
    assert len(out) == 19_729 + 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit in this Python"
)
@pytest.mark.parametrize(
    "argv",
    [["compute", "Z30^4096", "--psi"], ["compute", "Z4xQ8", "--psi"], ["enumerate", "2000000"]],
)
def test_int_digit_limit_is_restored(argv, capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(saved)
