import contextlib
import csv
import io
import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    fake = (("[1,1]", 5), ("[2]", 3))
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


def test_conjecture_f_exits_3_on_a_fingerprint_longer_than_its_slots(monkeypatch, capsys):
    from psiprime import symmetric

    expand = symmetric._expand_mod
    monkeypatch.setattr(symmetric, "_expand_mod", lambda entries, P: expand(entries, P) << 64)
    code, out, err = run(capsys, "verify", "conjecture-f", "--max-order", "8", "--jobs", "1")
    assert (code, out) == (3, "")
    assert err == f"error: 260 bits do not fill 4 slots of psi_k mod {2**26 - 5}\n"


def test_the_fingerprint_length_check_holds_under_python_o():
    # python -O strips assert statements, so the check must raise instead
    import os
    import subprocess

    import psiprime

    src = os.path.dirname(os.path.dirname(os.path.abspath(psiprime.__file__)))
    code = (
        "import sys\n"
        "from psiprime import cli, symmetric\n"
        "expand = symmetric._expand_mod\n"
        "symmetric._expand_mod = lambda entries, P: expand(entries, P) << 64\n"
        "print(sys.flags.optimize)\n"
        "sys.exit(cli.main(['verify', 'conjecture-f', '--max-order', '8', '--jobs', '1']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (3, "1\n")
    assert done.stderr == f"error: 260 bits do not fill 4 slots of psi_k mod {2**26 - 5}\n"


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


def test_consistency_error_midway_in_csv_leaves_whole_chunks(monkeypatch, capsys):
    # the --csv and table twins of the test above: both are written 1,024
    # rows at a time, so the header and the first chunk are out when row
    # 1,575 fails
    argv = ("verify", "theorem-c", "--prime", "3", "--n", "24")
    good, (code, out, err) = _inexact_theorem_c(
        monkeypatch, capsys, (*argv, "--csv"), lambda a, b: int((a, b) == (3**24 - 1, 2))
    )
    assert code == 3
    assert len(err.splitlines()) == 1 and "not divisible" in err
    assert good[1].startswith(out) and out.endswith("\r\n")
    assert out.count("\r\n") == 1 + 1024 < good[1].count("\r\n") == 1 + 1575
    monkeypatch.undo()
    good, (code, out, err) = _inexact_theorem_c(
        monkeypatch, capsys, argv, lambda a, b: int((a, b) == (3**24 - 1, 2))
    )
    assert code == 3
    assert len(err.splitlines()) == 1 and "not divisible" in err
    assert good[1].startswith(out) and out.endswith("\n")
    assert out.count("\n") == 1 + 1024 < good[1].count("\n") == 1 + 1575 + 1


def _theorem_c_bytes(p, n, rows, violations, fmt):
    # the whole report, as one json.dumps or csv.writer would write it, or
    # as the table's print of each str(c).ljust(w) row wrote it
    if not fmt:
        lines = [["partition", "psi_prime_exponent"], *rows]
        widths = [max(len(str(c)) for c in column) for column in zip(*lines)]
        return "".join(
            "  ".join(str(c).ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
            for line in lines
        ) + f"violations: {len(violations)}\n"
    if fmt == ["--json"]:
        return json.dumps(
            {
                "p": str(p),
                "n": str(n),
                "rows": [{"partition": json.loads(t), "exponent": str(e)} for t, e in rows],
                "violations": [list(v) for v in violations],
            },
            separators=(",", ":"),
        ) + "\n"
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["partition", "psi_prime_exponent"])
    writer.writerows(rows)
    return buf.getvalue()


_FORMATS = [
    pytest.param([], id="table"),
    pytest.param(["--json"], id="--json"),
    pytest.param(["--csv"], id="--csv"),
]


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_theorem_c_streams_the_bytes_of_the_report(capsys, p, fmt):
    from psiprime.verify import check_theorem_c, theorem_c_rows

    for n in range(1, 13):
        want = _theorem_c_bytes(p, n, list(theorem_c_rows(p, n)), check_theorem_c(p, n), fmt)
        assert run(capsys, "verify", "theorem-c", "--prime", str(p), "--n", str(n), *fmt) == (
            0, want, ""
        )


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("p, n", [(2, 30), (3, 24), (5, 13), (7, 1), (11, 2)])
def test_theorem_c_bytes_match_the_kernel_row_by_row(capsys, p, n, fmt):
    # the test above builds its bytes from theorem_c_rows itself; these
    # come from psi_prime_exponent on each partition, independent of the
    # prefix-sum pass the CLI streams
    from psiprime.partitions import iter_partitions
    from psiprime.psi import psi_prime_exponent

    rows = [
        ("[" + ",".join(map(str, q.parts)) + "]", psi_prime_exponent(p, q.parts))
        for q in iter_partitions(n)
    ]
    violations = [(i, i + 1) for i in range(len(rows) - 1) if rows[i][1] >= rows[i + 1][1]]
    want = _theorem_c_bytes(p, n, rows, violations, fmt)
    assert run(capsys, "verify", "theorem-c", "--prime", str(p), "--n", str(n), *fmt) == (
        0, want, ""
    )


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("p", [2, 3])
def test_chunk_size_does_not_change_the_bytes(monkeypatch, capsys, p, fmt):
    # table, CSV and JSON rows are written _CHUNK at a time; a chunk of one
    # row, of 7, and one row short of, equal to and past the whole output
    # must all write the bytes of the default chunk size
    from oracles import partition_count
    from psiprime import cli as cli_module

    cases = [
        (("verify", "theorem-c", "--prime", str(p), "--n", str(n), *fmt), partition_count(n))
        for n in range(1, 15)
    ]
    argv = ("verify", "collisions", "--max-order", "200")
    cases.append(((*argv, *fmt), run(capsys, *argv, "--csv")[1].count("\r\n") - 1))
    for argv, rows in cases:
        want = run(capsys, *argv)
        for size in sorted({1, 7, rows - 1, rows, rows + 1} - {0}):
            monkeypatch.setattr(cli_module, "_CHUNK", size)
            assert run(capsys, *argv) == want, (argv, size)
            monkeypatch.undo()


def test_theorem_c_row_0_has_the_longest_partition_text():
    # the table sizes its columns from its first chunk, which is exact only
    # while row 0's text, all 1s, is the longest of every row's
    from oracles import ascending_partitions, longest_partition_text
    from psiprime.partitions import PARTITION_CAP
    from psiprime.verify import theorem_c_rows

    for n in range(1, 21):
        texts = (json.dumps(list(parts), separators=(",", ":"))
                 for parts in ascending_partitions(n))
        assert longest_partition_text(n) == max(map(len, texts)), n
    for n in range(1, PARTITION_CAP + 1):
        text, _ = next(theorem_c_rows(2, n))
        assert len(text) == longest_partition_text(n) == 2 * n + 1, n


def test_render_sizes_its_table_over_every_row(monkeypatch, capsys):
    # every table but theorem-c's comes from _render, whose later rows may
    # be the wider ones, so it is sized over all of them at any _CHUNK
    from psiprime import cli as cli_module

    argv = ("verify", "collisions", "--max-order", "2000")
    want = run(capsys, *argv)
    lines = want[1].splitlines()
    assert len(lines[-1]) > len(lines[1])
    monkeypatch.setattr(cli_module, "_CHUNK", 1)
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("fmt", _FORMATS)
def test_theorem_c_writes_each_chunk_before_making_the_next(monkeypatch, fmt):
    # p(n) rows do not fit in memory at the cap: before row i is made, all
    # but the last two chunks of the rows before it must be on stdout, and
    # the rows are made once
    from psiprime import cli as cli_module
    from psiprime.verify import check_theorem_c, theorem_c_rows

    monkeypatch.setattr(cli_module, "_CHUNK", 4)
    out = io.StringIO()
    # rows on stdout: JSON rows by their key, table and CSV rows by their
    # lines after the header
    marker, header = ('"partition"', 0) if fmt == ["--json"] else ("\n", 1)
    calls = []

    def guarded(p, n):
        rows = theorem_c_rows(p, n)
        calls.append((p, n))

        def checked():
            for i, row in enumerate(rows):
                written = out.getvalue().count(marker) - header
                assert written >= i - 2 * 4, (i, written)
                yield row
        return checked()

    monkeypatch.setattr(cli_module, "theorem_c_rows", guarded)
    with contextlib.redirect_stdout(out):
        code = main(["verify", "theorem-c", "--prime", "2", "--n", "12", *fmt])
    rows = list(theorem_c_rows(2, 12))
    assert (code, out.getvalue()) == (0, _theorem_c_bytes(2, 12, rows, check_theorem_c(2, 12), fmt))
    assert len(calls) == 1


def test_scanned_passes_rows_through():
    from psiprime.cli import _scanned

    rows = [("[1,1,1]", 7), ("[2,1]", 7), ("[3]", 5)]
    violations = []
    assert [row for chunk in _scanned(rows, violations) for row in chunk] == rows
    assert violations == [(0, 1), (1, 2)]


# row 0, the rows about the first 1,024-row chunk boundary, and the last
_PLANTED_ROWS = [0, 1022, 1023, 1024, 1025, -1]


@st.composite
def _exponent_lists(draw):
    # up to 2,100 exponents rising by a repeated run of steps, some of
    # them 0 or negative, and at the planted rows the draw picks, an
    # equal neighbour or a drop below the row before
    length = draw(st.integers(1, 2100))
    steps = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=12))
    exponents = list(itertools.accumulate(steps[i % len(steps)] for i in range(length)))
    for r in draw(st.sets(st.sampled_from(_PLANTED_ROWS))):
        r %= length
        if r:
            exponents[r] = exponents[r - 1] - draw(st.integers(0, 2))
        elif length > 1:
            exponents[0] = exponents[1] + draw(st.integers(0, 2))
    return exponents


@given(st.one_of(st.lists(st.integers()), _exponent_lists()))
@settings(max_examples=150, deadline=None)
def test_drop_scan_matches_the_per_row_check(exponents):
    # verify.drops over the whole stream, as check_theorem_c runs it, and
    # cli._scanned chunk by chunk, against the per-row check it replaced
    from unittest import mock

    from oracles import record_violations
    from psiprime import cli as cli_module
    from psiprime.verify import drops

    rows = [(str(i), e) for i, e in enumerate(exponents)]
    want = []
    assert list(record_violations(rows, want)) == rows
    assert [(i, i + 1) for i in drops(iter(exponents))] == want
    for size in (1, 7, 1024):
        with mock.patch.object(cli_module, "_CHUNK", size):
            got = []
            assert [row for chunk in cli_module._scanned(rows, got) for row in chunk] == rows
            assert got == want, size


@pytest.mark.parametrize("fmt", _FORMATS)
def test_theorem_c_reports_drops_at_a_chunk_boundary(monkeypatch, capsys, fmt):
    # rows 1,023 and 1,024 planted at 0: row 1,023 drops below row 1,022,
    # the last row of the first chunk, and row 1,024, the first row of the
    # second, equals it.  p(24) = 1,575 rows, so there are two chunks
    from psiprime import verify
    from psiprime.verify import check_theorem_c, theorem_c_rows

    real = verify.pgroup_exponents

    def planted(p, n):
        for i, (text, e) in enumerate(real(p, n)):
            yield text, 0 if i in (1023, 1024) else e

    monkeypatch.setattr(verify, "pgroup_exponents", planted)
    violations = check_theorem_c(2, 24)
    assert violations == ((1022, 1023), (1023, 1024))
    want = _theorem_c_bytes(2, 24, list(theorem_c_rows(2, 24)), violations, fmt)
    assert run(capsys, "verify", "theorem-c", "--prime", "2", "--n", "24", *fmt) == (3, want, "")


def test_theorem_c_n_38_json_keeps_the_benchmarked_bytes(capsys):
    # the SHA-256 that perfbench pins for its theorem-c-deep workload
    import hashlib

    code, out, err = run(capsys, "verify", "theorem-c", "--prime", "2", "--n", "38", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "65a1999da1b039dcfe51ec5d6e0cc61c18a86c051c4df9c5e5b6e8825c3a06b6"
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
    # the shared renderer's table and theorem-c's own table
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    for argv in (["enumerate", "12"], ["verify", "theorem-c", "--prime", "2", "--n", "3"]):
        monkeypatch.delenv("NO_COLOR", raising=False)
        _, out_styled, _ = run(capsys, *argv)
        monkeypatch.setenv("NO_COLOR", "1")
        _, out_plain, _ = run(capsys, *argv)
        assert "\x1b[" in out_styled, argv
        assert "\x1b[" not in out_plain, argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def _subcommands(parser):
    # {name: parser} of the parser's subcommands, in the order registered
    import argparse

    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _arguments(parser):
    return [a.dest for a in parser._actions]


def test_verify_injectivity_adds_arguments_to_no_other_subparser():
    # every command and check is registered for the help and usage
    # messages, but only the invoked one is given its arguments
    from psiprime.cli import build_parser

    commands = _subcommands(build_parser(["verify", "injectivity", "--max-order", "5"]))
    assert list(commands) == ["compute", "enumerate", "verify", "oracle"]
    checks = _subcommands(commands["verify"])
    assert list(checks) == ["theorem-c", "injectivity", "collisions", "conjecture-f"]
    assert _arguments(checks["injectivity"]) == ["help", "max_order", "jobs", "fmt", "fmt"]
    for name, parser in [*commands.items(), *checks.items()]:
        if name not in ("verify", "injectivity"):
            assert _arguments(parser) == ["help"], name


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["psiprime", "compute", "--psi", "Z2"])
    assert main() == 0
    assert capsys.readouterr() == ("3\n", "")


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
    # the sweep's first work is the sieve, then the exponent passes
    from psiprime import verify

    def never(*args):
        raise AssertionError(f"sweep work ran on {args}")

    monkeypatch.setattr(verify, "_primes_to", never)
    monkeypatch.setattr(verify, "pgroup_exponents", never)
    code, out, err = run(capsys, "verify", "injectivity", "--max-order", "100000000000001")
    assert (code, out) == (2, "")
    assert err == (
        "error: max_order = 100000000000001 exceeds the injectivity cap 100000000000000\n"
    )


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
    assert err == f"error: rank = 10000000000 exceeds the rank cap {RANK_CAP}\n"


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


def _fresh_cli(*argv):
    # the CLI in a new interpreter, which has imported neither the pool
    # module nor csv, so an import deferred to its use is exercised there
    import os
    import subprocess

    import psiprime

    src = os.path.dirname(os.path.dirname(os.path.abspath(psiprime.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "psiprime.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "injectivity", "--max-order", "200", "--json"],
        # 64 orders: two workers wherever two CPUs are usable
        ["verify", "conjecture-f", "--max-order", "64"],
    ],
    ids=["injectivity-json", "conjecture-f"],
)
def test_fresh_interpreter_prints_the_same_bytes_at_one_and_two_jobs(argv):
    one = _fresh_cli(*argv, "--jobs", "1")
    assert one[0] == 0 and one[1] and one[2] == b""
    assert _fresh_cli(*argv, "--jobs", "2") == one


def test_fresh_interpreter_csv_bytes_match_the_golden_case():
    from pathlib import Path

    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))
    case = golden["conjecture-f-csv"]
    assert _fresh_cli(*case["argv"]) == (
        case["code"], case["stdout"].encode(), case["stderr"].encode()
    )


@pytest.mark.parametrize(
    "argv, nbytes",
    [
        (["verify", "theorem-c", "--prime", "2", "--n", "30"], 100),
        (["verify", "theorem-c", "--prime", "2", "--n", "30", "--json"], 100),
        (["verify", "theorem-c", "--prime", "2", "--n", "30", "--csv"], 100),
        (["compute", "Z4", "--psi"], 0),
    ],
    ids=["theorem-c-table", "theorem-c-json", "theorem-c-csv", "compute-psi"],
)
def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(argv, nbytes):
    # stdout is a pipe whose reader leaves after nbytes (theorem-c at n = 30
    # writes far more than a pipe holds) or before the CLI starts: exit 1,
    # as an uncaught BrokenPipeError gave, but no traceback
    import os
    import subprocess

    import psiprime

    src = os.path.dirname(os.path.dirname(os.path.abspath(psiprime.__file__)))
    read_end, write_end = os.pipe()
    reader = open(read_end, "rb")
    if not nbytes:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "psiprime.cli", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    os.close(write_end)
    if nbytes:
        assert len(reader.read(nbytes)) == nbytes
        reader.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
