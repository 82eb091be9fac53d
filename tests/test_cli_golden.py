"""Byte-exact replay of the CLI: for every case, argv -> (exit code,
stdout, stderr) must equal the recorded bytes in ``cli_golden.json``.

The cases cover every subcommand in table, ``--json`` and ``--csv`` form,
every error exit, every ``--help`` page (at a fixed terminal width), the
argv orders that the parser's command scan must read as argparse does,
and the failure renderings, which are reached by substituting fake reports
(or fake rows, for theorem-c) for the sweeps through the module-global
names in ``psiprime.cli``.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from psiprime import cli, parse_group
from psiprime.psi import FactoredInteger, psi_prime_exponent
from psiprime.verify import (
    ConjectureFReport,
    ConjectureFSweep,
    InjectivityReport,
    InjectivitySweep,
)

DATA = Path(__file__).with_name("cli_golden.json")
COLUMNS = "80"


def _theorem_c_violation(monkeypatch):
    fake = (("[1,1]", 5), ("[2]", 3))
    monkeypatch.setattr(cli, "theorem_c_rows", lambda p, n: iter(fake))


def _injectivity_duplicate(monkeypatch):
    z4, z2z2 = parse_group("Z4"), parse_group("Z2^2")
    z12, z2z6 = parse_group("Z12"), parse_group("Z2xZ6")
    reports = (
        InjectivityReport(m=4, duplicates=((z4, z2z2),)),
        InjectivityReport(m=12, duplicates=((z12, z2z6),)),
    )
    fake = InjectivitySweep(max_order=12, groups_checked=16, failures=reports)
    monkeypatch.setattr(cli, "sweep_injectivity", lambda m: fake)


def _conjecture_f_coincidence(monkeypatch):
    a, b = parse_group("Z4"), parse_group("Z2^2")
    finding = ConjectureFReport(
        m=4, pair_count=1, coincidences=((a, b, 2, 42), (a, b, 4, 64))
    )
    fake = ConjectureFSweep(max_order=4, pairs_checked=1, failures=(finding,))
    monkeypatch.setattr(cli, "sweep_conjecture_f", lambda m, jobs: fake)


def _oracle_failure(monkeypatch):
    monkeypatch.setattr(cli, "psi_prime_from_spectrum", lambda s: FactoredInteger({2: 1}))


def _inexact_division(monkeypatch):
    from psiprime import psi
    from psiprime.arith import exact_div

    def off_by_one(numerator, denominator, what="division"):
        return exact_div(numerator + 1, denominator, what)

    monkeypatch.setattr(psi, "exact_div", off_by_one)


FAKES = {
    "theorem-c-violation": _theorem_c_violation,
    "injectivity-duplicate": _injectivity_duplicate,
    "conjecture-f-coincidence": _conjecture_f_coincidence,
    "oracle-failure": _oracle_failure,
    "inexact-division": _inexact_division,
}

FORMATS = (("table", ()), ("json", ("--json",)), ("csv", ("--csv",)))

COMMANDS = (
    ("psi", ["compute", "Z4xZ3^2", "--psi"]),
    ("psi-prime", ["compute", "Z4xZ3^2", "--psi-prime"]),
    ("psi-prime-trivial", ["compute", "1", "--psi-prime"]),
    ("psi-prime-materialize",
     ["compute", "Z6", "--psi-prime", "--materialize", "--digit-limit", "10"]),
    ("psi-k", ["compute", "Z3", "--psi-k", "2"]),
    ("psi-all", ["compute", "Z2xZ4", "--psi-all"]),
    ("spectrum", ["compute", "[4,9]", "--spectrum"]),
    ("poly", ["compute", "Z3", "--poly"]),
    ("poly-trivial", ["compute", "1", "--poly"]),
    ("enumerate", ["enumerate", "36"]),
    ("enumerate-1", ["enumerate", "1"]),
    ("theorem-c", ["verify", "theorem-c", "--prime", "3", "--n", "5"]),
    ("injectivity", ["verify", "injectivity", "--max-order", "30"]),
    ("collisions", ["verify", "collisions", "--max-order", "48"]),
    ("collisions-none", ["verify", "collisions", "--max-order", "10"]),
    ("conjecture-f", ["verify", "conjecture-f", "--max-order", "12"]),
    ("oracle", ["oracle", "Z4xZ9"]),
    ("oracle-cyclic", ["oracle", "Z8"]),
    ("oracle-rank2", ["oracle", "Z4xZ2"]),
    ("oracle-large", ["oracle", "Z2^17"]),
)

FAILURES = (
    ("theorem-c-violation", ["verify", "theorem-c", "--prime", "2", "--n", "2"]),
    ("injectivity-duplicate", ["verify", "injectivity", "--max-order", "12"]),
    ("conjecture-f-coincidence", ["verify", "conjecture-f", "--max-order", "4"]),
    ("oracle-failure", ["oracle", "Z4"]),
)

ERRORS = (
    ("bad-notation", ["compute", "Z4xQ8", "--psi"]),
    ("bad-list-notation", ["compute", "[4,x]", "--psi"]),
    ("enumerate-size-cap", ["enumerate", "2000000"]),
    ("enumerate-zero", ["enumerate", "0"]),
    ("enumerate-not-int", ["enumerate", "x"]),
    ("psi-k-out-of-range", ["compute", "Z4", "--psi-k", "99"]),
    ("psi-all-size-cap", ["compute", "Z2^10", "--psi-all"]),
    ("theorem-c-composite", ["verify", "theorem-c", "--prime", "4", "--n", "3"]),
    ("theorem-c-n-zero", ["verify", "theorem-c", "--prime", "2", "--n", "0"]),
    ("theorem-c-size-cap", ["verify", "theorem-c", "--prime", "2", "--n", "65"]),
    ("theorem-c-missing-n", ["verify", "theorem-c", "--prime", "2"]),
    ("json-and-csv", ["compute", "Z4", "--psi", "--json", "--csv"]),
    ("no-command", []),
    ("unknown-command", ["frobnicate"]),
    ("verify-no-check", ["verify"]),
    ("compute-no-selector", ["compute", "Z4"]),
    ("compute-two-selectors", ["compute", "Z4", "--psi", "--psi-prime"]),
    ("materialize-without-limit", ["compute", "Z6", "--psi-prime", "--materialize"]),
    ("limit-without-materialize", ["compute", "Z6", "--psi-prime", "--digit-limit", "5"]),
    ("materialize-not-psi-prime",
     ["compute", "Z6", "--psi", "--materialize", "--digit-limit", "5"]),
    ("materialize-digit-cap",
     ["compute", "Z256", "--psi-prime", "--materialize", "--digit-limit", "3"]),
    ("jobs-zero", ["verify", "injectivity", "--max-order", "10", "--jobs", "0"]),
    ("jobs-not-int", ["verify", "conjecture-f", "--max-order", "10", "--jobs", "x"]),
)

# argv orders the parser's scan for the invoked command must read as
# argparse does: options before, between and after the command words, a
# second command word, "--", and commands given nothing
ORDERS = (
    ("help-before-verify", ["--help", "verify"]),
    ("help-between-verify-and-check", ["verify", "--help", "injectivity"]),
    ("option-before-group", ["compute", "--psi-k", "2", "Z3"]),
    ("json-before-command", ["--json", "verify", "injectivity", "--max-order", "5"]),
    ("negative-max-order", ["verify", "injectivity", "--max-order", "-5"]),
    ("two-checks", ["verify", "injectivity", "theorem-c"]),
    ("unknown-check", ["verify", "nope"]),
    ("compute-alone", ["compute"]),
    ("oracle-alone", ["oracle"]),
    ("dashes-before-order", ["enumerate", "--", "5"]),
    ("dashes-before-check", ["verify", "--", "injectivity", "--max-order", "5"]),
)

HELP = (
    [],
    ["compute"],
    ["enumerate"],
    ["verify"],
    ["verify", "theorem-c"],
    ["verify", "injectivity"],
    ["verify", "collisions"],
    ["verify", "conjecture-f"],
    ["oracle"],
)

# (case id, fake name or None, argv)
CASES = (
    [(f"{name}-{fmt}", None, argv + list(flags)) for name, argv in COMMANDS for fmt, flags in FORMATS]
    + [(f"{fake}-{fmt}", fake, argv + list(flags)) for fake, argv in FAILURES for fmt, flags in FORMATS]
    + [("inexact-division", "inexact-division",
        ["verify", "theorem-c", "--prime", "3", "--n", "4"])]
    + [(f"error-{name}", None, argv) for name, argv in ERRORS]
    + [(f"order-{name}", None, argv) for name, argv in ORDERS]
    + [("help" + "".join(f"-{w}" for w in words), None, words + ["--help"]) for words in HELP]
)


def _replay(argv):
    out, err = io.StringIO(newline=""), io.StringIO(newline="")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record(fake, argv):
    # a fake may poison the exponent cache, so it starts and ends empty
    psi_prime_exponent.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("COLUMNS", COLUMNS)
            monkeypatch.delenv("NO_COLOR", raising=False)
            if fake is not None:
                FAKES[fake](monkeypatch)
            return _replay(argv)
    finally:
        psi_prime_exponent.cache_clear()


def _load():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_exactly_the_cases():
    assert sorted(_load()) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id, fake, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(case_id, fake, argv):
    expected = _load()[case_id]
    assert expected.pop("argv") == argv
    assert _record(fake, argv) == expected


if __name__ == "__main__":
    recorded = {
        case_id: {"argv": argv, **_record(fake, argv)} for case_id, fake, argv in CASES
    }
    DATA.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {DATA}", file=sys.stderr)
