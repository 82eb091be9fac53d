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

import pytest

from psiprime import cli, parse_group
from psiprime.psi import FactoredInteger, psi_prime_exponent
from psiprime.verify import (
    ConjectureFReport,
    ConjectureFSweep,
    InjectivityReport,
    InjectivitySweep,
)
from golden_cases import CASES, COLUMNS, DATA, replay_fresh


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


def test_a_fresh_interpreter_prints_the_golden_help_page():
    # golden_cases.py replays every case without a fake this way; the help
    # page is wrapped at the COLUMNS it passes to the new interpreter
    expected = _load()["help"]
    assert replay_fresh(expected.pop("argv")) == expected


if __name__ == "__main__":
    recorded = {
        case_id: {"argv": argv, **_record(fake, argv)} for case_id, fake, argv in CASES
    }
    DATA.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {DATA}", file=sys.stderr)
