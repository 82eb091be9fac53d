"""The golden CLI cases, and a replay of them in fresh interpreters.

``CASES`` lists every case in ``cli_golden.json`` as (case id, fake name or
None, argv); ``test_cli_golden.py`` replays them all in process, with the
named fakes in place.  Run as a script, this module replays each case that
needs no fake through ``python -m psiprime.cli`` in a new interpreter, with
``COLUMNS=80`` and no ``NO_COLOR``, and compares the exit code and the bytes
of stdout and stderr with the recorded ones.  It needs only the standard
library, so any interpreter can run it::

    python tests/golden_cases.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).with_name("cli_golden.json")
SRC = Path(__file__).resolve().parent.parent / "src"
COLUMNS = "80"

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


def replay_fresh(argv):
    """argv through ``python -m psiprime.cli`` in a new interpreter, in the
    form of a recorded case without its argv."""
    env = {key: value for key, value in os.environ.items() if key != "NO_COLOR"}
    done = subprocess.run(
        [sys.executable, "-m", "psiprime.cli", *argv],
        env={**env, "PYTHONPATH": str(SRC), "COLUMNS": COLUMNS},
        capture_output=True,
        timeout=120,
    )
    return {
        "code": done.returncode,
        "stdout": done.stdout.decode("utf-8", "surrogateescape"),
        "stderr": done.stderr.decode("utf-8", "surrogateescape"),
    }


def main():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    fresh = [(case_id, argv) for case_id, fake, argv in CASES if fake is None]
    failed = 0
    for case_id, argv in fresh:
        want = recorded[case_id]
        if want.pop("argv") != argv or replay_fresh(argv) != want:
            failed += 1
            print(f"MISMATCH {case_id}: {argv}", file=sys.stderr)
    print(f"{len(fresh) - failed}/{len(fresh)} golden cases match in fresh "
          f"interpreters (Python {sys.version.split()[0]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
