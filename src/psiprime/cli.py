"""Command-line front end.

Every subcommand prints a human table by default, machine JSON with
``--json`` (compact, deterministic key order, every unbounded integer as a
decimal string), or CSV with ``--csv``.  Exit codes: 0 success, 1 usage
error, 2 size/cap error, 3 theorem violation detected or an internal
exactness check failed (``ConsistencyError``), 4 conjecture counterexample
found.

All output goes through one renderer, ``_render(args, headers, rows, obj,
text=..., notes=...)``.  ``--json`` prints ``obj()`` and nothing else.
``--csv`` prints ``headers`` and ``rows``, then the ``notes`` lines.  The
default format prints ``text`` if one is given (a bare scalar, a factored
psi', a polynomial), else ``headers`` and ``rows`` as an aligned table;
then the ``notes`` lines.

``verify theorem-c`` streams: its rows come from a generator, and the JSON
and CSV are written as the rows are made, so memory does not grow with
p(n).  An exactness failure partway through therefore leaves the output
written so far on stdout, truncated, and exits 3.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from collections.abc import Iterator
from typing import Callable, Iterable, Sequence

from .arith import FACTORIZATION_CAP
from .errors import ConsistencyError, DomainError, NotationError, SizeLimitError
from .groups import (
    BRUTE_FORCE_CAP,
    AbelianGroup,
    brute_force_spectrum,
    enumerate_abelian_groups,
    order_spectrum,
)
from .notation import format_group, group_to_json_dict, parse_group, spectrum_to_json_dict
from .psi import (
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    psi_sum,
)
from .symmetric import order_polynomial, psi_all, psi_k
from .verify import (
    find_cross_order_collisions,
    record_violations,
    sweep_conjecture_f,
    sweep_injectivity,
    theorem_c_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZE = 2
EXIT_VIOLATION = 3
EXIT_COUNTEREXAMPLE = 4

# Items per write when a JSON array is written as it streams.
_JSON_CHUNK = 1024


def _styled(text: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def _render(
    args,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    obj: Callable[[], object],
    *,
    text: str | None = None,
    notes: Iterable[str] = (),
) -> None:
    """Print one result in the format chosen by ``args.fmt``.

    Only the chosen format is built: ``obj()`` is called for ``--json``
    alone, and ``rows`` (any iterable, cells passed through ``str``) is
    consumed only for the table or CSV.  CSV rows and the values of the
    dict ``obj()`` returns are written in order.  An iterator among those
    values must yield the JSON text of each item, and is written as a
    JSON array of them while it is consumed; ``notes`` is read after the
    rows.
    """
    if args.fmt == "json":
        _write_json(obj())
        return
    if args.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        writer.writerows(rows)
    elif text is not None:
        print(text)
    else:
        cells = [[str(c) for c in row] for row in rows]
        widths = [max([len(h)] + [len(row[i]) for row in cells]) for i, h in enumerate(headers)]
        print(_styled("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()))
        for row in cells:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    for line in notes:
        print(line)


def _write_json(doc: object) -> None:
    # the bytes of print(json.dumps(doc, separators=(",", ":"))), written
    # one value of a top-level dict (string keys) at a time.  An iterator
    # value yields the compact JSON text of each item, and those texts are
    # joined with "," in chunks of _JSON_CHUNK items
    write = sys.stdout.write
    if not isinstance(doc, dict):
        write(json.dumps(doc, separators=(",", ":")) + "\n")
        return
    write("{")
    for i, (key, value) in enumerate(doc.items()):
        write(("," if i else "") + json.dumps(key) + ":")
        if isinstance(value, Iterator):
            write("[")
            comma = ""
            while chunk := ",".join(itertools.islice(value, _JSON_CHUNK)):
                write(comma + chunk)
                comma = ","
            write("]")
        else:
            write(json.dumps(value, separators=(",", ":")))
    write("}\n")


def _jobs_arg(value: str) -> int | None:
    if value == "auto":
        return None
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid jobs value {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1 or 'auto'")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psiprime",
        description="Exact sums, products, and symmetric functions of "
        "element orders of finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish_command(p: argparse.ArgumentParser, run) -> None:
        # every command takes the format flags and names its handler
        p.set_defaults(run=run)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                         help="machine JSON output")
        fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                         help="CSV output")

    p = sub.add_parser("compute", help="compute invariants of one group")
    p.add_argument("group", help="group notation: Z4xZ3^2 or [4,3,3]")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--psi", action="store_true", help="sum of element orders")
    which.add_argument("--psi-prime", action="store_true", help="product of element orders (factored)")
    which.add_argument("--psi-k", type=int, metavar="K", help="k-th elementary symmetric function")
    which.add_argument("--psi-all", action="store_true", help="all psi_k, k = 1..|G|")
    which.add_argument("--spectrum", action="store_true", help="element-order spectrum")
    which.add_argument("--poly", action="store_true", help="order polynomial prod (X - o(x))")
    p.add_argument("--materialize", action="store_true",
                   help="expand psi' to a decimal integer (requires --digit-limit)")
    p.add_argument("--digit-limit", type=int, metavar="D",
                   help="refuse to materialize beyond D decimal digits")
    finish_command(p, _cmd_compute)

    p = sub.add_parser("enumerate", help="list all abelian groups of one order")
    p.add_argument("m", type=int, help="group order")
    finish_command(p, _cmd_enumerate)

    v = sub.add_parser("verify", help="run an empirical verification sweep")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("theorem-c", help="psi' strictly increases along the partition order")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    finish_command(p, _cmd_theorem_c)

    p = vsub.add_parser("injectivity", help="no two groups of one order share psi'")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_arg, default=1, help="worker processes or 'auto'")
    finish_command(p, _cmd_injectivity)

    p = vsub.add_parser("collisions", help="census of cross-order psi' coincidences")
    p.add_argument("--max-order", type=int, required=True)
    finish_command(p, _cmd_collisions)

    p = vsub.add_parser("conjecture-f", help="each single psi_k separates groups of one order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--jobs", type=_jobs_arg, default=1, help="worker processes or 'auto'")
    finish_command(p, _cmd_conjecture_f)

    p = sub.add_parser("oracle", help="cross-check formulas against brute enumeration")
    p.add_argument("group", help="group notation: Z4xZ3^2 or [4,3,3]")
    finish_command(p, _cmd_oracle)

    return parser


def _cmd_compute(args) -> int:
    G = parse_group(args.group)
    if args.materialize != (args.digit_limit is not None):
        print("error: --materialize and --digit-limit must be given together", file=sys.stderr)
        return EXIT_USAGE
    if args.materialize and not args.psi_prime:
        print("error: --materialize only applies to --psi-prime", file=sys.stderr)
        return EXIT_USAGE

    if args.psi_prime and not args.materialize:
        fi = psi_prime(G)
        _render(args, ["prime", "exponent"], fi.factors, fi.to_json_dict, text=str(fi))
    elif args.psi_all:
        values = psi_all(G)
        _render(args, ["k", "psi_k"], enumerate(values, 1),
                lambda: {"psi_k": [str(v) for v in values]})
    elif args.spectrum:
        spectrum = order_spectrum(G)
        _render(args, ["order", "multiplicity"], spectrum.entries,
                lambda: spectrum_to_json_dict(spectrum))
    elif args.poly:
        poly = order_polynomial(G)
        _render(args, ["power", "coefficient"], enumerate(poly.coeffs),
                lambda: {"coeffs": [str(c) for c in poly.coeffs]}, text=str(poly))
    else:
        if args.psi:
            name, value = "psi", psi_sum(G)
        elif args.psi_prime:
            name, value = "psi_prime", psi_prime(G).materialize(args.digit_limit)
        else:
            name, value = f"psi_{args.psi_k}", psi_k(G, args.psi_k)
        _render(args, [name], [[value]], lambda: str(value), text=str(value))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    entries = [(G, psi_prime(G)) for G in enumerate_abelian_groups(args.m)]
    _render(
        args,
        ["#", "group", "psi_prime"],
        ((i, format_group(G), fi) for i, (G, fi) in enumerate(entries)),
        lambda: {
            "order": str(args.m),
            "count": str(len(entries)),
            "groups": [
                {
                    "group": group_to_json_dict(G),
                    "notation": format_group(G),
                    "psi_prime": fi.to_json_dict(),
                }
                for G, fi in entries
            ],
        },
    )
    return EXIT_OK


def _cmd_theorem_c(args) -> int:
    violations: list[tuple[int, int]] = []
    # theorem_c_rows checks p, n and the cap before the table is built
    rows = record_violations(theorem_c_rows(args.prime, args.n), violations)
    # every part is at most n; each row's partition text is made once
    part_text = [str(x) for x in range(args.n + 1)].__getitem__
    texts = (("[" + ",".join(map(part_text, q.parts)) + "]", e) for q, e in rows)

    def count():
        # read after the rows, so every violation is counted
        yield f"violations: {len(violations)}"

    _render(
        args,
        ["partition", "psi_prime_exponent"],
        texts,
        lambda: {
            "p": str(args.prime),
            "n": str(args.n),
            "rows": ('{"partition":' + t + ',"exponent":"' + str(e) + '"}' for t, e in texts),
            # filled while "rows" streams, and written after it
            "violations": violations,
        },
        notes=() if args.fmt == "csv" else count(),
    )
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_injectivity(args) -> int:
    sweep = sweep_injectivity(args.max_order, jobs=args.jobs)
    _render(
        args,
        ["max_order", "groups_checked", "orders_with_duplicates"],
        [[sweep.max_order, sweep.groups_checked, len(sweep.failures)]],
        lambda: {
            "max_order": str(sweep.max_order),
            "groups_checked": str(sweep.groups_checked),
            "duplicates": [
                {
                    "m": str(r.m),
                    "groups": [group_to_json_dict(G) for dup in r.duplicates for G in dup],
                }
                for r in sweep.failures
            ],
        },
        notes=(
            f"DUPLICATE at order {r.m}: " + ", ".join(format_group(G) for G in dup)
            for r in sweep.failures
            for dup in r.duplicates
        ),
    )
    return EXIT_OK if sweep.holds else EXIT_VIOLATION


def _cmd_collisions(args) -> int:
    report = find_cross_order_collisions(args.max_order)
    _render(
        args,
        ["order_a", "group_a", "order_b", "group_b", "shared_psi_prime"],
        ((a.order, format_group(a), b.order, format_group(b), fi) for a, b, fi in report.pairs),
        lambda: {
            "scope": str(report.scope),
            "pairs": [
                {
                    "order_a": str(a.order),
                    "group_a": group_to_json_dict(a),
                    "order_b": str(b.order),
                    "group_b": group_to_json_dict(b),
                    "psi_prime": fi.to_json_dict(),
                }
                for a, b, fi in report.pairs
            ],
        },
    )
    return EXIT_OK


def _cmd_conjecture_f(args) -> int:
    sweep = sweep_conjecture_f(args.max_order, jobs=args.jobs)
    found = [(r.m, a, b, k, v) for r in sweep.failures for a, b, k, v in r.coincidences]
    banner = "!" * 72
    _render(
        args,
        ["max_order", "pairs_checked", "orders_with_coincidences"],
        [[sweep.max_order, sweep.pairs_checked, len(sweep.failures)]],
        lambda: {
            "max_order": str(sweep.max_order),
            "pairs_checked": str(sweep.pairs_checked),
            "coincidences": [
                {
                    "m": str(m),
                    "group_a": group_to_json_dict(a),
                    "group_b": group_to_json_dict(b),
                    "k": k,
                    "value": str(v),
                }
                for m, a, b, k, v in found
            ],
        },
        notes=() if sweep.holds else [
            banner,
            "PSI_K COINCIDENCE FOUND — potential conjecture counterexample:",
            *(
                f"  order {m}: psi_{k}({format_group(a)}) = psi_{k}({format_group(b)}) = {v}"
                for m, a, b, k, v in found
            ),
            banner,
        ],
    )
    return EXIT_OK if sweep.holds else EXIT_COUNTEREXAMPLE


def _oracle_checks(G: AbelianGroup) -> list[tuple[str, str, str]]:
    checks: list[tuple[str, str, str]] = []
    spectrum = order_spectrum(G)

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, "pass" if ok else "fail", detail))

    if G.order <= BRUTE_FORCE_CAP:
        brute = brute_force_spectrum(G)
        record("spectrum counting vs brute enumeration", spectrum == brute)
        record(
            "psi sum vs brute spectrum",
            psi_sum(G) == sum(d * m for d, m in brute.entries),
        )
    else:
        checks.append(("spectrum counting vs brute enumeration", "skipped",
                       f"|G| > {BRUTE_FORCE_CAP}"))
    # the spectrum product trial-divides every element order
    if spectrum.entries[-1][0] <= FACTORIZATION_CAP:
        record(
            "psi' formula vs spectrum product",
            psi_prime(G) == psi_prime_from_spectrum(spectrum),
        )
    else:
        checks.append(("psi' formula vs spectrum product", "skipped",
                       f"element order > {FACTORIZATION_CAP}"))
    if len(G.components) == 1 and len(G.components[0][1]) <= 2:
        p, q = G.components[0]
        closed = (
            psi_prime_cyclic_closed_form(p, q.parts[0])
            if len(q) == 1
            else psi_prime_rank2_closed_form(p, q.parts[1], q.parts[0])
        )
        record("closed form vs exponent formula", closed == psi_prime(G))
    else:
        checks.append(("closed form vs exponent formula", "skipped",
                       "only for p-groups of rank <= 2"))
    if G.order <= 256:
        values = psi_all(G)
        ok = values[0] == psi_sum(G) and values[-1] == psi_prime(G).materialize(10**6)
        record("psi_k endpoints (psi_1 = psi, psi_n = psi')", ok)
    else:
        checks.append(("psi_k endpoints (psi_1 = psi, psi_n = psi')", "skipped", "|G| > 256"))
    return checks


def _cmd_oracle(args) -> int:
    G = parse_group(args.group)
    checks = _oracle_checks(G)
    _render(
        args,
        ["status", "check", "detail"],
        ((s.upper(), n, d) for n, s, d in checks),
        lambda: {
            "group": group_to_json_dict(G),
            "order": str(G.order),
            "checks": [{"name": n, "status": s, "detail": d} for n, s, d in checks],
        },
    )
    return EXIT_OK if all(s != "fail" for _, s, _ in checks) else EXIT_VIOLATION


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    # psi values, spectra and materialized psi' run past Python's default
    # 4300-digit limit on int -> str; lift it for this call only (the
    # notation parser bounds every digit run it converts).  Python 3.10
    # releases before 3.10.7 have no limit and no setter.
    saved_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except NotationError as exc:
        print(f"error: unparseable group notation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        if saved_digits is not None:
            sys.set_int_max_str_digits(saved_digits)


if __name__ == "__main__":
    sys.exit(main())
