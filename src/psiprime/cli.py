"""Command-line front end.

Every subcommand prints a human table by default, machine JSON with
``--json`` (compact, deterministic key order, every unbounded integer as a
decimal string), or CSV with ``--csv``.  Exit codes: 0 success, 1 usage
error, 2 size/cap error, 3 theorem violation detected or an internal
exactness check failed (``ConsistencyError``), 4 conjecture counterexample
found.

Every result that fits in memory goes through one renderer,
``_render(args, headers, rows, obj, text=..., notes=...)``.  ``--json``
prints ``obj()`` and nothing else.  ``--csv`` prints ``headers`` and
``rows``, then the ``notes`` lines.  The default format prints ``text`` if
one is given (a bare scalar, a factored psi', a polynomial), else
``headers`` and ``rows`` as an aligned table; then the ``notes`` lines.

``verify theorem-c`` has p(n) rows, over 1.7 million at the cap, so it
writes them ``_CHUNK`` (1,024) at a time as they are made, scanning each
chunk for exponent drops, and holds at most one chunk.  Its exactness
checks all run when the rows are asked for, before the first byte, so a
failure exits 3 with stdout empty: stdout holds the whole report or
nothing, unless the reader closes it early.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
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
    FactoredInteger,
    psi_prime,
    psi_prime_cyclic_closed_form,
    psi_prime_from_spectrum,
    psi_prime_rank2_closed_form,
    psi_sum,
)
from .symmetric import order_polynomial, psi_all, psi_k
from .verify import (
    drops,
    find_cross_order_collisions,
    sweep_conjecture_f,
    sweep_injectivity,
    theorem_c_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZE = 2
EXIT_VIOLATION = 3
EXIT_COUNTEREXAMPLE = 4

# Rows per write: verify theorem-c writes its rows, in every format, this
# many at a time.
_CHUNK = 1024


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
    alone and printed as one compact ``json.dumps``, and ``rows`` (any
    iterable, cells passed through ``str``) is consumed only for the
    table or CSV, which then print the ``notes`` lines.
    """
    if args.fmt == "json":
        print(json.dumps(obj(), separators=(",", ":")))
        return
    if args.fmt == "csv":
        import csv  # here, not at the top: only --csv needs it
        csv.writer(sys.stdout).writerows(itertools.chain([headers], rows))
    elif text is not None:
        print(text)
    else:
        _write_table(headers, [list(rows)])
    for line in notes:
        print(line)


def _chunks(rows: Iterable[Sequence]) -> Iterator[list[Sequence]]:
    # the rows in lists of _CHUNK, the last one shorter
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CHUNK)):
        yield chunk


def _write_table(headers: Sequence[str], chunks: Iterable[list[Sequence]]) -> None:
    # The column widths come from the header and the first chunk alone.
    # That is exact for both callers.  _render passes all its rows as one
    # chunk.  In verify theorem-c every line is rstripped, so the width of
    # the last column, the exponent, never reaches the output; and row 0,
    # the partition [1,...,1] of n, has the longest text, 2n + 1
    # characters: k parts l_i take k + 1 + sum(digits(l_i)) <= 2n + 1,
    # equal only for k = n.
    chunks = iter(chunks)
    first = next(chunks, [])
    widths = [max(map(len, map(str, column))) for column in zip(headers, *first)]
    # "!s" pads str(c) like str(c).ljust(w), whatever the cell's type
    fmt = "  ".join(f"{{!s:<{w}}}" for w in widths)
    print(_styled(fmt.format(*headers).rstrip()))
    for chunk in itertools.chain([first], chunks):
        if chunk:
            print("\n".join(map(str.rstrip, itertools.starmap(fmt.format, chunk))))


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


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of argv.  Every command and check is registered with the
    help that usage, help and error messages read, but only those named by
    argv's first two non-option words get their arguments."""
    words = [w for w in argv if not w.startswith("-")][:2]
    parser = argparse.ArgumentParser(
        prog="psiprime",
        description="Exact sums, products, and symmetric functions of "
        "element orders of finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(under, path: tuple[str, ...], help: str, **kwargs):
        p = under.add_parser(path[-1], help=help, **kwargs)
        return p if tuple(words[: len(path)]) == path else None

    def finish_command(p: argparse.ArgumentParser, run) -> None:
        # every command takes the format flags and names its handler
        p.set_defaults(run=run)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                         help="machine JSON output")
        fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                         help="CSV output")

    # usage spelled out, as argparse wraps this group differently by version
    usage = ("\n" + " " * len("usage: psiprime compute ")).join([
        "%(prog)s [-h]", "(--psi | --psi-prime | --psi-k K | --psi-all | --spectrum | --poly)",
        "[--materialize] [--digit-limit D] [--json | --csv]", "group"])
    if p := command(sub, ("compute",), "compute invariants of one group", usage=usage):
        p.add_argument("group", help="group notation: Z4xZ3^2 or [4,3,3]")
        which = p.add_mutually_exclusive_group(required=True).add_argument
        which("--psi", action="store_true", help="sum of element orders")
        which("--psi-prime", action="store_true", help="product of element orders (factored)")
        which("--psi-k", type=int, metavar="K", help="k-th elementary symmetric function")
        which("--psi-all", action="store_true", help="all psi_k, k = 1..|G|")
        which("--spectrum", action="store_true", help="element-order spectrum")
        which("--poly", action="store_true", help="order polynomial prod (X - o(x))")
        p.add_argument("--materialize", action="store_true",
                       help="expand psi' to a decimal integer (requires --digit-limit)")
        p.add_argument("--digit-limit", type=int, metavar="D",
                       help="refuse to materialize beyond D decimal digits")
        finish_command(p, _cmd_compute)

    if p := command(sub, ("enumerate",), "list all abelian groups of one order"):
        p.add_argument("m", type=int, help="group order")
        finish_command(p, _cmd_enumerate)

    if v := command(sub, ("verify",), "run an empirical verification sweep"):
        vsub = v.add_subparsers(dest="check", required=True)
        if p := command(vsub, ("verify", "theorem-c"),
                        "psi' strictly increases along the partition order"):
            p.add_argument("--prime", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
            finish_command(p, _cmd_theorem_c)
        for check, help, run in (
            ("injectivity", "no two groups of one order share psi'", _cmd_injectivity),
            ("collisions", "census of cross-order psi' coincidences", _cmd_collisions),
            ("conjecture-f", "each single psi_k separates groups of one order", _cmd_conjecture_f),
        ):
            if p := command(vsub, ("verify", check), help):
                p.add_argument("--max-order", type=int, required=True)
                if check != "collisions":
                    p.add_argument("--jobs", type=_jobs_arg, default=1,
                                   help="worker processes or 'auto'")
                finish_command(p, run)

    if p := command(sub, ("oracle",), "cross-check formulas against brute enumeration"):
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


def _scanned(rows: Iterable[tuple[str, int]], violations: list[tuple[int, int]]):
    # the rows in _CHUNK chunks, each chunk's exponent drops appended to
    # violations; a chunk is scanned after the last row of the one before
    start, last = 0, []
    for chunk in _chunks(rows):
        exponents = map(operator.itemgetter(1), last + chunk)
        violations.extend((i, i + 1) for i in drops(exponents, start - len(last)))
        start += len(chunk)
        last = chunk[-1:]
        yield chunk


def _cmd_theorem_c(args) -> int:
    headers = ["partition", "psi_prime_exponent"]
    violations: list[tuple[int, int]] = []
    # theorem_c_rows checks p, n and the cap when called, before anything
    # is written
    chunks = _scanned(theorem_c_rows(args.prime, args.n), violations)
    if args.fmt == "json":
        write = sys.stdout.write
        write(f'{{"p":"{args.prime}","n":"{args.n}","rows":[')
        comma = ""
        for chunk in chunks:
            write(comma + ",".join(f'{{"partition":{t},"exponent":"{e}"}}' for t, e in chunk))
            comma = ","
        write(f'],"violations":{json.dumps(violations, separators=(",", ":"))}}}\n')
    elif args.fmt == "csv":
        # csv.writer's bytes: a partition text holds no quote or line
        # break, so it is quoted iff it holds a comma, and rows end in \r\n
        write = sys.stdout.write
        write(",".join(headers) + "\r\n")
        for chunk in chunks:
            write("".join(f'"{t}",{e}\r\n' if "," in t else f"{t},{e}\r\n" for t, e in chunk))
    else:
        _write_table(headers, chunks)
        print(f"violations: {len(violations)}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_injectivity(args) -> int:
    # --jobs is parsed and checked, but the sweep runs in one process
    sweep = sweep_injectivity(args.max_order)
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
        notes=[
            f"DUPLICATE at order {r.m}: " + ", ".join(format_group(G) for G in dup)
            for r in sweep.failures
            for dup in r.duplicates
        ],
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

    def check(name: str, skip_reason: str, test: Callable[[], bool]) -> None:
        if skip_reason:
            checks.append((name, "skipped", skip_reason))
        else:
            checks.append((name, "pass" if test() else "fail", ""))

    def closed_form() -> FactoredInteger:
        p, q = G.components[0]
        if len(q) == 1:
            return psi_prime_cyclic_closed_form(p, q.parts[0])
        return psi_prime_rank2_closed_form(p, q.parts[1], q.parts[0])

    def psi_k_endpoints_hold() -> bool:
        values = psi_all(G)
        return values[0] == psi_sum(G) and values[-1] == psi_prime(G).materialize(10**6)

    brute = brute_force_spectrum(G) if G.order <= BRUTE_FORCE_CAP else None
    check("spectrum counting vs brute enumeration",
          "" if brute is not None else f"|G| > {BRUTE_FORCE_CAP}",
          lambda: spectrum == brute)
    if brute is not None:
        check("psi sum vs brute spectrum", "",
              lambda: psi_sum(G) == sum(d * m for d, m in brute.entries))
    # the spectrum product trial-divides every element order
    check("psi' formula vs spectrum product",
          "" if spectrum.entries[-1][0] <= FACTORIZATION_CAP
          else f"element order > {FACTORIZATION_CAP}",
          lambda: psi_prime(G) == psi_prime_from_spectrum(spectrum))
    check("closed form vs exponent formula",
          "" if len(G.components) == 1 and len(G.components[0][1]) <= 2
          else "only for p-groups of rank <= 2",
          lambda: closed_form() == psi_prime(G))
    check("psi_k endpoints (psi_1 = psi, psi_n = psi')",
          "" if G.order <= 256 else "|G| > 256", psi_k_endpoints_hold)
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
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
        code = args.run(args)
        # here, so that a reader gone before the buffer is written is caught
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: end quietly with the exit 1 an
        # uncaught exception gave, with /dev/null under stdout so that the
        # interpreter's flush at exit cannot raise it a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
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
