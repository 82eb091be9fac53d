"""Benchmark of the psiprime verification sweeps, driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``psiprime.cli.main(argv)`` call, made in a fresh
interpreter (perfbench/child.py) so that every run pays for cold
``functools`` caches, as a CLI user does.  Load shape: closed loop, one
client; the next invocation starts only after the previous one exited.

With ``--trace 0`` the workload is repeated untraced for ``--seconds``
seconds, in rounds of one set-up probe and one sweep; the probe also times
a fixed reference kernel, and the round's timings are scaled by it to one
host speed (see REFERENCE_S).  The end-to-end metrics are medians over the
rounds.  With ``--trace 1`` each round runs the workload once traced and once
untraced, and injectivity-wide and its ``--jobs 2`` twin untraced, and
reports the per-layer metrics.  Every workload runs one job, so the tracer
sees all of its work.

Every output is checked against facts this file computes itself (partition
and group counts by its own recurrences, closed forms for the first and
last theorem-c rows) and against the SHA-256 of the output at the commit
that introduced the benchmark; the ROADMAP requires byte-identical output.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it record the
environment, the per-metric samples and, untraced, the raw times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from math import comb
from statistics import fmean, median
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# A run must end within 180 s; no invocation may run past this mark.
HARD_DEADLINE_S = 170.0

# The sweeps are deterministic, so what varies their time is the host: on a
# shared 2-core host it slowed them by up to half for minutes on end, longer
# than a run.  Each round's set-up probe therefore also times
# child.reference_kernel, and every time of the round is scaled by
# REFERENCE_S / that time.  This gives the times at the host speed at which
# the kernel takes REFERENCE_S, about its time on a quiet host of that kind
# (Python 3.11.7).  The raw times are printed beside the result.
REFERENCE_S = 0.12

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "partitions.partitions_of.calls": "count",
    "partitions.partitions_of.busy_s": "s",
    "partitions.partitions_of.items": "count",
    "psi.psi_prime_exponent.calls": "count",
    "psi.psi_prime_exponent.busy_s": "s",
    "psi.psi_prime_exponent.cache_hit_ratio": "ratio",
    "psi.psi_prime.calls": "count",
    "psi.psi_prime.busy_s": "s",
    "arith.factorize.calls": "count",
    "arith.factorize.busy_s": "s",
    "arith.is_prime.cache_hit_ratio": "ratio",
    "groups.enumerate_abelian_groups.calls": "count",
    "groups.enumerate_abelian_groups.busy_s": "s",
    "groups.enumerate_abelian_groups.items": "count",
    "groups.order_spectrum.calls": "count",
    "groups.order_spectrum.busy_s": "s",
    "symmetric.psi_all.calls": "count",
    "symmetric.psi_all.busy_s": "s",
    "symmetric.psi_all.result_bits": "bit",
    "verify.check.calls": "count",
    "verify.check.busy_s": "s",
    "verify.check.self_s": "s",
    "verify.fanout.speedup": "ratio",
    "verify.fanout.cpu_per_wall": "ratio",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Independent facts.  Nothing here imports psiprime.


@cache
def partition_counts(n_max: int) -> list[int]:
    """p(0), ..., p(n_max) by the coin-change recurrence over part sizes."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


@cache
def group_counts(max_order: int) -> list[int]:
    """g[m] = number of abelian groups of order m = prod_p p(v_p(m)),
    for 0 <= m <= max_order (g[0] = 0), by a smallest-prime-factor sieve."""
    spf = list(range(max_order + 1))
    for d in range(2, int(max_order**0.5) + 1):
        if spf[d] == d:
            for k in range(d * d, max_order + 1, d):
                if spf[k] == k:
                    spf[k] = d
    p = partition_counts(max(1, max_order.bit_length()))
    g = [0] * (max_order + 1)
    for m in range(1, max_order + 1):
        count, rest = 1, m
        while rest > 1:
            q, v = spf[rest], 0
            while rest % q == 0:
                rest //= q
                v += 1
            count *= p[v]
        g[m] = count
    return g


def check_theorem_c(doc: dict, p: int, n: int) -> list[str]:
    errors = []
    if doc.get("p") != str(p) or doc.get("n") != str(n):
        errors.append(f"header p={doc.get('p')!r} n={doc.get('n')!r}")
    if doc.get("violations") != []:
        errors.append(f"violations {doc.get('violations')!r}")
    rows = doc.get("rows", [])
    if len(rows) != partition_counts(n)[n]:
        errors.append(f"{len(rows)} rows, p({n}) = {partition_counts(n)[n]}")
    parts = [tuple(r["partition"]) for r in rows]
    exps = [int(r["exponent"]) for r in rows]
    if any(sum(q) != n or list(q) != sorted(q, reverse=True) or min(q) < 1 for q in parts):
        errors.append("a row is not a partition of n in descending parts")
    # for partitions of one n, plain tuple order of descending parts is the
    # lexicographic order of their zero-padded forms
    if any(a >= b for a, b in zip(parts, parts[1:])):
        errors.append("partitions are not strictly ascending")
    if any(a >= b for a, b in zip(exps, exps[1:])):
        errors.append("exponents are not strictly increasing")
    # Z_p^n: every non-identity element has order p.  Z_{p^n}: p^i - p^(i-1)
    # elements of order p^i, so E = n p^n - (p^n - 1)/(p - 1).
    if exps and exps[0] != p**n - 1:
        errors.append("elementary abelian exponent")
    if exps and exps[-1] != n * p**n - (p**n - 1) // (p - 1):
        errors.append("cyclic exponent")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    sha256: str
    units: Callable[[], int]
    check: Callable[[dict], list[str]]


# Sweep sizes.  Each invocation takes 0.85–1.3 s on a quiet 2-core host, so
# a 42 s run holds some 20 rounds, each with its own reference timing.
THEOREM_C_N = 38
INJECTIVITY_MAX_ORDER = 20000
CONJECTURE_F_MAX_ORDER = 256


def _injectivity_units() -> int:
    return sum(group_counts(INJECTIVITY_MAX_ORDER))


def _check_injectivity(doc: dict) -> list[str]:
    want = {
        "max_order": str(INJECTIVITY_MAX_ORDER),
        "groups_checked": str(_injectivity_units()),
        "duplicates": [],
    }
    return [] if doc == want else [f"expected {want}"]


def _conjecture_f_units() -> int:
    return sum(group_counts(CONJECTURE_F_MAX_ORDER))


def _check_conjecture_f(doc: dict) -> list[str]:
    pairs = sum(comb(g, 2) for g in group_counts(CONJECTURE_F_MAX_ORDER))
    want = {
        "max_order": str(CONJECTURE_F_MAX_ORDER),
        "pairs_checked": str(pairs),
        "coincidences": [],
    }
    return [] if doc == want else [f"expected {want}"]


_INJECTIVITY_SHA = "52f8f6109f0754d5dcb48ddcc7cbb1fba5b36bc8935f495795e7c04f0dd1c9e1"

# Every sweep the benchmark runs.  Why each: see perfbench/README.md.
SWEEPS = {
    w.name: w
    for w in (
        Workload(
            "theorem-c-deep",
            ("verify", "theorem-c", "--prime", "2", "--n", str(THEOREM_C_N), "--json"),
            "65a1999da1b039dcfe51ec5d6e0cc61c18a86c051c4df9c5e5b6e8825c3a06b6",
            lambda: partition_counts(THEOREM_C_N)[THEOREM_C_N],
            lambda doc: check_theorem_c(doc, 2, THEOREM_C_N),
        ),
        Workload(
            "injectivity-wide",
            ("verify", "injectivity", "--max-order", str(INJECTIVITY_MAX_ORDER), "--jobs", "1", "--json"),
            _INJECTIVITY_SHA,
            _injectivity_units,
            _check_injectivity,
        ),
        Workload(
            "injectivity-fanout",
            ("verify", "injectivity", "--max-order", str(INJECTIVITY_MAX_ORDER), "--jobs", "2", "--json"),
            _INJECTIVITY_SHA,
            _injectivity_units,
            _check_injectivity,
        ),
        Workload(
            "conjecture-f-sweep",
            ("verify", "conjecture-f", "--max-order", str(CONJECTURE_F_MAX_ORDER), "--jobs", "1",
             "--json"),
            "1107db94d7d6537b1c5c0351d1dec5dba857b2ba6881fb7a4c1467e5cae27e5a",
            _conjecture_f_units,
            _check_conjecture_f,
        ),
    )
}
# The --jobs 2 twin is not a workload of its own: its runs would shorten
# every run to fit the benchmark's time budget, and the run-to-run noise of
# a shared 2-core machine needs the longer runs.  Traced runs time it
# untraced next to its one-job twin, which gives the fan-out layer's metrics.
WORKLOADS = {name: SWEEPS[name] for name in ("theorem-c-deep", "injectivity-wide", "conjecture-f-sweep")}
FANOUT_PAIR = ("injectivity-wide", "injectivity-fanout")


# ---------------------------------------------------------------------------
# Running the children.


@dataclass
class Invocation:
    kind: str  # "setup", "plain" or "trace"
    workload: str | None
    round: int = -1
    setup_s: float | None = None
    ref_s: float | None = None  # reference kernel time, set-up probes only
    report: dict | None = None
    stdout_bytes: int = 0
    errors: list[str] = field(default_factory=list)


def jobs(argv: tuple[str, ...]) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def invoke(kind: str, workload: Workload | None, deadline: float) -> Invocation:
    argv = () if workload is None else workload.argv
    inv = Invocation(kind, workload.name if workload else None)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, kind, *argv],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        inv.errors.append("timed out")
        return inv
    finally:
        # pool workers share the child's process group
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            pass
        else:
            os.killpg(proc.pid, signal.SIGKILL)
    lines = err.decode(errors="replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        inv.errors.append(f"exit {proc.returncode}, no report: {lines[-3:]}")
        return inv
    inv.setup_s = report["ready"] - spawned
    if proc.returncode != 0:
        inv.errors.append(f"exit {proc.returncode}")
    if workload is None:
        inv.ref_s = report.get("ref_s")
        return inv
    inv.report = report
    inv.stdout_bytes = len(out)
    if hashlib.sha256(out).hexdigest() != workload.sha256:
        inv.errors.append("stdout differs from the pinned SHA-256")
    try:
        doc = json.loads(out)
    except ValueError:
        inv.errors.append("stdout is not JSON")
    else:
        inv.errors.extend(workload.check(doc))
    return inv


def schedule(workload: str, trace: bool) -> list[tuple[str, str | None]]:
    """One round of invocations, before shuffling."""
    steps = [("setup", None)]
    if not trace:
        return steps + [("plain", workload)]
    plain = {workload, *FANOUT_PAIR}
    return steps + [("trace", workload)] + [("plain", name) for name in sorted(plain)]


def run_rounds(workload: str, trace: bool, seed: int, seconds: float) -> list[Invocation]:
    # The sweeps are exhaustive and draw nothing at random, so the seed
    # changes no input: it fixes only the interleaving order of the
    # invocations within each round.
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + HARD_DEADLINE_S

    def invocation(kind: str, name: str | None) -> Invocation:
        return invoke(kind, SWEEPS[name] if name else None, deadline)

    invocation("setup", None)  # warm-up: byte-compiles src on a fresh checkout
    done: list[Invocation] = []
    rounds: list[float] = []
    while not rounds or (
        time.monotonic() - start + fmean(rounds) <= seconds
        and time.monotonic() + max(rounds) < deadline
    ):
        began = time.monotonic()
        steps = schedule(workload, trace)
        rng.shuffle(steps)
        for kind, name in steps:
            done.append(invocation(kind, name))
            done[-1].round = len(rounds)
        rounds.append(time.monotonic() - began)
    return done


# ---------------------------------------------------------------------------
# Metrics.


def _plain(done: list[Invocation], workload: str, key: str) -> list[float]:
    return [i.report[key] for i in done if i.kind == "plain" and i.workload == workload and i.report]


def end_to_end(done: list[Invocation], workload: str) -> dict[str, list[float]]:
    """Samples of every round that has a reference timing, with each time
    scaled by REFERENCE_S / the round's reference time."""
    units = WORKLOADS[workload].units()
    scale = {i.round: REFERENCE_S / i.ref_s for i in done if i.kind == "setup" and i.ref_s}
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for inv in done:
        if inv.round not in scale:
            continue
        if inv.setup_s is not None:
            samples["setup_s"].append(inv.setup_s * scale[inv.round])
        if inv.kind == "plain" and inv.workload == workload and inv.report:
            wall = inv.report["wall_s"] * scale[inv.round]
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(inv.report["cpu_s"] * scale[inv.round])
            samples["units_per_s"].append(units / wall)
            samples["peak_rss_mb"].append(inv.report["peak_rss_mb"])
    return samples


def raw_timings(done: list[Invocation], workload: str) -> dict[str, list[float]]:
    return {
        "ref_s": [i.ref_s for i in done if i.ref_s],
        "setup_s": [i.setup_s for i in done if i.setup_s is not None],
        "wall_s": _plain(done, workload, "wall_s"),
        "cpu_s": _plain(done, workload, "cpu_s"),
    }


# Per-layer metrics read from a span statistic under another name; the
# rest are "<span>.<statistic>".
RENAMED = {
    "symmetric.psi_all.result_bits": ("symmetric.psi_all", "items"),
    "cli.self_s": ("cli.main", "self_s"),
}


def per_layer(done: list[Invocation], workload: str) -> dict[str, list[float]]:
    traced = [i for i in done if i.kind == "trace" and i.report]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for inv in traced:
        spans, caches = inv.report["spans"], inv.report["caches"]
        for name in PER_LAYER:
            span, stat = RENAMED[name] if name in RENAMED else name.rsplit(".", 1)
            if span in spans and stat in spans[span]:
                samples[name].append(spans[span][stat])
            elif stat == "cache_hit_ratio" and span in caches:
                hits, misses = caches[span]
                samples[name].append(hits / (hits + misses) if hits + misses else 0.0)
        samples["cli.stdout_bytes"].append(inv.stdout_bytes)

    one, two = FANOUT_PAIR
    if _plain(done, one, "wall_s") and _plain(done, two, "wall_s"):
        wall_two = median(_plain(done, two, "wall_s"))
        samples["verify.fanout.speedup"].append(median(_plain(done, one, "wall_s")) / wall_two)
        samples["verify.fanout.cpu_per_wall"].append(median(_plain(done, two, "cpu_s")) / wall_two)
    untraced = _plain(done, workload, "wall_s")
    if traced and untraced:
        samples["trace.overhead_s"].append(
            median([i.report["wall_s"] for i in traced]) - median(untraced)
        )
    return samples


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    got = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return got.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "psiprime"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psiprime", "cli.py")):
        print(f"error: no psiprime sources under {SRC}", file=sys.stderr)
        return 2

    done = run_rounds(args.workload, bool(args.trace), args.seed, args.seconds)
    samples = per_layer(done, args.workload) if args.trace else end_to_end(done, args.workload)
    units = PER_LAYER if args.trace else END_TO_END
    if any(not values for values in samples.values()):
        missing = sorted(name for name, values in samples.items() if not values)
        print(f"error: no successful sample for {missing}", file=sys.stderr)
        for inv in done:
            if inv.errors:
                print(f"  {inv.kind} {inv.workload}: {inv.errors}", file=sys.stderr)
        return 1

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "jobs": {name: jobs(w.argv) for name, w in SWEEPS.items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"samples": samples}))
    if not args.trace:
        print(json.dumps({"raw": raw_timings(done, args.workload)}))
    failures = [(i.kind, i.workload, i.errors) for i in done if i.errors]
    for failure in failures:
        print(json.dumps({"failure": failure}))
    result = {
        "correct": not failures,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {
            name: {"value": median(samples[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
