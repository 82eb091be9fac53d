"""One psiprime CLI invocation in a fresh interpreter.

    python3 perfbench/child.py MODE [CLI ARGS...]

MODE is ``setup`` (import ``psiprime.cli``, then time the reference
kernel below), ``plain`` (call
``psiprime.cli.main(CLI ARGS)`` untraced) or ``trace`` (the same call with
span wrappers installed around each layer's public functions).  The CLI's
own output goes to stdout untouched; this script's report is one JSON line
on stderr, written after the CLI returns.  The exit status is the CLI's.

A fresh process per invocation is the point: ``psi_prime_exponent``,
``is_prime`` and the spectrum helpers are ``functools`` caches, and a CLI
user starts each sweep with all of them cold.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (span name, defining module, function name, size of one result or None).
# verify.check spans the per-order check functions, verify.sweep the
# whole-range sweeps that fan them out; both are kept so that cli.main's
# self time excludes the sweep and verify.check's self time excludes the
# kernels it calls.
SPANS = (
    ("partitions.partitions_of", "psiprime.partitions", "partitions_of", len),
    ("psi.psi_prime_exponent", "psiprime.psi", "psi_prime_exponent", None),
    ("psi.psi_prime", "psiprime.psi", "psi_prime", None),
    ("arith.factorize", "psiprime.arith", "factorize", None),
    ("groups.enumerate_abelian_groups", "psiprime.groups", "enumerate_abelian_groups", len),
    ("groups.order_spectrum", "psiprime.groups", "order_spectrum", None),
    ("symmetric.psi_all", "psiprime.symmetric", "psi_all",
     lambda values: sum(v.bit_length() for v in values)),
    ("verify.check", "psiprime.verify", "check_theorem_c", None),
    ("verify.check", "psiprime.verify", "check_injectivity", None),
    ("verify.check", "psiprime.verify", "check_conjecture_f", None),
    ("verify.sweep", "psiprime.verify", "sweep_injectivity", None),
    ("verify.sweep", "psiprime.verify", "sweep_conjecture_f", None),
)

# functools caches read through their public cache_info().  The private
# _pgroup_spectrum and _cyclic_element_orders caches are left to tracing
# inside the program.
CACHES = (
    ("psi.psi_prime_exponent", "psiprime.psi", "psi_prime_exponent"),
    ("arith.is_prime", "psiprime.arith", "is_prime"),
)


class Tracer:
    """Aggregated spans: per name, calls, inclusive busy time (outermost
    call of that name only), self time (span minus its child spans) and a
    summed result size."""

    def __init__(self):
        self.stats = {}
        self._children = [0.0]  # child-span time of each open span
        self._depth = {}

    def wrap(self, name, fn, size=None):
        stat = self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0})
        children, depth = self._children, self._depth
        clock = time.perf_counter

        def span(*args, **kwargs):
            stat["calls"] += 1
            depth[name] = depth.get(name, 0) + 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat["self_s"] += elapsed - children.pop()
                children[-1] += elapsed
                depth[name] -= 1
                if not depth[name]:
                    stat["busy_s"] += elapsed
            if size is not None:
                # sizing the result is tracing cost: charge it to the
                # enclosing span as child time, not as its self time
                start = clock()
                stat["items"] += size(result)
                children[-1] += clock() - start
            return result

        return span

    def install(self, spans):
        """Replace every binding of each target in every loaded psiprime
        module (``from .x import f`` copies the name into the caller), and
        fail if a binding is left unwrapped."""
        modules = [m for n, m in sys.modules.items() if n == "psiprime" or n.startswith("psiprime.")]
        for name, module, attr, size in spans:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            left = [m.__name__ for m in modules if any(v is original for v in vars(m).values())]
            if left:
                raise RuntimeError(f"{module}.{attr} still bound unwrapped in {left}")


def reference_kernel():
    """Fixed work in the sweeps' own mix: big-integer sums (the partition
    recurrence to 800), a smallest-prime-factor sieve over a list to 40000,
    a dict of 40000 tuple keys read back in sorted order, and rendering it
    as JSON.  It imports nothing from psiprime and must never change: its
    time measures the host's speed."""
    p = [1] + [0] * 800
    for part in range(1, 801):
        for n in range(part, 801):
            p[n] += p[n - part]
    spf = list(range(40001))
    for d in range(2, 201):
        if spf[d] == d:
            for k in range(d * d, 40001, d):
                if spf[k] == k:
                    spf[k] = d
    table = {(i % 97, spf[i], i): (1 << (i % 300)) + p[i % 801] for i in range(40000)}
    total = sum(table[key] for key in sorted(table, reverse=True))
    json.dumps([[list(key), str(value)] for key, value in table.items()] + [str(total)])


def _cache_counts(caches):
    return {name: fn.cache_info()[:2] for name, fn in caches.items()}


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    import psiprime.cli

    ready = time.monotonic()
    if not os.path.abspath(psiprime.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported psiprime from {psiprime.cli.__file__}, not from {SRC}")
    report = {"ready": ready}
    if mode == "setup":
        start = time.perf_counter()
        reference_kernel()
        report["ref_s"] = time.perf_counter() - start
        sys.stderr.write(json.dumps(report) + "\n")
        return 0

    # the cached originals, taken before any wrapper replaces their bindings
    caches = {name: getattr(sys.modules[module], attr) for name, module, attr in CACHES}
    cli_main = psiprime.cli.main
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(SPANS)
        cli_main = tracer.wrap("cli.main", cli_main)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    caches0 = _cache_counts(caches)
    cpu0, _ = _usage()
    start = time.perf_counter()
    code = cli_main(argv)
    sys.stdout.flush()
    report["wall_s"] = time.perf_counter() - start
    cpu1, maxrss_kb = _usage()
    report["cpu_s"] = cpu1 - cpu0
    report["peak_rss_mb"] = maxrss_kb / 1024
    report["code"] = code
    if tracer is not None:
        caches1 = _cache_counts(caches)
        report["spans"] = tracer.stats
        report["caches"] = {
            name: [caches1[name][0] - caches0[name][0], caches1[name][1] - caches0[name][1]]
            for name in caches1
        }
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
