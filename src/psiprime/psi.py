"""Sum and product of element orders of finite abelian groups.

psi(G) is the plain integer sum of element orders.  psi'(G), the product,
is never materialized by default: already for a p-group of order p^n it is
p^E with E up to a_k * p^n, so the decimal expansion explodes while the
factored form {p: E} stays tiny.  Everything here therefore works on
:class:`FactoredInteger` values, with an explicit digit-budgeted
``materialize`` escape hatch.

For an abelian p-group with ascending exponents a_1 <= ... <= a_k and
n = a_1 + ... + a_k, the exponent of psi' is

    E = a_k * p^n - sum_{i=0}^{a_k - 1} p^i * f(i)

where f(i) = p^((k-j-1)*i + a_1+...+a_j) with j the number of exponents
<= i, clamped at k-1.  (f(i) equals |{x : o(x) divides p^i}| / p^i.)
On each run a_j <= i < a_{j+1} (a_0 = 0) the count j is constant, so
p^i * f(i) = p^(S_j) * q^i with q = p^(k-j) and S_j = a_1+...+a_j, and the
run sums to a geometric series:

    E = a_k * p^n - sum_{j=0}^{k-1} p^(S_j) * (q^(a_{j+1}) - q^(a_j)) / (q - 1)

A partition stores the same exponents descending, l_t = a_(k+1-t).  With
t = k - j, P_t = l_1 + ... + l_t = n - S_j and l_(k+1) = 0 this reads

    E = l_1 * p^n - sum_{t=1}^{k} p^(n - P_t) * (p^(t*l_t) - p^(t*l_(t+1))) / (p^t - 1)

where only the t with l_t > l_(t+1) contribute.  That is what
:func:`psi_prime_exponent` computes, on the parts as stored and in O(k)
big-integer operations per group instead of O(a_k * k).  It checks p
and the parts on every call, before its cache; :func:`psi_prime` reads
the cached kernel directly, as a group's components were checked when it
was built.  The literal loop over i is kept as a test oracle in
``tests/oracles.py``.

:func:`pgroup_exponents` gives the same E for every partition of one n
in ascending order, as the Theorem C and injectivity sweeps read them,
with constant work per partition.  Write T_t for the t-th run term,
p^(n - P_t + t*l_(t+1)) * g(t, l_t - l_(t+1)) with
g(t, d) = (p^(t*d) - 1) / (p^t - 1), and S_t for T_1 + ... + T_t.  The
ZS2 generator (``partitions._zs2``) yields only the run starts, the
partitions [l_1..l_h, 1^r] with no part equal to 2, in its state
(x, h, m): h is the index of the last part above 1 and r = m - h the
number of 1s.  Each run start heads a run of rows
[l_1..l_h, 2^j, 1^(r-2j)], j = 1..r // 2, which the pass writes itself.

A run start is a prefix-sum step.  The successor of a partition keeps
every part before index i (0-based), raises part i and ends in 1s, so
i = h - 1 and the pass never scans the parts.  T_1..T_(i-1) are
unchanged and S_(i-1) is reused; only T_i and T_(i+1) are new, and the
tail of 1s adds g(k, 1).  There n - P_i is part i plus the number of 1s
and n - P_(i+1) is the number of 1s, so no part sum is needed.  Every
g(t, d) with t * d <= n is divided, checked exact, before the first row
and read by index from a list table runs[t][d].  The partition's text is
kept by prefix in the same way: the text of the parts before i is
reused, and part i and a tabled run of ",1"s end it.

A run row has a closed form.  Its first h - 1 terms are the run start's,
S = S_(h-1).  At t = h, l_h > 2 (a run start has no 2) meets the first 2,
and n - P_h = r, so T_h = p^(2h + r) * g(h, l_h - 2).  Between 2s there
is no term.  With r' = r - 2j 1s left, the last 2 and the last 1 add
p^(h+j+r') * g(h+j, 1) + g(k, 1), or g(h+j, 2) when r' = 0: p^(m-j) + 1
either way, as h + j + r' = m - j is the row's number of parts.  So

    E_j = l_1 * p^n - S - p^(2h + r) * g(h, l_h - 2) - p^(m-j) - 1,

one subtraction per row, and the first run (h = 0, l_1 = 2) gives
E_j = 2p^n - p^(n-j) - 1.  The row's text is the run start's text of its
first h parts and ",2"*j + ",1"*r' + "]", from a table per number of 1s
that every pass shares.  Run rows write no entry of the sums S_t or the
prefix texts: the next run start raises an index of at most h, so it
reads only S_t for t < h and prefixes of at most h parts, which this run
start or an earlier one wrote.

A group of order m with Sylow p-subgroups of order p^(n_p) and exponents
E_p has

    psi'(G) = prod_p p^(E_p * m / p^(n_p))

since each element's order is the product of its Sylow components'
orders, and each p-component recurs m / p^(n_p) times.
:func:`psi_prime` builds that map in one step.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .arith import _require_trusted_prime, exact_div, factorize
from .errors import DomainError, SizeLimitError, frozen, require_int
from .groups import AbelianGroup, OrderSpectrum, order_spectrum
from .partitions import Partition, _zs2


@frozen
class FactoredInteger:
    """A positive integer as {prime: exponent}, exponents arbitrary size.

    Every pair is checked, zero exponents included: the prime as in group
    construction, the exponent as an int >= 0, and no prime twice.  Only
    then are the zero exponents dropped.  The empty map is 1.  Values are
    immutable and hashable, so they can key dicts in collision scans.
    """

    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: Iterable[tuple[int, int]] | Mapping[int, int] = ()):
        if isinstance(factors, Mapping):
            factors = factors.items()
        # int() would truncate 2.5 to 2 and read "3" as 3; bool is refused too
        pairs = sorted(
            (_require_trusted_prime(p), require_int(e, "exponent", 0)) for p, e in factors
        )
        for i in range(1, len(pairs)):
            if pairs[i - 1][0] == pairs[i][0]:
                raise DomainError(f"duplicate prime {pairs[i][0]}")
        object.__setattr__(self, "factors", tuple(pair for pair in pairs if pair[1]))

    def materialize(self, digit_limit: int) -> int:
        """The plain integer, refused if it has more than digit_limit digits.

        The float estimate refuses on its own only when it proves the value
        too long; near the limit the value is built and compared with
        10^digit_limit exactly.
        """
        require_int(digit_limit, "digit_limit")
        # the float estimate overflows for an exponent past about 1e308, so
        # such a value is refused first, by exact ints: log10(p) > 0.3, so
        # it has over 0.3 * 2^1000 > 10^300 digits, more than any memory holds
        huge = max((e for _, e in self.factors if e.bit_length() > 1000), default=0)
        if huge:
            if 3 * huge > 10 * (digit_limit + 1):
                raise SizeLimitError(
                    f"value has over {digit_limit + 1} digits, over the limit {digit_limit}"
                )
            raise SizeLimitError("value has over 10^300 digits, too many to build")
        # decimal digits of the value, a float estimate
        estimate = sum(e * math.log10(p) for p, e in self.factors) + 1.0
        # far more than the estimate's rounding error, far less than a digit
        slack = 1e-9 * estimate
        refusal = SizeLimitError(f"value has ~{estimate:.0f} digits, over the limit {digit_limit}")
        if estimate - slack >= digit_limit + 1:
            raise refusal
        value = 1
        for p, e in self.factors:
            value *= p**e
        if estimate + slack >= digit_limit + 1 and value >= 10**digit_limit:
            raise refusal
        return value

    def to_json_dict(self) -> dict:
        """JSON form {"factors": {...}}: decimal-string keys/values, keys
        in ascending numeric order."""
        return {"factors": {str(p): str(e) for p, e in self.factors}}

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e != 1 else str(p) for p, e in self.factors)


def psi_prime_exponent(p: int, parts: tuple[int, ...]) -> int:
    """E with psi'(p-group) = p^E for the descending partition parts
    l_1 >= ... >= l_k, as ``Partition.parts`` stores them, summed run by
    run (module docstring) with every run's division checked exact.

    parts must pass :class:`Partition`'s checks and be non-empty, and p
    must be an int prime, trusted from 2**31 on as in group construction.
    Both are checked on every call, before the cache, so p = 3.0 or the
    parts (2, True) are refused even when (3, (2, 1)) is cached.
    """
    _require_trusted_prime(p)
    parts = Partition(parts).parts
    if not parts:
        raise DomainError("a p-group's partition must be non-empty")
    return _exponent(p, parts)


@lru_cache(maxsize=None)
def _exponent(p: int, parts: tuple[int, ...]) -> int:
    # psi_prime_exponent without its checks, for checked p and parts
    # t runs from k down to 1, so rest = n - P_t grows by each part and
    # below is l_(t+1)
    t = len(parts)
    total = rest = below = 0
    for part in reversed(parts):
        if part > below:
            q = p**t
            total += p**rest * exact_div(q**part - q**below, q - 1, "psi' exponent run")
        rest += part
        below = part
        t -= 1
    return parts[0] * p**rest - total


# the cache statistics of psi_prime_exponent are those of its kernel
psi_prime_exponent.cache_info = _exponent.cache_info
psi_prime_exponent.cache_clear = _exponent.cache_clear


def pgroup_exponents(p: int, n: int) -> Iterator[tuple[str, int]]:
    """(text, psi_prime_exponent(p, parts)) for the parts of every
    partition of n >= 1, in ascending order, where text is "[l_1,...,l_k]",
    the JSON array of the parts.  p and n are not checked, and no row is
    cached.

    Every table is built when this is called, each g(t, d) with t * d <= n
    divided once and checked exact, so an inexact division raises
    ConsistencyError before any row; the first is by p^n - 1, as in
    psi_prime_exponent.  The rows then come lazily, with constant work and
    no tuple per partition: the prefix-sum pass of the module docstring at
    each ZS2 run start, and the run of 2s after it from one closed form
    per row.
    """
    power = [1]
    for _ in range(n):
        power.append(power[-1] * p)
    # runs[t][d] = g(t, d), with g(t, 0) = 0 for the empty run, from t = n
    # down so that the first division is by p^n - 1
    runs = [[0] for _ in range(n + 1)]
    for t in range(n, 0, -1):
        q = power[t] - 1
        for d in range(1, n // t + 1):
            runs[t].append(exact_div(power[t * d] - 1, q, "psi' exponent run"))
    # every part is at most n, and a row after the first ends in at most
    # n - 2 ones; tail[k] closes a row that ends in k ones, and twos[k]
    # ends the rows in the run of a run start that ends in k ones
    part_text = [str(x) for x in range(n + 1)]
    tail = [",1" * k + "]" for k in range(n)]
    twos = [_run_tails(k) for k in range(n + 1)]
    return _rows(n, power, runs, part_text, tail, twos)


def _rows(n, power, runs, part_text, tail, twos) -> Iterator[tuple[str, int]]:
    # the rows of pgroup_exponents from its tables, which it passes in so
    # that the loop reads them as locals
    top = power[n]
    states = _zs2(n)
    next(states)
    yield "[1" + tail[n - 1], top - runs[n][1]
    # the first run, [2^j, 1^(n-2j)]: E_j = 2p^n - p^(n-j) - 1
    text = "[2"
    base = 2 * top - 1
    for j in range(1, n // 2 + 1):
        yield text + tail[n - 2 * j], base - power[n - j]
        text += ",2"
    # x[1..m] holds the parts of a run start, h - 1 is the raised index i
    # and m - h the number of 1s.  sums[t] = S_t, which reads
    # l_1..l_(t+1), and pre[t] is the text "[l_1,...,l_t," of the first t
    # parts.  A run start with index i reads S_(i-1) and pre[i]: the last
    # row with index i - 1 wrote them, as it keeps the run start's first i
    # parts, none of them 2, so it is a run start itself; each row since
    # had an index of at least i, so it left every part before i as it was
    sums = [0] * n
    pre = ["["] * (n + 1)
    for x, h, m in states:
        ones = m - h
        i = h - 1
        part = x[h]
        if i:
            s = sums[i - 1]
            d = x[i] - part
            if d:
                s += power[h * part + ones] * runs[i][d]
            sums[i] = s
        else:
            s = 0
        # l_1 * p^n - S_(h-1), shared by the run start and its run
        lead = x[1] * top - s
        if ones:
            e = lead - power[ones + h] * runs[h][part - 1] - runs[m][1]
        else:
            e = lead - runs[h][part]
        head = pre[i] + part_text[part]
        pre[h] = head + ","
        yield head + tail[ones], e
        if ones > 1:
            # the run [l_1..l_h, 2^j, 1^(ones-2j)], j = 1, 2, ...: part > 2
            # meets the first 2, and the last 2 and last 1 add p^(m-j) + 1,
            # m - j being the row's number of parts
            base = lead - power[2 * h + ones] * runs[h][part - 2] - 1
            for text in twos[ones]:
                m -= 1
                yield head + text, base - power[m]


@lru_cache(maxsize=None)
def _run_tails(k: int) -> tuple[str, ...]:
    # ",2"*j + ",1"*(k-2j) + "]" for j = 1..k // 2, which ends the rows of
    # the run after a run start that ends in k 1s; the same for every p
    # and n, and k <= n <= PARTITION_CAP
    return tuple(",2" * j + ",1" * (k - 2 * j) + "]" for j in range(1, k // 2 + 1))


def psi_prime_cyclic_closed_form(p: int, alpha: int) -> FactoredInteger:
    """Closed form for cyclic p-groups:
    psi'(Z_{p^a}) = p^((a*p^(a+1) - (a+1)*p^a + 1) / (p - 1)).

    The division must be exact; a remainder means the formula was
    transcribed wrong, so it raises ConsistencyError.
    """
    _require_trusted_prime(p)
    require_int(alpha, "alpha")
    numerator = alpha * p ** (alpha + 1) - (alpha + 1) * p**alpha + 1
    e = exact_div(numerator, p - 1, "cyclic closed form")
    return FactoredInteger({p: e})


def psi_prime_rank2_closed_form(p: int, alpha: int, beta: int) -> FactoredInteger:
    """Closed form for rank-two abelian p-groups Z_{p^a} x Z_{p^b}, a <= b:
    exponent (b*p^(a+b+2) - p^(a+b+1) - (b+1)*p^(a+b) + p^(2a+1) + 1) / (p^2 - 1),
    with the division checked exact."""
    _require_trusted_prime(p)
    require_int(alpha, "alpha")
    require_int(beta, "beta", alpha)
    numerator = (
        beta * p ** (alpha + beta + 2)
        - p ** (alpha + beta + 1)
        - (beta + 1) * p ** (alpha + beta)
        + p ** (2 * alpha + 1)
        + 1
    )
    e = exact_div(numerator, p**2 - 1, "rank-two closed form")
    return FactoredInteger({p: e})


def psi_prime(G: AbelianGroup) -> FactoredInteger:
    """Product of element orders, {p: E_p * |G| / p^(n_p)} from the Sylow
    exponents E_p (module docstring).  The trivial group gives 1."""
    m = G.order
    return FactoredInteger(
        (p, _exponent(p, q.parts) * (m // p**q.n)) for p, q in G.components
    )


def psi_sum(G: AbelianGroup) -> int:
    """Sum of element orders, exactly."""
    return sum(d * m for d, m in order_spectrum(G).entries)


def psi_prime_from_spectrum(s: OrderSpectrum) -> FactoredInteger:
    """Independent oracle: psi' = prod_d d^(m_d), accumulated factored."""
    acc: dict[int, int] = {}
    for d, m in s.entries:
        for p, e in factorize(d).items():
            acc[p] = acc.get(p, 0) + m * e
    return FactoredInteger(acc)

