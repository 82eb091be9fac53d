"""Small exact-integer helpers: primality, trial-division factorization,
checked division.

Everything here is plain ``int`` arithmetic; Python integers are already
arbitrary precision, so exactness is free.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConsistencyError, DomainError, SizeLimitError, require_int

# Primality is decided by trial division below this bound; group and
# factored-value construction trust larger primes without a test.
PRIMALITY_TEST_LIMIT = 2**31

# Ceiling for trial-division factorization of a single integer.
FACTORIZATION_CAP = 10**12

# Longest digit run the parsers convert with int(); anything longer is over
# every cap in the package.  Refusing it first keeps int() off runs that are
# slow to convert or past Python's 4300-digit conversion limit.
_MAX_DIGITS = len(str(FACTORIZATION_CAP))


@lru_cache(maxsize=65536)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**31 (trial division)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_trusted_prime(p: int) -> int:
    """Return p if it is a plain int that is prime, or at least 2**31: past
    that, group and factored-value construction trust it.  Otherwise raise
    DomainError."""
    # a float or bool would pass the trial division and spread into results
    require_int(p, "prime", None)
    if p < PRIMALITY_TEST_LIMIT and not is_prime(p):
        raise DomainError(f"{p} is not a prime")
    return p


def require_prime(p: int) -> None:
    """Raise DomainError unless p is a plain int prime below 2**31.

    Past that, trial division is no longer reasonable, so p is refused.
    """
    _require_trusted_prime(p)
    if p >= PRIMALITY_TEST_LIMIT:
        raise DomainError(f"{p} >= 2**31: too large to primality-test here")


def bounded_int(digits: str, what: str, cap_name: str, cap: int) -> int:
    """int() of a decimal digit run, refused with SizeLimitError when it has
    more significant digits than FACTORIZATION_CAP (leading zeros are free)."""
    significant = len(digits.lstrip("0"))
    if significant > _MAX_DIGITS:
        raise SizeLimitError(f"a {significant}-digit {what} exceeds the {cap_name} {cap}")
    return int(digits)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division, primes ascending.

    factorize(1) == {}.  Raises SizeLimitError for n above FACTORIZATION_CAP
    and DomainError for anything but a plain int from 1.
    """
    # a float would divide out as floats and leave a float "prime" behind
    require_int(n, "n", 1, FACTORIZATION_CAP, "factorization cap")
    factors: dict[int, int] = {}
    for d in (2, 3):
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    d = 5
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def exact_div(numerator: int, denominator: int, what: str = "division") -> int:
    """Integer division that must be exact; a remainder is a ConsistencyError."""
    q, r = divmod(numerator, denominator)
    if r != 0:
        raise ConsistencyError(
            f"{what}: {numerator} is not divisible by {denominator} (remainder {r})"
        )
    return q
