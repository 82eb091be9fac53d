"""Elementary symmetric functions of the element-order multiset and the
order polynomial prod_x (X - o(x)).

psi_k is read off the generating product prod_d (1 + d*X)^(m_d) expanded
with exact binomial coefficients, which costs O(|G|^2) bignum operations
instead of the C(|G|, k) subset walk.  The order polynomial is built the
other way, by literally multiplying the linear factors (X - d), so the
sign relation between the two is a genuine cross-check and not an
identity of one code path with itself.

psi_all_mod expands the same product modulo one of the two primes
P < 2^26 in FINGERPRINT_PRIMES by Kronecker substitution: each
coefficient list is packed into one integer with one 64-bit slot per
coefficient, so a polynomial product is a single integer product,
unpacked and reduced slot by slot.  A product slot sums at most
ceil((n + 2) / 2) terms below P^2, which stays below 2^64, so no slot
carries into the next, while n <= CONJECTURE_F_CAP = 4096
(2049 * 2^52 < 2^64); that bound is proved only for these two primes.

verify.check_conjecture_f uses the primes as a cascade: every group is
expanded mod P1, only groups whose residue matches another group's at
some k are expanded mod P2, and only pairs that match at both primes get
exact psi_all.  Values with different residues mod either prime differ,
so no stage can drop an exact equality.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from math import comb
from typing import Sequence

from .errors import DomainError, frozen, require_int
from .groups import AbelianGroup, order_spectrum

# Ceiling on |G| for exact psi_k and the order polynomial; psi_|G| already
# has thousands of digits here.  psi_all alone can raise it per call via
# its cap argument, as check_conjecture_f does for its exact confirmations.
SYMMETRIC_CAP = 512

# Largest |G| whose residues psi_all_mod packs soundly into 64-bit slots
# (module docstring); it is fixed by that bound, not a tunable default.
CONJECTURE_F_CAP = 4096

# The conjecture-f fingerprint moduli P1, P2, both prime and above the cap
# (every binomial denominator j <= CONJECTURE_F_CAP is invertible): two
# values that agree modulo both differ by a multiple of P1 * P2, about 2^52.
FINGERPRINT_PRIMES = (2**26 - 5, 2**26 - 27)


@frozen
class OrderPolynomial:
    """prod_x (X - o(x)) with exact coefficients, ascending powers.

    Monic of degree |G|; coefficient of X^(n-k) is (-1)^k * psi_k(G).
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1] != 1:
            raise DomainError("an order polynomial is monic")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            mag, sign = abs(c), "-" if c < 0 else "+"
            power = "" if j == 0 else ("X" if j == 1 else f"X^{j}")
            coeff = str(mag) if (j == 0 or mag != 1) else ""
            body = coeff + ("*" if coeff and power else "") + power
            # the first term is the monic leading X^n, so it takes no sign
            terms.append(body if not terms else f"{sign} {body}")
        return " ".join(terms)


def psi_all(G: AbelianGroup, *, cap: int = SYMMETRIC_CAP) -> list[int]:
    """[psi_1, ..., psi_n]: all elementary symmetric functions of the
    order multiset.  psi_1 is the order sum, psi_n the order product."""
    n = require_int(G.order, "|G|", None, require_int(cap, "cap"), "symmetric-function cap")
    acc = [1]
    for d, m in order_spectrum(G).entries:
        factor = [comb(m, j) * d**j for j in range(m + 1)]
        out = [0] * (len(acc) + m)
        for i, a in enumerate(acc):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        acc = out
    assert len(acc) == n + 1
    return acc[1:]


@cache
def _inverses(P: int) -> array:
    # inv[j] = j^-1 mod P for 1 <= j <= CONJECTURE_F_CAP, by the recurrence
    # P = (P // j) * j + P % j; 64-bit slots hold it in 32 KiB, not 160
    inv = array("Q", [0, 1])
    for j in range(2, CONJECTURE_F_CAP + 1):
        inv.append(-(P // j) * inv[P % j] % P)
    return inv


def _pack(coeffs: list[int]) -> int:
    # array("Q") bytes are in native order, so read them back in it
    return int.from_bytes(array("Q", coeffs).tobytes(), sys.byteorder)


def _expand_mod(entries: tuple[tuple[int, int], ...], P: int) -> list[int]:
    # prod_d (1 + dX)^(m_d) mod P, ascending coefficients
    inv = _inverses(P)
    acc = [1]
    for d, m in entries:
        # coefficients C(m, j) * d^j of (1 + dX)^m, each reduced mod P
        factor = [1] * (m + 1)
        c = 1
        for j in range(1, m + 1):
            c = c * ((m - j + 1) * d % P) % P * inv[j] % P
            factor[j] = c
        product = array("Q")
        product.frombytes(
            (_pack(acc) * _pack(factor)).to_bytes(8 * (len(acc) + m), sys.byteorder)
        )
        acc = [x % P for x in product]
    return acc


def psi_all_mod(G: AbelianGroup, P: int) -> list[int]:
    """[psi_1 mod P, ..., psi_n mod P] for P in FINGERPRINT_PRIMES, by
    Kronecker substitution (module docstring); equal to
    [v % P for v in psi_all(G)]."""
    # a float equal to a prime would pass the membership test alone
    if type(P) is not int or P not in FINGERPRINT_PRIMES:
        raise DomainError(f"P = {P} is not one of the fingerprint primes {FINGERPRINT_PRIMES}")
    n = require_int(G.order, "|G|", None, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    residues = _expand_mod(order_spectrum(G).entries, P)
    assert len(residues) == n + 1
    return residues[1:]


def psi_k(G: AbelianGroup, k: int) -> int:
    """Single elementary symmetric value psi_k, 1 <= k <= |G| <= SYMMETRIC_CAP."""
    require_int(k, "k", None)
    n = require_int(G.order, "|G|", None, SYMMETRIC_CAP, "symmetric-function cap")
    if not 1 <= k <= n:
        raise DomainError(f"k = {k} out of range 1..{n}")
    return psi_all(G)[k - 1]


def order_polynomial(G: AbelianGroup) -> OrderPolynomial:
    """prod_x (X - o(x)) by repeated multiplication with linear factors,
    for |G| <= SYMMETRIC_CAP."""
    require_int(G.order, "|G|", None, SYMMETRIC_CAP, "symmetric-function cap")
    coeffs = [1]
    for d, m in order_spectrum(G).entries:
        for _ in range(m):
            # multiply by (X - d)
            coeffs.append(1)
            for j in range(len(coeffs) - 2, 0, -1):
                coeffs[j] = coeffs[j - 1] - d * coeffs[j]
            coeffs[0] = -d * coeffs[0]
    return OrderPolynomial(coeffs)
