"""Elementary symmetric functions of the element-order multiset and the
order polynomial prod_x (X - o(x)).

psi_k is read off the generating product prod_d (1 + d*X)^(m_d) expanded
with exact binomial coefficients, which costs O(|G|^2) bignum operations
instead of the C(|G|, k) subset walk.  The order polynomial is built the
other way, by literally multiplying the linear factors (X - d), so the
sign relation between the two is a genuine cross-check and not an
identity of one code path with itself.

psi_packed_mod expands the same product modulo one of the primes
P = 2^b - c in FINGERPRINT_PRIMES (b = 26; c = 5 and 27) by Kronecker
substitution: a coefficient list is packed into one integer with one
64-bit slot per coefficient, so a polynomial product is a single integer
product.  The product is built by one left-to-right binary powering over
the bits of all the multiplicities at once (Knuth, TAOCP vol. 2, 4.6.3).
For k from the top bit of max m_d down to 0, Q <- Q^2 and then
Q <- Q * L_k, each skipped for a factor of 1, where L_k = prod (1 + dX)
over the d whose m_d has bit k set, built packed: L <- L + (L << 64) * d.
Every slot z of a product is folded twice, z -> (z >> b) * c + z mod 2^b,
which keeps z mod P since 2^b = c (mod P) (Crandall and Pomerance, Prime
Numbers, 9.2.3); one shift, two masks and one small product fold all
slots at once.  psi_packed_mod hands out Q, its constant term shifted
out: slot k - 1 holds psi_k mod P, canonical (below P); psi_all_mod is
its list view.

No slot carries into the next, while n <= CONJECTURE_F_CAP = 4096:
- a slot below 2^64 folds to below c * 2^(64 - b) + 2^b, and that folds
  to below B = c * (c * 2^(64 - 2b) + 1) + 2^b, about 1.002 * 2^26 at P1
  and 1.045 * 2^26 at P2;
- L_k is folded twice after every third factor and, past three, after
  its last: a factor (1 + dX) multiplies a slot by at most 1 + d <= 4097,
  so three take it from below B to below B * 4097^3 < 2^62.1, and one or
  two from 1 to below 4097^2 < B; L_k's slots are below B at the product;
- every product has degree at most n, so a slot sums at most
  ceil((n + 2) / 2) <= 2049 terms, each below B^2, and 2049 * B^2 < 2^63.2;
- B < 2P, so one subtraction of P per slot leaves canonical residues.
The bound is checked for these two primes only; a prime whose B is not
below 2P, or whose 2049 * B^2 reaches 2^64, would need a third fold.

verify.check_conjecture_f compares every pair of groups mod P1 by one
zero-slot test on Q_i XOR Q_j, exact as the slots are canonical, and
expands only the groups in a match mod P2, then exactly.
"""

from __future__ import annotations

import sys
from array import array
from math import comb
from typing import Sequence

from .errors import ConsistencyError, DomainError, frozen, require_int
from .groups import AbelianGroup, order_spectrum

# Ceiling on |G| for exact psi_k and the order polynomial; psi_|G| already
# has thousands of digits here.  psi_all alone can raise it per call via
# its cap argument, as check_conjecture_f does for its exact confirmations.
SYMMETRIC_CAP = 512

# Largest |G| whose residues psi_packed_mod packs soundly into 64-bit slots
# (module docstring); it is fixed by that bound, not a tunable default.
CONJECTURE_F_CAP = 4096

# The conjecture-f fingerprint moduli P1, P2: primes 2^b - c with b = 26 and
# c small enough that two folds keep every slot below 2P (module docstring).
# Two values that agree modulo both differ by a multiple of P1 * P2, about 2^52.
FINGERPRINT_PRIMES = (2**26 - 5, 2**26 - 27)

# A 1 in each of the CONJECTURE_F_CAP + 1 slots.  An & of two non-negative
# ints costs only the shorter one, so its multiples mask a slot's low b bits
# (low) and its low 64 - b bits (high) at every size.
_ONES = int.from_bytes((b"\1" + bytes(7)) * (CONJECTURE_F_CAP + 1), "little")
_FOLDS = {
    P: (b, (1 << b) - P, ((1 << b) - 1) * _ONES, ((1 << 64 - b) - 1) * _ONES)
    for P in FINGERPRINT_PRIMES
    for b in [P.bit_length()]
}


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
    if len(acc) != n + 1:
        raise ConsistencyError(f"the product has degree {len(acc) - 1}, not |G| = {n}")
    return acc[1:]


def _unpack(q: int, n: int) -> list[int]:
    # the n 64-bit slots of q, lowest first
    return array("Q", q.to_bytes(8 * n, sys.byteorder)).tolist()


def _expand_mod(entries: tuple[tuple[int, int], ...], P: int) -> int:
    # prod_d (1 + dX)^(m_d) mod P by one left-to-right binary powering over
    # the bits of every m_d at once; packed, canonical, constant term shifted out
    b, c, low, high = _FOLDS[P]
    fold = lambda z: (z >> b & high) * c + (z & low)
    q = 1
    for k in reversed(range(max(m for _, m in entries).bit_length())):
        # L_k, packed and folded below B (module docstring)
        factor, t = 1, 0
        for d, m in entries:
            if m >> k & 1:
                factor += (factor << 64) * d
                t += 1
                if t % 3 == 0:
                    factor = fold(fold(factor))
        if t > 3 and t % 3:
            factor = fold(fold(factor))
        # Q <- Q^2, then Q <- Q * L_k, skipping a factor of 1, each folded
        # twice; written out, as calls to fold measured slower on Q
        for y in (q, factor):
            if y != 1:
                q *= y
                q = (q >> b & high) * c + (q & low)
                q = (q >> b & high) * c + (q & low)
    ones = _ONES >> 64 * (CONJECTURE_F_CAP - sum(m for _, m in entries))
    # every slot z is below 2P, and bit 32 of z + 2^32 - P is set iff z >= P
    q -= ((q + ((1 << 32) - P) * ones) >> 32 & ones) * P
    return q >> 64


def psi_packed_mod(G: AbelianGroup, P: int) -> int:
    """psi_1..psi_n mod P for P in FINGERPRINT_PRIMES, packed into one
    integer Q by Kronecker substitution (module docstring): bits
    64(k - 1) to 64k - 1 hold psi_k mod P, below P."""
    # a float equal to a prime would pass the membership test alone
    if type(P) is not int or P not in FINGERPRINT_PRIMES:
        raise DomainError(f"P = {P} is not one of the fingerprint primes {FINGERPRINT_PRIMES}")
    n = require_int(G.order, "|G|", None, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    q = _expand_mod(order_spectrum(G).entries, P)
    # psi_n, the product of orders up to n < P, is prime to P, so slot n - 1
    # is the top one that is nonzero
    if not 64 * (n - 1) < q.bit_length() <= 64 * n:
        raise ConsistencyError(f"{q.bit_length()} bits do not fill {n} slots of psi_k mod {P}")
    return q


def psi_all_mod(G: AbelianGroup, P: int) -> list[int]:
    """[psi_1 mod P, ..., psi_n mod P], the list view of
    :func:`psi_packed_mod`; equal to [v % P for v in psi_all(G)]."""
    return _unpack(psi_packed_mod(G, P), G.order)


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
