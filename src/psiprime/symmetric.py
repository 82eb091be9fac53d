"""Elementary symmetric functions of the element-order multiset and the
order polynomial prod_x (X - o(x)).

psi_k is read off the generating product prod_d (1 + d*X)^(m_d) expanded
with exact binomial coefficients, which costs O(|G|^2) bignum operations
instead of the C(|G|, k) subset walk.  The order polynomial is built the
other way, by literally multiplying the linear factors (X - d), so the
sign relation between the two is a genuine cross-check and not an
identity of one code path with itself.

order_fingerprints expands the same product modulo one of the primes
P = 2^b - c in FINGERPRINT_PRIMES (b = 22; c = 3 and 17), for the groups
of one order it is given, by Kronecker substitution: a coefficient list
is packed into one integer with one W-bit slot per coefficient, W = _W =
56 (7 bytes), so a polynomial product is a single integer product.  The
cost of that product grows with the packing width (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 44, 2009), so W is as narrow as the bound below allows.
The product is built by one left-to-right binary powering over the bits
of all the multiplicities at once (Knuth, TAOCP vol. 2, 4.6.3).  For k
from the top bit of max m_d down to 0, Q <- Q^2 and then Q <- Q * L_k,
each skipped for a factor of 1, where L_k = prod (1 + dX) over the d
whose m_d has bit k set, built packed: L <- L + (L << W) * d.  Every
slot z of a product is folded twice, z -> (z >> b) * c + z mod 2^b,
which keeps z mod P since 2^b = c (mod P) (Crandall and Pomerance, Prime
Numbers, 9.2.3); one shift, two masks and one small product fold all
slots at once.  A group's fingerprint is Q, its constant term shifted
out: slot k - 1 holds psi_k mod P, canonical (below P).  The spectrum
entries are read off the Sylow tables, unsorted: the product does not
depend on the order of its factors, and the result is canonical, so Q
does not either.

No slot carries into the next, while n <= CONJECTURE_F_CAP = 4096:
- a slot below 2^W folds to below c * 2^(W - b) + 2^b, and that folds
  to below B = c * (c * 2^(W - 2b) + 1) + 2^b: B = 4,231,171 at P1 and
  5,378,065 at P2, about 1.009 * 2^22 and 1.282 * 2^22;
- L_k is folded twice after every second factor and, past two, once
  more after its last: a factor (1 + dX) multiplies a slot by at most
  1 + d <= 4097, so two take it from below B to below B * 4097^2 <
  2^46.4, and one from 1 to below 4097 < B; L_k's slots are below B at
  the product (a third factor could reach B * 4097^3, past 2^58);
- every product has degree at most n, so a slot sums at most
  ceil((n + 2) / 2) <= 2049 terms, each below B^2, and 2049 * B^2 <
  2^55.8 < 2^56;
- B < 2P, so one subtraction of P per slot leaves canonical residues.
The bound is checked for these two primes only; a prime whose B is not
below 2P, or whose 2049 * B^2 reaches 2^W, would need a third fold.

slot_matches compares every pair of fingerprints of one order by one
zero-slot test on Q_i XOR Q_j, exact as the slots are canonical; no
other module reads the slot layout.  verify.check_conjecture_f runs the
two at P1 over every group of an order, then at P2 over the groups still
in a P1 match, and expands exactly only what matches at both.  A P1 of
22 bits matches by chance about once in 2^22 (pair, k) tests: up to the
cap, 19 pairs in 18 orders match mod P1 in 68,149,528 tests (about 16
expected), the smallest at order 324; P2 refutes every one, so no group
record is built and no exact expansion runs.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Sequence

from .errors import ConsistencyError, DomainError, frozen, require_int
from .groups import AbelianGroup, order_spectrum, sylow_spectra

# Ceiling on |G| for exact psi_k and the order polynomial; psi_|G| already
# has thousands of digits here.  psi_all alone can raise it per call via
# its cap argument, as check_conjecture_f does for its exact confirmations.
SYMMETRIC_CAP = 512

# Largest |G| whose residues order_fingerprints packs soundly into _W-bit slots
# (module docstring); it is fixed by that bound, not a tunable default.
CONJECTURE_F_CAP = 4096

# The conjecture-f fingerprint moduli P1, P2: primes 2^b - c with b = 22 and
# c small enough that two folds keep every slot below 2P (module docstring).
# Two values that agree modulo both differ by a multiple of P1 * P2, about
# 2^44; a match at both is confirmed exactly all the same.
FINGERPRINT_PRIMES = (2**22 - 3, 2**22 - 17)

# The width of one packed slot in bits, a whole number of bytes.
_W = 56

# A 1 in each of the CONJECTURE_F_CAP + 1 slots.  An & of two non-negative
# ints costs only the shorter one, so its multiples mask a slot's low b bits
# (low) and its low _W - b bits (high) at every size.
_ONES = int.from_bytes((b"\1" + bytes(_W // 8 - 1)) * (CONJECTURE_F_CAP + 1), "little")
_FOLDS = {
    P: (b, (1 << b) - P, ((1 << b) - 1) * _ONES, ((1 << _W - b) - 1) * _ONES)
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


def _expand_mod(entries: Sequence[tuple[int, int]], P: int) -> int:
    # prod_d (1 + dX)^(m_d) mod P by one left-to-right binary powering over
    # the bits of every m_d at once; packed, canonical, constant term shifted
    # out.  The result does not depend on the order of the entries
    b, c, low, high = _FOLDS[P]
    fold = lambda z: (z >> b & high) * c + (z & low)
    q = 1
    for k in reversed(range(max(m for _, m in entries).bit_length())):
        # L_k, packed and folded below B (module docstring)
        factor, t = 1, 0
        for d, m in entries:
            if m >> k & 1:
                factor += (factor << _W) * d
                t += 1
                if not t & 1:
                    factor = fold(fold(factor))
        if t > 1 and t & 1:
            factor = fold(fold(factor))
        # Q <- Q^2, then Q <- Q * L_k, skipping a factor of 1, each folded
        # twice; written out, as calls to fold measured slower on Q
        for y in (q, factor):
            if y != 1:
                q *= y
                q = (q >> b & high) * c + (q & low)
                q = (q >> b & high) * c + (q & low)
    ones = _ONES >> _W * (CONJECTURE_F_CAP - sum(m for _, m in entries))
    # every slot z is below 2P, and bit 32 of z + 2^32 - P is set iff z >= P
    q -= ((q + ((1 << 32) - P) * ones) >> 32 & ones) * P
    return q >> _W


def _require_fingerprint_prime(P: int) -> None:
    # a float equal to a prime would pass the membership test alone
    if type(P) is not int or P not in FINGERPRINT_PRIMES:
        raise DomainError(f"P = {P} is not one of the fingerprint primes {FINGERPRINT_PRIMES}")


def _checked(q: int, n: int, P: int) -> int:
    # psi_n, the product of orders up to n < P, is prime to P, so slot n - 1
    # is the top one that is nonzero
    if not _W * (n - 1) < q.bit_length() <= _W * n:
        raise ConsistencyError(f"{q.bit_length()} bits do not fill {n} slots of psi_k mod {P}")
    return q


def order_fingerprints(m: int, P: int, live: Iterable[int]) -> list[int]:
    """The fingerprint at P in FINGERPRINT_PRIMES of each group of order m
    whose index in enumerate_abelian_groups(m) is in ``live``, in
    enumeration order: psi_1..psi_m mod P packed into one integer Q by
    Kronecker substitution (module docstring), bits _W(k - 1) to _Wk - 1
    holding psi_k mod P, below P.  No group or spectrum record is built:
    each group's spectrum entries are read from its Sylow tables
    (groups.sylow_spectra), unsorted, as the packed product does not
    depend on their order."""
    _require_fingerprint_prime(P)
    require_int(m, "m", 1, CONJECTURE_F_CAP, "conjecture-f fingerprint cap")
    spectra = itertools.compress(sylow_spectra(m), map(set(live).__contains__, itertools.count()))
    return [_checked(_expand_mod(entries, P), m, P) for entries in spectra]


def _unpack(q: int, n: int) -> list[int]:
    # the n _W-bit slots of q, lowest first
    w = _W // 8
    raw = q.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, w * n, w)]


def slot_matches(packed: Sequence[int], n: int, P: int) -> list[tuple[int, int, int]]:
    """Every (i, j, k), i < j and then k ascending, where the fingerprints
    packed[i] and packed[j] of :func:`order_fingerprints` at order n and
    prime P hold the same residue in slot k - 1.

    Canonical slots are equal iff their XOR z is 0, and z < 2^b, so
    z + 2^b - 1 sets bit b of its slot iff z != 0, with no carry into the
    next slot (Warren, Hacker's Delight, 6-1).  A pair whose n slots all
    set bit b shares no residue; only a pair with a zero slot is unpacked."""
    b = _FOLDS[P][0]
    ones = _ONES >> _W * (CONJECTURE_F_CAP + 1 - n)
    bias, tops = ((1 << b) - 1) * ones, ones << b
    return [
        (i, j, k)
        for (i, x), (j, y) in itertools.combinations(enumerate(packed), 2)
        if ((x ^ y) + bias) & tops != tops
        for k, z in enumerate(_unpack(x ^ y, n), start=1)
        if not z
    ]


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
