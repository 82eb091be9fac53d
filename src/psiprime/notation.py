"""Group notation: the multiplicative form ``Z4xZ3^2`` and the bracketed
cyclic-order list ``[4,3,3]``, both read and canonicalized by
``parse_group``, and the canonical JSON object ``{"2": [2], "3": [1, 1]}``,
written for the CLI's ``--json`` output.
"""

from __future__ import annotations

import itertools
import re

from .arith import FACTORIZATION_CAP, bounded_int
from .errors import DomainError, NotationError, require_int
from .groups import AbelianGroup, OrderSpectrum, canonicalize

# ASCII digits only: \d and str.isdecimal also take other scripts' digits
_INT = re.compile(r"[0-9]+")

# Largest number of cyclic factors one notation may spell.  A repeat count
# expands into one factor per repeat, so ``Z2^N`` is refused above this
# before any list is built; groups below the enumeration cap have rank < 20.
RANK_CAP = 4096


def _order(digits: str) -> int:
    return bounded_int(digits, "cyclic order", "factorization cap", FACTORIZATION_CAP)


def parse_group(text: str) -> AbelianGroup:
    """Parse ``Z4xZ3^2`` / ``[4,3,3]`` (``[]`` or ``1`` for the trivial group).

    Raises NotationError carrying the offset of the first bad character.
    """
    if type(text) is not str:
        raise DomainError(f"group notation {text!r} must be a str")
    s = text.strip()
    if not s:
        raise NotationError("empty group notation", 0)
    if s == "1":
        return AbelianGroup(())
    if s.startswith("["):
        return _parse_list_form(s)
    if s[0] in "Zz":
        return _parse_multiplicative_form(s)
    raise NotationError(f"expected 'Z...' or '[...]', got {s[0]!r}", 0)


def _parse_list_form(s: str) -> AbelianGroup:
    if not s.endswith("]"):
        raise NotationError("expected closing ']'", len(s))
    body = s[1:-1]
    if not body.strip():
        return AbelianGroup(())
    # one factor per comma-separated token, counted before any is converted
    require_int(body.count(",") + 1, "rank", 0, RANK_CAP, "rank cap")
    orders = []
    pos = 1
    for token in body.split(","):
        stripped = token.strip()
        at = pos + token.index(stripped) if stripped else pos
        if not _INT.fullmatch(stripped):
            raise NotationError(f"expected a cyclic order, got {stripped!r}", at)
        q = _order(stripped)
        if q < 2:
            raise NotationError(f"cyclic order {q} must be >= 2", at)
        orders.append(q)
        pos += len(token) + 1
    return canonicalize(orders)


def _parse_multiplicative_form(s: str) -> AbelianGroup:
    orders: list[int] = []
    pos = 0
    while True:
        if pos >= len(s) or s[pos] not in "Zz":
            raise NotationError("expected 'Z'", pos)
        pos += 1
        m = _INT.match(s, pos)
        if m is None:
            raise NotationError("expected digits after 'Z'", pos)
        q = _order(m.group())
        if q < 2:
            raise NotationError(f"cyclic order {q} must be >= 2", pos)
        pos = m.end()
        count = 1
        if pos < len(s) and s[pos] == "^":
            pos += 1
            m = _INT.match(s, pos)
            if m is None:
                raise NotationError("expected exponent digits after '^'", pos)
            count = bounded_int(m.group(), "repeat count", "rank cap", RANK_CAP)
            if count < 1:
                raise NotationError("exponent must be >= 1", pos)
            pos = m.end()
        require_int(len(orders) + count, "rank", 0, RANK_CAP, "rank cap")
        orders.extend([q] * count)
        if pos == len(s):
            break
        if s[pos] not in "xX":
            raise NotationError(f"expected 'x' between factors, got {s[pos]!r}", pos)
        pos += 1
    return canonicalize(orders)


def format_group(G: AbelianGroup) -> str:
    """Canonical multiplicative notation, e.g. ``Z4xZ3^2`` (trivial -> ``1``)."""
    if not G.components:
        return "1"
    # runs never cross two primes: powers of different primes differ
    runs = [(v, len(list(k))) for v, k in itertools.groupby(G.cyclic_factors())]
    return "x".join(f"Z{v}" if k == 1 else f"Z{v}^{k}" for v, k in runs)


def group_to_json_dict(G: AbelianGroup) -> dict[str, list[int]]:
    """Canonical JSON form: prime (decimal string) -> descending parts."""
    return {str(p): list(q.parts) for p, q in G.components}


def spectrum_to_json_dict(s: OrderSpectrum) -> dict:
    """JSON form of a spectrum: every integer as a decimal string, orders
    ascending numerically."""
    return {
        "order": str(s.total),
        "spectrum": {str(d): str(m) for d, m in s.entries},
    }
