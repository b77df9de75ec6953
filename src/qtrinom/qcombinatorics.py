"""q-integers, Gaussian binomial coefficients, and exact classical binomials.

Gaussian binomials are computed by the q-Pascal recurrence

    [n m] = [n-1 m] + q^(n-m) [n-1 m-1]

with a process-wide memo table shared by every verification task.  The memo
key is (n, min(m, n-m)) since [n m] and [n n-m] are the same polynomial.
Out-of-range m yields the zero polynomial.

QTRINOM_CACHE_LIMIT (environment) puts a soft cap on the number of cached
entries; computation stays exact beyond the cap, new results simply stop
being retained.  Negative values mean 0.  A value that is not an integer
leaves the memo uncapped on import; the CLI rejects it as a usage error.
"""
from __future__ import annotations

import math
import os

from .polyring import ONE, ZERO, LaurentPoly, shift, substitute_power


def _env_cache_limit() -> int | None:
    raw = os.environ.get("QTRINOM_CACHE_LIMIT")
    if not raw:
        return None
    try:
        return max(0, int(raw))
    except ValueError:
        raise ValueError(f"QTRINOM_CACHE_LIMIT must be an integer, got {raw!r}") from None


try:
    _CACHE_LIMIT = _env_cache_limit()
except ValueError:
    _CACHE_LIMIT = None

# (n, m) -> [n m]_q, with m already canonicalized to min(m, n-m)
_QBINOM: dict[tuple[int, int], LaurentPoly] = {}
# (n, m, s) -> [n m]_{q^s} for s >= 2
_QBINOM_BASE: dict[tuple[int, int, int], LaurentPoly] = {}


def _put(table: dict, key, value) -> None:
    if _CACHE_LIMIT is None or len(table) < _CACHE_LIMIT:
        table[key] = value


def q_integer(r: int) -> LaurentPoly:
    """[r] = (1-q^r)/(1-q) = 1 + q + ... + q^(r-1)."""
    if r < 1:
        raise ValueError("q_integer is defined for positive integers")
    return LaurentPoly(0, [1] * r)


def q_binomial(n: int, m: int) -> LaurentPoly:
    """The Gaussian binomial [n m]_q; zero when m < 0 or m > n."""
    if m < 0 or m > n:
        return ZERO
    m = min(m, n - m)
    key = (n, m)
    hit = _QBINOM.get(key)
    if hit is not None:
        return hit
    # iterative Pascal fill; a local overlay keeps the walk terminating even
    # when the shared table is capped
    local: dict[tuple[int, int], LaurentPoly] = {}

    def get(k):
        v = _QBINOM.get(k)
        return local.get(k) if v is None else v

    stack = [key]
    while stack:
        top = stack[-1]
        if get(top) is not None:
            stack.pop()
            continue
        nn, mm = top
        if mm == 0:
            local[top] = ONE
            _put(_QBINOM, top, ONE)
            stack.pop()
            continue
        ka = (nn - 1, min(mm, nn - 1 - mm))
        kb = (nn - 1, mm - 1)
        a = get(ka)
        if a is None:
            stack.append(ka)
            continue
        b = get(kb)
        if b is None:
            stack.append(kb)
            continue
        value = a + shift(b, nn - mm)
        local[top] = value
        _put(_QBINOM, top, value)
        stack.pop()
    return get(key)


def q_binomial_base(n: int, m: int, s: int) -> LaurentPoly:
    """[n m] in base q^s, i.e. q_binomial(n, m) with q -> q^s."""
    if s < 1:
        raise ValueError("binomial base power must be positive")
    if s == 1:
        return q_binomial(n, m)
    if m < 0 or m > n:
        return ZERO
    key = (n, min(m, n - m), s)
    hit = _QBINOM_BASE.get(key)
    if hit is None:
        hit = substitute_power(q_binomial(n, m), s)
        _put(_QBINOM_BASE, key, hit)
    return hit


def binomial(n: int, m: int) -> int:
    """Exact C(n, m); zero when m < 0 or m > n."""
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)
