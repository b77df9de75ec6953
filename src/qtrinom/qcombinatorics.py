"""q-integers, Gaussian binomial coefficients, and exact classical binomials.

Gaussian binomials are built by exact steps of the product formula, each a
multiplication by 1 - q^up followed by an exact division by 1 - q^down
(polyring._step, the kernel for every such two-term factor):

    along a row      [n j] = [n j-1]   (1 - q^(n-j+1)) / (1 - q^j)
    down a diagonal  [n j] = [n-1 j-1] (1 - q^n)       / (1 - q^j)
    down a column    [n j] = [n-1 j]   (1 - q^n)       / (1 - q^(n-j))

Every step is kept in a process-wide memo shared by all verification tasks.
A request walks from the cached entry the fewest steps away: the nearest
one on its own row, starting from [n 0] = 1, or one on an earlier row when
that is closer.  Nothing off that walk is computed, so [N M] never fills
the diamond of rows below N.  The memo key is (n, min(m, n-m)) since [n m]
and [n n-m] are the same polynomial.  Out-of-range m yields the zero
polynomial.  A binomial in base q^s is not stored: it is substituted on
demand, q -> q^s, from the one memo entry [n m]_q.
"""
from __future__ import annotations

import math

from .polyring import ONE, ZERO, LaurentPoly, _step, substitute_power

# (n, m) -> [n m]_q, with m already canonicalized to min(m, n-m)
_QBINOM: dict[tuple[int, int], LaurentPoly] = {}


def q_integer(r: int) -> LaurentPoly:
    """[r] = (1-q^r)/(1-q) = 1 + q + ... + q^(r-1)."""
    if r < 1:
        raise ValueError("q_integer is defined for positive integers")
    return LaurentPoly(0, [1] * r)


def _start(n: int, m: int) -> tuple[int, int]:
    """The cached (n', j) fewest steps before [n m], m <= n - m: (n, j) on the
    row is m - j steps away and (n - d, m - e), 0 <= e <= d, is d steps."""
    j = m
    while j and (n, j) not in _QBINOM:
        j -= 1
    for d in range(1, m - j):
        for e in range(d + 1):
            nn, jj = n - d, m - e
            if jj <= nn and (nn, min(jj, nn - jj)) in _QBINOM:
                return nn, jj
    return n, j


def q_binomial(n: int, m: int) -> LaurentPoly:
    """The Gaussian binomial [n m]_q; zero when m < 0 or m > n."""
    if m < 0 or m > n:
        return ZERO
    m = min(m, n - m)
    hit = _QBINOM.get((n, m)) if m else ONE
    if hit is not None:
        return hit
    nn, j = _start(n, m)
    value = _QBINOM.get((nn, min(j, nn - j)), ONE)
    while nn < n or j < m:
        if nn < n and j < m:  # diagonal
            nn += 1
            j += 1
            up, down = nn, j
        elif nn < n:  # column
            nn += 1
            up, down = nn, nn - j
        else:  # row
            j += 1
            up, down = n - j + 1, j
        value = LaurentPoly(0, _step(value.coeffs, up, down))
        _QBINOM[nn, min(j, nn - j)] = value
    return value


def q_binomial_base(n: int, m: int, s: int) -> LaurentPoly:
    """[n m] in base q^s: the memoized q_binomial(n, m), substituted q -> q^s
    on every call rather than stored a second time."""
    if s < 1:
        raise ValueError("binomial base power must be positive")
    return substitute_power(q_binomial(n, m), s)


def binomial(n: int, m: int) -> int:
    """Exact C(n, m); zero when m < 0 or m > n."""
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)
