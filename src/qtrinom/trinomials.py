"""Classical trinomial coefficients and the six q-trinomial families.

The classical coefficient ((n, m)) is the coefficient of x^(m+n) in
(1 + x + x^2)^n.  The six q-analogue families (round, tau0, T0, T1, t0, t1)
are all sums of weight * first-binomial * second-binomial over k; they share
one summation driver here and differ only in the weight exponent, the base
(q or q^2) of the first binomial, and which second binomial they use:

    round    q^(k(k+m))        [n k]       [n-k  m+k]
    tau0     (-1)^k q^(nk-C(k,2))  [n k]   [2n-2k  n-m-k]
    T0       (-1)^k            [n k]_q2    [2n-2k  n-m-k]
    T1       (-q)^k            [n k]_q2    [2n-2k  n-m-k]
    t0       (-1)^k q^(k^2)    [n k]_q2    [2n-2k  n-m-k]
    t1       (-1)^k q^(k(k-1)) [n k]_q2    [2n-2k  n-m-k]

Truncated forms keep the same summands but restrict k to the window used by
the congruence statements: k in [0, floor(n/2)] for round, and
k in [an-bn-floor(n/2), an-bn] for the other five.  A truncated sum can be
built modulo a monic polynomial instead of in full: every summand is then
reduced as it is formed, so the sum never grows past the modulus degree.
"""
from __future__ import annotations

from enum import Enum

from .polyring import ZERO, LaurentPoly, rem_monic, shift
from .qcombinatorics import binomial, q_binomial, q_binomial_base


class InvalidParameters(ValueError):
    """A verification hypothesis (a > b >= 1, n >= 1, parity, ...) is violated."""


class NotPrime(ValueError):
    """A parameter that must be prime failed the deterministic primality test."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_odd_prime(p: int, minimum: int = 3) -> None:
    """Raise NotPrime / InvalidParameters unless p is an odd prime >= minimum."""
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if p == 2:
        raise InvalidParameters("p must be odd")
    if p < minimum:
        raise InvalidParameters(f"p must be >= {minimum}")


class TrinomialKind(str, Enum):
    round = "round"
    tau0 = "tau0"
    T0 = "T0"
    T1 = "T1"
    t0 = "t0"
    t1 = "t1"


# first-binomial base per kind (1 = q, 2 = q^2)
_BASE = {
    TrinomialKind.round: 1,
    TrinomialKind.tau0: 1,
    TrinomialKind.T0: 2,
    TrinomialKind.T1: 2,
    TrinomialKind.t0: 2,
    TrinomialKind.t1: 2,
}

# weight exponent per kind as a function of (n, m, k); all six weights carry
# the sign (-1)^k except round, which has sign +1
_WEIGHT_EXP = {
    TrinomialKind.round: lambda n, m, k: k * (k + m),
    TrinomialKind.tau0: lambda n, m, k: n * k - k * (k - 1) // 2,
    TrinomialKind.T0: lambda n, m, k: 0,
    TrinomialKind.T1: lambda n, m, k: k,
    TrinomialKind.t0: lambda n, m, k: k * k,
    TrinomialKind.t1: lambda n, m, k: k * (k - 1),
}


def classical_trinomial(n: int, m: int) -> int:
    """Coefficient of x^(m+n) in (1+x+x^2)^n; zero for |m| > n."""
    return sum(binomial(n, k) * binomial(n - k, m + k) for k in range(n + 1))


def _summand(
    kind: TrinomialKind, n: int, m: int, k: int, reduce_by: LaurentPoly | None = None
) -> LaurentPoly:
    if kind is TrinomialKind.round:
        second = q_binomial(n - k, m + k)
    else:
        second = q_binomial(2 * n - 2 * k, n - m - k)
    if second.is_zero():
        return ZERO
    # every weight exponent is >= 0, so the weighted first factor stays an
    # ordinary polynomial that rem_monic accepts
    first = shift(q_binomial_base(n, k, _BASE[kind]), _WEIGHT_EXP[kind](n, m, k))
    if reduce_by is None:
        term = first * second
    else:
        term = rem_monic(rem_monic(first, reduce_by) * rem_monic(second, reduce_by), reduce_by)
    if kind is not TrinomialKind.round and k % 2 == 1:
        return -term
    return term


def q_trinomial(kind: TrinomialKind, n: int, m: int) -> LaurentPoly:
    """The full (untruncated) q-trinomial coefficient of the given family."""
    total = ZERO
    for k in range(n + 1):
        total = total + _summand(kind, n, m, k)
    return total


def truncated_q_trinomial(
    kind: TrinomialKind,
    a: int,
    b: int,
    n: int,
    span: int | None = None,
    reduce_by: LaurentPoly | None = None,
) -> LaurentPoly:
    """The truncated q-trinomial sum at (an, bn).

    span overrides the floor(n/2) window width; it exists so tests can widen
    the window until the sum matches the untruncated coefficient.

    reduce_by, a monic ordinary polynomial, returns the sum's Euclidean
    remainder modulo it instead of the full sum; each summand's factors and
    their product are reduced as they are built, so the products stay below
    twice the modulus degree and the running sum below it.
    """
    if b < 1 or a <= b or n < 1:
        raise InvalidParameters("need a > b >= 1 and n >= 1")
    if span is None:
        span = n // 2
    an, bn = a * n, b * n
    if kind is TrinomialKind.round:
        ks = range(0, span + 1)
    else:
        ks = range(an - bn - span, an - bn + 1)
    total = ZERO
    for k in ks:
        total = total + _summand(kind, an, bn, k, reduce_by)
    return total


def truncated_classical(variant: str, a: int, b: int, p: int) -> int:
    """Truncated classical trinomial sums at (ap, bp) for an odd prime p.

    plain: sum_{k=0}^{(p-1)/2} C(ap,k) C(ap-k, bp+k)
    star:  sum_{k=ap-bp-(p-1)/2}^{ap-bp} (-1)^k C(ap,k) C(2ap-2k, ap-bp-k)
    """
    if b < 1 or a <= b:
        raise InvalidParameters("need a > b >= 1")
    require_odd_prime(p)
    half = (p - 1) // 2
    ap, bp = a * p, b * p
    if variant == "plain":
        return sum(binomial(ap, k) * binomial(ap - k, bp + k) for k in range(half + 1))
    if variant == "star":
        return sum(
            (-1) ** k * binomial(ap, k) * binomial(2 * ap - 2 * k, ap - bp - k)
            for k in range(ap - bp - half, ap - bp + 1)
        )
    raise InvalidParameters(f"unknown variant {variant!r}")
