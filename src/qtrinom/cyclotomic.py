"""Cyclotomic polynomials and the congruence moduli built from them.

Phi_n(q) is computed by Moebius inversion over the factors q^d - 1 for
divisors d of n, entirely in integer arithmetic; no roots of unity are ever
represented.  A Modulus bundles an expanded power Phi_n(q)^k with its
(n, k) metadata and, built on first use, its sparse multiple (q^n - 1)^k.
Both Phi_n and each Modulus are cached per process.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .polyring import ONE, LaurentPoly, exact_div, monomial

# index n -> expanded Phi_n(q)
_CACHE: dict[int, LaurentPoly] = {}
# (n, k) -> Phi_n(q)^k, one Modulus per distinct modulus
_POWERS: dict[tuple[int, int], Modulus] = {}


def mobius(n: int) -> int:
    """The Moebius function: 0 on square factors, else (-1)^(#prime factors)."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, expanded and monic of degree phi(n)."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    hit = _CACHE.get(n)
    if hit is not None:
        return hit
    num = ONE
    den = ONE
    for d in range(1, n + 1):
        if n % d == 0:
            mu = mobius(n // d)
            if mu == 0:
                continue
            factor = monomial(d) - ONE
            if mu == 1:
                num = num * factor
            else:
                den = den * factor
    # divisibility is guaranteed by the Moebius product formula; a failure
    # here is an implementation bug, so NonExactDivision is allowed to escape
    result = exact_div(num, den)
    _CACHE[n] = result
    return result


@dataclass(frozen=True)
class Modulus:
    """An expanded Phi_n(q)^k kept together with its (n, k) metadata."""

    n: int
    k: int
    poly: LaurentPoly = field(compare=False)

    @cached_property
    def sparse(self) -> LaurentPoly:
        """(q^n - 1)^k, the sparse multiple of poly that reductions fold by first."""
        return (monomial(self.n) - ONE) ** self.k


def cyclotomic_power(n: int, k: int) -> Modulus:
    """Phi_n(q)^k as a Modulus; monic of degree k*phi(n)."""
    if k < 1:
        raise ValueError("modulus power must be positive")
    hit = _POWERS.get((n, k))
    if hit is None:
        hit = _POWERS[n, k] = Modulus(n, k, cyclotomic(n) ** k)
    return hit
