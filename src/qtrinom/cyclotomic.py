"""Cyclotomic polynomials and the congruence moduli built from them.

Phi_n(q) is q^n - 1 divided by Phi_d(q) for every proper divisor d of n,
entirely in integer arithmetic; no roots of unity are ever represented.  A
Modulus is an expanded Phi_n(q)^k with its (n, k), which name its multiple
(q^n - 1)^k to polyring.fold; all are cached per process.
"""
from __future__ import annotations

from typing import NamedTuple

from .polyring import ONE, LaurentPoly, exact_div, monomial

# index n -> expanded Phi_n(q)
_CACHE: dict[int, LaurentPoly] = {}
# (n, k) -> Phi_n(q)^k, one Modulus per distinct modulus
_POWERS: dict[tuple[int, int], Modulus] = {}


def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, expanded and monic of degree phi(n):
    q^n - 1 divided by Phi_d(q) for every proper divisor d of n."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    hit = _CACHE.get(n)
    if hit is not None:
        return hit
    den = ONE
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            den = den * cyclotomic(d)
    # q^n - 1 is the product of Phi_d over all d | n, so a NonExactDivision
    # here is an implementation bug and is allowed to escape
    result = _CACHE[n] = exact_div(monomial(n) - ONE, den)
    return result


class Modulus(NamedTuple):
    """An expanded Phi_n(q)^k kept together with its (n, k) metadata."""

    n: int
    k: int
    poly: LaurentPoly


def cyclotomic_power(n: int, k: int) -> Modulus:
    """Phi_n(q)^k as a Modulus; monic of degree k*phi(n)."""
    if k < 1:
        raise ValueError("modulus power must be positive")
    hit = _POWERS.get((n, k))
    if hit is None:
        hit = _POWERS[n, k] = Modulus(n, k, cyclotomic(n) ** k)
    return hit
