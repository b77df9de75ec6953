"""Cyclotomic polynomial construction and the divisor-product invariants."""

import math

import pytest

from oracles import cyclotomic_mod_p
from qtrinom.cyclotomic import _CACHE, Modulus, cyclotomic, cyclotomic_power
from qtrinom.polyring import ONE, eval_at_one, make_poly, monomial
from qtrinom.qcombinatorics import q_integer


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_examples():
    assert cyclotomic(1) == make_poly([(1, 1), (0, -1)])
    assert cyclotomic(2) == make_poly([(1, 1), (0, 1)])
    # (q^6-1)(q-1)/((q^2-1)(q^3-1)) = q^2 - q + 1
    assert cyclotomic(6) == make_poly([(2, 1), (1, -1), (0, 1)])
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_power_examples():
    m = cyclotomic_power(2, 2)
    assert m == Modulus(2, 2, m.poly)
    assert m.poly == make_poly([(0, 1), (1, 2), (2, 1)])
    assert cyclotomic_power(3, 1).poly == make_poly([(2, 1), (1, 1), (0, 1)])
    # squared expansion of 1+q+q^2+q^3+q^4, frozen from the convolution
    m5 = cyclotomic_power(5, 2)
    assert m5.poly == make_poly(list(enumerate([1, 2, 3, 4, 5, 4, 3, 2, 1])))
    assert m5.poly.degree == 2 * totient(5)
    with pytest.raises(ValueError):
        cyclotomic_power(5, 0)


def test_cyclotomic_power_is_cached():
    m = cyclotomic_power(7, 2)
    assert cyclotomic_power(7, 2) is m
    assert cyclotomic_power(7, 3) is not m


def test_divisor_product_recovers_qn_minus_1():
    for n in range(1, 61):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == monomial(n) - ONE, n


def test_matches_the_product_over_primitive_roots():
    # an oracle that shares no arithmetic with qtrinom: Phi_n is the product
    # of (q - z) over the primitive n-th roots z modulo a prime p = 1 (mod n)
    for n in range(1, 121):
        p, expected = cyclotomic_mod_p(n)
        poly = cyclotomic(n)
        assert poly.offset == 0 and [c % p for c in poly.coeffs] == expected, n


def test_degree_is_totient():
    for n in range(1, 61):
        assert cyclotomic(n).degree == totient(n), n


def test_value_at_one():
    # p at prime powers p^k (n > 1), otherwise 1
    for n in range(2, 61):
        factors = set()
        m = n
        p = 2
        while p * p <= m:
            while m % p == 0:
                factors.add(p)
                m //= p
            p += 1
        if m > 1:
            factors.add(m)
        expected = factors.pop() if len(factors) == 1 else 1
        assert eval_at_one(cyclotomic(n)) == expected, n


def test_prime_cyclotomic_is_q_integer():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert cyclotomic(p) == q_integer(p)


def test_cache_idempotent():
    first = cyclotomic(12)
    assert cyclotomic(12) is first
    assert _CACHE[12] is first


def test_cached_entries_are_monic_ordinary():
    for n in (1, 2, 9, 15, 30, 49):
        poly = cyclotomic(n)
        assert poly.offset == 0
        assert poly.coeffs[-1] == 1
