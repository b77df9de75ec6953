"""Gaussian binomials: Pascal path against the product-formula oracle."""

import math

import pytest

from qtrinom import qcombinatorics
from qtrinom.polyring import ONE, ZERO, eval_at_one, exact_div, make_poly, monomial
from qtrinom.qcombinatorics import binomial, q_binomial, q_binomial_base, q_integer


def q_binomial_product(n, m):
    """Independent oracle: [n m] = prod (1-q^(n-i)) / prod (1-q^(i+1))."""
    if m < 0 or m > n:
        return ZERO
    num = ONE
    den = ONE
    for i in range(m):
        num = num * (ONE - monomial(n - i))
        den = den * (ONE - monomial(i + 1))
    return exact_div(num, den)


def test_q_integer_examples():
    assert q_integer(1) == ONE
    assert q_integer(3) == make_poly([(0, 1), (1, 1), (2, 1)])
    assert eval_at_one(q_integer(7)) == 7
    with pytest.raises(ValueError):
        q_integer(0)


def test_q_binomial_examples():
    # frozen from the product-formula oracle
    expected = make_poly([(0, 1), (1, 1), (2, 2), (3, 1), (4, 1)])
    assert q_binomial_product(4, 2) == expected
    assert q_binomial(4, 2) == expected
    assert q_binomial(3, 5) == ZERO
    assert q_binomial(3, -1) == ZERO
    assert q_binomial(5, 0) == ONE
    assert q_binomial(0, 0) == ONE


def test_q_binomial_base_examples():
    assert q_binomial_base(2, 1, 2) == make_poly([(0, 1), (2, 1)])
    assert q_binomial_base(4, 2, 2) == make_poly([(0, 1), (2, 1), (4, 2), (6, 1), (8, 1)])
    assert q_binomial_base(3, 4, 2) == ZERO
    assert q_binomial_base(4, 2, 1) == q_binomial(4, 2)
    with pytest.raises(ValueError):
        q_binomial_base(4, 2, 0)


def test_binomial_examples():
    assert binomial(10, 5) == 252
    assert binomial(9, 4) == 126
    assert binomial(3, 7) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1


def test_value_at_one_is_classical():
    for n in range(31):
        for m in range(n + 1):
            assert eval_at_one(q_binomial(n, m)) == math.comb(n, m)


def test_symmetry():
    for n in range(31):
        for m in range(n + 1):
            assert q_binomial(n, m) == q_binomial(n, n - m)


def test_degree_palindromic_nonnegative():
    for n in range(25):
        for m in range(n + 1):
            p = q_binomial(n, m)
            assert p.offset == 0
            assert p.degree == m * (n - m)
            assert all(c >= 0 for c in p.coeffs)
            assert p.coeffs == p.coeffs[::-1]


def test_pascal_agrees_with_product_formula():
    # the two computation routes stay independent: recurrence vs exact_div
    for n in range(21):
        for m in range(n + 1):
            assert q_binomial(n, m) == q_binomial_product(n, m), (n, m)


def test_cache_limit_soft_cap(monkeypatch):
    monkeypatch.setattr(qcombinatorics, "_CACHE_LIMIT", 0)
    monkeypatch.setattr(qcombinatorics, "_QBINOM", {})
    monkeypatch.setattr(qcombinatorics, "_QBINOM_BASE", {})
    assert q_binomial(12, 5) == q_binomial_product(12, 5)
    assert q_binomial_base(6, 3, 2) == q_binomial_base(6, 3, 2)
    assert not qcombinatorics._QBINOM
    assert not qcombinatorics._QBINOM_BASE


def test_cache_limit_env_parsing(monkeypatch):
    monkeypatch.delenv("QTRINOM_CACHE_LIMIT", raising=False)
    assert qcombinatorics._env_cache_limit() is None
    monkeypatch.setenv("QTRINOM_CACHE_LIMIT", "100")
    assert qcombinatorics._env_cache_limit() == 100
    monkeypatch.setenv("QTRINOM_CACHE_LIMIT", "")
    assert qcombinatorics._env_cache_limit() is None
    monkeypatch.setenv("QTRINOM_CACHE_LIMIT", "-5")
    assert qcombinatorics._env_cache_limit() == 0
    monkeypatch.setenv("QTRINOM_CACHE_LIMIT", "abc")
    with pytest.raises(ValueError, match="QTRINOM_CACHE_LIMIT must be an integer"):
        qcombinatorics._env_cache_limit()


def test_concurrent_memo_access(monkeypatch):
    # racing fills may compute twice but every caller must observe the same
    # canonical value
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(qcombinatorics, "_QBINOM", {})
    expected = q_binomial_product(40, 20)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: q_binomial(40, 20), range(32)))
    assert all(r == expected for r in results)
