"""Gaussian binomials: the product-formula walk against the q-Pascal and
product-formula oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import q_binomial_pascal, q_binomial_product
from qtrinom import qcombinatorics
from qtrinom.polyring import ONE, ZERO, eval_at_one, make_poly, substitute_power
from qtrinom.qcombinatorics import binomial, q_binomial, q_binomial_base, q_integer


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
    assert q_binomial_base(3, 4, 3) == ZERO
    assert q_binomial_base(3, -1, 3) == ZERO
    for n, m, s in ((5, 2, 2), (7, 3, 3), (9, 9, 5), (12, 5, 2)):
        assert q_binomial_base(n, m, s) == substitute_power(q_binomial(n, m), s)
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
    # three independent routes: the walk, q-Pascal recurrence, one exact_div
    for n in range(31):
        for m in range(n + 1):
            expected = q_binomial_product(n, m)
            assert q_binomial_pascal(n, m) == expected, (n, m)
            assert q_binomial(n, m) == expected, (n, m)


# requests cluster on a few rows, so later ones resume from part-filled rows
# and from nearby earlier rows
_REQUESTS = st.lists(
    st.tuples(st.integers(36, 40) | st.integers(0, 40), st.integers(-1, 41)), min_size=1, max_size=20
)


@given(_REQUESTS)
def test_walk_resumes_exactly(requests):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcombinatorics, "_QBINOM", {})
        for n, m in requests:
            assert q_binomial(n, m) == q_binomial_pascal(n, m), (n, m)
        assert all(0 < j <= n - j for n, j in qcombinatorics._QBINOM)


def test_walk_stores_only_its_own_steps(monkeypatch):
    monkeypatch.setattr(qcombinatorics, "_QBINOM", {})
    assert q_binomial(20, 12) == q_binomial_pascal(20, 12)
    row = {(20, j) for j in range(1, 9)}
    assert set(qcombinatorics._QBINOM) == row
    # two rows down: one diagonal step to [21 9], one column step to [22 9]
    assert q_binomial(22, 9) == q_binomial_pascal(22, 9)
    assert set(qcombinatorics._QBINOM) == row | {(21, 9), (22, 9)}
    # one step along the row
    assert q_binomial(22, 10) == q_binomial_pascal(22, 10)
    assert set(qcombinatorics._QBINOM) == row | {(21, 9), (22, 9), (22, 10)}


def test_concurrent_memo_access(monkeypatch):
    # racing fills may compute twice but every caller must observe the same
    # canonical value
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(qcombinatorics, "_QBINOM", {})
    expected = q_binomial_product(40, 20)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: q_binomial(40, 20), range(32)))
    assert all(r == expected for r in results)
