"""Independent slow routes used only as test oracles: two for the classical
trinomial coefficient (trinomials.classical_trinomial), two for the
Gaussian binomial (qcombinatorics.q_binomial), one for the sides of the
summation lemmas (congruence._lemma_sides) and one for the theorem
right-hand sides (congruence.rhs_theorem); plus the truncated q-trinomial
sum over a widened window (trinomials.truncated_q_trinomial), and the
lemma sides times the product of their denominators, which must give the
same verdicts as the sides themselves."""

from functools import cache

from qtrinom.polyring import ONE, ZERO, LaurentPoly, exact_div, monomial, shift, substitute_power
from qtrinom.qcombinatorics import binomial, q_binomial, q_binomial_base
from qtrinom.trinomials import FAMILIES, TrinomialKind, _half, _summand, theta, vartheta


def classical_trinomial_alt(n: int, m: int) -> int:
    # second closed form
    return sum((-1) ** k * binomial(n, k) * binomial(2 * n - 2 * k, n - m - k) for k in range(n + 1))


def classical_trinomial_expand(n: int, m: int) -> int:
    # third route: expand (1+x+x^2)^n directly and read off one coefficient
    return (LaurentPoly(0, (1, 1, 1)) ** n)[m + n]


@cache
def _pascal_row(n: int) -> tuple[LaurentPoly, ...]:
    # [n j] = [n-1 j] + q^(n-j) [n-1 j-1]: division-free, one row from the last
    if n == 0:
        return (ONE,)
    prev = _pascal_row(n - 1) + (ZERO,)
    return (ONE,) + tuple(prev[j] + shift(prev[j - 1], n - j) for j in range(1, n + 1))


def widened_truncated_sum(kind: TrinomialKind, a: int, b: int, n: int, width: int) -> LaurentPoly:
    """truncated_q_trinomial with its floor(n/2) window widened to width: the
    summands at the anchor and the width indices after it (before it for the
    reflected families)."""
    family = FAMILIES[kind]
    an, bn = a * n, b * n
    start = family.anchor(an, bn) - (width if family.reflected else 0)
    total = ZERO
    for k in range(start, start + width + 1):
        total = total + _summand(family, an, bn, k)
    return total


def q_binomial_pascal(n: int, m: int) -> LaurentPoly:
    """[n m] by the q-Pascal recurrence; zero when m < 0 or m > n."""
    if m < 0 or m > n:
        return ZERO
    return _pascal_row(n)[m]


def q_binomial_product(n: int, m: int) -> LaurentPoly:
    """[n m] = prod (1-q^(n-i)) / prod (1-q^(i+1)), one exact_div at the end."""
    if m < 0 or m > n:
        return ZERO
    num = ONE
    den = ONE
    for i in range(m):
        num = num * (ONE - monomial(n - i))
        den = den * (ONE - monomial(i + 1))
    return exact_div(num, den)


@cache
def _lemma_sum(n: int, weight_exp) -> LaurentPoly:
    total = ZERO
    for k in range(0, n // 2 + 1):
        if k == 0:
            term = ONE
        else:
            term = exact_div(q_binomial_product(n - k, k) * (ONE - monomial(n)), ONE - monomial(n - k))
        total = total + shift(term, weight_exp(k)) * (-1 if k % 2 else 1)
    return total


def lemma_sides(n: int, weight_exp, correction: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The summation lemmas built term by term: term k is
    [n-k k] (1-q^n)/(1-q^(n-k)) (1 at k = 0), each a full product and one
    exact_div; returns (signed, shifted sum, correction)."""
    return _lemma_sum(n, weight_exp), correction


def lemma_sides_cleared(n: int, weight_exp, correction: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """lemma_sides times D = prod_{j=1..n//2} (1 - q^(n-j)), the product of
    the denominators: returns (D * sum, correction * D)."""
    d_poly = ONE
    for j in range(1, n // 2 + 1):
        d_poly = d_poly * (ONE - monomial(n - j))
    return d_poly * _lemma_sum(n, weight_exp), correction * d_poly


def rhs_theorem_by_kind(kind: TrinomialKind, a: int, b: int, n: int, correction: bool = True) -> LaurentPoly:
    """The six theorem right-hand sides written out family by family, each
    prefactor exponent and brace as the paper states it.

    correction=False drops the brace (sets it to 1): the corrupted rhs that
    the negative controls use to prove the checker can fail."""
    an, bn = a * n, b * n
    d = an - bn
    sign = -1 if d % 2 else 1
    if kind is TrinomialKind.round:
        pre = ONE
        binom = q_binomial(an, bn)
        brace = ONE - (ONE - theta(n)) * (a - b)
    elif kind is TrinomialKind.tau0:
        pre = monomial(_half(d * (an + bn + 1)), sign)
        binom = q_binomial(an, bn)
        brace = ONE - (monomial(0, 2) - theta(n) - vartheta(n)) * (a - b)
    else:
        binom = q_binomial_base(an, bn, 2)
        if kind is TrinomialKind.T0:
            pre = monomial(0, sign)
            corr = theta(n)
        elif kind is TrinomialKind.T1:
            pre = monomial(d, sign)
            corr = vartheta(n)
        elif kind is TrinomialKind.t0:
            pre = monomial(d * d, sign)
            corr = substitute_power(theta(n), -1)
        else:
            pre = monomial(d * (d - 1), sign)
            corr = substitute_power(vartheta(n), -1)
        brace = ONE - (ONE - corr) * (2 * (a - b))
    if not correction:
        brace = ONE
    return pre * binom * brace
