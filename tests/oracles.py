"""Independent slow routes used only as test oracles: two for the classical
trinomial coefficient (trinomials.classical_trinomial) and two for the
Gaussian binomial (qcombinatorics.q_binomial)."""

from functools import cache

from qtrinom.polyring import ONE, ZERO, LaurentPoly, exact_div, monomial, shift
from qtrinom.qcombinatorics import binomial


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
