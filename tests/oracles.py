"""Independent slow routes to the classical trinomial coefficient, used only
as test oracles for trinomials.classical_trinomial."""

from qtrinom.polyring import LaurentPoly
from qtrinom.qcombinatorics import binomial


def classical_trinomial_alt(n: int, m: int) -> int:
    # second closed form
    return sum((-1) ** k * binomial(n, k) * binomial(2 * n - 2 * k, n - m - k) for k in range(n + 1))


def classical_trinomial_expand(n: int, m: int) -> int:
    # third route: expand (1+x+x^2)^n directly and read off one coefficient
    return (LaurentPoly(0, (1, 1, 1)) ** n)[m + n]
