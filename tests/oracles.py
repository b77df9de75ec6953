"""Independent slow routes used only as test oracles: two for the classical
trinomial coefficient (trinomials.classical_trinomial), two for the
Gaussian binomial (qcombinatorics.q_binomial), one for the side of the
summation lemmas (congruence._lemma_sum) and one for the theorem
right-hand sides (congruence.rhs_theorem); plus the truncated q-trinomial
sum over a widened window (trinomials.truncated_q_trinomial), and the
lemma sides times the product of their denominators, which must give the
same verdicts as the sides themselves.  More check the kernels: a
digit-by-digit decode of Kronecker integers (polyring._unpack), the
congruence check over the full difference of the sides
(congruence.congruent), and the quotient ring Z[q]/((q^n - 1)^k) in list
form, each Taylor vector a list of ints of either sign: the add, the
q-Pascal step x + q^j y, the shift, q -> q^2 and the signed dot by Horner's
rule, the reference for polyring's packed kernels (_packed_step, which
with no addend is the shift, _packed_q2 and _packed_dot).

The last section is a second opinion that shares no arithmetic with
qtrinom: both sides of each theorem evaluated at q = z + e in the dual
numbers F_p[e]/(e^2), z a primitive n-th root of unity modulo a prime
p = 1 (mod n).  The same roots give Phi_n(q) mod p as the product of
(q - z) (cyclotomic.cyclotomic).  Run as a script it checks a ladder of
large n, where the exact path's own sides must take the same values:

    PYTHONPATH=src python tests/oracles.py 60 80 100
"""

import math
import sys
from functools import cache, lru_cache
from math import comb
from operator import add
from typing import Sequence

from qtrinom.congruence import rhs_theorem
from qtrinom.polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    _digit_width,
    _unpack,
    exact_div,
    make_poly,
    monomial,
    rem_monic,
    shift,
)
from qtrinom.qcombinatorics import binomial, q_binomial_base
from qtrinom.trinomials import FAMILIES, TrinomialKind, _sum, truncated_q_trinomial


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
    return _sum(family, an, bn, family.window(an, bn, width))


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
def lemma_sum(n: int, weight_exp) -> LaurentPoly:
    """The side of a summation lemma built term by term: term k is
    [n-k k] (1-q^n)/(1-q^(n-k)) (1 at k = 0), each a full product and one
    exact_div; returns the signed, shifted sum."""
    total = ZERO
    for k in range(0, n // 2 + 1):
        if k == 0:
            term = ONE
        else:
            term = exact_div(q_binomial_product(n - k, k) * (ONE - monomial(n)), ONE - monomial(n - k))
        total = total + shift(term, weight_exp(k)) * (-1 if k % 2 else 1)
    return total


def lemma_sides_cleared(n: int, weight_exp, correction: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(lemma_sum, correction) times D = prod_{j=1..n//2} (1 - q^(n-j)), the product of
    the denominators: returns (D * sum, correction * D)."""
    d_poly = ONE
    for j in range(1, n // 2 + 1):
        d_poly = d_poly * (ONE - monomial(n - j))
    return d_poly * lemma_sum(n, weight_exp), correction * d_poly


def rhs_theorem_by_kind(kind: TrinomialKind, a: int, b: int, n: int, correction: bool = True) -> LaurentPoly:
    """The six theorem right-hand sides as _PAPER_FAMILIES states them:
    (-1)^d q^pre [an bn]_(q^s) times the brace 1 - s(a-b) sum_c (1 - c(n));
    round takes no sign.

    correction=False drops the brace (sets it to 1): the corrupted rhs that
    the negative controls use to prove the checker can fail."""
    base, _, pre, corrections = _PAPER_FAMILIES[kind]
    an, bn = a * n, b * n
    d = an - bn
    sign = -1 if kind is not TrinomialKind.round and d % 2 else 1
    brace = ONE
    if correction:
        brace = ONE - sum((ONE - make_poly(c(n)) for c in corrections), ZERO) * (base * (a - b))
    return monomial(pre(an, bn, d), sign) * q_binomial_base(an, bn, base) * brace


def unpack_by_shifts(n: int, w: int, count: int) -> list[int]:
    """The count lowest balanced digits of n in base B = 2^(8w), each in
    [-B/2, B/2): mask off a digit, re-centre it, subtract it and shift.  No
    offset digits and no byte strings, unlike polyring._unpack."""
    bits = 8 * w
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    for _ in range(count):
        d = n & mask
        if d >= half:
            d -= 1 << bits
        digits.append(d)
        n = (n - d) >> bits
    return digits


# ---- the quotient ring Z[q]/((q^n - 1)^k) in list form ----
#
# The reference for polyring's packed kernels: each element as its k Taylor
# vectors (polyring._taylor), lists of ints of either sign, and each
# operation entry by entry.


def _taylor_add(x, y):
    """The sum of two elements of Z[q]/((q^n - 1)^k) in Taylor form
    (polyring._taylor): vector by vector, entry by entry."""
    return [[a + b for a, b in zip(u, v)] for u, v in zip(x, y)]


def pack_digits(vector: Sequence[int], w: int) -> int:
    """sum_r vector[r] B^r, B = 2^(8w), term by term: a packed Taylor vector
    (polyring._packed_step) from digits 0 <= vector[r] < B."""
    if any(not 0 <= d < 1 << 8 * w for d in vector):
        raise ValueError("digit outside [0, B)")
    return sum(d << 8 * w * r for r, d in enumerate(vector))


def unpack_digits(p: int, w: int, count: int) -> list[int]:
    """The count digits of a packed vector, by masks and shifts; raises
    ValueError unless 0 <= p < B^count."""
    if not 0 <= p < 1 << 8 * w * count:
        raise ValueError("packed vector outside [0, B^count)")
    return [p >> 8 * w * r & (1 << 8 * w) - 1 for r in range(count)]


def _taylor_shift(taylor: Sequence[Sequence[int]], j: int) -> list[list[int]]:
    """q^j times the element, j >= 0."""
    zero = [0] * len(taylor[0])
    return _taylor_step([zero] * len(taylor), taylor, j)


def _taylor_step(x: Sequence[Sequence[int]], z: Sequence[Sequence[int]], j: int) -> list[list[int]]:
    """x + q^j z, j >= 0, in one pass over z (the q-Pascal step).  With
    j = u*n + r, every class of z gains y^u = (1 + e)^u, so S_i gains
    sum_(l<i) C(u, i-l) S_l; class c then moves to (c + r) mod n, and the r
    classes that wrap past q^n gain one more y = 1 + e, so S_i gains S_(i-1)
    there."""
    n = len(z[0])
    u, r = divmod(j, n)
    cut = n - r
    out, before = [], None
    for i, s in enumerate(z):
        for l in range(i if u else 0):
            s = list(map(add, s, map(comb(u, i - l).__mul__, z[l])))
        if r:
            s = s[cut:] + s[:cut]
        row = list(map(add, x[i], s))
        if before is not None:
            # before is S_(i-1) moved, not yet given its own wrap term
            row[:r] = map(add, row[:r], before[:r])
        out.append(row)
        before = s if r else None
    return out


def _taylor_q2(taylor: Sequence[Sequence[int]]) -> list[list[int]]:
    """The image under q -> q^2, a ring map since (q^(2n) - 1)^k is a multiple
    of (q^n - 1)^k.  q^r e^i goes to q^(2r) e^i (2 + e)^i, as q^(2n) - 1 is
    e (2 + e), and q^(2r) is q^(2r-n) y = q^(2r-n) (1 + e) when 2r >= n."""
    n, k = len(taylor[0]), len(taylor)
    # e^i (2 + e)^i = sum_m C(i, m) 2^(i-m) e^(i+m), cut at e^k
    mixed = [[c << i for c in s] for i, s in enumerate(taylor)]
    for i in range(1, k):
        for m in range(1, min(i, k - 1 - i) + 1):
            scale = comb(i, m) << (i - m)
            mixed[i + m] = list(map(add, mixed[i + m], map(scale.__mul__, taylor[i])))
    # classes r < half land on 2r, the others on 2r - n, in steps of 2
    half = (n + 1) // 2
    out, wrapped_before = [], None
    for s in mixed:
        low, wrapped = [0] * n, [0] * n
        low[: 2 * half : 2] = s[:half]
        wrapped[2 * half - n :: 2] = s[half:]
        row = list(map(add, low, wrapped))
        if wrapped_before is not None:
            row = list(map(add, row, wrapped_before))
        out.append(row)
        wrapped_before = wrapped
    return out


def _taylor_value(taylor: Sequence[Sequence[int]], bits: int) -> int:
    """The polynomial form of the element at q = B = 2^bits, taken straight
    from its Taylor vectors: sum_i S_i(B) (B^n - 1)^i, both sums by Horner's
    rule (quadratic in n, faster than _pack for vectors this short)."""
    value = 0
    for s in reversed(taylor):
        digits = 0
        for c in reversed(s):
            digits = (digits << bits) + c
        value = (value << bits * len(s)) - value + digits
    return value


def _taylor_dot(xs: Sequence, ys: Sequence, signs: Sequence[int]) -> LaurentPoly:
    """sum_i signs[i] X_i Y_i over the polynomial forms X_i, Y_i of ring
    elements given by their Taylor vectors: an ordinary polynomial of degree
    < 2kn - 1, not yet folded.  Every product is taken by Kronecker
    substitution at one digit width and summed as an integer, so the sum is
    read out of the digits once.  A form's coefficient sum_i +-C(i, s) S_i is
    at most 2^k max|S| in size."""
    k, n = len(xs[0]), len(xs[0][0])
    w = _digit_width(
        (max(max(map(abs, s)) for x in xs for s in x) << k).bit_length(),
        (max(max(map(abs, s)) for y in ys for s in y) << k).bit_length(),
        k * n * len(xs),
    )
    bits = 8 * w
    total = sum(_taylor_value(x, bits) * _taylor_value(y, bits) * sign for x, y, sign in zip(xs, ys, signs))
    return LaurentPoly(0, _unpack(total, w, 2 * k * n - 1))


def congruent_by_difference(lhs: LaurentPoly, rhs: LaurentPoly, mod) -> tuple[bool, LaurentPoly, int]:
    """(holds, residual, cleared_shift) of congruence.congruent from the full
    difference: cleared by the least power of q that makes it ordinary, then
    one long division by the dense mod.poly, with no sparse fold."""
    diff = lhs - rhs
    cleared_shift = max(0, -diff.min_exponent) if diff else 0
    residual = rem_monic(shift(diff, cleared_shift), mod.poly)
    return residual.is_zero(), residual, cleared_shift


# ---- both theorem sides at q = z + e over F_p ----
#
# If Phi_n^2 divides q^M (lhs - rhs) over Z, then Phi_n(z) = 0 mod p makes
# Phi_n(z + e)^2 = 0 in F_p[e]/(e^2), and q^M is a unit there, so lhs and
# rhs agree in value and derivative at q = z + e.  The test is one-sided: a
# congruence that fails should give a difference at some root, but need not.
# A dual number is a pair (value, derivative) of residues mod p.  The
# oracle's sides form no LaurentPoly (eval_dual only reads the coefficients
# of one it is given), so no product, division or reduction of qtrinom's is
# involved; only exact_sides, the exact path under test, uses them.


def _mul(x, y, p):
    return x[0] * y[0] % p, (x[0] * y[1] + x[1] * y[0]) % p


def _mono(z, w, p):
    # q^w at q = z + e, for any integer w: (z^w, w z^(w-1)); at w = -1 this
    # is (z+e)^-1 = z^-1 - z^-2 e
    return pow(z, w, p), w * pow(z, w - 1, p) % p


def _is_prime(m: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is exact below 3,215,031,751
    if m >= 3_215_031_751:
        raise ValueError(f"{m} is past the exact range of the primality test")
    if m < 2 or m % 2 == 0:
        return m == 2
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, m)
        if x in (0, 1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@cache
def dual_prime(n: int) -> int:
    """The least prime p = 1 (mod n) above 2^31."""
    p = ((1 << 31) // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    return p


def primitive_roots(n: int, p: int) -> list[int]:
    """Every primitive n-th root of unity modulo p, for p = 1 (mod n)."""
    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % f for f in range(2, r))]
    for h in range(2, p):
        z = pow(h, (p - 1) // n, p)
        if all(pow(z, n // r, p) != 1 for r in primes):
            return [pow(z, j, p) for j in range(1, n + 1) if math.gcd(j, n) == 1]
    raise ValueError(f"no primitive {n}-th root modulo {p}")


def cyclotomic_mod_p(n: int) -> tuple[int, list[int]]:
    """Phi_n(q) modulo p = dual_prime(n) as the product of (q - z) over the
    primitive n-th roots z: (p, its coefficients from q^0 up)."""
    p = dual_prime(n)
    coeffs = [1]
    for z in primitive_roots(n, p):
        coeffs = [(lo - z * hi) % p for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
    return p, coeffs


def _binomials(x, entries, p):
    """{(N, K): [N K] at the dual x} for each (N, K) in entries, by the
    q-Pascal rule [N K] = [N-1 K-1] + x^K [N-1 K] streamed row by row, with
    the columns cut at the largest K needed after [N K] = [N N-K]."""
    wanted = {}
    for big, small in entries:
        if 0 <= small <= big:
            wanted.setdefault(big, set()).add(min(small, big - small))
    cols = max((k for ks in wanted.values() for k in ks), default=0)
    powers = [(1, 0)]
    for _ in range(cols):
        powers.append(_mul(powers[-1], x, p))
    value, deriv = [1] + [0] * cols, [0] * (cols + 1)
    found = {}
    for row in range(max(wanted, default=-1) + 1):
        for k in range(min(row, cols), 0, -1):
            x0, x1 = powers[k]
            deriv[k] = (deriv[k - 1] + x0 * deriv[k] + x1 * value[k]) % p
            value[k] = (value[k - 1] + x0 * value[k]) % p
        for k in wanted.get(row, ()):
            found[row, k] = value[k], deriv[k]
    return {(big, small): found.get((big, min(small, big - small)), (0, 0)) for big, small in entries}


def _theta_terms(n: int):
    # theta(n) for n >= 1 as (exponent, sign) terms
    m, r = divmod(n, 3)
    sign = -1 if m % 2 else 1
    if r == 0:
        return [(m * (3 * m - 1) // 2, sign), (m * (3 * m + 1) // 2, sign)]
    if r == 1:
        return [(m * (3 * m + 1) // 2, sign)]
    return [((m + 1) * (3 * m + 2) // 2, -sign)]


def _vartheta_terms(n: int):
    m, r = divmod(n, 3)
    sign = -1 if m % 2 else 1
    if r == 0:
        return [(m * (3 * m - 5) // 2, sign), (m * (3 * m - 1) // 2, sign)]
    if r == 1:
        return [(m * (3 * m + 1) // 2, sign)]
    return [((m - 1) * (3 * m + 2) // 2, -sign)]


def _inverted(terms):
    return lambda n: [(-e, c) for e, c in terms(n)]  # the q -> 1/q image


# each family as the paper states it: the base s of [an k]_(q^s), the weight
# w(an, bn, k) of term k, the prefactor exponent at d = an - bn, and the
# corrections c in the brace 1 - s(a-b) sum_c (1 - c(n))
_PAPER_FAMILIES = {
    TrinomialKind.round: (1, lambda an, bn, k: k * (k + bn), lambda an, bn, d: 0, (_theta_terms,)),
    TrinomialKind.tau0: (1, lambda an, bn, k: an * k - k * (k - 1) // 2, lambda an, bn, d: d * (an + bn + 1) // 2,
                         (_theta_terms, _vartheta_terms)),
    TrinomialKind.T0: (2, lambda an, bn, k: 0, lambda an, bn, d: 0, (_theta_terms,)),
    TrinomialKind.T1: (2, lambda an, bn, k: k, lambda an, bn, d: d, (_vartheta_terms,)),
    TrinomialKind.t0: (2, lambda an, bn, k: k * k, lambda an, bn, d: d * d, (_inverted(_theta_terms),)),
    TrinomialKind.t1: (2, lambda an, bn, k: k * (k - 1), lambda an, bn, d: d * (d - 1),
                       (_inverted(_vartheta_terms),)),
}


def _window(kind: TrinomialKind, an: int, bn: int, n: int) -> dict[int, tuple[int, int]]:
    """The summation indices k of one truncated sum, each with its second
    binomial factor (N, K)."""
    d, half = an - bn, n // 2
    if kind is TrinomialKind.round:
        return {k: (an - k, bn + k) for k in range(half + 1)}
    return {k: (2 * an - 2 * k, d - k) for k in range(d - half, d + 1)}


@lru_cache(maxsize=1)
def _theorem_tables(a: int, b: int, n: int, p: int, z: int):
    """{s: {(N, K): [N K] at q^s}} at q = z + e, one table per base s, with
    every entry that any of the six kinds reads at (a, b, n): the kinds at
    one root share them."""
    an, bn = a * n, b * n
    needs: dict[int, set] = {1: set()}
    for kind, (base, _, _, _) in _PAPER_FAMILIES.items():
        window = _window(kind, an, bn, n)
        needs[1].update(window.values())
        needs.setdefault(base, set()).update({(an, k) for k in window} | {(an, bn)})
    return {s: _binomials(_mono(z, s, p), entries, p) for s, entries in needs.items()}


def theorem_sides_at(kind: TrinomialKind, a: int, b: int, n: int, p: int, z: int, correction: bool = True):
    """(lhs, rhs) of one theorem at q = z + e in F_p[e]/(e^2), each a pair
    (value, derivative) mod p.

    The lhs is the truncated sum: k = 0..n//2 of q^w [an k] [an-k bn+k] for
    round, and k = d-n//2..d of (-1)^k q^w [an k]_(q^s) [2an-2k d-k] for the
    reflected families.  The rhs is (-1)^d q^pre [an bn]_(q^s) times the
    brace; correction=False sets the brace to 1, as
    rhs_theorem_by_kind(..., correction=False) does."""
    base, weight, pre, corrections = _PAPER_FAMILIES[kind]
    an, bn = a * n, b * n
    d = an - bn
    reflected = kind is not TrinomialKind.round
    tables = _theorem_tables(a, b, n, p, z)

    lhs = (0, 0)
    for k, second in _window(kind, an, bn, n).items():
        term = _mul(_mul(_mono(z, weight(an, bn, k), p), tables[base][an, k], p), tables[1][second], p)
        sign = -1 if reflected and k % 2 else 1
        lhs = (lhs[0] + sign * term[0]) % p, (lhs[1] + sign * term[1]) % p

    brace = (1, 0)
    if correction:
        total_v = total_d = 0
        for c in corrections:
            total_v += 1
            for e, sign in c(n):
                v, dv = _mono(z, e, p)
                total_v, total_d = total_v - sign * v, total_d - sign * dv
        scale = base * (a - b)
        brace = (1 - scale * total_v) % p, -scale * total_d % p
    rhs = _mul(_mul(_mono(z, pre(an, bn, d), p), tables[base][an, bn], p), brace, p)
    if reflected and d % 2:
        rhs = -rhs[0] % p, -rhs[1] % p
    return lhs, rhs


def eval_dual(poly: LaurentPoly, z: int, p: int):
    """poly at q = z + e, term by term: (value, derivative) mod p."""
    value = deriv = 0
    zw = pow(z, poly.offset, p)
    for w, c in enumerate(poly.coeffs, poly.offset):
        value += c * zw
        deriv += c * w * zw  # z times the derivative
        zw = zw * z % p
    return value % p, deriv * pow(z, -1, p) % p


def exact_sides(kind: TrinomialKind, a: int, b: int, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The exact path's lhs (in the ring, power 2) and rhs of one theorem, the
    rhs taken modulo (q^n - 1)^2 so that evaluating it stays cheap.  The
    modulus vanishes to second order at every q = z + e, so neither side's
    value there changes; the rhs is cleared by q^m first and shifted back."""
    rhs = rhs_theorem(kind, a, b, n)
    m = max(0, -rhs.min_exponent)
    reduced = shift(rem_monic(shift(rhs, m), (monomial(n) - ONE) ** 2), -m)
    return truncated_q_trinomial(kind, a, b, n, power=2), reduced


def _ladder(ns: list[int], a: int = 4, b: int = 1) -> int:
    # every kind at (a, b, n), at every primitive n-th root: the oracle's two
    # sides and the exact path's two sides must all agree.  The kinds run
    # inside the loop over roots, so each root's tables are built once
    bad = 0
    for n in ns:
        p = dual_prime(n)
        roots = primitive_roots(n, p)
        exact = {kind: exact_sides(kind, a, b, n) for kind in TrinomialKind}
        misses = dict.fromkeys(TrinomialKind, 0)
        for z in roots:
            for kind in TrinomialKind:
                values = {*theorem_sides_at(kind, a, b, n, p, z), *(eval_dual(x, z, p) for x in exact[kind])}
                misses[kind] += len(values) != 1
        for kind, missed in misses.items():
            print(f"{kind.value} a={a} b={b} n={n} p={p}: {len(roots) - missed}/{len(roots)} roots agree")
            bad += missed
    return bad


if __name__ == "__main__":
    sys.exit(1 if _ladder([int(arg) for arg in sys.argv[1:]]) else 0)
