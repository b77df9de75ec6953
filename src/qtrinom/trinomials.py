"""Classical trinomial coefficients and the six q-trinomial families.

The classical coefficient ((n, m)) is the coefficient of x^(m+n) in
(1 + x + x^2)^n.  The six q-analogue families (round, tau0, T0, T1, t0, t1)
are sums over k of +-q^w(n, m, k) [n k]_(q^s) times a second binomial, and
each is described once, by its Family row in FAMILIES: the base s, the
weight w, whether it is reflected, and the corrections in its congruence.

Family.window names the floor(n/2) + 1 indices a truncated sum keeps, and
Family.term the sign, weight and second binomial of each term; every sum
reads them there, in ring form and at q = 1 (_sum_at_one).  The congruence
prefactor is the anchor term's sign and weight, so one row fixes both sides.

A truncated sum can instead be built in Z[q]/((q^n - 1)^k), as its
Euclidean remainder modulo (q^n - 1)^k.  Its binomials then come from
q-Pascal rows [N j] = [N-1 j-1] + q^j [N-1 j] held in ring form, packed:
one nonnegative int per Taylor vector of polyring._taylor, at a byte width
proven for the row (_RowStream).  The step needs no division, so it is
valid in the ring.  Each (n, k) has two process-wide row streams, never
restarted: full rows for the first factors and round's second factors, and
a band of width n//2 for the reflected second factors, which takes the
rows the full stream has reached from it.  The streams keep their current
rows and, in one shared dict, the entries that _read_by_families names,
and drop the rest; the full stream also keeps the q -> q^2 image of each
first factor, made once.  Weights are applied in the ring, so each summand
is one product of two ring elements, and polyring._packed_dot takes the
whole signed sum from the packed vectors, with no polynomial per summand;
the sum is reduced once, by polyring.fold.
"""
from __future__ import annotations

from enum import Enum
from math import comb
from typing import Callable, NamedTuple

from .polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    _digit_bits,
    _packed_dot,
    _packed_q2,
    _packed_step,
    _repack,
    fold,
    monomial,
    shift,
    substitute_power,
)
from .qcombinatorics import binomial, q_binomial, q_binomial_base


class InvalidParameters(ValueError):
    """A verification hypothesis (a > b >= 1, n >= 1, parity, ...) is violated."""


class NotPrime(InvalidParameters):
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


def require_theorem_params(a: int, b: int, n: int) -> None:
    """Raise InvalidParameters unless a > b >= 1 and n >= 1 (all six theorems)."""
    if not a > b >= 1:
        raise InvalidParameters("requires a > b >= 1")
    if n < 1:
        raise InvalidParameters("requires n >= 1")


def require_corollary_params(a: int, b: int, p: int) -> None:
    """Raise InvalidParameters / NotPrime unless a > b >= 1 and p is an odd prime."""
    if not a > b >= 1:
        raise InvalidParameters("requires a > b >= 1")
    require_odd_prime(p)


def _half(x: int) -> int:
    # every halved exponent in the formulas is provably even; a failure here
    # is an implementation bug, not bad input
    q, r = divmod(x, 2)
    if r:
        raise ArithmeticError(f"exponent {x} is not even")
    return q


def theta(n: int) -> LaurentPoly:
    """The one- or two-term correction monomial for the base-q congruences."""
    if n < 0:
        raise ValueError("theta is defined for nonnegative integers")
    if n == 0:
        # regularized so the k=0-only summation identity holds at n=0; the
        # 3m branch below would give 2 here and break it
        return ONE
    m, r = divmod(n, 3)
    sign = -1 if m % 2 else 1
    if r == 0:
        e = _half(m * (3 * m - 1))
        return LaurentPoly(e, [sign] + [0] * (m - 1) + [sign])
    if r == 1:
        return monomial(_half(m * (3 * m + 1)), sign)
    return monomial(_half((m + 1) * (3 * m + 2)), -sign)


def vartheta(n: int) -> LaurentPoly:
    """Companion correction monomial; Laurent for n = 2 mod 3 at small n."""
    if n < 0:
        raise ValueError("vartheta is defined for nonnegative integers")
    if n == 0:
        return ONE
    m, r = divmod(n, 3)
    sign = -1 if m % 2 else 1
    if r == 0:
        e = _half(m * (3 * m - 5))
        return LaurentPoly(e, [sign] + [0] * (2 * m - 1) + [sign])
    if r == 1:
        return monomial(_half(m * (3 * m + 1)), sign)
    return monomial(_half((m - 1) * (3 * m + 2)), -sign)


class TrinomialKind(str, Enum):
    round = "round"
    tau0 = "tau0"
    T0 = "T0"
    T1 = "T1"
    t0 = "t0"
    t1 = "t1"


class Family(NamedTuple):
    """One q-trinomial family, read by both sides of its congruence and at q = 1.

    The congruence right-hand side is pre * [an bn]_(q^base) * brace, with
    pre = sign q^weight of the anchor term (see term), and
    brace = 1 - base*(a-b) * sum_c (1 - c(n)) over the corrections c.
    base is 1 or 2: the ring form of a truncated sum has the q -> q^2 image.
    """

    base: int
    weight: Callable[[int, int, int], int]
    reflected: bool
    corrections: tuple[Callable[[int], LaurentPoly], ...]

    def anchor(self, an: int, bn: int) -> int:
        return an - bn if self.reflected else 0

    def window(self, an: int, bn: int, width: int) -> range:
        """The indices a truncated sum keeps: the anchor and the width
        indices after it for round, before it for the reflected families."""
        start = self.anchor(an, bn) - (width if self.reflected else 0)
        return range(start, start + width + 1)

    def term(self, n: int, m: int, k: int) -> tuple[int, int, int, int]:
        """(sign, weight, big, small), with term k = sign q^weight [n k]_(q^base) [big small].
        Term k is q^weight(n, m, k) [n k]_(q^base) [n-k m+k] for round; the
        reflected families carry (-1)^k and use [2n-2k n-m-k]."""
        if self.reflected:
            return -1 if k % 2 else 1, self.weight(n, m, k), 2 * n - 2 * k, n - m - k
        return 1, self.weight(n, m, k), n - k, m + k


def _inverse(correction: Callable[[int], LaurentPoly]) -> Callable[[int], LaurentPoly]:
    return lambda n: substitute_power(correction(n), -1)  # the q -> 1/q image


FAMILIES = {
    TrinomialKind.round: Family(1, lambda n, m, k: k * (k + m), False, (theta,)),
    TrinomialKind.tau0: Family(1, lambda n, m, k: n * k - k * (k - 1) // 2, True, (theta, vartheta)),
    TrinomialKind.T0: Family(2, lambda n, m, k: 0, True, (theta,)),
    TrinomialKind.T1: Family(2, lambda n, m, k: k, True, (vartheta,)),
    TrinomialKind.t0: Family(2, lambda n, m, k: k * k, True, (_inverse(theta),)),
    TrinomialKind.t1: Family(2, lambda n, m, k: k * (k - 1), True, (_inverse(vartheta),)),
}


def _read_by_families(n: int, big: int, small: int) -> bool:
    """Whether a truncated sum at this n, for some a > b >= 1, reads [big small]_q.

    The FAMILIES rows read, with 0 <= k <= n/2:
      - every entry of a row big = an: the first factors [an k];
      - [an-k bn+k]: round's second factors;
      - [2bn+2k k]: the reflected second factors [2an-2k' an-bn-k'].
    small may be either of [big small] = [big big-small].
    """
    if big % n == 0:
        return True
    for j in (small, big - small):
        k = j % n
        if j >= n and 2 * k <= n and (big + j) % n == 0:
            return True
    return big >= 2 * n and big % 2 == 0 and 2 * small == big % (2 * n) <= n


class DroppedRowEntry(LookupError):
    """A row stream was asked for an entry it has passed and did not keep."""


class _RowStream:
    """q-Pascal rows N = 0, 1, 2, ... in Z[q]/((q^n - 1)^k), each entry
    packed (polyring._packed_step) at its row's byte width.  Row N holds
    [N j] for j <= m = min(N//2, width); the others follow from
    [N j] = [N N-j].  width None means full rows; a band (width n//2)
    serves rows the full stream has reached from that stream, and resumes
    from its current row when behind.  Only the current row and the entries
    _read_by_families names are kept, in one dict shared by an (n, k)'s two
    streams, as (byte width, vectors).

    The width is proven: [N j] has nonnegative coefficients summing to
    C(N, j) <= C(N, m), of degree j(N-j) <= m(N-m), and so do the terms
    [N-1 j-1] and q^j [N-1 j] of the step and y^u [N-1 j] inside it, so
    every digit of row N and of its steps is at most
    C(floor(m(N-m)/n), i) C(N, m), which bits(N, m) holds.  The bound grows
    with N, so widths only grow, each widening a byte-strided re-pack; a
    band resumed from a full row narrows it at its next step."""

    def __init__(self, n: int, k: int, width: int | None, full: _RowStream | None = None):
        self.n, self.k, self.width, self.full = n, k, width, full
        self.big, self.bytes, self.row = 0, 1, [[1] + [0] * (k - 1)]
        self.kept: dict[tuple[int, int], tuple[int, list[int]]] = {} if full is None else full.kept
        self.images: dict[tuple[int, int], tuple[int, list[int]]] = {}

    def bits(self, big: int, small: int, base: int = 1, weight: int = 0) -> int:
        """The bits that hold every Taylor digit of q^weight [big small]_(q^base):
        its coefficients are nonnegative, sum to C(big, small) and reach degree
        base small(big-small) + weight (polyring._digit_bits)."""
        return _digit_bits(base * small * (big - small) + weight, comb(big, small), self.n, self.k)

    def entry(self, big: int, small: int, base: int = 1) -> tuple[int, list[int]]:
        """[big small]_(q^base) as (byte width, packed vectors); base 2 is the
        q -> q^2 image of the entry, made once on first use."""
        small = min(small, big - small)
        if base == 2:
            hit = self.images.get((big, small))
            if hit is None:
                w, vectors = self.entry(big, small)
                to = (self.bits(big, small, 2) + 7) // 8
                hit = self.images[big, small] = to, _packed_q2(vectors, self.n, w, to)
            return hit
        full = self.full
        if full is not None:
            if big <= full.big:
                return full.entry(big, small)
            if self.big < full.big:
                # resume from the full stream's row; the next step narrows it
                self.big, self.bytes, self.row = full.big, full.bytes, full.row[: self.width + 1]
        while self.big < big:
            self._advance()
        if big == self.big and small < len(self.row):
            return self.bytes, self.row[small]
        hit = self.kept.get((big, small))
        if hit is None:
            raise DroppedRowEntry(f"[{big} {small}] is not kept by the n={self.n} row stream")
        return hit

    def _advance(self) -> None:
        prev, big, n = self.row, self.big + 1, self.n
        m = big // 2 if self.width is None else min(big // 2, self.width)
        w = (self.bits(big, m) + 7) // 8  # [big m] is the widest entry
        if w != self.bytes:  # the whole row in one byte-strided copy
            flat = _repack([p for entry in prev for p in entry], n, self.bytes, w)
            prev = [flat[i : i + self.k] for i in range(0, len(flat), self.k)]
        if big % 2 == 0 and m == big // 2:
            # the new middle entry [big big/2] reads [big-1 big/2] = [big-1 big/2-1]
            prev = prev + prev[-1:]
        row = [prev[0]]
        row += [_packed_step(prev[j - 1], prev[j], j, n, w) for j in range(1, len(prev))]
        self.big, self.bytes, self.row = big, w, row
        for j, value in enumerate(row):
            if _read_by_families(n, big, j):
                self.kept.setdefault((big, j), (w, value))


# (n, k) -> the full and band row streams of Z[q]/((q^n - 1)^k)
_ROWS: dict[tuple[int, int], tuple[_RowStream, _RowStream]] = {}


def _rows(n: int, k: int) -> tuple[_RowStream, _RowStream]:
    streams = _ROWS.get((n, k))
    if streams is None:
        full = _RowStream(n, k, None)
        streams = _ROWS[n, k] = full, _RowStream(n, k, n // 2, full)
    return streams


def _sum(family: Family, n: int, m: int, ks: range) -> LaurentPoly:
    """The sum of the family's terms k in ks (Family.term), in polynomial form."""
    total = ZERO
    for k in ks:
        sign, weight, big, small = family.term(n, m, k)
        second = q_binomial(big, small)
        if not second.is_zero():
            term = shift(q_binomial_base(n, k, family.base), weight) * second
            total = total + term if sign > 0 else total - term
    return total


def _sum_at_one(family: Family, n: int, m: int, ks: range) -> int:
    """The sum of the family's terms k in ks at q = 1, where the base and the weight drop out."""
    total = 0
    for k in ks:
        sign, _, big, small = family.term(n, m, k)
        total += sign * binomial(n, k) * binomial(big, small)
    return total


def classical_trinomial(n: int, m: int) -> int:
    """Coefficient of x^(m+n) in (1+x+x^2)^n, round's full sum at q = 1; zero for |m| > n."""
    return _sum_at_one(FAMILIES[TrinomialKind.round], n, m, range(n + 1))


def q_trinomial(kind: TrinomialKind, n: int, m: int) -> LaurentPoly:
    """The full (untruncated) q-trinomial coefficient of the given family."""
    return _sum(FAMILIES[kind], n, m, range(n + 1))


def truncated_q_trinomial(kind: TrinomialKind, a: int, b: int, n: int,
                          power: int | None = None) -> LaurentPoly:
    """The truncated q-trinomial sum at (an, bn).

    With power=k it returns the sum's Euclidean remainder modulo
    (q^n - 1)^k instead, built in that quotient ring from the shared row
    streams (see the module docstring).
    """
    require_theorem_params(a, b, n)
    family = FAMILIES[kind]
    an, bn = a * n, b * n
    window = family.window(an, bn, n // 2)
    if power is None:
        return _sum(family, an, bn, window)
    if power < 1:
        raise ValueError("modulus power must be positive")
    full, band = _rows(n, power)
    stream = band if family.reflected else full
    terms = []
    xbits = ybits = 0
    for k in window:
        sign, weight, big, small = family.term(an, bn, k)
        terms.append((sign, weight, full.entry(an, k, family.base), stream.entry(big, small)))
        xbits = max(xbits, full.bits(an, k, family.base, weight))
        ybits = max(ybits, stream.bits(big, small))
    return fold(_packed_dot(terms, xbits, ybits, n), n, power)


def truncated_classical(variant: str, a: int, b: int, p: int) -> int:
    """The truncated classical sum at (ap, bp), p an odd prime: the truncated q-sum at
    n = p taken at q = 1, round's for plain and T0's for star (all reflected ones agree)."""
    require_corollary_params(a, b, p)
    kind = {"plain": TrinomialKind.round, "star": TrinomialKind.T0}.get(variant)
    if kind is None:
        raise InvalidParameters(f"unknown variant {variant!r}")
    family, ap, bp = FAMILIES[kind], a * p, b * p
    return _sum_at_one(family, ap, bp, family.window(ap, bp, p // 2))
