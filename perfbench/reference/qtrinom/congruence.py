"""Congruence checking modulo cyclotomic powers and all verification targets.

The checker reduces lhs - rhs modulo an expanded Phi_n(q)^k.  Laurent
differences are first cleared by the minimal power q^M, which is sound
because the constant term of Phi_n is +-1, so q is a unit in the quotient
ring; M is recorded in every report.  The lemma verifiers clear the
denominators 1 - q^(n-k) (k up to floor(n/2)) the same way: each factor's
roots are roots of unity of order < n, so the factor is coprime to Phi_n.

Verification targets (the VerificationTask enumeration):

    theorem-a .. theorem-f   truncated q-trinomial congruences mod Phi_n(q)^2
    cor-plain, cor-star      truncated classical sums mod p^2
    lemma-2.1                one-binomial reduction mod Phi_n(q)
    lemma-theta, lemma-vartheta      exact summation identities
    lemma-theta-inv, lemma-upsilon-inv   q -> 1/q images mod Phi_n(q)^2
    babbage, wolstenholme, ljunggren     classical integer congruences
    andrews-q, straub-q      q-analogues mod Phi_p(q)^2 / Phi_n(q)^3
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .cyclotomic import Modulus, cyclotomic, cyclotomic_power
from .polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    exact_div,
    monomial,
    rem_monic,
    shift,
    substitute_power,
)
from .qcombinatorics import binomial, q_binomial, q_binomial_base
from .trinomials import (
    InvalidParameters,
    NotPrime,
    TrinomialKind,
    is_prime,
    truncated_classical,
    truncated_q_trinomial,
)

log = logging.getLogger(__name__)

TARGET_BY_KIND = {
    TrinomialKind.round: "theorem-a",
    TrinomialKind.tau0: "theorem-b",
    TrinomialKind.T0: "theorem-c",
    TrinomialKind.T1: "theorem-d",
    TrinomialKind.t0: "theorem-e",
    TrinomialKind.t1: "theorem-f",
}
KIND_BY_TARGET = {v: k for k, v in TARGET_BY_KIND.items()}

LEMMA_TARGETS = (
    "lemma-2.1",
    "lemma-theta",
    "lemma-vartheta",
    "lemma-theta-inv",
    "lemma-upsilon-inv",
)
INTRO_TARGETS = ("babbage", "wolstenholme", "ljunggren", "andrews-q", "straub-q")
ALL_TARGETS = tuple(TARGET_BY_KIND.values()) + ("cor-plain", "cor-star") + LEMMA_TARGETS + INTRO_TARGETS


@dataclass(frozen=True)
class VerificationTask:
    target: str
    params: dict[str, int] = field(default_factory=dict)

    def sort_key(self):
        return (self.target, tuple(sorted(self.params.items())))


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one verification: holds iff the residual is zero.

    modulus is (n, k) for checks modulo Phi_n(q)^k, (p, k) for integer
    checks modulo p^k, and None for exact polynomial identities.
    """

    target: str
    params: dict[str, int]
    holds: bool
    residual: LaurentPoly
    cleared_shift: int
    modulus: tuple[int, int] | None
    elapsed_ms: int

    def sort_key(self):
        return (self.target, tuple(sorted(self.params.items())))


class CongruenceOutcome(NamedTuple):
    holds: bool
    residual: LaurentPoly
    cleared_shift: int


def _half(x: int) -> int:
    # every halved exponent in the formulas is provably even; a failure here
    # is an implementation bug, not bad input
    q, r = divmod(x, 2)
    assert r == 0, f"exponent {x} is not even"
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


def congruent(lhs: LaurentPoly, rhs: LaurentPoly, mod: Modulus) -> CongruenceOutcome:
    """Reduce lhs - rhs modulo mod.poly after clearing negative exponents."""
    diff = lhs - rhs
    cleared_shift = max(0, -diff.min_exponent) if diff else 0
    cleared = shift(diff, cleared_shift)
    # (q^n - 1)^k is a sparse multiple of Phi_n^k; folding by it first turns
    # the long division against a dense modulus into one against k+1 terms.
    # The final residual is unchanged (euclidean remainders are unique).
    if cleared.degree > mod.n * mod.k:
        cleared = rem_monic(cleared, (monomial(mod.n) - ONE) ** mod.k)
    if cleared.degree >= mod.poly.degree:
        cleared = rem_monic(cleared, mod.poly)
    return CongruenceOutcome(cleared.is_zero(), cleared, cleared_shift)


def rhs_theorem(
    kind: TrinomialKind, a: int, b: int, n: int, correction: bool = True
) -> LaurentPoly:
    """The congruence right-hand side for one q-trinomial family.

    correction=False drops the theta/vartheta brace (sets it to 1); it is the
    negative-control hook that the checker tests use to prove they can fail.
    """
    if b < 1 or a <= b or n < 1:
        raise InvalidParameters("need a > b >= 1 and n >= 1")
    an, bn = a * n, b * n
    d = an - bn
    sign = -1 if d % 2 else 1
    if kind is TrinomialKind.round:
        pre = ONE
        binom = q_binomial(an, bn)
        brace = ONE - (ONE - theta(n)) * (a - b)
    elif kind is TrinomialKind.tau0:
        if a * b != an:
            # the two candidate prefactor exponents (ab-bn vs an-bn) disagree
            # here; the verified reading is (an-bn)(an+bn+1)/2
            log.info("tau0 prefactor exponents differ at a=%d b=%d n=%d; using (an-bn)", a, b, n)
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


def _report(target, params, outcome, modulus, started) -> CongruenceReport:
    elapsed = (time.perf_counter_ns() - started) // 1_000_000
    return CongruenceReport(
        target=target,
        params=dict(params),
        holds=outcome.holds,
        residual=outcome.residual,
        cleared_shift=outcome.cleared_shift,
        modulus=modulus,
        elapsed_ms=int(elapsed),
    )


def verify_theorem(kind: TrinomialKind, a: int, b: int, n: int) -> CongruenceReport:
    """Check one truncated q-trinomial congruence modulo Phi_n(q)^2."""
    started = time.perf_counter_ns()
    lhs = truncated_q_trinomial(kind, a, b, n)
    rhs = rhs_theorem(kind, a, b, n)
    outcome = congruent(lhs, rhs, cyclotomic_power(n, 2))
    return _report(TARGET_BY_KIND[kind], {"a": a, "b": b, "n": n}, outcome, (n, 2), started)


def _int_outcome(value: int, target_value: int, modulus: int) -> CongruenceOutcome:
    residual = (value - target_value) % modulus
    return CongruenceOutcome(residual == 0, LaurentPoly(0, (residual,)), 0)


def verify_corollary(variant: str, a: int, b: int, p: int) -> CongruenceReport:
    """Check a truncated classical sum against +-C(a,b) modulo p^2."""
    started = time.perf_counter_ns()
    if variant == "plain":
        value = truncated_classical("prime_plain", a, b, p)
        target_value = binomial(a, b)
    elif variant == "star":
        value = truncated_classical("prime_star", a, b, p)
        target_value = (-1) ** (a * p - b * p) * binomial(a, b)
    else:
        raise InvalidParameters(f"unknown corollary variant {variant!r}")
    outcome = _int_outcome(value, target_value, p * p)
    return _report(f"cor-{variant}", {"a": a, "b": b, "p": p}, outcome, (p, 2), started)


def _lemma_sum(n: int, weight_exp) -> tuple[LaurentPoly, LaurentPoly]:
    # LHS of the summation lemmas with denominators cleared: D is the product
    # of the 1 - q^(n-k) factors, and each term k carries
    # N_k = D * (1-q^n)/(1-q^(n-k)); the k=0 ratio (1-q^n)/(1-q^n) is taken
    # as 1, which sidesteps the removable singularity at n=0
    h = n // 2
    d_poly = ONE
    for j in range(1, h + 1):
        d_poly = d_poly * (ONE - monomial(n - j))
    total = ZERO
    for k in range(0, h + 1):
        if k == 0:
            nk = d_poly
        else:
            nk = exact_div(d_poly, ONE - monomial(n - k)) * (ONE - monomial(n))
        sign = -1 if k % 2 else 1
        term = q_binomial(n - k, k) * nk
        total = total + shift(term, weight_exp(k)) * sign
    return total, d_poly


def verify_lemma(which: str, n: int, k: int | None = None) -> CongruenceReport:
    """Check one supporting lemma (binomial reduction, summation identity,
    or its q -> 1/q image)."""
    started = time.perf_counter_ns()
    if which == "lemma-2.1":
        if k is None or not 1 <= k <= n - 1:
            raise InvalidParameters("lemma-2.1 needs 1 <= k <= n-1")
        sign = -1 if k % 2 else 1
        lhs = q_binomial(2 * k - 1, k)
        rhs = monomial(_half(k * (3 * k - 1)), sign) * q_binomial(n - k, k)
        outcome = congruent(lhs, rhs, cyclotomic_power(n, 1))
        return _report(which, {"n": n, "k": k}, outcome, (n, 1), started)

    if which in ("lemma-theta", "lemma-vartheta"):
        if n < 0:
            raise InvalidParameters("identity lemmas need n >= 0")
        if which == "lemma-theta":
            lhs, d_poly = _lemma_sum(n, lambda k: _half(k * (k - 1)))
            rhs = theta(n) * d_poly
        else:
            lhs, d_poly = _lemma_sum(n, lambda k: _half(k * (k - 3)))
            rhs = vartheta(n) * d_poly
        residual = lhs - rhs
        outcome = CongruenceOutcome(residual.is_zero(), residual, 0)
        return _report(which, {"n": n}, outcome, None, started)

    if which in ("lemma-theta-inv", "lemma-upsilon-inv"):
        if n < 1:
            raise InvalidParameters("inverse lemmas need n >= 1")
        if which == "lemma-theta-inv":
            lhs, d_poly = _lemma_sum(n, lambda k: _half(k * (3 * k - 1)))
            rhs = substitute_power(theta(n), -1) * d_poly
        else:
            # upsilon is read as vartheta: the inverse lemma is the q -> 1/q
            # image of the vartheta identity
            lhs, d_poly = _lemma_sum(n, lambda k: _half(k * (3 * k + 1)))
            rhs = substitute_power(vartheta(n), -1) * d_poly
        outcome = congruent(lhs, rhs, cyclotomic_power(n, 2))
        return _report(which, {"n": n}, outcome, (n, 2), started)

    raise InvalidParameters(f"unknown lemma {which!r}")


def _require_prime(p: int, minimum: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p < minimum:
        raise InvalidParameters(f"need a prime >= {minimum}, got {p}")


def verify_intro(which: str, **params: int) -> CongruenceReport:
    """Check one of the historical congruences the main results refine."""
    started = time.perf_counter_ns()

    def need(name: str) -> int:
        if name not in params:
            raise InvalidParameters(f"{which} needs parameter {name}")
        return params[name]

    if which == "babbage":
        p = need("p")
        _require_prime(p, 3)
        outcome = _int_outcome(binomial(2 * p - 1, p - 1), 1, p * p)
        return _report(which, {"p": p}, outcome, (p, 2), started)

    if which == "wolstenholme":
        p = need("p")
        _require_prime(p, 5)
        outcome = _int_outcome(binomial(2 * p - 1, p - 1), 1, p ** 3)
        return _report(which, {"p": p}, outcome, (p, 3), started)

    if which == "ljunggren":
        a, b, p = need("a"), need("b"), need("p")
        _require_prime(p, 5)
        if a < 0 or b < 0:
            raise InvalidParameters("need a, b >= 0")
        outcome = _int_outcome(binomial(a * p, b * p), binomial(a, b), p ** 3)
        return _report(which, {"a": a, "b": b, "p": p}, outcome, (p, 3), started)

    if which == "andrews-q":
        p = need("p")
        _require_prime(p, 3)
        lhs = q_binomial(2 * p - 1, p - 1)
        rhs = monomial(_half(p * (p - 1)))
        outcome = congruent(lhs, rhs, cyclotomic_power(p, 2))
        return _report(which, {"p": p}, outcome, (p, 2), started)

    if which == "straub-q":
        a, b, n = need("a"), need("b"), need("n")
        if n < 1 or math.gcd(n, 6) != 1:
            raise InvalidParameters("need n >= 1 with gcd(n, 6) = 1")
        if b < 0 or a < b:
            raise InvalidParameters("need a >= b >= 0")
        # gcd(n, 6) = 1 makes (1 - n^2)/24 an exact integer, keeping the
        # whole right-hand side inside the integer polynomial ring
        scale, r = divmod((1 - n * n) * (a - b) * b * binomial(a, b), 24)
        assert r == 0
        lhs = q_binomial(a * n, b * n)
        rhs = substitute_power(q_binomial(a, b), n * n) + (ONE - monomial(n)) ** 2 * scale
        outcome = congruent(lhs, rhs, cyclotomic_power(n, 3))
        return _report(which, {"a": a, "b": b, "n": n}, outcome, (n, 3), started)

    raise InvalidParameters(f"unknown intro congruence {which!r}")


def run_task(task: VerificationTask) -> CongruenceReport:
    """Execute one VerificationTask; the dispatch point for batch runs."""
    t, p = task.target, task.params
    if t in KIND_BY_TARGET:
        return verify_theorem(KIND_BY_TARGET[t], p["a"], p["b"], p["n"])
    if t == "cor-plain":
        return verify_corollary("plain", p["a"], p["b"], p["p"])
    if t == "cor-star":
        return verify_corollary("star", p["a"], p["b"], p["p"])
    if t == "lemma-2.1":
        return verify_lemma(t, p["n"], p["k"])
    if t in LEMMA_TARGETS:
        return verify_lemma(t, p["n"])
    if t in INTRO_TARGETS:
        return verify_intro(t, **p)
    raise InvalidParameters(f"unknown verification target {t!r}")


__all__ = [
    "ALL_TARGETS",
    "CongruenceOutcome",
    "CongruenceReport",
    "INTRO_TARGETS",
    "KIND_BY_TARGET",
    "LEMMA_TARGETS",
    "Modulus",
    "TARGET_BY_KIND",
    "VerificationTask",
    "congruent",
    "cyclotomic",
    "rhs_theorem",
    "run_task",
    "theta",
    "vartheta",
    "verify_corollary",
    "verify_intro",
    "verify_lemma",
    "verify_theorem",
]
