"""Congruence checking modulo cyclotomic powers and all verification targets.

The checker reduces lhs - rhs modulo an expanded Phi_n(q)^k.  Laurent
differences are first cleared by the minimal power q^M, which is sound
because the constant term of Phi_n is +-1, so q is a unit in the quotient
ring; M is recorded in every report.  Each term
[n-k k] (1-q^n)/(1-q^(n-k)) of the summation lemmas is the polynomial
[n-k k] + q^(n-k) [n-k-1 k-1], two memo reads added into one list with no
product or division, so the lemmas are checked on their own sums.

Verification targets, each described once in TARGETS and each run by
verify(target, **params), for example verify("theorem-a", a=2, b=1, n=2):

    theorem-a .. theorem-f   truncated q-trinomial congruences mod Phi_n(q)^2
    cor-plain, cor-star      truncated classical sums mod p^2
    lemma-2.1                one-binomial reduction mod Phi_n(q)
    lemma-theta, lemma-vartheta      exact summation identities
    lemma-theta-inv, lemma-upsilon-inv   q -> 1/q images mod Phi_n(q)^2
    babbage, wolstenholme, ljunggren     classical integer congruences
    andrews-q, straub-q      q-analogues mod Phi_p(q)^2 / Phi_n(q)^3
"""
from __future__ import annotations

import math
import time
from operator import add, sub
from typing import Callable, NamedTuple

from .cyclotomic import Modulus, cyclotomic_power
from .polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    exact_div,  # noqa: F401  unused here; perfbench/traced_child.py patches congruence.exact_div
    fold,
    monomial,
    rem_monic,
    shift,
    substitute_power,
)
from .qcombinatorics import binomial, q_binomial, q_binomial_base
from .trinomials import (
    FAMILIES,
    InvalidParameters,
    TrinomialKind,
    _half,
    require_corollary_params,
    require_odd_prime,
    require_theorem_params,
    theta,
    truncated_classical,
    truncated_q_trinomial,
    vartheta,
)


def _sort_key(self):
    return (self.target, tuple(sorted(self.params.items())))


class VerificationTask(NamedTuple):
    """One target at one grid point, as verify(target, **params) runs it."""

    target: str
    params: dict[str, int]

    sort_key = _sort_key


class CongruenceReport(NamedTuple):
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

    sort_key = _sort_key


class CongruenceOutcome(NamedTuple):
    holds: bool
    residual: LaurentPoly
    cleared_shift: int


def congruent(lhs: LaurentPoly, rhs: LaurentPoly, mod: Modulus) -> CongruenceOutcome:
    """Reduce lhs - rhs modulo mod.poly after clearing negative exponents."""
    if lhs == rhs:
        return CongruenceOutcome(True, ZERO, 0)
    # the lowest exponent where the sides differ fixes the shift; the terms
    # below it are equal on both sides, so they are dropped
    lo = min(x.offset for x in (lhs, rhs) if x)
    while lhs[lo] == rhs[lo]:
        lo += 1
    cleared_shift = max(0, -lo)
    # folding each side by (q^n - 1)^k, a multiple of Phi_n^k, leaves the
    # long division by the dense modulus under kn terms; remainders are
    # linear and unique, so the residual is that of the full difference
    def folded(x: LaurentPoly) -> LaurentPoly:
        if lo > x.offset:
            x = LaurentPoly(lo, x.coeffs[lo - x.offset :])
        return fold(shift(x, cleared_shift), mod.n, mod.k)

    cleared = rem_monic(folded(lhs) - folded(rhs), mod.poly)
    return CongruenceOutcome(cleared.is_zero(), cleared, cleared_shift)


def rhs_theorem(kind: TrinomialKind, a: int, b: int, n: int) -> LaurentPoly:
    """The congruence right-hand side of one family, built from its FAMILIES
    row as pre * [an bn]_(q^s) * brace, pre the anchor term's sign and weight
    (trinomials.Family).  pre scales the short brace, so [an bn] takes one product."""
    require_theorem_params(a, b, n)
    family = FAMILIES[kind]
    an, bn = a * n, b * n
    if kind is TrinomialKind.tau0 and a * b != an:
        # the two candidate prefactor exponents (ab-bn vs an-bn) disagree
        # here; the verified reading is (an-bn)(an+bn+1)/2
        import logging

        logging.getLogger(__name__).info(
            "tau0 prefactor exponents differ at a=%d b=%d n=%d; using (an-bn)", a, b, n
        )
    sign, weight, _, _ = family.term(an, bn, family.anchor(an, bn))
    pre = monomial(weight, sign)
    brace = ONE - sum((ONE - c(n) for c in family.corrections), ZERO) * (family.base * (a - b))
    return q_binomial_base(an, bn, family.base) * (pre * brace)


def _lemma_sum(n: int, weight_exp) -> LaurentPoly:
    # the summation lemmas' side sum_k (-1)^k q^w(k) L_k.  Term k is
    # L_k = [n-k k] (1-q^n)/(1-q^(n-k)) = [n-k k] + q^(n-k) [n-k-1 k-1]:
    # split 1 - q^n as (1 - q^(n-k)) + q^(n-k) (1 - q^k), and
    # [n-k k] (1-q^k)/(1-q^(n-k)) is [n-k-1 k-1].  L_0 is taken as 1, which
    # sidesteps the removable singularity at n=0.  [n-k-1 k-1] is asked for
    # first, so [n-k k] is one step from it; a lone n thus also keeps the
    # anti-diagonal of n-2 in the memo.  Every shifted, signed binomial is
    # added in place into one list, sized up front (binomials start at q^0).
    parts = [(weight_exp(0), add, ONE.coeffs)]
    for k in range(1, n // 2 + 1):
        op, w = sub if k % 2 else add, weight_exp(k)
        parts.append((w + n - k, op, q_binomial(n - k - 1, k - 1).coeffs))
        parts.append((w, op, q_binomial(n - k, k).coeffs))
    lo = min(w for w, _, _ in parts)
    out = [0] * (max(w + len(c) for w, _, c in parts) - lo)
    for w, op, c in parts:
        i = w - lo
        out[i : i + len(c)] = map(op, out[i : i + len(c)], c)
    return LaurentPoly(lo, out)


# ---- hypothesis checks, worded as the CLI prints them when skipping ----


def _hypothesis(holds: bool, reason: str) -> None:
    if not holds:
        raise InvalidParameters(reason)


def _check_ljunggren(a: int, b: int, p: int) -> None:
    require_odd_prime(p, 5)
    _hypothesis(a >= 0 and b >= 0, "requires a, b >= 0")


def _check_straub(a: int, b: int, n: int) -> None:
    _hypothesis(a >= b >= 0, "requires a >= b >= 0")
    _hypothesis(n >= 1 and math.gcd(n, 6) == 1, "requires n >= 1 with gcd(n, 6) = 1")


# ---- target bodies: (lhs, rhs), plain integers for the p^k targets ----
# Bodies look every helper up as a module global at call time.


def _lemma_2_1(n: int, k: int):
    sign = -1 if k % 2 else 1
    return q_binomial(2 * k - 1, k), monomial(_half(k * (3 * k - 1)), sign) * q_binomial(n - k, k)


def _straub_q(a: int, b: int, n: int):
    # gcd(n, 6) = 1 makes (1 - n^2)/24 an exact integer, keeping the
    # whole right-hand side inside the integer polynomial ring
    scale, r = divmod((1 - n * n) * (a - b) * b * binomial(a, b), 24)
    if r:
        raise ArithmeticError(f"24 does not divide the scale at a={a} b={b} n={n}")
    lhs = q_binomial(a * n, b * n)
    return lhs, q_binomial_base(a, b, n * n) + (ONE - monomial(n)) ** 2 * scale


# ---- the target registry ----

PHI, INT, EXACT = "Phi_n^k", "p^k", "exact"
# the six theorems hold modulo Phi_n(q)^THEOREM_POWER
THEOREM_POWER = 2


class TargetSpec(NamedTuple):
    """One verification target.

    params are its grid parameters in expansion order; check raises
    InvalidParameters (NotPrime is one) when a hypothesis fails; sides returns
    (lhs, rhs).  They are compared modulo Phi_base(q)^power (PHI) or
    base^power (INT), where base names a parameter, or exactly (EXACT).
    """

    name: str
    params: tuple[str, ...]
    check: Callable[..., None]
    sides: Callable[..., tuple]
    modulus: str = EXACT
    base: str = ""
    power: int = 0


TARGET_BY_KIND = {
    TrinomialKind.round: "theorem-a",
    TrinomialKind.tau0: "theorem-b",
    TrinomialKind.T0: "theorem-c",
    TrinomialKind.T1: "theorem-d",
    TrinomialKind.t0: "theorem-e",
    TrinomialKind.t1: "theorem-f",
}

TARGETS: dict[str, TargetSpec] = {spec.name: spec for spec in (
    # the theorem lhs is built in Z[q]/((q^n - 1)^power), and (q^n - 1)^power
    # is a multiple of Phi_n^power; congruent's remainder modulo Phi_n^power
    # is unique, so the residual is unchanged, and the lhs is ordinary either
    # way, so the rhs alone fixes cleared_shift
    *(TargetSpec(name, ("a", "b", "n"), require_theorem_params,
                 lambda a, b, n, kind=kind: (truncated_q_trinomial(kind, a, b, n, power=THEOREM_POWER),
                                             rhs_theorem(kind, a, b, n)), PHI, "n", THEOREM_POWER)
      for kind, name in TARGET_BY_KIND.items()),
    TargetSpec("cor-plain", ("a", "b", "p"), require_corollary_params,
               lambda a, b, p: (truncated_classical("plain", a, b, p), binomial(a, b)), INT, "p", 2),
    TargetSpec("cor-star", ("a", "b", "p"), require_corollary_params,
               lambda a, b, p: (truncated_classical("star", a, b, p), (-1) ** (a * p - b * p) * binomial(a, b)),
               INT, "p", 2),
    TargetSpec("lemma-2.1", ("n", "k"), lambda n, k: _hypothesis(1 <= k <= n - 1, "requires 1 <= k <= n-1"),
               _lemma_2_1, PHI, "n", 1),
    TargetSpec("lemma-theta", ("n",), lambda n: _hypothesis(n >= 0, "requires n >= 0"),
               lambda n: (_lemma_sum(n, lambda k: _half(k * (k - 1))), theta(n))),
    TargetSpec("lemma-vartheta", ("n",), lambda n: _hypothesis(n >= 0, "requires n >= 0"),
               lambda n: (_lemma_sum(n, lambda k: _half(k * (k - 3))), vartheta(n))),
    TargetSpec("lemma-theta-inv", ("n",), lambda n: _hypothesis(n >= 1, "requires n >= 1"),
               lambda n: (_lemma_sum(n, lambda k: _half(k * (3 * k - 1))), substitute_power(theta(n), -1)),
               PHI, "n", 2),
    # upsilon is read as vartheta: the inverse lemma is the q -> 1/q image of
    # the vartheta identity
    TargetSpec("lemma-upsilon-inv", ("n",), lambda n: _hypothesis(n >= 1, "requires n >= 1"),
               lambda n: (_lemma_sum(n, lambda k: _half(k * (3 * k + 1))), substitute_power(vartheta(n), -1)),
               PHI, "n", 2),
    TargetSpec("babbage", ("p",), require_odd_prime,
               lambda p: (binomial(2 * p - 1, p - 1), 1), INT, "p", 2),
    TargetSpec("wolstenholme", ("p",), lambda p: require_odd_prime(p, 5),
               lambda p: (binomial(2 * p - 1, p - 1), 1), INT, "p", 3),
    TargetSpec("ljunggren", ("a", "b", "p"), _check_ljunggren,
               lambda a, b, p: (binomial(a * p, b * p), binomial(a, b)), INT, "p", 3),
    TargetSpec("andrews-q", ("p",), require_odd_prime,
               lambda p: (q_binomial(2 * p - 1, p - 1), monomial(_half(p * (p - 1)))), PHI, "p", 2),
    TargetSpec("straub-q", ("a", "b", "n"), _check_straub, _straub_q, PHI, "n", 3),
)}


# ---- running a target ----


def _run(spec: TargetSpec, params: dict[str, int]) -> CongruenceReport:
    started = time.perf_counter_ns()
    spec.check(**params)
    lhs, rhs = spec.sides(**params)
    modulus = None if spec.modulus == EXACT else (params[spec.base], spec.power)
    if spec.modulus == PHI:
        outcome = congruent(lhs, rhs, cyclotomic_power(*modulus))
    else:
        residual = lhs - rhs if modulus is None else LaurentPoly(0, ((lhs - rhs) % modulus[0] ** spec.power,))
        outcome = CongruenceOutcome(residual.is_zero(), residual, 0)
    elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
    return CongruenceReport(spec.name, params, *outcome, modulus, elapsed_ms)


def verify(target: str, **params: int) -> CongruenceReport:
    """Check one target at one grid point, as in verify("theorem-a", a=2, b=1, n=2).

    Raises InvalidParameters for an unknown target, a missing parameter or an
    unmet hypothesis; parameters the target does not take are ignored.
    """
    spec = TARGETS.get(target)
    if spec is None:
        raise InvalidParameters(f"unknown verification target {target!r}")
    for name in spec.params:
        if params.get(name) is None:
            raise InvalidParameters(f"{target} needs parameter {name}")
    return _run(spec, {name: params[name] for name in spec.params})


def run_task(task: VerificationTask) -> CongruenceReport:
    """Execute one VerificationTask; the dispatch point for batch runs."""
    return verify(task.target, **task.params)
