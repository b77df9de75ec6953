"""Congruence checker, correction monomials, and all verification targets."""

import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import congruent_by_difference, lemma_sides_cleared, lemma_sum, rhs_theorem_by_kind

import qtrinom.congruence as congruence_module
import qtrinom.qcombinatorics as qcombinatorics
from qtrinom.congruence import (
    EXACT,
    INT,
    PHI,
    TARGET_BY_KIND,
    TARGETS,
    CongruenceReport,
    VerificationTask,
    congruent,
    rhs_theorem,
    run_task,
    theta,
    vartheta,
    verify,
)
from qtrinom.cyclotomic import cyclotomic_power
from qtrinom.polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    _step,
    fold,
    make_poly,
    monomial,
    rem_monic,
    shift,
    substitute_power,
)
from qtrinom.qcombinatorics import q_binomial
from qtrinom.trinomials import (
    FAMILIES,
    InvalidParameters,
    NotPrime,
    TrinomialKind,
    _sum,
    truncated_classical,
    truncated_q_trinomial,
)

ALL_KINDS = list(TrinomialKind)


# ---- correction monomials ----


def test_theta_values():
    assert theta(0) == ONE
    assert theta(1) == ONE
    assert theta(2) == monomial(1, -1)
    assert theta(3) == make_poly([(1, -1), (2, -1)])
    assert theta(4) == monomial(2, -1)
    assert theta(5) == monomial(5)
    assert theta(6) == make_poly([(5, 1), (7, 1)])


def test_vartheta_values():
    assert vartheta(0) == ONE
    assert vartheta(1) == ONE
    assert vartheta(2) == monomial(-1, -1)
    assert vartheta(3) == make_poly([(-1, -1), (1, -1)])
    assert vartheta(4) == monomial(2, -1)
    assert vartheta(5) == ONE
    assert vartheta(6) == make_poly([(1, 1), (5, 1)])


def test_theta_vartheta_support_and_unit_coefficients():
    for n in range(201):
        for p in (theta(n), vartheta(n)):
            nonzero = [c for c in p.coeffs if c]
            assert 1 <= len(nonzero) <= 2, n
            assert all(abs(c) == 1 for c in nonzero), n


def test_theta_rejects_negative():
    with pytest.raises(ValueError):
        theta(-1)
    with pytest.raises(ValueError):
        vartheta(-2)


# ---- the checker itself ----


def test_congruent_examples():
    phi2 = cyclotomic_power(2, 1)
    out = congruent(monomial(2), ONE, phi2)
    assert out.holds and out.residual == ZERO and out.cleared_shift == 0

    out = congruent(monomial(-1), monomial(1), phi2)
    assert out.holds
    assert out.cleared_shift == 1

    out = congruent(monomial(1), ONE, cyclotomic_power(2, 2))
    assert not out.holds
    assert out.residual == make_poly([(1, 1), (0, -1)])


small_polys = st.builds(
    LaurentPoly, st.integers(-6, 6), st.lists(st.integers(-9, 9), min_size=0, max_size=10)
)


@given(st.integers(1, 12), small_polys, small_polys, small_polys)
def test_congruent_is_an_equivalence(n, x, r1, r2):
    mod = cyclotomic_power(n, 2)
    assert congruent(x, x, mod).holds
    y = x + mod.poly * r1
    z = y + mod.poly * r2
    assert congruent(x, y, mod).holds
    assert congruent(y, x, mod).holds
    assert congruent(y, z, mod).holds
    assert congruent(x, z, mod).holds


@given(st.integers(1, 12), small_polys, small_polys)
def test_congruent_is_symmetric_on_arbitrary_pairs(n, x, y):
    mod = cyclotomic_power(n, 2)
    assert congruent(x, y, mod).holds == congruent(y, x, mod).holds


@st.composite
def congruent_cases(draw):
    """(n, k, x, y): two short sides, or one long side against a short one,
    like a theorem rhs against its lhs.  The long side starts as low as
    q^-12 and has degree from kn to 3kn, so its fold takes the Taylor sums."""
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    x, y = draw(small_polys), draw(small_polys)
    if draw(st.booleans()):
        offset, degree = draw(st.integers(-12, 0)), draw(st.integers(k * n, 3 * k * n))
        size = degree - offset + 1
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
        coeffs[-1] = coeffs[-1] or 1
        x, y = draw(st.permutations([x, LaurentPoly(offset, coeffs)]))
    return n, k, x, y


@given(congruent_cases())
def test_congruent_matches_single_stage_reduction(case):
    # the (q^n - 1)^k fold of each side must not change the residual
    n, k, x, y = case
    mod = cyclotomic_power(n, k)
    assert tuple(congruent(x, y, mod)) == congruent_by_difference(x, y, mod)


@st.composite
def shared_prefix_sides(draw):
    """(lhs, rhs) equal below some exponent, often negative: sides that differ
    after a shared prefix, equal sides, sides that differ only at q^0, sides
    that differ by a multiple of Phi_n^k, and zero sides."""
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    prefix = LaurentPoly(draw(st.integers(-12, 0)), draw(st.lists(st.integers(-9, 9), max_size=8)))
    start = prefix.degree + 1 if prefix else draw(st.integers(-12, 0))
    tails = st.builds(LaurentPoly, st.integers(start, start + 4), st.lists(st.integers(-9, 9), max_size=10))
    lhs = prefix + draw(tails)
    kind = draw(st.sampled_from(["tails", "equal", "q^0", "multiple", "zero"]))
    if kind == "tails":
        rhs = prefix + draw(tails)
    elif kind == "equal":
        rhs = lhs
    elif kind == "q^0":
        rhs = lhs + monomial(0, draw(st.integers(-9, 9).filter(bool)))
    elif kind == "multiple":
        # small_polys start at q^-6 at the lowest, so the prefix stays shared
        rhs = lhs + shift(cyclotomic_power(n, k).poly * draw(small_polys), start + 6)
    else:
        lhs, rhs = draw(st.sampled_from([(lhs, ZERO), (ZERO, lhs), (ZERO, ZERO)]))
    return n, k, lhs, rhs


@given(shared_prefix_sides())
def test_congruent_drops_a_shared_prefix(case):
    # congruent folds each side on its own after dropping the terms the sides
    # share; holds, residual and cleared_shift are those of the difference
    n, k, lhs, rhs = case
    mod = cyclotomic_power(n, k)
    assert tuple(congruent(lhs, rhs, mod)) == congruent_by_difference(lhs, rhs, mod)


# ---- theorem right-hand sides ----


def test_rhs_theorem_examples():
    # the remainder modulo (q^n - 1)^power: the whole rhs when its degree is
    # below power * n, and else reduced, here with q^4 = 2q^2 - 1 and q^5 = 2q^3 - q
    rhs = make_poly([(1, -1), (2, -1), (3, -2), (4, -1), (5, -1)])
    assert rhs_theorem_by_kind(TrinomialKind.round, 2, 1, 2) == rhs
    assert rhs_theorem(TrinomialKind.round, 2, 1, 2, 3) == rhs
    assert rhs_theorem(TrinomialKind.round, 2, 1, 2, 2) == make_poly([(3, -4), (2, -3), (0, 1)])
    assert rhs_theorem(TrinomialKind.tau0, 2, 1, 1, 4) == make_poly([(2, -1), (3, -1)])
    assert rhs_theorem(TrinomialKind.T0, 2, 1, 1, 3) == make_poly([(0, -1), (2, -1)])
    with pytest.raises(InvalidParameters):
        rhs_theorem(TrinomialKind.round, 1, 1, 2, 2)


def test_verify_theorem_spot_value():
    report = verify("theorem-a", a=2, b=1, n=2)
    assert report.holds
    assert report.target == "theorem-a"
    assert report.modulus == (2, 2)
    diff = truncated_q_trinomial(TrinomialKind.round, 2, 1, 2) - rhs_theorem_by_kind(
        TrinomialKind.round, 2, 1, 2
    )
    expected = (ONE + monomial(1)) ** 2 * make_poly([(0, 1), (2, 2), (4, 1)])
    assert diff == expected


def test_verify_theorem_exact_at_single_term():
    # both sides coincide exactly, not just modulo Phi_1^2; at power 4 the
    # ring keeps the whole rhs, whose degree 3 is below kn = 4
    lhs = truncated_q_trinomial(TrinomialKind.tau0, 2, 1, 1)
    assert lhs == rhs_theorem_by_kind(TrinomialKind.tau0, 2, 1, 1)
    assert rhs_theorem(TrinomialKind.tau0, 2, 1, 1, 4) == lhs
    assert verify("theorem-b", a=2, b=1, n=1).holds


def test_verify_theorem_small_grid_all_kinds():
    for kind in ALL_KINDS:
        for n in range(1, 7):
            for a in (2, 3, 4):
                for b in range(1, a):
                    assert verify(TARGET_BY_KIND[kind], a=a, b=b, n=n).holds, (kind, a, b, n)


def _direct_outcome(kind, a, b, n, correction=True):
    # the oracle: full expansion of the lhs, then one reduction
    lhs = truncated_q_trinomial(kind, a, b, n)
    return congruent(lhs, rhs_theorem_by_kind(kind, a, b, n, correction=correction), cyclotomic_power(n, 2))


def _small_theorem_grid(n_max):
    for kind in ALL_KINDS:
        for n in range(1, n_max + 1):
            for a in (2, 3, 4):
                for b in range(1, a):
                    yield kind, a, b, n


def test_verify_theorem_matches_direct_path():
    # the theorem targets build both sides modulo (q^n - 1)^2; the report
    # must be the one the fully expanded sides give
    for kind, a, b, n in _small_theorem_grid(10):
        report = verify(TARGET_BY_KIND[kind], a=a, b=b, n=n)
        direct = _direct_outcome(kind, a, b, n)
        got = (report.holds, report.residual, report.cleared_shift)
        assert got == tuple(direct), (kind, a, b, n)


def test_negative_control_through_run_task(monkeypatch):
    # with the correction dropped the reduced path must still fail, and
    # with the residual the fully expanded path gives
    monkeypatch.setattr(
        congruence_module, "rhs_theorem",
        lambda kind, a, b, n, power: fold(rhs_theorem_by_kind(kind, a, b, n, correction=False), n, power),
    )
    failed = set()
    for kind, a, b, n in _small_theorem_grid(4):
        report = run_task(VerificationTask(TARGET_BY_KIND[kind], {"a": a, "b": b, "n": n}))
        direct = _direct_outcome(kind, a, b, n, correction=False)
        assert (report.holds, report.residual, report.cleared_shift) == tuple(direct)
        if not report.holds:
            failed.add(kind)
    assert failed == set(ALL_KINDS)


def test_theorem_valuation_is_two_except_at_one_point():
    # the exact Phi_n-adic valuation of lhs - rhs: every case holds modulo
    # Phi_n^2, and all but one fail modulo Phi_n^3, so the paper's exponent is
    # best possible there and the checker is seen to reject on every case.
    # (q^n - 1)^4 is a multiple of Phi_n^k for k <= 4, so both sides reduced
    # modulo it give the same verdicts as the full sides
    cases, cubic = 0, []
    for kind, a, b, n in _small_theorem_grid(12):
        if n == 1:
            continue
        lhs = truncated_q_trinomial(kind, a, b, n, power=4)
        rhs = rhs_theorem(kind, a, b, n, 4)
        assert congruent(lhs, rhs, cyclotomic_power(n, 2)).holds, (kind, a, b, n)
        if congruent(lhs, rhs, cyclotomic_power(n, 3)).holds:
            cubic.append((kind, a, b, n))
            assert not congruent(lhs, rhs, cyclotomic_power(n, 4)).holds, (kind, a, b, n)
        cases += 1
    assert cases == 396
    assert cubic == [(TrinomialKind.tau0, 3, 1, 4)]


def test_negative_control_round_spot():
    lhs = truncated_q_trinomial(TrinomialKind.round, 2, 1, 2)
    corrupted = rhs_theorem_by_kind(TrinomialKind.round, 2, 1, 2, correction=False)
    out = congruent(lhs, corrupted, cyclotomic_power(2, 2))
    assert not out.holds
    assert not out.residual.is_zero()


def test_negative_control_every_kind():
    # dropping the correction must be detectable somewhere on a small grid
    for kind in ALL_KINDS:
        failures = 0
        for n in (2, 3, 4):
            for a in (2, 3, 4):
                for b in range(1, a):
                    lhs = truncated_q_trinomial(kind, a, b, n)
                    rhs = rhs_theorem_by_kind(kind, a, b, n, correction=False)
                    if not congruent(lhs, rhs, cyclotomic_power(n, 2)).holds:
                        failures += 1
        assert failures > 0, kind


def test_theorems_hold_at_b_zero():
    # an observation outside the paper's hypothesis a > b >= 1: at b = 0 all
    # six congruences hold on this grid, and not only as equal polynomials.
    # truncated_q_trinomial rejects b = 0, so the lhs is the polynomial-form
    # sum over the family's window.  With the brace dropped, the checker
    # rejects some point of each kind
    points, differ, rejected = 0, set(), set()
    for kind in ALL_KINDS:
        family = FAMILIES[kind]
        for a in range(1, 5):
            for n in range(2, 9):
                an, mod = a * n, cyclotomic_power(n, 2)
                lhs = _sum(family, an, 0, family.window(an, 0, n // 2))
                rhs = rhs_theorem_by_kind(kind, a, 0, n)
                assert congruent(lhs, rhs, mod).holds, (kind, a, n)
                if lhs != rhs:
                    differ.add(kind)
                if not congruent(lhs, rhs_theorem_by_kind(kind, a, 0, n, correction=False), mod).holds:
                    rejected.add(kind)
                points += 1
    assert points == 168
    assert differ == rejected == set(ALL_KINDS)


@given(
    st.sampled_from(ALL_KINDS),
    st.integers(2, 5).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a - 1))),
    st.integers(1, 8),
    st.integers(1, 3),
)
def test_rhs_theorem_matches_family_by_family_oracle(kind, ab, n, power):
    # the one FAMILIES-driven formula, in the ring, against the six
    # right-hand sides as the paper writes them, folded
    a, b = ab
    assert rhs_theorem(kind, a, b, n, power) == fold(rhs_theorem_by_kind(kind, a, b, n), n, power)


def test_rhs_theorem_is_the_folded_oracle_rhs_on_a_grid():
    # every kind at power 1, 2, 3.  Four kinds have Laurent corrections
    # (vartheta(2) = -q^-1, and t0 and t1 invert theirs), but the prefactor
    # lifts pre * brace clear of q^0, so every rhs is ordinary
    laurent = set()
    for kind, a, b, n in _small_theorem_grid(9):
        rhs = rhs_theorem_by_kind(kind, a, b, n)
        for power in (1, 2, 3):
            assert rhs_theorem(kind, a, b, n, power) == fold(rhs, n, power)
        if any(c(n).min_exponent < 0 for c in FAMILIES[kind].corrections):
            laurent.add(kind)
    assert laurent == {TrinomialKind.tau0, TrinomialKind.T1, TrinomialKind.t0, TrinomialKind.t1}


def _perturbed(rhs, start):
    # rhs plus a short signed tail from q^start
    return rhs + LaurentPoly(start, (1, -2, 0, 3)[: 1 + start % 4])


def test_theorem_outcome_matches_the_full_difference_on_failing_rhs(monkeypatch):
    # run_task on brace-free and perturbed right-hand sides, each given as
    # its remainder modulo (q^n - 1)^2: holds, residual and cleared_shift
    # are those of the full difference, and almost every point fails
    outcomes = []
    for rhs_of in (
        lambda kind, a, b, n: rhs_theorem_by_kind(kind, a, b, n, correction=False),
        lambda kind, a, b, n: _perturbed(rhs_theorem_by_kind(kind, a, b, n), (a + b + n) % 7),
        lambda kind, a, b, n: _perturbed(rhs_theorem_by_kind(kind, a, b, n), 3 * n + 1),
    ):
        monkeypatch.setattr(
            congruence_module, "rhs_theorem", lambda kind, a, b, n, power: fold(rhs_of(kind, a, b, n), n, power)
        )
        for kind, a, b, n in _small_theorem_grid(6):
            report = run_task(VerificationTask(TARGET_BY_KIND[kind], {"a": a, "b": b, "n": n}))
            lhs = truncated_q_trinomial(kind, a, b, n)
            expected = congruent_by_difference(lhs, rhs_of(kind, a, b, n), cyclotomic_power(n, 2))
            assert (report.holds, report.residual, report.cleared_shift) == expected, (kind, a, b, n)
            outcomes.append(report.holds)
    assert len(outcomes) == 3 * 6 * 6 * 6
    assert outcomes.count(True) < len(outcomes) // 10


# ---- corollaries ----


def test_verify_corollary_examples():
    report = verify("cor-plain", a=2, b=1, p=5)
    assert report.holds and report.modulus == (5, 2)
    # 1452 = 2 + 58*25
    assert report.residual == ZERO

    report = verify("cor-plain", a=2, b=1, p=3)
    assert not report.holds
    # 50 mod 9 = 5 while C(2,1) = 2, so the witness is 3
    assert report.residual == make_poly([(0, 3)])

    assert verify("cor-star", a=2, b=1, p=5).holds


def test_verify_corollary_grid():
    for variant in ("plain", "star"):
        for p in (5, 7):
            for a in (2, 3, 4):
                for b in range(1, a):
                    assert verify(f"cor-{variant}", a=a, b=b, p=p).holds, (variant, a, b, p)


def test_verify_corollary_errors():
    with pytest.raises(NotPrime):
        verify("cor-plain", a=2, b=1, p=15)
    with pytest.raises(InvalidParameters):
        verify("cor-plain", a=2, b=1, p=2)
    with pytest.raises(InvalidParameters):
        verify("cor-sideways", a=2, b=1, p=5)


def test_corollary_hypothesis_has_one_wording():
    with pytest.raises(InvalidParameters) as direct:
        truncated_classical("plain", 1, 1, 5)
    with pytest.raises(InvalidParameters) as target:
        verify("cor-plain", a=1, b=1, p=5)
    assert str(direct.value) == str(target.value) == "requires a > b >= 1"


# ---- lemmas ----


def test_verify_lemma_examples():
    report = verify("lemma-theta", n=0)
    assert report.holds
    assert report.modulus is None

    report = verify("lemma-2.1", n=5, k=2)
    assert report.holds and report.modulus == (5, 1)

    # hand computation: (1-q^2)(1/(1-q^2) - q^-1/(1-q)) = -q^-1 = vartheta(2)
    report = verify("lemma-vartheta", n=2)
    assert report.holds
    assert vartheta(2) == monomial(-1, -1)


def test_verify_lemma_grids():
    for n in range(0, 16):
        assert verify("lemma-theta", n=n).holds, n
        assert verify("lemma-vartheta", n=n).holds, n
    for n in range(1, 16):
        assert verify("lemma-theta-inv", n=n).holds, n
        assert verify("lemma-upsilon-inv", n=n).holds, n
    for n in range(2, 12):
        for k in range(1, n):
            assert verify("lemma-2.1", n=n, k=k).holds, (n, k)


def test_verify_lemma_errors():
    with pytest.raises(InvalidParameters):
        verify("lemma-2.1", n=5, k=5)
    with pytest.raises(InvalidParameters, match="^lemma-2.1 needs parameter k$"):
        verify("lemma-2.1", n=5)
    with pytest.raises(InvalidParameters):
        verify("lemma-theta-inv", n=0)
    with pytest.raises(InvalidParameters, match="^unknown verification target 'lemma-nope'$"):
        verify("lemma-nope", n=3)


# the four summation lemmas as the paper states them: weight exponent w(k)
# of term k and the correction at n
LEMMA_SUMS = {
    "lemma-theta": (lambda k: k * (k - 1) // 2, theta),
    "lemma-vartheta": (lambda k: k * (k - 3) // 2, vartheta),
    "lemma-theta-inv": (lambda k: k * (3 * k - 1) // 2, lambda n: substitute_power(theta(n), -1)),
    "lemma-upsilon-inv": (lambda k: k * (3 * k + 1) // 2, lambda n: substitute_power(vartheta(n), -1)),
}


@given(st.sampled_from(sorted(LEMMA_SUMS)), st.integers(0, 30))
def test_lemma_sides_match_term_by_term_oracle(name, n):
    weight_exp, correction = LEMMA_SUMS[name]
    assert TARGETS[name].sides(n) == (lemma_sum(n, weight_exp), correction(n))


def test_lemma_verdicts_match_denominator_cleared_sides():
    # checking D * S against correction * D, D the product of the
    # denominators 1 - q^(n-k), gives the same verdicts and shifts as
    # checking S itself: D has constant term 1, and it is a unit modulo
    # Phi_n^2 because its roots are roots of unity of order < n
    verdicts = set()
    for name, (weight_exp, correction) in LEMMA_SUMS.items():
        spec = TARGETS[name]
        for ahead in (0, 1, 2):  # the correction at n + ahead
            cleared = spec._replace(sides=lambda n: lemma_sides_cleared(n, weight_exp, correction(n + ahead)))
            plain = spec._replace(sides=lambda n: (congruence_module._lemma_sum(n, weight_exp), correction(n + ahead)))
            for n in range(0 if spec.modulus == EXACT else 1, 41):
                want = congruence_module._run(cleared, {"n": n})
                got = congruence_module._run(plain, {"n": n})
                assert (got.holds, got.cleared_shift) == (want.holds, want.cleared_shift), (name, n, ahead)
                verdicts.add(got.holds)
    assert verdicts == {True, False}


def test_lemma_terms_are_exact_steps():
    # _lemma_sum reads term k as [n-k k] + q^(n-k) [n-k-1 k-1]; the exact
    # step [n-k k] (1-q^n)/(1-q^(n-k)) is its slow oracle, and the step's
    # NonExactDivision guard never fires on valid input
    for n in range(2, 81):
        for k in range(1, n // 2 + 1):
            step = LaurentPoly(0, _step(q_binomial(n - k, k).coeffs, n, n - k))
            assert q_binomial(n - k, k) + shift(q_binomial(n - k - 1, k - 1), n - k) == step, (n, k)


@pytest.mark.parametrize("n", [60, 61])
def test_lemma_sum_memo_footprint(monkeypatch, n):
    # on a cleared memo, _lemma_sum(n) keeps [n-k k] and [n-k-1 k-1] for
    # 1 <= k <= n/2, less those equal to 1: n - 3 entries at n = 60 and 61.
    # The bound n admits that anti-diagonal of n - 2 and no step of a walk
    monkeypatch.setattr(qcombinatorics, "_QBINOM", {})
    congruence_module._lemma_sum(n, LEMMA_SUMS["lemma-theta"][0])
    assert len(qcombinatorics._QBINOM) <= n


@pytest.mark.parametrize("name", ["lemma-theta", "lemma-theta-inv"])
def test_lemma_negative_control_wrong_correction(name):
    # theta(n+1) in place of theta(n) must fail through the lemma verifier
    weight_exp, correction = LEMMA_SUMS[name]
    wrong = TARGETS[name]._replace(
        sides=lambda n: (congruence_module._lemma_sum(n, weight_exp), correction(n + 1))
    )
    for n in range(1, 31):
        report = congruence_module._run(wrong, {"n": n})
        assert not report.holds and not report.residual.is_zero(), (name, n)
        # the residual is that of the lemma as stated, S - wrong
        diff = lemma_sum(n, weight_exp) - correction(n + 1)
        if wrong.modulus == PHI:
            diff = rem_monic(shift(diff, max(0, -diff.min_exponent)), cyclotomic_power(n, 2).poly)
        assert report.residual == diff, (name, n)


# ---- intro congruences ----


def test_verify_intro_examples():
    # C(5,2) = 10 = 1 + 9
    assert verify("babbage", p=3).holds
    # C(9,4) = 126 = 1 + 125
    assert verify("wolstenholme", p=5).holds
    # C(10,5) = 252 = 2 + 2*125
    assert verify("ljunggren", a=2, b=1, p=5).holds
    assert verify("andrews-q", p=3).holds
    assert verify("straub-q", a=2, b=1, n=5).holds
    assert verify("straub-q", a=3, b=3, n=7).holds
    assert verify("straub-q", a=2, b=1, n=1).holds


def test_verify_intro_errors():
    with pytest.raises(NotPrime):
        verify("babbage", p=4)
    with pytest.raises(InvalidParameters):
        verify("babbage", p=2)
    with pytest.raises(InvalidParameters):
        verify("wolstenholme", p=3)
    with pytest.raises(InvalidParameters):
        verify("ljunggren", a=2, b=-1, p=5)
    with pytest.raises(InvalidParameters):
        verify("straub-q", a=2, b=1, n=6)
    with pytest.raises(InvalidParameters):
        verify("straub-q", a=1, b=2, n=5)
    with pytest.raises(InvalidParameters):
        verify("gauss", p=5)


# ---- task dispatch ----


def test_run_task_dispatch():
    cases = [
        VerificationTask("theorem-c", {"a": 2, "b": 1, "n": 3}),
        VerificationTask("cor-plain", {"a": 2, "b": 1, "p": 5}),
        VerificationTask("cor-star", {"a": 3, "b": 1, "p": 5}),
        VerificationTask("lemma-2.1", {"n": 6, "k": 2}),
        VerificationTask("lemma-upsilon-inv", {"n": 4}),
        VerificationTask("babbage", {"p": 7}),
        VerificationTask("straub-q", {"a": 2, "b": 1, "n": 5}),
    ]
    for task in cases:
        report = run_task(task)
        assert isinstance(report, CongruenceReport)
        assert report.holds, task
        assert report.target == task.target
        assert report.params == task.params
        assert report.elapsed_ms >= 0
    with pytest.raises(InvalidParameters):
        run_task(VerificationTask("theorem-z", {"a": 2, "b": 1, "n": 3}))


def test_registry_modulus_matches_reports():
    samples = {"a": 3, "b": 1, "n": 5, "p": 7, "k": 2}
    for name, spec in TARGETS.items():
        assert spec.name == name
        report = run_task(VerificationTask(name, {p: samples[p] for p in spec.params}))
        assert report.holds, name
        if spec.modulus == EXACT:
            assert report.modulus is None, name
        else:
            assert spec.modulus in (PHI, INT) and spec.base in spec.params, name
            assert report.modulus == (samples[spec.base], spec.power), name


def test_invariant_checks_survive_python_O():
    # python -O strips assert statements, so the invariants must raise
    script = "\n".join(
        [
            "from qtrinom.congruence import _half, _straub_q",
            "from qtrinom.polyring import _unpack, fold, monomial",
            "from qtrinom.qcombinatorics import _step",
            "from qtrinom.trinomials import _RowStream",
            "def dropped_row_entry():",
            "    stream = _RowStream(5, 2, None)",
            "    stream.entry(20, 0)",
            "    stream.entry(17, 2)",
            "A = ArithmeticError",
            "for check, error in ((lambda: _half(3), A), (lambda: _unpack(1 << 16, 1, 2), A),",
            "                     (lambda: _unpack(-(1 << 16), 1, 2), A), (lambda: _straub_q(2, 1, 2), A),",
            "                     (lambda: _step((1,), 1, 2), A), (dropped_row_entry, LookupError),",
            "                     (lambda: fold(monomial(-1), 2, 2), ValueError)):",
            "    try:",
            "        check()",
            "    except error:",
            "        continue",
            "    raise SystemExit('invariant not enforced')",
        ]
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_kind_has_a_target():
    assert sorted(TARGET_BY_KIND.values()) == [f"theorem-{c}" for c in "abcdef"]
