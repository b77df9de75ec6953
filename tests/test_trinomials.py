"""Trinomial families: classical three-way agreement, q=1 collapse, and
consistency of the truncated sums with the untruncated definitions."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _PAPER_FAMILIES,
    _taylor_q2,
    _taylor_step,
    _window,
    classical_trinomial_alt,
    classical_trinomial_expand,
    unpack_digits,
    widened_truncated_sum,
)
from qtrinom.polyring import ONE, ZERO, _taylor, eval_at_one, make_poly, monomial, rem_monic, shift, to_text
from qtrinom.qcombinatorics import q_binomial, q_binomial_base
from qtrinom import trinomials
from qtrinom.trinomials import (
    DroppedRowEntry,
    InvalidParameters,
    NotPrime,
    TrinomialKind,
    classical_trinomial,
    is_prime,
    q_trinomial,
    truncated_classical,
    truncated_q_trinomial,
)

ALL_KINDS = list(TrinomialKind)
REFLECTED_KINDS = [k for k in ALL_KINDS if k is not TrinomialKind.round]


def test_is_prime():
    assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_classical_trinomial_examples():
    # (1+x+x^2)^2 = 1 + 2x + 3x^2 + 2x^3 + x^4
    assert classical_trinomial(2, 0) == 3
    assert classical_trinomial(2, -1) == 2
    for n in (0, 1, 2, 5, 9):
        assert classical_trinomial(n, n) == 1
    assert classical_trinomial(3, 4) == 0
    assert classical_trinomial(4, -5) == 0


def test_classical_three_way_agreement():
    for n in range(13):
        for m in range(-n - 1, n + 2):
            a = classical_trinomial(n, m)
            assert a == classical_trinomial_alt(n, m), (n, m)
            assert a == classical_trinomial_expand(n, m), (n, m)


def test_q_trinomial_examples():
    assert q_trinomial(TrinomialKind.round, 2, 0) == make_poly([(0, 1), (1, 1), (2, 1)])
    assert q_trinomial(TrinomialKind.round, 1, 0) == ONE
    assert eval_at_one(q_trinomial(TrinomialKind.T0, 3, 1)) == classical_trinomial(3, 1)


def test_q_one_collapse_all_kinds():
    for kind in ALL_KINDS:
        for n in range(11):
            for m in range(-n, n + 1):
                assert eval_at_one(q_trinomial(kind, n, m)) == classical_trinomial(n, m), (
                    kind,
                    n,
                    m,
                )


def test_truncated_examples():
    # two terms: [4 2] + q^3 [4 1][3 3]
    assert truncated_q_trinomial(TrinomialKind.round, 2, 1, 2) == make_poly(
        [(0, 1), (1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1)]
    )
    # single k=1 term: -q^2 [2 1][2 0]
    assert truncated_q_trinomial(TrinomialKind.tau0, 2, 1, 1) == make_poly([(2, -1), (3, -1)])
    # single k=1 term: -[2 1]_{q^2} [2 0]
    assert truncated_q_trinomial(TrinomialKind.T0, 2, 1, 1) == make_poly([(0, -1), (2, -1)])


# SHA-256 of the polynomial-form sums below, one line each, joined by "\n"
POLYNOMIAL_FORM_SHA256 = "702f12ffb80543c471247b8a77bc34e0542fcc27097a347578509b8f5fb44dfa"


def test_polynomial_form_sums_are_pinned():
    # the verify streams are pinned in test_acceptance; this pins the
    # untruncated and truncated sums themselves, byte for byte
    lines = [
        f"q_trinomial {kind.value} {n} {m} {to_text(q_trinomial(kind, n, m))}"
        for kind in ALL_KINDS
        for n in range(9)
        for m in range(-n, n + 1)
    ]
    lines += [
        f"truncated {kind.value} {a} {b} {n} {to_text(truncated_q_trinomial(kind, a, b, n))}"
        for kind in ALL_KINDS
        for a in range(2, 5)
        for b in range(1, a)
        for n in range(1, 7)
    ]
    assert len(lines) == 702
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == POLYNOMIAL_FORM_SHA256


def test_terms_match_the_paper_wording():
    # Family.window and Family.term against the oracle's own statement of
    # each family.  The anchor term's sign and weight must be the paper's
    # prefactor (-1)^d q^pre, so one FAMILIES row fixes both sides
    for kind, (_, weight, pre, _) in _PAPER_FAMILIES.items():
        family = trinomials.FAMILIES[kind]
        reflected = kind is not TrinomialKind.round
        for a in range(2, 9):
            for b in range(1, a):
                for n in range(1, 13):
                    an, bn, d = a * n, b * n, (a - b) * n
                    terms = {k: family.term(an, bn, k) for k in family.window(an, bn, n // 2)}
                    assert {k: t[2:] for k, t in terms.items()} == _window(kind, an, bn, n), (kind, a, b, n)
                    for k, (sign, w, _, _) in terms.items():
                        paper = ((-1) ** k if reflected else 1, weight(an, bn, k))
                        assert (sign, w) == paper, (kind, a, b, n, k)
                    sign, w, _, _ = family.term(an, bn, family.anchor(an, bn))
                    assert (sign, w) == ((-1) ** d if reflected else 1, pre(an, bn, d)), (kind, a, b, n)


def test_truncated_parameter_validation():
    for bad in ((1, 1, 2), (2, 3, 2), (2, 0, 2), (3, 1, 0)):
        with pytest.raises(InvalidParameters):
            truncated_q_trinomial(TrinomialKind.round, *bad)


def test_truncated_outputs_are_ordinary():
    for kind in ALL_KINDS:
        for a in (2, 3, 4):
            for b in range(1, a):
                for n in (1, 2, 3, 5):
                    assert truncated_q_trinomial(kind, a, b, n).min_exponent >= 0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_KINDS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 7),
    st.integers(1, 3),
)
def test_reduced_truncated_sum_is_the_remainder(kind, b, gap, n, power):
    # the fast path against its oracle: building the sum modulo (q^n - 1)^k
    # gives the Euclidean remainder of the fully expanded sum
    a = b + gap
    m = (monomial(n) - ONE) ** power
    reduced = truncated_q_trinomial(kind, a, b, n, power=power)
    assert reduced == rem_monic(truncated_q_trinomial(kind, a, b, n), m)
    assert reduced.degree < m.degree


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.sampled_from(ALL_KINDS),
            st.integers(2, 6).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a - 1))),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_row_streams_keep_what_later_sums_read(n, power, draws):
    # the row streams only move forward and drop what the FAMILIES rows never
    # read; from empty streams, any order of (kind, a, b) at one n must still
    # find every entry it reads (a dropped one raises DroppedRowEntry)
    m = (monomial(n) - ONE) ** power
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trinomials, "_ROWS", {})
        for kind, (a, b) in draws:
            reduced = truncated_q_trinomial(kind, a, b, n, power=power)
            assert reduced == rem_monic(truncated_q_trinomial(kind, a, b, n), m), (kind, a, b, n, power)


def test_ring_power_must_be_positive():
    with pytest.raises(ValueError):
        truncated_q_trinomial(TrinomialKind.round, 2, 1, 3, power=0)


def test_row_stream_raises_for_a_dropped_entry():
    stream = trinomials._RowStream(5, 2, None)
    stream.entry(20, 0)
    assert stream.entry(15, 4) is not None  # every entry of a row an is kept
    with pytest.raises(DroppedRowEntry):
        stream.entry(17, 2)


def _list_rows(n, k, last):
    """q-Pascal rows 0..last of Z[q]/((q^n - 1)^k) in list form, each row
    [N j] for j <= N//2, one at a time by the oracle step."""
    one = [[0] * n for _ in range(k)]
    one[0][0] = 1
    row = [one]
    yield row
    for big in range(1, last + 1):
        prev = row + row[-1:] if big % 2 == 0 else row
        row = [prev[0]] + [_taylor_step(prev[j - 1], prev[j], j) for j in range(1, len(prev))]
        yield row


@pytest.mark.parametrize("n", range(1, 13))
def test_row_stream_entries_fit_their_proven_width(n):
    # every kept and current entry of the packed streams fits the byte width
    # it carries and equals the list-form entry: a band that steps alone and
    # then its full stream over the same rows (their kept entries shared),
    # and a band resuming, at a narrower width, from a full stream's row 150.
    # The first k Taylor vectors do not depend on k, so one list stream at
    # k = 3 serves k = 1, 2, 3
    last = 300
    streams = []
    for k in (1, 2, 3):
        for resume_at in (None, 150):
            full = trinomials._RowStream(n, k, None)
            band = trinomials._RowStream(n, k, n // 2, full)
            if resume_at is None:
                band.entry(last, 0)  # steps alone from row 0
                full.entry(last, 0)
            else:
                full.entry(resume_at, 0)
                band.entry(last, 0)  # resumes from the full stream's row
            streams.append((k, full, band))
    for big, row in enumerate(_list_rows(n, 3, last)):
        for k, full, band in streams:
            for j, expected in enumerate(row):
                hits = [full.kept.get((big, j))]
                hits += [(s.bytes, s.row[j]) for s in (full, band) if s.big == big and j < len(s.row)]
                for w, vectors in filter(None, hits):
                    assert [unpack_digits(p, w, n) for p in vectors] == expected[:k], (n, k, big, j)


@pytest.mark.parametrize("n", range(1, 13))
def test_q2_images_fit_their_proven_width(n):
    # every q -> q^2 image of an entry [N j], N a multiple of n (the rows the
    # base-2 families read), fits the byte width it carries and equals the
    # list-form image of the entry
    last = 60
    streams = [trinomials._RowStream(n, k, None) for k in (1, 2, 3)]
    for big, row in enumerate(_list_rows(n, 3, last)):
        if big % n:
            continue
        for stream in streams:
            k = stream.k
            for j, expected in enumerate(row):
                to, image = stream.entry(big, j, 2)
                assert all(0 <= p < 1 << 8 * to * n for p in image), (n, k, big, j)
                assert [unpack_digits(p, to, n) for p in image] == _taylor_q2(expected[:k]), (n, k, big, j)


def test_ring_factors_fit_their_bits():
    # the dot bounds of the ring loop: every Taylor digit of each factor,
    # the weight-shifted first factor included, is below 2 ** bits
    for kind in ALL_KINDS:
        family = trinomials.FAMILIES[kind]
        for a in (2, 3, 4):
            for b in range(1, a):
                for n in range(1, 9):
                    an, bn = a * n, b * n
                    for power in (1, 2, 3):
                        full, band = trinomials._rows(n, power)
                        stream = band if family.reflected else full
                        for k in family.window(an, bn, n // 2):
                            _, weight, big, small = family.term(an, bn, k)
                            first = shift(q_binomial_base(an, k, family.base), weight)
                            digits = max(map(max, _taylor(first, n, power)))
                            assert digits < 1 << full.bits(an, k, family.base, weight), (kind, a, b, n, power, k)
                            digits = max(map(max, _taylor(q_binomial(big, small), n, power)))
                            assert digits < 1 << stream.bits(big, small), (kind, a, b, n, power, k)


def test_widened_window_recovers_untruncated():
    # at width floor(n/2) the oracle is the truncated sum itself; widened to
    # the full support it must reproduce the untruncated coefficient
    for kind in ALL_KINDS:
        for a in (2, 3, 4):
            for b in range(1, a):
                for n in (1, 2, 3, 4):
                    assert widened_truncated_sum(kind, a, b, n, n // 2) == truncated_q_trinomial(kind, a, b, n)
                    full = widened_truncated_sum(kind, a, b, n, a * n)
                    assert full == q_trinomial(kind, a * n, b * n), (kind, a, b, n)


def test_span_n_recovers_untruncated_at_small_gap():
    # with width n the window covers the whole support exactly when
    # a - b = 1 (reflected kinds) or a - b <= 2 (round)
    for n in (1, 2, 3, 4, 5):
        for kind in REFLECTED_KINDS:
            for a in (2, 3, 4):
                got = widened_truncated_sum(kind, a, a - 1, n, n)
                assert got == q_trinomial(kind, a * n, (a - 1) * n), (kind, a, n)
        for a, b in ((2, 1), (3, 2), (4, 3), (3, 1), (4, 2)):
            got = widened_truncated_sum(TrinomialKind.round, a, b, n, n)
            assert got == q_trinomial(TrinomialKind.round, a * n, b * n), (a, b, n)


def _reflected_sum(kind, a, b, n):
    # the k -> an-bn-k image of the truncated sums, written out independently
    an, bn = a * n, b * n
    d = an - bn
    total = ZERO
    for k in range(0, n // 2 + 1):
        j = d - k
        sign = -1 if j % 2 else 1
        if kind is TrinomialKind.tau0:
            exp = j * (an + bn + k + 1)
            assert exp % 2 == 0
            term = monomial(exp // 2, sign) * q_binomial(an, bn + k) * q_binomial(2 * bn + 2 * k, k)
        else:
            first = q_binomial_base(an, bn + k, 2)
            e = {TrinomialKind.T0: 0, TrinomialKind.T1: j, TrinomialKind.t0: j * j,
                 TrinomialKind.t1: j * (j - 1)}[kind]
            term = monomial(e, sign) * first * q_binomial(2 * bn + 2 * k, k)
        total = total + term
    return total


def test_reflected_sums_match_truncated():
    for kind in REFLECTED_KINDS:
        for a in (2, 3, 4):
            for b in range(1, a):
                for n in (1, 2, 3, 4, 5):
                    assert _reflected_sum(kind, a, b, n) == truncated_q_trinomial(
                        kind, a, b, n
                    ), (kind, a, b, n)


def test_truncated_classical_examples():
    # 252 + 10*84 + 45*8
    assert truncated_classical("plain", 2, 1, 5) == 1452
    # C(6,3) + C(6,1)*C(5,4) = 20 + 30
    assert truncated_classical("plain", 2, 1, 3) == 50
    # brute-force sum oracle, k from 2 to 3: C(6,2)C(8,1) - C(6,3)C(6,0)
    assert math.comb(6, 2) * math.comb(8, 1) - math.comb(6, 3) == 100
    assert truncated_classical("star", 2, 1, 3) == 100


def test_truncated_classical_matches_brute_force():
    # the math.comb wording is the independent oracle; each corollary lhs is
    # also its theorem's truncated sum at q = 1, the polynomial form of
    # round's for plain and of each reflected family's for star
    for p in (3, 5, 7, 11, 13):
        for a in (2, 3, 4):
            for b in range(1, a):
                ap, bp = a * p, b * p
                plain = sum(
                    math.comb(ap, k) * (math.comb(ap - k, bp + k) if bp + k <= ap - k else 0)
                    for k in range((p - 1) // 2 + 1)
                )
                star = sum(
                    (-1) ** k * math.comb(ap, k) * math.comb(2 * ap - 2 * k, ap - bp - k)
                    for k in range(ap - bp - (p - 1) // 2, ap - bp + 1)
                )
                assert truncated_classical("plain", a, b, p) == plain
                assert truncated_classical("star", a, b, p) == star
                for kind in ALL_KINDS:
                    variant = "plain" if kind is TrinomialKind.round else "star"
                    at_one = eval_at_one(truncated_q_trinomial(kind, a, b, p))
                    assert at_one == truncated_classical(variant, a, b, p), (kind, a, b, p)


def test_truncated_classical_errors():
    with pytest.raises(NotPrime):
        truncated_classical("plain", 2, 1, 9)
    with pytest.raises(InvalidParameters):
        truncated_classical("plain", 2, 1, 2)
    with pytest.raises(InvalidParameters):
        truncated_classical("plain", 1, 1, 5)
    with pytest.raises(InvalidParameters):
        truncated_classical("nonsense", 2, 1, 5)
