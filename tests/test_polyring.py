"""Laurent polynomial arithmetic: examples, errors, and ring properties."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _taylor_add,
    _taylor_dot,
    _taylor_q2,
    _taylor_shift,
    _taylor_step,
    pack_digits,
    unpack_by_shifts,
    unpack_digits,
)
import qtrinom.polyring as polyring
from qtrinom.polyring import (
    ONE,
    ZERO,
    LaurentPoly,
    NegativeExponent,
    NonExactDivision,
    NotMonic,
    _digit_bits,
    _digit_width,
    _half_digits,
    _from_taylor,
    _mul_kronecker,
    _mul_schoolbook,
    _pack,
    _packed_dot,
    _packed_q2,
    _packed_step,
    _repack,
    _ring_step,
    _stride,
    _taylor,
    _unpack,
    eval_at_one,
    exact_div,
    fold,
    from_text,
    make_poly,
    monomial,
    rem_monic,
    shift,
    substitute_power,
    to_text,
)
from qtrinom.qcombinatorics import q_binomial


def test_make_poly_examples():
    assert make_poly([(0, 1), (1, 1)]) == LaurentPoly(0, (1, 1))
    assert make_poly([(-1, -1)]) == LaurentPoly(-1, (-1,))
    assert make_poly([(2, 3), (2, -3)]) == ZERO


def test_make_poly_sums_duplicates():
    assert make_poly([(1, 2), (1, 3), (0, 1)]) == make_poly([(0, 1), (1, 5)])


def test_canonical_form():
    p = LaurentPoly(-2, [0, 0, 5, 0, 3, 0, 0])
    assert p.offset == 0
    assert p.coeffs == (5, 0, 3)
    assert ZERO.offset == 0 and ZERO.coeffs == ()
    assert LaurentPoly(7, []) == ZERO


def test_add_examples():
    one_plus_q = make_poly([(0, 1), (1, 1)])
    one_minus_q = make_poly([(0, 1), (1, -1)])
    assert one_plus_q + one_minus_q == make_poly([(0, 2)])
    p = make_poly([(3, 4), (-1, 2)])
    assert p + ZERO == p
    assert monomial(-1) + monomial(1) == make_poly([(-1, 1), (1, 1)])


def test_mul_examples():
    one_plus_q = make_poly([(0, 1), (1, 1)])
    assert one_plus_q * one_plus_q == make_poly([(0, 1), (1, 2), (2, 1)])
    assert monomial(-1) * monomial(1) == ONE
    # schoolbook expansion: (1+q+q^2)(1-q) = 1 - q^3
    assert make_poly([(0, 1), (1, 1), (2, 1)]) * make_poly([(0, 1), (1, -1)]) == make_poly(
        [(0, 1), (3, -1)]
    )


def test_pow_examples():
    one_plus_q = make_poly([(0, 1), (1, 1)])
    assert one_plus_q ** 0 == ONE
    assert one_plus_q ** 2 == make_poly([(0, 1), (1, 2), (2, 1)])
    # binomial expansion: (q-1)^3 = q^3 - 3q^2 + 3q - 1
    assert (monomial(1) - ONE) ** 3 == make_poly([(3, 1), (2, -3), (1, 3), (0, -1)])
    with pytest.raises(ValueError):
        (ONE + monomial(1)) ** -1


def test_substitute_power_examples():
    one_plus_q = make_poly([(0, 1), (1, 1)])
    assert substitute_power(one_plus_q, 2) == make_poly([(0, 1), (2, 1)])
    assert substitute_power(monomial(3), -1) == monomial(-3)
    assert substitute_power(make_poly([(0, 1), (1, 1), (2, 1)]), -1) == make_poly(
        [(-2, 1), (-1, 1), (0, 1)]
    )
    with pytest.raises(ValueError):
        substitute_power(one_plus_q, 0)


def test_shift_examples():
    one_plus_q = make_poly([(0, 1), (1, 1)])
    assert shift(one_plus_q, 1) == make_poly([(1, 1), (2, 1)])
    assert shift(monomial(-1), 1) == ONE
    assert shift(ZERO, 5) == ZERO


def test_exact_div_examples():
    # geometric factor: (1-q^3)/(1-q) = 1+q+q^2
    num = make_poly([(0, 1), (3, -1)])
    den = make_poly([(0, 1), (1, -1)])
    assert exact_div(num, den) == make_poly([(0, 1), (1, 1), (2, 1)])
    assert exact_div(make_poly([(2, 1), (0, -1)]), make_poly([(1, 1), (0, 1)])) == make_poly(
        [(1, 1), (0, -1)]
    )
    with pytest.raises(NonExactDivision):
        exact_div(make_poly([(0, 1), (1, 1)]), den)


def test_exact_div_errors():
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)
    with pytest.raises(NonExactDivision):
        exact_div(make_poly([(0, 1), (1, 1)]), make_poly([(0, 2)]))
    assert exact_div(ZERO, ONE) == ZERO
    # Laurent offsets divide through
    assert exact_div(monomial(-2, 6), monomial(-3, 3)) == monomial(1, 2)


def test_rem_monic_examples():
    q_plus_1 = make_poly([(1, 1), (0, 1)])
    assert rem_monic(monomial(2), q_plus_1) == ONE
    # long division: q^3 = (q-1)(q^2+q+1) + 1
    assert rem_monic(monomial(3), make_poly([(2, 1), (1, 1), (0, 1)])) == ONE
    assert rem_monic(make_poly([(0, 1), (1, 1)]), q_plus_1) == ZERO


def test_rem_monic_errors():
    q_plus_1 = make_poly([(1, 1), (0, 1)])
    with pytest.raises(NotMonic):
        rem_monic(monomial(2), make_poly([(1, 2), (0, 1)]))
    with pytest.raises(NotMonic):
        rem_monic(monomial(2), ONE)
    with pytest.raises(NegativeExponent):
        rem_monic(monomial(-1), q_plus_1)
    with pytest.raises(NegativeExponent):
        rem_monic(monomial(2), monomial(-1) + monomial(1))
    # low-degree dividend passes through untouched
    assert rem_monic(monomial(1, 7), make_poly([(2, 1), (0, 1)])) == monomial(1, 7)


def test_eval_at_one_examples():
    assert eval_at_one(make_poly([(0, 1), (1, 1), (2, 1)])) == 3
    assert eval_at_one(make_poly([(-1, 1), (1, -1)])) == 0
    assert eval_at_one(ZERO) == 0


# ---- text format ----


def test_to_text_examples():
    assert to_text(ZERO) == "0"
    assert to_text(make_poly([(2, 1), (1, -1), (0, 1)])) == "q^2 - q + 1"
    assert to_text(make_poly([(4, 1), (3, 1), (2, 2), (1, 1), (0, 1)])) == "q^4 + q^3 + 2*q^2 + q + 1"
    assert to_text(monomial(1, -1)) == "-q"
    assert to_text(make_poly([(-2, -3), (0, 5)])) == "5 - 3*q^-2"
    assert to_text(monomial(-1)) == "q^-1"
    assert to_text(make_poly([(0, -7)])) == "-7"


def test_from_text_examples():
    assert from_text("0") == ZERO
    assert from_text("q^2 - q + 1") == make_poly([(2, 1), (1, -1), (0, 1)])
    assert from_text("-q") == monomial(1, -1)
    assert from_text("5 - 3*q^-2") == make_poly([(0, 5), (-2, -3)])
    assert from_text("-12*q^10 + q^2 - 1 + 10*q^-1") == make_poly([(10, -12), (2, 1), (0, -1), (-1, 10)])
    # only what to_text writes: a term is a nonzero integer or [N*]q[^E]
    # with N >= 2 and E not 0 or 1, no number has a leading zero, and 0 is
    # only the lone "0"
    for text in ("bogus + q", "3*", "2q", "1 + 3*", "q^", "", " q", "q -", "--q",
                 "1*q", "q^1", "q^0", "0 + q", "-0", "q^-0", "02*q", "q^01"):
        with pytest.raises(ValueError, match="unparseable polynomial term"):
            from_text(text)
    # exponents strictly fall
    for text in ("q + q", "q^-2 + 2*q - 1 - q", "1 + q", "q - 2*q^2"):
        with pytest.raises(ValueError, match="does not fall below the one before it"):
            from_text(text)


# ---- property tests ----

coeff_st = st.integers(-10**6, 10**6)
polys = st.builds(
    LaurentPoly, st.integers(-32, 32), st.lists(coeff_st, min_size=0, max_size=65)
)
ordinary_polys = st.builds(
    LaurentPoly, st.integers(0, 16), st.lists(coeff_st, min_size=0, max_size=48)
)
monic_polys = st.builds(
    lambda cs: LaurentPoly(0, cs + [1]), st.lists(st.integers(-50, 50), min_size=1, max_size=12)
)


@given(polys, polys, polys)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO
    assert x - y == x + (-y)
    assert (x - y) + y == x


@given(polys)
def test_substitute_power_involution(x):
    assert substitute_power(substitute_power(x, -1), -1) == x


@given(polys, st.sampled_from([s for s in range(-7, 8) if s]))
def test_substitute_power_matches_term_oracle(x, s):
    expected = make_poly((s * (x.offset + i), c) for i, c in enumerate(x.coeffs))
    assert substitute_power(x, s) == expected


@given(polys, polys)
def test_eval_at_one_is_multiplicative(x, y):
    assert eval_at_one(x * y) == eval_at_one(x) * eval_at_one(y)


@st.composite
def power_modulus_cases(draw):
    """(x, n, k, m): x ordinary of degree below kn to about 6kn, or far above
    it by its offset, and m is (q^n - 1)^k or another sparse monic modulus:
    (q^n + 1)^k, q^(kn) - 1, q (q^n - 1)^k or (q^n - 1)^k + q."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    power = (monomial(n) - ONE) ** k
    moduli = [power, (monomial(n) + ONE) ** k, monomial(k * n) - ONE, shift(power, 1)]
    if k * n > 1:  # below that, adding q breaks monicity
        moduli.append(power + monomial(1))
    offset = draw(st.integers(0, 16) | st.integers(0, 10**4))
    coeffs = draw(st.lists(st.integers(-(2**200), 2**200), max_size=6 * k * n + 1))
    return LaurentPoly(offset, coeffs), n, k, draw(st.sampled_from(moduli))


division_cases = st.builds(lambda x, m: (x, m), ordinary_polys, monic_polys) | power_modulus_cases().map(
    lambda case: (case[0], case[3])
)


@given(division_cases)
# a long quotient of wide coefficients times a short modulus: these took
# longer than the default deadline while that product went by Kronecker
@example((monomial(5664, 2), from_text("q^4 - 4*q^3 + 6*q^2 - 3*q + 1")))
@example((monomial(5654), from_text("q^3 - 3*q^2 + 4*q - 1")))
def test_division_round_trip(case):
    # the round trip pins the unique Euclidean remainder
    x, m = case
    r = rem_monic(x, m)
    assert r.degree < m.degree
    quotient = exact_div(x - r, m) if x != r else ZERO
    assert quotient * m + r == x


@given(power_modulus_cases())
# offsets 0 and n - 1 mod n, fewer coefficients than n (empty classes), k
# above the number of y-blocks, and a base y^10001
@example((LaurentPoly(21, range(1, 30)), 7, 2, None))
@example((LaurentPoly(27, range(-14, 15)), 7, 3, None))
@example((LaurentPoly(40, [5, 0, -3]), 12, 3, None))
@example((LaurentPoly(33, [1, -2, 3, -4, 5, -6, 7]), 5, 4, None))
@example((LaurentPoly(3 * 10001 + 2, [2**70, -1, 0, 4, 9, -2**40, 1]), 3, 3, None))
def test_fold_matches_long_division(case):
    x, n, k, _ = case
    assert fold(x, n, k) == rem_monic(x, (monomial(n) - ONE) ** k)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (4, 1), (3, 2), (5, 3)])
def test_fold_edges(n, k):
    m = (monomial(n) - ONE) ** k
    below = LaurentPoly(0, range(1, k * n + 1))
    assert fold(below, n, k) is below
    for degree in (k * n, 2 * k * n - 1):
        x = LaurentPoly(0, range(1, degree + 2))
        assert fold(x, n, k) == rem_monic(x, m)
    assert fold(ZERO, n, k) is ZERO
    for laurent in (monomial(-1), monomial(-1) + monomial(2 * k * n)):
        with pytest.raises(NegativeExponent):
            fold(laurent, n, k)
    with pytest.raises(ValueError):
        fold(below, 0, k)
    with pytest.raises(ValueError):
        fold(below, n, 0)


@given(polys, polys)
def test_exact_div_inverts_mul(x, y):
    if x.is_zero():
        return
    assert exact_div(x * y, x) == y


@given(polys)
def test_text_round_trip(x):
    assert from_text(to_text(x)) == x


@given(
    st.lists(coeff_st, min_size=1, max_size=40),
    st.lists(coeff_st, min_size=1, max_size=40),
)
# short factors against long ones, which LaurentPoly.__mul__ takes by its
# scalar path and, with 6 rows and a digit wider than a word, by schoolbook
@example([-7], [(-1) ** i * (i * 7919 % 1000003) for i in range(1, 300)])
@example([3, 0, -1, 2**61, 0, 5, -9, 1], [(-1) ** (i // 3) * i**5 for i in range(1, 700)])
def test_mul_kernels_agree(a, b):
    # both kernels must implement the same convolution, whatever the signs
    if a[-1] == 0:
        a[-1] = 1
    if b[-1] == 0:
        b[-1] = 1
    assert _mul_schoolbook(a, b) == _mul_kronecker(a, b)


@settings(max_examples=20)
@given(
    st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=30),
    st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=30),
)
def test_mul_kernels_agree_huge_coefficients(a, b):
    if a[-1] == 0:
        a[-1] = 1
    if b[-1] == 0:
        b[-1] = 1
    assert _mul_schoolbook(a, b) == _mul_kronecker(a, b)


@given(polys)
def test_pickle_round_trip(x):
    # polynomial values cross process boundaries in parallel verify runs
    import pickle

    clone = pickle.loads(pickle.dumps(x))
    assert clone == x and clone.offset == x.offset


@pytest.mark.parametrize("signs", ["positive", "negative", "alternating"])
@pytest.mark.parametrize("length", [1, 255, 256, 257])
@pytest.mark.parametrize("bits", [1, 7, 8, 9, 64, 1000])
def test_mul_kronecker_at_the_digit_bound(bits, length, signs):
    # every coefficient at the largest magnitude its bit length allows: the
    # centre product coefficient is then as large as the digit width permits,
    # which random coefficients almost never reach
    top = (1 << bits) - 1
    if signs == "alternating":
        a = [top if i % 2 == 0 else -top for i in range(length)]
    else:
        a = [top if signs == "positive" else -top] * length
    assert _mul_kronecker(a, a) == _mul_schoolbook(a, a)
    assert _mul_kronecker(a, [-c for c in a]) == _mul_schoolbook(a, [-c for c in a])


@st.composite
def digit_vectors(draw):
    # w-byte digits and coefficients strictly inside (-B/2, B/2), B = 2^(8w),
    # the extreme digits +-(B/2 - 1) drawn often; w = 1..8 takes _unpack's
    # word path, w = 9..12 its per-digit path
    w = draw(st.integers(1, 12))
    top = (1 << (8 * w - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    return w, draw(st.lists(coeff, min_size=0, max_size=64))


@given(digit_vectors())
def test_unpack_inverts_pack(wc):
    w, c = wc
    n = _pack(c, w)
    assert _unpack(n, w, len(c)) == list(c) == unpack_by_shifts(n, w, len(c))


@pytest.mark.parametrize("w", range(1, 13))
def test_unpack_matches_the_shift_decode(w):
    # every count 0..64 at the extreme digits, alternating in sign, then the
    # ends of the decodable range: the offset digits all 0 (each digit -B/2)
    # or all B - 1, and one past either end, which must raise
    top = (1 << (8 * w - 1)) - 1
    for count in range(65):
        c = [top if i % 2 else -top for i in range(count)]
        assert _unpack(_pack(c, w), w, count) == c == unpack_by_shifts(_pack(c, w), w, count)
        low = -_half_digits(w, count)
        high = (1 << (8 * w * count)) - 1 + low
        for n in (low, high):
            assert _unpack(n, w, count) == unpack_by_shifts(n, w, count)
        for n in (low - 1, high + 1):
            with pytest.raises(ArithmeticError):
                _unpack(n, w, count)


def _check_canonical(result, reference):
    # canonical: ZERO, or a tuple with nonzero ends; and the same value the
    # canonicalising constructor gives
    assert type(result.coeffs) is tuple
    assert (result.offset, result.coeffs) == (0, ()) or (result.coeffs[0] and result.coeffs[-1])
    assert result == reference
    assert result == LaurentPoly(result.offset, list(result.coeffs))


@given(polys, st.integers(-40, 40), coeff_st)
def test_shift_neg_and_scalar_results_are_canonical(x, d, c):
    _check_canonical(shift(x, d), LaurentPoly(x.offset + d, list(x.coeffs)))
    _check_canonical(-x, LaurentPoly(x.offset, [-v for v in x.coeffs]))
    _check_canonical(x * c, LaurentPoly(x.offset, [v * c for v in x.coeffs]))
    _check_canonical(c * x, LaurentPoly(x.offset, [c * v for v in x.coeffs]))
    for k in (c, 1):
        _check_canonical(x * monomial(d, k), LaurentPoly(x.offset + d, [k * v for v in x.coeffs]))


# coefficients of up to 20, 40 or 60 bits: with 20-bit coefficients on one
# side, 40 or 60 on the other can make a Kronecker digit wider than a word
wide_coeffs = st.sampled_from((20, 40, 60)).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))


@st.composite
def product_operands(draw):
    # two polynomials of at least two terms on either side of the kernel
    # choice: the shorter has 2 to 10 nonzero rows, so it takes schoolbook
    # at up to 3 rows, or up to 8 when the digit is wider than a word, and
    # Kronecker otherwise
    short = draw(st.integers(2, 16))
    rows = {0, short - 1} | draw(st.sets(st.integers(0, short - 1), max_size=8))
    operands = []
    for length, keep in ((short, rows), (draw(st.integers(short, short + 64)), None)):
        coeff = draw(st.sampled_from((coeff_st, wide_coeffs)))
        coeffs = [draw(coeff) if keep is None or i in keep else 0 for i in range(length)]
        coeffs[0], coeffs[-1] = coeffs[0] or 1, coeffs[-1] or -1
        operands.append(LaurentPoly(draw(st.integers(-32, 32)), coeffs))
    return operands


@given(product_operands())
def test_product_results_are_canonical(operands):
    x, y = operands
    _check_canonical(x * y, LaurentPoly(x.offset + y.offset, _mul_schoolbook(x.coeffs, y.coeffs)))


def _kernel_calls(monkeypatch, x, y):
    """x * y, checked against _mul_schoolbook, and the kernels it ran."""
    calls = []
    for name in ("_mul_kronecker", "_mul_schoolbook"):
        kernel = getattr(polyring, name)
        monkeypatch.setattr(polyring, name, lambda a, b, name=name, kernel=kernel: calls.append(name) or kernel(a, b))
    product = x * y
    monkeypatch.undo()
    _check_canonical(product, LaurentPoly(x.offset + y.offset, _mul_schoolbook(x.coeffs, y.coeffs)))
    return calls


def _wide(bits, count):
    # count coefficients of exactly this bit length, alternating in sign
    return [(-1) ** i * ((1 << bits) - 1 - i % 4) for i in range(count)]


# a long factor of 8-bit coefficients, dense, so its stride is 1
_NARROW = LaurentPoly(-3, _wide(8, 1000))


@pytest.mark.parametrize("rows, kernel", [(2, "_mul_schoolbook"), (3, "_mul_schoolbook"), (4, "_mul_kronecker")])
def test_kernel_choice_counts_nonzero_rows(monkeypatch, rows, kernel):
    # rows nonzero terms spread over 500 exponents: schoolbook up to 3 rows
    # at any span, and at 4 narrow rows the digit fits a word, so Kronecker
    coeffs = [0] * 500
    for i in range(rows):
        coeffs[i * 499 // (rows - 1)] = 5 - 2 * i
    sparse = LaurentPoly(7, coeffs)
    assert _digit_width(3, 8, 500) <= 8
    assert _kernel_calls(monkeypatch, sparse, _NARROW) == [kernel]
    assert _kernel_calls(monkeypatch, _NARROW, sparse) == [kernel]


@pytest.mark.parametrize(
    "rows, bits, kernel",
    [(8, 50, "_mul_kronecker"), (8, 51, "_mul_schoolbook"), (9, 50, "_mul_kronecker"), (9, 51, "_mul_kronecker")],
)
def test_kernel_choice_at_the_word_width(monkeypatch, rows, bits, kernel):
    # dense rows of `bits`-bit coefficients against 8-bit ones: at 50 bits
    # the Kronecker digit is 8 bytes, one machine word, at 51 bits it is 9;
    # up to 8 rows a digit wider than a word takes schoolbook
    assert _digit_width(bits, 8, rows) == (8 if bits == 50 else 9)
    dense = LaurentPoly(0, _wide(bits, rows))
    assert _kernel_calls(monkeypatch, dense, _NARROW) == [kernel]
    assert _kernel_calls(monkeypatch, _NARROW, dense) == [kernel]


@st.composite
def strided_operands(draw):
    # x and the q -> q^s image of y, shifted by d.  Each class of x mod s is
    # multiplied by y on its own, so the class's nonzero rows, 1 to 8, not
    # those of x, sit on either side of the kernel choice, and wide
    # coefficients of y straddle its word rule; with a class length of 1, x
    # may have fewer than s terms, and some classes of x may be zero
    # throughout
    s = draw(st.integers(2, 8))
    short = draw(st.integers(1, 8))
    length = draw(st.integers((short - 1) * s + 1, short * s))
    long = draw(st.integers(2, 64))
    zero_classes = draw(st.sets(st.integers(1, s - 1)))
    xs = draw(st.lists(coeff_st, min_size=length, max_size=length))
    xs = [0 if i % s in zero_classes else c for i, c in enumerate(xs)]
    ys = draw(st.lists(draw(st.sampled_from((coeff_st, wide_coeffs))), min_size=long, max_size=long))
    xs[0], xs[-1], ys[0], ys[-1] = xs[0] or 1, xs[-1] or -1, ys[0] or 1, ys[-1] or -1
    x = LaurentPoly(draw(st.integers(-32, 32)), xs)
    y = LaurentPoly(draw(st.integers(-32, 32)), ys)
    return x, s, y, draw(st.integers(-32, 32))


@given(strided_operands())
def test_products_with_a_q_power_image_match_schoolbook(case):
    x, s, y, d = case
    image = shift(substitute_power(y, s), d)
    expected = LaurentPoly(x.offset + image.offset, _mul_schoolbook(x.coeffs, image.coeffs))
    _check_canonical(x * image, expected)
    _check_canonical(image * x, expected)


def test_stride_examples():
    assert _stride((1, -2, 3)) == 1
    assert _stride(substitute_power(q_binomial(8, 3), 2).coeffs) == 2
    assert _stride(((ONE - monomial(7)) ** 2).coeffs) == 7
    # the first gap, 2, is not a stride: q^3 sits in class 1 mod 2
    assert _stride(from_text("q^3 + q^2 + 1").coeffs) == 1
    assert _stride(from_text("q^6 + q^3 + 1").coeffs) == 3


@st.composite
def ring_dot_terms(draw):
    # summands of a ring dot: Taylor vectors of any sign and size at one
    # (n, k), and a sign for each product
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    digit = st.integers(-(1 << 70), 1 << 70) | st.integers(-3, 3)
    element = st.lists(st.lists(digit, min_size=n, max_size=n), min_size=k, max_size=k)
    return draw(st.lists(st.tuples(element, element, st.sampled_from((1, -1))), min_size=1, max_size=8))


@given(ring_dot_terms())
def test_dot_is_the_sum_of_products(terms):
    xs, ys, signs = zip(*terms)
    expected = sum((_from_taylor(x) * _from_taylor(y) * sign for x, y, sign in terms), ZERO)
    assert _taylor_dot(xs, ys, signs) == expected


@pytest.mark.parametrize("bits", [3, 7, 11, 63, 123])
def test_taylor_dot_oracle_at_the_digit_bound(bits):
    # this checks the oracle oracles._taylor_dot; polyring._packed_dot has
    # test_packed_dot_at_the_digit_bound.  Taylor vectors of alternating
    # sign make every polynomial-form coefficient as large as k such vectors
    # allow, and equal extreme products add up in every place.  k * n is
    # 255 or just below, and the digits have bits - k bits, so 2^k max|S|
    # has exactly bits bits and the width has no slack from rounding up to
    # whole bytes when count is 1
    for k in range(1, min(bits, 4)):
        top = (1 << (bits - k)) - 1
        x = [[(-1) ** i * top] * (255 // k) for i in range(k)]
        form = _from_taylor(x)
        square = LaurentPoly(0, _mul_schoolbook(form.coeffs, form.coeffs))
        for count in (1, 2, 8):
            for sign in (1, -1):
                assert _taylor_dot([x] * count, [x] * count, [sign] * count) == square * (sign * count)


@given(ordinary_polys, ordinary_polys, st.integers(1, 9), st.integers(1, 4), st.integers(0, 100))
def test_quotient_ring_operations_match_rem_monic(x, y, n, k, j):
    # the Taylor form of Z[q]/((q^n - 1)^k) against long division: the form
    # and back is the remainder, and add, q^j and q -> q^2 act on remainders;
    # the q-Pascal step x + q^j y is the add after the shift
    m = (monomial(n) - ONE) ** k
    tx, ty = _taylor(x, n, k), _taylor(y, n, k)
    assert _from_taylor(tx) == rem_monic(x, m)
    assert _from_taylor(_taylor_add(tx, ty)) == rem_monic(x + y, m)
    assert _from_taylor(_taylor_shift(tx, j)) == rem_monic(shift(x, j), m)
    assert _taylor_step(tx, ty, j) == _taylor_add(tx, _taylor_shift(ty, j))
    assert _from_taylor(_taylor_q2(tx)) == rem_monic(substitute_power(x, 2), m)


@given(ordinary_polys, ordinary_polys, st.integers(1, 9), st.integers(1, 4), st.integers(0, 100), st.integers(-9, 9))
def test_ring_step_matches_the_list_form(x, z, n, k, j, c):
    # x + c q^j z with digits of either sign: the oracle's step on c z, and
    # the fold of the polynomial forms
    tx, tz = _taylor(x, n, k), _taylor(z, n, k)
    assert _ring_step(tx, tz, j, c) == _taylor_step(tx, [[c * d for d in s] for s in tz], j)
    assert _from_taylor(_ring_step(tx, tz, j, c)) == fold(x + shift(z, j) * c, n, k)
    assert _ring_step([[0] * n] * k, tz, j, 1) == _taylor_shift(tz, j)


# ---- packed elements against the list form ----

# polynomials with nonnegative coefficients and a nonzero top one, so that
# every Taylor digit is nonnegative and the proven width is at least 1 byte
nonneg_polys = st.builds(
    lambda offset, coeffs, top: LaurentPoly(offset, coeffs + [top]),
    st.integers(0, 16),
    st.lists(st.integers(0, 10**6) | st.integers(0, 2**80), max_size=47),
    st.integers(1, 10**6),
)


def _proven(x_degree, total, n, k):
    """The byte width _digit_bits proves for a polynomial of that degree and
    coefficient sum."""
    return (_digit_bits(x_degree, total, n, k) + 7) // 8


def _packed(taylor, w):
    return [pack_digits(s, w) for s in taylor]


def _digits(vectors, w, n):
    return [unpack_digits(p, w, n) for p in vectors]


@given(nonneg_polys, nonneg_polys, st.integers(1, 12), st.integers(1, 4), st.integers(0, 100))
def test_packed_step_and_shift_match_the_list_form(x, z, n, k, j):
    # x + q^j z has degree at most max(deg x, deg z + j) and coefficient sum
    # eval_at_one(x) + eval_at_one(z); both operands are packed at that width
    tx, tz = _taylor(x, n, k), _taylor(z, n, k)
    w = _proven(max(x.degree, z.degree + j), eval_at_one(x) + eval_at_one(z), n, k)
    assert _digits(_packed_step(_packed(tx, w), _packed(tz, w), j, n, w), w, n) == _taylor_step(tx, tz, j)
    # the shift is the step with no addend, after a re-pack from z's own
    # width to that of q^j z
    wz, to = _proven(z.degree, eval_at_one(z), n, k), _proven(z.degree + j, eval_at_one(z), n, k)
    moved = _packed_step([0] * k, _repack(_packed(tz, wz), n, wz, to), j, n, to)
    assert _digits(moved, to, n) == _taylor_shift(tz, j)


@given(nonneg_polys, st.integers(1, 12), st.integers(1, 4))
def test_packed_q2_matches_the_list_form(z, n, k):
    # z(q^2) has twice the degree and the same coefficient sum
    tz = _taylor(z, n, k)
    w, to = _proven(z.degree, eval_at_one(z), n, k), _proven(2 * z.degree, eval_at_one(z), n, k)
    assert _digits(_packed_q2(_packed(tz, w), n, w, to), to, n) == _taylor_q2(tz)


@st.composite
def packed_dot_terms(draw):
    # summands sign q^j x y of a packed dot at one (n, k): each factor packed
    # at its proven width or up to two bytes wider
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    factor = st.tuples(nonneg_polys, st.integers(0, 2))
    term = st.tuples(st.sampled_from((1, -1)), st.integers(0, 100), factor, factor)
    return n, k, draw(st.lists(term, min_size=1, max_size=8))


@given(packed_dot_terms())
def test_packed_dot_matches_the_list_form(case):
    # q^j x has degree deg x + j and the same coefficient sum
    n, k, terms = case
    packed, xs, ys, signs = [], [], [], []
    xbits = ybits = 0
    for sign, j, (x, xpad), (y, ypad) in terms:
        tx, ty = _taylor(x, n, k), _taylor(y, n, k)
        wx, wy = _proven(x.degree, eval_at_one(x), n, k) + xpad, _proven(y.degree, eval_at_one(y), n, k) + ypad
        packed.append((sign, j, (wx, _packed(tx, wx)), (wy, _packed(ty, wy))))
        xs.append(_taylor_shift(tx, j))
        ys.append(ty)
        signs.append(sign)
        xbits = max(xbits, _digit_bits(x.degree + j, eval_at_one(x), n, k))
        ybits = max(ybits, _digit_bits(y.degree, eval_at_one(y), n, k))
    assert _packed_dot(packed, xbits, ybits, n) == _taylor_dot(xs, ys, signs)


@pytest.mark.parametrize("n", [1, 5, 17, 33])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_packed_dot_at_the_digit_bound(n, k):
    # packed factors whose digits all sit at 2^bits - 1 on every power of e,
    # the even ones or the odd ones, so that the forms' coefficients
    # sum_i +-C(i, s) S_i, and count equal products of them, come as near
    # the dot's width as nonnegative digits and k * n * count products
    # allow; bits = 1..16 meets every rounding of that width to whole
    # bytes.  x also comes shifted by j = n - 1, where every class but one
    # wraps, and xbits holds the digits of q^j x, as the dot requires
    for bits, on, count, j in itertools.product(range(1, 17), ((0, 1), (0,), (1,)), (1, 8), (0, n - 1)):
        top = (1 << bits) - 1
        x = [[top if i % 2 in on else 0] * n for i in range(k)]
        if not any(map(any, x)):
            continue
        moved = _taylor_shift(x, j)
        xbits = max(d.bit_length() for s in moved for d in s)
        w = (bits + 7) // 8
        packed = (w, _packed(x, w))
        expected = _taylor_dot([moved] * count, [x] * count, [1] * count)
        assert _packed_dot([(1, j, packed, packed)] * count, xbits, bits, n) == expected


@given(st.lists(st.lists(st.integers(0, 255), min_size=1, max_size=9), min_size=1, max_size=4), st.integers(1, 6))
def test_repack_widens_and_narrows(byte_vectors, extra):
    # one-byte digits re-packed wider and back; a digit that does not fit
    # the narrower width raises
    count = max(map(len, byte_vectors))
    vectors = [pack_digits(v, 1) for v in byte_vectors]
    wide = _repack(vectors, count, 1, 1 + extra)
    assert [unpack_digits(p, 1 + extra, count) for p in wide] == [unpack_digits(p, 1, count) for p in vectors]
    assert _repack(wide, count, 1 + extra, 1) == vectors
    with pytest.raises(ArithmeticError):
        _repack([pack_digits([256], 2)], 1, 2, 1)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_a_negative_digit_raises(n):
    # packed digits are nonnegative; a vector whose top nonzero digit is
    # negative is a negative int, which every re-pack, and so the q -> q^2
    # image and the dot, reject
    for r in range(n):
        p = -(1 << 8 * r)
        with pytest.raises(ArithmeticError):
            _repack([p], n, 1, 2)
        with pytest.raises(ArithmeticError):
            _packed_q2([p], n, 1, 1)
        for j in (0, r + 1):
            with pytest.raises(ArithmeticError):
                _packed_dot([(1, j, (1, [p]), (1, [1]))], 8, 8, n)
