"""Exact Laurent polynomials in q over arbitrary-precision integers.

A polynomial is stored as an exponent ``offset`` (the lowest exponent
present, possibly negative) plus a dense tuple of integer coefficients for
exponents ``offset, offset+1, ...``.  Values are immutable and always kept
in canonical form: the zero polynomial is ``offset=0, coeffs=()``, and a
nonzero polynomial has nonzero first and last coefficients, so structural
equality is semantic equality.  The constructor canonicalises; results that
are canonical by construction (shifts, negations, products over Z, whose end
coefficients are products of nonzero ends) skip it through _rebuild.

Coefficients are plain Python ints; all arithmetic is exact at any
magnitude.  A product whose shorter factor has at most _SCHOOLBOOK_ROWS
nonzero coefficients, or at most _WIDE_ROWS with a Kronecker digit wider
than a machine word, is taken by schoolbook, which skips zero terms; others
by Kronecker substitution (packing the coefficient vector into one big
integer), which hands the real work to CPython's big-int multiplication.
When the longer factor is an image d(q^s), s >= 2, such as a binomial in
base q^2, each residue class mod s of the other factor is multiplied by d
alone and lands on its own exponents, so the kernels see operands s times
shorter, and a class with a single term is a scalar multiple of d.  A
two-term factor (1 - q^up)/(1 - q^down) needs no product: _step applies it
in linear time.

The quotient ring Z[q]/((q^n - 1)^k) has its own form: per residue class mod
n, the Taylor coefficients at y = q^n = 1 (_taylor, one slice per class and
one C-level sum per Taylor digit), and _from_taylor gives back the Euclidean
remainder modulo (q^n - 1)^k, so fold, the remainder by that modulus, is the
one constructor followed by the basis change.  Where every Taylor digit is
nonnegative, as in a q-Pascal row, each vector is packed into one int at a
proven byte width: the step x + q^j z (_packed_step), which with x = 0 is
the shift, and q -> q^2 (_packed_q2) are then a few integer operations and
byte-strided copies, and _packed_dot sums signed products of packed elements
by Kronecker substitution, reading the sum's digits back once.  Every other
monic modulus takes rem_monic, long division.
"""
from __future__ import annotations

import re
import sys
from itertools import accumulate, compress, count, islice, repeat
from math import comb
from operator import add, mul, neg, sub
from typing import Iterable, Sequence


class NonExactDivision(ArithmeticError):
    """Raised when exact_div is asked for a quotient that does not exist."""


class NotMonic(ValueError):
    """Raised when rem_monic gets a modulus without leading coefficient 1."""


class NegativeExponent(ValueError):
    """Raised when rem_monic or fold gets a Laurent (offset < 0) operand."""


class LaurentPoly:
    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs: Iterable[int]):
        coeffs = list(coeffs)
        lo = 0
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        if lo == hi:
            object.__setattr__(self, "offset", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "offset", offset + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return (_rebuild, (self.offset, self.coeffs))

    # ---- basic structure ----

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Highest exponent present; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return self.offset + len(self.coeffs) - 1

    @property
    def min_exponent(self) -> int:
        """Lowest exponent present; 0 for the zero polynomial."""
        return self.offset

    def __getitem__(self, exponent: int) -> int:
        i = exponent - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self):
        return f"LaurentPoly('{self!s}')"

    def __str__(self):
        return to_text(self)

    # ---- ring operations ----

    def __neg__(self) -> "LaurentPoly":
        return _rebuild(self.offset, tuple(map(neg, self.coeffs)))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _combine(self, other, add)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _combine(self, other, sub)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return _rebuild(self.offset, tuple(map(other.__mul__, self.coeffs)))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        off = self.offset + other.offset
        if len(a) == 1:
            c = a[0]
            return _rebuild(off, b if c == 1 else tuple(map(c.__mul__, b)))
        s = _stride(b)
        if s > 1:
            # b is c(q^s): class r of a times c lands on exponents r mod s
            # only; each class is trimmed to its nonzero span, so a class with
            # one nonzero term takes the scalar path above
            c = _rebuild(0, b[::s])
            out = [0] * (len(a) + len(b) - 1)
            for r in range(min(s, len(a))):
                p = LaurentPoly(0, a[r::s]) * c
                i = r + s * p.offset
                out[i : i + s * len(p.coeffs) : s] = p.coeffs
            return _rebuild(off, tuple(out))
        rows = len(a) - a.count(0)
        if rows <= _SCHOOLBOOK_ROWS or rows <= _WIDE_ROWS and _digit_width(_bits(a), _bits(b), len(a)) > 8:
            return _rebuild(off, tuple(_mul_schoolbook(a, b)))
        return _rebuild(off, tuple(_mul_kronecker(a, b)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


def _rebuild(offset, coeffs):
    p = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(p, "offset", offset)
    object.__setattr__(p, "coeffs", coeffs)
    return p


def _combine(x: LaurentPoly, y: LaurentPoly, op) -> LaurentPoly:
    # x + y or x - y: x copied in by slice assignment, y applied by one map
    if not y.coeffs:
        return x
    if not x.coeffs:
        return y if op is add else -y
    lo = min(x.offset, y.offset)
    out = [0] * (max(x.offset + len(x.coeffs), y.offset + len(y.coeffs)) - lo)
    i = x.offset - lo
    out[i : i + len(x.coeffs)] = x.coeffs
    i = y.offset - lo
    out[i : i + len(y.coeffs)] = map(op, out[i : i + len(y.coeffs)], y.coeffs)
    return LaurentPoly(lo, out)


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))


def monomial(exponent: int, coefficient: int = 1) -> LaurentPoly:
    """The single term coefficient * q^exponent."""
    return LaurentPoly(exponent, (coefficient,))


def make_poly(pairs: Iterable[tuple[int, int]]) -> LaurentPoly:
    """Build a polynomial from (exponent, coefficient) pairs.

    Duplicate exponents are summed; zero coefficients drop out during
    canonicalization.
    """
    terms: dict[int, int] = {}
    for e, c in pairs:
        terms[e] = terms.get(e, 0) + c
    if not terms:
        return ZERO
    lo = min(terms)
    hi = max(terms)
    out = [0] * (hi - lo + 1)
    for e, c in terms.items():
        out[e - lo] = c
    return LaurentPoly(lo, out)


# ---- multiplication kernels ----

# a factor with this few nonzero rows takes schoolbook whatever its span or
# width: schoolbook costs rows times the long factor, Kronecker packs the
# whole span, and on dense narrow factors Kronecker wins from about 4 rows
_SCHOOLBOOK_ROWS = 3
# up to this many rows schoolbook also wins once a Kronecker digit is wider
# than the 8-byte word _unpack reads in C, as in a long quotient of wide
# coefficients times a short modulus, or a binomial times a sparse brace
_WIDE_ROWS = 8


def _stride(c: Sequence[int]) -> int:
    """The s with c = d(q^s): the index of the first nonzero c[i], i >= 1,
    when every other class mod s is zero, else 1.  c[0] and c[-1] are
    nonzero and len(c) >= 2; a dense c, c[1] != 0, costs one index test."""
    if c[1]:
        return 1
    s = next(compress(count(2), islice(c, 2, None)))
    return 1 if any(any(c[r::s]) for r in range(1, s)) else s


def _mul_schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def _mul_kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Evaluate both polynomials at B = 2^(8w), multiply as integers, and read
    # the product coefficients back out of the digits.  w is chosen so that
    # every input and product coefficient lies strictly inside (-B/2, B/2), so
    # each shifted by B/2 is one unsigned digit: the offset-digit codec.
    w = _digit_width(_bits(a), _bits(b), min(len(a), len(b)))
    n = _pack(a, w) * _pack(b, w)
    return _unpack(n, w, len(a) + len(b) - 1)


def _bits(c: Sequence[int]) -> int:
    """Bits of the largest coefficient magnitude."""
    return max(map(abs, c)).bit_length()


def _digit_width(abits: int, bbits: int, terms: int) -> int:
    """Bytes w per digit such that |a| < 2^abits, |b| < 2^bbits and any sum
    of `terms` products a*b lie strictly inside (-B/2, B/2), B = 2^(8w)."""
    return (abits + bbits + terms.bit_length() + 2 + 7) // 8


def _half_digits(w: int, count: int) -> int:
    """(B/2) * sum_{i<count} B^i for B = 2^(8w): the digit B/2 in each place."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")


def _pack(coeffs: Sequence[int], w: int) -> int:
    """sum_i coeffs[i] B^i: the digits coeffs[i] + B/2, less their offsets."""
    half = 1 << (8 * w - 1)
    digits = map(int.to_bytes, map(half.__add__, coeffs), repeat(w), repeat("little"))
    return int.from_bytes(b"".join(digits), "little") - _half_digits(w, len(coeffs))


_LITTLE = sys.byteorder == "little"


def _unpack(n: int, w: int, count: int) -> list[int]:
    """The count coefficients c_i in (-B/2, B/2) with n = sum_i c_i B^i."""
    n += _half_digits(w, count)
    # a correct digit bound leaves count unsigned digits, nothing past them
    if n < 0 or n.bit_length() > 8 * w * count:
        raise ArithmeticError("Kronecker digit bound exceeded")
    raw = n.to_bytes(w * count, "little")
    half = 1 << (8 * w - 1)
    if w > 8:
        return [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * count, w)]
    # byte t of each digit goes to its place in a native 8-byte word, so one
    # memoryview cast reads every digit in C
    words = bytearray(8 * count)
    for t in range(w):
        words[t if _LITTLE else 7 - t :: 8] = raw[t::w]
    return list(map(sub, memoryview(words).cast("Q"), repeat(half)))


# ---- two-term factors (1 - q^up) / (1 - q^down) ----


def _step(coeffs: Sequence[int], up: int, down: int) -> list[int]:
    """Coefficients of p (1 - q^up) / (1 - q^down), p an ordinary polynomial
    with the given coefficients; raises NonExactDivision unless exact."""
    pad = [0] * up
    num = list(map(sub, [*coeffs, *pad], [*pad, *coeffs]))
    # f = g (1 - q^down) means g[i] = f[i] + g[i - down]: a running sum over
    # each residue class mod down
    quo = [0] * len(num)
    for r in range(down):
        quo[r::down] = accumulate(num[r::down])
    cut = len(num) - down
    if cut < 0 or any(quo[cut:]):
        raise NonExactDivision(f"1 - q^{down} does not divide the step")
    return quo[:cut]


# ---- named operation surface ----


def shift(x: LaurentPoly, d: int) -> LaurentPoly:
    """Multiply by q^d."""
    if not x.coeffs:
        return ZERO
    return _rebuild(x.offset + d, x.coeffs)


def substitute_power(x: LaurentPoly, s: int) -> LaurentPoly:
    """Map q -> q^s, i.e. multiply every exponent by s.  s must be nonzero."""
    if s == 0:
        raise ValueError("substitution power must be nonzero")
    if not x.coeffs:
        return ZERO
    if s == 1:
        return x
    # the ends stay nonzero, so the spread-out coefficients are canonical
    coeffs = x.coeffs
    out = [0] * ((len(coeffs) - 1) * abs(s) + 1)
    out[::s] = coeffs
    return _rebuild((x.offset if s > 0 else x.offset + len(coeffs) - 1) * s, tuple(out))


def eval_at_one(x: LaurentPoly) -> int:
    """Value at q = 1, i.e. the sum of all coefficients."""
    return sum(x.coeffs)


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Quotient r with r*den == num, over the integer Laurent ring.

    Raises ZeroDivisionError for a zero divisor and NonExactDivision when no
    such r exists (including non-integer quotients like (q+1)/2).
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return ZERO
    qlen = len(num.coeffs) - len(den.coeffs) + 1
    if qlen <= 0:
        raise NonExactDivision("degree of divisor exceeds degree of dividend")
    rem = list(num.coeffs)
    dterms = [(j, dc) for j, dc in enumerate(den.coeffs) if dc]
    d0 = den.coeffs[0]
    quot = [0] * qlen
    for i in range(qlen):
        c = rem[i]
        if c:
            qc, leftover = divmod(c, d0)
            if leftover:
                raise NonExactDivision("quotient is not an integer polynomial")
            quot[i] = qc
            for j, dc in dterms:
                rem[i + j] -= qc * dc
    if any(rem[qlen:]):
        raise NonExactDivision("nonzero remainder")
    return LaurentPoly(num.offset - den.offset, quot)


def rem_monic(x: LaurentPoly, m: LaurentPoly) -> LaurentPoly:
    """Euclidean remainder of x modulo a monic ordinary polynomial m, by
    long division.  Both operands must be ordinary polynomials; Laurent
    callers clear denominators with shift() first, which is their
    responsibility because its soundness depends on the modulus.  A caller
    whose modulus is (q^n - 1)^k names fold instead."""
    if x.offset < 0 and x.coeffs:
        raise NegativeExponent("dividend has negative exponents")
    if m.offset < 0 and m.coeffs:
        raise NegativeExponent("modulus has negative exponents")
    dm = m.degree
    if dm < 1 or m.coeffs[-1] != 1:
        raise NotMonic("modulus must be monic of degree >= 1")
    if x.degree < dm:
        return x
    buf = [0] * x.offset + list(x.coeffs)
    # skip the leading 1; reduce top-down against the nonzero lower terms
    lower = [(j + m.offset, c) for j, c in enumerate(m.coeffs[:-1]) if c]
    for i in range(len(buf) - 1, dm - 1, -1):
        c = buf[i]
        if c:
            base = i - dm
            for j, mc in lower:
                buf[base + j] -= c * mc
    return LaurentPoly(0, buf[:dm])


def fold(x: LaurentPoly, n: int, k: int) -> LaurentPoly:
    """Euclidean remainder of the ordinary polynomial x modulo (q^n - 1)^k,
    in closed form.  With y = q^n, the terms of x whose exponent is r mod n
    form q^r P_r(y), and modulo (y - 1)^k the polynomial
    P_r(y) = sum_j c_j y^j equals its Taylor polynomial at y = 1,
    sum_{i<k} S_i (y - 1)^i with S_i = sum_j C(j, i) c_j.  Rewritten in
    powers of y and summed over r, this has degree < kn and differs from x
    by a multiple of (q^n - 1)^k, so it is the Euclidean remainder, which
    is unique."""
    if n < 1 or k < 1:
        raise ValueError("fold needs n >= 1 and k >= 1")
    if x.offset < 0 and x.coeffs:
        raise NegativeExponent("dividend has negative exponents")
    if x.degree < k * n:
        return x
    return _from_taylor(_taylor(x, n, k))


# ---- the quotient ring Z[q]/((q^n - 1)^k) ----
#
# Put y = q^n and e = y - 1, so e^k = 0 in the ring.  An element is
# sum_r q^r sum_{i<k} S_i[r] e^i over the residue classes r = 0..n-1, held
# as its k Taylor vectors [S_0, ..., S_(k-1)], each a list of length n.
# The functions below never modify the lists they are given, so an element
# may be shared.


def _taylor(x: LaurentPoly, n: int, k: int) -> list[list[int]]:
    """The Taylor vectors of the ordinary polynomial x in Z[q]/((q^n - 1)^k)."""
    coeffs, offset = x.coeffs, x.offset
    # coeffs[i0::n] holds y^j0, y^(j0+1), ... of class (offset + i0) mod n,
    # with j0 = (offset + i0) // n: base before the wrap, i0 < wrap, and
    # base + 1 after it, where class i0 is r = i0 - wrap; so the classes
    # after the wrap come first in every vector
    base, wrap = offset // n, n - offset % n
    cols = [coeffs[i0::n] for i0 in range(n)]
    before, after = cols[:wrap], cols[wrap:]
    taylor = [[*map(sum, after), *map(sum, before)]]
    # row[t] = C(base + t, i); each row is the running sums of the row before
    # (hockey-stick identity), and the classes after the wrap start at row[1]
    rows = -(-len(coeffs) // n)
    row = [1] * (rows + 1)
    for i in range(1, k):
        row = list(accumulate(row[:rows], initial=comb(base, i)))
        late = row[1:]
        taylor.append([sum(map(mul, late, col)) for col in after] + [sum(map(mul, row, col)) for col in before])
    return taylor


def _from_taylor(taylor: Sequence[Sequence[int]]) -> LaurentPoly:
    """The polynomial form, of degree < kn: sum_i S_i (y - 1)^i in powers of
    y, where y^s takes (-1)^(i-s) C(i, s) S_i."""
    k = len(taylor)
    out: list[int] = []
    for s in range(k):
        block = taylor[s]
        for i in range(s + 1, k):
            block = list(map(add, block, map(((-1) ** (i - s) * comb(i, s)).__mul__, taylor[i])))
        out.extend(block)
    return LaurentPoly(0, out)


# ---- packed elements: one nonnegative integer per Taylor vector ----
#
# A q-Pascal row only adds, moves classes and scales by C(u, i) >= 0, so its
# Taylor digits are nonnegative.  There a vector S_i is held as the one int
# P_i = sum_r S_i[r] B^r, B = 2^(8w), at a byte width w that every digit
# provably fits in (_digit_bits).  Adding, scaling by a nonnegative int and
# moving whole digits are then integer operations with no carry between
# digits, and a change of width is a byte-strided copy (_repack).  A packed
# element is its vectors, or (width, vectors) where widths differ.


def _digit_bits(degree: int, total: int, n: int, k: int) -> int:
    """Bits that hold every Taylor digit in Z[q]/((q^n - 1)^k) of a
    polynomial with nonnegative coefficients c_e summing to at most total,
    of degree at most degree.  S_i[r] = sum_j C(j, i) c_(jn+r) with
    j <= degree // n = t, so S_i[r] <= C(t, i) total, and C(t, i) over
    i < k is largest at i = min(k - 1, t // 2)."""
    top = degree // n
    return (comb(top, min(k - 1, top // 2)) * total).bit_length()


def _repack(vectors: Sequence[int], count: int, w: int, to: int) -> list[int]:
    """Packed vectors of count digits, w bytes each, rewritten `to` bytes
    each, all in one byte-strided copy.  Raises OverflowError (an
    ArithmeticError) if a vector is negative or has more than count digits,
    and ArithmeticError if a digit does not fit in `to` bytes."""
    raw = b"".join(map(int.to_bytes, vectors, repeat(w * count), repeat("little")))
    digits = count * len(vectors)
    if to < w and any(raw[t::w].count(0) != digits for t in range(to, w)):
        raise ArithmeticError("packed digit does not fit the narrower width")
    out = bytearray(to * digits)
    for t in range(min(w, to)):
        out[t::to] = raw[t::w]
    view, size = memoryview(out), to * count
    return [int.from_bytes(view[i * size : (i + 1) * size], "little") for i in range(len(vectors))]


def _packed_step(x: Sequence[int], z: Sequence[int], j: int, n: int, w: int) -> list[int]:
    """x + q^j z, j >= 0, for packed elements at byte width w (the q-Pascal
    step); every digit of the result must fit in w bytes.  With j = u*n + r,
    every class of z gains y^u = (1 + e)^u, so S_i gains
    sum_(l<i) C(u, i-l) S_l; class c then moves to (c + r) mod n, which is
    one mask and two shifts, and the r classes that wrap past q^n gain one
    more y = 1 + e, so S_i gains the wrapped part of S_(i-1)."""
    u, r = divmod(j, n)
    bits = 8 * w
    low = bits * (n - r)
    mask = (1 << low) - 1
    out, wrapped = [], 0
    for i, s in enumerate(z):
        if u:
            for l in range(i):
                s += comb(u, i - l) * z[l]
        if r:
            top = s >> low
            s = ((s & mask) << bits * r) + top + wrapped
            wrapped = top
        out.append(x[i] + s)
    return out


def _packed_q2(x: Sequence[int], n: int, w: int, to: int) -> list[int]:
    """The image under q -> q^2 of a packed element at byte width w, at
    byte width `to`; a ring map since (q^(2n) - 1)^k is a multiple of
    (q^n - 1)^k.  q^r e^i goes to q^(2r) e^i (2 + e)^i, as q^(2n) - 1 is
    e (2 + e), and q^(2r) is q^(2r-n) y = q^(2r-n) (1 + e) when 2r >= n.
    So each S_i is spread by one re-pack to twice the width, digit r to 2r,
    and the digits past n - 1 move on to 2r - n; e^i (2 + e)^i =
    sum_m C(i, m) 2^(i-m) e^(i+m) mixes the spread vectors, and the wrapped
    classes add once more to the next power of e."""
    cut = 8 * to * n
    mask = (1 << cut) - 1
    spread, wrapped = [], []
    for s in _repack(x, n, w, 2 * to):
        top = s >> cut
        spread.append((s & mask) + top)
        wrapped.append(top)
    out = []
    for t in range(len(x)):
        # e^t takes C(i, t-i) 2^(2i-t) of each e^i with i <= t <= 2i, and the
        # same share of e^(t-1)'s wrapped classes
        value = sum((comb(i, t - i) << 2 * i - t) * spread[i] for i in range((t + 1) // 2, t + 1))
        value += sum((comb(i, t - 1 - i) << 2 * i - t + 1) * wrapped[i] for i in range(t // 2, t))
        out.append(value)
    return out


def _packed_value(vectors: Sequence[int], n: int, w: int) -> int:
    """The polynomial form of a packed element at byte width w, at
    q = B = 2^(8w): sum_i S_i(B) (B^n - 1)^i."""
    value = 0
    for p in reversed(vectors):
        value = (value << 8 * w * n) - value + p
    return value


def _packed_dot(terms: Sequence, xbits: int, ybits: int, n: int) -> LaurentPoly:
    """sum sign q^j X Y over terms (sign, j, x, y), X and Y the polynomial
    forms of packed elements x, y = (width, vectors) whose digits, those of
    q^j x included, are below 2^xbits and 2^ybits: an ordinary polynomial
    of degree < 2kn - 1, not yet folded.  Every factor is re-packed to one
    digit width w, in one copy per width the factors come in, q^j x is the
    step with no addend, and each product is taken by Kronecker
    substitution at B = 2^(8w) and summed as an integer, so the sum is read
    out of the digits once.  A form's coefficient sum_i +-C(i, s) S_i is
    below 2^k 2^bits in size."""
    k = len(terms[0][2][1])
    w = _digit_width(xbits + k, ybits + k, k * n * len(terms))
    by_width: dict[int, list[int]] = {}
    for _, _, x, y in terms:
        for width, vectors in (x, y):
            by_width.setdefault(width, []).extend(vectors)
    repacked = {width: iter(_repack(vectors, n, width, w)) for width, vectors in by_width.items()}
    total, zero = 0, [0] * k
    for sign, j, x, y in terms:
        xv, yv = ([next(repacked[width]) for _ in range(k)] for width, _ in (x, y))
        if j:
            xv = _packed_step(zero, xv, j, n, w)
        total += sign * _packed_value(xv, n, w) * _packed_value(yv, n, w)
    return LaurentPoly(0, _unpack(total, w, 2 * k * n - 1))


# ---- canonical text form ----


def to_text(p: LaurentPoly) -> str:
    """Render in the canonical text format, e.g. "q^2 - q + 1" or "-3*q^-2"."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        e = p.offset + i
        mag = abs(c)
        if parts:
            parts.append(" + " if c > 0 else " - ")
        else:
            parts.append("-" if c < 0 else "")
        if e == 0:
            parts.append(str(mag))
        elif mag == 1:
            parts.append("q" if e == 1 else f"q^{e}")
        else:
            parts.append(f"{mag}*q" if e == 1 else f"{mag}*q^{e}")
    return "".join(parts)


# one term as to_text writes it: a nonzero integer, or q with an optional
# N* (N >= 2) and ^E (E not 0 or 1), every number without leading zeros
_TERM_RE = re.compile(r"([1-9]\d*)|(?:([2-9]|[1-9]\d+)\*)?q(?:\^(-[1-9]\d*|[2-9]|[1-9]\d+))?")


def from_text(s: str) -> LaurentPoly:
    """Parse to_text's format: "0", or terms in strictly falling exponents
    joined by " + " or " - ", the first led by "-"."""
    if s == "0":
        return ZERO
    first_sign, body = ("-", s[1:]) if s.startswith("-") else ("+", s)
    chunks = re.split(r" ([+-]) ", body)
    pairs: list[tuple[int, int]] = []
    for sign, term in zip([first_sign, *chunks[1::2]], chunks[0::2]):
        m = _TERM_RE.fullmatch(term)
        if m is None:
            raise ValueError(f"unparseable polynomial term: {term!r}")
        const, coeff_s, exp_s = m.groups()
        e = 0 if const else int(exp_s or 1)
        if pairs and e >= pairs[-1][0]:
            raise ValueError(f"polynomial term {term!r} does not fall below the one before it")
        coeff = int(const or coeff_s or 1)
        pairs.append((e, -coeff if sign == "-" else coeff))
    return make_poly(pairs)
