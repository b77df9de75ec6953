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
magnitude.  Large products are computed by Kronecker substitution (packing
the coefficient vector into one big integer), which hands the real work to
CPython's big-int multiplication.  A two-term factor (1 - q^up)/(1 - q^down)
needs no product: _step applies it in linear time.

The quotient ring Z[q]/((q^n - 1)^k) has its own form: per residue class
mod n, the Taylor coefficients at y = q^n = 1 (_taylor).  Multiplying by
q^j and substituting q -> q^2 act on that form directly, and
_from_taylor gives back the Euclidean remainder modulo (q^n - 1)^k, so
rem_monic's closed form for that modulus is the one constructor followed by
the basis change.  _taylor_dot sums products of elements in that form by
Kronecker substitution, evaluating each polynomial form at the digit base
straight from its Taylor vectors, and reads the sum's digits back once.
"""
from __future__ import annotations

import re
import sys
from itertools import accumulate, repeat
from math import comb
from operator import add, mul, neg, sub
from typing import Iterable, Sequence


class NonExactDivision(ArithmeticError):
    """Raised when exact_div is asked for a quotient that does not exist."""


class NotMonic(ValueError):
    """Raised when rem_monic gets a modulus without leading coefficient 1."""


class NegativeExponent(ValueError):
    """Raised when rem_monic gets a Laurent (offset < 0) operand."""


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
        if len(a) * len(b) <= _SCHOOLBOOK_LIMIT:
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

# crossover found by benchmarking: below this schoolbook wins, above it the
# packed big-int product does
_SCHOOLBOOK_LIMIT = 256


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
    w = _digit_width(max(map(abs, a)), max(map(abs, b)), min(len(a), len(b)))
    n = _pack(a, w) * _pack(b, w)
    return _unpack(n, w, len(a) + len(b) - 1)


def _digit_width(amax: int, bmax: int, terms: int) -> int:
    """Bytes w per digit such that |a| <= amax, |b| <= bmax and any sum of
    `terms` products a*b lie strictly inside (-B/2, B/2), B = 2^(8w)."""
    return (amax.bit_length() + bmax.bit_length() + terms.bit_length() + 2 + 7) // 8


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
    """Euclidean remainder of x modulo a monic ordinary polynomial m.

    Both operands must be ordinary polynomials (no negative exponents);
    Laurent callers clear denominators with shift() first, which is their
    responsibility because its soundness depends on the modulus.

    When m is exactly (q^n - 1)^k and x has at least twice its degree, the
    remainder is taken in closed form instead of by long division.  With
    y = q^n, the terms of x whose exponent is r mod n form q^r P_r(y), and
    modulo (y - 1)^k the polynomial P_r(y) = sum_j c_j y^j equals its Taylor
    polynomial at y = 1, sum_{i<k} S_i (y - 1)^i with S_i = sum_j C(j, i) c_j.
    Rewritten in powers of y and summed over r, this has degree < kn and
    differs from x by a multiple of m, so it is the Euclidean remainder,
    which is unique.  Shorter inputs and every other modulus use long
    division.
    """
    if x.offset < 0 and x.coeffs:
        raise NegativeExponent("dividend has negative exponents")
    if m.offset < 0 and m.coeffs:
        raise NegativeExponent("modulus has negative exponents")
    dm = m.degree
    if dm < 1 or m.coeffs[-1] != 1:
        raise NotMonic("modulus must be monic of degree >= 1")
    if x.degree < dm:
        return x
    if x.degree >= 2 * dm:
        nk = _power_of_qn_minus_one(m)
        if nk is not None:
            return _rem_taylor(x, *nk)
    buf = [0] * x.offset + list(x.coeffs)
    # skip the leading 1; reduce top-down against the nonzero lower terms
    lower = [(j + m.offset, c) for j, c in enumerate(m.coeffs[:-1]) if c]
    for i in range(len(buf) - 1, dm - 1, -1):
        c = buf[i]
        if c:
            buf[i] = 0
            base = i - dm
            for j, mc in lower:
                buf[base + j] -= c * mc
    return LaurentPoly(0, buf[:dm])


def _power_of_qn_minus_one(m: LaurentPoly) -> tuple[int, int] | None:
    """(n, k) when the monic m is exactly (q^n - 1)^k, else None."""
    c = m.coeffs
    if m.offset:
        return None
    n = 1
    while not c[n]:
        n += 1
    k, rest = divmod(len(c) - 1, n)
    if rest:
        return None
    expected = [0] * len(c)
    expected[::n] = [(-1) ** (k - i) * comb(k, i) for i in range(k + 1)]
    return (n, k) if c == tuple(expected) else None


def _rem_taylor(x: LaurentPoly, n: int, k: int) -> LaurentPoly:
    """x mod (q^n - 1)^k by Taylor sums per residue class (see rem_monic)."""
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
    # with j0 = (offset + i0) // n equal to base or base + 1
    base = offset // n
    rows = -(-len(coeffs) // n)
    # weights[l][t] = C(base + t, l); each row is the running sums of the row
    # before (hockey-stick identity)
    weights = [[1] * (rows + 1)]
    for i in range(1, k):
        weights.append(list(accumulate(weights[-1][:rows], initial=comb(base, i))))
    by_start = (weights, [w[1:] for w in weights])
    taylor = [[0] * n for _ in range(k)]
    for i0 in range(n):
        col = coeffs[i0::n]
        j0, r = divmod(offset + i0, n)
        w = by_start[j0 - base]
        taylor[0][r] = sum(col)
        for i in range(1, k):
            taylor[i][r] = sum(map(mul, w[i], col))
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
        max(max(map(abs, s)) for x in xs for s in x) << k,
        max(max(map(abs, s)) for y in ys for s in y) << k,
        k * n * len(xs),
    )
    bits = 8 * w
    total = sum(_taylor_value(x, bits) * _taylor_value(y, bits) * sign for x, y, sign in zip(xs, ys, signs))
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
        if parts:
            parts.append(" + " if c > 0 else " - ")
            mag = abs(c)
        else:
            parts.append("-" if c < 0 else "")
            mag = abs(c)
        if e == 0:
            parts.append(str(mag))
        elif mag == 1:
            parts.append("q" if e == 1 else f"q^{e}")
        else:
            parts.append(f"{mag}*q" if e == 1 else f"{mag}*q^{e}")
    return "".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:q(?:\^(-?\d+))?)?$")


def from_text(s: str) -> LaurentPoly:
    """Parse the canonical text format back into a polynomial."""
    s = s.strip()
    if s == "0":
        return ZERO
    pairs: list[tuple[int, int]] = []
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    for chunk in re.split(r" ([+-]) ", s):
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ValueError(f"unparseable polynomial term: {chunk!r}")
        coeff_s, exp_s = m.groups()
        has_q = "q" in chunk
        coeff = int(coeff_s) if coeff_s is not None else 1
        if not has_q:
            if coeff_s is None:
                raise ValueError(f"unparseable polynomial term: {chunk!r}")
            exp = 0
        else:
            exp = int(exp_s) if exp_s is not None else 1
        pairs.append((exp, sign * coeff))
    return make_poly(pairs)
