"""Exact Laurent polynomials in q over arbitrary-precision integers.

A polynomial is stored as an exponent ``offset`` (the lowest exponent
present, possibly negative) plus a dense tuple of integer coefficients for
exponents ``offset, offset+1, ...``.  Values are immutable and always kept
in canonical form: the zero polynomial is ``offset=0, coeffs=()``, and a
nonzero polynomial has nonzero first and last coefficients, so structural
equality is semantic equality.

Coefficients are plain Python ints; all arithmetic is exact at any
magnitude.  Large products are computed by Kronecker substitution (packing
the coefficient vector into one big integer), which hands the real work to
CPython's big-int multiplication.
"""
from __future__ import annotations

import re
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
        return LaurentPoly(self.offset, [-c for c in self.coeffs])

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [0] * (hi - lo)
        base = self.offset - lo
        for i, c in enumerate(self.coeffs):
            out[base + i] = c
        base = other.offset - lo
        for i, c in enumerate(other.coeffs):
            out[base + i] += c
        return LaurentPoly(lo, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentPoly(self.offset, [c * other for c in self.coeffs])
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
            if c == 1:
                return LaurentPoly(off, b)
            return LaurentPoly(off, [c * y for y in b])
        if len(a) * len(b) <= _SCHOOLBOOK_LIMIT:
            return LaurentPoly(off, _mul_schoolbook(a, b))
        return LaurentPoly(off, _mul_kronecker(a, b))

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
    # Evaluate both polynomials at 2^(8w), multiply as integers, and read the
    # product coefficients back out of the digits.  w is chosen so that every
    # coefficient of the product fits strictly inside half a digit, which
    # makes the signed (balanced) decoding unique.
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    bits = amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 2
    w = (bits + 7) // 8
    n = _pack(a, w) * _pack(b, w)
    return _unpack(n, w, len(a) + len(b) - 1)


def _pack(coeffs: Sequence[int], w: int) -> int:
    pos = bytearray(w * len(coeffs))
    neg = None
    for i, c in enumerate(coeffs):
        if c > 0:
            nb = (c.bit_length() + 7) // 8
            pos[i * w : i * w + nb] = c.to_bytes(nb, "little")
        elif c < 0:
            if neg is None:
                neg = bytearray(w * len(coeffs))
            c = -c
            nb = (c.bit_length() + 7) // 8
            neg[i * w : i * w + nb] = c.to_bytes(nb, "little")
    n = int.from_bytes(pos, "little")
    if neg is not None:
        n -= int.from_bytes(neg, "little")
    return n


def _unpack(n: int, w: int, count: int) -> list[int]:
    out = [0] * count
    if n == 0:
        return out
    sign = 1
    if n < 0:
        sign = -1
        n = -n
    raw = n.to_bytes(w * (count + 1), "little")
    base = 1 << (8 * w)
    half = base >> 1
    carry = 0
    for i in range(count):
        v = int.from_bytes(raw[i * w : (i + 1) * w], "little") + carry
        if v >= half:
            v -= base
            carry = 1
        else:
            carry = 0
        if v:
            out[i] = sign * v
    # a correct digit bound leaves nothing past the last coefficient
    assert carry == 0 and not any(raw[count * w :])
    return out


# ---- named operation surface ----


def add(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    return x + y


def mul(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    return x * y


def pow(x: LaurentPoly, e: int) -> LaurentPoly:  # noqa: A001 - named like the operator it wraps
    return x ** e


def shift(x: LaurentPoly, d: int) -> LaurentPoly:
    """Multiply by q^d."""
    if not x.coeffs:
        return ZERO
    return LaurentPoly(x.offset + d, x.coeffs)


def substitute_power(x: LaurentPoly, s: int) -> LaurentPoly:
    """Map q -> q^s, i.e. multiply every exponent by s.  s must be nonzero."""
    if s == 0:
        raise ValueError("substitution power must be nonzero")
    if not x.coeffs:
        return ZERO
    if s == 1:
        return x
    coeffs = x.coeffs
    step = abs(s)
    out = [0] * ((len(coeffs) - 1) * step + 1)
    if s > 0:
        for i, c in enumerate(coeffs):
            out[i * step] = c
        return LaurentPoly(x.offset * s, out)
    for i, c in enumerate(coeffs):
        out[(len(coeffs) - 1 - i) * step] = c
    return LaurentPoly((x.offset + len(coeffs) - 1) * s, out)


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
