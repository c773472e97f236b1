"""Dense univariate polynomials in q with integer coefficients.

A polynomial is its tuple of integer coefficients, so arithmetic runs on
Python's big integers; a rational function (`ratfunc`) keeps any integer
denominator in its denominator polynomial.  Multiplication is the
schoolbook product.  Exact division is exact in Z[q]: integer long
division in which every quotient digit must be an integer and the
remainder must vanish.  The gcd is the subresultant one; the library
calls it only inside `RatFunc` arithmetic: every other reduction in the
library runs packed, over cyclotomic exponent maps (`qcore`).

Packing is byte-wise.  An integer vector c_0..c_{n-1} whose entries lie in
[-2^{B-1}, 2^{B-1}), B a multiple of 8 bits, becomes its value at q = 2^B:
each c_i + 2^{B-1} is written as one B/8-byte field, `int.from_bytes`
reads all fields at once, and one subtraction removes the offsets.
Unpacking adds the offsets back, cuts the bytes of `int.to_bytes` into
fields and subtracts 2^{B-1} from each: balanced digits, so no carry loop.
Up to B = 64 the fields come from, and go back to, one `array("q")` of
int64 words: c_i + 2^{B-1} is the low B/8 bytes of c_i's word with bit 7
of the top one flipped, and c_i fits when the word's higher bytes are
that top byte's sign extension.  Strided byte slices move every field at
once, so a call costs a few operations per byte of width, not per
coefficient.  Wider fields are converted one at a time.
`Poly.pack`/`Poly.unpack` expose the pair, and
`balanced_bits` gives the least B for a coefficient bound.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Sequence


def _content(vec: Sequence[int]) -> int:
    g = 0
    for c in vec:
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def _trim(vec: list[int]) -> list[int]:
    n = len(vec)
    while n and vec[n - 1] == 0:
        n -= 1
    del vec[n:]
    return vec


# bit 7 of a byte flipped, and the byte that sign-extends it
_FLIP = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))
# array("q") words are native int64s: little-endian fields need a swap on
# a big-endian host
_BIG_ENDIAN = sys.byteorder == "big"
assert array("q").itemsize == 8


def _balanced_bias(n: int, nbytes: int) -> int:
    # the offset 2^{8 nbytes - 1} in each of n digits, as one integer
    return int.from_bytes((b"\x00" * (nbytes - 1) + b"\x80") * n, "little")


def _pack(vec: Sequence[int], bits: int) -> int:
    # sum vec[i] 2^{bits i}; every digit offset into [0, 2^bits) is one
    # fixed-width byte field, and one subtraction takes the offsets back out.
    # Raises OverflowError when a coefficient does not fit.
    nbytes = bits >> 3
    if nbytes > 8:
        half = 1 << (bits - 1)
        raw = b"".join([(c + half).to_bytes(nbytes, "little") for c in vec])
        return int.from_bytes(raw, "little") - _balanced_bias(len(vec), nbytes)
    # one int64 per coefficient; a coefficient fits when bytes nbytes..7
    # of its word are the sign extension of byte nbytes - 1, and then its
    # low nbytes bytes with bit 7 of the top one flipped are c + 2^{bits-1}
    words = array("q", vec)
    if _BIG_ENDIAN:
        words.byteswap()
    raw = words.tobytes()
    top = raw[nbytes - 1::8]
    sign = top.translate(_SIGN)
    for k in range(nbytes, 8):
        if raw[k::8] != sign:
            raise OverflowError(f"a coefficient does not fit {bits} bits")
    buf = bytearray(len(vec) * nbytes)
    for k in range(nbytes - 1):
        buf[k::nbytes] = raw[k::8]
    buf[nbytes - 1::nbytes] = top.translate(_FLIP)
    return int.from_bytes(buf, "little") - _balanced_bias(len(vec), nbytes)


def _unpack(value: int, bits: int, n: int) -> list[int]:
    # the n balanced base-2^bits digits of value, each in [-2^{bits-1}, 2^{bits-1})
    nbytes = bits >> 3
    data = (value + _balanced_bias(n, nbytes)).to_bytes(n * nbytes, "little")
    if nbytes > 8:
        half = 1 << (bits - 1)
        return [int.from_bytes(data[i:i + nbytes], "little") - half
                for i in range(0, n * nbytes, nbytes)]
    # the inverse of _pack: flip the top byte of each field back, then
    # sign-extend every field into an int64 word
    top = data[nbytes - 1::nbytes].translate(_FLIP)
    sign = top.translate(_SIGN)
    buf = bytearray(8 * n)
    for k in range(nbytes - 1):
        buf[k::8] = data[k::nbytes]
    buf[nbytes - 1::8] = top
    for k in range(nbytes, 8):
        buf[k::8] = sign
    words = array("q", buf)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def balanced_bits(bound: int) -> int:
    """The least multiple of 8 bits whose balanced digits hold every integer
    of magnitude at most bound: bound < 2**(bits - 1)."""
    return (bound.bit_length() + 8) // 8 * 8


def _school_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _vec_divexact(f: Sequence[int], g: Sequence[int]) -> list[int] | None:
    """The quotient f/g in Z[q] by integer long division, or None when g
    does not divide f there: a non-integer quotient digit or a nonzero
    remainder proves it, and the division stops at the first of them."""
    if not f:
        return []
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    lb = g[-1]
    m = len(g)
    qlen = len(f) - m + 1
    if qlen < 1:
        return None
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        top = rem[k + m - 1]
        if top:
            coef, r = divmod(top, lb)
            if r:
                return None
            quot[k] = coef
            for j in range(m - 1):
                rem[k + j] -= coef * g[j]
            rem[k + m - 1] = 0
    if any(rem[: m - 1]):
        return None
    return quot


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # lc(b)**(deg a - deg b + 1) * a mod b, all-integer
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        lead = r[k + db]
        for i in range(k + db):
            r[i] *= lb
        for j in range(db):
            r[k + j] -= lead * b[j]
        r[k + db] = 0
    del r[db:]
    _trim(r)
    return r


def _subresultant_gcd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    g, h = 1, 1
    while True:
        delta = len(a) - len(b)
        r = _pseudo_rem(a, b)
        if not r:
            break
        a, b = b, [c // (g * h**delta) for c in r]
        g = a[-1]
        h = h * g**delta // h**delta if delta else h
    c = _content(b)
    return [x // c for x in b]


def _vec_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        # gcd(f, 0) is f itself, normalized like any other gcd
        g = list(a or b)
        if g:
            c = _content(g) if g[-1] > 0 else -_content(g)
            g = [x // c for x in g]
        return g
    va = next(i for i, c in enumerate(a) if c)
    vb = next(i for i, c in enumerate(b) if c)
    v = min(va, vb)
    a1 = list(a[va:])
    b1 = list(b[vb:])
    ca, cb = _content(a1), _content(b1)
    if ca > 1:
        a1 = [c // ca for c in a1]
    if cb > 1:
        b1 = [c // cb for c in b1]
    if len(a1) == 1 or len(b1) == 1:
        g = [1]
    else:
        g = _subresultant_gcd(a1, b1)
    if g[-1] < 0:
        g = [-c for c in g]
    return [0] * v + g


class Poly:
    """Immutable dense polynomial in q with integer coefficients: int or
    integral Fraction coefficients are accepted, any other is a ValueError."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Fraction | int] = (), _raw: tuple[int, ...] | None = None):
        if _raw is not None:
            self._c = _raw
            return
        vec = []
        for c in coeffs:
            if isinstance(c, Fraction) and c.denominator == 1:
                c = c.numerator
            elif not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
            vec.append(c)
        self._c = tuple(_trim(vec))

    @classmethod
    def _make(cls, vec: list[int]) -> "Poly":
        return cls(_raw=tuple(_trim(vec)))

    @classmethod
    def q_power(cls, e: int) -> "Poly":
        if e < 0:
            raise ValueError("q exponent must be non-negative")
        return cls(_raw=(0,) * e + (1,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._c) - 1

    def coeff(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def coefficients(self) -> tuple[int, ...]:
        return self._c

    @property
    def leading_coeff(self) -> int:
        return self._c[-1] if self._c else 0

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __add__(self, other: "Poly | int"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = (self._c, other._c) if len(self._c) >= len(other._c) else (other._c, self._c)
        vec = list(a)
        for i, c in enumerate(b):
            vec[i] += c
        return Poly._make(vec)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(_raw=tuple(-c for c in self._c))

    def __sub__(self, other: "Poly | int"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Poly | int"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other: "Poly | int"):
        if isinstance(other, int):
            return Poly(_raw=tuple([c * other for c in self._c])) if other else ZERO
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self._c or not other._c:
            return ZERO
        return Poly(_raw=tuple(_school_mul(self._c, other._c)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, e: int) -> "Poly":
        """Multiply by q**e."""
        if e < 0:
            raise ValueError("shift exponent must be nonnegative")
        if not self._c:
            return self
        return Poly(_raw=(0,) * e + self._c)

    def substitute_power(self, d: int) -> "Poly":
        """The polynomial with q replaced by q**d."""
        if d < 1:
            raise ValueError("substitution exponent must be positive")
        if d == 1 or not self._c:
            return self
        vec = [0] * ((len(self._c) - 1) * d + 1)
        for i, c in enumerate(self._c):
            vec[i * d] = c
        return Poly(_raw=tuple(vec))

    def evaluate(self, x: Fraction | int) -> Fraction:
        check_rational(x, "evaluation point")
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def divexact(self, other: "Poly") -> "Poly":
        """Exact quotient in Z[q]; raises ValueError when other does not
        divide self there."""
        quot = _vec_divexact(self._c, other._c)
        if quot is None:
            raise ValueError("not an exact polynomial division")
        return Poly(_raw=tuple(quot))

    def divides(self, other: "Poly") -> bool:
        """Whether self divides other in Z[q]."""
        if not self._c:
            return not other._c
        return _vec_divexact(other._c, self._c) is not None

    def l1_norm(self) -> int:
        """Sum of the absolute values of the coefficients; it bounds every
        coefficient of a product it enters."""
        return sum(map(abs, self._c))

    def pack(self, bits: int) -> int:
        """The value at q = 2**bits of a polynomial whose coefficients lie in
        [-2**(bits - 1), 2**(bits - 1)); bits is a multiple of 8.

        Evaluation is a ring homomorphism, so sums and products of packed
        values are packed sums and products; `unpack` reads the polynomial
        back as long as its coefficients stay in that range.  Up to 64 bits
        the coefficients cross as one int64 word array; wider digits are
        written one byte field each.  A coefficient outside the range is a
        ValueError.
        """
        _check_bits(bits)
        try:
            return _pack(self._c, bits)
        except OverflowError:
            raise ValueError(f"a coefficient does not fit {bits}-bit balanced digits") from None

    @classmethod
    def unpack(cls, value: int, bits: int) -> "Poly":
        """The polynomial whose balanced base-2**bits digits are value: up to
        64 bits read back as one int64 word array, wider digits one byte
        field each."""
        _check_bits(bits)
        # a nonzero top digit c_d makes |value| >= 2^{bits d - 2}: d + 1 digits fit
        return cls._make(_unpack(value, bits, abs(value).bit_length() // bits + 2))

    def gcd(self, other: "Poly") -> "Poly":
        """Greatest common divisor, normalized primitive with positive lead."""
        return Poly(_raw=tuple(_vec_gcd(self._c, other._c)))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            body = _term_text(abs(c), i)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def _term_text(mag: int, power: int) -> str:
    if power == 0:
        return str(mag)
    qpart = "q" if power == 1 else f"q^{power}"
    return qpart if mag == 1 else f"{mag}{qpart}"


def _check_bits(bits: int) -> None:
    if bits < 8 or bits % 8:
        raise ValueError("packing width must be a positive multiple of 8 bits")


def check_rational(x: object, name: str) -> None:
    """Refuse x unless it is an int or a Fraction: a float is the binary
    fraction nearest the number it was written as, and a bool is no number,
    yet either would be computed on exactly."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, got {type(x).__name__}")


def _coerce(value: object) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly._make([value])
    return None


ZERO = Poly()
ONE = Poly([1])
Q = Poly([0, 1])
