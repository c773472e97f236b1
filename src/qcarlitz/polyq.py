"""Dense univariate polynomials in q with exact rational coefficients.

A polynomial is stored as a primitive integer coefficient vector plus a
single positive integer denominator, so bulk arithmetic runs on Python's
big integers.  Multiplication above a small cutoff packs the vectors into
one big integer each (Kronecker substitution); exact division above the
cutoff runs a Newton iteration on the reversed power series; gcd uses the
evaluation-based heuristic with a subresultant fallback.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Sequence

_KRON_CUTOFF = 1600  # len(a)*len(b) above which Kronecker multiplication wins
_DIV_CUTOFF = 48     # quotient length above which Newton division wins


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


def _pack(vec: Sequence[int], bits: int) -> int:
    # divide and conquer keeps this O(M(n*bits) log n) instead of quadratic
    n = len(vec)
    if n == 1:
        return vec[0]
    half = n >> 1
    return _pack(vec[:half], bits) + (_pack(vec[half:], bits) << (bits * half))


def _unpack_unsigned(value: int, bits: int, n: int, out: list[int]) -> None:
    if n == 1:
        out.append(value)
        return
    half = n >> 1
    shift = bits * half
    # shift/mask instead of divmod: identical floor semantics on Python ints,
    # but linear instead of a full long division per split
    lo = value & ((1 << shift) - 1)
    hi = value >> shift
    _unpack_unsigned(lo, bits, half, out)
    _unpack_unsigned(hi, bits, n - half, out)


def _kron_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    # every product coefficient is < min(len) * amax * bmax in magnitude
    bits = (amax * bmax * min(len(a), len(b))).bit_length() + 2
    prod = _pack(a, bits) * _pack(b, bits)
    n = len(a) + len(b) - 1
    digits: list[int] = []
    _unpack_unsigned(prod, bits, n, digits)
    # fold the floor-division residues back into balanced (signed) digits
    half = 1 << (bits - 1)
    full = 1 << bits
    carry = 0
    for i in range(n):
        d = digits[i] + carry
        if d >= half:
            d -= full
            carry = 1
        else:
            carry = 0
        digits[i] = d
    return digits


def _school_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _vec_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) * len(b) <= _KRON_CUTOFF:
        return _school_mul(a, b)
    return _kron_mul(a, b)


def _rv_normalize(vec: list[int], den: int) -> tuple[list[int], int]:
    _trim(vec)
    if not vec:
        return vec, 1
    if den < 0:
        den = -den
        vec = [-c for c in vec]
    g = _igcd(_content(vec), den)
    if g > 1:
        vec = [c // g for c in vec]
        den //= g
    return vec, den


def _rv_mul(a: Sequence[int], da: int, b: Sequence[int], db: int,
            trunc: int | None = None) -> tuple[list[int], int]:
    if trunc is not None:
        a = a[:trunc]
        b = b[:trunc]
    vec = _vec_mul(a, b)
    if trunc is not None:
        del vec[trunc:]
    return _rv_normalize(vec, da * db)


def _rv_sub(a: Sequence[int], da: int, b: Sequence[int], db: int) -> tuple[list[int], int]:
    g = _igcd(da, db)
    ma, mb = db // g, da // g
    n = max(len(a), len(b))
    vec = [0] * n
    for i, c in enumerate(a):
        vec[i] = c * ma
    for i, c in enumerate(b):
        vec[i] -= c * mb
    return _rv_normalize(vec, da * mb)


def _series_inv(c: Sequence[int], den: int, prec: int) -> tuple[list[int], int]:
    # inverse of the power series c/den, truncated to prec terms; c[0] != 0
    w: list[int] = [den]
    wd = c[0]
    if wd < 0:
        w, wd = [-den], -c[0]
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        t, td = _rv_mul(c, den, w, wd, trunc=k)
        t = [-x for x in t]
        t[0] += 2 * td
        w, wd = _rv_mul(w, wd, t, td, trunc=k)
    return w, wd


def _vec_divexact(fv: Sequence[int], fd: int, gv: Sequence[int], gd: int
                  ) -> tuple[list[int], int] | None:
    """Quotient of f/g over Q as (vec, den), or None when g does not divide f."""
    if not fv:
        return [], 1
    if not gv:
        raise ZeroDivisionError("polynomial division by zero")
    vf = next(i for i, c in enumerate(fv) if c)
    vg = next(i for i, c in enumerate(gv) if c)
    if vg > vf or len(gv) > len(fv):
        return None
    f1, fd1 = _rv_normalize(list(fv[vf:]), fd)
    g1 = list(gv[vg:])
    qlen = len(f1) - len(g1) + 1
    newton = None
    if qlen > _DIV_CUTOFF:
        if abs(g1[-1]) == gd:
            newton = "rev"
        elif abs(g1[0]) == gd:
            newton = "fwd"
    if newton:
        # Newton only when the relevant end is a unit, so the series
        # inverse keeps integer-sized coefficients
        if newton == "rev":
            w, wd = _series_inv(g1[::-1], gd, qlen)
            qr, qrd = _rv_mul(f1[::-1], fd1, w, wd, trunc=qlen)
            qr.extend([0] * (qlen - len(qr)))
            qv, qd = _rv_normalize(qr[::-1], qrd)
        else:
            w, wd = _series_inv(g1, gd, qlen)
            qv, qd = _rv_mul(f1, fd1, w, wd, trunc=qlen)
        pv, pd = _rv_mul(qv, qd, g1, gd)
        if pv != f1 or pd != fd1:
            return None
    elif fd1 == 1 and gd == 1 and qlen > _DIV_CUTOFF and _content(g1) == 1:
        qv = _int_divexact_primitive(f1, g1)
        if qv is None:
            return None
        qd = 1
    else:
        qv, qd = _school_divmod_exact(f1, fd1, g1, gd)
        if qv is None:
            return None
    pad = [0] * (vf - vg)
    return pad + qv, qd


def _int_divexact_primitive(f1: Sequence[int], g1: Sequence[int]) -> list[int] | None:
    # primitive integer divisor: an exact quotient over Q is integer, so any
    # non-integer step proves inexactness and we bail out immediately
    rem = list(f1)
    lb = g1[-1]
    m = len(g1)
    qlen = len(f1) - m + 1
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        top = rem[k + m - 1]
        if top:
            coef, r = divmod(top, lb)
            if r:
                return None
            quot[k] = coef
            for j in range(m - 1):
                rem[k + j] -= coef * g1[j]
            rem[k + m - 1] = 0
    if any(rem[: m - 1]):
        return None
    return quot


def _school_divmod_exact(f1: Sequence[int], fd: int, g1: Sequence[int], gd: int
                         ) -> tuple[list[int] | None, int]:
    # long division over Q; returns (None, 1) when the remainder is nonzero
    rem = [Fraction(c, fd) for c in f1]
    glead = Fraction(g1[-1], gd)
    gfrac = [Fraction(c, gd) for c in g1]
    qlen = len(f1) - len(g1) + 1
    quot = [Fraction(0)] * qlen
    for k in range(qlen - 1, -1, -1):
        coef = rem[k + len(g1) - 1] / glead
        if coef:
            quot[k] = coef
            for j in range(len(g1)):
                rem[k + j] -= coef * gfrac[j]
    if any(rem[: len(g1) - 1]):
        return None, 1
    den = 1
    for c in quot:
        den = den * c.denominator // _igcd(den, c.denominator)
    return _rv_normalize([int(c * den) for c in quot], den)


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


def _heu_gcd(a: list[int], b: list[int]) -> list[int] | None:
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    xi = 2 * min(amax, bmax) + 29
    for _ in range(6):
        fa = _horner(a, xi)
        fb = _horner(b, xi)
        h = _igcd(fa, fb)
        cand: list[int] = []
        while h:
            r = h % xi
            if 2 * r > xi:
                r -= xi
            cand.append(r)
            h = (h - r) // xi
        if cand:
            c = _content(cand)
            cand = [x // c for x in cand]
            if (_vec_divexact(a, 1, cand, 1) is not None
                    and _vec_divexact(b, 1, cand, 1) is not None):
                return cand
        xi = xi * 73794 // 27011 + 17
    return None


def _horner(vec: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(vec):
        acc = acc * x + c
    return acc


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
        g = _heu_gcd(a1, b1)
        if g is None:
            g = _subresultant_gcd(a1, b1)
    if g[-1] < 0:
        g = [-c for c in g]
    return [0] * v + g


class Poly:
    """Immutable dense polynomial in q over the rationals."""

    __slots__ = ("_c", "_den")

    def __init__(self, coeffs: Iterable[Fraction | int] = (), _raw: tuple[tuple[int, ...], int] | None = None):
        if _raw is not None:
            self._c, self._den = _raw
            return
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for c in fracs:
            den = den * c.denominator // _igcd(den, c.denominator)
        vec = _trim([int(c * den) for c in fracs])
        vec, den = _rv_normalize(vec, den)
        self._c = tuple(vec)
        self._den = den

    @classmethod
    def _make(cls, vec: list[int], den: int) -> "Poly":
        vec, den = _rv_normalize(vec, den)
        return cls(_raw=(tuple(vec), den))

    @classmethod
    def q_power(cls, e: int) -> "Poly":
        if e < 0:
            raise ValueError("q exponent must be non-negative")
        return cls(_raw=((0,) * e + (1,), 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._c) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._c):
            return Fraction(self._c[i], self._den)
        return Fraction(0)

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._c)

    @property
    def leading_coeff(self) -> Fraction:
        if not self._c:
            return Fraction(0)
        return Fraction(self._c[-1], self._den)

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == self._den

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._c == other._c and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._c, self._den))

    def __add__(self, other: "Poly | int | Fraction"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        g = _igcd(self._den, other._den)
        ma, mb = other._den // g, self._den // g
        n = max(len(self._c), len(other._c))
        vec = [0] * n
        for i, c in enumerate(self._c):
            vec[i] = c * ma
        for i, c in enumerate(other._c):
            vec[i] += c * mb
        return Poly._make(vec, self._den * ma)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(_raw=(tuple(-c for c in self._c), self._den))

    def __sub__(self, other: "Poly | int | Fraction"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Poly | int | Fraction"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other: "Poly | int | Fraction"):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self._c or not other._c:
            return ZERO
        return Poly._make(_vec_mul(self._c, other._c), self._den * other._den)

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
        return Poly(_raw=((0,) * e + self._c, self._den))

    def substitute_power(self, d: int) -> "Poly":
        """The polynomial with q replaced by q**d."""
        if d < 1:
            raise ValueError("substitution exponent must be positive")
        if d == 1 or not self._c:
            return self
        vec = [0] * ((len(self._c) - 1) * d + 1)
        for i, c in enumerate(self._c):
            vec[i * d] = c
        return Poly(_raw=(tuple(vec), self._den))

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc / self._den

    def divexact(self, other: "Poly") -> "Poly":
        """Exact quotient; raises ValueError when the division is not exact."""
        res = _vec_divexact(self._c, self._den, other._c, other._den)
        if res is None:
            raise ValueError("not an exact polynomial division")
        return Poly._make(*res)

    def divides(self, other: "Poly") -> bool:
        if not self._c:
            return not other._c
        return _vec_divexact(other._c, other._den, self._c, self._den) is not None

    def divide_out(self, factor: "Poly", period: int, limit: int) -> tuple["Poly", int]:
        """(self / factor**k, k) for the largest k <= limit with factor**k | self.

        factor must be a monic integer polynomial dividing q**period - 1,
        so self mod factor equals (self mod q**period - 1) mod factor.  Each
        trial folds the coefficients into period residues and divides only
        that short remainder; a full division runs only for a factor that
        is there, and by Gauss's lemma its quotient stays integral.
        """
        g = factor._c
        if factor._den != 1 or not g or g[-1] != 1:
            raise ValueError("divide_out needs a monic integer factor")
        vec: Sequence[int] = self._c
        k = 0
        while k < limit and vec:
            folded = [sum(vec[j::period]) for j in range(period)]
            if _int_divexact_primitive(folded, g) is None:
                break
            vec = _int_divexact_primitive(vec, g)
            if vec is None:
                raise ValueError(f"factor does not divide q^{period} - 1")
            k += 1
        return Poly(_raw=(tuple(vec), self._den)), k

    def gcd(self, other: "Poly") -> "Poly":
        """Greatest common divisor, normalized primitive with positive lead."""
        return Poly._make(_vec_gcd(self._c, other._c), 1)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            coeff = Fraction(c, self._den)
            body = _term_text(coeff, i)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+" if coeff > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def _term_text(coeff: Fraction, power: int) -> str:
    mag = abs(coeff)
    if power == 0:
        return str(mag)
    qpart = "q" if power == 1 else f"q^{power}"
    if mag == 1:
        return qpart
    if mag.denominator == 1:
        return f"{mag}{qpart}"
    return f"({mag}){qpart}"


def _coerce(value: object) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly([value])
    return None


ZERO = Poly()
ONE = Poly([1])
Q = Poly([0, 1])
