"""Canonical rational functions in q: the field Q(q) as quotients of
integer polynomials.

Every value is kept in one normal form, so field equality is literal
componentwise equality: num and den are coprime in Z[q] and share no
integer factor, and den has a positive leading coefficient (zero is
0/1).  A rational scalar's denominator moves into den.  Every value the
library computes has a monic den.  Arithmetic follows the classical
reduced-fraction schemes (cross-gcd for products, Henrici's gcd-splitting
for sums) so intermediate results never need a full renormalization pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .polyq import ONE, Poly, ZERO, _homogeneous, check_rational


class RatFunc:
    """Immutable reduced fraction num/den of two integer polynomials in q,
    in the normal form of the module docstring."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | int | Fraction, den: Poly | int | Fraction = ONE,
                 _reduced: bool = False):
        if not _reduced:
            (num, a), (den, b) = _split(num), _split(den)
            if a != b:
                # (num/a) / (den/b) = (num b) / (den a)
                num, den = num * b, den * a
            if not den:
                raise ValueError("division by zero polynomial")
            # a constant denominator is coprime to num: only the scaling remains
            if num and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.divexact(g)
                    den = den.divexact(g)
            num, den = _normal(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "RatFunc":
        return cls(num, den, _reduced=True)

    def __reduce__(self) -> tuple:
        # the default restores __slots__ through __setattr__, which refuses;
        # the state is already canonical, so no gcd runs on the way back
        return RatFunc._raw, (self.num, self.den)

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatFunc | Poly | int | Fraction") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        an, ad = self.num, self.den
        bn, bd = other.num, other.den
        if ad == ONE and bd == ONE:
            return RatFunc._raw(an + bn, ONE)
        d = ad.gcd(bd)
        if d.degree == 0:
            return RatFunc._raw(*_normal(an * bd + bn * ad, ad * bd))
        ad1 = ad.divexact(d)
        t = an * bd.divexact(d) + bn * ad1
        if not t:
            return RF_ZERO
        h = t.gcd(d)
        if h.degree > 0:
            t = t.divexact(h)
            bd = bd.divexact(h)
        return RatFunc._raw(*_normal(t, ad1 * bd))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other: "RatFunc | Poly | int | Fraction") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RatFunc | Poly | int | Fraction") -> "RatFunc":
        return (-self) + other

    def __mul__(self, other: "RatFunc | Poly | int | Fraction") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        an, ad = self.num, self.den
        bn, bd = other.num, other.den
        if not an or not bn:
            return RF_ZERO
        if ad == ONE and bd == ONE:
            return RatFunc._raw(an * bn, ONE)
        g1 = an.gcd(bd)
        if g1.degree > 0:
            an = an.divexact(g1)
            bd = bd.divexact(g1)
        g2 = bn.gcd(ad)
        if g2.degree > 0:
            bn = bn.divexact(g2)
            ad = ad.divexact(g2)
        return RatFunc._raw(*_normal(an * bn, ad * bd))

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ValueError("division by zero rational function")
        return RatFunc._raw(*_normal(self.den, self.num))

    def __truediv__(self, other: "RatFunc | Poly | int | Fraction") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: "RatFunc | Poly | int | Fraction") -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._raw(self.num**n, self.den**n)

    def substitute_power(self, d: int) -> "RatFunc":
        """q -> q**d; the normal form survives."""
        if d < 1:
            raise ValueError("substitution exponent must be positive")
        if d == 1:
            return self
        return RatFunc._raw(self.num.substitute_power(d), self.den.substitute_power(d))

    def evaluate(self, q0: Fraction | int) -> Fraction:
        check_rational(q0, "evaluation point")
        a, b = q0.numerator, q0.denominator
        dv = _homogeneous(self.den._c, a, b)
        if dv == 0:
            raise ValueError("pole at evaluation point")
        # with N = b^deg(num) num(a/b) and D = b^deg(den) den(a/b), the
        # value is N b^deg(den) / (D b^deg(num))
        lift = len(self.den._c) - len(self.num._c)
        nv = _homogeneous(self.num._c, a, b)
        return Fraction(nv * b ** lift, dv) if lift >= 0 else Fraction(nv, dv * b ** -lift)

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        ns = str(self.num)
        if len(self.num._c) - self.num._c.count(0) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den._c) - self.den._c.count(0) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


RF_ZERO = RatFunc._raw(ZERO, ONE)
RF_ONE = RatFunc._raw(ONE, ONE)


def _split(value: Poly | int | Fraction) -> tuple[Poly, int]:
    # value as an integer polynomial over a positive integer
    if isinstance(value, Poly):
        return value, 1
    if isinstance(value, Fraction):
        return Poly([value.numerator]), value.denominator
    return Poly([value]), 1


def _normal(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The normal form of num/den for num and den coprime in Q[q]: divide
    out the integer content they share, signed so that den's lead is
    positive."""
    if not num:
        return ZERO, ONE
    lc = den.leading_coeff
    if lc != 1:
        c = gcd(*num.coefficients(), *den.coefficients()) * (1 if lc > 0 else -1)
        if c != 1:
            content = Poly([c])
            num, den = num.divexact(content), den.divexact(content)
    return num, den


def _coerce(value: object) -> "RatFunc":
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        num, den = _split(value)
        return RatFunc._raw(num, Poly([den]))
    return NotImplemented


def rf_eval_rational(a: RatFunc, q0: Fraction | int) -> Fraction:
    return a.evaluate(q0)
