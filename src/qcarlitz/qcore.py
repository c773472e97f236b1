"""q-integers, bracket arguments, multinomials, and q-power sums."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .polyq import ONE, Poly, ZERO
from .ratfunc import RF_ZERO, RatFunc


@dataclass(frozen=True)
class QArg:
    """Argument x = e/d of a base-q^d family, carried as the monomial q^e.

    Stored as given: (e, d) is not reduced, since every consumer only ever
    needs the monomial q^e and the base q^d themselves.
    """

    e: int
    d: int

    def __post_init__(self) -> None:
        if self.e < 0:
            raise ValueError("q exponent must be non-negative")
        if self.d < 1:
            raise ValueError("base exponent must be positive")

    @property
    def is_integer(self) -> bool:
        return self.e % self.d == 0

    def integer_value(self) -> int:
        if not self.is_integer:
            raise ValueError(f"argument {self.e}/{self.d} is not an integer")
        return self.e // self.d


@lru_cache(maxsize=None)
def q_int_poly(x: int, d: int = 1) -> Poly:
    """[x]_{q^d} = 1 + q^d + ... + q^{d(x-1)} as a plain polynomial."""
    if x < 0:
        raise ValueError("q-integer argument must be non-negative")
    if d < 1:
        raise ValueError("base exponent must be positive")
    if x == 0:
        return ZERO
    vec = [0] * (d * (x - 1) + 1)
    for i in range(x):
        vec[d * i] = 1
    return Poly(vec)


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> Poly:
    """Phi_d, the monic integer polynomial whose roots are the primitive
    d-th roots of unity, from q^d - 1 = prod over e | d of Phi_e."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    out = Poly.q_power(d) - ONE
    for e in range(1, d):
        if d % e == 0:
            out = out.divexact(cyclotomic_poly(e))
    return out


def q_int(x: int, d: int = 1) -> RatFunc:
    return RatFunc._raw(q_int_poly(x, d), ONE)


@lru_cache(maxsize=None)
def q_arg_bracket(x: QArg) -> RatFunc:
    """[x]_{q^d} = (1 - q^e)/(1 - q^d) for the carried argument x = e/d."""
    if x.is_integer:
        return q_int(x.e // x.d, x.d)
    num = Poly([1]) - Poly.q_power(x.e)
    den = Poly([1]) - Poly.q_power(x.d)
    return RatFunc(num, den)


def multinomial(n: int, k: int, l: int, m: int) -> int:
    """n!/(k! l! m!) for a genuine three-part composition of n."""
    if min(n, k, l, m) < 0:
        raise ValueError("multinomial arguments must be non-negative")
    if k + l + m != n:
        raise ValueError(f"parts {k}+{l}+{m} do not sum to {n}")
    return comb(n, k) * comb(n - k, l)


@lru_cache(maxsize=None)
def power_sum_T(n: int, m: int, w: int, d: int = 1) -> RatFunc:
    """T_{n,m}(w | q^d) = sum_{i=0..w} q^{dni} [i]_{q^d}^m, always a polynomial."""
    if min(n, m, w) < 0:
        raise ValueError("power sum indices must be non-negative")
    if d < 1:
        raise ValueError("base exponent must be positive")
    acc = ZERO
    for i in range(w + 1):
        acc = acc + (q_int_poly(i, d) ** m).shift(d * n * i)
    return RatFunc._raw(acc, ONE)
