"""q-integers, bracket arguments, multinomials, and q-power sums.

Every denominator the library builds is a product of cyclotomic
polynomials, since q^m - 1 = prod over d | m of Phi_d.  Such a product is
carried as an exponent map {d: e_d} (a Counter) standing for
prod Phi_d^{e_d}: sums are taken over the lcm of the maps with products
only, and one certified reducer gives the canonical form by trial
division, with no gcd: `over_cyclotomic_packed` for a numerator packed as
one integer, its value at q = 2^B, and `over_cyclotomic` for an integer
`Poly`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt, prod
from typing import Mapping, Sequence

from .polyq import ONE, Poly, ZERO, balanced_bits, packed_divide_out
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


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> Poly:
    """Phi_d, the monic integer polynomial whose roots are the primitive
    d-th roots of unity: q^d - 1 reduced over the Phi_e, e | d, e < d."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    # q^d - 1 packed at q = 2^8
    return over_cyclotomic_packed((1 << 8 * d) - 1, 8, dict.fromkeys(_divisors(d)[:-1], 1))[0].num


def q_power_minus_one_exponents(m: int, power: int = 1) -> Counter[int]:
    """Exponent map of (q^m - 1)^power: Phi_d^power for every d | m."""
    if m < 1:
        raise ValueError("q exponent must be positive")
    return Counter({d: power for d in _divisors(m) if power})


def q_int_exponents(t: int, b: int = 1) -> Counter[int]:
    """Exponent map of [t]_{q^b} = (q^{bt} - 1)/(q^b - 1): Phi_d for every
    d | bt with d not dividing b."""
    if t < 1:
        raise ValueError("q-integer argument must be positive")
    if b < 1:
        raise ValueError("base exponent must be positive")
    return Counter({d: 1 for d in _divisors(b * t) if b % d})


def cyclotomic_product(exps: Mapping[int, int]) -> Poly:
    """prod Phi_d^{e_d} over the exponent map {d: e_d}: one integer product
    of the values at q = 2^w, w holding prod ||Phi_d||_1^{e_d}, which bounds
    every coefficient of the product, unpacked once."""
    bits = balanced_bits(prod(cyclotomic_poly(d).l1_norm() ** e for d, e in exps.items()))
    values = [cyclotomic_poly(d).pack(bits) ** e for d, e in exps.items()]
    # pairwise, so the large products meet once and in balanced sizes
    while len(values) > 1:
        values = [prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return Poly.unpack(prod(values), bits)


def cyclotomic_sum(terms: Sequence[tuple[Poly, Counter[int]]]) -> tuple[Poly, Counter[int]]:
    """The sum of num / prod Phi_d^{e_d} over terms (num, {d: e_d}), as one
    numerator over the lcm of the maps.  Not reduced.

    The two halves are summed first and then joined over the lcm of their
    maps, so a Phi_d is multiplied into about log(len(terms)) cofactors,
    not into one per term.  Products only: no division, no gcd.
    """
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    left, left_exps = cyclotomic_sum(terms[:mid])
    right, right_exps = cyclotomic_sum(terms[mid:])
    lcm = left_exps | right_exps
    return (left * cyclotomic_product(lcm - left_exps)
            + right * cyclotomic_product(lcm - right_exps)), lcm


def over_cyclotomic(num: Poly, exps: Mapping[int, int]) -> tuple[RatFunc, Counter[int]]:
    """The canonical RatFunc num / prod Phi_d^{e_d} for an integer polynomial
    num, and the exponent map of its denominator: `over_cyclotomic_packed`
    on num packed at a width that holds its L1 norm.  A rational num raises
    ValueError; `RatFunc` reduces those.
    """
    bits = balanced_bits(num.l1_norm())
    return over_cyclotomic_packed(num.pack(bits), bits, exps)


def over_cyclotomic_packed(value: int, bits: int,
                           exps: Mapping[int, int]) -> tuple[RatFunc, Counter[int]]:
    """The canonical RatFunc f / prod Phi_d^{e_d} for the integer numerator f
    packed as value = f(2^bits), every coefficient of f lying in
    [-2^(bits-1), 2^(bits-1)), and the exponent map of its denominator.

    The Phi_d are distinct monic irreducibles, so dividing each one out of
    f while it divides (at most e_d times, `packed_divide_out`) leaves a
    coprime pair with a monic denominator: the canonical form that a gcd
    against the expanded denominator would give.

    Every step is an exact integer division, so the quotient x, unpacked
    once as g, satisfies g(2^bits) prod Phi_d(2^bits)^k_d = f(2^bits), but a
    trial can pass spuriously and g can outgrow the width, so the result
    is certified.  If ||g||_inf prod ||Phi_d||_1^k_d < 2^(bits-1), it bounds
    every coefficient of g prod Phi_d^k_d, so both sides of that integer
    identity are balanced bits-wide digits of one integer: the same
    polynomial.  Then every step was a polynomial division, and every
    failed trial proves that its Phi_d does not divide g.  Otherwise f is
    unpacked, g * prod Phi_d^k_d must equal f at q = 2^w, w holding
    ||g||_1 prod ||Phi_d||_1^k_d (both sides fit, so as polynomials), and no
    trial by a Phi_d that is left may pass at w (a spurious pass costs a
    retry, not a wrong answer).  Failing that, the same reduction runs
    again at twice the width.
    """
    if not value:
        return RF_ZERO, Counter()
    while True:
        x = value
        taken: Counter[int] = Counter()
        left: Counter[int] = Counter()
        for d in sorted(exps):
            x, k = packed_divide_out(x, bits, cyclotomic_poly(d), d, exps[d])
            if k:
                taken[d] = k
            if k < exps[d]:
                left[d] = exps[d] - k
        g = Poly.unpack(x, bits)
        norm = prod(cyclotomic_poly(d).l1_norm() ** k for d, k in taken.items())
        if balanced_bits(max(map(abs, g._c)) * norm) > bits:
            f = Poly.unpack(value, bits)
            w = balanced_bits(g.l1_norm() * norm)
            x = g.pack(w)
            if (x * prod(cyclotomic_poly(d).pack(w) ** k for d, k in taken.items()) != f.pack(w)
                    or any(packed_divide_out(x, w, cyclotomic_poly(d), d, 1)[1] for d in left)):
                bits *= 2
                value = f.pack(bits)
                continue
        return RatFunc._raw(g, cyclotomic_product(left)), left


def q_int(x: int, d: int = 1) -> RatFunc:
    return RatFunc._raw(q_int_poly(x, d), ONE)


def q_arg_bracket(x: QArg) -> RatFunc:
    """[x]_{q^d} = (q^e - 1)/(q^d - 1) for the carried argument x = e/d."""
    if x.is_integer:
        return q_int(x.e // x.d, x.d)
    return over_cyclotomic(Poly.q_power(x.e) - ONE, q_power_minus_one_exponents(x.d))[0]


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
