"""q-integers, q-power sums, and the cyclotomic arithmetic of denominators.

Every denominator the library builds is a product of cyclotomic
polynomials, since q^m - 1 = prod over d | m of Phi_d.  Such a product is
carried as an exponent map {d: e_d} (a Counter) standing for
prod Phi_d^{e_d}, and all of its arithmetic runs on packed integers, values
at q = 2^B.  `cyclotomic_value` gives Phi_d(2^B) exactly from the Moebius
product of the 2^{Bk} - 1, with no polynomial packed.  `cyclotomic_sum`
takes sums over the lcm of the maps, each join one integer product-sum
at its own width, and returns the last join still packed.  The one
cyclotomic reducer, `over_cyclotomic_packed`, gives the canonical form of
a packed numerator by trial division with each Phi_d of the map
(`packed_divide_out(value, bits, d, limit)`), with no gcd; a trial can
pass spuriously, so the reducer certifies its result with one coefficient
bound and at most one integer product.  The q-integers [x]_{q^d} here take
integer x; the Carlitz families take rational arguments themselves.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt, prod
from typing import Mapping, Sequence

from .polyq import ONE, Poly, ZERO, balanced_bits
from .ratfunc import RF_ZERO, RatFunc


def check_base(d: int) -> None:
    """Refuse a base exponent d of q^d that is not a positive int, at the
    entry: a float d would fail deep inside, in range or a list product."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"base exponent must be a positive int, got {d!r}")


# bounded: the test suite in one process reaches 91 keys, qlaws 51; typed,
# so a float base equal to a cached int one still reaches check_base
@lru_cache(maxsize=256, typed=True)
def q_int_poly(x: int, d: int = 1) -> Poly:
    """[x]_{q^d} = 1 + q^d + ... + q^{d(x-1)} as a plain polynomial."""
    check_base(d)
    if x < 0:
        raise ValueError("q-integer argument must be non-negative")
    if x == 0:
        return ZERO
    vec = [0] * (d * (x - 1) + 1)
    for i in range(x):
        vec[d * i] = 1
    return Poly(vec)


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def cyclotomic_poly(d: int) -> Poly:
    """Phi_d, the monic integer polynomial whose roots are the primitive
    d-th roots of unity, unpacked from Phi_d(2^bits).  Those roots lie on
    the unit circle, so Phi_d has Mahler measure 1 and its coefficients are
    at most C(phi(d), i) in magnitude: bits holds C(phi(d), phi(d) // 2)."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    phi = d
    for p in _prime_factors(d):
        phi -= phi // p
    bits = balanced_bits(comb(phi, phi // 2))
    return Poly.unpack(cyclotomic_value(d, bits), bits)


def q_power_minus_one_exponents(m: int, power: int = 1) -> Counter[int]:
    """Exponent map of (q^m - 1)^power: Phi_d^power for every d | m."""
    if m < 1:
        raise ValueError("q exponent must be positive")
    return Counter({d: power for d in _divisors(m) if power})


def q_int_exponents(t: int, b: int = 1) -> Counter[int]:
    """Exponent map of [t]_{q^b} = (q^{bt} - 1)/(q^b - 1): Phi_d for every
    d | bt with d not dividing b."""
    check_base(b)
    if t < 1:
        raise ValueError("q-integer argument must be positive")
    return Counter({d: 1 for d in _divisors(b * t) if b % d})


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


# bounded: a Carlitz pass to n = 40 asks for 1717 (d, bits) pairs, one to
# n = 60 for 4076
@lru_cache(maxsize=4096)
def cyclotomic_value(d: int, bits: int) -> int:
    """Phi_d(2^bits) as an exact integer, from the Moebius product
    prod over k | d of (2^{bits k} - 1)^{mu(d/k)}: mu(d/k) is (-1)^r when d/k
    is a product of r distinct primes and 0 otherwise.  No polynomial is
    built or packed."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    up = down = 1
    primes = _prime_factors(d)
    for r in range(len(primes) + 1):
        for ps in combinations(primes, r):
            factor = (1 << bits * (d // prod(ps))) - 1
            if r & 1:
                down *= factor
            else:
                up *= factor
    return up // down


# bounded: the test suite in one process reaches 89 keys, a carlitz-cross
# pass to n = 40 83
@lru_cache(maxsize=512)
def _cyclotomic_l1(d: int) -> int:
    """||Phi_d||_1."""
    return cyclotomic_poly(d).l1_norm()


def _norm_product(exps: Mapping[int, int]) -> int:
    # prod ||Phi_d||_1^{e_d}: it bounds every coefficient of prod Phi_d^{e_d}
    # and, times ||f||_inf, every coefficient of f prod Phi_d^{e_d}
    return prod(_cyclotomic_l1(d) ** e for d, e in exps.items())


def _packed_product(exps: Mapping[int, int], bits: int) -> int:
    # prod Phi_d(2^bits)^{e_d}, pairwise, so the large values meet once and
    # in balanced sizes
    values = [cyclotomic_value(d, bits) ** e for d, e in exps.items()]
    while len(values) > 1:
        values = [prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return prod(values)


def cyclotomic_product(exps: Mapping[int, int]) -> Poly:
    """prod Phi_d^{e_d} over the exponent map {d: e_d}: one integer product
    of the values at q = 2^w, w holding prod ||Phi_d||_1^{e_d}, which bounds
    every coefficient of the product, unpacked once."""
    bits = balanced_bits(_norm_product(exps))
    return Poly.unpack(_packed_product(exps, bits), bits)


def cyclotomic_sum(terms: Sequence[tuple[Poly, Counter[int]]]) -> tuple[int, int, Counter[int]]:
    """The sum of num / prod Phi_d^{e_d} over terms (num, {d: e_d}), num an
    integer polynomial, as one numerator over the lcm of the maps, not
    reduced: (value, bits, lcm) with value the numerator packed at
    q = 2^bits, the triple `over_cyclotomic_packed` takes.

    The two halves are summed first and then joined over the lcm of their
    maps, so a Phi_d is multiplied into about log(len(terms)) cofactors,
    not into one per term.  A join takes its halves unpacked and is one
    integer expression at q = 2^w,
    left(2^w) prod Phi_d(2^w)^{c_d} + right(2^w) prod Phi_d(2^w)^{c'_d} with
    c and c' the cofactor maps.  Each join takes its own w, holding
    ||left||_1 prod ||Phi_d||_1^{c_d} + ||right||_1 prod ||Phi_d||_1^{c'_d}:
    that bounds every coefficient of the joined numerator, so its digits
    are exact and nothing needs certifying; a single term packs at the
    width of its own L1 norm.  Products and sums only: no division, no gcd.
    """
    if len(terms) == 1:
        num, exps = terms[0]
        bits = balanced_bits(num.l1_norm())
        return num.pack(bits), bits, exps
    mid = len(terms) // 2
    left, left_exps = _unpacked_sum(terms[:mid])
    right, right_exps = _unpacked_sum(terms[mid:])
    lcm = left_exps | right_exps
    left_cof, right_cof = lcm - left_exps, lcm - right_exps
    bits = balanced_bits(left.l1_norm() * _norm_product(left_cof)
                         + right.l1_norm() * _norm_product(right_cof))
    return (left.pack(bits) * _packed_product(left_cof, bits)
            + right.pack(bits) * _packed_product(right_cof, bits)), bits, lcm


def _unpacked_sum(terms: Sequence[tuple[Poly, Counter[int]]]) -> tuple[Poly, Counter[int]]:
    # a half of a join as a Poly: a single term as it is, not packed and read back
    if len(terms) == 1:
        return terms[0]
    value, bits, exps = cyclotomic_sum(terms)
    return Poly.unpack(value, bits), exps


def _mod_mersenne(x: int, s: int) -> int:
    # x mod 2^s - 1 in linear time: 2^s = 1 there, so the bits of x above any
    # multiple h of s fold onto the bits below it
    while x.bit_length() > s + 1:
        h = (x.bit_length() // 2 + s - 1) // s * s
        x = (x >> h) + (x & ((1 << h) - 1))
    return x % ((1 << s) - 1)


def packed_divide_out(value: int, bits: int, d: int, limit: int) -> tuple[int, int]:
    """Trial division of the polynomial packed as value = f(2**bits) by
    Phi_d: (value // Phi_d(2**bits)**k, k) for the first k <= limit steps
    that succeed.

    Phi_d divides q**d - 1, so a trial is one integer remainder: value
    folded mod 2**(bits * d) - 1, then mod Phi_d(2**bits).  A failed trial
    proves that Phi_d does not divide f; a passing one can be spurious
    (85 (1 + q + q^2) at 8 bits over q - 1), so the caller has to certify
    the result (`over_cyclotomic_packed`).
    """
    divisor = cyclotomic_value(d, bits)
    k = 0
    while k < limit and value and not _mod_mersenne(value, bits * d) % divisor:
        value //= divisor
        k += 1
    return value, k


def over_cyclotomic_packed(value: int, bits: int,
                           exps: Mapping[int, int]) -> tuple[RatFunc, Counter[int]]:
    """The canonical RatFunc f / prod Phi_d^{e_d} for the integer numerator f
    packed as value = f(2^bits), every coefficient of f lying in
    [-2^(bits-1), 2^(bits-1)), and the exponent map of its denominator.

    The Phi_d are distinct monic irreducibles, so dividing each one out of
    f while it divides (at most e_d times, `packed_divide_out`) leaves a
    coprime pair with a monic denominator: the canonical form that a gcd
    against the expanded denominator would give.

    Every step is an exact integer division, so the quotient, unpacked
    once as g, satisfies g(2^bits) prod Phi_d(2^bits)^k_d = f(2^bits), but a
    trial can pass spuriously and g can outgrow the width, so the result
    is certified by one bound: w holds ||g||_inf prod ||Phi_d||_1^k_d, which
    bounds every coefficient of g prod Phi_d^k_d, since
    ||a b||_inf <= ||a||_inf ||b||_1.  If w <= bits, both sides of that
    identity are balanced bits-wide digits of one integer; otherwise they
    must agree at q = 2^w, where both fit.  Either way
    f = g prod Phi_d^k_d as polynomials, so every value the trials saw is
    the exact value at 2^bits of a polynomial that g divides, and every
    failed trial proves that its Phi_d does not divide g: nothing left
    needs a second trial.  If the product at 2^w disagrees, the same
    reduction runs again at twice the width.
    """
    if not value:
        return RF_ZERO, Counter()
    while True:
        x = value
        taken: Counter[int] = Counter()
        left: Counter[int] = Counter()
        for d in sorted(exps):
            x, k = packed_divide_out(x, bits, d, exps[d])
            if k:
                taken[d] = k
            if k < exps[d]:
                left[d] = exps[d] - k
        g = Poly.unpack(x, bits)
        w = balanced_bits(max(map(abs, g._c)) * _norm_product(taken))
        if w > bits:
            f = Poly.unpack(value, bits)
            if g.pack(w) * _packed_product(taken, w) != f.pack(w):
                bits *= 2
                value = f.pack(bits)
                continue
        return RatFunc._raw(g, cyclotomic_product(left)), left


def q_int(x: int, d: int = 1) -> RatFunc:
    return RatFunc._raw(q_int_poly(x, d), ONE)


# bounded: the test suite in one process reaches 232 keys, lemma2 to n = 12
# 225, the cross34 grid to n = 3, w = 3, y = 2 144; typed, as q_int_poly
@lru_cache(maxsize=512, typed=True)
def power_sum_T(n: int, m: int, w: int, d: int = 1) -> RatFunc:
    """T_{n,m}(w | q^d) = sum_{i=0..w} q^{dni} [i]_{q^d}^m, always a polynomial."""
    check_base(d)
    if min(n, m, w) < 0:
        raise ValueError("power sum indices must be non-negative")
    acc = ZERO
    for i in range(w + 1):
        acc = acc + (q_int_poly(i, d) ** m).shift(d * n * i)
    return RatFunc._raw(acc, ONE)
