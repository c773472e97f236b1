"""q-integers, q-power sums, and the cyclotomic arithmetic of denominators.

Every denominator the library builds is a product of cyclotomic
polynomials, since q^m - 1 = prod over d | m of Phi_d.  Such a product is
carried as an exponent map {d: e_d} (a Counter) standing for
prod Phi_d^{e_d}, and all of its arithmetic runs on packed integers, values
at q = 2^B.  `cyclotomic_value` gives Phi_d(2^B) exactly from the Moebius
product of the 2^{Bk} - 1, with no polynomial packed.  `cyclotomic_sum`
takes sums of scaled, shifted numerators over the lcm of the maps as one
left fold over the running lcm, at one width read off the terms' L1
norms, each term packed once, and returns the sum still packed.  A
q-integer [t]_{q^d} at q = 2^B is (2^{Bdt} - 1) / (2^{Bd} - 1), so
`divide_mersenne`, an exact division by 2^s - 1 in linear time, takes
one out of a packed product.  The one cyclotomic reducer,
`over_cyclotomic_packed`, gives the canonical form of a packed numerator
by trial division with each Phi_d of the map
(`packed_divide_out(value, bits, d, limit)`), with no gcd; a trial can
pass spuriously, so the reducer certifies f = g h for its quotient g and
the product h of the factors taken, by a coefficient bound and, where the
bound does not fit the width, one integer product with h expanded.  Each
product of cyclotomic polynomials is expanded once per exponent map
(`cyclotomic_product`), for the certificate's h and for the reduced
denominator alike.  The q-integers [x]_{q^d} here take integer x; the
Carlitz families take rational arguments themselves.  `Record` is the
base of the library's immutable parameter, job and report types.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, total_ordering
from itertools import combinations
from math import comb, isqrt, prod
from typing import Mapping, Sequence

from .polyq import ONE, Poly, ZERO, balanced_bits
from .ratfunc import RF_ZERO, RatFunc


def check_base(d: int) -> None:
    """Refuse a base exponent d of q^d that is not a positive int, at the
    entry: a float d would fail deep inside, in range or a list product."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"base exponent must be a positive int, got {d!r}")


def check_index(value: int, name: str) -> None:
    """Refuse a degree or index that is not an int, at the entry: a bool
    would be computed on as 0 or 1, and a float fail deep inside."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


class Record:
    """Immutable record over `__slots__`: its fields are the slots of its
    classes, base first, in the order of its `__init__` parameters.  A
    record equals a record of the same class with equal fields, hashes by
    its fields, prints as Name(field=value, ...), refuses assignment, and
    is pickled and copied through `__init__`, so a rebuilt record passes
    the same checks.  A subclass sets its fields with `object.__setattr__`."""

    __slots__ = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._names += cls.__dict__["__slots__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


@total_ordering
class OrderedRecord(Record):
    """A `Record` that also orders against records of its own class, by its
    fields in turn."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() < other._values()


# bounded: the test suite in one process reaches 91 keys, qlaws 51; typed,
# so a float or bool base equal to a cached int one still reaches check_base
@lru_cache(maxsize=256, typed=True)
def q_int_poly(x: int, d: int = 1) -> Poly:
    """[x]_{q^d} = 1 + q^d + ... + q^{d(x-1)} as a plain polynomial."""
    check_index(x, "x")
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
    check_index(d, "d")
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    phi = d
    for p in _prime_factors(d):
        phi -= phi // p
    bits = balanced_bits(comb(phi, phi // 2))
    return Poly.unpack(cyclotomic_value(d, bits), bits)


def q_power_minus_one_exponents(m: int, power: int = 1) -> Counter[int]:
    """Exponent map of (q^m - 1)^power: Phi_d^power for every d | m."""
    check_index(m, "m")
    check_index(power, "power")
    if m < 1:
        raise ValueError("q exponent must be positive")
    if power < 0:
        raise ValueError("power must be non-negative")
    return Counter({d: power for d in _divisors(m) if power})


def q_int_exponents(t: int, b: int = 1) -> Counter[int]:
    """Exponent map of [t]_{q^b} = (q^{bt} - 1)/(q^b - 1): Phi_d for every
    d | bt with d not dividing b."""
    check_index(t, "t")
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


# bounded: distinct (d, bits) pairs, counted through a wrapper: carlitz-cross
# to n = 40 1494, to n = 60 3647, the test suite in one process 2529, the
# thm1 grid to n = 4 110 and the cross34 grid to n = 3 50, since the reducer's
# certificate packs its expanded product instead of asking at its own widths
@lru_cache(maxsize=4096)
def cyclotomic_value(d: int, bits: int) -> int:
    """Phi_d(2^bits) as an exact integer, from the Moebius product
    prod over k | d of (2^{bits k} - 1)^{mu(d/k)}: mu(d/k) is (-1)^r when d/k
    is a product of r distinct primes and 0 otherwise.  No polynomial is
    built or packed."""
    check_index(bits, "bits")
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    if bits < 1:
        raise ValueError("bits must be positive")
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


# bounded: the test suite in one process reaches 91 keys, a carlitz-cross
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
    """prod Phi_d^{e_d} over the exponent map {d: e_d}, expanded once per
    map: the reducer asks for the same few maps at every point."""
    return _expanded_product(tuple(sorted((d, e) for d, e in exps.items() if e)))


# bounded: the test suite in one process reaches 485 maps, the thm1 grid to
# n = 4 62, the cross34 grid to n = 3 46, carlitz-cross to n = 40 130
@lru_cache(maxsize=1024)
def _expanded_product(key: tuple[tuple[int, int], ...]) -> Poly:
    # one integer product of the values at q = 2^w, w holding
    # prod ||Phi_d||_1^{e_d}, which bounds every coefficient of the product,
    # unpacked once
    exps = dict(key)
    bits = balanced_bits(_norm_product(exps))
    return Poly.unpack(_packed_product(exps, bits), bits)


def cyclotomic_sum(terms: Sequence[tuple[Poly, int, int, Mapping[int, int]]]
                   ) -> tuple[int, int, Counter[int]]:
    """The sum of scale q^shift num / prod Phi_d^{e_d} over terms
    (num, scale, shift, {d: e_d}), num an integer polynomial, scale an int
    and shift >= 0, as one numerator over the lcm of the maps, not
    reduced: (value, bits, lcm) with value the numerator packed at
    q = 2^bits, the triple `over_cyclotomic_packed` takes.

    One left fold over the running lcm: a term's map adds grow to the lcm
    of the maps before it and lacks cof of it, so the sum so far takes
    prod Phi_d^{grow_d} and the term prod Phi_d^{cof_d}.  The width comes
    first, from bound <- bound prod ||Phi_d||_1^{grow_d}
    + |scale| ||num||_1 prod ||Phi_d||_1^{cof_d}, which comes in any order
    to sum |scale| ||num||_1 prod ||Phi_d||_1^{c_d}, c the lcm less the
    term's map: that holds every coefficient of the numerator, so the
    digits are exact and nothing needs certifying.  Each num is packed
    once, nothing unpacked; no terms sum to (0, 8, Counter()).  Products
    and sums only: no division, no gcd.
    """
    lcm, steps, bound = Counter(), [], 0
    for num, scale, shift, exps in terms:
        grow = {d: e - lcm[d] for d, e in exps.items() if e > lcm[d]}
        cof = {d: e - exps.get(d, 0) for d, e in lcm.items() if e > exps.get(d, 0)}
        lcm.update(grow)
        bound = bound * _norm_product(grow) + abs(scale) * num.l1_norm() * _norm_product(cof)
        steps.append((num, scale, shift, grow, cof))
    bits = balanced_bits(bound)
    value = 0
    for num, scale, shift, grow, cof in steps:
        if value:
            value *= _packed_product(grow, bits)
        value += scale * num.pack(bits) * _packed_product(cof, bits) << bits * shift
    return value, bits, lcm


def divide_mersenne(x: int, s: int) -> int:
    """x // (2^s - 1) for a non-negative multiple x of 2^s - 1, in time
    linear in the size of x, where a long division is quadratic.  The
    quotient y has x = (y << s) - y, so y = -x (1 + 2^s + 2^{2s} + ...),
    the 2-adic inverse of 1 - 2^s, which is summed by doubling modulo 2^m,
    m bits holding y < 2^{len(x) - s + 1}.  The quotient is checked
    against x: any other x is an ArithmeticError."""
    if s < 1:
        raise ValueError(f"divisor 2^s - 1 needs s >= 1, got {s!r}")
    m = max(x.bit_length() - s + 1, 1)
    mask = (1 << m) - 1
    y, k = x & mask, s
    while k < m:
        y = (y + (y << k)) & mask
        k <<= 1
    y = -y & mask
    if (y << s) - y != x:
        raise ArithmeticError(f"{x} is not a non-negative multiple of 2^{s} - 1")
    return y


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
    once as g, satisfies g(2^bits) h(2^bits) = f(2^bits) for the product
    h = prod Phi_d^k_d of the factors taken, but a trial can pass
    spuriously and g can outgrow the width, so the result is certified:
    f = g h as polynomials.  That holds when a width w holding every
    coefficient of g h is at most bits, since both sides are then balanced
    bits-wide digits of one integer, or when the two sides agree at
    q = 2^w, where both fit.  w holds ||g||_inf prod ||Phi_d||_1^k_d, as
    ||a b||_inf <= ||a||_inf ||b||_1, and where that exceeds bits,
    ||g||_inf ||h||_1 with h expanded (`cyclotomic_product`), which is far
    smaller when h holds every divisor of some m: ||Phi_1 Phi_2 Phi_3 Phi_6||_1
    = ||q^6 - 1||_1 = 2, the product of the four norms 36.  Once f = g h,
    every value the trials saw is the exact value at 2^bits of a
    polynomial that g divides, and every failed trial proves that its
    Phi_d does not divide g: the factors left stand.

    If g h and f disagree at 2^w, g outgrew the width or a trial passed
    spuriously, and `_certified_quotient` divides f once by h at a wider
    width: with no remainder the quotient is the new g, certified as above,
    and no trial runs again; a remainder shows that h does not divide f,
    and only then do the trials run again, at that width.
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
        if balanced_bits(max(map(abs, g._c)) * _norm_product(taken)) <= bits:
            break
        f = Poly.unpack(value, bits)
        g, bits = _certified_quotient(f, g, cyclotomic_product(taken), bits)
        if g is not None:
            break
        # a trial passed spuriously: the trials run again at the wider width
        value = f.pack(bits)
    return RatFunc._raw(g, cyclotomic_product(left)), left


def _certified_quotient(f: Poly, g: Poly, h: Poly, bits: int) -> tuple[Poly | None, int]:
    """(g, bits) with f = g h as polynomials, given g(2^bits) h(2^bits) =
    f(2^bits) and g nonzero, certified as in `over_cyclotomic_packed` with
    w from ||g||_inf ||h||_1; or (None, bits) once a remainder shows that h
    does not divide f.  Each division runs at max(2 bits, w): w holds
    ||h||_inf, so h packs there, and the width at least doubles, so in the
    end a quotient of f fits it or a remainder shows."""
    while True:
        w = balanced_bits(max(map(abs, g._c)) * h.l1_norm())
        if w <= bits or g.pack(w) * h.pack(w) == f.pack(w):
            return g, bits
        bits = max(2 * bits, w)
        x, r = divmod(f.pack(bits), h.pack(bits))
        if r:
            return None, bits
        g = Poly.unpack(x, bits)


def q_int(x: int, d: int = 1) -> RatFunc:
    return RatFunc._raw(q_int_poly(x, d), ONE)


# bounded: the test suite in one process reaches 244 keys, lemma2 to n = 12
# 225; typed, as q_int_poly
@lru_cache(maxsize=512, typed=True)
def power_sum_T(n: int, m: int, w: int, d: int = 1) -> RatFunc:
    """T_{n,m}(w | q^d) = sum_{i=0..w} q^{dni} [i]_{q^d}^m, always a polynomial."""
    for value, name in ((n, "n"), (m, "m"), (w, "w")):
        check_index(value, name)
    check_base(d)
    if min(n, m, w) < 0:
        raise ValueError("power sum indices must be non-negative")
    acc = ZERO
    for i in range(w + 1):
        acc = acc + (q_int_poly(i, d) ** m).shift(d * n * i)
    return RatFunc._raw(acc, ONE)
