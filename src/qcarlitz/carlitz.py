"""Classical Bernoulli values and the Carlitz q-Bernoulli families.

The classical numbers serve as q -> 1 limit oracles.  The q-families come
in four layers: numbers, polynomials, the twisted order-h polynomials, and
the doubly indexed (h, k) polynomials whose q-falling factorial denominator
forces h >= k.  A polynomial in base q^d takes its argument x as an int or
a Fraction and enters only through the monomial z = q^{dx}, so x must make
dx a non-negative integer: fractional arguments stay inside Q(q).

Every denominator in the closed forms and in the recurrence is a product
of cyclotomic polynomials: [t]_{q^d} = prod Phi_m over m | dt with m not
dividing d, and (1 - q^d)^n, q^{d(n+1)} - 1 factor the same way.  So
values are carried as a numerator over an exponent map {m: e_m}, summed
over the lcm of the maps (`qcore.cyclotomic_sum`: a fold over the
running lcm at q = 2^w, w bounding the sum's coefficients) and reduced
once by trial division with the Phi_m: the packed sum goes straight to
`qcore.over_cyclotomic_packed`, the identity checkers' reducer, at the
width of the fold.  The recurrence's maps nearly nest, each denominator
holding most of the last, so its sums fold term by term, one Phi_m or so
per term; the closed form's maps [j + 1]_q share little, and its sums
fold in pairs.  The two routes share only these two calls; neither calls
the other's sum.

The closed form in base q^d at z = q^e uses only powers of q^g, with
g = gcd(d, e), so it is computed once in base q^{d/g} at q^{e/g} and
carried over by q -> q^g, which keeps the value canonical.  Every
beta_number thus reduces to base q.  The recurrence stays native in
every base, so comparing the two routes still compares two independent
computations at d > 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .polyq import ONE, Poly, check_rational
from .qcore import (check_base, check_index, cyclotomic_sum, over_cyclotomic_packed,
                    q_int_exponents, q_int_poly, q_power_minus_one_exponents)
from .ratfunc import RF_ONE, RF_ZERO, RatFunc


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n solved in turn from (B+1)^m - B_m = delta_{1,m}, B_0 = 1.

    The m = 1 instance is vacuous (both B_1 terms cancel and the delta
    absorbs the constant), so B_m is pinned by the order-(m+1) instance;
    solving in that order yields B_1 = -1/2.
    """
    check_index(n, "n")
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        bs.append(-sum(comb(m + 1, i) * b for i, b in enumerate(bs)) / (m + 1))
    return bs


def bernoulli_classical(n: int) -> Fraction:
    """B_n, with B_1 = -1/2."""
    return _bernoulli_numbers(n)[n]


def bernoulli_poly_classical(n: int, x: Fraction | int) -> Fraction:
    """B_n(x) = sum_l C(n,l) B_l x^(n-l)."""
    check_rational(x, "argument")
    x = Fraction(x)
    return sum((comb(n, l) * b * x ** (n - l) for l, b in enumerate(_bernoulli_numbers(n))),
               Fraction(0))


@dataclass(frozen=True)
class BetaTable:
    """q-Bernoulli numbers beta_{n,q^d} for n = 0..n_max, recurrence-solved."""

    base_exponent: int
    values: tuple[RatFunc, ...]


def beta_number(n: int, d: int = 1) -> RatFunc:
    """beta_{n,q^d} by the closed form
    (1/(1-q^d)^n) * sum_l C(n,l) (-1)^l (l+1)/[l+1]_{q^d}.

    That is beta_{n,q} with q -> q^d, so only the base-q sum is reduced."""
    check_index(n, "n")
    if n < 0:
        raise ValueError("index must be non-negative")
    check_base(d)
    return _beta_hk_monomial(n, 1, 1, d, 0)


def beta_number_recurrence(n_max: int, d: int = 1) -> BetaTable:
    """Solve q^d (q^d beta + 1)^n - beta_n = delta_{1,n} for beta_1..beta_{n_max}.

    In each instance the beta_n terms almost cancel, leaving the invertible
    coefficient q^{d(n+1)} - 1, so the system is triangular.  Each beta_i
    is carried as its canonical numerator over the exponent map of its
    denominator; the right-hand side is summed over the lcm of those maps,
    the map of q^{d(n+1)} - 1 is added, and one trial-division pass gives
    the canonical beta_n.
    """
    check_index(n_max, "n_max")
    if n_max < 0:
        raise ValueError("table size must be non-negative")
    check_base(d)
    values = [RF_ONE]
    carried = [(ONE, Counter())]
    for n in range(1, n_max + 1):
        terms = [(ONE, Counter())] if n == 1 else []
        for i, (num, exps) in enumerate(carried):
            terms.append(((num * -comb(n, i)).shift(d * (i + 1)), exps))
        num, bits, exps = cyclotomic_sum(terms)
        value, left = over_cyclotomic_packed(num, bits,
                                             exps + q_power_minus_one_exponents(d * (n + 1)))
        values.append(value)
        carried.append((value.num, left))
    return BetaTable(base_exponent=d, values=tuple(values))


# bounded: the test suite in one process ends at 343 keys, a carlitz-cross
# pass to n = 60 at 183 (currsize after the run; the keys hold no width)
@lru_cache(maxsize=512)
def _beta_hk_monomial(n: int, h: int, k: int, d: int, e: int) -> RatFunc:
    """Shared closed-form core: the argument enters only through z = q^e.

    Every power of q in the sum is a multiple of g = gcd(d, e), so for
    g > 1 the value is the base-q^{d/g} value at q^{e/g} with q -> q^g.
    That substitution is a ring homomorphism of Q[q] that keeps every
    coefficient: it carries a Bezout identity A N + B D = 1 of the
    reduced pair to one of the substituted pair, so they stay coprime,
    and the denominator stays monic.  The result is canonical with no
    further reduction, and only g = 1 reaches the cyclotomic sum.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    g = gcd(d, e)
    if g > 1:
        # through the module name, so the base-q^{d/g} value is cached
        return _beta_hk_monomial(n, h, k, d // g, e // g).substitute_power(g)
    terms = []
    for j in range(n + 1):
        c = comb(n, j) * (-1 if j & 1 else 1)
        exps: Counter[int] = Counter()
        for i in range(k):
            c *= j + h - i
            exps.update(q_int_exponents(j + h - i, d))
        terms.append((Poly([c]).shift(j * e), exps))
    num, bits, exps = cyclotomic_sum(terms)
    # (1 - q^d)^n = (-1)^n (q^d - 1)^n
    return over_cyclotomic_packed(-num if n & 1 else num, bits,
                                  exps + q_power_minus_one_exponents(d, n))[0]


def _exponent(d: int, x: int | Fraction) -> int:
    # the exponent e = dx of z = q^{dx}, the only way the argument enters
    check_base(d)
    check_rational(x, "argument")
    if x < 0:
        raise ValueError("argument must be non-negative")
    e = d * x
    if e % 1:
        raise ValueError(f"q^(dx) = q^({e}) is not an integral power of q")
    return int(e)


def beta_poly(n: int, d: int, x: int | Fraction) -> RatFunc:
    """beta_{n,q^d}(x) with q^{d l x} realized as q^{l e}, e = dx."""
    check_index(n, "n")
    return _beta_hk_monomial(n, 1, 1, d, _exponent(d, x))


def beta_poly_expansion(n: int, d: int, x: int | Fraction) -> RatFunc:
    """sum_l C(n,l) q^{dlx} beta_{l,q^d} [x]_{q^d}^{n-l}; integer x only."""
    check_index(n, "n")
    e = _exponent(d, x)
    if e % d:
        raise ValueError(f"argument {x} is not an integer")
    xi = e // d
    bracket = q_int_poly(xi, d)
    acc = RF_ZERO
    for l in range(n + 1):
        scale = Poly([comb(n, l)]).shift(d * l * xi) * bracket ** (n - l)
        acc = acc + beta_number(l, d) * scale
    return acc


def beta_h(n: int, h: int, d: int, x: int | Fraction) -> RatFunc:
    """Order-h q-Bernoulli polynomial in base q^d at x."""
    check_index(n, "n")
    check_index(h, "h")
    if h < 1:
        raise ValueError("q-falling denominator may vanish for h < 1")
    return _beta_hk_monomial(n, h, 1, d, _exponent(d, x))


def beta_hk(n: int, h: int, k: int, d: int, x: int | Fraction) -> RatFunc:
    """(h,k) q-Bernoulli polynomial: weights (j+h)_k / [j+h]_{q^d,k}."""
    for value, name in ((n, "n"), (h, "h"), (k, "k")):
        check_index(value, name)
    if k < 1:
        raise ValueError("order k must be positive")
    if h < k:
        raise ValueError("degenerate q-falling factorial for h < k")
    return _beta_hk_monomial(n, h, k, d, _exponent(d, x))
