"""Oracles for the cyclotomic reduction behind every canonical form.

The library keeps its denominators (the checkers' master denominator D
among them) as exponent maps {d: e_d} over cyclotomic polynomials, and
reduces numerators against them by trial division.  None of the helpers
below call that code: D is expanded here from its defining product, Phi_d
comes from the Moebius product of the q^e - 1, and the reference
canonical form is the generic gcd reduction of RatFunc(num, D).
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcarlitz.identities import _master_den_exponents, _over_master
from qcarlitz.polyq import ONE, ZERO, Poly, balanced_bits, packed_divide_out
from qcarlitz.qcore import (cyclotomic_poly, cyclotomic_product, over_cyclotomic,
                            over_cyclotomic_packed, q_int_exponents, q_int_poly,
                            q_power_minus_one_exponents)
from qcarlitz.ratfunc import RatFunc

W_TRIPLES = list(combinations_with_replacement(range(1, 4), 3))


def bases_of(w):
    return tuple(sorted((w[1] * w[2], w[0] * w[2], w[0] * w[1])))


def expanded_master_den(n, bases):
    out = ONE
    for b in bases:
        out = out * (ONE - Poly.q_power(b)) ** n
        for t in range(2, n + 2):
            out = out * q_int_poly(t, b)
    return out


def moebius(m):
    sign = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def phi_oracle(d):
    """Phi_d = prod over e | d of (q^e - 1)^mu(d/e)."""
    up, down = ONE, ONE
    for e in range(1, d + 1):
        if d % e == 0:
            mu = moebius(d // e)
            if mu == 1:
                up = up * (Poly.q_power(e) - ONE)
            elif mu == -1:
                down = down * (Poly.q_power(e) - ONE)
    return up.divexact(down)


@pytest.mark.parametrize("n", range(7))
def test_exponent_map_multiplies_back_to_master_den(n):
    for w in W_TRIPLES:
        bases = bases_of(w)
        rebuilt = Poly([(-1) ** n])
        for d, e in _master_den_exponents(n, bases):
            assert e > 0
            rebuilt = rebuilt * phi_oracle(d) ** e
        assert rebuilt == expanded_master_den(n, bases), (n, bases)


def test_q_number_exponent_maps_multiply_back():
    for b in range(1, 5):
        for t in range(1, 9):
            rebuilt = ONE
            for d, e in q_int_exponents(t, b).items():
                rebuilt = rebuilt * phi_oracle(d) ** e
            assert rebuilt == q_int_poly(t, b), (t, b)
        for power in range(3):
            rebuilt = ONE
            for d, e in q_power_minus_one_exponents(b, power).items():
                assert e > 0
                rebuilt = rebuilt * phi_oracle(d) ** e
            assert rebuilt == (Poly.q_power(b) - ONE) ** power, (b, power)
    exps = q_int_exponents(6, 2) + q_power_minus_one_exponents(4, 2)
    assert cyclotomic_product(exps) == q_int_poly(6, 2) * (Poly.q_power(4) - ONE) ** 2


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    # 105, 165, 195 and 210 index the first Phi_d with a coefficient of magnitude 2
    for d in [*range(1, 61), 105, 165, 195, 210]:
        expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(d) == Poly([int(c) for c in expected]), d


@st.composite
def numerators_over_master(draw):
    n = draw(st.integers(0, 3))
    bases = bases_of(draw(st.sampled_from(W_TRIPLES)))
    f = Poly(draw(st.lists(st.integers(-30, 30), max_size=6)))
    f = f * draw(st.integers(-5, 5).filter(bool))
    # a sub-multiset of D's factors, sometimes one Phi_d more than D has
    for d, e in _master_den_exponents(n, bases):
        f = f * phi_oracle(d) ** draw(st.integers(0, e + 1))
    return n, bases, f


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(numerators_over_master())
@example((2, (1, 2, 2), Poly()))
def test_reduction_matches_generic_gcd(case):
    # every case through over_cyclotomic (the carlitz path) and packed,
    # through the identity checkers' reduction
    n, bases, num = case
    want = RatFunc(num, expanded_master_den(n, bases))
    exps = dict(_master_den_exponents(n, bases))
    got, _ = over_cyclotomic(-num if n % 2 else num, exps)
    assert (got.num, got.den) == (want.num, want.den)
    bits = least_width(num)
    got = _over_master(num.pack(bits), bits, n, bases)
    assert (got.num, got.den) == (want.num, want.den)


def least_width(f):
    """The least byte width whose balanced digits hold every coefficient of f."""
    return balanced_bits(max((abs(int(c)) for c in f.coefficients()), default=0))


@st.composite
def integers_over_cyclotomic_maps(draw):
    exps = {d: draw(st.integers(1, 3))
            for d in draw(st.sets(st.integers(1, 24), min_size=1, max_size=5))}
    f = Poly(draw(st.lists(st.integers(-40, 40), max_size=8)))
    for d, e in exps.items():
        f = f * phi_oracle(d) ** draw(st.integers(0, e + 1))
    return exps, f


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(integers_over_cyclotomic_maps())
# ||f||_1 = 8 fits 8 bits, but the quotient -[20]_q^3 has a coefficient 300:
# only the certified retry at a wider width gets it right
@example(({1: 3}, (ONE - Poly.q_power(20)) ** 3))
@example(({2: 1, 3: 2}, Poly()))
# 255 = Phi_1(2^8) divides 85 (1 + q + q^2) at q = 2^8, but q - 1 does not
@example(({1: 1}, Poly([85, 85, 85])))
def test_packed_reduction_matches_generic_gcd(case):
    exps, f = case
    den = ONE
    for d, e in exps.items():
        den = den * phi_oracle(d) ** e
    want = RatFunc(f, den)
    bits = least_width(f)
    got, left = over_cyclotomic_packed(f.pack(bits), bits, exps)
    assert (got.num, got.den) == (want.num, want.den)
    rebuilt = ONE
    for d, e in left.items():
        assert e > 0
        rebuilt = rebuilt * phi_oracle(d) ** e
    assert rebuilt == want.den


def test_spurious_trial_step_is_caught_by_the_certificate():
    f = Poly([85, 85, 85])
    # 85 (1 + q + q^2) at q = 2^8 is 85 * 65793 = 255 * 21931: the trial passes
    x, k = packed_divide_out(f.pack(8), 8, cyclotomic_poly(1), 1, 1)
    assert (x, k) == (f.pack(8) // 255, 1)
    value, left = over_cyclotomic_packed(f.pack(8), 8, {1: 1})
    want = RatFunc(f, phi_oracle(1))
    assert (value.num, value.den, left) == (want.num, want.den, {1: 1})
    assert want.den == Poly([-1, 1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.integers(1, 60), st.integers(0, 4), max_size=6))
# prod ||Phi_d||_1^{e_d} = 2^54 3^12 35 has 79 bits; the product's norm has 27
@example({1: 36, 2: 18, 3: 12, 105: 1})
@example({})
def test_cyclotomic_product_matches_oracle(exps):
    want = ONE
    for d, e in exps.items():
        want = want * phi_oracle(d) ** e
    assert cyclotomic_product(exps) == want


def test_over_cyclotomic_caps_and_scales():
    phi3 = phi_oracle(3)
    scaled = Poly([2, -1]) * -6
    # the map caps how often Phi_3 comes out; the integer content rides along
    value, left = over_cyclotomic(scaled * phi3 ** 3, {3: 2})
    assert (value.num, value.den, left) == (scaled * phi3, ONE, {})
    value, left = over_cyclotomic(scaled * phi3 ** 3, {3: 5})
    assert (value.num, value.den, left) == (scaled, phi3 ** 2, {3: 2})
    value, left = over_cyclotomic(ZERO, {3: 4})
    assert (value.num, value.den, left) == (ZERO, ONE, {})
    value, left = over_cyclotomic(Poly([5]), {1: 4})
    assert (value.num, value.den, left) == (Poly([5]), (Poly.q_power(1) - ONE) ** 4, {1: 4})
    # rational numerators are RatFunc's to reduce (tests/test_ratfunc.py)
    with pytest.raises(ValueError):
        over_cyclotomic(Poly([Fraction(1, 2)]), {1: 1})


def test_packed_reduction_certifies_a_quotient_that_outgrows_the_width():
    f = (ONE - Poly.q_power(20)) ** 3
    quotient = -(q_int_poly(20) ** 3)
    assert least_width(f) == 8 and max(abs(c) for c in quotient.coefficients()) == 300
    # dividing at the width that holds f alone reads a wrong quotient back
    x, k = packed_divide_out(f.pack(8), 8, cyclotomic_poly(1), 1, 3)
    assert k == 3 and Poly.unpack(x, 8) != quotient
    value, left = over_cyclotomic_packed(f.pack(8), 8, {1: 3})
    assert (value.num, value.den, left) == (quotient, ONE, {})

