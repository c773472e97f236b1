"""Oracles for the cyclotomic reduction of identity reports.

The checkers keep their master denominator D as a sign and an exponent
map {d: e_d} over cyclotomic polynomials, and reduce numerators against
it by trial division.  None of the helpers below call that code: D is
expanded here from its defining product, Phi_d comes from the Moebius
product of the q^e - 1, and the reference canonical form is the generic
gcd reduction of RatFunc(num, D).
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcarlitz.identities import _master_den_exponents, _over_master
from qcarlitz.polyq import ONE, Poly
from qcarlitz.qcore import (cyclotomic_poly, cyclotomic_product, q_int_exponents, q_int_poly,
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
    for d in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(d) == Poly([int(c) for c in expected]), d


@st.composite
def numerators_over_master(draw):
    n = draw(st.integers(0, 3))
    bases = bases_of(draw(st.sampled_from(W_TRIPLES)))
    f = Poly(draw(st.lists(st.integers(-30, 30), max_size=6)))
    f = f * Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    # a sub-multiset of D's factors, sometimes one Phi_d more than D has
    for d, e in _master_den_exponents(n, bases):
        f = f * phi_oracle(d) ** draw(st.integers(0, e + 1))
    return n, bases, f


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(numerators_over_master())
@example((2, (1, 2, 2), Poly()))
def test_reduction_matches_generic_gcd(case):
    n, bases, num = case
    got = _over_master(num, n, bases)
    want = RatFunc(num, expanded_master_den(n, bases))
    assert (got.num, got.den) == (want.num, want.den)

