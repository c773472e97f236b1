from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcarlitz import carlitz
from qcarlitz.carlitz import (bernoulli_classical, bernoulli_poly_classical,
                              beta_h, beta_hk, beta_number,
                              beta_number_recurrence, beta_poly,
                              beta_poly_expansion)
from qcarlitz.polyq import ONE, Poly
from qcarlitz.qcore import q_int, q_int_poly
from qcarlitz.ratfunc import RF_ONE, RatFunc, rf_eval_rational

F = Fraction

# the recurrence (B+1)^n - B_n = delta_{1,n} solved literally gives B_1 = -1/2
KNOWN_BERNOULLI = {0: F(1), 1: F(-1, 2), 2: F(1, 6), 3: F(0), 4: F(-1, 30),
                   5: F(0), 6: F(1, 42), 7: F(0), 8: F(-1, 30), 9: F(0),
                   10: F(5, 66)}


def test_bernoulli_classical():
    for n, want in KNOWN_BERNOULLI.items():
        assert bernoulli_classical(n) == want
    with pytest.raises(ValueError):
        bernoulli_classical(-1)


def test_bernoulli_poly_classical():
    assert bernoulli_poly_classical(2, 0) == F(1, 6)
    assert bernoulli_poly_classical(2, 1) == F(1, 6)
    assert bernoulli_poly_classical(3, F(1, 2)) == F(0)
    # B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 6):
        for x in range(4):
            assert (bernoulli_poly_classical(n, x + 1)
                    - bernoulli_poly_classical(n, x)) == n * F(x) ** (n - 1)


def test_beta_number_small_values():
    assert beta_number(0, 1) == RF_ONE
    assert beta_number(1, 1) == RatFunc(Poly([-1]), Poly([1, 1]))
    assert beta_number(2, 1) == RatFunc(Poly([0, 1]),
                                        Poly([1, 1]) * Poly([1, 1, 1]))
    with pytest.raises(ValueError):
        beta_number(-1, 1)
    with pytest.raises(ValueError):
        beta_number(2, 0)


def test_recurrence_table_matches_closed_form():
    # n <= 20 and d <= 3, the range of the carlitz-table benchmark
    for d in (1, 2, 3):
        table = beta_number_recurrence(20, d)
        assert table.base_exponent == d
        for n in range(21):
            assert table.values[n] == beta_number(n, d), (n, d)


def test_classical_limit():
    for n in range(9):
        assert rf_eval_rational(beta_number(n, 1), 1) == bernoulli_classical(n)


def test_boundary_relation():
    # q^d beta_n(1) - beta_n = delta_{1,n}; the n = 0 instance is excluded
    # because the defining recurrence itself starts at n = 1
    for d in (1, 2):
        for n in range(1, 9):
            lhs = (RatFunc(Poly.q_power(d)) * beta_poly(n, d, 1)
                   - beta_number(n, d))
            assert lhs == (RF_ONE if n == 1 else RatFunc(0)), (n, d)


def test_beta_poly_values():
    assert beta_poly(1, 1, 1) == RatFunc(ONE, Poly([1, 1]))
    assert beta_poly(3, 2, 0) == beta_number(3, 2)
    assert rf_eval_rational(beta_poly(2, 1, 1), 1) == \
        bernoulli_poly_classical(2, 1)
    with pytest.raises(ValueError):
        beta_poly(2, 1, F(1, 2))


def test_addition_theorem():
    # beta_n(x+y) = sum_l C(n,l) q^{lx} beta_l(y) [x]^{n-l}, both orientations
    for n in range(6):
        for x in range(4):
            for y in range(4):
                lhs = beta_poly(n, 1, x + y)
                rhs = RatFunc(0)
                for l in range(n + 1):
                    rhs = rhs + (RatFunc(Poly([comb(n, l)]).shift(l * x))
                                 * beta_poly(l, 1, y)
                                 * q_int(x, 1) ** (n - l))
                assert lhs == rhs, (n, x, y, "forward")
                rev = RatFunc(0)
                for l in range(n + 1):
                    rev = rev + (RatFunc(Poly([comb(n, l)]).shift(l * y))
                                 * beta_poly(l, 1, x)
                                 * q_int(y, 1) ** (n - l))
                assert lhs == rev, (n, x, y, "reversed")


def test_beta_poly_expansion_route():
    assert beta_poly_expansion(1, 1, 1) == beta_poly(1, 1, 1)
    assert beta_poly_expansion(3, 2, 2) == beta_poly(3, 2, 2)
    for n in range(5):
        assert beta_poly_expansion(n, 1, 0) == beta_number(n, 1)
    with pytest.raises(ValueError):
        beta_poly_expansion(2, 2, F(3, 2))


def test_beta_h():
    for n in range(7):
        assert beta_h(n, 1, 1, 2) == beta_poly(n, 1, 2)
    assert beta_h(0, 2, 1, 5) == RatFunc(Poly([2]), Poly([1, 1]))
    want = (RatFunc(Poly([2]), Poly([1, 1])) - RatFunc(Poly([3]), Poly([1, 1, 1]))) \
        * RatFunc(ONE, Poly([1, -1]))
    assert beta_h(1, 2, 1, 0) == want
    with pytest.raises(ValueError):
        beta_h(1, 0, 1, 0)


def test_beta_hk():
    for n in range(6):
        assert beta_hk(n, 3, 1, 1, 1) == beta_h(n, 3, 1, 1)
    assert beta_hk(0, 3, 2, 1, 0) == \
        RatFunc(Poly([6]), Poly([1, 1]) * Poly([1, 1, 1]))
    two = RatFunc(Poly([2]), Poly([1, 1]))
    six = RatFunc(Poly([6]), Poly([1, 1, 1]) * Poly([1, 1]))
    want = (two - six) * RatFunc(ONE, Poly([1, -1]))
    assert beta_hk(1, 2, 2, 1, 0) == want
    with pytest.raises(ValueError):
        beta_hk(1, 1, 2, 1, 0)
    with pytest.raises(ValueError):
        beta_hk(1, 2, 0, 1, 0)


@pytest.mark.parametrize("family", [
    lambda d, x: beta_poly(2, d, x),
    lambda d, x: beta_poly_expansion(2, d, x),
    lambda d, x: beta_h(2, 2, d, x),
    lambda d, x: beta_hk(2, 3, 2, d, x),
], ids=["beta_poly", "beta_poly_expansion", "beta_h", "beta_hk"])
def test_families_refuse_bad_arguments(family):
    # an integral Fraction is its integer; a negative x, a non-integral dx,
    # a base d < 1, a float x and a float d are refused up front
    assert family(3, F(6, 3)) == family(3, 2)
    for d, x in [(2, -1), (2, F(-1, 2)), (1, F(1, 2)), (2, F(1, 3)), (0, 1), (-1, 0),
                 (1, 1.0), (2, "1"), (2.0, 1), (1.5, 0), (2.0, 0)]:
        with pytest.raises(ValueError):
            family(d, x)
    # the numbers share the families' base check
    for call in (lambda: beta_number(2, 2.0), lambda: beta_number_recurrence(3, 2.0),
                 lambda: beta_poly(2, 1.5, 0), lambda: beta_poly(2, 2.0, 1)):
        with pytest.raises(ValueError, match="positive int, got"):
            call()


def test_classical_bernoulli_polynomial_refuses_a_float():
    # B_2(x) = x^2 - x + 1/6 exactly at 1/10; the float 0.1 would give a
    # binary fraction with a 34-digit denominator
    assert bernoulli_poly_classical(2, F(1, 10)) == F(23, 300)
    for x in (0.1, 1.0, True):
        with pytest.raises(ValueError, match="argument must be an int or a Fraction, got"):
            bernoulli_poly_classical(2, x)


def test_bool_base_is_refused_by_the_numbers():
    # True == 1, but it is no base exponent
    beta_number(2, 1)
    for call in (lambda: beta_number(2, True), lambda: beta_number_recurrence(3, True)):
        with pytest.raises(ValueError, match="positive int, got True"):
            call()


def test_beta_number_refuses_a_bool_or_float_index():
    # after beta_1 is cached: True == 1, but it is no index
    beta_number(1)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="n must be an int, got"):
            beta_number(n)


def test_classical_bernoulli_refuses_a_bool_or_float_index():
    assert bernoulli_classical(1) == Fraction(-1, 2)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="n must be an int, got"):
            bernoulli_classical(n)
        with pytest.raises(ValueError, match="n must be an int, got"):
            bernoulli_poly_classical(n, 1)


def test_beta_poly_refuses_a_bool_or_float_degree():
    beta_poly(1, 1, 1)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="n must be an int, got"):
            beta_poly(n, 1, 1)
        with pytest.raises(ValueError, match="n must be an int, got"):
            beta_poly_expansion(n, 1, 1)
        with pytest.raises(ValueError, match="n must be an int, got"):
            beta_h(n, 1, 1, 1)


def test_order_families_refuse_a_bool_order():
    beta_hk(2, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="h must be an int, got True"):
        beta_h(2, True, 1, 1)
    with pytest.raises(ValueError, match="h must be an int, got True"):
        beta_hk(2, True, 1, 1, 1)
    with pytest.raises(ValueError, match="k must be an int, got True"):
        beta_hk(2, 1, True, 1, 1)


def test_recurrence_refuses_a_bool_or_float_table_size():
    beta_number_recurrence(1)
    for n_max in (True, 2.0):
        with pytest.raises(ValueError, match="n_max must be an int, got"):
            beta_number_recurrence(n_max)


def test_fractional_argument_lands_in_q_of_q():
    # x = 3/2 in base q^2 enters as the monomial q^3; evaluating at a
    # rational point must match the defining sum computed with Fractions
    v = beta_poly(2, 2, F(3, 2))
    q0 = F(2)

    def br(t):
        return (1 - q0 ** (2 * t)) / (1 - q0 ** 2)

    want = sum(comb(2, j) * (-1) ** j * q0 ** (3 * j) * F(j + 1) / br(j + 1)
               for j in range(3)) / (1 - q0 ** 2) ** 2
    assert rf_eval_rational(v, q0) == want


# ---------------------------------------------------------------------------
# oracles that share no code with the cyclotomic exponent-map arithmetic


def sympy_closed_form(n, h, k, d, e):
    """(num, den) coefficient lists, low degree first, of the (h,k) closed
    form at z = q^e with [t]_{q^d} = (1-q^{dt})/(1-q^d), summed and
    cancelled by sympy; den is made monic."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    total = sympy.Integer(0)
    for j in range(n + 1):
        term = sympy.Integer(comb(n, j) * (-1) ** j) * q ** (j * e)
        for i in range(k):
            t = j + h - i
            term = term * t * (1 - q ** d) / (1 - q ** (d * t))
        total += term
    num, den = sympy.fraction(sympy.cancel(total / (1 - q ** d) ** n))
    num, den = sympy.Poly(num, q), sympy.Poly(den, q)
    lead = den.LC()

    def coeffs(p):
        return [] if p.is_zero else [F(str(c / lead)) for c in reversed(p.all_coeffs())]

    return coeffs(num), coeffs(den)


def coeff_lists(v):
    return list(v.num.coefficients()), list(v.den.coefficients())


def closed_form_by_gcd(n, h, k, d, e):
    """The same closed form summed with generic RatFunc arithmetic."""
    acc = RatFunc(0)
    for j in range(n + 1):
        w = comb(n, j) * (-1) ** j
        den = ONE
        for i in range(k):
            w *= j + h - i
            den = den * q_int_poly(j + h - i, d)
        acc = acc + RatFunc(Poly([w]).shift(j * e), den)
    return acc * RatFunc(ONE, (ONE - Poly.q_power(d)) ** n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_beta_number_matches_sympy(d):
    for n in range(9):
        assert coeff_lists(beta_number(n, d)) == sympy_closed_form(n, 1, 1, d, 0), (n, d)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beta_hk_matches_sympy(k):
    n = 3
    for d in (1, 2, 3):
        for h in range(k, k + 3):
            for e in (0, d, 2 * d + 1):
                got = beta_hk(n, h, k, d, F(e, d))
                assert coeff_lists(got) == sympy_closed_form(n, h, k, d, e), (h, d, e)


@st.composite
def closed_form_cores(draw):
    # (n, h, k, d, e) with gcd(d, e) = 1: the closed form's own sum, not
    # the substitution q -> q^g
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    e = draw(st.integers(0, 7).filter(lambda e: gcd(d, e) == 1))
    return draw(st.integers(0, 10)), draw(st.integers(k, k + 2)), k, d, e


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(closed_form_cores())
@example((10, 5, 3, 3, 2))
@example((10, 3, 3, 2, 1))
@example((10, 1, 1, 1, 0))
def test_beta_hk_core_matches_generic_sum(case):
    n, h, k, d, e = case
    got = carlitz._beta_hk_monomial.__wrapped__(n, h, k, d, e)
    assert got == closed_form_by_gcd(n, h, k, d, e), case
    assert got == beta_hk(n, h, k, d, F(e, d)), case


def test_beta_families_need_no_gcd(monkeypatch):
    want_closed = [closed_form_by_gcd(n, 1, 1, 3, 0) for n in range(13)]
    want_hk = closed_form_by_gcd(6, 4, 3, 2, 5)

    def refuse(self, other):
        raise AssertionError("generic gcd called")

    monkeypatch.setattr(Poly, "gcd", refuse)
    # a fresh, uncached closed-form core, so the values are really recomputed
    monkeypatch.setattr(carlitz, "_beta_hk_monomial", carlitz._beta_hk_monomial.__wrapped__)
    assert beta_number(12, 3) == want_closed[12]
    assert list(beta_number_recurrence(12, 3).values) == want_closed
    assert beta_hk(6, 4, 3, 2, F(5, 2)) == want_hk


# gcd(d, e) = g > 1, with 1 < g < d at (6, 4), (6, 3) and (6, 9)
SUBSTITUTED_BASES = [(2, 0), (3, 0), (6, 0), (2, 4), (3, 6), (6, 4), (6, 3), (6, 9)]


@pytest.mark.parametrize("d, e", SUBSTITUTED_BASES)
def test_substituted_closed_form_matches_generic_sum(d, e):
    # a cold cache, so each value is built by the substitution path
    carlitz._beta_hk_monomial.cache_clear()
    for n in range(9):
        assert beta_poly(n, d, F(e, d)) == closed_form_by_gcd(n, 1, 1, d, e), (n, d, e)
        assert beta_hk(n, 3, 2, d, F(e, d)) == closed_form_by_gcd(n, 3, 2, d, e), (n, d, e)


def test_recurrence_stays_native_in_base_q_d(monkeypatch):
    want = [closed_form_by_gcd(n, 1, 1, 3, 0) for n in range(13)]

    def refuse(self, d):
        raise AssertionError("substitute_power called")

    monkeypatch.setattr(Poly, "substitute_power", refuse)
    monkeypatch.setattr(RatFunc, "substitute_power", refuse)
    assert list(beta_number_recurrence(12, 3).values) == want
