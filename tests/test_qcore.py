from fractions import Fraction

import pytest

from qcarlitz.polyq import ONE, Poly
from qcarlitz.qcore import power_sum_T, q_int, q_int_poly
from qcarlitz.ratfunc import RatFunc


def test_q_int_poly_values():
    assert q_int_poly(0, 1) == Poly([])
    assert q_int_poly(1, 1) == ONE
    assert q_int_poly(3, 1) == Poly([1, 1, 1])
    assert q_int_poly(2, 3) == Poly([1, 0, 0, 1])
    with pytest.raises(ValueError):
        q_int_poly(-1, 1)
    with pytest.raises(ValueError):
        q_int_poly(2, 0)


def test_non_int_base_is_refused_at_the_entry():
    # after the int base is cached too: a float equal to it is still refused
    q_int_poly(3, 2)
    power_sum_T(1, 1, 2, 2)
    for call in (lambda: q_int_poly(3, 2.0), lambda: q_int(3, 2.0),
                 lambda: power_sum_T(1, 1, 2, 2.0), lambda: q_int_poly(3, Fraction(2))):
        with pytest.raises(ValueError, match="positive int, got"):
            call()


def test_bool_base_is_refused_at_the_entry():
    # after the base 1 is cached: True == 1, but it is no base exponent
    q_int_poly(3, 1)
    power_sum_T(1, 1, 2, 1)
    for call in (lambda: q_int_poly(3, True), lambda: q_int(3, True),
                 lambda: power_sum_T(1, 1, 2, True)):
        with pytest.raises(ValueError, match="positive int, got True"):
            call()


def test_q_int_refuses_a_bool_or_float_argument():
    # after [1] is cached: q_int_poly is typed, so True reaches the check
    q_int(1)
    for x in (True, 3.0):
        with pytest.raises(ValueError, match="x must be an int, got"):
            q_int(x)
        with pytest.raises(ValueError, match="x must be an int, got"):
            q_int_poly(x)


def test_power_sum_refuses_a_bool_or_float_index():
    power_sum_T(1, 1, 2)
    for args, name in [((True, 1, 2), "n"), ((1, True, 2), "m"), ((1, 1, True), "w"),
                       ((1.0, 1, 2), "n")]:
        with pytest.raises(ValueError, match=f"{name} must be an int, got"):
            power_sum_T(*args)


def test_q_int_limits():
    # [x]_q -> x as q -> 1
    for x in range(6):
        assert q_int(x, 1).evaluate(1) == x


def test_shift_law_exhaustive():
    # [a+b] = [a] + q^a [b] for 0 <= a,b <= 6
    for a in range(7):
        for b in range(7):
            lhs = q_int(a + b, 1)
            rhs = q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
            assert lhs == rhs, (a, b)


def test_shift_law_three_terms_exhaustive():
    # [a+b+c] = [a] + q^a [b] + q^{a+b} [c] for 0 <= a,b,c <= 4
    for a in range(5):
        for b in range(5):
            for c in range(5):
                lhs = q_int(a + b + c, 1)
                rhs = (q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
                       + RatFunc(Poly.q_power(a + b)) * q_int(c, 1))
                assert lhs == rhs, (a, b, c)


def test_product_law_exhaustive():
    # [ab]_q = [a]_q [b]_{q^a} for 1 <= a,b <= 6
    for a in range(1, 7):
        for b in range(1, 7):
            assert q_int(a * b, 1) == q_int(a, 1) * q_int(b, a), (a, b)


def test_power_sum_examples():
    assert str(power_sum_T(1, 1, 2, 1)) == "q+q^2+q^3"
    assert power_sum_T(0, 0, 3, 1) == RatFunc(4)
    assert power_sum_T(2, 0, 0, 1) == RatFunc(1)
    with pytest.raises(ValueError):
        power_sum_T(1, 1, -1, 1)


def test_power_sum_is_polynomial_and_matches_definition():
    for n in range(3):
        for m in range(3):
            for w in range(4):
                for d in (1, 2):
                    v = power_sum_T(n, m, w, d)
                    assert v.is_polynomial
                    acc = RatFunc(0)
                    for i in range(w + 1):
                        acc = acc + (RatFunc(Poly.q_power(d * n * i))
                                     * q_int(i, d) ** m)
                    assert v == acc, (n, m, w, d)
