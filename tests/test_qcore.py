from fractions import Fraction

import pytest

from qcarlitz.polyq import ONE, Poly
from qcarlitz.qcore import (QArg, multinomial, power_sum_T, q_arg_bracket,
                            q_int, q_int_poly)
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


def test_qarg():
    x = QArg(6, 3)
    assert x.is_integer and x.integer_value() == 2
    y = QArg(3, 2)
    assert not y.is_integer
    with pytest.raises(ValueError):
        y.integer_value()
    with pytest.raises(ValueError):
        QArg(-1, 2)
    with pytest.raises(ValueError):
        QArg(0, 0)


def test_q_arg_bracket(monkeypatch):
    # [e/d]_{q^d} = (1 - q^e)/(1 - q^d), fractional arguments included
    args = [QArg(3, 2), QArg(4, 6), QArg(9, 6), QArg(10, 4), QArg(4, 2), QArg(0, 5)]
    want = [RatFunc(ONE - Poly.q_power(x.e), ONE - Poly.q_power(x.d)) for x in args]
    want[0] = RatFunc(Poly([1, 1, 1]), Poly([1, 1]))

    def refuse(self, other):
        raise AssertionError("generic gcd or division called")

    monkeypatch.setattr(Poly, "gcd", refuse)
    monkeypatch.setattr(Poly, "divexact", refuse)
    # q_arg_bracket has no cache, so every bracket is built under the refusal
    got = [q_arg_bracket(x) for x in args]
    assert [(v.num, v.den) for v in got] == [(v.num, v.den) for v in want]
    assert got[-2] == q_int(2, 2)
    assert got[-1] == RatFunc(0)


def test_multinomial():
    assert multinomial(5, 2, 2, 1) == 30
    assert multinomial(0, 0, 0, 0) == 1
    assert multinomial(4, 4, 0, 0) == 1
    with pytest.raises(ValueError):
        multinomial(5, 2, 2, 2)
    with pytest.raises(ValueError):
        multinomial(3, -1, 2, 2)


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
