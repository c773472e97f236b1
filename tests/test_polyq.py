from fractions import Fraction
from random import Random

import pytest

from qcarlitz.polyq import ONE, Poly, Q, ZERO, _school_mul


def test_construction_trims_and_normalizes():
    assert Poly([0, 0, 0]) == ZERO
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([]) == ZERO
    assert not ZERO
    assert ONE
    assert Poly([Fraction(1, 2)]) * 2 == ONE


def test_coefficients_and_degree():
    p = Poly([Fraction(1, 3), 0, 2])
    assert p.degree == 2
    assert p.coefficients() == (Fraction(1, 3), Fraction(0), Fraction(2))
    assert p.coeff(0) == Fraction(1, 3)
    assert p.coeff(5) == 0
    assert p.leading_coeff == 2
    assert ZERO.degree == -1
    assert ZERO.coefficients() == ()


def test_q_power_and_shift():
    assert Poly.q_power(0) == ONE
    assert Poly.q_power(3) == Poly([0, 0, 0, 1])
    assert Poly([1, 1]).shift(2) == Poly([0, 0, 1, 1])
    assert ZERO.shift(5) == ZERO
    with pytest.raises(ValueError):
        Poly([1]).shift(-1)


def test_arithmetic_small():
    a = Poly([1, 2])
    b = Poly([3, 0, 1])
    assert a + b == Poly([4, 2, 1])
    assert a - a == ZERO
    assert a * b == Poly([3, 6, 1, 2])
    assert -a == Poly([-1, -2])
    assert a + 1 == Poly([2, 2])
    assert 2 - a == Poly([1, -2])
    assert a * Fraction(1, 2) == Poly([Fraction(1, 2), 1])
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


def test_mul_matches_schoolbook_across_cutoff():
    # degree ~60 operands push the product through the Kronecker path
    rng = Random(7)
    for _ in range(8):
        av = [rng.randrange(-50, 51) for _ in range(rng.randrange(40, 80))]
        bv = [rng.randrange(-50, 51) for _ in range(rng.randrange(40, 80))]
        a, b = Poly(av), Poly(bv)
        want = _school_mul(av, bv)
        assert (a * b).coefficients() == Poly(want).coefficients()


def test_mul_large_coefficients():
    a = Poly([10 ** 40, -(10 ** 38), 7])
    b = Poly([3, 10 ** 41])
    assert (a * b).coeff(1) == 10 ** 81 - 3 * 10 ** 38


def test_substitute_power():
    p = Poly([1, 2, 3])
    assert p.substitute_power(2) == Poly([1, 0, 2, 0, 3])
    assert p.substitute_power(1) == p
    with pytest.raises(ValueError):
        p.substitute_power(0)


def test_evaluate():
    p = Poly([1, -1, Fraction(1, 2)])
    assert p.evaluate(2) == 1
    assert p.evaluate(Fraction(1, 3)) == Fraction(13, 18)
    assert ZERO.evaluate(5) == 0


def test_divexact_and_divides():
    a = Poly([1, 2, 1])          # (1+q)^2
    b = Poly([1, 1])
    assert a.divexact(b) == b
    assert b.divides(a)
    assert not Poly([1, 0, 1]).divides(a)
    with pytest.raises(ValueError):
        b.divexact(a)
    with pytest.raises(ZeroDivisionError):
        a.divexact(ZERO)
    assert ZERO.divides(ZERO)
    assert not ZERO.divides(b)


def test_divexact_fractional():
    a = Poly([Fraction(1, 2), 1]) * Poly([2, 3])
    assert a.divexact(Poly([2, 3])) == Poly([Fraction(1, 2), 1])


def test_gcd_basic():
    a = Poly([1, 1]) * Poly([1, 0, 1])
    b = Poly([1, 1]) * Poly([2, 1])
    g = a.gcd(b)
    assert g == Poly([1, 1])
    assert a.gcd(ZERO).leading_coeff == 1
    assert ZERO.gcd(ZERO) == ZERO
    assert ZERO.gcd(Poly([0, -2])) == Poly([0, 1])
    assert Poly([0, -2]).gcd(ZERO) == Poly([0, 1])


def test_divide_out_counts_and_caps_a_factor():
    phi3 = Poly([1, 1, 1])
    f = Poly([2, -1]) * phi3 ** 3
    assert f.divide_out(phi3, 3, 5) == (Poly([2, -1]), 3)
    assert f.divide_out(phi3, 3, 2) == (Poly([2, -1]) * phi3, 2)
    scaled = f * Fraction(-1, 6)
    assert scaled.divide_out(phi3, 3, 5) == (Poly([2, -1]) * Fraction(-1, 6), 3)
    assert ZERO.divide_out(phi3, 3, 4) == (ZERO, 0)
    assert Poly([5]).divide_out(Poly([-1, 1]), 1, 4) == (Poly([5]), 0)
    with pytest.raises(ValueError, match="monic integer"):
        f.divide_out(phi3 * 2, 3, 1)
    with pytest.raises(ValueError, match="does not divide"):
        Poly([-1, 1]).divide_out(Poly([1, 1]), 1, 1)


def test_gcd_is_monic_and_divides_both():
    rng = Random(11)
    for _ in range(6):
        c = Poly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))] + [1])
        a = c * Poly([rng.randrange(-4, 5) for _ in range(3)] + [1])
        b = c * Poly([rng.randrange(-4, 5) for _ in range(4)] + [1])
        g = a.gcd(b)
        assert g.is_monic
        assert g.divides(a) and g.divides(b)
        assert c.divides(g)


def test_hash_eq():
    assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))
    assert Poly([1, 2]) != Poly([1, 2, 3])
    assert Poly([1]) == 1
    assert {Poly([0, 1]): "q"}[Q] == "q"


def test_str():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Poly([1, -1, 2])) == "1-q+2q^2"
    assert str(Poly([0, 1, 1, 1])) == "q+q^2+q^3"
    assert str(Poly([Fraction(-1, 2), 0, 1])) == "-1/2+q^2"
