from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcarlitz.polyq import ONE, Poly, ZERO
from qcarlitz.ratfunc import RF_ONE, RF_ZERO, RatFunc, rf_eval_rational


def test_canonical_form():
    v = RatFunc(Poly([1, 2, 1]), Poly([2, 2]))
    assert v.num == Poly([1, 1])
    assert v.den == Poly([2])
    w = RatFunc(Poly([0, 1]), Poly([0, 2, 2]))
    assert (w.num, w.den) == (ONE, Poly([2, 2]))
    assert w == RatFunc(Fraction(1, 2), Poly([1, 1]))
    # a negative lead and a shared integer content move out of den
    u = RatFunc(Poly([0, 6, 6]), Poly([0, 0, -4]))
    assert (u.num, u.den) == (Poly([-3, -3]), Poly([0, 2]))


def test_constant_denominator_needs_no_gcd(monkeypatch):
    q = Poly.q_power(1)
    poly = Poly([6, -8, 0, 12])
    # the same values through the gcd path: a common factor q on both sides
    want = [RatFunc(Poly.q_power(a) * q, q) for a in range(5)]
    want += [RatFunc(poly * q, Poly([0, 3])), RatFunc(poly * q, Poly([0, 4])),
             RatFunc(poly * q * 5, q * -2)]

    def refuse(self, other):
        raise AssertionError("Poly.gcd called")

    monkeypatch.setattr(Poly, "gcd", refuse)
    got = [RatFunc(Poly.q_power(a)) for a in range(5)]
    got += [RatFunc(poly, 3), RatFunc(poly, 4), RatFunc(poly, Fraction(-2, 5))]
    assert [(v.num, v.den) for v in got] == [(v.num, v.den) for v in want]
    assert (got[-3].num, got[-3].den) == (poly, Poly([3]))
    assert (got[-2].num, got[-2].den) == (Poly([3, -4, 0, 6]), Poly([2]))
    assert (got[-1].num, got[-1].den) == (Poly([-15, 20, 0, -30]), ONE)
    assert all(v.den.degree == 0 for v in got)


def test_zero_and_division_guard():
    assert RatFunc(ZERO, Poly([1, 5])) == RF_ZERO
    assert not RF_ZERO
    with pytest.raises(ValueError):
        RatFunc(ONE, ZERO)
    with pytest.raises(ValueError):
        RF_ONE / RF_ZERO


def _random_rf(rng: Random) -> RatFunc:
    num = Poly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))])
    den = Poly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 4))] + [1])
    return RatFunc(num, den)


def test_field_laws_random():
    rng = Random(3)
    for _ in range(25):
        a, b, c = (_random_rf(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RF_ZERO
        if b:
            assert (a / b) * b == a
            assert b * b.inverse() == RF_ONE


def test_coercion():
    v = RatFunc(ONE, Poly([1, 1]))
    assert v + 1 == RatFunc(Poly([2, 1]), Poly([1, 1]))
    assert 1 - v == RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert v * Fraction(2, 3) == RatFunc(Poly([2]), Poly([3, 3]))
    assert (v * Fraction(2, 3)).den == Poly([3, 3])
    assert Poly([0, 1]) / v == RatFunc(Poly([0, 1, 1]))
    assert v ** 2 == RatFunc(ONE, Poly([1, 2, 1]))
    assert v ** 0 == RF_ONE
    assert v ** -1 == RatFunc(Poly([1, 1]))


def test_pow_negative_of_zero():
    with pytest.raises(ValueError):
        RF_ZERO ** -1


def test_substitute_power():
    v = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert v.substitute_power(3) == RatFunc(Poly([0, 0, 0, 1]), Poly([1, 0, 0, 1]))
    assert v.substitute_power(1) == v


def test_evaluate():
    v = RatFunc(Poly([-1]), Poly([1, 1]))
    assert rf_eval_rational(v, 1) == Fraction(-1, 2)
    assert rf_eval_rational(v, Fraction(1, 2)) == Fraction(-2, 3)
    with pytest.raises(ValueError):
        rf_eval_rational(RatFunc(ONE, Poly([1, 1])), -1)


def test_evaluate_refuses_a_float_or_bool():
    # the point reaches Poly.evaluate, which refuses it
    v = RatFunc(Poly([-1]), Poly([1, 1]))
    for call in (lambda: v.evaluate(0.5), lambda: rf_eval_rational(v, 0.5),
                 lambda: rf_eval_rational(v, True)):
        with pytest.raises(ValueError, match="evaluation point must be an int or a Fraction"):
            call()


def test_arith_operators():
    a = RatFunc(Poly([1, 1]))
    b = RatFunc(Poly([0, 1]))
    assert a + b == RatFunc(Poly([1, 2]))
    assert a - b == RF_ONE
    assert a * b == RatFunc(Poly([0, 1, 1]))
    assert a / b == RatFunc(Poly([1, 1]), Poly([0, 1]))


def test_normalize_idempotent():
    rng = Random(9)
    for _ in range(10):
        v = _random_rf(rng)
        again = RatFunc(v.num, v.den)
        assert again.num == v.num and again.den == v.den


def test_immutability_and_hash():
    v = RatFunc(Poly([1]), Poly([1, 1]))
    with pytest.raises(AttributeError):
        v.num = ONE
    assert hash(v) == hash(RatFunc(Poly([2]), Poly([2, 2])))
    assert RatFunc(Poly([3])) == 3
    assert v != Fraction(1, 2)


def test_str_rendering():
    assert str(RatFunc(Poly([-1]), Poly([1, 1]))) == "-1/(1+q)"
    assert str(RatFunc(Poly([0, 1, 1, 1]))) == "q+q^2+q^3"
    assert str(RF_ZERO) == "0"
    assert str(RatFunc(Poly([0, 1]), Poly([1, 2, 1]))) == "q/(1+2q+q^2)"


# ---------------------------------------------------------------------------
# canonical form and gcd, against their definitions and against sympy

COEF = st.integers(-6, 6)


@st.composite
def polys(draw, max_len=5):
    return Poly(draw(st.lists(COEF, max_size=max_len))).shift(draw(st.integers(0, 2)))


@st.composite
def sharing_pairs(draw):
    """Two polynomials with a drawn common factor, so gcds are nontrivial."""
    c = draw(polys(max_len=4))
    return draw(polys()) * c, draw(polys()) * c


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, p: Poly):
    coeffs = [sympy.Integer(c) for c in reversed(p.coefficients())]
    return sympy.Poly(coeffs or [0], sympy.Symbol("q"), domain="QQ")


def _assert_canonical(v: RatFunc) -> None:
    assert v.den.leading_coeff > 0
    assert gcd(*v.num.coefficients(), *v.den.coefficients()) == 1
    assert v.num.gcd(v.den) == ONE
    again = RatFunc(v.num, v.den)
    assert again == v and again.num == v.num and again.den == v.den


DIFF = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@DIFF
@given(sharing_pairs())
@example((ZERO, ZERO))
@example((ZERO, Poly([0, -2])))
@example((Poly([0, 0, 3]), Poly([0, 1, 2])))
def test_gcd_matches_sympy(sympy, pair):
    a, b = pair
    g = a.gcd(b)
    if g:
        # primitive integer coefficients with a positive lead
        assert all(type(c) is int for c in g.coefficients())
        assert gcd(*g.coefficients()) == 1
        assert g.leading_coeff > 0
    want = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b))
    assert (_to_sympy(sympy, g).monic() if g else _to_sympy(sympy, g)) == want


@DIFF
@given(sharing_pairs())
@example((Poly([1, 2, 1]), Poly([2, 2])))
@example((Poly([3]), Poly([0, -8])))
def test_normal_form_matches_sympy_cancel(sympy, pair):
    num, den = pair
    if not den:
        return
    v = RatFunc(num, den)
    q = sympy.Symbol("q")
    expr = sympy.cancel(_to_sympy(sympy, num).as_expr() / _to_sympy(sympy, den).as_expr())
    n, d = (sympy.Poly(part, q, domain="QQ") for part in sympy.fraction(expr))
    n, d = n.quo_ground(d.LC()), d.monic()
    # over a monic den, the least common denominator of all coefficients
    # gives integer polynomials with coprime contents and a positive lead
    scale = sympy.ilcm(1, *(c.q for c in n.all_coeffs() + d.all_coeffs()))
    assert (_to_sympy(sympy, v.num), _to_sympy(sympy, v.den)) == \
        (n.mul_ground(scale), d.mul_ground(scale))


@DIFF
@given(sharing_pairs(), sharing_pairs())
def test_canonical_form_invariants(x, y):
    pairs = [(n, d) for n, d in (x, y) if d]
    values = [RatFunc(n, d) for n, d in pairs]
    for (n, d), v in zip(pairs, values):
        # normalization keeps the value
        assert v.num * d == n * v.den
    if len(values) == 2:
        a, b = values
        values += [a + b, a - b, a * b] + ([a / b] if b else [])
    for v in values:
        _assert_canonical(v)


def _horner(p: Poly, x: Fraction) -> Fraction:
    return sum((c * x ** i for i, c in enumerate(p.coefficients())), Fraction(0))


@DIFF
@given(polys(), polys().filter(bool), polys(max_len=3).filter(bool),
       COEF.filter(bool), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
@example(Poly([1, 1]), Poly([2]), ONE, 1, Fraction(1))
@example(Poly([0, 6, 6]), Poly([0, 0, -4]), Poly([1, 1]), -3, Fraction(-1, 2))
def test_normal_form_is_unique_and_keeps_the_value(a, b, k, c, x):
    v = RatFunc(a, b)
    # a common polynomial factor k and integer factor c leave no trace
    w = RatFunc(a * k * c, b * k * c)
    assert w == v and (w.num, w.den) == (v.num, v.den)
    assert v.den.leading_coeff > 0
    assert gcd(*v.num.coefficients(), *v.den.coefficients()) == 1
    bx = _horner(b, x)
    if bx:
        assert v.evaluate(x) == _horner(a, x) / bx
