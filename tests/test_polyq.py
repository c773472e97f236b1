from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcarlitz.polyq import ONE, Poly, Q, ZERO, _school_mul, balanced_bits
from qcarlitz.qcore import packed_divide_out


def test_construction_trims_and_normalizes():
    assert Poly([0, 0, 0]) == ZERO
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([]) == ZERO
    assert not ZERO
    assert ONE
    assert Poly([Fraction(4, 2), Fraction(-3)]) == Poly([2, -3])
    for bad in (Fraction(1, 2), 0.5, 1.0, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            Poly([1, bad])


def test_coefficients_and_degree():
    p = Poly([-3, 0, Fraction(2)])
    assert p.degree == 2
    assert p.coefficients() == (-3, 0, 2)
    assert all(type(c) is int for c in p.coefficients())
    assert p.coeff(0) == -3
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
    assert a * 3 == Poly([3, 6])
    with pytest.raises(TypeError):
        a * Fraction(1, 2)
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


def test_mul_matches_packed_product():
    # the packed product evaluates both factors at q = 2^w and multiplies
    # two integers: an oracle that shares no code with the schoolbook loop
    rng = Random(7)
    for _ in range(8):
        a = Poly([rng.randrange(-50, 51) for _ in range(rng.randrange(40, 80))])
        b = Poly([rng.randrange(-50, 51) for _ in range(rng.randrange(40, 80))])
        w = balanced_bits(a.l1_norm() * b.l1_norm())
        assert a * b == Poly.unpack(a.pack(w) * b.pack(w), w)


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
    p = Poly([2, -2, 1])
    assert p.evaluate(2) == 2
    assert p.evaluate(Fraction(1, 3)) == Fraction(13, 9)
    assert ZERO.evaluate(5) == 0


def test_evaluate_refuses_a_float_or_bool():
    # evaluation is exact, so 0.5 would give a float and True the value at 1
    for x in (0.5, 2.0, True):
        with pytest.raises(ValueError, match="evaluation point must be an int or a Fraction"):
            Poly([2, -2, 1]).evaluate(x)


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
    # exact in Z[q]: a quotient that needs a fraction is refused
    a = Poly([1, 2]) * Poly([2, 3])
    assert a.divexact(Poly([2, 3])) == Poly([1, 2])
    assert Poly([0, 4]).divexact(Poly([2])) == Poly([0, 2])
    for f, g in ((Poly([0, 2]), Poly([4])), (a, Poly([4, 6])), (Poly([1, 1]), Poly([2, 2]))):
        with pytest.raises(ValueError, match="not an exact"):
            f.divexact(g)
        assert not g.divides(f)


def test_gcd_basic():
    a = Poly([1, 1]) * Poly([1, 0, 1])
    b = Poly([1, 1]) * Poly([2, 1])
    g = a.gcd(b)
    assert g == Poly([1, 1])
    assert a.gcd(ZERO).leading_coeff == 1
    assert ZERO.gcd(ZERO) == ZERO
    assert ZERO.gcd(Poly([0, -2])) == Poly([0, 1])
    assert Poly([0, -2]).gcd(ZERO) == Poly([0, 1])


def test_packed_divide_out_counts_and_caps_a_factor():
    phi3 = Poly([1, 1, 1])
    f = Poly([2, -1]) * phi3 ** 3
    for bits in (8, 16):
        x = f.pack(bits)
        assert packed_divide_out(x, bits, 3, 5) == (Poly([2, -1]).pack(bits), 3)
        assert packed_divide_out(x, bits, 3, 2) == ((Poly([2, -1]) * phi3).pack(bits), 2)
        assert packed_divide_out(0, bits, 3, 4) == (0, 0)
        assert packed_divide_out(5, bits, 1, 4) == (5, 0)
        assert packed_divide_out(-x, bits, 1, 4) == (-x, 0)


def test_gcd_is_monic_and_divides_both():
    rng = Random(11)
    for _ in range(6):
        c = Poly([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))] + [1])
        a = c * Poly([rng.randrange(-4, 5) for _ in range(3)] + [1])
        b = c * Poly([rng.randrange(-4, 5) for _ in range(4)] + [1])
        g = a.gcd(b)
        assert g.leading_coeff == 1
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
    assert str(Poly([-3, 0, 1])) == "-3+q^2"
    assert str(Poly([0, -2, 0, 5])) == "-2q+5q^3"


# ---------------------------------------------------------------------------
# byte-wise packing: evaluation at q = 2**bits with balanced digits

# both sides of the 64-bit word that splits the packing kernel
WIDTHS = (8, 16, 24, 40, 56, 64, 72, 128)


@st.composite
def packable(draw, bits=None, min_len=0):
    """(coefficient list, bits) with every coefficient in
    [-2**(bits-1), 2**(bits-1)), both ends drawn on their own."""
    if bits is None:
        bits = draw(st.sampled_from(WIDTHS))
    lo, hi = -2 ** (bits - 1), 2 ** (bits - 1) - 1
    coef = st.one_of(st.integers(lo, hi), st.sampled_from([lo, 0, hi]))
    return draw(st.lists(coef, min_size=min_len, max_size=40)), bits


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(packable())
@example(([], 8))
@example(([127], 8))
@example(([-127], 8))
@example(([0, 0, 5, -127], 8))
@example(([2 ** 63 - 1, -(2 ** 63 - 1), 0, -(2 ** 63 - 1)], 64))
@example(([-2 ** 63, 2 ** 63 - 1, 0, -2 ** 63], 64))
@example(([-2 ** 39, 2 ** 39 - 1, -1], 40))
@example(([2 ** 63, -2 ** 71, 2 ** 71 - 1], 72))
def test_pack_round_trip(case):
    vec, bits = case
    p = Poly(vec)
    value = p.pack(bits)
    # the packed value is the evaluation at 2**bits, written out here by Horner
    acc = 0
    for c in reversed(vec):
        acc = (acc << bits) + c
    assert value == acc
    assert Poly.unpack(value, bits) == p


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(packable(min_len=1), st.data())
@example(([127], 8), None)
@example(([-127, 0, 127], 8), None)
@example(([0], 8), None)
@example(([3, -5, 0, -(2 ** 23 - 1)], 24), None)
def test_packed_product_matches_schoolbook(case, data):
    a, bits = case
    b = [1] if data is None else data.draw(packable(bits, min_len=1))[0]
    want = _school_mul(a, b)
    if any(a) and any(b):
        # a width from the L1 norms holds every product coefficient (and
        # each factor's, as long as neither factor vanishes)
        width = balanced_bits(Poly(a).l1_norm() * Poly(b).l1_norm())
        got = Poly.unpack(Poly(a).pack(width) * Poly(b).pack(width), width)
        assert got == Poly(want)


def test_balanced_bits_is_the_least_byte_width():
    assert [balanced_bits(x) for x in (0, 1, 127, 128, 2 ** 15 - 1, 2 ** 15)] == \
        [8, 8, 8, 16, 16, 24]


def test_pack_refuses_what_it_cannot_represent():
    with pytest.raises(ValueError, match="does not fit"):
        Poly([1, 128]).pack(8)
    with pytest.raises(ValueError, match="does not fit"):
        Poly([-129]).pack(8)
    with pytest.raises(ValueError, match="multiple of 8"):
        Poly([1]).pack(12)
    with pytest.raises(ValueError, match="multiple of 8"):
        Poly.unpack(5, 0)
    assert Poly([-128, 3]).pack(8) == -128 + 3 * 256
    assert Poly([-3, 4]).l1_norm() == 7 and ZERO.l1_norm() == 0


# one past each end of the balanced range at every width up to 72 bits,
# past int64 at 64 bits and below, and an int64 that is too wide for 40 bits
REFUSED = sorted({(bits, c) for bits in WIDTHS if bits <= 72
                  for c in (2 ** (bits - 1), -2 ** (bits - 1) - 1)}
                 | {(bits, c) for bits in WIDTHS if bits <= 64 for c in (2 ** 64, -2 ** 70)}
                 | {(40, 2 ** 62), (40, -2 ** 50)})


@pytest.mark.parametrize("bits,c", REFUSED)
def test_pack_refuses_a_coefficient_past_the_width(bits, c):
    lo, hi = -2 ** (bits - 1), 2 ** (bits - 1) - 1
    # alone, as the top coefficient, and amid coefficients that fit
    for vec in ([c], [hi, c], [0, lo, c] + [hi, lo] * 20):
        with pytest.raises(ValueError, match="does not fit"):
            Poly(vec).pack(bits)


@pytest.mark.parametrize("k", [0, 1, -1, -7, 2 ** 64 + 3, -(2 ** 65)])
@pytest.mark.parametrize("p", [ZERO, ONE, Poly([3, 0, -5]), Poly([-1, 2 ** 70])])
def test_scalar_product_matches_schoolbook(p, k):
    want = Poly(_school_mul(p.coefficients(), [k]))
    assert p * k == want and k * p == want


# ---------------------------------------------------------------------------
# the divexact contract: the exact quotient, or ValueError and divides False

COEFFS = st.lists(st.integers(-20, 20), max_size=14)


@st.composite
def polys(draw, nonzero=False):
    """A polynomial with small integer coefficients times q**k, k <= 3."""
    coeffs = draw(COEFFS.filter(any) if nonzero else COEFFS)
    return Poly(coeffs).shift(draw(st.integers(0, 3)))


# a 60-term dividend: quotients of more than 48 coefficients
LONG = Poly([((7 * i) % 11 - 5) * (6 // (1 + i % 3)) for i in range(60)])
LONG_INT = Poly([(7 * i) % 11 - 5 for i in range(60)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(polys(), polys(nonzero=True))
@example(LONG, Poly([3, 5, 1]))                   # unit lead
@example(LONG, Poly([1, 5, 3]))                   # unit constant term only
@example(LONG, Poly([2, 5, 3]))                   # neither end a unit
@example(LONG_INT, Poly([2, 3, 2]))               # integer and primitive, no unit end
@example(LONG_INT, Poly([1, 2]))                  # unit constant term, lead 2
@example(Poly([1, -2, 3]), Poly([2, 0, -15]))     # non-unit lead
@example(Poly([24, 0, -1]), Poly([9, 24]))
@example(Poly([1, 1]).shift(3), Poly([2, 0, 1]).shift(2))  # q^k offsets
@example(LONG.shift(4), Poly([1, 5, 3]).shift(1))
@example(ZERO, Poly([1, 1]))
@example(Poly([5, 6]), Poly([-3]))
def test_divexact_recovers_the_quotient(f, g):
    assert (f * g).divexact(g) == f
    assert g.divides(f * g)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(polys(), polys(nonzero=True), polys(nonzero=True))
@example(LONG, Poly([3, 5, 1]), Poly([1]))
@example(LONG, Poly([1, 5, 3]), Poly([0, 1]))
@example(LONG, Poly([2, 5, 3]), Poly([1, 1]))
@example(LONG_INT, Poly([2, 3, 2]), Poly([0, 1]))
@example(LONG_INT, Poly([1, 2]), Poly([-3]))
@example(Poly([1, -2, 3]), Poly([2, 0, -15]), Poly([0, 7]))
@example(Poly([1, 1]).shift(3), Poly([2, 0, 1]).shift(2), Poly([0, 0, 0, 1]))
@example(LONG.shift(4), Poly([1, 5, 3]).shift(1), Poly([1]))
@example(ZERO, Poly([1, 1]), Poly([5]))
def test_divexact_refuses_a_remainder(f, g, r):
    # keep the terms of r below deg g: f*g + r then leaves remainder r
    r = Poly(r.coefficients()[:max(g.degree, 0)])
    assume(r)
    h = f * g + r
    with pytest.raises(ValueError, match="not an exact"):
        h.divexact(g)
    assert not g.divides(h)


# ---------------------------------------------------------------------------
# ring axioms for + and *: Poly is the reference the packed paths are
# checked against

RING_COEF = st.integers(-60, 60)


@st.composite
def ring_polys(draw):
    """Up to 70 coefficients, shifted by up to q^2."""
    return Poly(draw(st.lists(RING_COEF, max_size=70))).shift(draw(st.integers(0, 2)))


SHORT = Poly([6, -2, 1])
LONG_A = Poly([(5 * i) % 13 - 6 for i in range(60)])
LONG_B = Poly([((3 * i) % 7 - 3) * (2 // (1 + i % 2)) for i in range(55)])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(ring_polys(), ring_polys(), ring_polys())
@example(LONG_A, LONG_B, SHORT)
@example(SHORT, LONG_A, LONG_B)
@example(LONG_A, ZERO, LONG_B)
@example(ONE, SHORT, -SHORT)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * ONE == a and a + ZERO == a and a - a == ZERO
