"""Oracles for the cyclotomic reduction behind every canonical form.

The library keeps its denominators (the checkers' master denominator D
among them) as exponent maps {d: e_d} over cyclotomic polynomials, and
reduces numerators against them by trial division.  None of the helpers
below call that code: D is expanded here from its defining product, Phi_d
comes from the Moebius product of the q^e - 1, and the reference
canonical form is the generic gcd reduction of RatFunc(num, D).
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, prod

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcarlitz import carlitz, identities, qcore
from qcarlitz.identities import IdentityParams, _base_entry
from qcarlitz.polyq import ONE, ZERO, Poly, balanced_bits
from qcarlitz.qcore import (cyclotomic_poly, cyclotomic_product, cyclotomic_sum,
                            cyclotomic_value, over_cyclotomic_packed, packed_divide_out,
                            q_int_exponents, q_int_poly, q_power_minus_one_exponents)
from qcarlitz.ratfunc import RF_ZERO, RatFunc

W_TRIPLES = list(combinations_with_replacement(range(1, 4), 3))


def bases_of(w):
    return tuple(sorted((w[1] * w[2], w[0] * w[2], w[0] * w[1])))


def expanded_master_den(n, bases):
    """(1-q)^n prod over the bases of [2]_{q^b} ... [n+1]_{q^b}."""
    out = (ONE - Poly.q_power(1)) ** n
    for b in bases:
        for t in range(2, n + 2):
            out = out * q_int_poly(t, b)
    return out


def master_den_exponents(n, bases):
    """D's exponent map {d: e_d} as a checker forms it: n for Phi_1, from
    (1-q)^n = (-1)^n Phi_1^n, plus the map of each base's P_b."""
    exps = Counter({1: n} if n else {})
    for b in bases:
        for d, e in _base_entry(n, b, 8)[1]:
            exps[d] += e
    return dict(exps)


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


@lru_cache(maxsize=None)
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
        for d, e in master_den_exponents(n, bases).items():
            assert e > 0
            rebuilt = rebuilt * phi_oracle(d) ** e
        assert rebuilt == expanded_master_den(n, bases), (n, bases)


def test_exponent_map_counts_the_q_integer_maps():
    # each base's map is counted from plain ints; with (1-q)^n they sum to
    # the maps of (1-q)^n and of every [t]_{q^b}, for every base multiset
    # with w <= 4
    for n in range(11):
        for w in combinations_with_replacement(range(1, 5), 3):
            bases = bases_of(w)
            want = Counter({1: n})
            for b in bases:
                for t in range(2, n + 2):
                    want += q_int_exponents(t, b)
            assert master_den_exponents(n, bases) == +want, (n, bases)


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
    # every d <= 210: 105, 165, 195 and 210 are the ones whose Phi_d has a
    # coefficient of magnitude 2
    for d in range(1, 211):
        expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(d) == Poly([int(c) for c in expected]), d


def test_cyclotomic_value_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    # every d <= 210: 105, 165, 195 and 210 are the ones whose Phi_d has a
    # coefficient of magnitude 2
    for d in range(1, 211):
        coeffs = [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()]
        # the premise of cyclotomic_poly's width, checked on sympy's Phi_d:
        # no coefficient exceeds C(phi(d), phi(d) // 2) in magnitude
        phi = int(sympy.totient(d))
        assert len(coeffs) == phi + 1, d
        assert max(map(abs, coeffs)) <= comb(phi, phi // 2), d
        for bits in (8, 16, 64, 256):
            want = 0
            for c in coeffs:
                want = (want << bits) + c
            assert cyclotomic_value(d, bits) == want, (d, bits)
    with pytest.raises(ValueError):
        cyclotomic_value(0, 8)


@st.composite
def numerators_over_master(draw):
    n = draw(st.integers(0, 3))
    bases = bases_of(draw(st.sampled_from(W_TRIPLES)))
    f = Poly(draw(st.lists(st.integers(-30, 30), max_size=6)))
    f = f * draw(st.integers(-5, 5).filter(bool))
    # a sub-multiset of D's factors, sometimes one Phi_d more than D has
    for d, e in sorted(master_den_exponents(n, bases).items()):
        f = f * phi_oracle(d) ** draw(st.integers(0, e + 1))
    return n, bases, f


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(numerators_over_master())
@example((2, (1, 2, 2), Poly()))
def test_reduction_matches_generic_gcd(case):
    # D = (-1)^n prod Phi_d^{e_d}, so the numerator takes D's sign
    n, bases, num = case
    want = RatFunc(num, expanded_master_den(n, bases))
    exps = master_den_exponents(n, bases)
    got, _ = reduce_at_least_width(-num if n % 2 else num, exps)
    assert (got.num, got.den) == (want.num, want.den)


def least_width(f):
    """The least byte width whose balanced digits hold every coefficient of f."""
    return balanced_bits(max((abs(int(c)) for c in f.coefficients()), default=0))


def reduce_at_least_width(f, exps):
    """over_cyclotomic_packed on the integer polynomial f packed at least_width."""
    bits = least_width(f)
    return over_cyclotomic_packed(f.pack(bits), bits, exps)


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


def test_spurious_trial_step_is_caught_by_the_certificate(monkeypatch):
    f = Poly([85, 85, 85])
    # 85 (1 + q + q^2) at q = 2^8 is 85 * 65793 = 255 * 21931: the trial passes
    x, k = packed_divide_out(f.pack(8), 8, 1, 1)
    assert (x, k) == (f.pack(8) // 255, 1)
    # the certificate fails at 16 bits, and dividing 85 (1 + q + q^2) at
    # q = 2^16 by 2^16 - 1 leaves 255: the trial was spurious, so the trials
    # run again at 16 bits, where the one for Phi_1 fails
    widths = []

    def divide_out(value, bits, *args):
        widths.append(bits)
        return packed_divide_out(value, bits, *args)

    monkeypatch.setattr(qcore, "packed_divide_out", divide_out)
    value, left = over_cyclotomic_packed(f.pack(8), 8, {1: 1})
    assert widths == [8, 16]
    want = RatFunc(f, phi_oracle(1))
    assert (value.num, value.den, left) == (want.num, want.den, {1: 1})
    assert want.den == Poly([-1, 1])


def test_certificate_divides_at_a_width_that_holds_the_product(monkeypatch):
    # 255^20 at 8 bits passes twenty Phi_1 trials, spuriously: f has 8-bit
    # digits, and h = (q - 1)^20 has the coefficient C(20, 10) = 184756, which
    # 16 bits do not hold.  The quotient 1 fails the certificate, f is
    # divided by h at 24 bits, the width that holds ||g||_inf ||h||_1 = 2^20,
    # not at twice 8, and the remainder there makes the trials run again
    value = 255 ** 20
    f = Poly.unpack(value, 8)
    widths = []

    def divide_out(value, bits, *args):
        widths.append(bits)
        return packed_divide_out(value, bits, *args)

    monkeypatch.setattr(qcore, "packed_divide_out", divide_out)
    reduced, left = over_cyclotomic_packed(value, 8, {1: 20})
    assert widths == [8, 24]
    want = RatFunc(f, phi_oracle(1) ** 20)
    assert (reduced.num, reduced.den, left) == (want.num, want.den, {1: 20})


def test_certificate_with_the_expanded_product_compares_nothing(monkeypatch):
    # g (q^6 - 1) at 8 bits: ||g||_inf prod ||Phi_d||_1 = 50 * 2 * 2 * 3 * 3
    # needs 16 bits, but ||g||_inf ||q^6 - 1||_1 = 100 fits 8, so the
    # certificate holds with no product at a wider width
    g = Poly([50, 3])
    f = g * (Poly.q_power(6) - ONE)
    assert least_width(f) == 8
    value = f.pack(8)
    packs = []
    pack = Poly.pack

    def observed(self, bits):
        packs.append(bits)
        return pack(self, bits)

    monkeypatch.setattr(Poly, "pack", observed)
    value, left = over_cyclotomic_packed(value, 8, {1: 1, 2: 1, 3: 1, 6: 1})
    assert packs == []
    assert (value.num, value.den, left) == (g, ONE, {})


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


@st.composite
def terms_over_cyclotomic_maps(draw):
    return draw(st.lists(st.tuples(
        st.lists(st.integers(-40, 40), max_size=5).map(Poly),
        st.integers(-6, 6), st.integers(0, 3),
        st.dictionaries(st.integers(1, 40), st.integers(0, 3), max_size=4)),
        min_size=1, max_size=6))


def scaled(num, scale, shift):
    # a term's numerator scale q^shift num, with Poly arithmetic
    return (num * scale).shift(shift)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(terms_over_cyclotomic_maps())
# both numerators have norm 1, but the second term's map multiplies the
# first by (q + 1)^12, of norm 2^12: the sum is packed at 16 bits, and
# 1 + (q + 1)^12 has a coefficient 924 that 8 bits do not hold
@example([(ONE, 1, 0, {}), (ONE, 1, 0, {2: 12})])
# a zero numerator adds nothing, but its map still enters the lcm
@example([(ZERO, 1, 0, {3: 1}), (Poly([7]), 1, 0, {})])
# a scale and a shift: -3 q^2 (1 - q) / Phi_2 + 5 q / Phi_1
@example([(Poly([1, -1]), -3, 2, {2: 1}), (ONE, 5, 1, {1: 1})])
def test_cyclotomic_sum_matches_generic_sum(terms):
    want = RatFunc(ZERO)
    lcm = Counter()
    for num, scale, shift, exps in terms:
        den = ONE
        for d, e in exps.items():
            den = den * phi_oracle(d) ** e
        want = want + RatFunc(scaled(num, scale, shift), den)
        lcm |= Counter(exps)
    value, bits, exps = cyclotomic_sum([(num, scale, shift, Counter(exps))
                                        for num, scale, shift, exps in terms])
    num = Poly.unpack(value, bits)
    assert +exps == lcm
    den = ONE
    for d, e in exps.items():
        den = den * phi_oracle(d) ** e
    assert RatFunc(num, den) == want


def reference_sum(terms):
    """Each term's numerator scale q^shift num times its cofactor, the lcm
    of the maps (Counter |) less its own map, built from phi_oracle, at the
    width of the sum of ||scale num||_1 prod ||Phi_d||_1^{cofactor}: the
    bound cyclotomic_sum's fold comes to in whatever order it takes the
    terms."""
    lcm = Counter()
    for *_, exps in terms:
        lcm |= exps
    cofs = [(scaled(num, scale, shift), lcm - exps) for num, scale, shift, exps in terms]
    bits = balanced_bits(sum(num.l1_norm() * prod(phi_oracle(d).l1_norm() ** e for d, e in cof.items())
                             for num, cof in cofs))
    value = sum(num.pack(bits) * prod(phi_oracle(d).pack(bits) ** e for d, e in cof.items())
                for num, cof in cofs)
    return value, bits, lcm


@pytest.mark.parametrize("maps", [
    [{6: 2}],                                          # a single term
    [{1: 2}, {3: 1}],                                  # disjoint
    [{1: 1, 2: 1}, {1: 3, 2: 2, 5: 1}],                # nested
    [{1: 2, 3: 1}, {1: 1, 3: 2, 4: 1}, {2: 1}],        # overlapping
    [{1: 3}, {}, {2: 1, 1: 1}, {6: 1, 3: 2}, {1: 2, 6: 2}],
    # a nested chain, shaped like the recurrence's maps at d = 1
    [{d: 1 for d in range(2, k + 2)} for k in range(1, 8)],
    # the closed form's maps, [j + 1]_q for j <= 8
    [q_int_exponents(j + 1) for j in range(9)],
])
def test_cyclotomic_sum_joins_maps_like_counter_union(maps):
    # term i scaled by (-1)^i (i + 1) and shifted by i mod 3, the first as it is
    terms = [(Poly([i + 1, -2, 0, 3 * i]), (-1) ** i * (i + 1), i % 3, Counter(m))
             for i, m in enumerate(maps)]
    value, bits, lcm = cyclotomic_sum(terms)
    assert isinstance(lcm, Counter)
    assert (value, bits, lcm) == reference_sum(terms)


# (n, h, k, d, e) with gcd(d, e) = 1, so each reaches the closed form's sum
CLOSED_FORM_CORES = [(0, 1, 1, 1, 0), (1, 1, 1, 1, 0), (8, 1, 1, 1, 0), (9, 1, 1, 2, 1),
                     (7, 2, 1, 3, 2), (6, 3, 2, 2, 5), (10, 5, 3, 1, 4), (5, 4, 3, 3, 1)]


@pytest.mark.parametrize("n, h, k, d, e", CLOSED_FORM_CORES)
def test_closed_form_hands_the_reducer_the_reference_sum(monkeypatch, n, h, k, d, e):
    # the closed form sums c_j q^{je} / prod_i [j + h - i]_{q^d} with no
    # cyclotomic_sum; its packed numerator, width and map are exactly those
    # of the reference sum of its terms, times (1 - q^d)^n's sign and map
    seen = []
    reduce = carlitz.over_cyclotomic_packed

    def spy(value, bits, exps):
        seen.append((value, bits, exps))
        return reduce(value, bits, exps)

    monkeypatch.setattr(carlitz, "over_cyclotomic_packed", spy)
    got = carlitz._beta_hk_monomial.__wrapped__(n, h, k, d, e)
    terms = []
    for j in range(n + 1):
        c, exps = comb(n, j) * (-1) ** j, Counter()
        for i in range(k):
            c *= j + h - i
            exps += q_int_exponents(j + h - i, d)
        terms.append((ONE, c, j * e, exps))
    value, bits, lcm = reference_sum(terms)
    assert seen == [((-1) ** n * value, bits, lcm + q_power_minus_one_exponents(d, n))]
    assert got == carlitz._beta_hk_monomial(n, h, k, d, e)


def test_cyclotomic_sum_multiplies_few_factors_into_cofactors(monkeypatch):
    # the cost the sum is shaped for, not its correctness (any order gives
    # the same numerator): the recurrence's maps, which nearly nest, take
    # each Phi_d of their lcm about once
    taken = []
    packed_product = qcore._packed_product

    def counted(exps, bits):
        taken.append(sum(exps.values()))
        return packed_product(exps, bits)

    monkeypatch.setattr(qcore, "_packed_product", counted)

    def counted_sum(terms):
        taken.clear()
        value, bits, lcm = cyclotomic_sum(terms)
        assert 2 * sum(taken) <= 3 * sum(lcm.values()), (len(terms), taken)
        sums.append(len(terms))
        return value, bits, lcm

    sums = []
    monkeypatch.setattr(carlitz, "cyclotomic_sum", counted_sum)
    for d in (1, 2, 3):
        carlitz.beta_number_recurrence(20, d)
    assert len(sums) == 60
    # the closed form calls no cyclotomic_sum and builds no Poly per term:
    # it packs the lcm once per value and divides each cofactor out of it
    products = []
    monkeypatch.setattr(carlitz, "_packed_product",
                        lambda exps, bits: products.append(bits) or packed_product(exps, bits))
    built = []
    init = Poly.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    sums.clear()
    for n in (10, 20, 40):
        # the second call, once the reducer's caches hold this value's maps
        for _ in range(2):
            products.clear()
            built.clear()
            carlitz._beta_hk_monomial.__wrapped__(n, 1, 1, 1, 0)
        assert len(products) == 1, n
        assert len(built) < 5, (n, len(built))
    assert sums == []


def test_cyclotomic_sum_of_no_terms_is_zero():
    assert cyclotomic_sum([]) == (0, 8, Counter())
    assert over_cyclotomic_packed(*cyclotomic_sum([])) == (RF_ZERO, Counter())


def test_over_cyclotomic_caps_and_scales():
    phi3 = phi_oracle(3)
    scaled = Poly([2, -1]) * -6
    # the map caps how often Phi_3 comes out; the integer content rides along
    value, left = reduce_at_least_width(scaled * phi3 ** 3, {3: 2})
    assert (value.num, value.den, left) == (scaled * phi3, ONE, {})
    value, left = reduce_at_least_width(scaled * phi3 ** 3, {3: 5})
    assert (value.num, value.den, left) == (scaled, phi3 ** 2, {3: 2})
    value, left = reduce_at_least_width(ZERO, {3: 4})
    assert (value.num, value.den, left) == (ZERO, ONE, {})
    value, left = reduce_at_least_width(Poly([5]), {1: 4})
    assert (value.num, value.den, left) == (Poly([5]), (Poly.q_power(1) - ONE) ** 4, {1: 4})


def test_packed_reduction_certifies_a_quotient_that_outgrows_the_width():
    f = (ONE - Poly.q_power(20)) ** 3
    quotient = -(q_int_poly(20) ** 3)
    assert least_width(f) == 8 and max(abs(c) for c in quotient.coefficients()) == 300
    # dividing at the width that holds f alone reads a wrong quotient back
    x, k = packed_divide_out(f.pack(8), 8, 1, 3)
    assert k == 3 and Poly.unpack(x, 8) != quotient
    value, left = over_cyclotomic_packed(f.pack(8), 8, {1: 3})
    assert (value.num, value.den, left) == (quotient, ONE, {})


def _carlitz_pass():
    # 60 recurrence steps and 21 closed forms: beta_number at d = 2 and 3
    # is the d = 1 value with q -> q^d, so it reduces nothing itself
    carlitz._beta_hk_monomial.cache_clear()
    for d in (1, 2, 3):
        carlitz.beta_number_recurrence(20, d)
        for n in range(21):
            carlitz.beta_number(n, d)
    return 81


def _thm1_point():
    # all six values agree, so one reduction
    assert identities.thm1_check(IdentityParams(8, (3, 3, 2), (1, 1, 0))).verdict
    return 1


@pytest.mark.parametrize("run", [_carlitz_pass, _thm1_point], ids=["carlitz", "thm1"])
def test_carlitz_reductions_never_rerun_at_twice_the_width(monkeypatch, run):
    # the closed form and the recurrence hand the reducer their sums packed
    # at the width of their fold, and the checkers theirs at the width of
    # the closed-form slot bounds; both widths hold every quotient, so no
    # reduction fails its certificate and starts again from the numerator
    # packed at twice its width (at the thm1 point the reduced numerator
    # has 64-bit coefficients, which 64 bits do not hold, so the
    # certificate takes its one product at a wider width).  A certified
    # product proves every failed trial at the caller's width, so no trial
    # division runs at any other width either.
    reduce = qcore.over_cyclotomic_packed
    trials, reruns, widths = [], [], []

    def divide_out(value, bits, *args):
        trials.append((value, bits))
        return packed_divide_out(value, bits, *args)

    def observed(value, bits, exps):
        start = len(trials)
        out = reduce(value, bits, exps)
        wide = Poly.unpack(value, bits).pack(2 * bits)
        reruns.append((wide, 2 * bits) in trials[start:])
        widths.append({w for _, w in trials[start:]} <= {bits})
        return out

    monkeypatch.setattr(qcore, "packed_divide_out", divide_out)
    # wherever a module binds the reducer by name
    for module in (qcore, carlitz, identities):
        if vars(module).get("over_cyclotomic_packed") is reduce:
            monkeypatch.setattr(module, "over_cyclotomic_packed", observed)
    calls = run()
    assert len(reruns) == calls
    assert not any(reruns)
    assert all(widths)
