"""Cross-validation of the S3-symmetric identity checkers.

The fast checkers assemble every permutation value as a numerator over one
shared master denominator.  The oracles here rebuild the same expressions
term by term through the public beta constructors and generic RatFunc
arithmetic, so agreement is a genuine two-route confirmation rather than
the same code exercised twice.
"""

import hashlib
import json
from functools import lru_cache
from math import comb, factorial

import pytest

from qcarlitz.carlitz import beta_h, beta_poly
from qcarlitz.identities import (ALL_PERMUTATIONS, CHECKS, IDENTITY_PERMUTATION,
                                 IdentityParams, Permutation3, _check, _Packed, _packed_nums,
                                 _slot_bound, _slot_norm, _thm1_num, _thm3_num,
                                 _thm4_num, cross34_check, grid_params,
                                 lemma2_coeff_check, sample_grid, thm1_check,
                                 thm1_expr, thm3_check, thm3_expr, thm4_check,
                                 thm4_expr)
from qcarlitz.polyq import ONE, ZERO, Poly
from qcarlitz.qcore import QArg, multinomial, power_sum_T, q_int, q_int_poly
from qcarlitz.ratfunc import RF_ONE, RF_ZERO, RatFunc

QM1 = RatFunc(Poly([-1, 1]))


def qp(e):
    return RatFunc(Poly.q_power(e))


def sigma_data(p, sigma):
    s1, s2, s3 = sigma.arrange(p.w)
    return (s2 * s3, s1 * s3, s1 * s2), s3


def lattice(n):
    return [(k, l, n - k - l) for k in range(n + 1) for l in range(n - k + 1)]


def naive_thm1(p, sigma):
    (b1, b2, b3), _ = sigma_data(p, sigma)
    W = p.w_product
    y1, y2, y3 = p.y
    acc = RF_ZERO
    for k, l, m in lattice(p.n):
        term = RatFunc(multinomial(p.n, k, l, m))
        term = term * q_int(b1) ** k * q_int(b2) ** l * q_int(b3) ** m
        term = term * qp(W * ((l + m) * y1 + m * y2))
        term = term * beta_h(k, l + m + 1, b1, QArg(W * y1, b1))
        term = term * beta_h(l, m + 1, b2, QArg(W * y2, b2))
        term = term * beta_poly(m, b3, QArg(W * y3, b3))
        acc = acc + term
    return acc


def naive_thm3(p, sigma):
    (b1, b2, b3), w3s = sigma_data(p, sigma)
    W = p.w_product
    y1, y2, _ = p.y
    part1 = RF_ZERO
    for k, l, m in lattice(p.n - 1):
        term = RatFunc(p.n * multinomial(p.n - 1, k, l, m))
        term = term * q_int(b1) ** k * q_int(b2) ** l * q_int(b3) ** (m + 1)
        term = term * qp(W * ((l + m + 1) * y1 + (m + 1) * y2))
        term = term * beta_h(k, l + m + 2, b1, QArg(W * y1, b1))
        term = term * beta_h(l, m + 2, b2, QArg(W * y2, b2))
        term = term * power_sum_T(2, m, w3s - 1, b3)
        part1 = part1 + term
    part2 = RF_ZERO
    for k, l, m in lattice(p.n):
        term = RatFunc(multinomial(p.n, k, l, m))
        term = term * q_int(b1) ** k * q_int(b2) ** l * q_int(b3) ** (m + 1)
        term = term * qp(W * ((l + m) * y1 + m * y2))
        term = term * beta_h(k, l + m + 1, b1, QArg(W * y1, b1))
        term = term * beta_h(l, m + 1, b2, QArg(W * y2, b2))
        term = term * power_sum_T(1, m, w3s - 1, b3)
        part2 = part2 + term
    return part1 + QM1 * part2


def naive_thm4(p, sigma):
    (b1, b2, b3), w3s = sigma_data(p, sigma)
    W = p.w_product
    y1, y2, _ = p.y
    n = p.n
    part1 = RF_ZERO
    for k in range(n):
        inner = RF_ZERO
        for i in range(w3s):
            inner = inner + qp(2 * b3 * i) * beta_h(n - 1 - k, 2, b2,
                                                    QArg(W * y2 + b3 * i, b2))
        term = RatFunc(n * comb(n - 1, k))
        term = term * beta_h(k, n - k + 1, b1, QArg(W * y1, b1))
        term = term * qp(W * ((n - k) * y1 + y2))
        term = term * q_int(b3) * q_int(b1) ** k * q_int(b2) ** (n - 1 - k)
        part1 = part1 + term * inner
    part2 = RF_ZERO
    for k in range(n + 1):
        inner = RF_ZERO
        for i in range(w3s):
            inner = inner + qp(b3 * i) * beta_poly(n - k, b2,
                                                   QArg(W * y2 + b3 * i, b2))
        term = RatFunc(comb(n, k))
        term = term * beta_h(k, n - k + 1, b1, QArg(W * y1, b1))
        term = term * qp(W * (n - k) * y1)
        term = term * q_int(b3) * q_int(b1) ** k * q_int(b2) ** (n - k)
        part2 = part2 + term * inner
    return part1 + QM1 * part2


PTS1 = [
    IdentityParams(1, (1, 2, 1), (1, 0, 0)),
    IdentityParams(2, (2, 1, 3), (0, 1, 2)),
    IdentityParams(3, (1, 2, 2), (1, 1, 1)),
    IdentityParams(0, (2, 2, 2), (2, 1, 0)),
]

PTS34 = [
    IdentityParams(1, (1, 1, 2)),
    IdentityParams(1, (2, 1, 1)),
    IdentityParams(2, (1, 2, 3), (1, 1, 0)),
    IdentityParams(2, (2, 2, 1), (1, 0, 0)),
    IdentityParams(3, (1, 2, 2), (0, 1, 0)),
]

SOME_SIGMAS = (ALL_PERMUTATIONS[0], ALL_PERMUTATIONS[3], ALL_PERMUTATIONS[5])


def test_params_validation():
    p = IdentityParams(2, (1, 2, 3), (0, 1, 0))
    assert p.w_product == 6
    assert p.as_dict() == {"n": 2, "w": [1, 2, 3], "y": [0, 1, 0]}
    assert IdentityParams(0, (1, 1, 1)).y == (0, 0, 0)
    with pytest.raises(ValueError):
        IdentityParams(-1, (1, 1, 1))
    with pytest.raises(ValueError):
        IdentityParams(1, (1, 0, 1))
    with pytest.raises(ValueError):
        IdentityParams(1, (1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        IdentityParams(1, (1, 1, 1), (0, -1, 0))


def test_permutation_validation_and_arrange():
    s = Permutation3((2, 3, 1))
    assert s.label == "231"
    assert s.arrange((10, 20, 30)) == (20, 30, 10)
    assert IDENTITY_PERMUTATION.arrange((10, 20, 30)) == (10, 20, 30)
    assert len(ALL_PERMUTATIONS) == 6
    assert tuple(s.label for s in ALL_PERMUTATIONS) == (
        "123", "132", "213", "231", "312", "321")
    with pytest.raises(ValueError):
        Permutation3((1, 2, 2))
    with pytest.raises(ValueError):
        Permutation3((0, 1, 2))


def test_thm1_degree_zero_is_one():
    for w in [(1, 1, 1), (2, 3, 1)]:
        p = IdentityParams(0, w, (1, 2, 0))
        for s in ALL_PERMUTATIONS:
            assert thm1_expr(p, s) == RF_ONE
    r = thm1_check(IdentityParams(0, (2, 3, 1), (1, 2, 0)))
    assert r.verdict
    assert all(v == RF_ONE for v in r.values)


def test_thm1_matches_direct_evaluation():
    for p in PTS1:
        for s in SOME_SIGMAS:
            assert thm1_expr(p, s) == naive_thm1(p, s), (p, s.label)


def test_thm3_matches_direct_evaluation():
    for p in PTS34:
        for s in SOME_SIGMAS:
            assert thm3_expr(p, s) == naive_thm3(p, s), (p, s.label)


def test_thm4_matches_direct_evaluation():
    for p in PTS34:
        for s in SOME_SIGMAS:
            assert thm4_expr(p, s) == naive_thm4(p, s), (p, s.label)


def test_six_way_reports():
    r = thm1_check(IdentityParams(1, (1, 2, 1), (1, 0, 0)))
    assert r.identity == "thm1"
    assert r.params == {"n": 1, "w": [1, 2, 1], "y": [1, 0, 0]}
    assert r.labels == ("123", "132", "213", "231", "312", "321")
    assert r.verdict and r.witness is None
    assert all(v == r.values[0] for v in r.values)
    assert thm1_check(IdentityParams(3, (2, 2, 2), (0, 0, 0))).verdict
    assert thm3_check(IdentityParams(1, (1, 1, 2))).verdict
    assert thm4_check(IdentityParams(1, (2, 1, 1))).verdict
    assert thm4_check(IdentityParams(2, (1, 2, 3), (1, 1, 0))).verdict


def test_cross_theorem_agreement():
    for p in PTS34:
        r = cross34_check(p)
        assert r.verdict, p
        assert r.identity == "cross34"
        assert len(r.labels) == 12
        assert r.labels[0] == "thm3:123" and r.labels[6] == "thm4:123"


def series_exp(bracket, order):
    """Coefficient list of e^{bracket*t} in t, up to the given order."""
    out = [RF_ONE]
    for k in range(1, order + 1):
        out.append(out[-1] * bracket / k)
    return out


def test_lemma2_series_oracle_confirms_coefficients():
    # The t-expansion of sum_{i<w3} (t q^{2di} + (q^d - 1) q^{di}) e^{[i]_{q^d} t}
    # must carry n*T_{2,n-1}(w3-1) + (q^d - 1)*T_{1,n}(w3-1) as its t^n/n!
    # coefficient.  Built here with honest truncated series, no beta involved.
    order = 3
    for d in (1, 2):
        qd = qp(d)
        for w3 in (1, 2, 3):
            series = [RF_ZERO] * (order + 1)
            for i in range(w3):
                exp_i = series_exp(q_int(i, d), order)
                c0 = (qd - 1) * qp(d * i)
                for k in range(order + 1):
                    series[k] = series[k] + c0 * exp_i[k]
                c1 = qp(2 * d * i)
                for k in range(1, order + 1):
                    series[k] = series[k] + c1 * exp_i[k - 1]
            for n in range(order + 1):
                want = (qd - 1) * power_sum_T(1, n, w3 - 1, d)
                if n >= 1:
                    want = want + power_sum_T(2, n - 1, w3 - 1, d) * n
                assert series[n] * factorial(n) == want, (d, w3, n)


def test_lemma2_grid():
    r = lemma2_coeff_check(1, 1, 1)
    assert r.verdict and str(r.values[0]) == "1"
    r = lemma2_coeff_check(1, 1, 2)
    assert r.verdict
    assert str(r.values[0]) == "1-q+2q^2"
    for n in range(7):
        for d in (1, 2, 6):
            for w3 in (1, 2, 3):
                r = lemma2_coeff_check(n, d, w3)
                assert r.verdict, (n, d, w3)
                assert r.params == {"n": n, "d": d, "w3": w3}


PUBLIC_CHECKS = {"thm1": thm1_check, "thm3": thm3_check, "thm4": thm4_check,
                 "cross34": cross34_check}
PUBLIC_EXPRS = {"thm3": thm3_expr, "thm4": thm4_expr}
REFUSALS = {"thm3": "Theorem 3 requires positive n",
            "thm4": "Theorem 4 requires positive n",
            "cross34": "cross-theorem check requires positive n"}


def test_positive_degree_required():
    # each check refuses the degree below its least n with its own message,
    # through the report and through one permutation's value
    assert set(CHECKS) == set(PUBLIC_CHECKS)
    assert {name for name, (least_n, *_) in CHECKS.items() if least_n > 0} == set(REFUSALS)
    for name, (least_n, refusal, _, _) in CHECKS.items():
        if least_n == 0:
            continue
        assert refusal == REFUSALS[name]
        below = IdentityParams(least_n - 1, (1, 1, 1))
        with pytest.raises(ValueError, match=REFUSALS[name]):
            _check(name, below)
        with pytest.raises(ValueError, match=REFUSALS[name]):
            PUBLIC_CHECKS[name](below)
        if name in PUBLIC_EXPRS:
            with pytest.raises(ValueError, match=REFUSALS[name]):
                PUBLIC_EXPRS[name](below, IDENTITY_PERMUTATION)


def test_checks_that_ignore_y3_give_the_same_values_at_any_y3():
    # the CLI's grids hold y3 at 0 for these checks (grid_params vary_y3)
    for name, (_, _, reads_y3, _) in CHECKS.items():
        if reads_y3:
            continue
        for p in grid_params((1, 2), 2, 1, vary_y3=False):
            moved = IdentityParams(p.n, p.w, (p.y[0], p.y[1], 2))
            assert PUBLIC_CHECKS[name](p).values == PUBLIC_CHECKS[name](moved).values, (name, p)
    # thm1 reads y3, and its values do depend on it
    _, _, reads_y3, _ = CHECKS["thm1"]
    assert reads_y3
    values = [thm1_check(IdentityParams(2, (1, 2, 2), y)).values
              for y in ((0, 1, 0), (0, 1, 1))]
    assert values[0] != values[1]


def test_lemma2_argument_validation():
    with pytest.raises(ValueError):
        lemma2_coeff_check(-1, 1, 1)
    with pytest.raises(ValueError):
        lemma2_coeff_check(1, 0, 1)
    with pytest.raises(ValueError):
        lemma2_coeff_check(1, 1, 0)


def test_grid_enumeration():
    grid = grid_params(range(2), 2, 1)
    assert len(grid) == 2 * 8 * 8
    assert grid == sorted(grid)
    assert grid[0] == IdentityParams(0, (1, 1, 1), (0, 0, 0))
    assert grid[-1] == IdentityParams(1, (2, 2, 2), (1, 1, 1))
    flat = grid_params(range(2), 2, 1, vary_y3=False)
    assert len(flat) == 2 * 8 * 4
    assert all(p.y[2] == 0 for p in flat)


def test_sampling_is_deterministic_and_ordered():
    grid = grid_params(range(3), 2, 1)
    sample = sample_grid(grid, 50)
    assert len(sample) == 50
    assert sample == sample_grid(grid, 50)
    assert sample == sorted(sample)
    seen = set(grid)
    assert all(p in seen for p in sample)
    full = sample_grid(grid, len(grid) + 1)
    assert full == grid and full is not grid


# ---------------------------------------------------------------------------
# packed numerators against literal coefficient-list sums
#
# The checkers evaluate each permutation's numerator at q = 2^bits from
# closed forms of its factors, with the lattice sum nested by slot, and
# compare integers.  The sums below are written out term by term on plain
# coefficient lists (schoolbook products, shifted adds, an explicit (q - 1)
# factor), from factor polynomials built here with Poly arithmetic, so they
# share no code with the closed forms, the nesting, the width bound or the
# unpacking.


@lru_cache(maxsize=None)
def _beta_struct_num(deg, h, d, e):
    """Numerator of beta^{(h)}_{deg, q^d} at argument q^e over the structural
    denominator (1-q^d)^deg * [h]_{q^d} * ... * [h+deg]_{q^d}."""
    acc = ZERO
    for j in range(deg + 1):
        term = ONE
        for t in range(h, h + deg + 1):
            if t != h + j:
                term = term * q_int_poly(t, d)
        acc = acc + (term * (comb(deg, j) * (j + h) * (-1) ** j)).shift(j * e)
    return acc


@lru_cache(maxsize=None)
def _slot_cofactor(n, b, deg, h):
    """Master slot (1-q^b)^n [2]..[n+1] divided by the structural denominator
    of a beta factor with degree deg and order h in base q^b."""
    out = (ONE - Poly.q_power(b)) ** (n - deg)
    for t in range(2, n + 2):
        if not h <= t <= h + deg:
            out = out * q_int_poly(t, b)
    return out


@lru_cache(maxsize=None)
def _shifted_beta_sum(deg, h, d, e0, step, count):
    """sum_{i<count} q^{h*step*i} * numerator of beta^{(h)}_{deg, q^d}(q^{e0+step*i})."""
    acc = ZERO
    for i in range(count):
        acc = acc + _beta_struct_num(deg, h, d, e0 + step * i).shift(h * step * i)
    return acc


@lru_cache(maxsize=None)
def _thm1_fixed(n, b1, b2, b3, k, l, m):
    out = _slot_cofactor(n, b1, k, l + m + 1)
    out = out * _slot_cofactor(n, b2, l, m + 1)
    out = out * _slot_cofactor(n, b3, m, 1)
    return out * q_int_poly(b1) ** k * q_int_poly(b2) ** l * q_int_poly(b3) ** m


@lru_cache(maxsize=None)
def _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, part):
    if part == 1:
        h1, h2, tdeg = l + m + 2, m + 2, 2
    else:
        h1, h2, tdeg = l + m + 1, m + 1, 1
    out = _slot_cofactor(n, b1, k, h1)
    out = out * _slot_cofactor(n, b2, l, h2)
    out = out * _slot_cofactor(n, b3, 0, 1)
    out = out * q_int_poly(b1) ** k * q_int_poly(b2) ** l * q_int_poly(b3) ** (m + 1)
    return out * power_sum_T(tdeg, m, w3s - 1, b3).num


@lru_cache(maxsize=None)
def _thm4_fixed(n, b1, b2, b3, k, part):
    if part == 1:
        inner_deg, inner_h = n - 1 - k, 2
    else:
        inner_deg, inner_h = n - k, 1
    out = _slot_cofactor(n, b1, k, n - k + 1)
    out = out * _slot_cofactor(n, b2, inner_deg, inner_h)
    out = out * _slot_cofactor(n, b3, 0, 1)
    return out * q_int_poly(b1) ** k * q_int_poly(b2) ** inner_deg * q_int_poly(b3)


def _coeffs(poly):
    return [int(c) for c in poly.coefficients()]


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return out


def _add_shifted(acc, vec, c, shift):
    acc.extend([0] * (shift + len(vec) - len(acc)))
    for i, x in enumerate(vec):
        acc[shift + i] += c * x


def _term(factors):
    out = [1]
    for f in factors:
        out = _conv(out, _coeffs(f))
    return out


def literal_thm1(n, W, y, bases, _w3s):
    b1, b2, b3 = bases
    acc = []
    for k, l, m in lattice(n):
        t = _term([_beta_struct_num(k, l + m + 1, b1, W * y[0]),
                   _beta_struct_num(l, m + 1, b2, W * y[1]),
                   _beta_struct_num(m, 1, b3, W * y[2]),
                   _thm1_fixed(n, b1, b2, b3, k, l, m)])
        _add_shifted(acc, t, multinomial(n, k, l, m), W * ((l + m) * y[0] + m * y[1]))
    return acc


def literal_thm3(n, W, y, bases, w3s):
    b1, b2, b3 = bases
    part1, part2 = [], []
    for k, l, m in lattice(n - 1):
        t = _term([_beta_struct_num(k, l + m + 2, b1, W * y[0]),
                   _beta_struct_num(l, m + 2, b2, W * y[1]),
                   _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, 1)])
        _add_shifted(part1, t, n * multinomial(n - 1, k, l, m),
                     W * ((l + m + 1) * y[0] + (m + 1) * y[1]))
    for k, l, m in lattice(n):
        t = _term([_beta_struct_num(k, l + m + 1, b1, W * y[0]),
                   _beta_struct_num(l, m + 1, b2, W * y[1]),
                   _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, 2)])
        _add_shifted(part2, t, multinomial(n, k, l, m), W * ((l + m) * y[0] + m * y[1]))
    _add_shifted(part1, _conv([-1, 1], part2), 1, 0)
    return part1


def literal_thm4(n, W, y, bases, w3s):
    b1, b2, b3 = bases
    part1, part2 = [], []
    for k in range(n):
        t = _term([_beta_struct_num(k, n - k + 1, b1, W * y[0]),
                   _shifted_beta_sum(n - 1 - k, 2, b2, W * y[1], b3, w3s),
                   _thm4_fixed(n, b1, b2, b3, k, 1)])
        _add_shifted(part1, t, n * comb(n - 1, k), W * ((n - k) * y[0] + y[1]))
    for k in range(n + 1):
        t = _term([_beta_struct_num(k, n - k + 1, b1, W * y[0]),
                   _shifted_beta_sum(n - k, 1, b2, W * y[1], b3, w3s),
                   _thm4_fixed(n, b1, b2, b3, k, 2)])
        _add_shifted(part2, t, comb(n, k), W * (n - k) * y[0])
    _add_shifted(part1, _conv([-1, 1], part2), 1, 0)
    return part1


def _trimmed(vec):
    while vec and vec[-1] == 0:
        vec.pop()
    return vec


def _check_packed(p, pairs):
    """pairs: (packed builder, literal builder) per theorem, six permutations each."""
    built, literal = [], []
    for num_fn, literal_fn in pairs:
        for sigma in ALL_PERMUTATIONS:
            bases, w3s = sigma_data(p, sigma)
            built.append((num_fn, p.w_product, p.y, bases, w3s))
            literal.append(_trimmed(literal_fn(p.n, p.w_product, p.y, bases, w3s)))
    nums, bits = _packed_nums(p.n, built)
    assert bits % 8 == 0
    for value, want in zip(nums, literal):
        # every coefficient fits the shared width, so the integer is the polynomial
        assert all(abs(c) < 2 ** (bits - 1) for c in want), p
        acc = 0
        for c in reversed(want):
            acc = (acc << bits) + c
        assert value == acc, p
        assert _coeffs(Poly.unpack(value, bits)) == want, p


def test_packed_thm1_numerators_match_literal_sums():
    for p in grid_params(range(4), 2, 1):
        _check_packed(p, [(_thm1_num, literal_thm1)])


def test_packed_cross34_numerators_match_literal_sums():
    # the benchmark's cross34 grid, below n = 3
    for p in grid_params((1, 2), 3, 2, vary_y3=False):
        _check_packed(p, [(_thm3_num, literal_thm3), (_thm4_num, literal_thm4)])


def test_slot_values_and_norms_match_literal_polynomials():
    # the closed-form slot value, its norm and the closed-form bound,
    # against the slot cofactor times the beta numerator built with Poly;
    # no slot value vanishes, which `_Packed.tsum` relies on
    tight = 0
    for n in range(5):
        for deg in range(n + 1):
            for h in range(1, n + 2 - deg):
                for b, e, step, count in [(1, 0, 0, 1), (2, 2, 0, 1), (3, 7, 0, 1),
                                          (2, 4, 3, 2), (1, 1, 2, 3)]:
                    lit = _slot_cofactor(n, b, deg, h) * _shifted_beta_sum(deg, h, b, e,
                                                                          step, count)
                    assert lit, (n, b, deg, h, e, step, count)
                    bound = _slot_bound(n, deg, h, count)
                    assert _Packed(n, 64).slot(b, deg, h, e, step, count) == lit.pack(64)
                    assert _slot_norm(n, b, deg, h, e, step, count) == lit.l1_norm() <= bound
                    tight += lit.l1_norm() == bound
    # 2 (1 - q) at n = 1, deg = 0, h = 2 meets the bound, so it cannot shrink
    assert _slot_bound(1, 0, 2, 1) == (_slot_cofactor(1, 1, 0, 2)
                                       * _beta_struct_num(0, 2, 1, 0)).l1_norm() == 4
    assert tight
    with pytest.raises(ValueError, match="exceeds the master slot"):
        _Packed(2, 8).slot(1, 2, 2, 0)


# sha256 of the canonical values of two large-n reports, recorded before the
# packed pipeline.  At the thm1 point the reduced numerator has 64-bit
# coefficients while 64 bits hold the unreduced one, so the packed reduction
# there must widen and certify, not trust the width.
LARGE_N_GOLDENS = [
    (thm1_check, IdentityParams(8, (3, 3, 2), (1, 1, 0)),
     "efd01736d8808c3731ab5c9152df8ef59dd371bd764e78f95cff04f2694f84a9"),
    (cross34_check, IdentityParams(6, (3, 2, 3), (1, 1, 0)),
     "3b8b2d5796ae5845d1167a3a9147d0c8ec6a4ee07ea7a2f7e36a63d3880a5e23"),
]


@pytest.mark.parametrize("check, params, digest", LARGE_N_GOLDENS)
def test_large_n_reports_match_golden(check, params, digest):
    r = check(params)
    values = [[[str(c) for c in v.num.coefficients()], [str(c) for c in v.den.coefficients()]]
              for v in r.values]
    blob = json.dumps([r.identity, list(r.labels), values, r.verdict], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
