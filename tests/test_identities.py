"""Cross-validation of the S3-symmetric identity checkers.

The fast checkers assemble every permutation value as a numerator over one
shared master denominator.  The oracles here rebuild the same expressions
term by term through the public beta constructors and generic RatFunc
arithmetic, so agreement is a genuine two-route confirmation rather than
the same code exercised twice.
"""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import pytest

from qcarlitz import identities, qcore
from qcarlitz.cli import _SUITE_DEFAULTS
from qcarlitz.carlitz import bernoulli_classical, beta_h, beta_poly
from qcarlitz.identities import (ALL_PERMUTATIONS, CHECKS, IdentityParams, Permutation3,
                                 _base_entry, _bases, _certificate, _check, _Form, _Formal,
                                 _forms, _frozen, _l1_bound, _LABELS, _realize, _thm1_num,
                                 _thm3_num, _thm4_num, _W3, _Y_UNITS, _Z_UNIT,
                                 cross34_check, grid_params, lemma2_coeff_check, sample_grid,
                                 thm1_check, thm3_check, thm4_check)
from qcarlitz.polyq import ONE, ZERO, Poly
from qcarlitz.qcore import (over_cyclotomic_packed, packed_divide_out, power_sum_T, q_int,
                            q_int_poly)
from qcarlitz.ratfunc import RF_ONE, RF_ZERO, RatFunc

QM1 = RatFunc(Poly([-1, 1]))


def qp(e):
    return RatFunc(Poly.q_power(e))


def sigma_data(p, sigma):
    s1, s2, s3 = sigma.arrange(p.w)
    return (s2 * s3, s1 * s3, s1 * s2), s3


def lattice(n):
    return [(k, l, n - k - l) for k in range(n + 1) for l in range(n - k + 1)]


def multinomial(n, k, l, m):
    """n!/(k! l! m!) for a composition (k, l, m) of n."""
    assert k + l + m == n
    return comb(n, k) * comb(n - k, l)


def value_of(report, sigma):
    """The report's canonical value for the permutation sigma."""
    return report.values[report.labels.index(sigma.label)]


def naive_thm1(p, sigma):
    (b1, b2, b3), _ = sigma_data(p, sigma)
    W = p.w_product
    y1, y2, y3 = p.y
    acc = RF_ZERO
    for k, l, m in lattice(p.n):
        term = RatFunc(multinomial(p.n, k, l, m))
        term = term * q_int(b1) ** k * q_int(b2) ** l * q_int(b3) ** m
        term = term * qp(W * ((l + m) * y1 + m * y2))
        term = term * beta_h(k, l + m + 1, b1, Fraction(W * y1, b1))
        term = term * beta_h(l, m + 1, b2, Fraction(W * y2, b2))
        term = term * beta_poly(m, b3, Fraction(W * y3, b3))
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
        term = term * beta_h(k, l + m + 2, b1, Fraction(W * y1, b1))
        term = term * beta_h(l, m + 2, b2, Fraction(W * y2, b2))
        term = term * power_sum_T(2, m, w3s - 1, b3)
        part1 = part1 + term
    part2 = RF_ZERO
    for k, l, m in lattice(p.n):
        term = RatFunc(multinomial(p.n, k, l, m))
        term = term * q_int(b1) ** k * q_int(b2) ** l * q_int(b3) ** (m + 1)
        term = term * qp(W * ((l + m) * y1 + m * y2))
        term = term * beta_h(k, l + m + 1, b1, Fraction(W * y1, b1))
        term = term * beta_h(l, m + 1, b2, Fraction(W * y2, b2))
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
                                                    Fraction(W * y2 + b3 * i, b2))
        term = RatFunc(n * comb(n - 1, k))
        term = term * beta_h(k, n - k + 1, b1, Fraction(W * y1, b1))
        term = term * qp(W * ((n - k) * y1 + y2))
        term = term * q_int(b3) * q_int(b1) ** k * q_int(b2) ** (n - 1 - k)
        part1 = part1 + term * inner
    part2 = RF_ZERO
    for k in range(n + 1):
        inner = RF_ZERO
        for i in range(w3s):
            inner = inner + qp(b3 * i) * beta_poly(n - k, b2,
                                                   Fraction(W * y2 + b3 * i, b2))
        term = RatFunc(comb(n, k))
        term = term * beta_h(k, n - k + 1, b1, Fraction(W * y1, b1))
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


def test_params_store_integer_triples():
    # lists are stored as tuples, so params hash, compare and check as given
    p = IdentityParams(2, [1, 2, 3], [1, 0, 0])
    assert (p.w, p.y) == ((1, 2, 3), (1, 0, 0))
    assert p == IdentityParams(2, (1, 2, 3), (1, 0, 0))
    assert hash(p) == hash(IdentityParams(2, (1, 2, 3), (1, 0, 0)))
    assert thm1_check(p).verdict
    # a non-integer entry is refused here, not deep inside a check; so is a
    # bool, though bool is an int subclass
    for bad in [(2, (1.5, 2, 3)), (2, (1, 2, 3), (0, 1.0, 0)), (2.0, (1, 2, 3)),
                (2, (1, 2, "3")), (True, (1, 2, 3)), (2, (1, True, 3)),
                (2, (1, 2, 3), (False, 0, 0))]:
        with pytest.raises(ValueError, match="must hold integers"):
            IdentityParams(*bad)


def test_params_refuse_a_non_iterable_triple():
    # the triple check's own error, not tuple()'s TypeError
    with pytest.raises(ValueError, match="w must be a triple"):
        IdentityParams(1, 5)
    with pytest.raises(ValueError, match="y must be a triple"):
        IdentityParams(1, (1, 1, 1), 0)


def test_permutation_validation_and_arrange():
    s = Permutation3((2, 3, 1))
    assert s.label == "231"
    assert s.arrange((10, 20, 30)) == (20, 30, 10)
    assert ALL_PERMUTATIONS[0].arrange((10, 20, 30)) == (10, 20, 30)
    assert len(ALL_PERMUTATIONS) == 6
    assert tuple(s.label for s in ALL_PERMUTATIONS) == (
        "123", "132", "213", "231", "312", "321")
    with pytest.raises(ValueError):
        Permutation3((1, 2, 2))
    with pytest.raises(ValueError):
        Permutation3((0, 1, 2))
    # a list is stored as a tuple, so the permutation hashes and compares
    # however its images came
    listed = Permutation3([2, 3, 1])
    assert listed.images == (2, 3, 1)
    assert listed == s and hash(listed) == hash(s)
    # a non-integer image is refused; so is a bool, though True == 1
    for bad in [(True, 2, 3), (1.0, 2, 3), ("1", "2", "3")]:
        with pytest.raises(ValueError, match="must hold integers"):
            Permutation3(bad)


def test_thm1_degree_zero_is_one():
    for w in [(1, 1, 1), (2, 3, 1)]:
        r = thm1_check(IdentityParams(0, w, (1, 2, 0)))
        assert r.verdict
        assert all(v == RF_ONE for v in r.values)


def test_thm1_matches_direct_evaluation():
    for p in PTS1:
        r = thm1_check(p)
        for s in SOME_SIGMAS:
            assert value_of(r, s) == naive_thm1(p, s), (p, s.label)


def test_thm3_matches_direct_evaluation():
    for p in PTS34:
        r = thm3_check(p)
        for s in SOME_SIGMAS:
            assert value_of(r, s) == naive_thm3(p, s), (p, s.label)


def test_thm4_matches_direct_evaluation():
    for p in PTS34:
        r = thm4_check(p)
        for s in SOME_SIGMAS:
            assert value_of(r, s) == naive_thm4(p, s), (p, s.label)


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


def classical_sum(n, A, bases):
    """sum over a+k+l+m = n of n!/(a! k! l! m!) A^a b1^k B_k b2^l B_l b3^m B_m:
    the q -> 1 limit of the triple q-Volkenborn integral behind every S3 value."""
    b1, b2, b3 = bases
    B = [bernoulli_classical(i) for i in range(n + 1)]
    total = Fraction(0)
    for a in range(n + 1):
        for k, l, m in lattice(n - a):
            coeff = factorial(n) // (factorial(a) * factorial(k) * factorial(l) * factorial(m))
            total += coeff * A ** a * b1 ** k * B[k] * b2 ** l * B[l] * b3 ** m * B[m]
    return total


def test_values_at_q_one_are_classical_bernoulli_sums():
    # the classical shadow of each value, on the criterion-6 and criterion-7
    # samples: it shares only bernoulli_classical with the library, so it sees
    # an error that all six permutations share (a wrong base, binomial or
    # overall factor), which the six-way verdict cannot; an error that
    # vanishes at q = 1 (a wrong q-shift or (q - 1) factor) it cannot see
    for p in sample_grid(grid_params(range(5), 3, 2), 500):
        bases = sigma_data(p, ALL_PERMUTATIONS[0])[0]
        want = classical_sum(p.n, p.w_product * sum(p.y), bases)
        assert all(v.evaluate(1) == want for v in thm1_check(p).values), p
    for p in sample_grid(grid_params((1, 2, 3), 3, 2, vary_y3=False), 300):
        W = p.w_product
        A = W * (p.y[0] + p.y[1])
        bases = sigma_data(p, ALL_PERMUTATIONS[0])[0]
        want = classical_sum(p.n, A + W, bases) - classical_sum(p.n, A, bases)
        assert all(v.evaluate(1) == want for v in cross34_check(p).values), p


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
REFUSALS = {"thm3": "Theorem 3 requires positive n",
            "thm4": "Theorem 4 requires positive n",
            "cross34": "cross-theorem check requires positive n"}


def test_positive_degree_required():
    # each check refuses the degree below its least n with its own message
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


def test_lemma2_refuses_a_bool_or_non_int_argument():
    # lemma2_coeff_check(2, True, 1) computed in base q and reported d: true
    for args in [(2, True, 1), (True, 1, 1), (2, 1, False), (2.0, 1, 1), (2, 1, 1.0)]:
        with pytest.raises(ValueError, match="n, d and w3 must be integers"):
            lemma2_coeff_check(*args)


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
    assert sample_grid(grid, 0) == []
    with pytest.raises(ValueError, match="sample limit must be non-negative, got -1"):
        sample_grid(grid, -1)


# ---------------------------------------------------------------------------
# packed numerators against literal coefficient-list sums
#
# The builders, run on the packed oracle `_Packed`, evaluate each
# permutation's numerator at q = 2^bits from closed forms of its factors,
# with the lattice sum nested by slot.  The sums below are written out term
# by term on plain coefficient lists (schoolbook products, shifted adds, an
# explicit (q - 1) factor), from factor polynomials built here with Poly
# arithmetic, so they share no code with the closed forms, the nesting, the
# width bound or the unpacking.


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
def _slot_q_integers(n, b, deg, h):
    """[2]..[n+1] in base q^b over the q-integers [h]..[h+deg] of the
    structural denominator of a beta factor with degree deg and order h."""
    out = ONE
    for t in range(2, n + 2):
        if not h <= t <= h + deg:
            out = out * q_int_poly(t, b)
    return out


def _slot_cofactor(n, b, deg, h):
    """(1-q)^deg [2]..[n+1] times [b]_q^deg, divided by the structural
    denominator (1-q^b)^deg [h]..[h+deg] of a beta factor in base q^b:
    (1-q^b)^deg = (1-q)^deg [b]_q^deg leaves the q-integers alone."""
    return _slot_q_integers(n, b, deg, h)


def _one_minus_q(k):
    return (ONE - Poly.q_power(1)) ** k


def _one_minus_q_slot_cofactor(n, b, deg, h):
    """The slot over (1-q)^{3n} prod_b [2]..[n+1], D before (1-q)^{2n} was
    cancelled from it: (1-q)^n [2]..[n+1] times [b]_q^deg over the
    structural denominator leaves (1-q)^{n-deg}."""
    return _one_minus_q(n - deg) * _slot_q_integers(n, b, deg, h)


def _uncancelled_slot_cofactor(n, b, deg, h):
    """The slot over prod_b (1-q^b)^n [2]..[n+1], D before prod_b [b]_q^n
    was cancelled from it as well: the master slot (1-q^b)^n [2]..[n+1]
    over the structural denominator, times [b]_q^deg."""
    return ((ONE - Poly.q_power(b)) ** (n - deg) * q_int_poly(b) ** deg
            * _slot_q_integers(n, b, deg, h))


# A slot convention: the cofactor of each beta factor's structural numerator,
# and whether a term takes the (1-q)^{n-deg} that its beta factors, of total
# degree deg, lack against D's (1-q)^n.  The checkers build CURRENT; the
# other two put (1-q)^{n-deg} in each slot.
CURRENT = (_slot_cofactor, True)
OVER_ONE_MINUS_Q_3N = (_one_minus_q_slot_cofactor, False)
UNCANCELLED = (_uncancelled_slot_cofactor, False)


def _lacked(n, deg, convention):
    return _one_minus_q(n - deg) if convention[1] else ONE


@lru_cache(maxsize=None)
def _shifted_beta_sum(deg, h, d, e0, step, count):
    """sum_{i<count} q^{h*step*i} * numerator of beta^{(h)}_{deg, q^d}(q^{e0+step*i})."""
    acc = ZERO
    for i in range(count):
        acc = acc + _beta_struct_num(deg, h, d, e0 + step * i).shift(h * step * i)
    return acc


@lru_cache(maxsize=None)
def _thm1_fixed(n, b1, b2, b3, k, l, m, convention=CURRENT):
    cofactor = convention[0]
    out = cofactor(n, b1, k, l + m + 1)
    out = out * cofactor(n, b2, l, m + 1)
    out = out * cofactor(n, b3, m, 1)
    return out * _lacked(n, k + l + m, convention)


@lru_cache(maxsize=None)
def _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, part, convention=CURRENT):
    if part == 1:
        h1, h2, tdeg = l + m + 2, m + 2, 2
    else:
        h1, h2, tdeg = l + m + 1, m + 1, 1
    cofactor = convention[0]
    out = cofactor(n, b1, k, h1)
    out = out * cofactor(n, b2, l, h2)
    out = out * cofactor(n, b3, 0, 1)
    out = out * q_int_poly(b3) ** (m + 1)
    out = out * _lacked(n, k + l, convention)
    return out * power_sum_T(tdeg, m, w3s - 1, b3).num


@lru_cache(maxsize=None)
def _thm4_fixed(n, b1, b2, b3, k, part, convention=CURRENT):
    if part == 1:
        inner_deg, inner_h = n - 1 - k, 2
    else:
        inner_deg, inner_h = n - k, 1
    cofactor = convention[0]
    out = cofactor(n, b1, k, n - k + 1)
    out = out * cofactor(n, b2, inner_deg, inner_h)
    out = out * cofactor(n, b3, 0, 1)
    out = out * _lacked(n, k + inner_deg, convention)
    return out * q_int_poly(b3)


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


def literal_thm1(n, W, y, bases, _w3s, convention=CURRENT):
    b1, b2, b3 = bases
    acc = []
    for k, l, m in lattice(n):
        t = _term([_beta_struct_num(k, l + m + 1, b1, W * y[0]),
                   _beta_struct_num(l, m + 1, b2, W * y[1]),
                   _beta_struct_num(m, 1, b3, W * y[2]),
                   _thm1_fixed(n, b1, b2, b3, k, l, m, convention)])
        _add_shifted(acc, t, multinomial(n, k, l, m), W * ((l + m) * y[0] + m * y[1]))
    return acc


def literal_thm3(n, W, y, bases, w3s, convention=CURRENT):
    b1, b2, b3 = bases
    part1, part2 = [], []
    for k, l, m in lattice(n - 1):
        t = _term([_beta_struct_num(k, l + m + 2, b1, W * y[0]),
                   _beta_struct_num(l, m + 2, b2, W * y[1]),
                   _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, 1, convention)])
        _add_shifted(part1, t, n * multinomial(n - 1, k, l, m),
                     W * ((l + m + 1) * y[0] + (m + 1) * y[1]))
    for k, l, m in lattice(n):
        t = _term([_beta_struct_num(k, l + m + 1, b1, W * y[0]),
                   _beta_struct_num(l, m + 1, b2, W * y[1]),
                   _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, 2, convention)])
        _add_shifted(part2, t, multinomial(n, k, l, m), W * ((l + m) * y[0] + m * y[1]))
    _add_shifted(part1, _conv([-1, 1], part2), 1, 0)
    return part1


def literal_thm4(n, W, y, bases, w3s, convention=CURRENT):
    b1, b2, b3 = bases
    part1, part2 = [], []
    for k in range(n):
        t = _term([_beta_struct_num(k, n - k + 1, b1, W * y[0]),
                   _shifted_beta_sum(n - 1 - k, 2, b2, W * y[1], b3, w3s),
                   _thm4_fixed(n, b1, b2, b3, k, 1, convention)])
        _add_shifted(part1, t, n * comb(n - 1, k), W * ((n - k) * y[0] + y[1]))
    for k in range(n + 1):
        t = _term([_beta_struct_num(k, n - k + 1, b1, W * y[0]),
                   _shifted_beta_sum(n - k, 1, b2, W * y[1], b3, w3s),
                   _thm4_fixed(n, b1, b2, b3, k, 2, convention)])
        _add_shifted(part2, t, comb(n, k), W * (n - k) * y[0])
    _add_shifted(part1, _conv([-1, 1], part2), 1, 0)
    return part1


def _trimmed(vec):
    while vec and vec[-1] == 0:
        vec.pop()
    return vec


def _q_int_packed(t, s):
    """[t]_X at X = 2^s, summed term by term: 1 + X + ... + X^{t-1}."""
    return sum(1 << s * i for i in range(t))


@lru_cache(maxsize=None)
def _cofactor_packed(n, b, t, bits):
    """P_b / [t]_{q^b} at q = 2^bits, P_b = [2]_{q^b} ... [n+1]_{q^b}: the
    product of the other [s]_{q^b}, so nothing is divided."""
    return prod(_q_int_packed(s, bits * b) for s in range(2, n + 2) if s != t)


class _Packed:
    """The term factors of one degree n at q = 2^bits: the oracle the checkers'
    realized forms are compared with.  Run on it, a builder assembles its
    numerator as one integer from closed forms of the factors at X = 2^bits,

        [t]_{q^b}       = 1 + X^b + ... + X^{b(t-1)},
        P_b / [t]_{q^b} = the product of the [s]_{q^b}, 2 <= s <= n+1, s != t,
        q^s             = a shift by bits*s, and a - b is integer subtraction,

    with T_{t,m}(w | q^b) from `power_sum_T`.  Evaluation at q = 2^bits is a
    ring homomorphism Z[q] -> Z, so the integer is the numerator's value
    there whatever the size of the intermediates."""

    def __init__(self, n, bits):
        self.n = n
        self.bits = bits

    def shift(self, x, s):
        """x q^s."""
        return x << self.bits * s

    def tail(self, tdeg, m, w, b):
        """(1 - q^b)^m T_{tdeg,m}(w | q^b)."""
        return (1 - (1 << self.bits * b)) ** m * power_sum_T(tdeg, m, w, b).num.pack(self.bits)

    def slot(self, b, deg, h, e, step=0, count=1):
        """sum_{i<count} q^{h step i} beta^{(h)}_{deg, q^b}(q^{e + step i}) [b]_q^deg
        times (1-q)^deg P_b, P_b = [2]_{q^b} ... [n+1]_{q^b}: a polynomial."""
        # beta^{(h)}_{deg} is sum_j (-1)^j C(deg, j) (j+h) q^{je} / [h+j]
        # over (1-q^b)^deg = (1-q)^deg [b]_q^deg; in the slot, [h+j] divides
        # [1] [2] ... [n+1] and (1-q)^deg [b]_q^deg cancels
        if h < 1 or h + deg > self.n + 1:
            raise ValueError("beta factor denominator exceeds the master slot")
        acc = 0
        for j in range(deg + 1):
            t = h + j
            term = comb(deg, j) * t * _cofactor_packed(self.n, b, t, self.bits)
            if count > 1:
                # the count shifts q^{(h+j) step i} sum to [count]_{q^{(h+j) step}}
                term *= _q_int_packed(count, self.bits * t * step)
            term = self.shift(term, j * e)
            acc = acc - term if j & 1 else acc + term
        return acc

    def close(self, x, b3, w3s):
        """x (q - 1) P_{b3} [b3]_q."""
        return ((self.shift(x, 1) - x) * self.slot(b3, 0, 1, 0)
                * _q_int_packed(b3, self.bits))


def _packed_nums(identity, p):
    """Each report label's numerator at p, built on `_Packed` at the width of
    the check's certificate."""
    bits = _certificate(identity, p.n)[2]
    ev = _Packed(p.n, bits)
    return [num_fn(ev, p.w_product, p.y, *sigma_data(p, sigma))
            for _, num_fn in CHECKS[identity][3] for sigma in ALL_PERMUTATIONS], bits


def _check_packed(identity, p, literal_fns):
    """literal_fns: the literal builder of each expression of the check, six
    permutations each."""
    literal = [_trimmed(literal_fn(p.n, p.w_product, p.y, *sigma_data(p, sigma)))
               for literal_fn in literal_fns for sigma in ALL_PERMUTATIONS]
    nums, bits = _packed_nums(identity, p)
    assert bits % 8 == 0
    for form, want in zip(_check_forms(identity, p.n), literal):
        # the L1 bound of the permutation's form bounds its literal
        # numerator, which the width rests on
        assert sum(map(abs, want)) <= _l1_bound(form, p.n), p
    for value, want in zip(nums, literal):
        # every coefficient fits the shared width, so the integer is the polynomial
        assert all(abs(c) < 2 ** (bits - 1) for c in want), p
        acc = 0
        for c in reversed(want):
            acc = (acc << bits) + c
        assert value == acc, p
        assert _coeffs(Poly.unpack(value, bits)) == want, p


def test_evaluators_define_the_same_operations():
    # a builder runs on both evaluators, so neither may lack an operation
    def operations(cls):
        return {name for name, v in vars(cls).items() if callable(v) and name[0] != "_"}

    assert operations(_Packed) == operations(_Formal) == {
        "shift", "tail", "slot", "close"}
    # a builder subtracts with -, which ints have and `_Form` defines
    ev = _Formal(2)
    a, b = ev.slot("A", 2, 1, _Y_UNITS[0]), ev.tail(1, 2, _W3, "B")
    assert isinstance(a - b, _Form) and a - b != a
    assert a - b == a + (-1) * b
    assert a - a == {}


def test_width_depends_on_the_check_and_n_alone(monkeypatch):
    # the width is the certificate's, so every point of a given n reduces at
    # one width: over the CLI's grids and the benchmark's thm1 and cross34
    # grids
    widths = set()

    def reduce(value, bits, exps):
        widths.add(bits)
        return over_cyclotomic_packed(value, bits, exps)

    monkeypatch.setattr(identities, "over_cyclotomic_packed", reduce)
    grids = [("thm1", grid_params(range(5), 3, 2)),
             ("cross34", grid_params((1, 2, 3), 3, 2, vary_y3=False))]
    for identity, (least_n, _, reads_y3, _) in CHECKS.items():
        grid = _SUITE_DEFAULTS[identity]
        grids.append((identity, grid_params(range(least_n, grid["n_max"] + 1), grid["w_max"],
                                            grid["y_max"], vary_y3=reads_y3)))
    for identity, points in grids:
        for p in points:
            widths.clear()
            _check(identity, p)
            assert widths == {_certificate(identity, p.n)[2]}, (identity, p)
    # the widths the module docstring states
    for identity, ns, want in [("thm1", (4, 8, 12, 16), [32, 72, 112, 168]),
                               ("cross34", (4, 6, 8), [32, 48, 72])]:
        assert [_certificate(identity, n)[2] for n in ns] == want, identity


def test_packed_thm1_numerators_match_literal_sums():
    for p in grid_params(range(4), 2, 1):
        _check_packed("thm1", p, [literal_thm1])


def _cancelled_factor_holds(p, literal_fns, convention, factor):
    """Over the given convention, each permutation's literal numerator is
    factor(bases), a coefficient list, times the numerator the checkers build."""
    for literal_fn in literal_fns:
        for sigma in ALL_PERMUTATIONS:
            bases, w3s = sigma_data(p, sigma)
            args = (p.n, p.w_product, p.y, bases, w3s)
            want = _trimmed(literal_fn(*args, convention=convention))
            got = _trimmed(_conv(factor(bases), literal_fn(*args)))
            assert got == want, (p, literal_fn.__name__, sigma.label)


def test_cancelled_factor_is_prod_b_bracket_to_the_n():
    # D keeps none of (1-q)^{2n} prod_b [b]_q^n: over the CLI's thm1 grid, the
    # numerator with each slot over (1-q^b)^n, each times its own [b]_q^deg,
    # is that factor times the numerator the checkers build, and the
    # numerator with each slot over (1-q)^n is (1-q)^{2n} times it
    for p in grid_params(range(4), 2, 1):
        one_minus_q_2n = _coeffs(_one_minus_q(2 * p.n))

        def with_brackets(bases):
            return _conv(one_minus_q_2n, _term([q_int_poly(b) ** p.n for b in bases]))

        _cancelled_factor_holds(p, [literal_thm1], UNCANCELLED, with_brackets)
        _cancelled_factor_holds(p, [literal_thm1], OVER_ONE_MINUS_Q_3N,
                                lambda bases: one_minus_q_2n)


def test_cancelled_factor_of_thm3_and_thm4_is_one_minus_q_to_the_2n():
    # a thm3 or thm4 term whose beta factors have degree below n takes the
    # (1-q) powers they lack on its tail or inner sum, not in its slots;
    # over the cross34 grid below n = 3 the numerator with each slot over
    # (1-q)^n is still (1-q)^{2n} times the one the checkers build
    for p in grid_params((1, 2), 3, 2, vary_y3=False):
        one_minus_q_2n = _coeffs(_one_minus_q(2 * p.n))
        _cancelled_factor_holds(p, [literal_thm3, literal_thm4], OVER_ONE_MINUS_Q_3N,
                                lambda bases: one_minus_q_2n)


def test_packed_cross34_numerators_match_literal_sums():
    # the benchmark's cross34 grid, below n = 3
    for p in grid_params((1, 2), 3, 2, vary_y3=False):
        _check_packed("cross34", p, [literal_thm3, literal_thm4])


def test_slot_values_match_literal_polynomials():
    # the closed-form slot value against the slot cofactor times the beta
    # numerator built with Poly
    for n in range(5):
        for deg in range(n + 1):
            for h in range(1, n + 2 - deg):
                for b, e, step, count in [(1, 0, 0, 1), (2, 2, 0, 1), (3, 7, 0, 1),
                                          (2, 4, 3, 2), (1, 1, 2, 3)]:
                    lit = _slot_cofactor(n, b, deg, h) * _shifted_beta_sum(deg, h, b, e,
                                                                          step, count)
                    assert lit, (n, b, deg, h, e, step, count)
                    assert _Packed(n, 64).slot(b, deg, h, e, step, count) == lit.pack(64)
    with pytest.raises(ValueError, match="exceeds the master slot"):
        _Packed(2, 8).slot(1, 2, 2, 0)


def test_reduction_that_outgrows_the_width_keeps_its_trials(monkeypatch):
    # at this criterion-6 point the six thm1 numerators pack at 24 bits, but
    # the reduced numerator does not fit them: the certificate fails, the
    # numerator at 48 bits is divided once by the factors the trials took,
    # and no trial runs again, at 48 bits or any other width; the values are
    # still those of the literal numerator over the expanded D
    p = IdentityParams(3, (2, 3, 3), (2, 2, 2))
    widths = []

    def divide_out(value, bits, *args):
        widths.append(bits)
        return packed_divide_out(value, bits, *args)

    monkeypatch.setattr(qcore, "packed_divide_out", divide_out)
    r = thm1_check(p)
    assert r.verdict
    assert widths and set(widths) == {24}
    for sigma in ALL_PERMUTATIONS:
        bases, w3s = sigma_data(p, sigma)
        den = _one_minus_q(p.n)
        for b in bases:
            for t in range(2, p.n + 2):
                den = den * q_int_poly(t, b)
        num = Poly(_trimmed(literal_thm1(p.n, p.w_product, p.y, bases, w3s)))
        assert value_of(r, sigma) == RatFunc(num, den), sigma.label


# sha256 of the canonical values of large-n reports: the first two recorded
# before the packed pipeline, the third from the packed thm1 numerators,
# before Theorem 1 was realized from its formal certificate, and the fourth
# from the packed cross34 numerators, before Theorems 3 and 4 were.  At the
# n = 8 point the reduced numerator has 64-bit coefficients; the checkers
# pack it at 80 bits, so its reduction fits the width.  A reduction that
# outgrows its width is pinned in test_cyclotomic.py
# (test_packed_reduction_certifies_a_quotient_that_outgrows_the_width).
LARGE_N_GOLDENS = [
    (thm1_check, IdentityParams(8, (3, 3, 2), (1, 1, 0)),
     "efd01736d8808c3731ab5c9152df8ef59dd371bd764e78f95cff04f2694f84a9"),
    (cross34_check, IdentityParams(6, (3, 2, 3), (1, 1, 0)),
     "3b8b2d5796ae5845d1167a3a9147d0c8ec6a4ee07ea7a2f7e36a63d3880a5e23"),
    (thm1_check, IdentityParams(16, (3, 3, 2), (1, 1, 0)),
     "6d3c8f847c497b437a65068723623a8d99bf82a16f0de97ed74274692dba76a9"),
    (cross34_check, IdentityParams(12, (3, 3, 2), (1, 1, 0)),
     "8b3eb02fd96ecd54f4e51406c02aa07e900f412dbb8032731d708e4972c33fad"),
]


@pytest.mark.parametrize("check, params, digest", LARGE_N_GOLDENS)
def test_large_n_reports_match_golden(check, params, digest):
    r = check(params)
    values = [[[str(c) for c in v.num.coefficients()], [str(c) for c in v.den.coefficients()]]
              for v in r.values]
    blob = json.dumps([r.identity, list(r.labels), values, r.verdict], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the formal certificates
#
# Every checker realizes the forms of its certificate at each point instead
# of building its numerators there.  That is sound only if the relabeled forms
# are the formal runs they stand for, and if a form realized at a point is
# the packed numerator; the integrals below check what they all equal.

# each builder with the least n of its checks
BUILDERS = ((_thm1_num, 0), (_thm3_num, 1), (_thm4_num, 1))


def _check_forms(identity, n):
    """The forms of the check's certificate, in report label order."""
    forms, index, _, _ = _certificate(identity, n)
    return [forms[i] for i in index]


def test_relabeled_forms_equal_six_direct_formal_runs():
    for num_fn, least_n in BUILDERS:
        for n in range(least_n, 9):
            direct = [_frozen(num_fn(_Formal(n), 1, _Y_UNITS, sigma.arrange(_LABELS), _W3))
                      for sigma in ALL_PERMUTATIONS]
            assert list(_forms(num_fn, n)) == direct, (num_fn.__name__, n)


def test_realized_forms_are_the_packed_numerators():
    # every permutation's form, realized at each point of the criterion-6
    # sample (thm1), and of the cross34 grid to n = 4 (thm3 and thm4; it
    # holds the criterion-7 sample and the CLI's thm3 and thm4 grids), is
    # the numerator the packed builder makes there, at the same width
    for identity, points in [("thm1", sample_grid(grid_params(range(5), 3, 2), 500)),
                             ("cross34", grid_params(range(1, 5), 3, 2, vary_y3=False))]:
        for p in points:
            forms, index, bits, _ = _certificate(identity, p.n)
            cofs = {label: _base_entry(p.n, b, bits)[0] for label, b in zip(_LABELS, _bases(p.w))}
            realized = [_realize(forms[i], cofs, p.w_product, p.y, bits) for i in index]
            assert (realized, bits) == _packed_nums(identity, p), p


def _integral_form(n, z):
    """sum_j C(n, j) (-1)^j (j+1)^3 Y^j ((Z^{j+1} - 1) if z) prod_b cof_b[j+1],
    Y = Y1 Y2 Y3 for Theorem 1 (z false), Y = Y1 Y2 for Theorems 3 and 4:
    the q-Volkenborn integral I_n(A) D, and (q^W I_n(A + W) - I_n(A)) D with
    A = W (y1 + y2), from comb alone."""
    y = sum(_Y_UNITS) if not z else _Y_UNITS[0] + _Y_UNITS[1]
    form = {}
    for j in range(n + 1):
        key = tuple((label, j + 1) for label in _LABELS)
        c = comb(n, j) * (-1) ** j * (j + 1) ** 3
        for zs, sign in ([(j + 1, 1), (0, -1)] if z else [(0, 1)]):
            form[key, j * y + zs * _Z_UNIT] = sign * c
    return _frozen(form)


def test_common_form_is_the_q_volkenborn_integral():
    # it sees an error that every permutation shares, such as a wrong q-shift
    # in a slot, which neither the six-way verdict nor the q -> 1 oracle can
    # see; the forms of Theorems 3 and 4 are one, the difference of two
    # integrals, whatever w3
    for n in range(17):
        assert set(_check_forms("thm1", n)) == {_integral_form(n, False)}, n
    for n in range(1, 13):
        assert set(_check_forms("cross34", n)) == {_integral_form(n, True)}, n


def test_closing_needs_one_r_symbol_of_the_third_base():
    # (q - 1) P_{b3} [b3]_q R[s] = (Z^s - 1) cof_{b3}[s] holds for R[s] of
    # base b3 and count w3, where b3 w3 = W, and for s <= n + 1; a term that
    # is not one such R times cofactors is refused, not rewritten
    ev = _Formal(2)
    y2 = _Y_UNITS[1]
    assert ev.close(ev.slot("B", 1, 1, y2, "C", _W3), "C", _W3) == {
        ((("B", 1), ("C", 1)), _Z_UNIT): 1, ((("B", 1), ("C", 1)), 0): -1,
        ((("B", 2), ("C", 2)), y2 + 2 * _Z_UNIT): -2, ((("B", 2), ("C", 2)), y2): 2}
    r = ev.slot("B", 1, 1, 0, "C", _W3)
    for bad in [ev.slot("B", 1, 1, 0), r * r, ev.slot("B", 1, 1, 0, "A", _W3),
                ev.slot("B", 1, 1, 0, "C", _W3 + 2), ev.tail(2, 2, _W3 - 1, "C")]:
        with pytest.raises(ValueError, match="cannot close"):
            ev.close(bad, "C", _W3)


def _inner_without_term_1_2(ev, b2, e2, j, h, tail):
    """`_inner` that drops its term (l, j) = (1, 2)."""
    return sum(comb(j, l) * ev.shift(ev.slot(b2, l, j - l + h, e2) * tail[j - l],
                                     e2 * (j - l + h - 1))
               for l in range(j + 1) if (l, j) != (1, 2))


def _thm1_num_slot2_in_b3(ev, W, y, bases, _w3s):
    """`_thm1_num` that builds slot 2 in base b3."""
    b1, _, b3 = bases
    tail = [ev.slot(b3, m, 1, W * y[2]) for m in range(ev.n + 1)]
    return identities._outer(ev, b1, W * y[0],
                             lambda j: identities._inner(ev, b3, W * y[1], j, 1, tail))


def _parts_num_j_plus_1(ev, W, y, bases, w3s, part1, part2):
    """`_parts_num` that takes (j + 1) part2(j - 1) for j part2(j - 1)."""
    def inner(j):
        return part1(j) - (j + 1) * part2(j - 1) if j else part1(j)

    return ev.close(identities._outer(ev, bases[0], W * y[0], inner), bases[2], w3s)


def _thm4_num_part2_shifted_twice(ev, W, y, bases, w3s):
    """`_thm4_num` that shifts its part2 by 2 e0 instead of e0."""
    _, b2, b3 = bases
    e0 = W * y[1]
    return identities._parts_num(ev, W, y, bases, w3s,
                                 lambda j: ev.slot(b2, j, 1, e0, b3, w3s),
                                 lambda j: ev.shift(ev.slot(b2, j, 2, e0, b3, w3s), 2 * e0))


@pytest.fixture
def fresh_certificates():
    """Clears the cache a builder fault reaches, before and after the test."""
    _certificate.cache_clear()
    yield
    _certificate.cache_clear()


def _put_fault(monkeypatch, name, fault):
    """fault in place of the builder or helper name, for every check that
    reaches it: builders are called through `CHECKS`, helpers by name."""
    original = getattr(identities, name)
    monkeypatch.setattr(identities, name, fault)
    for identity, (least_n, refusal, reads_y3, parts) in CHECKS.items():
        parts = tuple((prefix, fault if fn is original else fn) for prefix, fn in parts)
        monkeypatch.setitem(CHECKS, identity, (least_n, refusal, reads_y3, parts))


# degrees: each check the fault reaches, with degrees at which its forms split
@pytest.mark.parametrize("name, fault, degrees", [
    ("_inner", _inner_without_term_1_2, {"thm1": (2, 3, 4), "thm3": (2, 3, 4)}),
    ("_thm1_num", _thm1_num_slot2_in_b3, {"thm1": (1, 2, 3, 4)}),
    ("_parts_num", _parts_num_j_plus_1, {"thm3": (2, 3, 4), "thm4": (2, 3, 4),
                                         "cross34": (2, 3)}),
])
def test_a_builder_fault_fails_the_certificate(monkeypatch, fresh_certificates,
                                               name, fault, degrees):
    _put_fault(monkeypatch, name, fault)
    for identity, ns in degrees.items():
        for n in ns:
            assert len(set(_check_forms(identity, n))) > 1, (identity, n)
            r = _check(identity, IdentityParams(n, (1, 2, 3), (1, 0, 2)))
            assert not r.verdict and r.witness is not None, (identity, n)
            assert r.witness[0] == r.labels[0] and len(set(r.values)) > 1, (identity, n)


def test_a_fault_every_thm4_permutation_shares_fails_cross34_and_the_integral(
        monkeypatch, fresh_certificates):
    # shifting thm4's part2 by 2 e0 changes all six thm4 forms alike, so the
    # six-way thm4 check cannot see it: only cross34, against Theorem 3, and
    # the integral do
    _put_fault(monkeypatch, "_thm4_num", _thm4_num_part2_shifted_twice)
    for n in (1, 2, 3, 4):
        assert len(set(_check_forms("thm4", n))) == 1, n
        assert set(_check_forms("thm4", n)) != {_integral_form(n, True)}, n
        p = IdentityParams(n, (1, 2, 3), (0, 1, 0))
        assert thm4_check(p).verdict, n
        r = cross34_check(p)
        assert not r.verdict and r.witness == ("thm3:123", "thm4:123"), n


def test_certificate_labels_are_the_report_labels():
    # six labels per builder, one per permutation, prefixed by the theorem
    # for cross34; a point reports them as the certificate holds them
    perms = [sigma.label for sigma in ALL_PERMUTATIONS]
    for identity, prefixes in [("thm1", [""]), ("thm3", [""]), ("thm4", [""]),
                               ("cross34", ["thm3:", "thm4:"])]:
        for n in (1, 2, 3):
            _, index, _, labels = _certificate(identity, n)
            assert labels == tuple(prefix + label for prefix in prefixes for label in perms)
            assert len(labels) == len(index) == 6 * len(prefixes)
            assert _check(identity, IdentityParams(n, (1, 2, 3), (1, 0, 2))).labels == labels


def test_a_certificate_runs_each_builder_once_per_n(monkeypatch, request):
    # the certificate is the one unit of decision: building it runs each of
    # the check's builders once per n, and checking points at that n runs none
    for identity in CHECKS:
        _certificate(identity, 2)
    request.getfixturevalue("fresh_certificates")
    assert _certificate.cache_info().currsize == 0
    calls = []

    def counted(name, builder):
        def count(ev, *args):
            calls.append(name)
            return builder(ev, *args)
        return count

    for name in ("_thm1_num", "_thm3_num", "_thm4_num"):
        _put_fault(monkeypatch, name, counted(name, getattr(identities, name)))
    builders = {"thm1": ["_thm1_num"], "thm3": ["_thm3_num"], "thm4": ["_thm4_num"],
                "cross34": ["_thm3_num", "_thm4_num"]}
    for n in (2, 3):
        for identity, (_, _, reads_y3, _) in CHECKS.items():
            calls.clear()
            _certificate(identity, n)
            assert calls == builders[identity], (identity, n)
            calls.clear()
            for p in sample_grid(grid_params((n,), 3, 2, vary_y3=reads_y3), 20):
                assert _check(identity, p).verdict, p
            assert calls == [], (identity, n)
