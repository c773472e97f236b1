"""Fraction and modular-loop oracles for the p-adic engine.

The engine computes everything with modular arithmetic at fixed precision,
taking its level sums over [0, p^N) as geometric series instead of walking
them.  The checks here recompute the target through exact Fractions
(full-size rationals, no truncation) or through literal modular loops that
visit every point, and compare residues afterwards, so the routes share no
code beyond the integrand definition.
"""

import operator
import sys
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcarlitz import padic
from qcarlitz.carlitz import beta_hk, beta_number
from qcarlitz.padic import (IntegrandSpec, PadicInt, VolkenbornJob,
                            check_step_budget, padic_log, verify_eq2_qexp,
                            verify_eq3, volkenborn_approx, volkenborn_scaled,
                            witt_check)
from qcarlitz.ratfunc import rf_eval_rational

F = Fraction


def int_val(n, p):
    assert n
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_val(x, p):
    assert x
    return int_val(x.numerator, p) - int_val(x.denominator, p)


def exact_level(p, q0, N, f):
    """The level-N sum as one exact Fraction."""
    q0 = F(q0)

    def br(x):
        return F(x) if q0 == 1 else (1 - q0 ** x) / (1 - q0)

    S = sum(q0 ** (f.c * x) * br(x + f.s) ** f.m * q0 ** x for x in range(p ** N))
    return S / br(p ** N)


def scaled_residue(val, p, e, prec):
    v = val * p ** e
    assert v.denominator % p, "scale does not clear the denominator"
    m = p ** prec
    return v.numerator * pow(v.denominator, -1, m) % m


def log_oracle(u_res, p, K):
    """Partial sum of log(1+t) as an exact Fraction, reduced mod p^K."""
    t = F(u_res - 1)
    acc = F(0)
    for k in range(1, 6 * K + 10):
        acc += (-1) ** (k + 1) * t ** k / k
    if acc.denominator % p == 0:
        return None
    m = p ** K
    return acc.numerator * pow(acc.denominator, -1, m) % m


def test_padicint_basics():
    assert PadicInt(3, 4, 100).residue == 19
    assert PadicInt(3, 4, -1).residue == 80
    assert str(PadicInt(3, 4, 16)) == "16 mod 3^4"
    assert PadicInt(3, 4, 18).valuation() == 2
    assert PadicInt(3, 4, 0).valuation() == 4
    assert PadicInt(3, 4, 80).reduce(2) == PadicInt(3, 2, 8)
    with pytest.raises(ValueError):
        PadicInt(4, 2, 1)
    with pytest.raises(ValueError):
        PadicInt(3, 0, 1)
    with pytest.raises(ValueError):
        PadicInt(3, 2, 1).reduce(3)


def test_padicint_refuses_a_bool_or_float():
    for args, name in (((3, 2, 1.5), "residue"), ((3, True, 1), "K"),
                       ((3.0, 2, 1), "p"), ((3, 2.0, 1), "K")):
        with pytest.raises(ValueError, match=f"{name} must be an int, got"):
            PadicInt(*args)


def _trial_division_is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(padic._is_prime(p) == _trial_division_is_prime(p) for p in range(10**5))


def test_primality_of_a_large_p_is_fast_and_bounded():
    t0 = time.monotonic()
    PadicInt(2**61 - 1, 3, 1)
    PadicInt(999999999989, 3, 1)
    assert time.monotonic() - t0 < 0.1
    # 3825123056546413051 passes Miller-Rabin to the first 11 prime bases
    for composite in (2**61 + 1, 3825123056546413051):
        with pytest.raises(ValueError, match="not prime"):
            PadicInt(composite, 3, 1)
    # the least composite that passes all 12 bases is refused, not called prime
    with pytest.raises(ValueError, match="p = 318665857834031151167461 is prime"):
        PadicInt(318665857834031151167461, 3, 1)


def test_arith_and_division():
    assert PadicInt(3, 4, 1) / PadicInt(3, 4, 5) == PadicInt(3, 4, 65)
    d = PadicInt(3, 4, 3) / PadicInt(3, 4, 3)
    assert d == PadicInt(3, 3, 1) and d.K == 3
    assert (PadicInt(3, 4, 10) + PadicInt(3, 2, 1)).K == 2
    assert (PadicInt(5, 3, 7) * PadicInt(5, 3, 8)).residue == 56
    with pytest.raises(ValueError, match="precision exhausted"):
        PadicInt(3, 4, 1) / PadicInt(3, 4, 0)
    with pytest.raises(ValueError, match="not a p-adic integer"):
        PadicInt(3, 4, 1) / PadicInt(3, 4, 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="prime mismatch"):
            op(PadicInt(3, 4, 1), PadicInt(5, 4, 1))


def test_from_rational():
    assert PadicInt.from_rational(F(-1, 5), 3, 4).residue == 16
    assert PadicInt.from_rational(F(7), 3, 2).residue == 7
    with pytest.raises(ValueError):
        PadicInt.from_rational(F(1, 3), 3, 4)


def test_from_rational_refuses_a_float():
    # 0.2 is the binary fraction nearest 1/5, which would be reduced exactly;
    # True == 1, but it is no rational
    for value in (0.2, 7.0, True):
        with pytest.raises(ValueError, match="value must be an int or a Fraction, got"):
            PadicInt.from_rational(value, 3, 5)


def test_log_against_series_oracle():
    assert padic_log(PadicInt(3, 3, 4)).residue == 21
    for p, K in [(3, 4), (3, 8), (3, 10), (5, 6), (7, 5)]:
        for ures in [1 + p, 1 + 2 * p, 1 + p * p, 1 + p + p * p]:
            want = log_oracle(ures, p, K)
            if want is None:
                continue
            assert padic_log(PadicInt(p, K, ures)).residue == want, (p, K, ures)


def test_log_term_valuation_is_not_monotone():
    # at p=3, t of valuation 1, the k=9 term has valuation 9-2=7, below the
    # k=8 term's 8; a loop that stops at the first small term drops a digit
    assert padic_log(PadicInt(3, 8, 4)).residue == log_oracle(4, 3, 8)


def test_log_exp_domains():
    with pytest.raises(ValueError, match="log domain"):
        padic_log(PadicInt(3, 4, 2))
    with pytest.raises(ValueError, match="log domain"):
        padic_log(PadicInt(2, 4, 3))


VOLKENBORN_CASES = [
    (3, 4, 2, 8, IntegrandSpec(0, 0)),
    (3, 4, 3, 10, IntegrandSpec(0, 1)),
    (3, 4, 4, 10, IntegrandSpec(0, 1)),
    (3, 4, 3, 10, IntegrandSpec(0, 2)),
    (3, 4, 3, 10, IntegrandSpec(0, 3)),
    (3, 4, 2, 9, IntegrandSpec(1, 2, 1)),
    (3, 4, 3, 10, IntegrandSpec(2, 1, 2)),
    (3, F(7, 4), 3, 9, IntegrandSpec(0, 2)),
    (5, 6, 2, 8, IntegrandSpec(0, 1)),
    (5, 6, 2, 8, IntegrandSpec(1, 3)),
    (7, 8, 2, 7, IntegrandSpec(0, 2)),
    (3, 1, 3, 8, IntegrandSpec(0, 1)),
]


def test_volkenborn_matches_exact_fractions():
    for p, q0, N, K, f in VOLKENBORN_CASES:
        e, y = volkenborn_scaled(VolkenbornJob(p, q0, N, K, f))
        val = exact_level(p, q0, N, f)
        ve = 0 if val == 0 else frac_val(val, p)
        assert e == max(0, -ve), (p, q0, N, f)
        assert y.K == K - N
        assert y.residue == scaled_residue(val, p, e, K - N), (p, q0, N, f)


def test_first_moment_residue():
    e, y = volkenborn_scaled(VolkenbornJob(3, 4, 4, 10, IntegrandSpec(0, 1)))
    assert e == 0
    assert y.reduce(4) == PadicInt.from_rational(F(-1, 5), 3, 4)
    one = volkenborn_approx(VolkenbornJob(3, 4, 2, 8, IntegrandSpec(0, 0)))
    assert one.residue == 1


def test_nonintegral_moment_needs_scaling():
    # the n=2 moment at q0=4 is 4/105 in the limit and the finite levels
    # carry the same 1/3 factor, so the plain accessor must refuse
    e, _ = volkenborn_scaled(VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 2)))
    assert e == 1
    with pytest.raises(ValueError, match="volkenborn_scaled"):
        volkenborn_approx(VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 2)))


def test_job_refuses_a_float_q0():
    # 0.2 would be taken as 3602879701896397/2^54, and reported on
    assert VolkenbornJob(3, F(4), 2, 6, IntegrandSpec(0, 0)).q0 == 4
    for q0 in (0.2, 4.0, True):
        with pytest.raises(ValueError, match="q0 must be an int or a Fraction, got"):
            VolkenbornJob(3, q0, 2, 6, IntegrandSpec(0, 0))


def test_job_refuses_a_bool_or_float_p_level_or_precision():
    for args, name in (((3.0, 4, 2, 5), "p"), ((3, 4, True, 5), "N"),
                       ((3, 4, 2.0, 5), "N"), ((3, 4, 2, 5.0), "K"),
                       ((3, 4, 2, True), "K")):
        with pytest.raises(ValueError, match=f"{name} must be an int, got"):
            VolkenbornJob(*args, IntegrandSpec(0, 0))


def test_integrand_refuses_a_bool_or_float_exponent():
    for args, name in (((0.5, 1), "c"), ((0, True), "m"), ((0, 1, 1.0), "s")):
        with pytest.raises(ValueError, match=f"{name} must be an int, got"):
            IntegrandSpec(*args)


def test_job_validation():
    with pytest.raises(ValueError):
        VolkenbornJob(2, 3, 2, 8, IntegrandSpec(0, 1))
    with pytest.raises(ValueError):
        VolkenbornJob(3, 5, 2, 8, IntegrandSpec(0, 1))
    with pytest.raises(ValueError):
        VolkenbornJob(3, F(1, 3), 2, 8, IntegrandSpec(0, 1))
    with pytest.raises(ValueError):
        VolkenbornJob(3, 4, 0, 8, IntegrandSpec(0, 1))
    with pytest.raises(ValueError, match="need K >= 5"):
        VolkenbornJob(3, 4, 4, 4, IntegrandSpec(0, 1))
    with pytest.raises(ValueError):
        IntegrandSpec(-1, 0)
    with pytest.raises(ValueError):
        IntegrandSpec(0, 0, -2)


def test_precision_soundness():
    # a longer window must reproduce the shorter one digit for digit
    for f in [IntegrandSpec(0, 1), IntegrandSpec(0, 2), IntegrandSpec(1, 2, 1)]:
        e_lo, y_lo = volkenborn_scaled(VolkenbornJob(3, 4, 3, 9, f))
        e_hi, y_hi = volkenborn_scaled(VolkenbornJob(3, 4, 3, 13, f))
        assert e_lo == e_hi
        assert y_hi.reduce(y_lo.K) == y_lo
    assert padic_log(PadicInt(3, 12, 4)).reduce(6) == padic_log(PadicInt(3, 6, 4))


def test_level_differences_are_cauchy():
    vals = []
    for N in range(1, 6):
        vals.append(volkenborn_scaled(VolkenbornJob(3, 4, N, 12, IntegrandSpec(0, 2))))
    emax = max(e for e, _ in vals)
    prec = min(y.K for _, y in vals)
    res = [y.residue * 3 ** (emax - e) % 3 ** prec for e, y in vals]
    dv = []
    for i in range(1, len(res)):
        d = (res[i] - res[i - 1]) % 3 ** prec
        dv.append(prec if d == 0 else int_val(d, 3))
    assert dv == [2, 4, 5, 6]


# measured agreement between level N and the q0 = 4 limit, as valuations
BRIDGE_TABLE = {1: {2: 2, 3: 3, 4: 4}, 2: {2: 3, 3: 4, 4: 5}, 3: {2: 2, 3: 3, 4: 4}}


def test_bridge_engine_residues_to_beta():
    for n, table in BRIDGE_TABLE.items():
        beta = rf_eval_rational(beta_number(n, 1), F(4))
        ve = 0 if beta == 0 else min(0, frac_val(beta, 3))
        for N, want in table.items():
            e, y = volkenborn_scaled(VolkenbornJob(3, 4, N, 10, IntegrandSpec(0, n)))
            E = max(e, -ve)
            lhs = y.residue * 3 ** (E - e) % 3 ** y.K
            rhs = scaled_residue(beta, 3, E, y.K)
            d = (lhs - rhs) % 3 ** y.K
            seen = (y.K if d == 0 else int_val(d, 3)) - E
            assert seen == want, (n, N)


def test_bridge_exact_fractions_to_beta():
    # same comparison without the engine: level sum and beta both as Fractions
    for n, table in BRIDGE_TABLE.items():
        beta = rf_eval_rational(beta_number(n, 1), F(4))
        for N, want in table.items():
            val = exact_level(3, 4, N, IntegrandSpec(0, n))
            assert frac_val(val - beta, 3) == want, (n, N)


def test_eq3_shift_identity():
    for m in (0, 1, 2):
        for shift in (1, 2, 3):
            for N in (2, 3, 4):
                r = verify_eq3(VolkenbornJob(3, 4, N, 10, IntegrandSpec(0, m)), shift)
                assert r.verdict, (m, shift, N)
                assert r.identity == "eq3"
                if m == 0:
                    # constant case telescopes exactly at every level
                    assert (r.detail["discrepancy_valuation"]
                            == r.detail["output_precision"])


def test_eq3_report_detail():
    r = verify_eq3(VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 1)), 2)
    assert r.detail == {"output_precision": 7, "scale": 0,
                        "compare_precision": 3, "discrepancy_valuation": 4}
    assert r.values == ("191 mod 3^7", "29 mod 3^7")
    assert r.params["shift"] == 2 and r.params["m"] == 1


def test_eq3_window_on_exact_fractions():
    # lhs and rhs recomputed with Fractions only; they agree to 3^N
    q0, m, s, N = F(4), 2, 2, 3
    lhs = (q0 ** s * exact_level(3, q0, N, IntegrandSpec(0, m, s))
           - exact_level(3, q0, N, IntegrandSpec(0, m)))
    rhs = sum(m * ((1 - q0 ** l) / (1 - q0)) ** (m - 1) * q0 ** (2 * l)
              + (q0 - 1) * ((1 - q0 ** l) / (1 - q0)) ** m * q0 ** l
              for l in range(s))
    assert frac_val(lhs - rhs, 3) >= N


def test_eq3_guards():
    with pytest.raises(ValueError, match="c = 0, s = 0"):
        verify_eq3(VolkenbornJob(3, 4, 3, 10, IntegrandSpec(1, 1)), 1)
    with pytest.raises(ValueError):
        verify_eq3(VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 1)), 0)


def test_eq3_refuses_a_bool_or_float_shift():
    job = VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 1))
    for shift in (True, 2.0):
        with pytest.raises(ValueError, match=f"shift must be an int, got {shift}"):
            verify_eq3(job, shift)


def test_eq2_qexp():
    for q0v, N, K in [(4, 2, 8), (4, 3, 10), (7, 2, 8), (10, 3, 10)]:
        r = verify_eq2_qexp(VolkenbornJob(3, q0v, N, K, IntegrandSpec(0, 0)))
        assert r.verdict, (q0v, N)
        assert r.identity == "eq2-qexp"
    r = verify_eq2_qexp(VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 0)))
    assert r.detail == {"output_precision": 7, "scale": 0,
                        "compare_precision": 3, "discrepancy_valuation": 5}
    with pytest.raises(ValueError, match="q0 = 1"):
        verify_eq2_qexp(VolkenbornJob(3, 1, 3, 10, IntegrandSpec(0, 0)))


WITT_CASES = [
    (1, 1, 1, 0, 3, 10), (0, 2, 1, 0, 3, 10), (2, 2, 1, 1, 3, 10),
    (3, 3, 1, 2, 3, 10), (2, 1, 1, 0, 4, 10),
    (1, 2, 2, 0, 3, 10), (0, 2, 2, 0, 3, 10), (2, 2, 2, 0, 3, 10),
    (1, 3, 2, 1, 2, 9), (2, 3, 2, 1, 3, 10),
]


def test_witt_formula_levels():
    for n, h, k, x, N, K in WITT_CASES:
        r = witt_check(n, h, k, x, VolkenbornJob(3, 4, N, K, IntegrandSpec(0, 0)))
        assert r.verdict, (n, h, k, x, N)
        assert r.identity == "witt"


def test_witt_double_sum_against_fraction_oracle():
    # k = 2 recomputed as a literal double sum over exact Fractions
    q0 = F(4)

    def br(t):
        return (1 - q0 ** t) / (1 - q0)

    for n, h, k, x, N, K in WITT_CASES:
        if k != 2:
            continue
        S = sum(q0 ** ((h - 1) * y1 + (h - 2) * y2)
                * br(x + y1 + y2) ** n * q0 ** (y1 + y2)
                for y1 in range(3 ** N) for y2 in range(3 ** N))
        val = S / br(3 ** N) ** 2
        exact = rf_eval_rational(beta_hk(n, h, 2, 1, x), q0)
        r = witt_check(n, h, k, x, VolkenbornJob(3, 4, N, K, IntegrandSpec(0, 0)))
        window = r.detail["compare_precision"] - r.detail["scale"]
        if val != exact:
            assert frac_val(val - exact, 3) >= window, (n, h, x, N)


def test_witt_report_detail():
    r = witt_check(1, 2, 2, 0, VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 0)))
    assert r.detail == {"output_precision": 4, "scale": 0,
                        "compare_precision": 3, "discrepancy_valuation": 3}
    assert r.values == ("13 mod 3^4", "67 mod 3^4")
    # a level value that is not a 3-adic integer gets a scale tag
    r = witt_check(2, 2, 2, 1, VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 0)))
    assert r.detail["scale"] == 1
    assert all(v.endswith("/ p^1") for v in r.values)


def test_exact_side_deeper_in_one_over_p_realigns_both_sides():
    # exact = 1/3^3 against the level value 34 / 3^1: both sides move to
    # scale 3, the level residue times 3^2 and the exact side 1
    r = padic._versus_exact("witt", {}, 3, PadicInt(3, 7, 34), 1, F(1, 27))
    assert r.detail == {"output_precision": 7, "scale": 3,
                        "compare_precision": 6, "discrepancy_valuation": 0}
    assert r.values == ("306 mod 3^7 / p^3", "1 mod 3^7 / p^3")
    assert not r.verdict and r.witness == ("lhs", "rhs")
    # an exact side no deeper than p^e keeps the scale
    r = padic._versus_exact("witt", {}, 3, PadicInt(3, 7, 307), 3, F(1, 27))
    assert r.detail == {"output_precision": 7, "scale": 3,
                        "compare_precision": 6, "discrepancy_valuation": 2}
    assert r.values == ("307 mod 3^7 / p^3", "1 mod 3^7 / p^3")


def test_runaway_summation_is_refused_up_front():
    t0 = time.monotonic()
    check_step_budget(5, 8)
    check_step_budget(3, 14)
    with pytest.raises(ValueError, match="budget"):
        check_step_budget(3, 15)
    with pytest.raises(ValueError, match="budget"):
        VolkenbornJob(101, 102, 5, 10, IntegrandSpec(0, 1))
    with pytest.raises(ValueError, match="budget"):
        VolkenbornJob(3, 4, 10**6, 10**6 + 1, IntegrandSpec(0, 1))
    # 101^3 single-sum steps fit; the k = 2 double sum would take 101^6
    job = VolkenbornJob(101, 102, 3, 10, IntegrandSpec(0, 0))
    with pytest.raises(ValueError, match="budget"):
        witt_check(1, 2, 2, 0, job)
    # a prime too large for the budget is refused before its primality test,
    # by a message that names p, since N = 1 cannot be lowered
    for request in (lambda: check_step_budget(2305843009213693951, 1),
                    lambda: VolkenbornJob(2305843009213693951, 1, 1, 3, IntegrandSpec(0, 0))):
        with pytest.raises(ValueError, match="p = 2305843009213693951 alone exceeds the budget") \
                as refused:
            request()
        assert "lower N" not in str(refused.value)
    # a base below 2 never passes the budget, so it is refused before the
    # loop over the levels
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"at least 2, got {p}"):
            check_step_budget(p, 10**12)
    assert time.monotonic() - t0 < 1


def test_step_budget_refuses_a_bool_or_float():
    for args, name in (((3, 2.5), "levels"), ((3, True), "levels"),
                       ((True, 3), "p"), ((3.0, 2), "p")):
        with pytest.raises(ValueError, match=f"{name} must be an int, got"):
            check_step_budget(*args)


def test_unprintable_precision_is_refused_up_front(monkeypatch):
    # the default limit: 3^9000 - 1 has 4295 digits, 3^9100 - 1 has 4342
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    t0 = time.monotonic()
    for K in (10**9, 9100):
        with pytest.raises(ValueError, match=f"K={K} "):
            VolkenbornJob(3, 4, 3, K, IntegrandSpec(0, 0))
    VolkenbornJob(3, 4, 3, 9000, IntegrandSpec(0, 0))
    assert time.monotonic() - t0 < 1
    # at a small limit, admitted exactly when the largest residue prints
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 40)
    for p in (3, 5, 7):
        for K in range(4, 120):
            fits = len(str(p ** K - 1)) <= 40
            try:
                VolkenbornJob(p, p + 1, 3, K, IntegrandSpec(0, 0))
                assert fits, (p, K)
            except ValueError as exc:
                assert not fits and f"K={K} " in str(exc), (p, K)
    # 0 is no limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    VolkenbornJob(3, 4, 3, 10**9, IntegrandSpec(0, 0))


def test_witt_guards(monkeypatch):
    job = VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 0))
    with pytest.raises(ValueError, match="k must be 1 or 2"):
        witt_check(1, 2, 3, 0, job)
    with pytest.raises(ValueError):
        witt_check(1, 1, 2, 0, job)

    def closed_form(*args):
        raise AssertionError("the closed form ran for a refused request")

    # refused before the closed form is evaluated
    monkeypatch.setattr(padic, "beta_hk", closed_form)
    with pytest.raises(ValueError, match="K >= 7"):
        witt_check(1, 2, 2, 0, VolkenbornJob(3, 4, 3, 6, IntegrandSpec(0, 0)))


# -- literal modular loops: the level sums step by step, one point at a time

def _loop_residue(q0, m):
    return q0.numerator * pow(q0.denominator, -1, m) % m


def loop_scaled(p, q0, N, K, total, k):
    """(e, residue) of total / [p^N]_q^k, with [p^N]_q by its own loop."""
    m = p ** K
    r = _loop_residue(q0, m)
    b = 0
    for _ in range(p ** N):
        b = (b * r + 1) % m
    unit = (b // p ** N) ** k
    v = K if total == 0 else int_val(total, p)
    e = max(0, k * N - v)
    mo = p ** (K - k * N)
    return e, (total * p ** e // p ** (k * N)) * pow(unit, -1, mo) % mo


def loop_single(p, q0, N, K, f):
    """sum_{x<p^N} q^{cx} [x+s]^m q^x mod p^K, one x at a time."""
    m = p ** K
    r = _loop_residue(q0, m)
    b = 0
    for _ in range(f.s):
        b = (b * r + 1) % m
    total, qx = 0, 1
    for _ in range(p ** N):
        total = (total + pow(qx, f.c + 1, m) * pow(b, f.m, m)) % m
        b = (b * r + 1) % m
        qx = qx * r % m
    return loop_scaled(p, q0, N, K, total, 1)


def loop_double(p, q0, N, K, n, h, x):
    """sum_{y1,y2<p^N} q^{h y1 + (h-1) y2} [x+y1+y2]^n mod p^K."""
    m = p ** K
    r = _loop_residue(q0, m)
    b = 0
    for _ in range(x):
        b = (b * r + 1) % m
    brackets = []
    for _ in range(2 * p ** N - 1):
        brackets.append(b)
        b = (b * r + 1) % m
    total = 0
    for y1 in range(p ** N):
        for y2 in range(p ** N):
            total += pow(r, h * y1 + (h - 1) * y2, m) * pow(brackets[y1 + y2], n, m)
    return loop_scaled(p, q0, N, K, total % m, 2)


def loop_moments(r, w, n, L, m):
    """sum_{y<L} w^y [y]_r^j mod m for j <= n, one y at a time."""
    A, wy, b = [0] * (n + 1), 1, 0
    for _ in range(L):
        for j in range(n + 1):
            A[j] = (A[j] + wy * pow(b, j, m)) % m
        wy = wy * w % m
        b = (b * r + 1) % m
    return A


def test_moments_against_modular_loop():
    # as in a level sum: the blocks of one r and L take their sums mod
    # top = m d^t, t at least every n, from one shared dict, and some of
    # their weights are powers of r lifted mod top
    rng = Random(47)
    groups = []
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 11))
        K = rng.randint(1, 8)
        m = p ** K
        r = rng.choice((1, 1 + p * rng.randrange(m), 1 + p * p * rng.randrange(m),
                        rng.randrange(m))) % m
        ns = [rng.randint(0, 7) for _ in range(3)]
        top = m * (r + (m if r < 2 else 0) - 1) ** (max(ns) + rng.randint(0, 2))
        ws = [rng.choice((0, 1, rng.randrange(m), pow(r, rng.randint(0, 6), m),
                          pow(r + (m if r < 2 else 0), rng.randint(0, 6), top)))
              for _ in ns]
        groups.append((r, rng.choice((0, 1, rng.randint(2, 80))), m, top, list(zip(ws, ns))))
    # q0 = 1 (mod p^K), q0 = 1 (mod p^2) but not p^3, w = 0 and w = 1, L = 0
    # and L = 1, and n >= 4 at a level of a job
    for r, w, n, L, m in [(1, 1, 5, 27, 3 ** 4), (1, 4, 4, 25, 5 ** 3), (1 + 3 ** 6, 1, 6, 81, 3 ** 6),
                          (10, 10, 5, 81, 3 ** 7), (10, 1, 4, 0, 3 ** 7), (10, 1, 4, 1, 3 ** 7),
                          (26, 0, 4, 30, 5 ** 4), (26, 0, 4, 1, 5 ** 4), (4, 1, 6, 243, 3 ** 9),
                          (6, 6, 8, 125, 5 ** 5), (1 + 7 ** 2, 1, 9, 49, 7 ** 4)]:
        top = m * (r % m + (m if r % m < 2 else 0) - 1) ** n
        groups.append((r, L, m, top, [(w, n), (w * r % top, n - 1), (w, n)]))
    for r, L, m, top, wns in groups:
        sums = {}
        for w, n in wns:
            assert padic._block(r, w, n, L, m, top, sums) == loop_moments(r, w, n, L, m), (r, w, n, L, m)


def test_level_sum_takes_each_geometric_sum_once(monkeypatch):
    # at n = 3 the k = 2 peel asks for (n + 1)(n + 4)/2 = 14 geometric sums
    # of exponent p^N, but their bases r^{h - 1 + s}, s <= n + 1, fall into
    # n + 2 = 5 classes; [p^N]_q is one more, mod p^K alone, and [x]_q the
    # one sum of exponent x = 1
    calls = []
    geometric = padic._geometric

    def counted(u, L, M):
        calls.append(L)
        return geometric(u, L, M)

    monkeypatch.setattr(padic, "_geometric", counted)
    report = witt_check(3, 2, 2, 1, VolkenbornJob(5, 6, 4, 10, IntegrandSpec(0, 0)))
    assert report.verdict and report.values == ("14 mod 5^2", "14 mod 5^2")
    assert sorted(calls) == [1] + [5 ** 4] * 6


def q0_grid(p, K):
    """q0 = 1, small units 1 (mod p), a fraction, and 1 (mod p^{K+2})."""
    return [F(1), F(1 + p), F(1 + 2 * p), F(7, 4) if p == 3 else F(1 + p * p),
            F(1 + p ** (K + 2))]


def test_single_sum_against_modular_loop():
    rng = Random(41)
    for p, N in [(3, 4), (3, 6), (5, 3), (7, 2), (11, 2)]:
        K = N + rng.randint(1, 6)
        for q0 in q0_grid(p, K):
            for _ in range(3):
                f = IntegrandSpec(*(rng.randint(0, hi) for hi in (4, 6, 9)))
                e, y = volkenborn_scaled(VolkenbornJob(p, q0, N, K, f))
                assert (e, y.residue) == loop_single(p, q0, N, K, f), (p, q0, N, K, f)
                assert y.K == K - N


def test_double_sum_against_modular_loop():
    rng = Random(43)
    for p, N in [(3, 1), (3, 3), (5, 2), (7, 2)]:
        K = 2 * N + rng.randint(1, 6)
        for q0 in q0_grid(p, K):
            for _ in range(2):
                n, h, x = rng.randint(0, 5), rng.randint(2, 5), rng.randint(0, 6)
                job = VolkenbornJob(p, q0, N, K, IntegrandSpec(0, 0))
                r = witt_check(n, h, 2, x, job)
                e, res = loop_double(p, q0, N, K, n, h, x)
                out, scale = K - 2 * N, r.detail["scale"]
                exact = rf_eval_rational(beta_hk(n, h, 2, 1, x), q0)
                # the report lifts the level value to the exact side's scale
                assert scale == max(e, 0 if exact == 0 else -frac_val(exact, p))
                tag = f" / p^{scale}" if scale else ""
                want = f"{res * p ** (scale - e) % p ** out} mod {p}^{out}{tag}"
                assert r.values[0] == want, (p, q0, N, K, n, h, x)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 2)]),
       st.integers(1, 6), st.integers(-4, 9), st.integers(0, 5),
       st.integers(0, 4), st.integers(0, 6), st.integers(0, 9))
def test_single_sum_property(pn, extra, a, b, c, m, s):
    p, N = pn
    K = N + extra
    q0 = F(1 + p * a, 1 + p * b)
    f = IntegrandSpec(c, m, s)
    e, y = volkenborn_scaled(VolkenbornJob(p, q0, N, K, f))
    assert (e, y.residue) == loop_single(p, q0, N, K, f)


def test_budget_edge_runs_without_a_loop():
    # residues recorded from the p^N and p^{2N} summation loops, which took
    # about 9 s and 2 s (4 s at K = 30) for these 3^14-step requests
    t0 = time.monotonic()
    e, y = volkenborn_scaled(VolkenbornJob(3, 4, 14, 20, IntegrandSpec(1, 3, 2)))
    k2 = witt_check(2, 2, 2, 1, VolkenbornJob(3, 4, 7, 16, IntegrandSpec(0, 0)))
    wide = witt_check(2, 2, 2, 1, VolkenbornJob(3, 4, 7, 30, IntegrandSpec(0, 0)))
    assert time.monotonic() - t0 < 1
    assert (e, y) == (0, PadicInt(3, 6, 454))
    assert k2.values == ("1 mod 3^2 / p^1", "1 mod 3^2 / p^1")
    assert k2.detail == {"output_precision": 2, "scale": 1,
                         "compare_precision": 2, "discrepancy_valuation": 2}
    assert wide.values == ("11566216 mod 3^16 / p^1", "23874652 mod 3^16 / p^1")
    assert wide.detail["discrepancy_valuation"] == 8 and wide.verdict
