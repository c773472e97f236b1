"""Fraction oracles for the p-adic engine.

The engine computes everything with modular arithmetic at fixed precision.
Every check here recomputes the target through exact Fractions (full-size
rationals, no truncation) and compares residues afterwards, so the two
routes share no code beyond the integrand definition.
"""

import time
from fractions import Fraction

import pytest

from qcarlitz.carlitz import beta_hk, beta_number
from qcarlitz.padic import (IntegrandSpec, PadicInt, VolkenbornJob,
                            check_step_budget, padic_arith, padic_exp,
                            padic_log, verify_eq2_qexp, verify_eq3,
                            volkenborn_approx, volkenborn_scaled, witt_check)
from qcarlitz.qcore import QArg
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


def test_arith_and_division():
    assert padic_arith(PadicInt(3, 4, 1), PadicInt(3, 4, 5), "div") == PadicInt(3, 4, 65)
    d = padic_arith(PadicInt(3, 4, 3), PadicInt(3, 4, 3), "div")
    assert d == PadicInt(3, 3, 1) and d.K == 3
    assert (PadicInt(3, 4, 10) + PadicInt(3, 2, 1)).K == 2
    assert (PadicInt(5, 3, 7) * PadicInt(5, 3, 8)).residue == 56
    with pytest.raises(ValueError, match="precision exhausted"):
        PadicInt(3, 4, 1) / PadicInt(3, 4, 0)
    with pytest.raises(ValueError, match="not a p-adic integer"):
        PadicInt(3, 4, 1) / PadicInt(3, 4, 3)
    with pytest.raises(ValueError):
        padic_arith(PadicInt(3, 4, 1), PadicInt(5, 4, 1), "add")
    with pytest.raises(ValueError):
        padic_arith(PadicInt(3, 4, 1), PadicInt(3, 4, 1), "pow")


def test_from_rational():
    assert PadicInt.from_rational(F(-1, 5), 3, 4).residue == 16
    assert PadicInt.from_rational(F(7), 3, 2).residue == 7
    with pytest.raises(ValueError):
        PadicInt.from_rational(F(1, 3), 3, 4)


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


def test_exp_log_round_trips():
    for p, K in [(3, 6), (5, 5), (7, 4)]:
        for ures in [1 + p, 1 + 3 * p, 1 + p ** 2 + p]:
            u = PadicInt(p, K, ures)
            assert padic_exp(padic_log(u)) == u
        for tres in [p, 2 * p, p * p + p]:
            t = PadicInt(p, K, tres)
            assert padic_log(padic_exp(t)) == t


def test_log_exp_domains():
    with pytest.raises(ValueError, match="log domain"):
        padic_log(PadicInt(3, 4, 2))
    with pytest.raises(ValueError, match="log domain"):
        padic_log(PadicInt(2, 4, 3))
    with pytest.raises(ValueError, match="exp domain"):
        padic_exp(PadicInt(3, 4, 1))


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
        exact = rf_eval_rational(beta_hk(n, h, 2, 1, QArg(x, 1)), q0)
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
    assert time.monotonic() - t0 < 1


def test_witt_guards():
    job = VolkenbornJob(3, 4, 3, 10, IntegrandSpec(0, 0))
    with pytest.raises(ValueError, match="k must be 1 or 2"):
        witt_check(1, 2, 3, 0, job)
    with pytest.raises(ValueError):
        witt_check(1, 1, 2, 0, job)
    with pytest.raises(ValueError, match="K >= 7"):
        witt_check(1, 2, 2, 0, VolkenbornJob(3, 4, 3, 6, IntegrandSpec(0, 0)))
