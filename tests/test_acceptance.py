"""Release gate: one test per shipped guarantee, run with -v for the list.

Every comparison in here is exact rational or residue arithmetic.  The
p-adic checks compare inside explicit valuation windows; the measured
agreement depths are pinned as constants rather than recomputed, so a
regression that shifts any digit fails loudly.
"""

import json
import time
from fractions import Fraction
from math import comb, factorial

import qcarlitz.identities
from qcarlitz import cli
from qcarlitz.carlitz import (bernoulli_classical, beta_number,
                              beta_number_recurrence, beta_poly)
from qcarlitz.identities import (cross34_check, grid_params,
                                 lemma2_coeff_check, sample_grid, thm1_check,
                                 thm3_check, thm4_check)
from qcarlitz.padic import (IntegrandSpec, VolkenbornJob, verify_eq3,
                            volkenborn_scaled, witt_check)
from qcarlitz.polyq import Poly
from qcarlitz.qcore import power_sum_T, q_int
from qcarlitz.ratfunc import RF_ONE, RF_ZERO, RatFunc, rf_eval_rational


def test_criterion_1_closed_form_matches_recurrence():
    t0 = time.monotonic()
    for d in (1, 2, 3):
        table = beta_number_recurrence(8, d)
        for n in range(9):
            assert beta_number(n, d) == table.values[n], (n, d)
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_addition_theorem():
    t0 = time.monotonic()
    for n in range(6):
        for x in range(4):
            for y in range(4):
                lhs = beta_poly(n, 1, x + y)
                rhs = RF_ZERO
                for l in range(n + 1):
                    rhs = rhs + (RatFunc(Poly([comb(n, l)]).shift(l * x))
                                 * beta_poly(l, 1, y)
                                 * q_int(x, 1) ** (n - l))
                assert lhs == rhs, (n, x, y)
    assert time.monotonic() - t0 < 5.0


def test_criterion_3_classical_limit():
    for n in range(9):
        assert rf_eval_rational(beta_number(n, 1), 1) == bernoulli_classical(n), n


def test_criterion_4_q_number_laws():
    for a in range(7):
        for b in range(7):
            assert q_int(a + b, 1) == (q_int(a, 1)
                                       + RatFunc(Poly.q_power(a)) * q_int(b, 1))
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert q_int(a + b + c, 1) == (
                    q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
                    + RatFunc(Poly.q_power(a + b)) * q_int(c, 1))
    for a in range(1, 7):
        for b in range(1, 7):
            assert q_int(a * b, 1) == q_int(a, 1) * q_int(b, a)


def test_criterion_5_coefficient_identity():
    # stage 1: series oracle.  The t-expansion, to order 3, of
    #   sum_{i<w3} (t q^{2di} + (q^d - 1) q^{di}) e^{[i]_{q^d} t}
    # must carry n*T_{2,n-1} + (q^d - 1)*T_{1,n} as its t^n/n! coefficient;
    # built with honest truncated series before the grid is trusted
    order = 3
    for d in (1, 2):
        qd = RatFunc(Poly.q_power(d))
        for w3 in (1, 2, 3):
            series = [RF_ZERO] * (order + 1)
            for i in range(w3):
                exp_i = [RF_ONE]
                for k in range(1, order + 1):
                    exp_i.append(exp_i[-1] * q_int(i, d) / k)
                c0 = (qd - 1) * RatFunc(Poly.q_power(d * i))
                for k in range(order + 1):
                    series[k] = series[k] + c0 * exp_i[k]
                c1 = RatFunc(Poly.q_power(2 * d * i))
                for k in range(1, order + 1):
                    series[k] = series[k] + c1 * exp_i[k - 1]
            for n in range(order + 1):
                want = (qd - 1) * power_sum_T(1, n, w3 - 1, d)
                if n >= 1:
                    want = want + power_sum_T(2, n - 1, w3 - 1, d) * n
                assert series[n] * factorial(n) == want, (d, w3, n)
    # stage 2: the full identity on the grid
    for n in range(7):
        for d in (1, 2, 6):
            for w3 in (1, 2, 3):
                assert lemma2_coeff_check(n, d, w3).verdict, (n, d, w3)


def test_criterion_6_six_way_triple_product_symmetry():
    t0 = time.monotonic()
    grid = grid_params(range(5), 3, 2)
    sample = sample_grid(grid, 500)
    assert len(grid) == 3645 and len(sample) == 500
    for p in sample:
        assert thm1_check(p).verdict, p.as_dict()
    assert time.monotonic() - t0 < 60.0


def test_criterion_7_six_way_and_cross_expansion_agreement():
    grid = grid_params((1, 2, 3), 3, 2, vary_y3=False)
    sample = sample_grid(grid, 300)
    assert len(grid) == 729 and len(sample) == 300
    for p in sample[:60]:
        assert thm3_check(p).verdict, p.as_dict()
        assert thm4_check(p).verdict, p.as_dict()
    # the twelve-way report subsumes both six-way verdicts and the
    # per-permutation equality of the two expansions, on the full sample
    for p in sample:
        assert cross34_check(p).verdict, p.as_dict()


def test_criterion_8_padic_convergence_and_identities():
    t0 = time.monotonic()
    p, q0, K = 3, 4, 10
    # Two precision notions are in play.  Residue arithmetic certifies
    # K - kN digits of the level-N value itself; how many of those digits
    # agree with the N -> infinity limit is a measured quantity that grows
    # like p^N.  Verdicts therefore compare inside the window
    # min(K - kN, N + scale), and the measured agreement is pinned here.
    seen = {n: [] for n in range(4)}
    for n in range(4):
        for N in (2, 3, 4):
            r = witt_check(n, 1, 1, 0, VolkenbornJob(p, q0, N, K, IntegrandSpec(0, 0)))
            assert r.verdict, (n, N)
            d = r.detail
            assert d["compare_precision"] == min(K - N, N + d["scale"])
            seen[n].append(d["discrepancy_valuation"] - d["scale"])
    # n = 0 integrates a constant and agrees to the full output window
    assert seen[0] == [8, 7, 6]
    # for n >= 1 agreement deepens by one digit per level, never shrinking
    assert seen[1] == [2, 3, 4]
    assert seen[2] == [3, 4, 5]
    assert seen[3] == [2, 3, 4]
    for n in (1, 2, 3):
        assert all(a < b for a, b in zip(seen[n], seen[n][1:]))
    # consecutive levels form a Cauchy sequence: valuation of the
    # N -> N+1 step is non-decreasing
    vals = [volkenborn_scaled(VolkenbornJob(p, q0, N, 12, IntegrandSpec(0, 2)))
            for N in range(1, 6)]
    emax = max(e for e, _ in vals)
    prec = min(y.K for _, y in vals)
    res = [y.residue * p ** (emax - e) % p ** prec for e, y in vals]
    dv = []
    for i in range(1, len(res)):
        d = (res[i] - res[i - 1]) % p ** prec
        v = prec if d == 0 else 0
        while d and d % p == 0:
            d //= p
            v += 1
        dv.append(v)
    assert dv == [2, 4, 5, 6]
    # shift identity across integrand degrees and shifts
    for m in (0, 1, 2):
        for shift in (1, 2, 3):
            r = verify_eq3(VolkenbornJob(p, q0, 3, K, IntegrandSpec(0, m)), shift)
            assert r.verdict, (m, shift)
    # order-2 double sum at N = 3: 729 interior terms against the closed
    # form.  The (1, 2, 0) point agrees one digit short of the 4 certified
    # digits: the finite level genuinely differs from the limit there, so
    # its verdict window stops at depth 3.
    for (n, h, x), want in {(0, 2, 0): 4, (1, 2, 0): 3, (2, 2, 1): 4}.items():
        r = witt_check(n, h, 2, x, VolkenbornJob(p, q0, 3, K, IntegrandSpec(0, 0)))
        assert r.verdict, (n, h, x)
        assert r.detail["discrepancy_valuation"] == want, (n, h, x)
    assert time.monotonic() - t0 < 30.0


def test_criterion_9_cli_gate(monkeypatch, capsys):
    monkeypatch.delenv("QCARLITZ_JOBS", raising=False)
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    orig = qcarlitz.identities.beta_number

    def flipped(n, d=1):
        v = orig(n, d)
        return v * -1 if n == 1 else v

    monkeypatch.setattr(qcarlitz.identities, "beta_number", flipped)
    assert cli.main(["verify", "--suite", "lemma2"]) == 1
    err = capsys.readouterr().err
    line = next(l for l in err.splitlines() if l.startswith("counterexample: "))
    obj = json.loads(line[len("counterexample: "):])
    assert obj["identity"] == "lemma2"
    assert obj["params"] == {"d": 1, "n": 1, "w3": 1}
    assert obj["witness"] == ["lhs", "rhs"]
