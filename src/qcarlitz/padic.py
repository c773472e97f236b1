"""Truncated p-adic arithmetic and finite-level q-Volkenborn sums.

PadicInt models Z_p at a fixed number of digits: arithmetic carries the
minimum precision of its operands, and division by a value of valuation v
costs v digits.  The Volkenborn engine evaluates the level-N partial sum
(1/[p^N]_q) sum_{x<p^N} f(x) q^x, and the k-fold sums of witt_check, with
pure modular arithmetic; since [p^N]_q has valuation exactly N when
q = 1 (mod p) and p is odd, the quotient is certified to K - kN digits for
working precision K.

No sum walks its p^N points: each is a geometric sum in closed form.  A
block [0, L) is kept as the moments A_j(L) = sum_{y<L} w^y [y]_q^j (j <= n).
With q represented by an integer r != 1 and d = r - 1, [y]_q = (r^y - 1)/d,
so d^j A_j = sum_i C(j,i) (-1)^{j-i} G(w r^i), where
G(u) = sum_{y<L} u^y = (u^L - 1)/(u - 1).  The n + 1 values of G, one
modular power each, give every moment; taken mod p^K d^n, the divisions by
u - 1 and by d^j are exact, and A_j is the residue of the literal sum.  A
k-fold sum of prod_l W_l^{y_l} [X + y_1 + .. + y_k]^n peels off y_k by
[X + z] = [X] + q^X [z]:
    P(W_1..W_k; n) = sum_i C(n,i) A_i(W_k) q^{X i} P(W_1 q^i, .., W_{k-1} q^i; n-i)
and P(; n) = [X]^n.

Two precision notions must not be conflated.  The certified precision
above is an arithmetic guarantee about the finite-level value itself.
Agreement with the N -> infinity limit is a separate, empirical matter:
for the f(x) = q^{cx} [x+s]^m family the observed discrepancy valuation
grows like N, so the check functions compare at the convergence window
min(certified, N + scale), set in _scaled_report alone, and report the
observed valuation in an IdentityReport's detail.  _versus_exact alone
scales an exact rational side by p^scale.

Some limit values (for example the quadratic moment at p = 3, q0 = 4)
have negative valuation, hence are not p-adic integers.  volkenborn_approx
then refuses; volkenborn_scaled returns (e, y) with the value equal to
y / p^e and y a PadicInt, which is what the check functions use.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, log10

from .carlitz import beta_hk
from .identities import IdentityReport
from .polyq import check_rational
from .qcore import Record, check_index
from .ratfunc import rf_eval_rational

# Largest nominal summation range, p^N (p^{2N} for the k = 2 double sum), a
# Volkenborn request may name.  No sum walks its range: a level sum costs
# modular powers of exponent p^N, so this caps request size as an API
# contract, not loop time; larger requests are refused.
STEP_BUDGET = 10**7


def check_step_budget(p: int, levels: int) -> None:
    """Raise ValueError when p^levels summation steps exceed STEP_BUDGET.

    p < 2 is refused first: the powers of 0 and 1 never pass the budget, so
    the loop below would run all levels.
    """
    check_index(p, "p")
    check_index(levels, "levels")
    if p < 2:
        raise ValueError(f"summation base p must be at least 2, got {p}")
    if levels >= 1 and p > STEP_BUDGET:
        raise ValueError(
            f"p = {p} alone exceeds the budget of {STEP_BUDGET} summation "
            f"steps; lower p")
    steps = 1
    for _ in range(levels):
        steps *= p
        if steps > STEP_BUDGET:
            raise ValueError(
                f"summation of {p}^{levels} terms exceeds the budget of "
                f"{STEP_BUDGET} steps; lower N")


# Miller-Rabin with the first 12 primes as bases: the least composite that
# passes all twelve is 318665857834031151167461 = 399165290221 * 798330580441,
# so the test is exact below it
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(p: int) -> bool:
    """Primality in O(log p) multiplications: deterministic Miller-Rabin up
    to _MILLER_RABIN_LIMIT, a larger p refused."""
    if p < 2:
        return False
    if p in _MILLER_RABIN_BASES:
        return True
    if p >= _MILLER_RABIN_LIMIT:
        raise ValueError(
            f"cannot decide whether p = {p} is prime: the test is exact "
            f"below {_MILLER_RABIN_LIMIT}")
    # p - 1 = 2^s d with d odd; p is no base, so p % a == 0 means a composite
    # p, which settles every p < 41
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return False
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _int_val(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _frac_val(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


class PadicInt(Record):
    """An element of Z_p known to K digits: residue in [0, p^K)."""

    __slots__ = ("p", "K", "residue")

    def __init__(self, p: int, K: int, residue: int) -> None:
        for value, name in ((p, "p"), (K, "K"), (residue, "residue")):
            check_index(value, name)
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if K < 1:
            raise ValueError("precision must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "residue", residue % p ** K)

    @classmethod
    def from_rational(cls, value: Fraction | int, p: int, K: int) -> "PadicInt":
        check_rational(value, "value")
        value = Fraction(value)
        if value.denominator % p == 0:
            raise ValueError(f"{value} is not a p-adic integer for p={p}")
        return cls(p, K, _rat_mod(value, p, K))

    @property
    def modulus(self) -> int:
        return self.p ** self.K

    def valuation(self) -> int:
        """min(v_p(residue), K); a zero residue means valuation >= K."""
        if self.residue == 0:
            return self.K
        return _int_val(self.residue, self.p)

    def reduce(self, K2: int) -> "PadicInt":
        if K2 > self.K:
            raise ValueError("cannot increase precision by reduction")
        return PadicInt(self.p, K2, self.residue)

    def _shared_prec(self, other: "PadicInt") -> int:
        # both operands in Z_p; results carry the lesser precision
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        return min(self.K, other.K)

    def __add__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._shared_prec(other), self.residue + other.residue)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._shared_prec(other), self.residue - other.residue)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._shared_prec(other), self.residue * other.residue)

    def __truediv__(self, other: "PadicInt") -> "PadicInt":
        """Division by a value of valuation v costs v digits."""
        p, prec = self.p, self._shared_prec(other)
        v = other.valuation()
        if v >= other.K:
            raise ValueError("division precision exhausted: divisor is zero to its precision")
        if self.residue % p ** v:
            raise ValueError(f"quotient is not a p-adic integer (divisor valuation {v})")
        out = prec - v
        if out < 1:
            raise ValueError("division precision exhausted")
        mo = p ** out
        unit = (other.residue // p ** v) % mo
        return PadicInt(p, out, (self.residue // p ** v) * pow(unit, -1, mo))

    def __str__(self) -> str:
        return f"{self.residue} mod {self.p}^{self.K}"


def padic_log(u: PadicInt) -> PadicInt:
    """Iwasawa logarithm sum_{k>=1} (-1)^{k+1} (u-1)^k / k.

    Needs u = 1 (mod p) and p odd; then v_p(k) <= (k-1) v_p(u-1) for every
    term, the division by k costs nothing, and the result keeps all K digits.
    """
    p, K = u.p, u.K
    if p == 2:
        raise ValueError("log domain: p must be odd")
    t = u.residue - 1
    if t % p:
        raise ValueError("log domain: argument must be 1 (mod p)")
    if t == 0:
        return PadicInt(p, K, 0)
    m = p ** K
    vt = _int_val(t, p)
    acc = 0
    k = 1
    # v_p(k) <= (k-1)/(p-1) for odd p, and k vt - (k-1)/(p-1) is strictly
    # increasing in k, so once it reaches K every later term is 0 mod p^K
    # (the exact per-term valuation is not monotone; the envelope is)
    while k * vt * (p - 1) - (k - 1) < K * (p - 1):
        vk = _int_val(k, p)
        ku = k // p ** vk
        term = pow(t, k, m * p ** vk) // p ** vk
        term = term * pow(ku, -1, m) % m
        acc = (acc - term if k % 2 == 0 else acc + term) % m
        k += 1
    return PadicInt(p, K, acc)


class IntegrandSpec(Record):
    """f(x) = q^{c x} [x+s]_q^m."""

    __slots__ = ("c", "m", "s")

    def __init__(self, c: int, m: int, s: int = 0) -> None:
        for value, name in ((c, "c"), (m, "m"), (s, "s")):
            check_index(value, name)
        if c < 0 or m < 0 or s < 0:
            raise ValueError("integrand exponents must be non-negative")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)


class VolkenbornJob(Record):
    """Level-N q-Volkenborn summation task at working precision K."""

    __slots__ = ("p", "q0", "N", "K", "f")

    def __init__(self, p: int, q0: Fraction, N: int, K: int, f: IntegrandSpec) -> None:
        for value, name in ((p, "p"), (N, "N"), (K, "K")):
            check_index(value, name)
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime")
        if N < 1:
            raise ValueError("level N must be positive")
        # the budget first, so a p above STEP_BUDGET is refused by the
        # message that names it, before any primality test
        check_step_budget(p, N)
        if not _is_prime(p):
            raise ValueError("p must be an odd prime")
        check_rational(q0, "q0")
        q0 = Fraction(q0)
        if q0.denominator % p == 0:
            raise ValueError("q0 must be a p-adic integer")
        if q0 != 1 and _frac_val(q0 - 1, p) < 1:
            raise ValueError("q0 must be 1 (mod p)")
        if K <= N:
            raise ValueError(
                f"precision underflow: K={K} leaves no certified digits; "
                f"need K >= {N + 1}")
        # reports print residues mod p^K, of up to floor(K log10 p) + 1
        # digits (p^K is never a power of 10); 0, or a Python before
        # 3.10.7 without the limit, means no limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and K * log10(p) >= limit:
            raise ValueError(
                f"precision K={K} gives residues mod {p}^{K} of more "
                f"than {limit} decimal digits, the interpreter's limit for "
                f"printing an integer; lower K")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "f", f)


def _rat_mod(x: Fraction, p: int, K: int) -> int:
    m = p ** K
    return x.numerator * pow(x.denominator, -1, m) % m


def _geometric(u: int, L: int, M: int) -> int:
    """sum_{y<L} u^y mod M, as (u^L - 1) / (u - 1) with u^L taken mod
    M (u - 1), so that the division is exact."""
    u %= M
    if u == 1:
        return L % M
    if u == 0:
        return min(L, 1)
    return (pow(u, L, M * (u - 1)) - 1) // (u - 1) % M


def _block(r: int, w: int, n: int, L: int, m: int, top: int,
           sums: dict[int, int]) -> list[int]:
    """The moments A_j = sum_{y<L} w^y [y]_q^j mod m at q = r, for j <= n.

    With r' = r (mod m) taken in [2, m + 1], so that d = r' - 1 is not 0,
    and G(u) = sum_{y<L} u^y,
        d^j A_j = sum_i C(j,i) (-1)^{j-i} G(w r'^i),
    so n + 1 geometric sums taken mod m d^n give every moment, each by an
    exact division by d^j.  They are taken mod top = m d^t, t >= n, and
    kept in sums by base mod top, for the blocks of one level with the
    same r, L and top to share."""
    r %= m
    if r < 2:
        r += m
    d = r - 1
    G = []
    for i in range(n + 1):
        u = w * pow(r, i, top) % top
        if u not in sums:
            sums[u] = _geometric(u, L, top)
        G.append(sums[u])
    A = []
    for j in range(n + 1):
        dj = d ** j
        S = sum(comb(j, i) * (-1) ** (j - i) * G[i] for i in range(j + 1))
        A.append(S % (m * dj) // dj)
    return A


def _scaled_level(p: int, q0: Fraction, N: int, K: int, exps: tuple[int, ...],
                  n: int, X: int) -> tuple[int, PadicInt]:
    """(e, y) with y / p^e = [p^N]_q^{-k} sum_{y_l < p^N} prod_l q^{exps_l y_l}
    [X + y_1 + .. + y_k]_q^n, k = len(exps), y certified to K - kN digits.

    The blocks' bases w r^s repeat (at k = 2 they depend on i + l alone):
    the weights are lifted mod top = m d^n, and the blocks share one dict.
    At k = 1 nothing repeats, and the one block takes its sums mod m d^n
    as it would alone: it pays only the dict."""
    k, m, M = len(exps), p ** K, p ** N
    r = _rat_mod(q0, p, K)
    r += m if r < 2 else 0
    top = m * (r - 1) ** n
    qX, bX = pow(r, X, m), _geometric(r, X, m)
    sums: dict[int, int] = {}

    def peel(ws: tuple[int, ...], j: int) -> int:
        if not ws:
            return pow(bX, j, m)
        A = _block(r, ws[-1], j, M, m, top, sums)
        return sum(comb(j, i) * A[i] * pow(qX, i, m)
                   * peel(tuple(w * pow(r, i, top) % top for w in ws[:-1]), j - i)
                   for i in range(j + 1)) % m

    total = peel(tuple(pow(r, a, top) for a in exps), n)
    bN = _geometric(r, M, m)
    if _int_val(bN, p) != N:
        raise ValueError("denominator [p^N]_q does not have valuation N")
    unit = (bN // M) ** k
    v_total = K if total == 0 else _int_val(total, p)
    e = max(0, k * N - v_total)
    out = K - k * N
    mo = p ** out
    y = (total * p ** e // M ** k) * pow(unit % mo, -1, mo) % mo
    return e, PadicInt(p, out, y)


def volkenborn_scaled(job: VolkenbornJob) -> tuple[int, PadicInt]:
    """(e, y): the level-N value equals y / p^e with y certified to K - N digits.

    e = 0 whenever the value is a p-adic integer; it is the smallest scaling
    that clears the valuation lost to the division by [p^N]_q.
    """
    f = job.f
    return _scaled_level(job.p, job.q0, job.N, job.K, (f.c + 1,), f.m, f.s)


def volkenborn_approx(job: VolkenbornJob) -> PadicInt:
    """The level-N value as a PadicInt at precision K - N.

    Raises if the value has negative valuation (then it is not in Z_p;
    use volkenborn_scaled).
    """
    e, y = volkenborn_scaled(job)
    if e:
        raise ValueError(
            f"level value has negative valuation -{e}; use volkenborn_scaled")
    return y


def _scaled_report(identity: str, params: dict[str, object], p: int,
                   lhs: int, rhs: int, out_prec: int, e: int,
                   N: int) -> IdentityReport:
    """Compare two p^e-scaled residues at out_prec digits inside the
    convergence window min(out_prec, N + e); record the observed
    discrepancy valuation."""
    window = min(out_prec, N + e)
    diff = (lhs - rhs) % p ** out_prec
    seen = out_prec if diff == 0 else _int_val(diff, p)
    verdict = seen >= window
    tag = f" / p^{e}" if e else ""
    values = (f"{lhs} mod {p}^{out_prec}{tag}", f"{rhs} mod {p}^{out_prec}{tag}")
    return IdentityReport(
        identity, params, ("lhs", "rhs"), values, verdict,
        None if verdict else ("lhs", "rhs"),
        {"output_precision": out_prec, "scale": e,
         "compare_precision": window, "discrepancy_valuation": seen})


def _versus_exact(identity: str, params: dict[str, object], N: int,
                  lhs: PadicInt, e: int, exact: Fraction) -> IdentityReport:
    """Compare the level-N value lhs / p^e with an exact rational, scaled
    by p^e mod p^{lhs.K}.  An exact value deeper in 1/p than p^e first
    realigns both sides to its scale."""
    p, y = lhs.p, lhs.residue
    ve = 0 if exact == 0 else _frac_val(exact, p)
    if -ve > e:
        y = y * p ** (-ve - e) % lhs.modulus
        e = -ve
    return _scaled_report(identity, params, p, y, _rat_mod(exact * p ** e, p, lhs.K),
                          lhs.K, e, N)


def _align(e_target: int, e: int, y: PadicInt) -> int:
    return y.residue * y.p ** (e_target - e) % y.modulus


def verify_eq3(job: VolkenbornJob, n_shift: int) -> IdentityReport:
    """Shift identity for f = [x]^m at level N:

        q^n I(f_n) - I(f) = sum_{l<n} (m [l]^{m-1} q^{2l} + (q-1) [l]^m q^l)

    where f_n(x) = f(x+n) and the derivative factor (q-1)/log q collapses
    exactly on this family.  The left side is a finite-level approximation,
    so agreement is checked at the convergence window min(K-N, N+e) and the
    observed discrepancy valuation is reported.
    """
    check_index(n_shift, "shift")
    if n_shift < 1:
        raise ValueError("shift must be positive")
    if job.f.c or job.f.s:
        raise ValueError("shift identity family needs f = [x]^m (c = 0, s = 0)")
    p, q0, N, K = job.p, job.q0, job.N, job.K
    m = job.f.m
    e_f, i_f = volkenborn_scaled(job)
    e_n, i_fn = volkenborn_scaled(
        VolkenbornJob(p, q0, N, K, IntegrandSpec(0, m, n_shift)))
    e = max(e_f, e_n)
    qn = _rat_mod(q0 ** n_shift, p, i_f.K)
    lhs = PadicInt(p, i_f.K, qn * _align(e, e_n, i_fn) - _align(e, e_f, i_f))
    rhs = Fraction(0)
    for l in range(n_shift):
        br = (1 - q0 ** l) / (1 - q0) if q0 != 1 else Fraction(l)
        if m:
            rhs += m * br ** (m - 1) * q0 ** (2 * l)
        rhs += (q0 - 1) * br ** m * q0 ** l
    return _versus_exact(
        "eq3", {"p": p, "q0": str(q0), "N": N, "K": K, "m": m, "shift": n_shift},
        N, lhs, e, rhs)


def verify_eq2_qexp(job: VolkenbornJob) -> IdentityReport:
    """Shift identity specialized to f(x) = q^x, the one integrand whose
    derivative genuinely produces log q:

        q I(f_1) - I(f) = ((q-1)/log q) log q + (q-1).

    The right side runs through padic_log instead of cancelling it; the
    division by log q (valuation 1) costs one digit.  job.f is ignored.
    """
    p, q0, N, K = job.p, job.q0, job.N, job.K
    if q0 == 1:
        raise ValueError("q0 = 1 makes log q zero; the q^x check needs q0 != 1")
    e, i_f = volkenborn_scaled(VolkenbornJob(p, q0, N, K, IntegrandSpec(1, 0)))
    if e:
        raise ValueError("q^x moment unexpectedly outside Z_p")
    q_p = PadicInt.from_rational(q0, p, i_f.K)
    # I(f_1) = q I(f) termwise at every finite level (f_1 = q f exactly)
    lhs = q_p * (q_p * i_f) - i_f
    log_q = padic_log(PadicInt.from_rational(q0, p, K))
    qm1 = PadicInt.from_rational(q0 - 1, p, K)
    rhs = (qm1 / log_q) * log_q + qm1
    out = min(lhs.K, rhs.K)
    return _scaled_report(
        "eq2-qexp", {"p": p, "q0": str(q0), "N": N, "K": K},
        p, lhs.reduce(out).residue, rhs.reduce(out).residue, out, 0, N)


def witt_check(n: int, h: int, k: int, x: int, job: VolkenbornJob) -> IdentityReport:
    """k-fold finite Volkenborn sum of q^{sum (h-l) y_l} [x+y_1+..+y_k]^n
    against the closed-form beta_hk value at q0.  job.f is ignored; k = 2
    divides by [p^N]^2, so the certified precision drops to K - 2N.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if n < 0 or x < 0:
        raise ValueError("n and x must be non-negative")
    p, q0, N, K = job.p, job.q0, job.N, job.K
    check_step_budget(p, k * N)
    if K <= k * N:
        raise ValueError(
            f"precision underflow: k={k} needs K >= {k * N + 1}, got {K}")
    exact = rf_eval_rational(beta_hk(n, h, k, 1, x), q0)
    # the first k of q^{(h-1) y1} q^{y1} and q^{(h-2) y2} q^{y2}
    e, y = _scaled_level(p, q0, N, K, (h, h - 1)[:k], n, x)
    return _versus_exact(
        "witt", {"p": p, "q0": str(q0), "N": N, "K": K,
                 "n": n, "h": h, "k": k, "x": x},
        N, y, e, exact)
