"""Truncated p-adic arithmetic and finite-level q-Volkenborn sums.

PadicInt models Z_p at a fixed number of digits: arithmetic carries the
minimum precision of its operands, and division by a value of valuation v
costs v digits.  The Volkenborn engine evaluates the level-N partial sum
(1/[p^N]_q) sum_{x<p^N} f(x) q^x with pure modular arithmetic; since
[p^N]_q has valuation exactly N when q = 1 (mod p) and p is odd, the
quotient is certified to K - N digits for working precision K.

Two precision notions must not be conflated.  The certified precision
above is an arithmetic guarantee about the finite-level value itself.
Agreement with the N -> infinity limit is a separate, empirical matter:
for the f(x) = q^{cx} [x+s]^m family the observed discrepancy valuation
grows like N, so the check functions compare at the convergence window
min(certified, N + scale) and report the observed valuation.

Some limit values (for example the quadratic moment at p = 3, q0 = 4)
have negative valuation, hence are not p-adic integers.  volkenborn_approx
then refuses; volkenborn_scaled returns (e, y) with the value equal to
y / p^e and y a PadicInt, which is what the check functions use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .carlitz import beta_hk
from .qcore import QArg
from .ratfunc import rf_eval_rational

_ARITH_OPS = ("add", "sub", "mul", "div")

# Most modular summation steps one Volkenborn sum may take.  The sums run
# p^N steps (p^{2N} for the k = 2 double sum); a request above the budget
# is refused before any of them runs, since it would not finish.
STEP_BUDGET = 10**7


def check_step_budget(p: int, levels: int) -> None:
    """Raise ValueError when p^levels summation steps exceed STEP_BUDGET."""
    steps = 1
    for _ in range(levels):
        steps *= p
        if steps > STEP_BUDGET:
            raise ValueError(
                f"summation of {p}^{levels} terms exceeds the budget of "
                f"{STEP_BUDGET} steps; lower N")


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
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


@dataclass(frozen=True)
class PadicInt:
    """An element of Z_p known to K digits: residue in [0, p^K)."""

    p: int
    K: int
    residue: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.K < 1:
            raise ValueError("precision must be positive")
        object.__setattr__(self, "residue", self.residue % self.p ** self.K)

    @classmethod
    def from_rational(cls, value: Fraction | int, p: int, K: int) -> "PadicInt":
        value = Fraction(value)
        if value.denominator % p == 0:
            raise ValueError(f"{value} is not a p-adic integer for p={p}")
        m = p ** K
        return cls(p, K, value.numerator * pow(value.denominator, -1, m) % m)

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

    def __add__(self, other: "PadicInt") -> "PadicInt":
        return padic_arith(self, other, "add")

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        return padic_arith(self, other, "sub")

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        return padic_arith(self, other, "mul")

    def __truediv__(self, other: "PadicInt") -> "PadicInt":
        return padic_arith(self, other, "div")

    def __str__(self) -> str:
        return f"{self.residue} mod {self.p}^{self.K}"


def padic_arith(a: PadicInt, b: PadicInt, op: str) -> PadicInt:
    if op not in _ARITH_OPS:
        raise ValueError(f"unknown operation {op!r}")
    if a.p != b.p:
        raise ValueError(f"prime mismatch: {a.p} vs {b.p}")
    p = a.p
    prec = min(a.K, b.K)
    m = p ** prec
    if op == "add":
        return PadicInt(p, prec, a.residue + b.residue)
    if op == "sub":
        return PadicInt(p, prec, a.residue - b.residue)
    if op == "mul":
        return PadicInt(p, prec, a.residue * b.residue)
    v = b.valuation()
    if v >= b.K:
        raise ValueError("division precision exhausted: divisor is zero to its precision")
    if a.residue % p ** v:
        raise ValueError(f"quotient is not a p-adic integer (divisor valuation {v})")
    out = prec - v
    if out < 1:
        raise ValueError("division precision exhausted")
    mo = p ** out
    unit = (b.residue // p ** v) % mo
    return PadicInt(p, out, (a.residue // p ** v) * pow(unit, -1, mo))


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
        vk = 0
        ku = k
        while ku % p == 0:
            ku //= p
            vk += 1
        term = pow(t, k, m * p ** vk) // p ** vk
        term = term * pow(ku, -1, m) % m
        acc = (acc - term if k % 2 == 0 else acc + term) % m
        k += 1
    return PadicInt(p, K, acc)


def padic_exp(t: PadicInt) -> PadicInt:
    """sum_{k>=0} t^k / k!; converges for v_p(t) >= 1, p odd, keeping K digits
    since v_p(k!) = (k - digitsum(k))/(p-1) <= (k-1) v_p(t)."""
    p, K = t.p, t.K
    if p == 2:
        raise ValueError("exp domain: p must be odd")
    if t.residue % p:
        raise ValueError("exp domain: argument must be 0 (mod p)")
    if t.residue == 0:
        return PadicInt(p, K, 1)
    m = p ** K
    vt = _int_val(t.residue, p)
    acc = 1
    k = 1
    fact_v = 0
    fact_unit = 1
    # same envelope as the log: v_p(k!) = (k - digitsum(k))/(p-1) <= (k-1)/(p-1)
    while k * vt * (p - 1) - (k - 1) < K * (p - 1):
        kv = 0
        ku = k
        while ku % p == 0:
            ku //= p
            kv += 1
        fact_v += kv
        fact_unit = fact_unit * ku % m
        term = pow(t.residue, k, m * p ** fact_v) // p ** fact_v
        acc = (acc + term * pow(fact_unit, -1, m)) % m
        k += 1
    return PadicInt(p, K, acc)


@dataclass(frozen=True)
class IntegrandSpec:
    """f(x) = q^{c x} [x+s]_q^m."""

    c: int
    m: int
    s: int = 0

    def __post_init__(self) -> None:
        if self.c < 0 or self.m < 0 or self.s < 0:
            raise ValueError("integrand exponents must be non-negative")


@dataclass(frozen=True)
class VolkenbornJob:
    """Level-N q-Volkenborn summation task at working precision K."""

    p: int
    q0: Fraction
    N: int
    K: int
    f: IntegrandSpec

    def __post_init__(self) -> None:
        if not _is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime")
        object.__setattr__(self, "q0", Fraction(self.q0))
        if self.q0.denominator % self.p == 0:
            raise ValueError("q0 must be a p-adic integer")
        if self.q0 != 1 and _frac_val(self.q0 - 1, self.p) < 1:
            raise ValueError("q0 must be 1 (mod p)")
        if self.N < 1:
            raise ValueError("level N must be positive")
        if self.K <= self.N:
            raise ValueError(
                f"precision underflow: K={self.K} leaves no certified digits; "
                f"need K >= {self.N + 1}")
        check_step_budget(self.p, self.N)


def _rat_mod(x: Fraction, p: int, K: int) -> int:
    m = p ** K
    return x.numerator * pow(x.denominator, -1, m) % m


def _bracket_run(r: int, count: int, m: int) -> int:
    """[count]_q mod m via [k+1] = q [k] + 1."""
    b = 0
    for _ in range(count):
        b = (b * r + 1) % m
    return b


def volkenborn_scaled(job: VolkenbornJob) -> tuple[int, PadicInt]:
    """(e, y): the level-N value equals y / p^e with y certified to K - N digits.

    e = 0 whenever the value is a p-adic integer; it is the smallest scaling
    that clears the valuation lost to the division by [p^N]_q.
    """
    p, N, K = job.p, job.N, job.K
    m = p ** K
    r = _rat_mod(job.q0, p, K)
    c, mm, s = job.f.c, job.f.m, job.f.s
    rc = pow(r, c, m)
    br = _bracket_run(r, s, m)
    qx = 1
    qcx = 1
    total = 0
    for _ in range(p ** N):
        total = (total + qcx * pow(br, mm, m) % m * qx) % m
        br = (br * r + 1) % m
        qx = qx * r % m
        qcx = qcx * rc % m
    bN = _bracket_run(r, p ** N, m)
    if _int_val(bN, p) != N:
        raise ValueError("denominator [p^N]_q does not have valuation N")
    unit = bN // p ** N
    v_total = K if total == 0 else _int_val(total, p)
    e = max(0, N - v_total)
    out = K - N
    mo = p ** out
    y = (total * p ** e // p ** N) * pow(unit % mo, -1, mo) % mo
    return e, PadicInt(p, out, y)


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


@dataclass(frozen=True)
class PadicReport:
    """Outcome of one finite-level p-adic check; values are rendered residues."""

    identity: str
    params: dict[str, object]
    labels: tuple[str, ...]
    values: tuple[str, ...]
    verdict: bool
    witness: tuple[str, str] | None
    detail: dict[str, object]


def _scaled_report(identity: str, params: dict[str, object], p: int,
                   lhs: int, rhs: int, out_prec: int, e: int,
                   window: int) -> PadicReport:
    """Compare two p^e-scaled residues at out_prec digits inside the
    convergence window; record the observed discrepancy valuation."""
    diff = (lhs - rhs) % p ** out_prec
    seen = out_prec if diff == 0 else _int_val(diff, p)
    verdict = seen >= window
    tag = f" / p^{e}" if e else ""
    values = (f"{lhs} mod {p}^{out_prec}{tag}", f"{rhs} mod {p}^{out_prec}{tag}")
    return PadicReport(
        identity, params, ("lhs", "rhs"), values, verdict,
        None if verdict else ("lhs", "rhs"),
        {"output_precision": out_prec, "scale": e,
         "compare_precision": window, "discrepancy_valuation": seen})


def _align(e_target: int, e: int, y: PadicInt) -> int:
    return y.residue * y.p ** (e_target - e) % y.modulus


def verify_eq3(job: VolkenbornJob, n_shift: int) -> PadicReport:
    """Shift identity for f = [x]^m at level N:

        q^n I(f_n) - I(f) = sum_{l<n} (m [l]^{m-1} q^{2l} + (q-1) [l]^m q^l)

    where f_n(x) = f(x+n) and the derivative factor (q-1)/log q collapses
    exactly on this family.  The left side is a finite-level approximation,
    so agreement is checked at the convergence window min(K-N, N+e) and the
    observed discrepancy valuation is reported.
    """
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
    out = K - N
    mo = p ** out
    qn = _rat_mod(q0 ** n_shift, p, out)
    lhs = (qn * _align(e, e_n, i_fn) - _align(e, e_f, i_f)) % mo
    rhs = Fraction(0)
    for l in range(n_shift):
        br = (1 - q0 ** l) / (1 - q0) if q0 != 1 else Fraction(l)
        if m:
            rhs += m * br ** (m - 1) * q0 ** (2 * l)
        rhs += (q0 - 1) * br ** m * q0 ** l
    rhs_scaled = _rat_mod(rhs * p ** e, p, out)
    window = min(out, N + e)
    return _scaled_report(
        "eq3", {"p": p, "q0": str(q0), "N": N, "K": K, "m": m, "shift": n_shift},
        p, lhs, rhs_scaled, out, e, window)


def verify_eq2_qexp(job: VolkenbornJob) -> PadicReport:
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
    window = min(out, N)
    return _scaled_report(
        "eq2-qexp", {"p": p, "q0": str(q0), "N": N, "K": K},
        p, lhs.reduce(out).residue, rhs.reduce(out).residue, out, 0, window)


def witt_check(n: int, h: int, k: int, x: int, job: VolkenbornJob) -> PadicReport:
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
    exact = rf_eval_rational(beta_hk(n, h, k, 1, QArg(x, 1)), q0)
    if k == 1:
        e, y = volkenborn_scaled(VolkenbornJob(p, q0, N, K, IntegrandSpec(h - 1, n, x)))
        out = K - N
    else:
        if K <= 2 * N:
            raise ValueError(
                f"precision underflow: k=2 needs K >= {2 * N + 1}, got {K}")
        m = p ** K
        r = _rat_mod(q0, p, K)
        side = p ** N
        branch = [0] * (x + 2 * side - 1)
        b = _bracket_run(r, x, m)
        for j in range(len(branch)):
            branch[j] = b
            b = (b * r + 1) % m
        r1 = pow(r, h, m)       # q^{(h-1) y1} q^{y1}
        r2 = pow(r, h - 1, m)   # q^{(h-2) y2} q^{y2}
        total = 0
        w1 = 1
        for y1 in range(side):
            w2 = 1
            row = 0
            for y2 in range(side):
                row = (row + pow(branch[y1 + y2], n, m) * w2) % m
                w2 = w2 * r2 % m
            total = (total + row * w1) % m
            w1 = w1 * r1 % m
        bN = _bracket_run(r, side, m)
        unit = (bN // p ** N) ** 2
        v_total = K if total == 0 else _int_val(total, p)
        e = max(0, 2 * N - v_total)
        out = K - 2 * N
        mo = p ** out
        y = PadicInt(p, out, (total * p ** e // p ** (2 * N))
                     * pow(unit % mo, -1, mo))
    ve = 0 if exact == 0 else _frac_val(exact, p)
    if -ve > e:
        # exact side is deeper in 1/p than the engine scale; align both
        y = PadicInt(p, out, y.residue * p ** (-ve - e))
        e = -ve
    rhs = _rat_mod(exact * p ** e, p, out)
    window = min(out, N + e)
    return _scaled_report(
        "witt", {"p": p, "q0": str(q0), "N": N, "K": K,
                 "n": n, "h": h, "k": k, "x": x},
        p, y.residue, rhs, out, e, window)
