"""Exact S3-symmetry checks for the q-Bernoulli multiple-sum identities.

Each checker evaluates one symmetric expression at all six permutations of
(w1, w2, w3) and reports whether the six values coincide in Q(q).

The evaluation strategy keeps every intermediate over a shared structural
denominator.  The three bases q^{w2*w3}, q^{w1*w3}, q^{w1*w2} form a
permutation-invariant multiset, and every beta factor appearing in the
theorems has denominator dividing

    D = prod over bases b of (1-q^b)^n * [2]_{q^b} * ... * [n+1]_{q^b},

so each permutation value is assembled as a plain polynomial numerator
against the same D.  Six-way equality is then literal numerator equality.

D is never expanded.  Every factor of it is a product of cyclotomic
polynomials, since q^m - 1 = prod_{d | m} Phi_d, so D is carried as the
sign (-1)^n and an exponent map {d: e_d}.  The canonical RatFunc of a
numerator comes from dividing out each Phi_d as often as it divides (at
most e_d times), not from a gcd against D: once per report when the
values agree, once per differing numerator when they do not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb
from random import Random

from .carlitz import beta_number, beta_poly
from .polyq import ONE, Poly, ZERO
from .qcore import QArg, cyclotomic_poly, multinomial, power_sum_T, q_int_poly
from .ratfunc import RF_ZERO, RatFunc

_Q_MINUS_1 = Poly([-1, 1])


@dataclass(frozen=True, order=True)
class IdentityParams:
    """Degree n plus the weight triple w and shift triple y."""

    n: int
    w: tuple[int, int, int]
    y: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("degree n must be non-negative")
        if len(self.w) != 3 or any(wi < 1 for wi in self.w):
            raise ValueError("w must be a triple of positive integers")
        if len(self.y) != 3 or any(yi < 0 for yi in self.y):
            raise ValueError("y must be a triple of non-negative integers")

    @property
    def w_product(self) -> int:
        return self.w[0] * self.w[1] * self.w[2]

    def as_dict(self) -> dict[str, object]:
        return {"n": self.n, "w": list(self.w), "y": list(self.y)}


@dataclass(frozen=True, order=True)
class Permutation3:
    """A permutation of {1,2,3}, stored as the image tuple (s(1),s(2),s(3))."""

    images: tuple[int, int, int]

    def __post_init__(self) -> None:
        if sorted(self.images) != [1, 2, 3]:
            raise ValueError("images must be an ordering of {1,2,3}")

    @property
    def label(self) -> str:
        return "".join(str(i) for i in self.images)

    def arrange(self, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        """Return (t_{s(1)}, t_{s(2)}, t_{s(3)})."""
        return (triple[self.images[0] - 1],
                triple[self.images[1] - 1],
                triple[self.images[2] - 1])


ALL_PERMUTATIONS = tuple(Permutation3(p) for p in permutations((1, 2, 3)))
IDENTITY_PERMUTATION = ALL_PERMUTATIONS[0]


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check at one parameter point.

    values[i] is the canonical RatFunc for labels[i]; verdict is true iff
    all values are identical; witness names the first differing pair.
    """

    identity: str
    params: dict[str, object]
    labels: tuple[str, ...]
    values: tuple[RatFunc, ...]
    verdict: bool
    witness: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# structural pieces shared by all permutations


@lru_cache(maxsize=None)
def _qfac_pow(b: int, k: int) -> Poly:
    return (ONE - Poly.q_power(b)) ** k


@lru_cache(maxsize=None)
def _bracket_pow(x: int, k: int) -> Poly:
    return q_int_poly(x, 1) ** k


@lru_cache(maxsize=None)
def _master_den_exponents(n: int, bases: tuple[int, int, int]) -> tuple[tuple[int, int], ...]:
    """D = prod over the base multiset of (1-q^b)^n [2]_{q^b} ... [n+1]_{q^b}
    as sorted pairs (d, e_d) with D = (-1)^n prod Phi_d^{e_d}.

    (1-q^b)^n = (-1)^n prod_{d | b} Phi_d^n, and [t]_{q^b} = prod Phi_d over
    d | bt with d not dividing b; the three bases give the sign (-1)^{3n}.
    """
    exps: Counter[int] = Counter()
    for b in bases:
        for d in range(1, b + 1):
            if b % d == 0:
                exps[d] += n
        for t in range(2, n + 2):
            for d in range(1, b * t + 1):
                if (b * t) % d == 0 and b % d:
                    exps[d] += 1
    return tuple((d, e) for d, e in sorted(exps.items()) if e)


def _over_master(num: Poly, n: int, bases: tuple[int, int, int]) -> RatFunc:
    """The canonical RatFunc num / D, by trial division with the Phi_d of D.

    Phi_d are distinct monic irreducibles, so dividing out each one while
    it divides num (at most e_d times) leaves a coprime pair with a monic
    denominator: the unique canonical form RatFunc(num, D) would give.
    """
    if not num:
        return RF_ZERO
    if n % 2:
        num = -num
    den = ONE
    for d, e in _master_den_exponents(n, bases):
        phi = cyclotomic_poly(d)
        num, k = num.divide_out(phi, d, e)
        if k < e:
            den = den * phi ** (e - k)
    return RatFunc._raw(num, den)


@lru_cache(maxsize=None)
def _beta_struct_num(deg: int, h: int, d: int, e: int) -> Poly:
    """Numerator of beta^{(h)}_{deg, q^d} at argument q^e over the structural
    denominator (1-q^d)^deg * [h]_{q^d} * ... * [h+deg]_{q^d}."""
    bricks = [q_int_poly(t, d) for t in range(h, h + deg + 1)]
    pre = [ONE]
    for brick in bricks:
        pre.append(pre[-1] * brick)
    suf = [ONE] * (deg + 2)
    for j in range(deg, -1, -1):
        suf[j] = suf[j + 1] * bricks[j]
    acc = ZERO
    for j in range(deg + 1):
        co = comb(deg, j) * (j + h)
        if j % 2:
            co = -co
        acc = acc + (pre[j] * suf[j + 1] * co).shift(j * e)
    return acc


@lru_cache(maxsize=None)
def _slot_cofactor(n: int, b: int, deg: int, h: int) -> Poly:
    """Master slot (1-q^b)^n [2]..[n+1] divided by the structural denominator
    of a beta factor with degree deg and order h in base q^b."""
    if h < 1 or h + deg > n + 1:
        raise ValueError("beta factor denominator exceeds the master slot")
    out = _qfac_pow(b, n - deg)
    for t in range(2, n + 2):
        if not h <= t <= h + deg:
            out = out * q_int_poly(t, b)
    return out


def _lattice(n: int):
    """(k, l, m) with k+l+m = n, in lexicographic order."""
    for k in range(n + 1):
        for l in range(n - k + 1):
            yield k, l, n - k - l


def _sigma_bases(w: tuple[int, int, int],
                 sigma: Permutation3) -> tuple[tuple[int, int, int], int]:
    s1, s2, s3 = sigma.arrange(w)
    return (s2 * s3, s1 * s3, s1 * s2), s3


def _sorted_bases(w: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(sorted((w[1] * w[2], w[0] * w[2], w[0] * w[1])))


# ---------------------------------------------------------------------------
# permutation-independent term factors, cached per (n, bases, lattice point)


@lru_cache(maxsize=None)
def _thm1_fixed(n: int, b1: int, b2: int, b3: int, k: int, l: int, m: int) -> Poly:
    out = _slot_cofactor(n, b1, k, l + m + 1)
    out = out * _slot_cofactor(n, b2, l, m + 1)
    out = out * _slot_cofactor(n, b3, m, 1)
    return out * _bracket_pow(b1, k) * _bracket_pow(b2, l) * _bracket_pow(b3, m)


@lru_cache(maxsize=None)
def _thm3_fixed(n: int, b1: int, b2: int, b3: int, w3s: int,
                k: int, l: int, m: int, part: int) -> Poly:
    if part == 1:
        h1, h2, tdeg = l + m + 2, m + 2, 2
    else:
        h1, h2, tdeg = l + m + 1, m + 1, 1
    out = _slot_cofactor(n, b1, k, h1)
    out = out * _slot_cofactor(n, b2, l, h2)
    out = out * _slot_cofactor(n, b3, 0, 1)
    out = out * _bracket_pow(b1, k) * _bracket_pow(b2, l) * _bracket_pow(b3, m + 1)
    return out * power_sum_T(tdeg, m, w3s - 1, b3).num


@lru_cache(maxsize=None)
def _thm4_fixed(n: int, b1: int, b2: int, b3: int, k: int, part: int) -> Poly:
    if part == 1:
        inner_deg, inner_h = n - 1 - k, 2
    else:
        inner_deg, inner_h = n - k, 1
    out = _slot_cofactor(n, b1, k, n - k + 1)
    out = out * _slot_cofactor(n, b2, inner_deg, inner_h)
    out = out * _slot_cofactor(n, b3, 0, 1)
    return out * _bracket_pow(b1, k) * _bracket_pow(b2, inner_deg) * _bracket_pow(b3, 1)


@lru_cache(maxsize=None)
def _shifted_beta_sum(deg: int, h: int, d: int, e0: int, step: int, count: int) -> Poly:
    """sum_{i<count} q^{h*step*i} * numerator of beta^{(h)}_{deg, q^d}(q^{e0+step*i}),
    all terms sharing one structural denominator since it does not involve e."""
    acc = ZERO
    for i in range(count):
        acc = acc + _beta_struct_num(deg, h, d, e0 + step * i).shift(h * step * i)
    return acc


# ---------------------------------------------------------------------------
# per-permutation numerators against the master denominator


def _thm1_num(n: int, W: int, y: tuple[int, int, int],
              bases: tuple[int, int, int]) -> Poly:
    b1, b2, b3 = bases
    e1, e2, e3 = W * y[0], W * y[1], W * y[2]
    acc = ZERO
    for k, l, m in _lattice(n):
        t = _beta_struct_num(k, l + m + 1, b1, e1)
        t = t * _beta_struct_num(l, m + 1, b2, e2)
        t = t * _beta_struct_num(m, 1, b3, e3)
        t = t * multinomial(n, k, l, m)
        t = t * _thm1_fixed(n, b1, b2, b3, k, l, m)
        acc = acc + t.shift(W * ((l + m) * y[0] + m * y[1]))
    return acc


def _thm3_num(n: int, W: int, y: tuple[int, int, int],
              bases: tuple[int, int, int], w3s: int) -> Poly:
    b1, b2, b3 = bases
    e1, e2 = W * y[0], W * y[1]
    part1 = ZERO
    for k, l, m in _lattice(n - 1):
        t = _beta_struct_num(k, l + m + 2, b1, e1)
        t = t * _beta_struct_num(l, m + 2, b2, e2)
        t = t * (n * multinomial(n - 1, k, l, m))
        t = t * _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, 1)
        part1 = part1 + t.shift(W * ((l + m + 1) * y[0] + (m + 1) * y[1]))
    part2 = ZERO
    for k, l, m in _lattice(n):
        t = _beta_struct_num(k, l + m + 1, b1, e1)
        t = t * _beta_struct_num(l, m + 1, b2, e2)
        t = t * multinomial(n, k, l, m)
        t = t * _thm3_fixed(n, b1, b2, b3, w3s, k, l, m, 2)
        part2 = part2 + t.shift(W * ((l + m) * y[0] + m * y[1]))
    return part1 + part2 * _Q_MINUS_1


def _thm4_num(n: int, W: int, y: tuple[int, int, int],
              bases: tuple[int, int, int], w3s: int) -> Poly:
    b1, b2, b3 = bases
    e1, e0 = W * y[0], W * y[1]
    part1 = ZERO
    for k in range(n):
        t = _beta_struct_num(k, n - k + 1, b1, e1)
        t = t * _shifted_beta_sum(n - 1 - k, 2, b2, e0, b3, w3s)
        t = t * (n * comb(n - 1, k))
        t = t * _thm4_fixed(n, b1, b2, b3, k, 1)
        part1 = part1 + t.shift(W * ((n - k) * y[0] + y[1]))
    part2 = ZERO
    for k in range(n + 1):
        t = _beta_struct_num(k, n - k + 1, b1, e1)
        t = t * _shifted_beta_sum(n - k, 1, b2, e0, b3, w3s)
        t = t * comb(n, k)
        t = t * _thm4_fixed(n, b1, b2, b3, k, 2)
        part2 = part2 + t.shift(W * (n - k) * y[0])
    return part1 + part2 * _Q_MINUS_1


# ---------------------------------------------------------------------------
# reports


def _report_from_nums(identity: str, params: IdentityParams,
                      labels: tuple[str, ...], nums: list[Poly]) -> IdentityReport:
    """Verdict and canonical values for numerators over the master D.

    Equal numerators share one reduction; each differing one is reduced
    on its own, so a failing report still carries exact values.
    """
    bases = _sorted_bases(params.w)
    verdict = all(num == nums[0] for num in nums[1:])
    base = _over_master(nums[0], params.n, bases)
    values: list[RatFunc] = []
    witness: tuple[str, str] | None = None
    for j, num in enumerate(nums):
        if num == nums[0]:
            values.append(base)
        else:
            values.append(_over_master(num, params.n, bases))
            if witness is None:
                witness = (labels[0], labels[j])
    return IdentityReport(identity, params.as_dict(), labels, tuple(values),
                          verdict, witness)


def _check(identity: str, params: IdentityParams, num_fn) -> IdentityReport:
    W = params.w_product
    labels = []
    nums = []
    for sigma in ALL_PERMUTATIONS:
        bases, w3s = _sigma_bases(params.w, sigma)
        labels.append(sigma.label)
        nums.append(num_fn(params.n, W, params.y, bases, w3s))
    return _report_from_nums(identity, params, tuple(labels), nums)


def thm1_expr(params: IdentityParams, sigma: Permutation3) -> RatFunc:
    """One permutation's value of the triple product-sum identity."""
    bases, _ = _sigma_bases(params.w, sigma)
    num = _thm1_num(params.n, params.w_product, params.y, bases)
    return _over_master(num, params.n, _sorted_bases(params.w))


def thm1_check(params: IdentityParams) -> IdentityReport:
    return _check("thm1", params, lambda n, W, y, bases, w3s: _thm1_num(n, W, y, bases))


def thm3_expr(params: IdentityParams, sigma: Permutation3) -> RatFunc:
    """One permutation's value of the two-part sum with T-factors."""
    if params.n < 1:
        raise ValueError("Theorem 3 requires positive n")
    bases, w3s = _sigma_bases(params.w, sigma)
    num = _thm3_num(params.n, params.w_product, params.y, bases, w3s)
    return _over_master(num, params.n, _sorted_bases(params.w))


def thm3_check(params: IdentityParams) -> IdentityReport:
    if params.n < 1:
        raise ValueError("Theorem 3 requires positive n")
    return _check("thm3", params, _thm3_num)


def thm4_expr(params: IdentityParams, sigma: Permutation3) -> RatFunc:
    """One permutation's value of the binomial sum with inner w3-fold sums."""
    if params.n < 1:
        raise ValueError("Theorem 4 requires positive n")
    bases, w3s = _sigma_bases(params.w, sigma)
    num = _thm4_num(params.n, params.w_product, params.y, bases, w3s)
    return _over_master(num, params.n, _sorted_bases(params.w))


def thm4_check(params: IdentityParams) -> IdentityReport:
    if params.n < 1:
        raise ValueError("Theorem 4 requires positive n")
    return _check("thm4", params, _thm4_num)


def cross34_check(params: IdentityParams) -> IdentityReport:
    """Twelve-way check: both theorem expressions, all six permutations.

    The two theorems expand the same integral coefficient, so all twelve
    values must agree; a shared master denominator makes this one
    numerator comparison.
    """
    if params.n < 1:
        raise ValueError("cross-theorem check requires positive n")
    W = params.w_product
    labels = []
    nums = []
    for name, num_fn in (("thm3", _thm3_num), ("thm4", _thm4_num)):
        for sigma in ALL_PERMUTATIONS:
            bases, w3s = _sigma_bases(params.w, sigma)
            labels.append(f"{name}:{sigma.label}")
            nums.append(num_fn(params.n, W, params.y, bases, w3s))
    return _report_from_nums("cross34", params, tuple(labels), nums)


def lemma2_coeff_check(n: int, d: int, w3: int) -> IdentityReport:
    """Coefficient identity with Q = q^d:

        Q^{w3} beta_{n,Q}(w3) - beta_{n,Q}
            = n T_{2,n-1}(w3-1 | Q) + (Q-1) T_{1,n}(w3-1 | Q).

    For n = 0 the first right-hand term is absent and the identity
    degenerates to the geometric sum Q^{w3} - 1 = (Q-1) T_{1,0}(w3-1 | Q).
    """
    if n < 0:
        raise ValueError("degree n must be non-negative")
    if d < 1 or w3 < 1:
        raise ValueError("d and w3 must be positive")
    q_pow = RatFunc(Poly.q_power(d * w3))
    lhs = q_pow * beta_poly(n, d, QArg(d * w3, d)) - beta_number(n, d)
    rhs = (Poly.q_power(d) - ONE) * power_sum_T(1, n, w3 - 1, d)
    if n >= 1:
        rhs = rhs + power_sum_T(2, n - 1, w3 - 1, d) * n
    verdict = lhs == rhs
    return IdentityReport(
        "lemma2", {"n": n, "d": d, "w3": w3}, ("lhs", "rhs"), (lhs, rhs),
        verdict, None if verdict else ("lhs", "rhs"))


# ---------------------------------------------------------------------------
# grid enumeration and deterministic sampling

_SAMPLE_SEED = 20140919


def grid_params(n_values, w_max: int, y_max: int, vary_y3: bool = True) -> list[IdentityParams]:
    """All parameter tuples over the given bounds, in lexicographic order.

    With vary_y3 false, y3 stays 0: the checkers that ignore y3 would
    otherwise re-verify identical expressions.
    """
    ws = range(1, w_max + 1)
    ys = range(y_max + 1)
    y3s = ys if vary_y3 else (0,)
    return [IdentityParams(n, (w1, w2, w3), (y1, y2, y3))
            for n in n_values
            for w1 in ws for w2 in ws for w3 in ws
            for y1 in ys for y2 in ys for y3 in y3s]


def sample_grid(grid: list[IdentityParams], limit: int) -> list[IdentityParams]:
    """Deterministic sample of at most limit points, returned in grid order."""
    if limit >= len(grid):
        return list(grid)
    picks = Random(_SAMPLE_SEED).sample(range(len(grid)), limit)
    return [grid[i] for i in sorted(picks)]
