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

The numerators are assembled packed.  Evaluation at q = 2^B is a ring
homomorphism Z[q] -> Z, so each permutation's numerator is one integer,
built from closed forms of its factors at X = 2^B:

    [t]_{q^b}      = (X^{bt} - 1) // (X^b - 1),
    (1 - q^b)^k    = (1 - X^b)^k,
    q^s            = a shift by B*s bits, and (q - 1) x = (x << B) - x.

The only polynomials are the small power sums T_{t,m}(w|q^b), which
`power_sum_T` caches across checks and which are packed at B.

Each beta factor is taken together with its slot of D, the base-b part
(1-q^b)^n [2]_{q^b} ... [n+1]_{q^b}, and that product is a polynomial:

    sum_j (-1)^j C(deg, j) (j+h) q^{je} (1-q^b)^{n-deg} P_b / [h+j]_{q^b},

P_b = [2]_{q^b} ... [n+1]_{q^b}.  Theorem 4's inner sum over i < w3 of
q^{h step i} beta(q^{e + step i}) only multiplies term j by
[w3]_{q^{(h+j) step}}.  The factor of the first slot depends on k alone and
that of the second on (l, m), so the lattice sum is nested: each
permutation makes O(n) full-width products, and O(n^2) products of two
one-slot factors.

All permutations (twelve for cross34) share one width B, the least multiple
of 8 bits holding a bound on every numerator coefficient plus a sign bit,
so equal integers are equal numerators.  The bound is the same nested sum
over L1 bounds of the factors (`_Norms`): [b]_q^k and T have non-negative
coefficients, so their norms are their values at q = 1, and (q - 1) counts
2.  A slot value's norm is read once from its unpacked value at a width
that holds its closed-form bound: the slot cofactor (1-q^b)^{n-deg} times
r <= n - deg q-integers is +-(1-q^b)^{n-deg-r} prod (1-q^{bt}), so at most
2^{n-deg}, and the beta numerator is at most 2^deg [h]...[h+deg] at q = 1.
The closed forms alone would widen B, because the alternating beta sum and
the products of (1 - q^{bt}) cancel: at w = (3, 3, 2), y = (1, 1, 0) thm1
needs 40, 64 and 96 bits at n = 4, 8 and 12 from the read norms, against
48, 88 and 136 from the closed forms.

Each distinct numerator is reduced packed, by dividing Phi_d(2^B) out of
the integer, and unpacked once: the library's one cyclotomic reducer
(`qcore.over_cyclotomic_packed`), called at the checkers' own width B.
The reduced numerator can need more than B bits, so the result is
certified rather than proved to fit: at the thm1 point above with n = 8 the reduced numerator has 64-bit
coefficients while 64 bits hold the unreduced one (102 against 96 at
n = 12), and trusting the width there gives a wrong quotient.  A failed
certificate reruns the reduction at twice the width.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, prod
from random import Random

from .carlitz import beta_number, beta_poly
from .polyq import ONE, Poly, balanced_bits
from .qcore import (QArg, over_cyclotomic_packed, power_sum_T, q_int_exponents,
                    q_power_minus_one_exponents)
from .ratfunc import RatFunc

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
# the master denominator


@lru_cache(maxsize=None)
def _master_den_exponents(n: int, bases: tuple[int, int, int]) -> tuple[tuple[int, int], ...]:
    """D = prod over the base multiset of (1-q^b)^n [2]_{q^b} ... [n+1]_{q^b}
    as sorted pairs (d, e_d) with D = (-1)^n prod Phi_d^{e_d}.

    (1-q^b)^n = (-1)^n (q^b - 1)^n; the three bases give the sign (-1)^{3n}.
    """
    exps: Counter[int] = Counter()
    for b in bases:
        exps.update(q_power_minus_one_exponents(b, n))
        for t in range(2, n + 2):
            exps.update(q_int_exponents(t, b))
    return tuple(sorted(exps.items()))


def _over_master(num: int, bits: int, n: int, bases: tuple[int, int, int]) -> RatFunc:
    """The canonical RatFunc of the numerator packed as num at width bits, over D."""
    return over_cyclotomic_packed(-num if n % 2 else num, bits,
                                  dict(_master_den_exponents(n, bases)))[0]


def _sigma_bases(w: tuple[int, int, int],
                 sigma: Permutation3) -> tuple[tuple[int, int, int], int]:
    s1, s2, s3 = sigma.arrange(w)
    return (s2 * s3, s1 * s3, s1 * s2), s3


def _sorted_bases(w: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(sorted((w[1] * w[2], w[0] * w[2], w[0] * w[1])))


# ---------------------------------------------------------------------------
# term factors, as values at q = 2^bits and as L1 bounds
#
# The numerator builders below take an evaluator: `_Packed` gives each
# factor's value at q = 2^bits, `_Norms` a bound on its L1 norm.  The
# builders combine factors with + and * and non-negative integer
# coefficients only, so run on `_Norms` they bound the numerator they
# assemble on `_Packed`.


def _q_int_at(t: int, s: int) -> int:
    """[t]_{q^b} at q = 2^bits, for s = bits * b: (2^{st} - 1) // (2^s - 1)."""
    return ((1 << s * t) - 1) // ((1 << s) - 1)


class _Packed:
    """The term factors of one degree n at q = 2^bits, memoized per instance."""

    def __init__(self, n: int, bits: int) -> None:
        self.n = n
        self.bits = bits
        self._slots: dict[tuple[int, ...], int] = {}

    def bracket(self, b: int, k: int) -> int:
        """[b]_q^k."""
        return _q_int_at(b, self.bits) ** k

    def shift(self, x: int, s: int) -> int:
        """x q^s."""
        return x << self.bits * s

    def times_q_minus_1(self, x: int) -> int:
        return (x << self.bits) - x

    def tsum(self, tdeg: int, m: int, w: int, b: int) -> int:
        """T_{tdeg,m}(w | q^b), the small polynomial `power_sum_T` caches.

        Its coefficients fit the width, since the bound behind bits holds
        ||T||_1 times the norms of the other factors of a term, and those
        are nonzero: a slot value has constant term h when e > 0, and the
        tests find none that vanishes at e = 0.  A zero one would make
        `pack` raise, not give a wrong value.
        """
        return power_sum_T(tdeg, m, w, b).num.pack(self.bits)

    def slot(self, b: int, deg: int, h: int, e: int, step: int = 0, count: int = 1) -> int:
        """sum_{i<count} q^{h step i} beta^{(h)}_{deg, q^b}(q^{e + step i}) times
        the master slot (1-q^b)^n [2]_{q^b} ... [n+1]_{q^b}: a polynomial."""
        key = (b, deg, h, e, step, count)
        value = self._slots.get(key)
        if value is None:
            value = self._slots[key] = self._slot(*key)
        return value

    def _slot(self, b: int, deg: int, h: int, e: int, step: int, count: int) -> int:
        # beta^{(h)}_{deg} is sum_j (-1)^j C(deg, j) (j+h) q^{je} / [h+j]
        # over (1-q^b)^deg; in the slot, [h+j] divides [1] [2] ... [n+1]
        n = self.n
        if h < 1 or h + deg > n + 1:
            raise ValueError("beta factor denominator exceeds the master slot")
        cof = _cofactors(n, b, self.bits)
        acc = 0
        for j in range(deg + 1):
            t = h + j
            term = comb(deg, j) * t * cof[t]
            if count > 1:
                # the count shifts q^{(h+j) step i} sum to [count]_{q^{(h+j) step}}
                term *= _q_int_at(count, self.bits * t * step)
            term = self.shift(term, j * e)
            acc = acc - term if j & 1 else acc + term
        return acc * (1 - (1 << self.bits * b)) ** (n - deg)


@lru_cache(maxsize=256)
def _cofactors(n: int, b: int, bits: int) -> tuple[int, ...]:
    """P_b / [t]_{q^b} at q = 2^bits for t = 0..n+1, P_b = [2]_{q^b} ... [n+1]_{q^b}
    (t = 0 unused); shared by every check of degree n at this width."""
    full = prod(_q_int_at(t, bits * b) for t in range(2, n + 2))
    return (full, full) + tuple(full // _q_int_at(t, bits * b) for t in range(2, n + 2))


def _slot_bound(n: int, deg: int, h: int, count: int) -> int:
    """Closed-form bound on the L1 norm of `_Packed.slot`.

    The slot cofactor (1-q^b)^{n-deg} prod [t]_{q^b} has r <= n - deg
    q-integers, so it is +-(1-q^b)^{n-deg-r} prod (1-q^{bt}): norm at most
    2^{n-deg}.  The beta numerator is at most 2^deg [h]...[h+deg] at q = 1.
    """
    return (1 << (n - deg)) * (1 << deg) * prod(range(h, h + deg + 1)) * count


@lru_cache(maxsize=None)
def _slot_norm(n: int, b: int, deg: int, h: int, e: int, step: int, count: int) -> int:
    """The L1 norm of `_Packed.slot`, read from its value at a width that
    holds the closed-form bound."""
    bits = balanced_bits(_slot_bound(n, deg, h, count))
    return Poly.unpack(_Packed(n, bits).slot(b, deg, h, e, step, count), bits).l1_norm()


class _Norms:
    """L1 bounds of the factors `_Packed` evaluates."""

    def __init__(self, n: int) -> None:
        self.n = n

    def bracket(self, b: int, k: int) -> int:
        return b ** k

    def shift(self, x: int, s: int) -> int:
        return x

    def times_q_minus_1(self, x: int) -> int:
        return 2 * x

    def tsum(self, tdeg: int, m: int, w: int, b: int) -> int:
        # non-negative coefficients: the value at q = 1
        return sum(i ** m for i in range(w + 1))

    def slot(self, b: int, deg: int, h: int, e: int, step: int = 0, count: int = 1) -> int:
        return _slot_norm(self.n, b, deg, h, e, step, count)


# ---------------------------------------------------------------------------
# per-permutation numerators against the master denominator
#
# Each theorem's term is a product of one factor per slot, and the factor of
# slot 1 depends only on k, so the lattice sum is nested: for each k one
# full-width product of slot 1 with the inner sum over slots 2 and 3.


# e_i = W y_i is both the argument exponent of slot i's beta factor and the
# step of its q-shift.


def _outer(ev, b1: int, e1: int, inner) -> int:
    """sum_k C(n, k) q^{e1 (n-k)} [b1]^k slot(b1, k, n-k+1, e1) inner(n - k)."""
    n = ev.n
    return sum(comb(n, k) * ev.shift(ev.slot(b1, k, n - k + 1, e1) * ev.bracket(b1, k)
                                     * inner(n - k), e1 * (n - k))
               for k in range(n + 1))


def _inner(ev, b2: int, e2: int, j: int, h: int, tail: list[int]) -> int:
    """sum_{l+m=j} C(j, l) q^{e2 (m+h-1)} [b2]^l slot(b2, l, m+h, e2) tail[m]."""
    return sum(comb(j, l) * ev.shift(ev.slot(b2, l, j - l + h, e2) * ev.bracket(b2, l)
                                     * tail[j - l], e2 * (j - l + h - 1))
               for l in range(j + 1))


def _thm1_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              _w3s: int) -> int:
    b1, b2, b3 = bases
    tail = [ev.slot(b3, m, 1, W * y[2]) * ev.bracket(b3, m) for m in range(ev.n + 1)]
    return _outer(ev, b1, W * y[0], lambda j: _inner(ev, b2, W * y[1], j, 1, tail))


def _thm3_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              w3s: int) -> int:
    # part1 + (q - 1) part2; n C(n-1, k) = (n-k) C(n, k) puts part1 under C(n, k)
    b1, b2, b3 = bases
    tails = [[ev.bracket(b3, m) * ev.tsum(tdeg, m, w3s - 1, b3) for m in range(ev.n + 1)]
             for tdeg in (1, 2)]

    def inner(j: int) -> int:
        out = ev.times_q_minus_1(_inner(ev, b2, W * y[1], j, 1, tails[0]))
        if j:
            out += j * _inner(ev, b2, W * y[1], j - 1, 2, tails[1])
        return out

    outer = _outer(ev, b1, W * y[0], inner)
    return outer * ev.slot(b3, 0, 1, 0) * ev.bracket(b3, 1)


def _thm4_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              w3s: int) -> int:
    b1, b2, b3 = bases
    e0 = W * y[1]

    def inner(j: int) -> int:
        out = ev.times_q_minus_1(ev.slot(b2, j, 1, e0, b3, w3s) * ev.bracket(b2, j))
        if j:
            out += j * ev.shift(ev.slot(b2, j - 1, 2, e0, b3, w3s) * ev.bracket(b2, j - 1), e0)
        return out

    outer = _outer(ev, b1, W * y[0], inner)
    return outer * ev.slot(b3, 0, 1, 0) * ev.bracket(b3, 1)


def _packed_nums(n: int, nums: list[tuple]) -> tuple[list[int], int]:
    """Each numerator (num_fn, W, y, bases, w3s) at q = 2^bits, for one width
    bits that holds every coefficient of every numerator, so equal values
    are equal numerators.

    The bases determine w3s, so permutations with equal bases (w with a
    repeated weight) have equal numerators, assembled once.
    """
    norms = _Norms(n)
    distinct = dict.fromkeys(nums)
    bits = balanced_bits(max(fn(norms, *args) for fn, *args in distinct))
    ev = _Packed(n, bits)
    for num in distinct:
        distinct[num] = num[0](ev, *num[1:])
    return [distinct[num] for num in nums], bits


# ---------------------------------------------------------------------------
# reports


def _report_from_nums(identity: str, params: IdentityParams, labels: tuple[str, ...],
                      nums: list[int], bits: int) -> IdentityReport:
    """Verdict and canonical values for packed numerators over the master D.

    The verdict compares integers.  Each distinct value is reduced once, so
    a failing report still carries exact values.
    """
    bases = _sorted_bases(params.w)
    reduced: dict[int, RatFunc] = {}
    witness: tuple[str, str] | None = None
    for j, num in enumerate(nums):
        if num not in reduced:
            reduced[num] = _over_master(num, bits, params.n, bases)
        if witness is None and num != nums[0]:
            witness = (labels[0], labels[j])
    return IdentityReport(identity, params.as_dict(), labels,
                          tuple(reduced[num] for num in nums), witness is None, witness)


# name: (least n, the message refusing a smaller n, whether the values
# read y3 (Theorems 3 and 4 read only y1 and y2), and one (label prefix,
# numerator builder) pair per expression)
CHECKS = {
    "thm1": (0, None, True, (("", _thm1_num),)),
    "thm3": (1, "Theorem 3 requires positive n", False, (("", _thm3_num),)),
    "thm4": (1, "Theorem 4 requires positive n", False, (("", _thm4_num),)),
    "cross34": (1, "cross-theorem check requires positive n", False,
                (("thm3:", _thm3_num), ("thm4:", _thm4_num))),
}


def _parts(identity: str, params: IdentityParams) -> tuple:
    least_n, refusal, _, parts = CHECKS[identity]
    if params.n < least_n:
        raise ValueError(refusal)
    return parts


def _check(identity: str, params: IdentityParams) -> IdentityReport:
    W = params.w_product
    labels = []
    nums = []
    for prefix, num_fn in _parts(identity, params):
        for sigma in ALL_PERMUTATIONS:
            bases, w3s = _sigma_bases(params.w, sigma)
            labels.append(prefix + sigma.label)
            nums.append((num_fn, W, params.y, bases, w3s))
    return _report_from_nums(identity, params, tuple(labels),
                             *_packed_nums(params.n, nums))


def _expr(identity: str, params: IdentityParams, sigma: Permutation3) -> RatFunc:
    [(_, num_fn)] = _parts(identity, params)
    bases, w3s = _sigma_bases(params.w, sigma)
    [num], bits = _packed_nums(params.n, [(num_fn, params.w_product, params.y, bases, w3s)])
    return _over_master(num, bits, params.n, _sorted_bases(params.w))


def thm1_expr(params: IdentityParams, sigma: Permutation3) -> RatFunc:
    """One permutation's value of the triple product-sum identity."""
    return _expr("thm1", params, sigma)


def thm1_check(params: IdentityParams) -> IdentityReport:
    return _check("thm1", params)


def thm3_expr(params: IdentityParams, sigma: Permutation3) -> RatFunc:
    """One permutation's value of the two-part sum with T-factors."""
    return _expr("thm3", params, sigma)


def thm3_check(params: IdentityParams) -> IdentityReport:
    return _check("thm3", params)


def thm4_expr(params: IdentityParams, sigma: Permutation3) -> RatFunc:
    """One permutation's value of the binomial sum with inner w3-fold sums."""
    return _expr("thm4", params, sigma)


def thm4_check(params: IdentityParams) -> IdentityReport:
    return _check("thm4", params)


def cross34_check(params: IdentityParams) -> IdentityReport:
    """Twelve-way check: both theorem expressions, all six permutations.

    The two theorems expand the same integral coefficient, so all twelve
    values must agree; a shared master denominator makes this one
    numerator comparison.
    """
    return _check("cross34", params)


def lemma2_coeff_check(n: int, d: int, w3: int) -> IdentityReport:
    """Coefficient identity with Q = q^d:

        Q^{w3} beta_{n,Q}(w3) - beta_{n,Q}
            = n T_{2,n-1}(w3-1 | Q) + (Q-1) T_{1,n}(w3-1 | Q).

    For n = 0 the first right-hand term is absent and the identity
    degenerates to the geometric sum Q^{w3} - 1 = (Q-1) T_{1,0}(w3-1 | Q).

    Both sides go through `RatFunc` arithmetic, and so `Poly.gcd`, on
    purpose: the criterion-9 gate patches `identities.beta_number` and
    needs lemma2 to fail through it, and `carlitz.beta_poly_expansion` must
    stay an oracle that shares no code with the closed form.
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

    With vary_y3 false, y3 stays 0: the checks whose `CHECKS` entry does not
    read y3 would otherwise re-verify identical expressions.
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
