"""Exact S3-symmetry checks for the q-Bernoulli multiple-sum identities.

Each checker evaluates one symmetric expression at all six permutations of
(w1, w2, w3) and reports whether the six values coincide in Q(q).

The evaluation strategy keeps every intermediate over a shared structural
denominator.  The three bases q^{w2*w3}, q^{w1*w3}, q^{w1*w2} form a
permutation-invariant multiset.  Every beta factor of the theorems in base
q^b and degree deg has denominator dividing
(1-q^b)^deg [2]_{q^b} ... [n+1]_{q^b}, and every theorem multiplies it by
[b]_q^deg, so with (1-q^b) = (1-q) [b]_q the product has denominator
dividing (1-q)^deg [2]_{q^b} ... [n+1]_{q^b}.  A term has one such factor
per base, and the degrees of its beta factors sum to at most n.  So each
permutation value is assembled as a plain polynomial numerator against
the same

    D = (1-q)^n * prod over bases b of [2]_{q^b} * ... * [n+1]_{q^b}.

Six-way equality is then literal numerator equality.  Over a larger
common denominator every numerator would carry a factor that depends on n
and the multiset of bases alone, and which the reducer would only divide
back out: (1-q)^{2n} over (1-q)^{3n} prod_b [2]_{q^b} ... [n+1]_{q^b}, and
(1-q)^{2n} prod_b [b]_q^n over prod_b (1-q^b)^n [2]_{q^b} ... [n+1]_{q^b}.

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
    q^s            = a shift by B*s bits, and a - b is integer subtraction.

The only polynomials are the small power sums T_{t,m}(w|q^b), which
`power_sum_T` caches across checks and which are packed at B.

Each beta factor is taken together with its bracket [b]_q^deg and with
(1-q)^deg P_b, P_b = [2]_{q^b} ... [n+1]_{q^b}, and that product is a
polynomial with no (1-q) left in it:

    sum_j (-1)^j C(deg, j) (j+h) q^{je} P_b / [h+j]_{q^b}.

A Theorem 1 term has beta factors of degree k + l + m = n, so it lacks no
(1-q) against D's (1-q)^n.  Theorems 3 and 4 read P1 + (q - 1) P2, whose
terms carry (1-q)^n (P2; a Theorem 3 tail as (1 - q^{b3})^m) and, under
n C(n-1, k) = j C(n, k), (1-q)^{n-1} (P1, which takes the one it lacks as
-(q - 1)).  So both build (q - 1)(part1(j) - j part2(j - 1)) for each outer
index j = n - k, part1 from P2 and part2 from P1, times P_{b3} [b3]_q.
Theorem 4's inner sum over i < w3 of q^{h step i} beta(q^{e + step i})
only multiplies term j by [w3]_{q^{(h+j) step}}.  The factor of the first
slot depends on k alone and that of the second on (l, m), so the lattice
sum is nested: each permutation makes O(n) full-width products, and O(n^2)
products of two one-slot factors.

All permutations (twelve for cross34) share one width B, the least multiple
of 8 bits holding a bound on every numerator coefficient plus a sign bit,
so equal integers are equal numerators.  The bound is the same nested sum
over L1 bounds of the factors (`_Norms`): [b]_q and T have non-negative
coefficients, so their norms are their values at q = 1, a - b counts as
a + b, so (q - 1) counts 2 and (1 - q^{b3})^m counts 2^m, and a slot
value has the closed-form bound 2^deg (n+1)! count (`_slot_bound`).  Of a
numerator's arguments `_Norms` so reads only n, b3 and w3s (a slot's bound
ignores its base and shift, a shift is the identity, [b]_q is only taken
of b3 and T only of w3s - 1), so the bound is computed once per norm key
(builder, n, b3, w3s) and cached across checks (`_norm_bound`), not run
again for every permutation.  The slot bound ignores the cancellation in
the alternating beta sum: at w = (3, 3, 2), y = (1, 1, 0) thm1 packs at
40, 80, 136 and 192 bits at n = 4, 8, 12 and 16, where the slots' actual
norms would give 32, 64 and 104 (n <= 12), and the numerators'
coefficients need 24, 48, 80 and 120.  The numerators have degree 270,
876, 1818 and 3096 there; cross34 packs at 40, 64 and 88 bits at n = 4, 6
and 8.

Each distinct numerator is reduced packed, by dividing Phi_d(2^B) out of
the integer, and unpacked once: the library's one cyclotomic reducer
(`qcore.over_cyclotomic_packed`), called at the checkers' own width B.
The reduced numerator can need more bits than the unreduced one, so the
result is certified rather than proved to fit, and a failed certificate
reruns the reduction at twice the width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, gcd, prod
from random import Random

from .carlitz import beta_number, beta_poly
from .polyq import ONE, Poly, balanced_bits
from .qcore import _divisors, over_cyclotomic_packed, power_sum_T
from .ratfunc import RatFunc

@dataclass(frozen=True, order=True)
class IdentityParams:
    """Degree n plus the weight triple w and shift triple y."""

    n: int
    w: tuple[int, int, int]
    y: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self) -> None:
        # stored as tuples, so params hash and compare however the triples came
        object.__setattr__(self, "w", tuple(self.w))
        object.__setattr__(self, "y", tuple(self.y))
        if not all(isinstance(v, int) for v in (self.n, *self.w, *self.y)):
            raise ValueError("n, w and y must hold integers")
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


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check at one parameter point.

    values[i] is the value for labels[i]: a canonical RatFunc for the
    checks in Q(q), a rendered residue for the p-adic ones.  verdict is
    true iff all values agree (literally in Q(q), inside the stated window
    p-adically); witness names the first differing pair.  detail holds a
    p-adic check's precisions and is None otherwise.
    """

    identity: str
    params: dict[str, object]
    labels: tuple[str, ...]
    values: tuple[RatFunc | str, ...]
    verdict: bool
    witness: tuple[str, str] | None = None
    detail: dict[str, object] | None = None


# ---------------------------------------------------------------------------
# the master denominator


# bounded: the test suite in one process reaches 71 (n, bases) keys, the
# thm1 grid to n = 4, w = 3, y = 2 50
@lru_cache(maxsize=256)
def _master_den_exponents(n: int, bases: tuple[int, int, int]) -> tuple[tuple[int, int], ...]:
    """D = (1-q)^n prod over the base multiset of [2]_{q^b} ... [n+1]_{q^b}
    as sorted pairs (d, e_d) with D = (-1)^n prod Phi_d^{e_d}.

    (1-q)^n = (-1)^n Phi_1^n, and [t]_{q^b} is the product of the Phi_d with
    d | bt and d not dividing b (`q_int_exponents`), so

        e_d = n [d = 1] + sum_b #{t in 2..n+1 : d | bt, d not dividing b}.

    With g = gcd(d, b) and s = d / g, d | bt exactly when s | t, and d does
    not divide b exactly when s > 1: so each base gives the d = g s with g | b,
    s in 2..n+1 and gcd(s, b / g) = 1, each (n+1) // s times.
    """
    exps = {1: n} if n else {}
    for b in bases:
        for g in _divisors(b):
            for s in range(2, n + 2):
                if gcd(s, b // g) == 1:
                    exps[g * s] = exps.get(g * s, 0) + (n + 1) // s
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
# builders combine factors with +, - and * and non-negative integer
# coefficients, where `_Norms` reads - (`sub`) as +, so run on `_Norms`
# they bound the numerator they assemble on `_Packed`.


def _q_int_at(t: int, s: int) -> int:
    """[t]_{q^b} at q = 2^bits, for s = bits * b: (2^{st} - 1) // (2^s - 1)."""
    return ((1 << s * t) - 1) // ((1 << s) - 1)


class _Packed:
    """The term factors of one degree n at q = 2^bits, memoized per instance."""

    def __init__(self, n: int, bits: int) -> None:
        self.n = n
        self.bits = bits
        self._slots: dict[tuple[int, ...], int] = {}
        self._tsums: dict[tuple[int, ...], int] = {}

    def bracket(self, b: int) -> int:
        """[b]_q."""
        return _q_int_at(b, self.bits)

    def shift(self, x: int, s: int) -> int:
        """x q^s."""
        return x << self.bits * s

    def sub(self, a: int, b: int) -> int:
        """a - b."""
        return a - b

    def tsum(self, tdeg: int, m: int, w: int, b: int) -> int:
        """T_{tdeg,m}(w | q^b), the small polynomial `power_sum_T` caches; its
        coefficients fit the width, as the bound behind bits holds ||T||_1
        times the bounds, each at least 1, of the other factors of a term."""
        key = (tdeg, m, w, b)
        value = self._tsums.get(key)
        if value is None:
            value = self._tsums[key] = power_sum_T(tdeg, m, w, b).num.pack(self.bits)
        return value

    def slot(self, b: int, deg: int, h: int, e: int, step: int = 0, count: int = 1) -> int:
        """sum_{i<count} q^{h step i} beta^{(h)}_{deg, q^b}(q^{e + step i}) [b]_q^deg
        times (1-q)^deg P_b, P_b = [2]_{q^b} ... [n+1]_{q^b}: a polynomial."""
        key = (b, deg, h, e, step, count)
        value = self._slots.get(key)
        if value is None:
            value = self._slots[key] = self._slot(*key)
        return value

    def _slot(self, b: int, deg: int, h: int, e: int, step: int, count: int) -> int:
        # beta^{(h)}_{deg} is sum_j (-1)^j C(deg, j) (j+h) q^{je} / [h+j]
        # over (1-q^b)^deg = (1-q)^deg [b]_q^deg; in the slot, [h+j] divides
        # [1] [2] ... [n+1] and (1-q)^deg [b]_q^deg cancels
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
        return acc


# bounded: the test suite in one process reaches 67 (n, b, bits) keys, the
# thm1 grid to n = 4, w = 3, y = 2 30
@lru_cache(maxsize=256)
def _cofactors(n: int, b: int, bits: int) -> tuple[int, ...]:
    """P_b / [t]_{q^b} at q = 2^bits for t = 0..n+1, P_b = [2]_{q^b} ... [n+1]_{q^b}
    (t = 0 unused); shared by every check of degree n at this width."""
    full = prod(_q_int_at(t, bits * b) for t in range(2, n + 2))
    return (full, full) + tuple(full // _q_int_at(t, bits * b) for t in range(2, n + 2))


def _slot_bound(n: int, deg: int, count: int) -> int:
    """Closed-form bound on the L1 norm of `_Packed.slot`, in every base.

    Term j is C(deg, j) (h+j) [count]_{q^{(h+j) step}} times the q-integers
    [t]_{q^b} of P_b / [h+j], all with non-negative coefficients, so its
    norm is its value at q = 1, C(deg, j) (n+1)! count, and the terms sum
    to 2^deg (n+1)! count.
    """
    return (1 << deg) * factorial(n + 1) * count


class _Norms:
    """L1 bounds of the factors `_Packed` evaluates."""

    def __init__(self, n: int) -> None:
        self.n = n

    def bracket(self, b: int) -> int:
        return b

    def shift(self, x: int, s: int) -> int:
        return x

    def sub(self, a: int, b: int) -> int:
        # ||a - b||_1 <= ||a||_1 + ||b||_1
        return a + b

    def tsum(self, tdeg: int, m: int, w: int, b: int) -> int:
        # non-negative coefficients: the value at q = 1
        return sum(i ** m for i in range(w + 1))

    def slot(self, b: int, deg: int, h: int, e: int, step: int = 0, count: int = 1) -> int:
        return _slot_bound(self.n, deg, count)


# ---------------------------------------------------------------------------
# per-permutation numerators against the master denominator
#
# Each theorem's term is a product of one factor per slot, and the factor of
# slot 1 depends only on k, so the lattice sum is nested: for each k one
# full-width product of slot 1 with the inner sum over slots 2 and 3.


# e_i = W y_i is both the argument exponent of slot i's beta factor and the
# step of its q-shift.


def _outer(ev, b1: int, e1: int, inner) -> int:
    """sum_k C(n, k) q^{e1 (n-k)} slot(b1, k, n-k+1, e1) inner(n - k)."""
    n = ev.n
    return sum(comb(n, k) * ev.shift(ev.slot(b1, k, n - k + 1, e1) * inner(n - k), e1 * (n - k))
               for k in range(n + 1))


def _inner(ev, b2: int, e2: int, j: int, h: int, tail: list[int]) -> int:
    """sum_{l+m=j} C(j, l) q^{e2 (m+h-1)} slot(b2, l, m+h, e2) tail[m]."""
    return sum(comb(j, l) * ev.shift(ev.slot(b2, l, j - l + h, e2) * tail[j - l],
                                     e2 * (j - l + h - 1))
               for l in range(j + 1))


def _thm1_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              _w3s: int) -> int:
    b1, b2, b3 = bases
    tail = [ev.slot(b3, m, 1, W * y[2]) for m in range(ev.n + 1)]
    return _outer(ev, b1, W * y[0], lambda j: _inner(ev, b2, W * y[1], j, 1, tail))


def _parts_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
               part1, part2) -> int:
    """`_outer` with inner sum (q - 1)(part1(j) - j part2(j - 1)), times
    P_{b3} [b3]_q: the one shape of Theorems 3 and 4 over D, part1 the inner
    sum of their part P2 and part2 that of P1 (module docstring)."""
    b3 = bases[2]

    def inner(j: int) -> int:
        x = part1(j)
        if j:
            x = ev.sub(x, j * part2(j - 1))
        return ev.sub(ev.shift(x, 1), x)

    return _outer(ev, bases[0], W * y[0], inner) * ev.slot(b3, 0, 1, 0) * ev.bracket(b3)


def _thm3_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              w3s: int) -> int:
    # the tail of m takes [b3]_q^m and the (1-q)^m that the beta factors of
    # its term lack, together (1 - q^{b3})^m
    _, b2, b3 = bases
    e2 = W * y[1]
    one_minus_qb = ev.sub(1, ev.shift(1, b3))
    tails = [[one_minus_qb ** m * ev.tsum(tdeg, m, w3s - 1, b3) for m in range(ev.n + 1)]
             for tdeg in (1, 2)]
    return _parts_num(ev, W, y, bases,
                      lambda j: _inner(ev, b2, e2, j, 1, tails[0]),
                      lambda j: _inner(ev, b2, e2, j, 2, tails[1]))


def _thm4_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              w3s: int) -> int:
    _, b2, b3 = bases
    e0 = W * y[1]
    return _parts_num(ev, W, y, bases,
                      lambda j: ev.slot(b2, j, 1, e0, b3, w3s),
                      lambda j: ev.shift(ev.slot(b2, j, 2, e0, b3, w3s), e0))


# bounded: the test suite in one process reaches 204 (num_fn, n, b3, w3s)
# keys, the thm1 grid to n = 4, w = 3, y = 2 90, the cross34 grid to n = 3,
# w = 3, y = 2 108
@lru_cache(maxsize=512)
def _norm_bound(num_fn, n: int, b3: int, w3s: int) -> int:
    """num_fn run on `_Norms(n)`: its bound on the L1 norm of the numerator.

    `_Norms` reads nothing else of a numerator's arguments (module
    docstring), so the weight product W, the shifts y and the bases other
    than b3 are passed as zeros.
    """
    return num_fn(_Norms(n), 0, (0, 0, 0), (0, 0, b3), w3s)


def _packed_nums(n: int, nums: list[tuple]) -> tuple[list[int], int]:
    """Each numerator (num_fn, W, y, bases, w3s) at q = 2^bits, for one width
    bits that holds every coefficient of every numerator, so equal values
    are equal numerators.

    The width comes from each builder's L1 bound, which reads only the norm
    key (num_fn, n, b3, w3s) and so is computed once per key
    (`_norm_bound`), not once per permutation or per check.  The bases
    determine w3s, so permutations with equal bases (w with a repeated
    weight) have equal numerators, assembled once.
    """
    distinct = dict.fromkeys(nums)
    bits = balanced_bits(max(_norm_bound(fn, n, bases[2], w3s)
                             for fn, _, _, bases, w3s in distinct))
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


def _pair_report(identity: str, params: dict[str, object], labels: tuple[str, str],
                 lhs: RatFunc, rhs: RatFunc) -> IdentityReport:
    """Verdict of a two-sided identity: lhs and rhs are canonical, so
    equality in Q(q) is literal equality."""
    verdict = lhs == rhs
    return IdentityReport(identity, params, labels, (lhs, rhs), verdict,
                          None if verdict else labels)


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


def _check(identity: str, params: IdentityParams) -> IdentityReport:
    least_n, refusal, _, parts = CHECKS[identity]
    if params.n < least_n:
        raise ValueError(refusal)
    W = params.w_product
    labels = []
    nums = []
    for prefix, num_fn in parts:
        for sigma in ALL_PERMUTATIONS:
            bases, w3s = _sigma_bases(params.w, sigma)
            labels.append(prefix + sigma.label)
            nums.append((num_fn, W, params.y, bases, w3s))
    return _report_from_nums(identity, params, tuple(labels),
                             *_packed_nums(params.n, nums))


def thm1_check(params: IdentityParams) -> IdentityReport:
    """Six-way check of the triple product-sum identity."""
    return _check("thm1", params)


def thm3_check(params: IdentityParams) -> IdentityReport:
    """Six-way check of the two-part sum with T-factors."""
    return _check("thm3", params)


def thm4_check(params: IdentityParams) -> IdentityReport:
    """Six-way check of the binomial sum with inner w3-fold sums."""
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
    lhs = q_pow * beta_poly(n, d, w3) - beta_number(n, d)
    rhs = (Poly.q_power(d) - ONE) * power_sum_T(1, n, w3 - 1, d)
    if n >= 1:
        rhs = rhs + power_sum_T(2, n - 1, w3 - 1, d) * n
    return _pair_report("lemma2", {"n": n, "d": d, "w3": w3}, ("lhs", "rhs"), lhs, rhs)


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
