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
sign (-1)^n and an exponent map {d: e_d}: {1: n}, for (1-q)^n, plus the
maps of the three P_b = [2]_{q^b} ... [n+1]_{q^b}, each cached with the
cofactors of P_b (`_base_entry`).  The canonical RatFunc of a numerator
comes from dividing out each Phi_d as often as it divides (at most e_d
times), not from a gcd against D: once per report when the forms agree,
once per distinct form when they do not.

Each theorem's numerator comes from one builder, which takes its
arithmetic from an evaluator.  Each beta factor is taken together with its
bracket [b]_q^deg and with (1-q)^deg P_b, P_b = [2]_{q^b} ... [n+1]_{q^b},
and that product, a slot, is a polynomial with no (1-q) left in it:

    sum_j (-1)^j C(deg, j) (j+h) q^{je} P_b / [h+j]_{q^b}.

A Theorem 1 term has beta factors of degree k + l + m = n, so it lacks no
(1-q) against D's (1-q)^n.  Theorems 3 and 4 read P1 + (q - 1) P2, whose
terms carry (1-q)^n (P2; a Theorem 3 tail as (1 - q^{b3})^m) and, under
n C(n-1, k) = j C(n, k), (1-q)^{n-1} (P1, which takes the one it lacks as
-(q - 1)).  So both build (q - 1) P_{b3} [b3]_q times the outer sum of
part1(j) - j part2(j - 1) over j = n - k, part1 from P2 and part2 from P1.
Theorem 4's inner sum over i < w3 of q^{h step i} beta(q^{e + step i})
only multiplies slot term j by [w3]_{q^{(h+j) step}}.  The factor of the
first slot depends on k alone and that of the second on (l, m), so the
lattice sum is nested.

All permutations (twelve for cross34) share one width B, the least multiple
of 8 bits holding a bound on every numerator coefficient plus a sign bit,
so equal integers at q = 2^B are equal numerators.  The bound is read off
the formal forms below.  A symbol cof_b[t] = P_b / [t]_{q^b} is the product
of the [s]_{q^b} for 2 <= s <= n + 1, s != t, whose coefficients are
non-negative, so its L1 norm is its value at q = 1, (n+1)!/t, in every
base, and a monomial q^d Y^a Z^z only shifts a term.  So a realized form
has L1 norm at most the sum over its terms of |c| prod_{(L, t)} (n+1)!/t
(`_l1_bound`), and B holds the largest such sum over the check's distinct
forms: it depends on the check and n alone, not on w, y or the bases.
thm1 packs at 32, 72, 112 and 168 bits at n = 4, 8, 12 and 16 (at
w = (3, 3, 2), y = (1, 1, 0) its numerators, of degree 270, 876, 1818 and
3096, need 24, 48, 80 and 120), and cross34 at 32, 48 and 72 bits at
n = 4, 6 and 8.

Every theorem is decided once per n, formally, and realized over D at
each point.  A builder runs once on `_Formal`, whose bases are the free
labels A, B, C, whose Y_i = q^{W y_i} and Z = q^W are formal variables, and
whose symbol cof_L[t] stands for P_b / [t]_{q^b}.  For Theorems 3 and 4
write Q = q^{b3} and R[s] = [w3]_{Q^s}.  Since b3 w3 = W, two identities
put their terms in the cofactor basis:

    (1 - Q)^m T_{t,m}(w3 - 1 | Q) = sum_k C(m, k) (-1)^k R[t + k],
    (q - 1) [b3]_q P_{b3} R[s] = (Z^s - 1) cof_{b3}[s]   for s <= n + 1.

So a Theorem 3 tail and a Theorem 4 slot carry one symbol R per term, and
the closing factor (q - 1) P_{b3} [b3]_q rewrites it (`_Formal.close`).  The
builder never looks inside a label, so relabeling the one run gives the six
permutations' forms (`_forms`).  Sending A, B, C to the bases w2 w3, w1 w3,
w1 w2, Z to q^W, each Y_i to q^{W y_i} and each symbol to its value turns a
permutation's form into its numerator at (w, y), so equal forms are equal
numerators at every w and y.

A check's certificate (`_certificate`, cached per check and n) is the one
unit of decision: the distinct forms of its builders, the index of each
report label's form among them, the width B above, and the report labels.
A point realizes each distinct form at q = 2^B, one integer when the forms
agree, and reads its values and its witness through the index.  Theorem
1's common form has n + 1 terms,

    sum_j C(n, j) (-1)^j (j+1)^3 (Y1 Y2 Y3)^j prod_b cof_b[j+1],

its triple q-Volkenborn integral times D, and the twelve forms of
Theorems 3 and 4 are one form of 2(n + 1) terms,

    sum_j C(n, j) (-1)^j (j+1)^3 (Y1 Y2)^j (Z^{j+1} - 1) prod_b cof_b[j+1].

Where the forms differ, each distinct one is realized, and the integers
are compared: forms that differ can still agree at a point.

Each distinct numerator is reduced packed, by dividing Phi_d(2^B) out of
the integer, and unpacked once: the library's one cyclotomic reducer
(`qcore.over_cyclotomic_packed`), called at the checkers' own width B.
The reduced numerator can need more bits than the unreduced one, so the
result is certified rather than proved to fit.  A failed certificate
divides the numerator once, at a wider width, by the product of the
factors the trials took; the trials run again only when that division
leaves a remainder.
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
        # stored as tuples, so params hash and compare however the triples
        # came; one that is not iterable is stored empty, to fail its length check
        for name in ("w", "y"):
            value = getattr(self, name)
            object.__setattr__(self, name, tuple(value) if hasattr(value, "__iter__") else ())
        # bool is an int subclass, but True is no degree, weight or shift
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (self.n, *self.w, *self.y)):
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
        # stored as a tuple, and bool refused, as in `IdentityParams`
        object.__setattr__(self, "images", tuple(self.images))
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in self.images):
            raise ValueError("images must hold integers")
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
# the master denominator, one base at a time


def _bases(w: tuple[int, int, int]) -> tuple[int, int, int]:
    """The bases w2 w3, w1 w3, w1 w2 of the labels A, B, C."""
    w1, w2, w3 = w
    return w2 * w3, w1 * w3, w1 * w2


# bounded: bits is the width of a check at n (`_certificate`); the test
# suite in one process reaches 125 (n, b, bits) keys, the thm1 grid to
# n = 4, w = 3, y = 2 30, the cross34 grid to n = 3, w = 3, y = 2 18
@lru_cache(maxsize=256)
def _base_entry(n: int, b: int, bits: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """P_b = [2]_{q^b} ... [n+1]_{q^b} for one base b, shared by every check
    of degree n at this width: P_b / [t]_{q^b} at q = 2^bits for t = 0..n+1
    (t = 0 unused), and P_b's exponent map, pairs (d, e_d), P_b = prod Phi_d^{e_d}.

    [t]_{q^b} is (2^{bits b t} - 1) // (2^{bits b} - 1) at q = 2^bits, and
    the product of the Phi_d with d | bt and d not dividing b
    (`q_int_exponents`).  With g = gcd(d, b) and s = d / g, d | bt exactly
    when s | t, and d does not divide b exactly when s > 1: so e_d is
    (n+1) // s for the d = g s with g | b, s in 2..n+1 and gcd(s, b / g) = 1
    (each d once, since then gcd(d, b) = g), and 0 for every other d.
    """
    q_ints = [((1 << bits * b * t) - 1) // ((1 << bits * b) - 1) for t in range(2, n + 2)]
    full = prod(q_ints)
    exps = tuple((g * s, (n + 1) // s) for g in _divisors(b) for s in range(2, n + 2)
                 if gcd(s, b // g) == 1)
    return (full, full, *(full // v for v in q_ints)), exps


# ---------------------------------------------------------------------------
# per-permutation numerators against the master denominator
#
# Each builder takes its term factors from an evaluator, `_Formal` below, and
# combines them with +, - and * and integer coefficients.  Each theorem's
# term is a product of one factor per slot, and the factor of slot 1 depends
# only on k, so the lattice sum is nested: for each k one product of slot 1
# with the inner sum over slots 2 and 3.


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


def _parts_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int], w3s: int,
               part1, part2) -> int:
    """(q - 1) P_{b3} [b3]_q times `_outer` with inner sum part1(j) - j part2(j - 1):
    the one shape of Theorems 3 and 4 over D, part1 the inner sum of their
    part P2 and part2 that of P1 (module docstring)."""

    def inner(j: int) -> int:
        return part1(j) - j * part2(j - 1) if j else part1(j)

    return ev.close(_outer(ev, bases[0], W * y[0], inner), bases[2], w3s)


def _thm3_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              w3s: int) -> int:
    # the tail of m takes [b3]_q^m and the (1-q)^m that the beta factors of
    # its term lack, together (1 - q^{b3})^m
    _, b2, b3 = bases
    e2 = W * y[1]
    tails = [[ev.tail(tdeg, m, w3s - 1, b3) for m in range(ev.n + 1)] for tdeg in (1, 2)]
    return _parts_num(ev, W, y, bases, w3s,
                      lambda j: _inner(ev, b2, e2, j, 1, tails[0]),
                      lambda j: _inner(ev, b2, e2, j, 2, tails[1]))


def _thm4_num(ev, W: int, y: tuple[int, int, int], bases: tuple[int, int, int],
              w3s: int) -> int:
    _, b2, b3 = bases
    e0 = W * y[1]
    return _parts_num(ev, W, y, bases, w3s,
                      lambda j: ev.slot(b2, j, 1, e0, b3, w3s),
                      lambda j: ev.shift(ev.slot(b2, j, 2, e0, b3, w3s), e0))


# ---------------------------------------------------------------------------
# every theorem for every w and y: one formal certificate per check and n
# (module docstring), realized at each point over D

# the labels of the bases w2 w3, w1 w3, w1 w2
_LABELS = "ABC"

# An exponent vector (d, a1, a2, a3, z) of q^d Y1^a1 Y2^a2 Y3^a3 Z^z is
# packed in one int, d + sum_i a_i 2^{32 i} + z 2^{128}, so the builders' int
# arithmetic on exponents (W * y[i] with W = 1, e * k, and sums of them) is
# vector arithmetic: the exponents are non-negative, and far below 2^32.
_EXP_BITS = 32
_Y_UNITS = tuple(1 << _EXP_BITS * i for i in (1, 2, 3))
_Z_UNIT = 1 << _EXP_BITS * 4

# the w3 of a formal run: it only names the count of the symbols R, which
# `_Formal.close` matches against the run's own
_W3 = 0


class _Form(dict):
    """A formal value {(cofactor key, packed exponent vector): coefficient},
    the cofactor key the sorted (label, t) pairs of its symbols cof_L[t] and
    the ("R", L, w3, s) of a symbol R[s] = [w3]_{q^{L s}}."""

    def __add__(self, other: _Form) -> _Form:
        out = _Form(self)
        for key, c in other.items():
            out[key] = out.get(key, 0) + c
        return _Form({key: c for key, c in out.items() if c})

    def __radd__(self, other: int) -> _Form:
        # sum() starts from 0
        return self if other == 0 else NotImplemented

    def __sub__(self, other: _Form) -> _Form:
        return self + other * -1

    def __mul__(self, other: _Form | int) -> _Form:
        if isinstance(other, int):
            return _Form({key: other * c for key, c in self.items()} if other else {})
        out: dict = {}
        for (ka, ea), ca in self.items():
            for (kb, eb), cb in other.items():
                key = (tuple(sorted(ka + kb)), ea + eb)
                out[key] = out.get(key, 0) + ca * cb
        return _Form({key: c for key, c in out.items() if c})

    __rmul__ = __mul__


class _Formal:
    """The term factors of one degree n as formal values (`_Form`)."""

    def __init__(self, n: int) -> None:
        self.n = n

    def shift(self, x: _Form, s: int) -> _Form:
        """x times the monomial of the packed exponent vector s."""
        return _Form({(key, e + s): c for (key, e), c in x.items()})

    def tail(self, tdeg: int, m: int, w: int, b: str) -> _Form:
        """(1 - Q)^m T_{tdeg,m}(w | Q), Q = q^b: sum_k C(m, k) (-1)^k R[tdeg + k],
        R[s] = [w + 1]_{Q^s}."""
        return _Form({((("R", b, w + 1, tdeg + k),), 0): (-1) ** k * comb(m, k)
                      for k in range(m + 1)})

    def slot(self, label: str, deg: int, h: int, e: int, step: str = "",
             count: int = 1) -> _Form:
        """sum_i (-1)^i C(deg, i) (h+i) Y^{i e} cof_label[h+i], each term times
        R[h+i] = [count]_{q^{step (h+i)}} when the slot has a step: the slot
        with the cofactors P_b / [h+i]_{q^b} kept as symbols."""
        def key(t: int) -> tuple:
            return ((label, t), ("R", step, count, t)) if step else ((label, t),)

        return _Form({(key(h + i), i * e): (-1) ** i * comb(deg, i) * (h + i)
                      for i in range(deg + 1)})

    def close(self, x: _Form, b3: str, w3s: int) -> _Form:
        """x (q - 1) P_{b3} [b3]_q, each term's one symbol R[s] of base b3 and
        count w3s rewritten as (Z^s - 1) cof_{b3}[s] (module docstring)."""
        out: dict = {}
        for (key, e), c in x.items():
            rs = [sym for sym in key if sym[0] == "R"]
            if len(rs) != 1 or rs[0][1:3] != (b3, w3s) or not 1 <= rs[0][3] <= self.n + 1:
                raise ValueError(f"cannot close the term {key}: it needs one R[s] of "
                                 f"base {b3} and count {w3s}, with 1 <= s <= {self.n + 1}")
            s = rs[0][3]
            cof = tuple(sorted([sym for sym in key if sym[0] != "R"] + [(b3, s)]))
            for exp, sign in ((e + s * _Z_UNIT, c), (e, -c)):
                out[cof, exp] = out.get((cof, exp), 0) + sign
        return _Form({key: c for key, c in out.items() if c})


def _frozen(form: dict) -> tuple:
    return tuple(sorted(form.items()))


def _forms(num_fn, n: int) -> list[tuple]:
    """num_fn's formal numerator of degree n for each permutation, in
    `ALL_PERMUTATIONS` order, as sorted term tuples: one run on labels A, B, C
    in slots 1, 2, 3, relabeled for the others."""
    form = num_fn(_Formal(n), 1, _Y_UNITS, tuple(_LABELS), _W3)
    relabels = [dict(zip(_LABELS, sigma.arrange(_LABELS))) for sigma in ALL_PERMUTATIONS]
    return [_frozen({(tuple(sorted((relabel[label], t) for label, t in key)), e): c
                     for (key, e), c in form.items()})
            for relabel in relabels]


def _realize(form: tuple, cofs: dict[str, tuple[int, ...]], W: int,
             y: tuple[int, int, int], bits: int) -> int:
    """The form at q = 2^bits, with Y_i = q^{W y_i}, Z = q^W and cof_L[t]
    read as cofs[L][t], the cofactors of L's base at this width (`_base_entry`)."""
    mask = (1 << _EXP_BITS) - 1
    y1, y2, y3 = y
    acc = 0
    last = value = None
    for (key, e), c in form:
        if key != last:
            # terms sharing a cofactor key are adjacent in the sorted form
            last, value = key, prod(cofs[label][t] for label, t in key)
        s = (e & mask) + W * (y1 * (e >> _EXP_BITS & mask) + y2 * (e >> 2 * _EXP_BITS & mask)
                              + y3 * (e >> 3 * _EXP_BITS & mask) + (e >> 4 * _EXP_BITS))
        acc += c * value << bits * s
    return acc


def _l1_bound(form: tuple, n: int) -> int:
    """A bound on the L1 norm of the form realized at any w and y: the sum
    over its terms of |c| prod over its symbols cof_L[t] of (n+1)!/t
    (module docstring)."""
    full = factorial(n + 1)
    return sum(abs(c) * prod(full // t for _, t in key) for (key, _), c in form)


# ---------------------------------------------------------------------------
# reports


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


# bounded: one key per check and degree n; the test suite in one process
# reaches 37 keys (faulty builders' certificates counted), the thm1 grid to
# n = 4, w = 3, y = 2 5, the cross34 grid to n = 3, w = 3, y = 2 3
@lru_cache(maxsize=128)
def _certificate(identity: str, n: int) -> tuple[tuple[tuple, ...], tuple[int, ...], int,
                                                 tuple[str, ...]]:
    """The check decided at degree n, for every w and y: the distinct forms
    of its builders, the index of each report label's form among them, the
    width that holds every coefficient of every numerator, the largest
    `_l1_bound` of the forms, and the report labels."""
    parts = CHECKS[identity][3]
    ids: dict[tuple, int] = {}
    index = tuple(ids.setdefault(form, len(ids))
                  for _, num_fn in parts for form in _forms(num_fn, n))
    labels = tuple(prefix + sigma.label for prefix, _ in parts for sigma in ALL_PERMUTATIONS)
    return tuple(ids), index, balanced_bits(max(_l1_bound(form, n) for form in ids)), labels


def _check(identity: str, params: IdentityParams) -> IdentityReport:
    """Each distinct form of the certificate realized at the point and
    reduced over D once; the verdict compares the integers, so a failing
    report still carries exact values."""
    least_n, refusal, _, _ = CHECKS[identity]
    n = params.n
    if n < least_n:
        raise ValueError(refusal)
    forms, index, bits, labels = _certificate(identity, n)
    entries = [_base_entry(n, b, bits) for b in _bases(params.w)]
    cofs = {label: cofactors for label, (cofactors, _) in zip(_LABELS, entries)}
    nums = [_realize(form, cofs, params.w_product, params.y, bits) for form in forms]
    # D = (-1)^n prod Phi_d^{e_d}: (1-q)^n = (-1)^n Phi_1^n, times each base's P_b
    exps = {1: n}
    for _, base_exps in entries:
        for d, e in base_exps:
            exps[d] = exps.get(d, 0) + e
    values = [over_cyclotomic_packed(-num if n % 2 else num, bits, exps)[0] for num in nums]
    witness = next(((labels[0], label) for label, i in zip(labels, index)
                    if nums[i] != nums[0]), None)
    return IdentityReport(identity, params.as_dict(), labels,
                          tuple(values[i] for i in index), witness is None, witness)


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
    # bool is an int subclass, but True is no degree, base or count
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, d, w3)):
        raise ValueError("n, d and w3 must be integers")
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
    if limit < 0:
        raise ValueError(f"sample limit must be non-negative, got {limit}")
    if limit >= len(grid):
        return list(grid)
    picks = Random(_SAMPLE_SEED).sample(range(len(grid)), limit)
    return [grid[i] for i in sorted(picks)]
