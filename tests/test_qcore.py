import copy
import inspect
import pickle
from fractions import Fraction
from random import Random

import pytest

from qcarlitz.carlitz import BetaTable, beta_number
from qcarlitz.identities import IdentityParams, IdentityReport, Permutation3
from qcarlitz.padic import IntegrandSpec, PadicInt, VolkenbornJob
from qcarlitz.polyq import ONE, Poly
from qcarlitz.qcore import (cyclotomic_poly, cyclotomic_value, divide_mersenne, power_sum_T,
                            q_int, q_int_exponents, q_int_poly, q_power_minus_one_exponents)
from qcarlitz.ratfunc import RF_ONE, RatFunc


def test_q_int_poly_values():
    assert q_int_poly(0, 1) == Poly([])
    assert q_int_poly(1, 1) == ONE
    assert q_int_poly(3, 1) == Poly([1, 1, 1])
    assert q_int_poly(2, 3) == Poly([1, 0, 0, 1])
    with pytest.raises(ValueError):
        q_int_poly(-1, 1)
    with pytest.raises(ValueError):
        q_int_poly(2, 0)


def test_non_int_base_is_refused_at_the_entry():
    # after the int base is cached too: a float equal to it is still refused
    q_int_poly(3, 2)
    power_sum_T(1, 1, 2, 2)
    for call in (lambda: q_int_poly(3, 2.0), lambda: q_int(3, 2.0),
                 lambda: power_sum_T(1, 1, 2, 2.0), lambda: q_int_poly(3, Fraction(2))):
        with pytest.raises(ValueError, match="positive int, got"):
            call()


def test_bool_base_is_refused_at_the_entry():
    # after the base 1 is cached: True == 1, but it is no base exponent
    q_int_poly(3, 1)
    power_sum_T(1, 1, 2, 1)
    for call in (lambda: q_int_poly(3, True), lambda: q_int(3, True),
                 lambda: power_sum_T(1, 1, 2, True)):
        with pytest.raises(ValueError, match="positive int, got True"):
            call()


def test_q_int_refuses_a_bool_or_float_argument():
    # after [1] is cached: q_int_poly is typed, so True reaches the check
    q_int(1)
    for x in (True, 3.0):
        with pytest.raises(ValueError, match="x must be an int, got"):
            q_int(x)
        with pytest.raises(ValueError, match="x must be an int, got"):
            q_int_poly(x)


def test_power_sum_refuses_a_bool_or_float_index():
    power_sum_T(1, 1, 2)
    for args, name in [((True, 1, 2), "n"), ((1, True, 2), "m"), ((1, 1, True), "w"),
                       ((1.0, 1, 2), "n")]:
        with pytest.raises(ValueError, match=f"{name} must be an int, got"):
            power_sum_T(*args)


@pytest.mark.parametrize("helper, args, text", [
    # True was a q-integer argument of 1, with an empty map
    (q_int_exponents, (True,), "t must be an int, got True"),
    # 2.0 failed inside isqrt with a TypeError
    (q_int_exponents, (2.0,), "t must be an int, got 2.0"),
    # True was q^1 - 1, and 2.0 failed inside isqrt with a TypeError
    (q_power_minus_one_exponents, (True,), "m must be an int, got True"),
    (q_power_minus_one_exponents, (2.0,), "m must be an int, got 2.0"),
    # a negative power gave a map of negative exponents
    (q_power_minus_one_exponents, (4, -1), "power must be non-negative"),
    # True gave the exponents True
    (q_power_minus_one_exponents, (4, True), "power must be an int, got True"),
    # 2^0 - 1 = 0 was a ZeroDivisionError, a negative width a negative shift
    (cyclotomic_value, (3, 0), "bits must be positive"),
    (cyclotomic_value, (3, -8), "bits must be positive"),
    # 2.0 failed inside comb with a TypeError
    (cyclotomic_poly, (2.0,), "d must be an int, got 2.0"),
], ids=lambda v: getattr(v, "__name__", None))
def test_cyclotomic_map_helpers_refuse_bools_floats_and_negatives(helper, args, text):
    with pytest.raises(ValueError, match=text):
        helper(*args)


def test_divide_mersenne_matches_floor_division():
    rng = Random(36)
    for _ in range(300):
        s = rng.randrange(1, 200)
        y = rng.getrandbits(rng.randrange(0, 1500))
        assert divide_mersenne(y * ((1 << s) - 1), s) == y, (y, s)
    for s in (1, 8, 64):
        # 0, and s at or past the bit length of the multiple
        assert divide_mersenne(0, s) == 0
        assert divide_mersenne((1 << s) - 1, s) == 1
    # non-multiples, and a negative multiple
    for x, s in [(1, 8), (254, 8), (256, 8), (3 * 255 + 1, 8), (1 << 300, 5), (-255, 8)]:
        with pytest.raises(ArithmeticError, match="not a non-negative multiple"):
            divide_mersenne(x, s)
    with pytest.raises(ValueError):
        divide_mersenne(3, 0)


def test_q_int_limits():
    # [x]_q -> x as q -> 1
    for x in range(6):
        assert q_int(x, 1).evaluate(1) == x


def test_shift_law_exhaustive():
    # [a+b] = [a] + q^a [b] for 0 <= a,b <= 6
    for a in range(7):
        for b in range(7):
            lhs = q_int(a + b, 1)
            rhs = q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
            assert lhs == rhs, (a, b)


def test_shift_law_three_terms_exhaustive():
    # [a+b+c] = [a] + q^a [b] + q^{a+b} [c] for 0 <= a,b,c <= 4
    for a in range(5):
        for b in range(5):
            for c in range(5):
                lhs = q_int(a + b + c, 1)
                rhs = (q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
                       + RatFunc(Poly.q_power(a + b)) * q_int(c, 1))
                assert lhs == rhs, (a, b, c)


def test_product_law_exhaustive():
    # [ab]_q = [a]_q [b]_{q^a} for 1 <= a,b <= 6
    for a in range(1, 7):
        for b in range(1, 7):
            assert q_int(a * b, 1) == q_int(a, 1) * q_int(b, a), (a, b)


def test_power_sum_examples():
    assert str(power_sum_T(1, 1, 2, 1)) == "q+q^2+q^3"
    assert power_sum_T(0, 0, 3, 1) == RatFunc(4)
    assert power_sum_T(2, 0, 0, 1) == RatFunc(1)
    with pytest.raises(ValueError):
        power_sum_T(1, 1, -1, 1)


def test_power_sum_is_polynomial_and_matches_definition():
    for n in range(3):
        for m in range(3):
            for w in range(4):
                for d in (1, 2):
                    v = power_sum_T(n, m, w, d)
                    assert v.is_polynomial
                    acc = RatFunc(0)
                    for i in range(w + 1):
                        acc = acc + (RatFunc(Poly.q_power(d * n * i))
                                     * q_int(i, d) ** m)
                    assert v == acc, (n, m, w, d)


# Each record type: its fields by position (defaults given), the same
# record by keyword with the defaulted fields left out, and its repr, the
# string these types printed as frozen dataclasses.
RECORDS = [
    (BetaTable, (2, (RF_ONE, beta_number(1, 2))),
     {"base_exponent": 2, "values": (RF_ONE, beta_number(1, 2))},
     "BetaTable(base_exponent=2, values=(RatFunc('1'), RatFunc('-1/(1+q^2)')))"),
    (IdentityParams, (2, (1, 2, 3), (0, 0, 0)), {"n": 2, "w": [1, 2, 3]},
     "IdentityParams(n=2, w=(1, 2, 3), y=(0, 0, 0))"),
    (Permutation3, ((2, 3, 1),), {"images": [2, 3, 1]}, "Permutation3(images=(2, 3, 1))"),
    (IdentityReport,
     ("thm1", {"n": 0}, ("123", "132"), (RF_ONE, RatFunc(Fraction(1, 2))), False,
      ("123", "132"), None),
     {"identity": "thm1", "params": {"n": 0}, "labels": ("123", "132"),
      "values": (RF_ONE, RatFunc(Fraction(1, 2))), "verdict": False,
      "witness": ("123", "132")},
     "IdentityReport(identity='thm1', params={'n': 0}, labels=('123', '132'), "
     "values=(RatFunc('1'), RatFunc('1/2')), verdict=False, witness=('123', '132'), "
     "detail=None)"),
    (PadicInt, (3, 2, 10), {"p": 3, "K": 2, "residue": 1}, "PadicInt(p=3, K=2, residue=1)"),
    (IntegrandSpec, (1, 2, 0), {"c": 1, "m": 2}, "IntegrandSpec(c=1, m=2, s=0)"),
    (VolkenbornJob, (3, 4, 2, 5, IntegrandSpec(0, 1)),
     {"p": 3, "q0": Fraction(4), "N": 2, "K": 5, "f": IntegrandSpec(c=0, m=1)},
     "VolkenbornJob(p=3, q0=Fraction(4, 1), N=2, K=5, f=IntegrandSpec(c=0, m=1, s=0))"),
]


@pytest.mark.parametrize("cls, args, keywords, text", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_records_behave_as_frozen_dataclasses(cls, args, keywords, text):
    record = cls(*args)
    assert cls(**keywords) == record
    assert repr(record) == text
    again = cls(*args)
    assert again == record and not again != record and again is not record
    if cls is IdentityReport:
        # its params are a dict, so a report hashes no more than it did
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(again) == hash(record)
    # a record of another type holding the same fields, even under the same
    # name and printed the same, is not equal
    fields = list(inspect.signature(cls).parameters)
    twin = object.__new__(type(cls.__name__, (cls,), {"__slots__": ()}))
    for name in fields:
        object.__setattr__(twin, name, getattr(record, name))
    assert repr(twin) == text
    assert twin != record and record != twin and not twin == record
    for name in fields + ["other"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                   copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == text
    # only parameter points and permutations order
    if cls not in (IdentityParams, Permutation3):
        with pytest.raises(TypeError):
            record < again  # noqa: B015
