"""Exact radical scalar arithmetic."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadec.errors import SizeTooLarge
from omegadec.scalars import ONE, RADICAND_BITS, ScaledScalar, integer_root


@st.composite
def radicands(draw):
    """(x, k) for k up to 11: x of up to 3000 bits, or a perfect k-th power
    of up to 3000 bits, plus -1, 0 or 1."""
    k = draw(st.integers(min_value=1, max_value=11))
    if draw(st.booleans()):
        return draw(st.integers(min_value=0, max_value=2**3000)), k
    root = draw(st.integers(min_value=1, max_value=2 ** (3000 // k)))
    return root**k + draw(st.sampled_from((-1, 0, 1))), k


@given(radicands())
@settings(deadline=None, max_examples=300)
def test_integer_root_bracket(case):
    x, k = case
    r, exact = integer_root(x, k)
    assert r**k <= x < (r + 1) ** k
    assert exact == (r**k == x)


def test_integer_root_huge():
    x = 7**50
    r, exact = integer_root(x, 5)
    assert exact and r == 7**10


def test_normalization_reduces_perfect_powers():
    assert ScaledScalar(Fraction(225, 64), 2) == ScaledScalar(Fraction(15, 8))
    assert ScaledScalar(16, 4) == ScaledScalar(2)
    s = ScaledScalar(4, 4)
    assert (s.num, s.den, s.k) == (2, 1, 2)
    s = ScaledScalar(8, 2)  # sqrt 8 is not a perfect power: stays as is
    assert (s.num, s.den, s.k) == (8, 1, 2)


def test_multiplication_and_folding():
    sqrt_15_8 = ScaledScalar(Fraction(15, 8), 2)
    assert (sqrt_15_8 * sqrt_15_8) == ScaledScalar(Fraction(15, 8))
    fourth = ScaledScalar(2, 4)
    assert fourth * fourth == ScaledScalar(2, 2)
    assert ScaledScalar(2, 2) * ScaledScalar(2, 2) == ScaledScalar(2)
    assert fourth * ScaledScalar(Fraction(1, 2), 4) == ONE


def test_powers_and_roots():
    s = ScaledScalar(Fraction(1, 2), 3)
    assert s**3 == ScaledScalar(Fraction(1, 2))
    assert s**0 == ONE
    assert (s**-3) == ScaledScalar(2)
    assert ScaledScalar(5).root(2) ** 2 == ScaledScalar(5)


def test_ratio_to():
    assert ScaledScalar(8, 2).ratio_to(ScaledScalar(2, 2)) == Fraction(2)
    assert ScaledScalar(2, 2).ratio_to(ScaledScalar(3, 2)) is None
    assert ScaledScalar(2, 2).ratio_to(ScaledScalar(2, 4)) is None


def test_float_value():
    assert math.isclose(float(ScaledScalar(Fraction(15, 8), 2)), math.sqrt(15 / 8))
    assert math.isclose(float(ScaledScalar(2, 4)), 2 ** 0.25)


def test_float_value_of_rational_scale_is_exact():
    fractions = [Fraction(q) for q in range(1, 200)]
    fractions += [Fraction(1, 3), Fraction(2, 7), Fraction(22, 7), Fraction(10**20 + 1, 3),
                  Fraction(1, 10**30), Fraction(15, 8), ScaledScalar(Fraction(9, 4), 2).radicand]
    for q in fractions:
        assert float(ScaledScalar(q)) == float(q)
    assert float(ScaledScalar(Fraction(9, 4), 2)) == 1.5


def test_rejects_nonpositive_and_bad_root():
    with pytest.raises(ValueError):
        ScaledScalar(0)
    with pytest.raises(ValueError):
        ScaledScalar(Fraction(-1, 2))
    with pytest.raises(ValueError):
        ScaledScalar(2, 0)


def test_as_fraction():
    assert ScaledScalar(Fraction(9, 4), 2).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        ScaledScalar(2, 2).as_fraction()


@given(st.fractions(min_value=Fraction(1, 50), max_value=50),
       st.fractions(min_value=Fraction(1, 50), max_value=50),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=60)
def test_product_value_consistency(r1, r2, k1, k2):
    a, b = ScaledScalar(r1, k1), ScaledScalar(r2, k2)
    assert math.isclose(float(a * b), float(a) * float(b), rel_tol=1e-12)
    assert a * b == b * a


def test_serialization_round_trip():
    s = ScaledScalar(Fraction(15, 8), 2)
    assert ScaledScalar.from_obj(s.to_obj()) == s


def ref_normalize(num, den, k):
    """The scan the normalization ran before it was bounded: every divisor of k,
    largest first, until num and den are both perfect powers of it."""
    for m in (d for d in range(k, 1, -1) if k % d == 0):
        (rn, okn), (rd, okd) = integer_root(num, m), integer_root(den, m)
        if okn and okd:
            return rn, rd, k // m
    return num, den, k


def test_normalization_matches_the_divisor_scan():
    rng = random.Random(7)
    for _ in range(3000):
        num, den = (rng.randint(1, 6) ** rng.randint(0, 12) for _ in range(2))
        g = math.gcd(num, den)
        num, den, k = num // g, den // g, rng.randint(1, 72)
        s = ScaledScalar(Fraction(num, den), k)
        assert (s.num, s.den, s.k) == ref_normalize(num, den, k), (num, den, k)


def test_huge_root_indices_end_quickly():
    start = time.perf_counter()
    assert ScaledScalar(1, 10**30) == ONE
    assert ScaledScalar(Fraction(4, 9), 10**30) == ScaledScalar(Fraction(2, 3), 5 * 10**29)
    with pytest.raises(SizeTooLarge):
        ScaledScalar(2, 100003) * ScaledScalar(3, 100019)
    with pytest.raises(SizeTooLarge):
        ScaledScalar(2, 10**30) / ScaledScalar(3, 3)
    assert time.perf_counter() - start < 1.0


def test_product_radicand_limit():
    # 2 * (1/2)**(1/k) is (2**k / 2)**(1/k), a radicand of at least 2**k before it is reduced
    k = RADICAND_BITS - 1
    assert ScaledScalar(2) * ScaledScalar(Fraction(1, 2), k) == ScaledScalar(2**(k - 1), k)
    message = f"^a radicand of a product would pass {RADICAND_BITS} bits$"
    with pytest.raises(SizeTooLarge, match=message):
        ScaledScalar(2) * ScaledScalar(Fraction(1, 2), RADICAND_BITS)


def test_power_radicand_limit():
    # 2**n has RADICAND_BITS bits; one more factor of 2 reaches 2**RADICAND_BITS
    n = RADICAND_BITS - 1
    message = f"^a radicand of a power would pass {RADICAND_BITS} bits$"
    assert ScaledScalar(2) ** n == ScaledScalar(2**n)
    assert ScaledScalar(2) ** -n == ScaledScalar(Fraction(1, 2**n))
    # the common factor of the exponent and the root index is taken out first
    assert ScaledScalar(Fraction(1, 2), 3) ** (3 * n) == ScaledScalar(Fraction(1, 2**n))
    assert ScaledScalar(Fraction(1, 2), 3) ** -(3 * n) == ScaledScalar(2**n)
    assert ScaledScalar(Fraction(1, 2), 3) ** 3 == ScaledScalar(Fraction(1, 2))
    for j in (n + 1, -(n + 1)):
        with pytest.raises(SizeTooLarge, match=message):
            ScaledScalar(2) ** j
        with pytest.raises(SizeTooLarge, match=message):
            ScaledScalar(Fraction(1, 2), 3) ** (3 * j)
    # a radicand that already reaches the limit stops even the first power, as in a product
    assert ScaledScalar(2**n) ** 1 == ScaledScalar(2**n)
    with pytest.raises(SizeTooLarge, match=message):
        ScaledScalar(2**(n + 1)) ** 1
    with pytest.raises(SizeTooLarge, match=message):
        ScaledScalar(Fraction(1, 2**(n + 1))) ** -1
