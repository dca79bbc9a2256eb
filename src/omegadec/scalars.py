"""Exact positive scalars of the form (num/den)**(1/k).

These carry the group-order roots and other radical normalization factors
that show up in decomposition constructions, so that contraction and
verification can stay in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SizeTooLarge, _integer, _object, _rational


def integer_root(x: int, k: int) -> tuple[int, bool]:
    """Floor of the k-th root of x >= 0, and whether the root is exact."""
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if x in (0, 1) or k == 1:
        return x, True
    # Newton from above the root: by AM-GM no step goes below the floor root,
    # and above it every step descends, so the loop stops exactly there
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    return r, r**k == x


RADICAND_BITS = 8192     # a product stops before it builds a radicand of 2**RADICAND_BITS


class ScaledScalar:
    """The positive real (num/den)**(1/k), normalized to a minimal root index.

    Products, integer powers and extra roots stay in this exact form; the
    value is rational exactly when the normalized root index is 1.
    """

    __slots__ = ("num", "den", "k")

    def __init__(self, ratio, k: int = 1):
        r = _rational(ratio)
        k = _integer(k, "root index")
        if r <= 0:
            raise ValueError("scale must be positive")
        if k < 1:
            raise ValueError("root index must be >= 1")
        self._normalize(r.numerator, r.denominator, k)

    @classmethod
    def _reduced(cls, num: int, den: int, k: int) -> "ScaledScalar":
        """The scalar (num/den)**(1/k) from positive coprime ints, without a Fraction."""
        self = object.__new__(cls)
        self._normalize(num, den, k)
        return self

    def _normalize(self, num: int, den: int, k: int) -> None:
        # a perfect m-th power above 1 has m below its bit length, and the value
        # one (num == den == 1, being coprime) has root index one
        if num == den:
            k = 1
        for m in range(min(k, max(num.bit_length(), den.bit_length())), 1, -1):
            if k % m:
                continue
            rn, okn = integer_root(num, m)
            if not okn:
                continue
            rd, okd = integer_root(den, m)
            if not okd:
                continue
            num, den, k = rn, rd, k // m
            break
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("ScaledScalar is immutable")

    @property
    def radicand(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def is_rational(self) -> bool:
        return self.k == 1

    def as_fraction(self) -> Fraction:
        if self.k != 1:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.num, self.den)

    def __float__(self) -> float:
        if self.k == 1:
            return self.num / self.den  # int true division rounds correctly
        return math.exp((math.log(self.num) - math.log(self.den)) / self.k)

    def __mul__(self, other: "ScaledScalar") -> "ScaledScalar":
        if not isinstance(other, ScaledScalar):
            return NotImplemented
        # num == den only for the value one, whose product is the other factor
        if self.num == self.den:
            return other
        if other.num == other.den:
            return self
        return self._times(other.num, other.den, other.k)

    def __truediv__(self, other: "ScaledScalar") -> "ScaledScalar":
        if not isinstance(other, ScaledScalar):
            return NotImplemented
        return self._times(other.den, other.num, other.k)

    def _times(self, num: int, den: int, k: int) -> "ScaledScalar":
        """self * (num/den)**(1/k) for coprime positive ints, over the common root index."""
        lcm = self.k * k // math.gcd(self.k, k)
        a, b = lcm // self.k, lcm // k
        # x**a is at least 2**(a * (x.bit_length() - 1))
        bits = max(a * (self.num.bit_length() - 1) + b * (num.bit_length() - 1),
                   a * (self.den.bit_length() - 1) + b * (den.bit_length() - 1))
        if bits >= RADICAND_BITS:
            raise SizeTooLarge(f"a radicand of a product would pass {RADICAND_BITS} bits")
        n = self.num**a * num**b
        d = self.den**a * den**b
        g = math.gcd(n, d)
        return ScaledScalar._reduced(n // g, d // g, lcm)

    def __pow__(self, j: int) -> "ScaledScalar":
        if j == 0:
            return ONE
        if j < 0:
            return ONE / self ** (-j)
        g = math.gcd(j, self.k)
        # the bound of _times: x**e is at least 2**(e * (x.bit_length() - 1))
        if j // g * (max(self.num.bit_length(), self.den.bit_length()) - 1) >= RADICAND_BITS:
            raise SizeTooLarge(f"a radicand of a power would pass {RADICAND_BITS} bits")
        return ScaledScalar._reduced(self.num ** (j // g), self.den ** (j // g), self.k // g)

    def root(self, j: int) -> "ScaledScalar":
        if j < 1:
            raise ValueError("root index must be >= 1")
        return ScaledScalar._reduced(self.num, self.den, self.k * j)

    def ratio_to(self, other: "ScaledScalar") -> int | Fraction | None:
        """self / other exactly, an int when integral, or None if irrational."""
        q = self / other
        if not q.is_rational:
            return None
        return q.num if q.den == 1 else Fraction(q.num, q.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledScalar):
            return NotImplemented
        return (self.num, self.den, self.k) == (other.num, other.den, other.k)

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.k))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"ScaledScalar({self.num}/{self.den})"
        return f"ScaledScalar({self.num}/{self.den}, k={self.k})"

    def to_obj(self) -> dict:
        return {"r": f"{self.num}/{self.den}", "k": self.k}

    @classmethod
    def from_obj(cls, obj: dict) -> "ScaledScalar":
        obj = _object(obj, "scale")
        return cls(obj["r"], obj.get("k", 1))


ONE = ScaledScalar(1)
