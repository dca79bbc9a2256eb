"""Sparse polynomials over site-blocked variables.

A polynomial lives in the tensor product of per-site polynomial rings: site i
owns a block of ``sites[i]`` variables, and every term records one exponent
vector per site. Coefficients are exact rationals or float64, chosen per
polynomial via ``mode``. An exact coefficient is an ``int`` when the
constructor or ``scaled`` sees an integral value and a ``Fraction`` otherwise,
so polynomials with integer coefficients multiply and add in machine ints.
Scaling by a non-integral rational keeps that rule: it multiplies in ints and
gives an ``int`` exactly where the product is integral. An integral
``Fraction`` that other Fraction arithmetic produces compares, hashes and
prints like the equal ``int``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import itemgetter
from typing import Iterable

from .errors import IncompatibleBlockSizes, _integer, _object, _rational, _real, _tolerance

RATIONAL = "rational"
FLOAT = "float"

Key = tuple[tuple[int, ...], ...]


def _coerce_coeff(c, mode: str, what: str = "float coefficients"):
    return _real(c, what) if mode == FLOAT else _rational(c)


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


def _times_ratio(terms: dict, c: Fraction) -> dict:
    """Exact nonzero coefficients times a non-integral rational c, in ints."""
    p, q = c.numerator, c.denominator
    out = {}
    for k, v in terms.items():
        if type(v) is int:
            n = v * p
            out[k] = Fraction(n, q) if n % q else n // q
        else:
            v = Fraction(v.numerator * p, v.denominator * q)
            out[k] = v if v.denominator != 1 else v.numerator
    return out


class BlockPolynomial:
    """Immutable-by-convention sparse polynomial with per-site exponent blocks.

    The public constructor reads each key and coefficient of a mapping or of a
    sequence of pairs once, sums repeated keys where first seen, drops zeros last.
    Arithmetic results are built with `_trusted` instead: their keys are
    already well formed, their coefficients are already int or Fraction
    (rational mode) or `float` (float mode), and each operation drops the zero
    coefficients it creates itself.
    """

    __slots__ = ("sites", "mode", "terms")

    def __init__(self, sites: Iterable[int], terms: Mapping | Iterable | None = None,
                 mode: str = RATIONAL):
        sites = tuple(_integer(m, "variable count") for m in sites)
        if any(m < 0 for m in sites):
            raise ValueError("negative variable count")
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        clean: dict[Key, object] = {}
        # keys are read before they group terms, since 1, 1.0 and true hash alike
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms or ():
            key = tuple(tuple(_integer(e, "exponent") for e in block) for block in key)
            if len(key) != len(sites):
                raise ValueError("term has wrong number of site blocks")
            for block, m in zip(key, sites):
                if len(block) != m or any(e < 0 for e in block):
                    raise ValueError(f"bad exponent block {block} for site width {m}")
            c = _coerce_coeff(coeff, mode)
            # a sum of floats may overflow, and an integral sum of Fractions is an int
            clean[key] = _coerce_coeff(clean[key] + c, mode) if key in clean else c
        self.sites = sites
        self.mode = mode
        self.terms = _nonzero(clean)

    @classmethod
    def _trusted(cls, sites: tuple[int, ...], terms: dict, mode: str) -> "BlockPolynomial":
        """Wrap an already clean term dict: well-formed keys, no zeros, and int or
        Fraction (rational mode) or float (float mode) coefficients."""
        self = object.__new__(cls)
        self.sites = sites
        self.mode = mode
        self.terms = terms
        return self

    # construction helpers

    @classmethod
    def zero(cls, sites: Iterable[int], mode: str = RATIONAL) -> "BlockPolynomial":
        return cls(sites, {}, mode)

    @classmethod
    def constant(cls, sites: Iterable[int], c, mode: str = RATIONAL) -> "BlockPolynomial":
        sites = tuple(sites)
        key = tuple((0,) * m for m in sites)
        return cls(sites, {key: c}, mode)

    @classmethod
    def monomial(cls, sites: Iterable[int], key: Key, coeff=1,
                 mode: str = RATIONAL) -> "BlockPolynomial":
        return cls(sites, {key: coeff}, mode)

    @classmethod
    def univar(cls, coeffs: Mapping[int, object], mode: str = RATIONAL) -> "BlockPolynomial":
        """Single-site polynomial in one variable from {degree: coefficient}."""
        return cls((1,), {((d,),): c for d, c in coeffs.items()}, mode)

    def is_zero(self) -> bool:
        return not self.terms

    def astype_float(self) -> "BlockPolynomial":
        if self.mode == FLOAT:
            return self
        return BlockPolynomial._trusted(
            self.sites, _nonzero({k: float(c) for k, c in self.terms.items()}), FLOAT)

    # arithmetic

    def _common_mode(self, other: "BlockPolynomial") -> tuple["BlockPolynomial", "BlockPolynomial", str]:
        if self.mode == other.mode:
            return self, other, self.mode
        return self.astype_float(), other.astype_float(), FLOAT

    def __add__(self, other: "BlockPolynomial") -> "BlockPolynomial":
        if not isinstance(other, BlockPolynomial):
            return NotImplemented
        if self.sites != other.sites:
            raise IncompatibleBlockSizes(f"{self.sites} vs {other.sites}")
        a, b, mode = self._common_mode(other)
        terms = dict(a.terms)
        for key, c in b.terms.items():
            s = terms.get(key)
            if s is None:
                terms[key] = c
            elif s := s + c:
                terms[key] = s
            else:
                del terms[key]
        return BlockPolynomial._trusted(self.sites, terms, mode)

    def __neg__(self) -> "BlockPolynomial":
        return BlockPolynomial._trusted(self.sites, {k: -c for k, c in self.terms.items()},
                                        self.mode)

    def __sub__(self, other: "BlockPolynomial") -> "BlockPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BlockPolynomial):
            if self.sites != other.sites:
                raise IncompatibleBlockSizes(f"{self.sites} vs {other.sites}")
            a, b, mode = self._common_mode(other)
            terms: dict[Key, object] = {}
            for k1, c1 in a.terms.items():
                for k2, c2 in b.terms.items():
                    key = tuple(tuple(e1 + e2 for e1, e2 in zip(b1, b2))
                                for b1, b2 in zip(k1, k2))
                    c = c1 * c2
                    s = terms.get(key)
                    terms[key] = c if s is None else s + c
            return BlockPolynomial._trusted(self.sites, _nonzero(terms), mode)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, c) -> "BlockPolynomial":
        """The polynomial times c; a float c makes an exact polynomial a float one.

        An exact polynomial times a rational p/q, q > 1, multiplies in ints:
        an int coefficient v becomes v*p // q when q divides v*p, and a
        Fraction a/b the reduced (a*p)/(b*q). So a coefficient is an int
        exactly where it is integral, and since p is nonzero no zero arises.
        """
        if self.mode == FLOAT:
            c = float(c)
        elif isinstance(c, float):
            return self.astype_float().scaled(c)
        elif type(c := _rational(c)) is Fraction:
            return BlockPolynomial._trusted(self.sites, _times_ratio(self.terms, c), RATIONAL)
        return BlockPolynomial._trusted(
            self.sites, _nonzero({k: v * c for k, v in self.terms.items()}), self.mode)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockPolynomial):
            return NotImplemented
        return (self.sites == other.sites and self.mode == other.mode
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.sites, self.mode, frozenset(self.terms.items())))

    def allclose(self, other: "BlockPolynomial", tol: float = 1e-9) -> bool:
        """Coefficient-wise comparison with absolute+relative tolerance tol.

        False whenever either side holds a NaN or infinite coefficient.
        """
        bound = _tolerance(tol)
        if self.sites != other.sites:
            return False
        keys = set(self.terms) | set(other.terms)
        mags = [abs(float(c)) for c in self.terms.values()]
        mags += [abs(float(c)) for c in other.terms.values()]
        if not all(map(math.isfinite, mags)):
            return False
        bound *= 1.0 + max(mags, default=0.0)
        for key in keys:
            a = float(self.terms.get(key, 0))
            b = float(other.terms.get(key, 0))
            if abs(a - b) > bound:
                return False
        return True

    # queries

    def local_degree(self) -> int:
        """Largest per-site total degree appearing in any term."""
        best = 0
        for key in self.terms:
            for block in key:
                best = max(best, sum(block))
        return best

    def site_degrees(self, key: Key) -> tuple[int, ...]:
        return tuple(sum(block) for block in key)

    def evaluate(self, point: Iterable[Iterable]) -> object:
        """Value at a point given as one coordinate vector per site."""
        point = [tuple(v) for v in point]
        if len(point) != len(self.sites):
            raise ValueError("point has wrong number of site blocks")
        for vec, m in zip(point, self.sites):
            if len(vec) != m:
                raise ValueError("point block has wrong width")
        total = 0
        for key, coeff in self.terms.items():
            val = coeff
            for block, vec in zip(key, point):
                for e, x in zip(block, vec):
                    if e:
                        val = val * x**e
            total = total + val
        return total

    def act(self, vperm: tuple[int, ...]) -> "BlockPolynomial":
        """Move the block at site i to site vperm[i]. IncompatibleBlockSizes unless
        vperm permutes the sites, each onto one of equal width; so distinct keys
        stay distinct, and moving terms merges none of them."""
        n = len(self.sites)
        if len(vperm) != n:
            raise IncompatibleBlockSizes("permutation length mismatch")
        if sorted(vperm) != list(range(n)):
            raise IncompatibleBlockSizes(f"{tuple(vperm)} is not a permutation of {n} sites")
        for i, gi in enumerate(vperm):
            if self.sites[i] != self.sites[gi]:
                raise IncompatibleBlockSizes(
                    f"site {i} has {self.sites[i]} variables but site {gi} has {self.sites[gi]}")
        # itemgetter of two or more positions gives a tuple; a shorter key is its own image
        move = itemgetter(*sorted(range(n), key=vperm.__getitem__)) if n > 1 else tuple
        return BlockPolynomial._trusted(
            self.sites, {move(key): c for key, c in self.terms.items()}, self.mode)

    def sorted_terms(self) -> list[tuple[Key, object]]:
        """Terms ordered lexicographically on the concatenated exponent blocks."""
        return sorted(self.terms.items(), key=lambda kv: tuple(e for b in kv[0] for e in b))

    # serialization

    def to_obj(self) -> dict:
        terms = []
        for key, c in self.sorted_terms():
            coeff = float(c) if self.mode == FLOAT else str(Fraction(c))
            terms.append({"exps": [list(b) for b in key], "coeff": coeff})
        return {"sites": list(self.sites), "mode": self.mode, "terms": terms}

    @classmethod
    def from_obj(cls, obj: dict) -> "BlockPolynomial":
        obj = _object(obj, "polynomial")
        terms = (_object(t, "polynomial term") for t in obj.get("terms", []))
        return cls(obj["sites"], [(t["exps"], t["coeff"]) for t in terms],
                   obj.get("mode", RATIONAL))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"BlockPolynomial(sites={self.sites}, 0)"
        body = " + ".join(f"{c}*{key}" for key, c in self.sorted_terms()[:4])
        more = "" if len(self.terms) <= 4 else f" (+{len(self.terms) - 4} terms)"
        return f"BlockPolynomial(sites={self.sites}, {body}{more})"


def outer(factors: Iterable[BlockPolynomial]) -> BlockPolynomial:
    """Product of single-site polynomials placed on consecutive sites."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    mode = FLOAT if any(f.mode == FLOAT for f in factors) else RATIONAL
    sites = []
    for f in factors:
        if len(f.sites) != 1:
            raise ValueError("outer expects single-site factors")
        sites.append(f.sites[0])
    sites = tuple(sites)
    # expand site by site to keep intermediate sizes small
    # every key is new, since prefixes and blocks are distinct
    result: dict[tuple, object] = {(): _coerce_coeff(1, mode)}
    for f in factors:
        src = f.astype_float() if mode == FLOAT else f
        result = {prefix + (block,): c0 * c
                  for prefix, c0 in result.items() for (block,), c in src.terms.items()}
        if not result:
            break
    return BlockPolynomial._trusted(sites, _nonzero(result), mode)
