"""Sparse polynomials over site-blocked variables.

A polynomial lives in the tensor product of per-site polynomial rings: site i
owns a block of ``sites[i]`` variables, and every term records one exponent
vector per site. Coefficients are exact rationals or float64, chosen per
polynomial via ``mode``. An exact coefficient is an ``int`` when the
constructor or ``scaled`` sees an integral value and a ``Fraction`` otherwise,
so polynomials with integer coefficients multiply and add in machine ints; an
integral ``Fraction`` that Fraction arithmetic produces compares, hashes and
prints like the equal ``int``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Mapping

from .complexes import _integer
from .errors import IncompatibleBlockSizes

RATIONAL = "rational"
FLOAT = "float"

Key = tuple[tuple[int, ...], ...]


def _rational(c):
    """c as an exact rational, an int when integral and a Fraction otherwise.

    Every exact coefficient, tensor entry and scale radicand the library
    takes from outside is read here. A float is a TypeError, since it holds no
    exact rational: ``0.1`` is not read as its binary fraction. So is a bool:
    JSON ``true`` is not the number 1.
    """
    if type(c) is int:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError(f"{type(c).__name__} {c!r} in rational mode holds no exact rational")
    c = Fraction(c)
    return int(c) if c.denominator == 1 else c


def _real(c, what: str = "float coefficients") -> float:
    """c as a finite float.

    Every float coefficient, tensor entry, Gram entry and witness number the
    library takes from outside is read here. Only a real number is read: a
    bool or a string such as ``"1.5"`` is a TypeError, and a NaN or an
    infinity is a ValueError.
    """
    if type(c) is not float:    # the common case skips the slower ABC check
        if isinstance(c, bool) or not isinstance(c, numbers.Real):
            raise TypeError(f"{type(c).__name__} {c!r} in {what} is not a number")
        c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"{what} must be finite")
    return c


def _tolerance(tol: float) -> float:
    """tol, for a float comparison: a NaN tolerance is a ValueError, since
    every comparison with NaN is false and would let any difference through."""
    if math.isnan(tol):
        raise ValueError("tolerance must not be NaN")
    return tol


def _coerce_coeff(c, mode: str):
    return _real(c) if mode == FLOAT else _rational(c)


def _nonzero(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c}


class BlockPolynomial:
    """Immutable-by-convention sparse polynomial with per-site exponent blocks.

    The public constructor validates every key and coerces every coefficient.
    Arithmetic results are built with `_trusted` instead: their keys are
    already well formed, their coefficients are already int or Fraction
    (rational mode) or `float` (float mode), and each operation drops the zero
    coefficients it creates itself.
    """

    __slots__ = ("sites", "mode", "terms")

    def __init__(self, sites: Iterable[int], terms: Mapping[Key, object] | None = None,
                 mode: str = RATIONAL):
        sites = tuple(_integer(m, "variable count") for m in sites)
        if any(m < 0 for m in sites):
            raise ValueError("negative variable count")
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        clean: dict[Key, object] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(tuple(_integer(e, "exponent") for e in block) for block in key)
            if len(key) != len(sites):
                raise ValueError("term has wrong number of site blocks")
            for block, m in zip(key, sites):
                if len(block) != m or any(e < 0 for e in block):
                    raise ValueError(f"bad exponent block {block} for site width {m}")
            c = _coerce_coeff(coeff, mode)
            if key in clean:
                c = _coerce_coeff(clean[key] + c, mode)
            if c:
                clean[key] = c
            else:
                clean.pop(key, None)
        self.sites = sites
        self.mode = mode
        self.terms = clean

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
        if isinstance(c, float) and self.mode == RATIONAL:
            return self.astype_float().scaled(c)
        c = float(c) if self.mode == FLOAT else _coerce_coeff(c, RATIONAL)
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
        """Move the block at site i to site vperm[i]."""
        if len(vperm) != len(self.sites):
            raise IncompatibleBlockSizes("permutation length mismatch")
        for i, gi in enumerate(vperm):
            if self.sites[i] != self.sites[gi]:
                raise IncompatibleBlockSizes(
                    f"site {i} has {self.sites[i]} variables but site {gi} has {self.sites[gi]}")
        terms: dict[Key, object] = {}
        for key, c in self.terms.items():
            blocks = list(key)
            for i, gi in enumerate(vperm):
                blocks[gi] = key[i]
            moved = tuple(blocks)
            s = terms.get(moved)
            terms[moved] = c if s is None else s + c
        return BlockPolynomial._trusted(self.sites, _nonzero(terms), self.mode)

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
        mode = obj.get("mode", RATIONAL)
        terms = {}
        for t in obj.get("terms", []):
            # exponents are read before they group terms, since 1, 1.0 and true hash alike
            key = tuple(tuple(_integer(e, "exponent") for e in b) for b in t["exps"])
            # a JSON float is no exact rational: rational mode rejects it as the constructor does
            terms[key] = terms.get(key, 0) + _coerce_coeff(t["coeff"], mode)
        return cls(obj["sites"], terms, mode)

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
