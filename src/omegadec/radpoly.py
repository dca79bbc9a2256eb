"""Polynomials with exact radical prefactors.

A RadPoly is a finite sum  s_1*q_1 + ... + s_r*q_r  where each s_c is a
positive ScaledScalar and each q_c a rational BlockPolynomial, with the s_c
pairwise incommensurable (no rational ratio). This is the closure needed to
contract decompositions whose local polynomials carry square or higher roots
while keeping every verification exact. Float-mode polynomials collapse to a
single numeric part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .blockpoly import FLOAT, RATIONAL, BlockPolynomial
from .errors import IncommensurableScales, _tolerance
from .scalars import ONE, ScaledScalar


class RadPoly:
    """Sum of radical-scaled block polynomials with a canonical merged form."""

    __slots__ = ("sites", "mode", "parts")

    def __init__(self, sites: Iterable[int], parts: Iterable[tuple[ScaledScalar, BlockPolynomial]] = (),
                 mode: str = RATIONAL):
        sites = tuple(sites)
        items = list(parts)
        for _, p in items:
            if p.sites != sites:
                raise ValueError(f"part sites {p.sites} differ from {sites}")
        acc = RadSum(sites, FLOAT if mode == FLOAT or any(p.mode == FLOAT for _, p in items)
                     else RATIONAL)
        for s, p in items:
            acc.add_part(s, p)
        acc.drop_zeros()
        self.sites = sites
        self.mode = acc.mode
        self.parts = acc.merged_parts()

    @classmethod
    def _trusted(cls, sites: tuple[int, ...], parts: tuple, mode: str) -> "RadPoly":
        """Wrap parts already in merged form: nonzero, pairwise incommensurable scales."""
        self = object.__new__(cls)
        self.sites = sites
        self.mode = mode
        self.parts = parts
        return self

    # constructors

    @classmethod
    def zero(cls, sites: Iterable[int], mode: str = RATIONAL) -> "RadPoly":
        return cls._trusted(tuple(sites), (), mode)

    @classmethod
    def from_poly(cls, p: BlockPolynomial) -> "RadPoly":
        return cls._trusted(p.sites, ((ONE, p),) if p.terms else (), p.mode)

    @classmethod
    def scaled_poly(cls, s: ScaledScalar, p: BlockPolynomial) -> "RadPoly":
        return cls(p.sites, [(s, p)], p.mode)

    @classmethod
    def coerce(cls, value) -> "RadPoly":
        if isinstance(value, RadPoly):
            return value
        if isinstance(value, BlockPolynomial):
            return cls.from_poly(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to RadPoly")

    # algebra

    def __add__(self, other: "RadPoly") -> "RadPoly":
        other = RadPoly.coerce(other)
        if self.sites != other.sites:
            raise ValueError("site mismatch")
        mode = FLOAT if FLOAT in (self.mode, other.mode) else RATIONAL
        return RadPoly(self.sites, list(self.parts) + list(other.parts), mode)

    def __neg__(self) -> "RadPoly":
        return RadPoly._trusted(self.sites, tuple((s, -p) for s, p in self.parts), self.mode)

    def __sub__(self, other: "RadPoly") -> "RadPoly":
        return self + (-RadPoly.coerce(other))

    def __mul__(self, other) -> "RadPoly":
        if isinstance(other, (BlockPolynomial, RadPoly)):
            other = RadPoly.coerce(other)
            parts = []
            for s1, p1 in self.parts:
                for s2, p2 in other.parts:
                    parts.append((s1 * s2, p1 * p2))
            mode = FLOAT if FLOAT in (self.mode, other.mode) else RATIONAL
            return RadPoly(self.sites, parts, mode)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, c) -> "RadPoly":
        """Multiply by a rational (or float) scalar of any sign."""
        parts = [(s, p.scaled(c)) for s, p in self.parts]
        if isinstance(c, float) and self.mode == RATIONAL:
            return RadPoly(self.sites, parts, self.mode)       # collapses to float mode
        return RadPoly._trusted(self.sites, tuple((s, p) for s, p in parts if p.terms), self.mode)

    def scale_mul(self, s: ScaledScalar) -> "RadPoly":
        """Multiply by a positive radical scalar, exactly."""
        parts = [(s * s0, p) for s0, p in self.parts]
        if self.mode == FLOAT:
            return RadPoly(self.sites, parts, self.mode)       # folds s into the coefficients
        return RadPoly._trusted(self.sites, tuple(parts), self.mode)

    def act(self, vperm: tuple[int, ...]) -> "RadPoly":
        return RadPoly._trusted(self.sites, tuple((s, p.act(vperm)) for s, p in self.parts),
                                self.mode)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other) -> bool:
        if other is self and self.mode == RATIONAL:     # a float NaN is unequal to itself
            return True
        if isinstance(other, BlockPolynomial):
            other = RadPoly.from_poly(other)
        if not isinstance(other, RadPoly):
            return NotImplemented
        if self.sites != other.sites:
            return False
        # Parts with equal scales in the same order compare part by part, since
        # distinct parts of one RadPoly carry incommensurable scales.
        if (self.mode == other.mode == RATIONAL
                and [s for s, _ in self.parts] == [s for s, _ in other.parts]):
            return all(p.terms == q.terms for (_, p), (_, q) in zip(self.parts, other.parts))
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.sites, self.mode, len(self.parts)))

    # extraction

    def as_polynomial(self) -> BlockPolynomial:
        """Plain polynomial form; raises if an irrational scale remains."""
        if not self.parts:
            return BlockPolynomial.zero(self.sites, self.mode)
        if len(self.parts) == 1:
            s, p = self.parts[0]
            if s == ONE:
                return p
            if s.is_rational:
                return p.scaled(s.as_fraction())
        raise IncommensurableScales(
            f"result has {len(self.parts)} radical part(s); use residual() or to_float()")

    def residual(self) -> tuple[ScaledScalar, BlockPolynomial]:
        """The (scale, polynomial) pair when exactly one radical part remains."""
        if len(self.parts) != 1:
            raise IncommensurableScales(f"{len(self.parts)} parts, expected 1")
        return self.parts[0]

    def collapse(self) -> BlockPolynomial:
        """The exact polynomial, or its float reading when irrational parts remain."""
        try:
            return self.as_polynomial()
        except IncommensurableScales:
            return self.to_float()

    def to_float(self) -> BlockPolynomial:
        acc = RadSum(self.sites, FLOAT)
        acc.add(self)
        return acc.result().as_polynomial()

    def allclose(self, other, tol: float = 1e-9) -> bool:
        other = RadPoly.coerce(other)
        return self.to_float().allclose(other.to_float(), tol)

    def matches(self, other: "RadPoly", tol: float = 1e-9) -> bool:
        """Equality when both sides are exact, else `allclose` within tol."""
        _tolerance(tol)
        if self.mode == other.mode == RATIONAL:
            return self == other
        return self.allclose(other, tol)

    def to_obj(self) -> list[dict]:
        """One entry per part: the polynomial, and its scale unless that is one."""
        out = []
        for s, p in self.parts:
            entry = {"poly": p.to_obj()}
            if s != ONE:
                entry["scale"] = s.to_obj()
            out.append(entry)
        return out

    def __repr__(self) -> str:
        if not self.parts:
            return f"RadPoly(sites={self.sites}, 0)"
        return "RadPoly(" + " + ".join(f"{s!r}*{p!r}" for s, p in self.parts) + ")"


_SHARED, _TUPLES, _CODED = range(3)     # how a RadSum part holds its terms


class RadSum:
    """A running sum of radical-scaled parts, merged in place.

    A part joins the first existing part with a commensurable scale, rescaled
    by the rational ratio of the two scales, and otherwise starts a new part at
    the end. `add(x)` followed by `result()` gives the parts, their order,
    their representative scales and their float summation order that
    `acc = acc + x` gives, without copying the whole sum at every step.

    A part is [scale, terms, state]. It shares the terms of the polynomial it
    came from (_SHARED) until something merges into it, then holds a private
    copy keyed by tuples (_TUPLES), shared again once `result()` hands it out,
    so a result is a snapshot that later merges leave alone. Once a site
    product merges into it, its keys are ints (_CODED): each site numbers its
    exponent blocks as they arrive, and a key is ``((n_0 << w | n_1) << w |
    n_2) ...``, w growing when a site outgrows it. Keys decode in insertion
    order, so the codes change no term, order or float bit.
    """

    __slots__ = ("sites", "mode", "parts", "codes", "width")

    def __init__(self, sites: tuple[int, ...], mode: str = RATIONAL):
        self.sites = sites
        self.mode = mode
        self.parts: list[list] = []
        self.codes: list[dict] = []     # per site: exponent block -> its number
        self.width = 0                  # the bits of each number in a coded key

    def add(self, x: RadPoly) -> None:
        """Add a RadPoly with the same sites; parts that cancel are dropped."""
        if x.sites != self.sites:
            raise ValueError("site mismatch")
        if x.mode == FLOAT:
            self._to_float()
        for s, p in x.parts:
            self.add_part(s, p)
        self.drop_zeros()

    def add_outer(self, factors, count: int = 1) -> None:
        """Add count times the product of single-site RadPoly factors, one per
        site, checked by the caller.

        The sum gets the terms, term order, parts, representative scales and
        float bits that adding the product as one RadPoly would give, but the
        product is not built: each term of the last site is multiplied into
        the product of the other sites and merged straight into the sum. The
        products of the part combinations of a factor with several radical
        parts are summed on their own first, as in the product RadPoly. A
        count above one multiplies each product coefficient once, exactly, so
        it stands for adding the product count times only where the order of
        additions cannot show: in an exact sum of one-part factors of scale
        one (see `contract_assignments`).
        """
        mode = FLOAT if any(f.mode == FLOAT for f in factors) else RATIONAL
        if mode == FLOAT:
            self._to_float()
        if any(f.is_zero() for f in factors):
            return
        combos: list[tuple[ScaledScalar, list[BlockPolynomial]]] = [(ONE, [])]
        for f in factors:
            combos = [(scale * s, polys + [p]) for scale, polys in combos for s, p in f.parts]
        acc = self if len(combos) == 1 else RadSum(self.sites, mode)
        for scale, polys in combos:
            acc._add_product(scale, polys, mode, count)
        acc.drop_zeros()
        if acc is not self:
            self.add(acc.result())

    def _to_float(self) -> None:
        """Switch to float mode, folding every part into one float part."""
        if self.mode == FLOAT:
            return
        old = self.merged_parts()
        self.mode, self.parts = FLOAT, []
        for s, p in old:
            self.add_part(s, p)
        self.drop_zeros()

    def add_part(self, s: ScaledScalar, p: BlockPolynomial) -> None:
        """Merge s*p; a part that cancels stays until `drop_zeros`."""
        self._add_product(s, [p], p.mode)

    def _add_product(self, scale: ScaledScalar, polys: list[BlockPolynomial], mode: str,
                     count: int = 1) -> None:
        """Merge count times scale times the product of polys, computed in mode.

        polys is one polynomial on the sites of the sum, or single-site
        factors, one per site. Each product coefficient is formed left to
        right from the first factor's, as `outer` forms it. An exact sum
        multiplies it once, by count times the rational ratio of scale to
        the part's scale. A float sum reads an exact product through
        `float`, drops a zero product and folds count times a scale in after
        the product, unless both are one. A part that cancels stays until
        `drop_zeros`.
        """
        if mode == FLOAT:
            polys = [p.astype_float() for p in polys]
        if not all(p.terms for p in polys):
            return
        float_sum = self.mode == FLOAT
        read = fold = None
        if float_sum:
            read = float if mode == RATIONAL else None
            fold = None if scale == ONE and count == 1 else float(scale) * count
            # a float sum holds at most one part, of scale one
            part, ratio, scale = (self.parts[0] if self.parts else None), 1, ONE
        else:
            part, ratio = self._commensurable(scale)
        if part is None:
            if len(polys) == 1 and read is None and fold is None and count == 1:
                self.parts.append([scale, polys[0].terms, _SHARED])
                return
            part, ratio = [scale, {}, _TUPLES], 1
            self.parts.append(part)
        elif part[2] == _SHARED:
            part[1], part[2] = dict(part[1]), _TUPLES
        ratio *= count
        products = (polys[0].terms.items() if len(polys) == 1 and part[2] == _TUPLES
                    else self._coded_products(part, polys))
        terms = part[1]
        for key, c in products:
            if float_sum:
                if read is not None:
                    c = read(c)
                if not c:
                    continue
                if fold is not None:
                    c = c * fold
                    if not c:
                        continue
            elif ratio != 1:
                c = c * ratio
            t = terms.get(key)
            if t is None:
                terms[key] = c
            elif t := t + c:
                terms[key] = t
            else:
                del terms[key]

    def _coded_products(self, part: list, polys: list[BlockPolynomial]):
        """The product terms of polys under coded keys, once part's keys are coded;
        each is formed as `_add_product` says, the first sites' prefix expanded once."""
        if not self.codes:
            self.codes = [{} for _ in self.sites]
        whole = [polys[0].terms] if len(polys) == 1 else []     # one polynomial on all sites
        for keys in whole + ([part[1]] if part[2] == _TUPLES else []):
            for key in keys:
                for codes, block in zip(self.codes, key):
                    codes.setdefault(block, len(codes))
        factors = [[(codes.setdefault(k[0], len(codes)), c) for k, c in p.terms.items()]
                   for codes, p in zip(self.codes, polys)] if not whole else None
        most = max(map(len, self.codes))
        if most > 1 << self.width:      # the coded parts go back to tuples until coded again
            for q in self.parts:
                if q[2] == _CODED:
                    q[1], q[2] = self._decoded(q[1]), _TUPLES
            self.width = most.bit_length()
        if part[2] == _TUPLES:
            part[1], part[2] = {self._code(k): c for k, c in part[1].items()}, _CODED
        if whole:
            return ((self._code(k), c) for k, c in whole[0].items())
        w, prefixes = self.width, factors[0]
        for factor in factors[1:-1]:
            prefixes = [(prefix << w | n, c0 * c) for prefix, c0 in prefixes for n, c in factor]
        return ((prefix << w | n, c0 * c) for prefix, c0 in prefixes for n, c in factors[-1])

    def _code(self, key: tuple) -> int:
        code = 0
        for codes, block in zip(self.codes, key):
            code = code << self.width | codes[block]
        return code

    def _decoded(self, terms: dict) -> dict:
        """Coded terms keyed by tuples again, in the same order."""
        w, mask, last = self.width, (1 << self.width) - 1, len(self.codes) - 1
        shifts = [w * (last - i) for i in range(last + 1)]
        columns = [[blocks[key >> s & mask] for key in terms]      # one per site
                   for blocks, s in zip(map(list, self.codes), shifts)]
        return dict(zip(zip(*columns), terms.values()))

    def _commensurable(self, s: ScaledScalar) -> tuple[list | None, int | Fraction | None]:
        """The part whose scale has a rational ratio to s, with that ratio.

        An integral ratio is an int, so integer coefficients merge in ints.

        The scales of the parts are pairwise incommensurable, so at most one
        part qualifies; an equal scale is the common case and the cheapest test.
        """
        for part in self.parts:
            if part[0] == s:
                return part, 1
        for part in self.parts:
            ratio = s.ratio_to(part[0])
            if ratio is not None:
                return part, ratio
        return None, None

    def drop_zeros(self) -> None:
        self.parts = [part for part in self.parts if part[1]]

    def merged_parts(self) -> tuple[tuple[ScaledScalar, BlockPolynomial], ...]:
        """The parts as polynomials. A private part's terms are handed out, not
        copied, and the part is marked shared, so a later merge copies them first."""
        for part in self.parts:
            if part[2] == _TUPLES:
                part[2] = _SHARED
        return tuple((s, BlockPolynomial._trusted(
            self.sites, self._decoded(terms) if state == _CODED else terms, self.mode))
            for s, terms, state in self.parts)

    def result(self) -> RadPoly:
        return RadPoly._trusted(self.sites, self.merged_parts(), self.mode)


def rad_outer(factors: Iterable) -> RadPoly:
    """Product of single-site RadPoly factors placed on consecutive sites."""
    factors = [RadPoly.coerce(f) for f in factors]
    if not factors:
        raise ValueError("empty factor list")
    if any(len(f.sites) != 1 for f in factors):
        raise ValueError("rad_outer expects single-site factors")
    acc = RadSum(tuple(f.sites[0] for f in factors))
    acc.add_outer(factors)
    return acc.result()
