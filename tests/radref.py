"""Reference merges for the radical layer, written apart from the library's loop.

`RefSum.add_part` is the part merge `RadSum.add_part` ran before the product
loop took it over, and `ref_to_float` the chain of polynomial additions
`RadPoly.to_float` was. `ref_radpoly` builds a RadPoly from parts the way the
constructor does, and `ref_rad_outer` a product of single-site factors by
multiplying out every combination of parts with `outer`. `ref_act` and
`ref_rad_act` move terms as `act` did when it still merged colliding keys and
dropped zeros, and `ref_fold` sums as the folds did before they ran on
`RadSum`: `acc = acc + x` from the zero polynomial. Tests compare the library
with these part by part, term by term and float bit by float bit.
"""

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial, outer
from omegadec.radpoly import RadPoly
from omegadec.scalars import ONE


class RefSum:
    """A running sum of [scale, terms, private] parts, merged one part at a time.
    `cancelled` holds every key whose coefficient some merge took to zero."""

    def __init__(self, sites, mode=RATIONAL):
        self.sites, self.mode, self.parts = tuple(sites), mode, []
        self.cancelled = set()

    def add(self, x: RadPoly) -> None:
        if x.mode == FLOAT and self.mode == RATIONAL:
            old = self.result().parts
            self.mode, self.parts = FLOAT, []
            for s, p in old:
                self.add_part(s, p)
            self.drop_zeros()
        for s, p in x.parts:
            self.add_part(s, p)
        self.drop_zeros()

    def add_part(self, s, p: BlockPolynomial) -> None:
        """Merge s*p; a part that cancels stays until `drop_zeros`."""
        if p.is_zero():
            return
        if self.mode == FLOAT:
            if p.mode != FLOAT or s != ONE:
                p = p.astype_float().scaled(float(s))
                s = ONE
            part, ratio = (self.parts[0] if self.parts else None), 1
        else:
            part, ratio = self._commensurable(s)
        if part is None:
            self.parts.append([s, p.terms, False])
            return
        if not part[2]:
            part[1], part[2] = dict(part[1]), True
        terms = part[1]
        for key, c in p.terms.items():
            if ratio != 1:
                c = c * ratio
            t = terms.get(key)
            if t is None:
                terms[key] = c
            elif t := t + c:
                terms[key] = t
            else:
                del terms[key]
                self.cancelled.add(key)

    def _commensurable(self, s):
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

    def result(self) -> RadPoly:
        return RadPoly._trusted(self.sites, tuple(
            (s, BlockPolynomial._trusted(self.sites, terms, self.mode))
            for s, terms, _ in self.parts), self.mode)


def ref_radpoly(sites, parts, mode=RATIONAL) -> RadPoly:
    parts = list(parts)
    acc = RefSum(sites, FLOAT if mode == FLOAT or any(p.mode == FLOAT for _, p in parts)
                 else RATIONAL)
    for s, p in parts:
        acc.add_part(s, p)
    acc.drop_zeros()
    return acc.result()


def ref_to_float(x: RadPoly) -> BlockPolynomial:
    total = BlockPolynomial.zero(x.sites, FLOAT)
    for s, p in x.parts:
        total = total + p.astype_float().scaled(float(s))
    return total


def ref_rad_outer(factors) -> RadPoly:
    factors = [RadPoly.coerce(f) for f in factors]
    sites = tuple(f.sites[0] for f in factors)
    mode = FLOAT if any(f.mode == FLOAT for f in factors) else RATIONAL
    combos = [(ONE, [])]
    for f in factors:
        if f.is_zero():
            return RadPoly._trusted(sites, (), mode)
        combos = [(scale * s, polys + [p]) for scale, polys in combos for s, p in f.parts]
    return ref_radpoly(sites, [(scale, outer(polys)) for scale, polys in combos], mode)


def ref_act(p: BlockPolynomial, vperm) -> BlockPolynomial:
    terms = {}
    for key, c in p.terms.items():
        blocks = list(key)
        for i, gi in enumerate(vperm):
            blocks[gi] = key[i]
        moved = tuple(blocks)
        s = terms.get(moved)
        terms[moved] = c if s is None else s + c
    return BlockPolynomial._trusted(p.sites, {k: c for k, c in terms.items() if c}, p.mode)


def ref_rad_act(x: RadPoly, vperm) -> RadPoly:
    moved = ((s, ref_act(p, vperm)) for s, p in x.parts)
    return RadPoly._trusted(x.sites, tuple((s, p) for s, p in moved if p.terms), x.mode)


def ref_fold(sites, addends) -> RadPoly:
    acc = RadPoly(sites, ())
    for x in addends:
        acc = acc + x
    return acc


def structure(p):
    """The mode, then per part its scale and its terms in order, a float by its
    bits; a BlockPolynomial is read as one part of scale one."""
    parts = [(ONE, p)] if isinstance(p, BlockPolynomial) else p.parts
    return p.mode, [(s, [(k, type(c), c.hex() if isinstance(c, float) else c)
                         for k, c in q.terms.items()]) for s, q in parts]
