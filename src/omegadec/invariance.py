"""Invariance of polynomials under a group action."""

from __future__ import annotations

from operator import itemgetter

from .blockpoly import RATIONAL, BlockPolynomial, _tolerance
from .radpoly import RadPoly
from .symmetry import SymmetryAction


def is_invariant(p, a: SymmetryAction, tol: float = 1e-12) -> bool:
    """True iff every group element fixes p, by `RadPoly.matches` within tol.

    An exact polynomial of one part is fixed by g exactly when every term,
    its key moved by g, finds itself in the same term dict, so no moved copy
    is built; a permutation of sites maps distinct keys to distinct keys.
    """
    _tolerance(tol)
    if isinstance(p, BlockPolynomial):
        p = RadPoly.from_poly(p)
    if p.mode != RATIONAL or len(p.parts) != 1:
        return all(p.act(a.vperm(g)).matches(p, tol) for g in range(len(a)))
    q = p.parts[0][1]
    terms = q.terms
    identity = tuple(range(len(q.sites)))
    for g in range(len(a)):
        vperm = a.vperm(g)
        q.check_vperm(vperm)
        if vperm == identity:
            continue
        # the moved key holds at site vperm[i] the block of site i; a permutation
        # other than the identity has two sites or more, so itemgetter gives a tuple
        moved = itemgetter(*sorted(range(len(vperm)), key=vperm.__getitem__))
        if any(terms.get(moved(key)) != c for key, c in terms.items()):
            return False
    return True
