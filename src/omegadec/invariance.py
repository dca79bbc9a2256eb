"""Invariance of polynomials under a group action."""

from __future__ import annotations

from .blockpoly import RATIONAL, BlockPolynomial, _tolerance
from .radpoly import RadPoly
from .symmetry import SymmetryAction


def is_invariant(p, a: SymmetryAction, tol: float = 1e-12) -> bool:
    """True iff every group element fixes p, by `RadPoly.matches` within tol.

    An exact polynomial of one part is fixed by g exactly when every term,
    its key moved by g as `BlockPolynomial.act` moves it, finds itself in the
    same term dict, so no moved copy is built.
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
        move = q.key_move(vperm)
        if vperm != identity and any(terms.get(move(key)) != c for key, c in terms.items()):
            return False
    return True
