"""Invariance of polynomials under a group action."""

from __future__ import annotations

from .blockpoly import RATIONAL, BlockPolynomial
from .radpoly import RadPoly
from .symmetry import SymmetryAction


def is_invariant(p, a: SymmetryAction, tol: float = 1e-12) -> bool:
    """True iff every group element fixes p.

    Exact comparison for rational coefficients; coefficient-wise comparison
    within tol otherwise.
    """
    if isinstance(p, BlockPolynomial):
        p = RadPoly.from_poly(p)
    for g in range(len(a)):
        moved = p.act(a.vperm(g))
        if p.mode == RATIONAL:
            if not moved == p:
                return False
        elif not moved.allclose(p, tol):
            return False
    return True

