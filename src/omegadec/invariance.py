"""Invariance of polynomials under a group action."""

from __future__ import annotations

from .blockpoly import BlockPolynomial
from .errors import _tolerance
from .radpoly import RadPoly
from .symmetry import SymmetryAction


def is_invariant(p, a: SymmetryAction, tol: float = 1e-12) -> bool:
    """True iff every group element fixes p, by `RadPoly.matches` within tol."""
    _tolerance(tol)
    if isinstance(p, BlockPolynomial):
        p = RadPoly.from_poly(p)
    return all(p.act(a.vperm(g)).matches(p, tol) for g in range(len(a)))
