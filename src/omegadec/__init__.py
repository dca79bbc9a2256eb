"""Invariant decompositions of block polynomials over weighted simplicial complexes."""

from .blockpoly import FLOAT, RATIONAL, BlockPolynomial, outer
from .complexes import (
    WeightedComplex,
    build_complex,
    is_connected,
    multifacets_at,
    omega_value,
    standard_complex,
)
from .decomposition import (
    OmegaGDecomposition,
    bipartite_rank,
    blending_difference,
    concat_sum,
    elementary_sum,
    from_elementary,
    pointwise_product,
    symmetric_indicator_split,
    symmetrize_average,
    symmetrize_free,
)
from .invariance import is_invariant
from .radpoly import RadPoly, rad_outer
from .scalars import ONE, ScaledScalar
from .symmetry import (
    SymmetryAction,
    build_action,
    free_refinement,
    is_blending,
    is_free,
    linearizer,
    trivial_action,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPolynomial", "FLOAT", "RATIONAL", "outer",
    "WeightedComplex", "build_complex", "standard_complex", "multifacets_at",
    "is_connected", "omega_value",
    "OmegaGDecomposition", "bipartite_rank", "blending_difference", "concat_sum",
    "elementary_sum", "from_elementary", "pointwise_product",
    "symmetric_indicator_split", "symmetrize_average", "symmetrize_free",
    "is_invariant",
    "RadPoly", "rad_outer", "ONE", "ScaledScalar",
    "SymmetryAction", "build_action", "free_refinement", "is_blending",
    "is_free", "linearizer", "trivial_action",
    "__version__",
]
