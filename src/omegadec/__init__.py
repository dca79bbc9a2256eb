"""Invariant decompositions of block polynomials over weighted simplicial complexes.

Each exported name loads its home module on first use; `import omegadec` loads none."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "blockpoly": ("BlockPolynomial", "FLOAT", "RATIONAL", "outer"),
    "complexes": ("WeightedComplex", "build_complex", "standard_complex", "multifacets_at",
                  "is_connected", "omega_value"),
    "decomposition": ("OmegaGDecomposition", "bipartite_rank", "blending_difference",
                      "concat_sum", "elementary_sum", "from_elementary", "pointwise_product",
                      "symmetric_indicator_split", "symmetrize_average", "symmetrize_free"),
    "invariance": ("is_invariant",),
    "radpoly": ("RadPoly", "rad_outer"),
    "scalars": ("ONE", "ScaledScalar"),
    "symmetry": ("SymmetryAction", "build_action", "free_refinement", "is_blending",
                 "is_free", "linearizer", "trivial_action"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
