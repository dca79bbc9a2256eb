"""Sampling-based approximate separable decompositions and polynomial norms.

Multi-homogeneous polynomials are measured by their supremum over products of
unit spheres, which the Gram picture bounds by the largest singular value of
any representing matrix. A normalized separable Gram witness can therefore be
replaced by an empirical mixture of a few of its terms: the sampling error in
Schatten-2 norm decays like the inverse square root of the number of draws,
so a fixed budget of order 1/eps^2 terms (times the group order after
symmetrization) suffices for any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blockpoly import BlockPolynomial, _real
from .decomposition import OmegaGDecomposition, symmetrize_average
from .errors import (
    ActionNotFree,
    DimensionMismatch,
    NotHomogeneous,
    NotInvariant,
    NotNormalized,
)
from .positivity import (
    DEFAULT_PSD_TOL,
    GramRepresentation,
    group_average,
    homogeneous_basis,
    is_gram_invariant,
    psd_floor,
    quadratic_form,
    real_array,
)
from .symmetry import SymmetryAction, is_free

MAUREY_CONSTANT = 8.0 * math.exp(4.0)


def sample_budget(epsilon: float) -> int:
    """Number of draws sufficient for Schatten-2 error epsilon: ceil(8e^4/eps^2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.ceil(MAUREY_CONSTANT / epsilon**2)


def multihomogeneous_degree(p: BlockPolynomial) -> int:
    """The uniform per-site degree, or raise if sites or terms disagree."""
    if p.is_zero():
        return 0
    degs = {p.site_degrees(key) for key in p.terms}
    flat = {d for tup in degs for d in tup}
    if len(flat) != 1:
        raise NotHomogeneous(f"per-site degrees {sorted(flat)} are not uniform")
    return flat.pop()


def homogenize(p: BlockPolynomial, d: int | None = None) -> BlockPolynomial:
    """Pad every site block with a leading variable absorbing the missing degree."""
    if d is None:
        d = p.local_degree()
    if d < p.local_degree():
        raise ValueError(f"target degree {d} below local degree {p.local_degree()}")
    sites = tuple(m + 1 for m in p.sites)
    terms = {}
    for key, coeff in p.terms.items():
        new_key = tuple((d - sum(block),) + block for block in key)
        terms[new_key] = coeff
    return BlockPolynomial(sites, terms, p.mode)


def _normalize_site(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        out = np.zeros_like(vec)
        out[0] = 1.0
        return out
    return vec / norm


def infinity_norm_lower(p: BlockPolynomial, samples: int = 512, seed: int = 0) -> float:
    """Certified lower bound on the sup of |p| over products of unit spheres.

    Random sphere points followed by at most 200 rounds of projected
    coordinate ascent with step halving; the returned value is attained at an
    explicit feasible point.
    """
    multihomogeneous_degree(p)
    if p.is_zero():
        return 0.0
    pf = p.astype_float()
    rng = np.random.default_rng(seed)

    def value(point: list[np.ndarray]) -> float:
        return abs(pf.evaluate([tuple(v) for v in point]))

    best_point = None
    best = -1.0
    for _ in range(samples):
        point = [_normalize_site(rng.normal(size=m)) for m in p.sites]
        v = value(point)
        if v > best:
            best, best_point = v, point
    step = 0.5
    for _ in range(200):
        improved = False
        for site in range(len(p.sites)):
            for var in range(p.sites[site]):
                for sign in (1.0, -1.0):
                    trial = [v.copy() for v in best_point]
                    trial[site][var] += sign * step
                    trial[site] = _normalize_site(trial[site])
                    v = value(trial)
                    if v > best:
                        best, best_point = v, trial
                        improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return float(best)


def _kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the per-site factors, site 0 outermost."""
    kron = mats[0]
    for F in mats[1:]:
        kron = np.kron(kron, F)
    return kron


def _trace_product(mats: Sequence[np.ndarray]) -> float:
    """Trace of the Kronecker product: the product of the factor traces."""
    tr = 1.0
    for F in mats:
        tr *= float(np.trace(F))
    return tr


class SeparableGram:
    """Gram matrix together with an explicit separable witness.

    The witness is a list of (weight, per-site PSD factors); the weighted
    Kronecker products must reconstruct the matrix.
    """

    def __init__(self, gram: GramRepresentation,
                 terms: Sequence[tuple[float, Sequence[np.ndarray]]]):
        self.gram = gram
        V = gram.n + 1
        clean = []
        for weight, factors in terms:
            weight = _real(weight, "witness weights")
            if weight <= 0:
                raise ValueError("witness weights must be positive")
            if len(factors) != V:
                raise DimensionMismatch(f"term needs {V} factors")
            mats = []
            for F in factors:
                F = real_array(F, "witness factors")
                if F.shape != (gram.D, gram.D):
                    raise DimensionMismatch(f"factor shape {F.shape} != {(gram.D, gram.D)}")
                if not np.allclose(F, F.T, atol=1e-10):
                    raise ValueError("witness factors must be symmetric")
                lo, bound = psd_floor(F, DEFAULT_PSD_TOL)
                if lo < bound:
                    raise ValueError("witness factors must be PSD")
                mats.append(0.5 * (F + F.T))
            clean.append((weight, mats))
        self.terms = clean
        recon = self.reconstruct()
        scale = 1.0 + float(np.abs(gram.entries).max(initial=0.0))
        if not np.allclose(recon, gram.entries, atol=1e-10 * scale):
            raise DimensionMismatch("witness does not reconstruct the Gram matrix")

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.gram.entries)
        for weight, mats in self.terms:
            out += weight * _kron(mats)
        return out

    def trace(self) -> float:
        """Witness trace: an upper bound on the separable normalization constant."""
        total = 0.0
        for weight, mats in self.terms:
            total += weight * _trace_product(mats)
        return total


@dataclass
class ApproxResult:
    decomposition: OmegaGDecomposition
    error_schatten2: float
    sample_budget: int
    index_budget: int
    terms_used: int
    approximant: np.ndarray

    def to_obj(self) -> dict:
        return {
            "budget": self.index_budget,
            "sample_budget": self.sample_budget,
            "terms_used": self.terms_used,
            "index_size": self.decomposition.index_size,
            "error_schatten2": self.error_schatten2,
        }


def _draw(sg: SeparableGram, total: float, k: int, rng: np.random.Generator) -> list:
    """(count, trace, factors) of each witness term in k draws weighted by weight * trace."""
    traces = [_trace_product(mats) for _, mats in sg.terms]
    probs = [weight * tr / total for (weight, _), tr in zip(sg.terms, traces)]
    counts = rng.multinomial(k, np.asarray(probs) / sum(probs))
    return list(zip(counts, traces, (mats for _, mats in sg.terms)))


def empirical_matrix_error(sg: SeparableGram, k: int, rng: np.random.Generator,
                           a: SymmetryAction | None = None) -> float:
    """Schatten-2 error of a k-draw empirical mixture of the witness terms."""
    M = sg.gram.entries
    total = sg.trace()
    N = sum(c * (total * _kron(mats) / tr) for c, tr, mats in _draw(sg, total, k, rng)) / k
    if a is not None:
        N = group_average(N, sg.gram, a)
    return float(np.linalg.norm(M - N))


def approx_separable(sg: SeparableGram, a: SymmetryAction, epsilon: float,
                     seed: int = 0) -> ApproxResult:
    """Invariant separable decomposition within epsilon of the witness matrix.

    Draws ceil(8e^4/eps^2) terms from the witness mixture (fewer terms are
    kept verbatim), averages, and symmetrizes over the free action. The index
    size is at most |G| times the draw budget, independent of the matrix
    dimension; the achieved Schatten-2 error is reported alongside.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not is_free(a):
        raise ActionNotFree("approximation requires a free action")
    gram = sg.gram
    V = gram.n + 1
    if a.complex.vertex_count != V:
        raise DimensionMismatch("action vertex count differs from witness")
    total = sg.trace()
    if total > 1.0 + 1e-12:
        raise NotNormalized(f"witness trace {total} exceeds 1")
    if not is_gram_invariant(gram, a, 1e-9):
        raise NotInvariant("witness matrix is not invariant under the action")

    k = sample_budget(epsilon)
    rng = np.random.default_rng(seed)
    if len(sg.terms) <= k:
        used = [(w, mats) for w, mats in sg.terms]
    else:
        used = [(c / k * (total / tr), mats) for c, tr, mats in _draw(sg, total, k, rng)
                if c > 0]

    N_hat = np.zeros_like(gram.entries)
    for w, mats in used:
        N_hat += w * _kron(mats)
    N = group_average(N_hat, gram, a)
    error = float(np.linalg.norm(gram.entries - N))

    basis = homogeneous_basis(gram.m, gram.d)
    poly_terms = []
    for w, mats in used:
        factors = [quadratic_form(F, basis, 1) for F in mats]
        factors[0] = factors[0].scaled(float(w))
        poly_terms.append(tuple(factors))
    dec = symmetrize_average(poly_terms, a)
    return ApproxResult(dec, error, k, k * len(a), len(used), N)
