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
    OmegaError,
)
from .positivity import (
    DEFAULT_PSD_TOL,
    PSD_OUT_OF_RANGE,
    GramRepresentation,
    group_average,
    homogeneous_basis,
    is_gram_invariant,
    psd_floors,
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


# A block of Kronecker products holds at most this many floats (one product if
# a single one is larger), so the temporary does not grow with the witness.
_KRON_BLOCK = 1 << 20


def _kron_blocks(factors: np.ndarray):
    """(term slice, products) for consecutive blocks of a (terms, V, D, D) stack:
    each term's Kronecker product of its factors, site 0 outermost, left to right."""
    T, V, D, _ = factors.shape
    step = max(1, _KRON_BLOCK // D ** (2 * V))
    for start in range(0, T, step):
        block = factors[start:start + step]
        K = block[:, 0]
        for j in range(1, V):
            n = K.shape[1] * D
            K = (K[:, :, None, :, None] * block[:, j, None, :, None, :]).reshape(len(block), n, n)
        yield slice(start, start + len(block)), K


def _add_in_order(acc, rows):
    """acc plus each row in turn, left to right. np.sum (pairwise) and Python
    3.12's sum (compensated) add in other orders and move the last bits."""
    for row in rows:
        acc += row
    return acc


def _kron_sum(weights: np.ndarray, factors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out plus each term's weight times its Kronecker product, in term order."""
    for terms, K in _kron_blocks(factors):
        _add_in_order(out, weights[terms, None, None] * K)
    return out


# per-factor checks in the order they run; a factor fails at its first one
_FACTOR_ERRORS = (None, "witness factors must be finite", "witness factors must be symmetric",
                  PSD_OUT_OF_RANGE, "witness factors must be PSD")


def _check_factors(F: np.ndarray) -> None:
    """Raise the error of the first factor of a (factors, D, D) stack that is not
    finite, symmetric or PSD. eigvalsh sees only finite symmetric factors."""
    errors = np.where(np.isfinite(F).all(axis=(1, 2)), 0, 1)
    rest = np.flatnonzero(errors == 0)
    G = F[rest]
    Gt = G.swapaxes(1, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        # np.allclose(G, G.T, atol=1e-10), factor by factor
        symmetric = (np.abs(G - Gt) <= 1e-10 + 1e-5 * np.abs(Gt)).all(axis=(1, 2))
    errors[rest[~symmetric]] = 2
    rest = rest[symmetric]
    lo, bound, in_range = psd_floors(F[rest], DEFAULT_PSD_TOL)
    errors[rest] = np.where(in_range, np.where(lo < bound, 4, 0), 3)
    bad = np.flatnonzero(errors)
    if len(bad):
        raise ValueError(_FACTOR_ERRORS[errors[bad[0]]])


def _witness_factor(F, D: int) -> np.ndarray:
    """F as a (D, D) float array. The entries of a float array are checked with
    the whole stack; any other input is read entry by entry by `real_array`."""
    if not (isinstance(F, np.ndarray) and F.dtype.kind == "f"):
        F = real_array(F, "witness factors")
    F = np.asarray(F, dtype=float)
    if F.shape != (D, D):
        if not np.isfinite(F).all():
            raise ValueError(_FACTOR_ERRORS[1])
        raise DimensionMismatch(f"factor shape {F.shape} != {(D, D)}")
    return F


class SeparableGram:
    """Gram matrix together with an explicit separable witness.

    The witness is given as (weight, per-site PSD factors) terms, whose
    weighted Kronecker products must reconstruct the matrix. It is stored as
    `weights`, shape (terms,), and the symmetrized `factors`, one
    (terms, V, D, D) array.
    """

    def __init__(self, gram: GramRepresentation,
                 terms: Sequence[tuple[float, Sequence[np.ndarray]]]):
        self.gram = gram
        V, D = gram.n + 1, gram.D
        weights, flat = [], []
        # A term's error is raised only after every factor before it is checked,
        # so a bad witness fails at the same item as a term-by-term check.
        failed = None
        try:
            for weight, factors in terms:
                weight = _real(weight, "witness weights")
                if weight <= 0:
                    raise ValueError("witness weights must be positive")
                if len(factors) != V:
                    raise DimensionMismatch(f"term needs {V} factors")
                for F in factors:
                    flat.append(_witness_factor(F, D))
                weights.append(weight)
        except (TypeError, ValueError, OmegaError) as exc:
            failed = exc
        F = np.array(flat, dtype=float).reshape(-1, D, D)
        _check_factors(F)
        if failed is not None:
            raise failed
        self.weights = np.array(weights, dtype=float)
        self.factors = (0.5 * (F + F.swapaxes(1, 2))).reshape(len(weights), V, D, D)
        recon = self.reconstruct()
        scale = 1.0 + float(np.abs(gram.entries).max(initial=0.0))
        if not np.allclose(recon, gram.entries, atol=1e-10 * scale):
            raise DimensionMismatch("witness does not reconstruct the Gram matrix")

    def reconstruct(self) -> np.ndarray:
        return _kron_sum(self.weights, self.factors, np.zeros_like(self.gram.entries))

    def _term_traces(self) -> np.ndarray:
        """The trace of each term's Kronecker product: its factor traces multiplied in order."""
        traces = np.ones(len(self.weights))
        for j in range(self.factors.shape[1]):
            traces = traces * np.trace(self.factors[:, j], axis1=-2, axis2=-1)
        return traces

    def trace(self) -> float:
        """Witness trace: an upper bound on the separable normalization constant."""
        return _add_in_order(0.0, (self.weights * self._term_traces()).tolist())


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


def _draw(sg: SeparableGram, total: float, k: int, rng: np.random.Generator):
    """(counts, traces) of the witness terms in k draws weighted by weight * trace."""
    traces = sg._term_traces()
    probs = sg.weights * traces / total
    counts = rng.multinomial(k, probs / _add_in_order(0.0, probs.tolist()))
    return counts, traces


def empirical_matrix_error(sg: SeparableGram, k: int, rng: np.random.Generator,
                           a: SymmetryAction | None = None) -> float:
    """Schatten-2 error of a k-draw empirical mixture of the witness terms."""
    M = sg.gram.entries
    total = sg.trace()
    counts, traces = _draw(sg, total, k, rng)
    N = np.zeros_like(M)
    for terms, K in _kron_blocks(sg.factors):
        _add_in_order(N, counts[terms, None, None] * (total * K / traces[terms, None, None]))
    N = N / k
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
    if len(sg.weights) <= k:
        weights, factors = sg.weights, sg.factors
    else:
        counts, traces = _draw(sg, total, k, rng)
        drawn = counts > 0
        weights = (counts / k * (total / traces))[drawn]
        factors = sg.factors[drawn]

    N = group_average(_kron_sum(weights, factors, np.zeros_like(gram.entries)), gram, a)
    error = float(np.linalg.norm(gram.entries - N))

    basis = homogeneous_basis(gram.m, gram.d)
    poly_terms = []
    for w, mats in zip(weights.tolist(), factors):
        polys = [quadratic_form(F, basis, 1) for F in mats]
        polys[0] = polys[0].scaled(w)
        poly_terms.append(tuple(polys))
    dec = symmetrize_average(poly_terms, a)
    return ApproxResult(dec, error, k, k * len(a), len(weights), N)
