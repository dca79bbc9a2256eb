"""Norms, separable witnesses, and the sampling approximation."""

import math

import numpy as np
import pytest

from omegadec.approx import (
    SeparableGram,
    approx_separable,
    empirical_matrix_error,
    homogenize,
    infinity_norm_lower,
    multihomogeneous_degree,
    sample_budget,
)
from omegadec.acceptance import _quadratic_form_matrix, _random_separable_witness
from omegadec.blockpoly import FLOAT, BlockPolynomial
from omegadec.errors import (
    ActionNotFree,
    DimensionMismatch,
    NotHomogeneous,
    NotNormalized,
)
from omegadec.fixtures import (
    double_edge_swap_action,
    single_edge_swap_action,
    squares_target_polynomial,
)
from omegadec.positivity import GramRepresentation, homogeneous_basis, quadratic_form


def gram_map_homogeneous(g: GramRepresentation) -> BlockPolynomial:
    """The polynomial of the Gram matrix over homogenized per-site bases.

    Each site gets one extra leading variable absorbing the missing degree, so
    the result is multi-homogeneous of local degree 2d in m+1 variables.
    """
    return quadratic_form(g.entries, homogeneous_basis(g.m, g.d), g.n + 1)


def gram_norm_bounds(g: GramRepresentation) -> tuple[float, float]:
    """(largest singular value, Schatten-2 norm) of the Gram matrix."""
    eigs = np.linalg.eigvalsh(g.entries)
    return float(np.abs(eigs).max(initial=0.0)), float(np.linalg.norm(g.entries))


def approximant_polynomial(result, gram: GramRepresentation) -> BlockPolynomial:
    """Homogeneous polynomial represented by the symmetrized approximant."""
    g = GramRepresentation(gram.n, gram.m, gram.d, result.approximant)
    return gram_map_homogeneous(g)


def test_homogenize_round_trip():
    p = squares_target_polynomial()
    h = homogenize(p)
    assert h.sites == (2, 2)
    assert multihomogeneous_degree(h) == 2
    # setting the padding variables to one recovers the original values
    assert h.evaluate([(1, 3), (1, 5)]) == p.evaluate([(3,), (5,)])
    with pytest.raises(NotHomogeneous):
        multihomogeneous_degree(BlockPolynomial((1, 1), {((2,), (0,)): 1, ((1,), (1,)): 1}))
    with pytest.raises(ValueError):
        homogenize(p, d=1)


def test_infinity_norm_examples():
    mono = BlockPolynomial((2, 2), {((2, 0), (2, 0)): 1.0}, FLOAT)
    assert abs(infinity_norm_lower(mono, samples=64, seed=0) - 1.0) < 1e-9
    assert infinity_norm_lower(BlockPolynomial.zero((2, 2), FLOAT)) == 0.0
    with pytest.raises(NotHomogeneous):
        infinity_norm_lower(BlockPolynomial((1, 1), {((2,), (0,)): 1.0,
                                                     ((0,), (0,)): 1.0}, FLOAT))


def bell_gram():
    b = np.array([1.0, 0.0, 0.0, 1.0])
    return GramRepresentation(1, 1, 1, np.outer(b, b))


def test_gram_norm_bounds_examples():
    sigma, s2 = gram_norm_bounds(bell_gram())
    assert abs(sigma - 2.0) < 1e-12 and abs(s2 - 2.0) < 1e-12
    ident = GramRepresentation(1, 1, 1, np.eye(4))
    sigma, s2 = gram_norm_bounds(ident)
    assert abs(sigma - 1.0) < 1e-12 and abs(s2 - 2.0) < 1e-12


def test_norm_chain_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(100):
        A = rng.normal(size=(4, 4))
        g = GramRepresentation(1, 1, 1, A @ A.T)
        sigma, s2 = gram_norm_bounds(g)
        assert sigma <= s2 + 1e-12
        p = gram_map_homogeneous(g)
        for _ in range(100):
            point = []
            for _ in range(2):
                v = rng.normal(size=2)
                point.append(tuple(v / np.linalg.norm(v)))
            assert abs(p.evaluate(point)) <= sigma + 1e-9


def test_homogeneous_monomial_vector_subnormalized():
    rng = np.random.default_rng(7)
    for m, d in ((1, 2), (2, 2), (2, 3)):
        basis = homogeneous_basis(m, d)
        for _ in range(200):
            v = rng.normal(size=m + 1)
            v /= np.linalg.norm(v)
            norm_sq = sum(np.prod([x**e for x, e in zip(v, mono)]) ** 2
                          for mono in basis)
            assert norm_sq <= 1.0 + 1e-12


def test_separable_gram_validation_and_trace():
    rng = np.random.default_rng(3)
    sg = _random_separable_witness(rng)
    assert abs(sg.trace() - 1.0) < 1e-9
    scaled_terms = [(3.0 * w, mats) for w, mats in sg.terms]
    scaled = SeparableGram(GramRepresentation(1, 2, 1, 3.0 * sg.gram.entries), scaled_terms)
    assert abs(scaled.trace() - 3.0 * sg.trace()) < 1e-9
    with pytest.raises(DimensionMismatch):
        SeparableGram(bell_gram(), sg.terms)


def test_mu_subadditive_on_combined_witness():
    a = _random_separable_witness(np.random.default_rng(4))
    b = _random_separable_witness(np.random.default_rng(5))
    combined = SeparableGram(
        GramRepresentation(1, 2, 1, a.gram.entries + b.gram.entries),
        list(a.terms) + list(b.terms))
    assert combined.trace() <= a.trace() + b.trace() + 1e-12


def test_sample_budget_values():
    assert sample_budget(1.0) == 437
    assert sample_budget(0.5) == math.ceil(8 * math.exp(4) / 0.25) == 1748


def test_approx_verbatim_small_witness():
    action = double_edge_swap_action()
    sg = _random_separable_witness(np.random.default_rng(6))
    res = approx_separable(sg, action, 1.0, seed=0)
    assert res.terms_used == len(sg.terms)
    assert res.error_schatten2 < 1e-12
    assert res.decomposition.check_symmetry()


def test_approx_sampling_path():
    action = double_edge_swap_action()
    sg = _random_separable_witness(np.random.default_rng(8))
    res = approx_separable(sg, action, 10.0, seed=1)  # tiny budget forces draws
    assert res.terms_used < len(sg.terms)
    assert res.decomposition.index_size <= res.index_budget
    assert res.decomposition.check_symmetry()
    # contraction matches the homogeneous polynomial of the symmetrized sample
    target = approximant_polynomial(res, sg.gram)
    assert res.decomposition.contract().to_float().allclose(target, 1e-8)
    for mapping in res.decomposition.locals.values():
        for poly in mapping.values():
            mat = _quadratic_form_matrix(poly.to_float())
            assert np.linalg.eigvalsh(mat).min() >= -1e-9 * (1.0 + np.trace(mat))


def test_empirical_error_shrinks_with_budget():
    action = double_edge_swap_action()
    sg = _random_separable_witness(np.random.default_rng(10))
    rng = np.random.default_rng(11)
    small = np.mean([empirical_matrix_error(sg, 50, rng, action) for _ in range(6)])
    large = np.mean([empirical_matrix_error(sg, 5000, rng, action) for _ in range(6)])
    assert large < small


def test_approx_preconditions():
    sg = _random_separable_witness(np.random.default_rng(12))
    with pytest.raises(ActionNotFree):
        approx_separable(sg, single_edge_swap_action(), 0.5)
    over = SeparableGram(GramRepresentation(1, 2, 1, 2.0 * sg.gram.entries),
                         [(2.0 * w, mats) for w, mats in sg.terms])
    with pytest.raises(NotNormalized):
        approx_separable(over, double_edge_swap_action(), 0.5)
    with pytest.raises(ValueError):
        approx_separable(sg, double_edge_swap_action(), 0.0)


def test_witness_factor_with_an_overflowing_trace_is_rejected():
    # not PSD, and its trace overflows: a floor of -inf once accepted it
    factor = np.diag([1e308, 1e308, -1e300, 1e308])
    with np.errstate(all="raise"), pytest.raises(ValueError, match="finite trace"):
        SeparableGram(GramRepresentation(0, 3, 1, np.eye(4)), [(1.0, [factor])])
