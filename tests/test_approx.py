"""Norms, separable witnesses, and the sampling approximation."""

import math
import warnings

import numpy as np
import pytest

from omegadec import standard_complex, trivial_action
from omegadec.approx import (
    SeparableGram,
    _draw,
    _kron_blocks,
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
    _real,
)
from omegadec.fixtures import (
    double_edge_swap_action,
    single_edge_swap_action,
    squares_target_polynomial,
)
from omegadec.positivity import (
    DEFAULT_PSD_TOL,
    GramRepresentation,
    group_average,
    homogeneous_basis,
    psd_floor,
    quadratic_forms,
    real_array,
)


def gram_map_homogeneous(g: GramRepresentation) -> BlockPolynomial:
    """The polynomial of the Gram matrix over homogenized per-site bases.

    Each site gets one extra leading variable absorbing the missing degree, so
    the result is multi-homogeneous of local degree 2d in m+1 variables.
    """
    return quadratic_forms(g.entries[None], homogeneous_basis(g.m, g.d), g.n + 1)[0]


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
    scaled_terms = [(3.0 * w, mats) for w, mats in zip(sg.weights, sg.factors)]
    scaled = SeparableGram(GramRepresentation(1, 2, 1, 3.0 * sg.gram.entries), scaled_terms)
    assert abs(scaled.trace() - 3.0 * sg.trace()) < 1e-9
    with pytest.raises(DimensionMismatch):
        SeparableGram(bell_gram(), list(zip(sg.weights, sg.factors)))


def test_mu_subadditive_on_combined_witness():
    a = _random_separable_witness(np.random.default_rng(4))
    b = _random_separable_witness(np.random.default_rng(5))
    combined = SeparableGram(
        GramRepresentation(1, 2, 1, a.gram.entries + b.gram.entries),
        list(zip(a.weights, a.factors)) + list(zip(b.weights, b.factors)))
    assert combined.trace() <= a.trace() + b.trace() + 1e-12


def test_sample_budget_values():
    assert sample_budget(1.0) == 437
    assert sample_budget(0.5) == math.ceil(8 * math.exp(4) / 0.25) == 1748


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
def test_epsilon_must_be_finite_and_positive(epsilon):
    sg = _random_separable_witness(np.random.default_rng(6))
    for call in (lambda: sample_budget(epsilon),
                 lambda: approx_separable(sg, double_edge_swap_action(), epsilon)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no division by zero draws on the way
            with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
                call()


def test_approx_verbatim_small_witness():
    action = double_edge_swap_action()
    sg = _random_separable_witness(np.random.default_rng(6))
    res = approx_separable(sg, action, 1.0, seed=0)
    assert res.terms_used == len(sg.weights)
    assert res.error_schatten2 < 1e-12
    assert res.decomposition.check_symmetry()


def test_approx_sampling_path():
    action = double_edge_swap_action()
    sg = _random_separable_witness(np.random.default_rng(8))
    res = approx_separable(sg, action, 10.0, seed=1)  # tiny budget forces draws
    assert res.terms_used < len(sg.weights)
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
                         [(2.0 * w, mats) for w, mats in zip(sg.weights, sg.factors)])
    with pytest.raises(NotNormalized):
        approx_separable(over, double_edge_swap_action(), 0.5)
    with pytest.raises(ValueError):
        approx_separable(sg, double_edge_swap_action(), 0.0)


def test_witness_factor_with_an_overflowing_trace_is_rejected():
    # not PSD, and its trace overflows: a floor of -inf once accepted it
    factor = np.diag([1e308, 1e308, -1e300, 1e308])
    with np.errstate(all="raise"), pytest.raises(ValueError, match="finite trace"):
        SeparableGram(GramRepresentation(0, 3, 1, np.eye(4)), [(1.0, [factor])])


# The per-term witness loops the stacked SeparableGram replaced: the reference
# its checks, products, traces, draws and sums must match bit for bit.

def kron_reference(mats):
    kron = mats[0]
    for F in mats[1:]:
        kron = np.kron(kron, F)
    return kron


def trace_product_reference(mats):
    tr = 1.0
    for F in mats:
        tr *= float(np.trace(F))
    return tr


class ReferenceGram:
    def __init__(self, gram, terms):
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

    def reconstruct(self):
        out = np.zeros_like(self.gram.entries)
        for weight, mats in self.terms:
            out += weight * kron_reference(mats)
        return out

    def trace(self):
        total = 0.0
        for weight, mats in self.terms:
            total += weight * trace_product_reference(mats)
        return total


def sequential_sum(values):
    """Python 3.11's sum: left to right from 0, without 3.12's compensation."""
    total = 0
    for v in values:
        total = total + v
    return total


def draw_reference(ref, total, k, rng):
    traces = [trace_product_reference(mats) for _, mats in ref.terms]
    probs = [weight * tr / total for (weight, _), tr in zip(ref.terms, traces)]
    counts = rng.multinomial(k, np.asarray(probs) / sequential_sum(probs))
    return list(zip(counts, traces, (mats for _, mats in ref.terms)))


def empirical_error_reference(ref, k, rng, a=None):
    M = ref.gram.entries
    total = ref.trace()
    N = sequential_sum(c * (total * kron_reference(mats) / tr)
                       for c, tr, mats in draw_reference(ref, total, k, rng)) / k
    if a is not None:
        N = group_average(N, ref.gram, a)
    return float(np.linalg.norm(M - N))


def approx_reference(ref, a, epsilon, seed):
    """(approximant, Schatten-2 error, terms used) of `approx_separable`."""
    total = ref.trace()
    k = sample_budget(epsilon)
    rng = np.random.default_rng(seed)
    if len(ref.terms) <= k:
        used = list(ref.terms)
    else:
        used = [(c / k * (total / tr), mats) for c, tr, mats in draw_reference(ref, total, k, rng)
                if c > 0]
    N_hat = np.zeros_like(ref.gram.entries)
    for w, mats in used:
        N_hat += w * kron_reference(mats)
    N = group_average(N_hat, ref.gram, a)
    return N, float(np.linalg.norm(ref.gram.entries - N)), len(used)


def random_witness(rng, V, m, d, count):
    """A normalized witness of count terms on V sites, swap-invariant for V = 2,
    its Gram matrix, and an action it is invariant under."""
    D = math.comb(m + d, d)
    raw = []
    for _ in range(count):
        fs = []
        for _ in range(V):
            A = rng.normal(size=(D, D))
            F = A @ A.T
            fs.append(F / np.trace(F))
        raw.append((float(rng.random()) + 0.1, fs))
    total = sum(w for w, _ in raw)
    terms = [(w / total, fs) for w, fs in raw]
    if V == 2:
        action = double_edge_swap_action()
        terms = [t for w, (f0, f1) in terms for t in ((w / 2, [f0, f1]), (w / 2, [f1, f0]))]
    else:
        action = trivial_action(standard_complex("simplex", V - 1))
    entries = np.zeros((D**V, D**V))
    for w, fs in terms:
        entries += w * kron_reference(fs)
    return terms, GramRepresentation(V - 1, m, d, entries), action


# (V, m, d, terms); D = comb(m + d, d) is 3 or 10. The V = 3 cases take more
# than one block of Kronecker products: two at D = 3, one per term at D = 10.
WITNESS_SHAPES = [(1, 2, 1, 30), (2, 2, 1, 40), (3, 2, 1, 1500),
                  (1, 2, 3, 40), (2, 2, 3, 25), (3, 2, 3, 3)]


@pytest.mark.parametrize("V,m,d,count", WITNESS_SHAPES)
def test_stacked_witness_matches_the_per_term_loops(V, m, d, count):
    terms, gram, action = random_witness(np.random.default_rng([V, d, count]), V, m, d, count)
    sg = SeparableGram(gram, terms)
    ref = ReferenceGram(gram, terms)
    assert (V < 3) == (len(list(_kron_blocks(sg.factors))) == 1)
    assert sg.reconstruct().tobytes() == ref.reconstruct().tobytes()
    total = ref.trace()
    assert sg.trace() == total

    counts, traces = _draw(sg, total, 500, np.random.default_rng(5))
    want = draw_reference(ref, total, 500, np.random.default_rng(5))
    assert counts.tolist() == [int(c) for c, _, _ in want]
    assert traces.tolist() == [tr for _, tr, _ in want]

    for k, a in ((50, None), (3000, action)):
        got = empirical_matrix_error(sg, k, np.random.default_rng(k), a)
        assert got == empirical_error_reference(ref, k, np.random.default_rng(k), a)

    # budget 44 keeps the smaller witnesses verbatim, budget 2 samples every one
    for epsilon in (10.0, 20.0):
        res = approx_separable(sg, action, epsilon, seed=3)
        N, error, used = approx_reference(ref, action, epsilon, 3)
        assert res.approximant.tobytes() == N.tobytes()
        assert res.error_schatten2 == error
        assert res.terms_used == used


def _asymmetric(F):
    F = F.copy()
    F[0, 1] += 1e-3
    return F


def _with(F, value):
    F = F.copy()
    F[1, 1] = value
    return F


def _plant(changes):
    """A mutation of a witness's term list: {term index: the term's new
    (weight, factors), as a function of its old weight and factors}."""
    def apply(terms):
        terms = list(terms)
        for t, change in changes.items():
            terms[t] = change(*terms[t])
        return terms
    return apply


NAN, INF = float("nan"), float("inf")
NOT_PSD = np.diag([1.0, -1.0, 1.0])
BAD_WITNESSES = {
    "bool weight": _plant({2: lambda w, fs: (True, fs)}),
    "string weight": _plant({2: lambda w, fs: ("0.125", fs)}),
    "nan weight": _plant({2: lambda w, fs: (NAN, fs)}),
    "zero weight": _plant({2: lambda w, fs: (0.0, fs)}),
    "negative weight": _plant({2: lambda w, fs: (-w, fs)}),
    "factor count": _plant({2: lambda w, fs: (w, fs[:1])}),
    "ragged factor": _plant(
        {2: lambda w, fs: (w, [[[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], fs[1]])}),
    "wrong-shape factor": _plant({2: lambda w, fs: (w, [fs[0], np.eye(4)])}),
    "wrong-shape list factor": _plant({2: lambda w, fs: (w, [fs[0], [[1.0, 0.0], [0.0, 1.0]]])}),
    "wrong-shape non-finite factor": _plant({2: lambda w, fs: (w, [np.full((2, 2), NAN), fs[1]])}),
    "string entry": _plant(
        {2: lambda w, fs: (w, [fs[0], [[str(x) for x in row] for row in fs[1].tolist()]])}),
    "nan entry in a list": _plant({2: lambda w, fs: (w, [_with(fs[0], NAN).tolist(), fs[1]])}),
    "infinite entry in an array": _plant({2: lambda w, fs: (w, [fs[0], _with(fs[1], INF)])}),
    "asymmetric factor": _plant({2: lambda w, fs: (w, [fs[0], _asymmetric(fs[1])])}),
    "non-PSD factor": _plant({2: lambda w, fs: (w, [NOT_PSD, fs[1]])}),
    "overflowing trace": _plant({2: lambda w, fs: (w, [fs[0], np.diag([1e308, 1e308, -1e300])])}),
    "asymmetric before non-finite": _plant(
        {2: lambda w, fs: (w, [_asymmetric(fs[0]), _with(fs[1], NAN)])}),
    "non-finite before asymmetric": _plant(
        {2: lambda w, fs: (w, [_with(fs[0], NAN), _asymmetric(fs[1])])}),
    "non-PSD before a later bad weight": _plant(
        {1: lambda w, fs: (w, [fs[0], NOT_PSD]), 3: lambda w, fs: (-w, fs)}),
    "asymmetric before a later string weight": _plant(
        {1: lambda w, fs: (w, [_asymmetric(fs[0]), fs[1]]), 3: lambda w, fs: ("x", fs)}),
    "wrong shape before a later asymmetric factor": _plant(
        {1: lambda w, fs: (w, [fs[0], np.eye(2)]),
         3: lambda w, fs: (w, [_asymmetric(fs[0]), fs[1]])}),
    "non-PSD after an earlier non-finite": _plant(
        {1: lambda w, fs: (w, [fs[0], _with(fs[1], INF)]), 2: lambda w, fs: (w, [NOT_PSD, fs[1]])}),
    "no reconstruction": _plant({2: lambda w, fs: (2.0 * w, fs)}),
}


def _outcome(build):
    try:
        build()
    except Exception as exc:    # the type and message are the result
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", list(BAD_WITNESSES))
def test_bad_witness_fails_like_the_per_term_loop(name):
    terms, gram, _ = random_witness(np.random.default_rng(21), 2, 2, 1, 3)
    bad = BAD_WITNESSES[name](terms)
    want = _outcome(lambda: ReferenceGram(gram, bad))
    assert want is not None
    assert _outcome(lambda: SeparableGram(gram, bad)) == want


def test_a_row_major_factor_list_reads_as_its_matrix():
    terms, gram, _ = random_witness(np.random.default_rng(21), 2, 2, 1, 3)
    flat = [(w, [F.ravel().tolist() for F in fs]) for w, fs in terms]
    sg, ref = SeparableGram(gram, flat), SeparableGram(gram, terms)
    assert np.array_equal(sg.factors, ref.factors) and np.array_equal(sg.weights, ref.weights)


@pytest.mark.parametrize("entries", [8, 10])
def test_a_factor_list_of_the_wrong_length_is_a_dimension_mismatch(entries):
    terms, gram, _ = random_witness(np.random.default_rng(21), 2, 2, 1, 3)
    w, fs = terms[1]
    terms[1] = (w, [fs[0], [0.0] * entries])
    with pytest.raises(DimensionMismatch, match=rf"factor shape \({entries},\) != \(3, 3\)"):
        SeparableGram(gram, terms)
