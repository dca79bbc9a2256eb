"""Gram machinery, sos families, cones, factorizability, rank-chain moves."""

import math
import random
import time
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from omegadec.blockpoly import FLOAT, BlockPolynomial
from omegadec.decomposition import OmegaGDecomposition, _comb_power
from omegadec.errors import (
    FactorNotInCone,
    IncompatibleBlockSizes,
    LocalsNotAligned,
    MissingCertificate,
    MissingSquareSplits,
    NotFactorizable,
    NotInvariantPolynomial,
    NotPSD,
    SearchSpaceTooLarge,
    VertexOutOfRange,
)
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_fixed_vertex_action,
    double_edge_swap_action,
    quartic_target_polynomial,
    simplex_full_symmetry_action,
    single_edge_swap_action,
    sos_family_witness_double_edge,
    squares_double_edge_decomposition,
    squares_target_polynomial,
)
from omegadec.positivity import (
    GramRepresentation,
    SosFamily,
    assert_psd,
    SosOmegaGDecomposition,
    caratheodory_bound,
    cone_check,
    evidently_sos,
    factorizability_solve,
    family_symmetrize,
    gram_map,
    gram_symmetrize,
    group_average,
    homogeneous_basis,
    invariant_sos_family,
    is_gram_invariant,
    monomial_square_split,
    monomials_upto,
    psd_floor,
    psd_sqrt,
    quadratic_forms,
    sep_to_sos,
    separable_symmetrize,
    site_permuted,
    sos_to_plain,
)
from omegadec.radpoly import RadPoly
from omegadec.scalars import ScaledScalar
from omegadec.symmetry import SymmetryAction, trivial_action
from omegadec.complexes import WeightedComplex, build_complex, standard_complex
from omegadec.tensorbridge import TensorDecomposition, tensor_dec_to_poly_dec
from test_entry_checks import random_sos


def bell_gram():
    b = np.array([1.0, 0.0, 0.0, 1.0])
    return GramRepresentation(1, 1, 1, np.outer(b, b))


def matrix_pair_split(B: np.ndarray, D: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Write a D^2 x D^2 matrix as a sum of Kronecker products of D x D pairs."""
    R = B.reshape(D, D, D, D).transpose(0, 2, 1, 3).reshape(D * D, D * D)
    u, s, vt = np.linalg.svd(R)
    return [(math.sqrt(sv) * u[:, j].reshape(D, D), math.sqrt(sv) * vt[j, :].reshape(D, D))
            for j, sv in enumerate(s) if sv > 1e-10 * s[0]]


def quartic_gram():
    # x^2 + y^2 + 4(1+xy)^2 over the basis (1, t) per site
    m = np.array([[4.0, 0, 0, 4], [0, 1, 0, 0], [0, 0, 1, 0], [4, 0, 0, 4]])
    return GramRepresentation(1, 1, 1, m)


def _t(coeffs):
    return BlockPolynomial.univar({d: Fraction(c) for d, c in coeffs.items()})


def sos_family_witness_single_edge():
    """Index-4 family decomposition of the sos quartic on the single edge.

    Built from four vectors of norm 2**(1/4): a, b, c pairwise orthogonal,
    d orthogonal to b and c with <a, d> = 1.
    """
    a = single_edge_swap_action()
    r4 = ScaledScalar(2, 4)            # 2**(1/4)
    inv_r4 = ScaledScalar(Fraction(1, 2), 4)   # 2**(-1/4)
    t = _t({1: 1})
    one = _t({0: 1})
    # vec_a = r4*e1, vec_b = r4*e2, vec_c = r4*e3, vec_d = inv_r4*(e1+e4)
    k0 = {  # a + b t per slot
        (1,): RadPoly.scaled_poly(r4, one),
        (2,): RadPoly.scaled_poly(r4, t),
    }
    k1 = {  # c + d t per slot
        (1,): RadPoly.scaled_poly(inv_r4, t),
        (3,): RadPoly.scaled_poly(r4, one),
        (4,): RadPoly.scaled_poly(inv_r4, t),
    }
    locals_ = {}
    for beta, poly in k0.items():
        locals_[(0, 0, beta)] = poly
        locals_[(1, 0, beta)] = poly
    for beta, poly in k1.items():
        locals_[(0, 1, beta)] = poly
        locals_[(1, 1, beta)] = poly
    return SosOmegaGDecomposition(a.complex, a, 4, (1, 1), (0, 1), locals_)


def permutation_array_oracle(g, vperm):
    """perm[flat(K)] = flat(gK) where gK places site i's entry at vperm[i], one tuple at a time."""
    V = g.n + 1
    tuples = [tuple(K) for K in product(g.local_basis, repeat=V)]
    lookup = {mono: i for i, mono in enumerate(g.local_basis)}
    perm = np.empty(len(tuples), dtype=int)
    for flat, K in enumerate(tuples):
        gK = [None] * V
        for i, mono in enumerate(K):
            gK[vperm[i]] = mono
        pos = 0
        for mono in gK:
            pos = pos * g.D + lookup[mono]
        perm[flat] = pos
    return perm


def permuted_oracle(g, entries, vperm):
    perm = permutation_array_oracle(g, vperm)
    out = np.empty_like(entries)
    out[np.ix_(perm, perm)] = entries
    return out


@pytest.mark.parametrize("n,m,d", [(0, 2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1),
                                   (2, 2, 1), (3, 1, 1)])
def test_site_permutation_matches_index_tuple_oracle(n, m, d):
    # the full symmetric group on the simplex realizes every vertex permutation
    a = simplex_full_symmetry_action(n)
    rng = np.random.default_rng(100 * n + 10 * m + d)
    dim = math.comb(m + d, d) ** (n + 1)
    A = rng.normal(size=(dim, dim))
    g = GramRepresentation(n, m, d, A + A.T)
    perms = {a.vperm(h) for h in range(len(a))}
    assert len(perms) == math.factorial(n + 1)
    acc = np.zeros_like(g.entries)
    images = []
    for h in range(len(a)):
        vperm = a.vperm(h)
        expected = permuted_oracle(g, g.entries, vperm)
        assert np.array_equal(site_permuted(g.entries, g.D, vperm), expected)
        assert np.array_equal(g.permuted(vperm).entries, expected)
        acc += expected
        images.append(expected)
    assert np.array_equal(group_average(g.entries, g, a), acc / len(a))
    atol = 1e-9 * (1.0 + float(np.abs(g.entries).max()))
    assert is_gram_invariant(g, a) == all(np.allclose(x, g.entries, atol=atol) for x in images)
    assert is_gram_invariant(g, a) == (n == 0)
    assert is_gram_invariant(GramRepresentation(n, m, d, acc / len(a)), a)


def test_psd_floor_bound_uses_absolute_trace():
    assert psd_floor(np.diag([-1.0, 3.0]), 0.1) == (-1.0, -0.1 * 3.0)
    # a negative trace widens the floor by its absolute value, not narrows it
    assert psd_floor(np.diag([-3.0, 1.0]), 0.1) == (-3.0, -0.1 * 3.0)


# its trace overflows to inf, so a floor of -tol * (1 + |trace|) would be -inf
OVERFLOWING_TRACE = np.diag([1e308, 1e308, -1e300, 1e308])


def test_psd_floor_fails_closed_past_the_float_range():
    # a zero trace whose eigenvalues +-1.3e308 * sqrt(2) overflow
    overflowing_eigenvalues = np.array([[1.3e308, 1.3e308], [1.3e308, -1.3e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat in (OVERFLOWING_TRACE, overflowing_eigenvalues):
            with pytest.raises(ValueError, match="finite trace and finite eigenvalues"):
                psd_floor(mat, 1e-9)
        g = GramRepresentation(1, 1, 1, OVERFLOWING_TRACE)
        with pytest.raises(ValueError, match="finite trace"):
            assert_psd(g)
        with pytest.raises(ValueError, match="finite trace"):
            cone_check(gram_map(GramRepresentation(1, 1, 1, np.eye(4))),
                       "sos_with_certificate", g)


def test_monomial_order_graded_lex():
    assert monomials_upto(1, 2) == [(0,), (1,), (2,)]
    assert monomials_upto(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert monomials_upto(2, 2)[0] == (0, 0)
    assert len(monomials_upto(2, 2)) == 6


def test_gram_map_bell():
    p = gram_map(bell_gram())
    expected = BlockPolynomial((1, 1), {((0,), (0,)): 1.0, ((1,), (1,)): 2.0,
                                        ((2,), (2,)): 1.0}, FLOAT)
    assert p.allclose(expected, 1e-12)
    zero = GramRepresentation(1, 1, 1, np.zeros((4, 4)))
    assert gram_map(zero).is_zero()


def test_gram_fiber_family_same_polynomial():
    # adding alpha on the inner band and removing it from the corners keeps the map
    for alpha in (0.0, 1.0, -2.0):
        m = np.array([[1.0, 0, 0, 1 - alpha], [0, 0, alpha, 0],
                      [0, alpha, 0, 0], [1 - alpha, 0, 0, 1]])
        g = GramRepresentation(1, 1, 1, m)
        assert gram_map(g).allclose(gram_map(bell_gram()), 1e-12)


def test_gram_symmetrize_keeps_polynomial():
    a = double_edge_swap_action()
    g = quartic_gram()
    again = gram_symmetrize(g, a)
    assert np.allclose(again.entries, g.entries)  # already invariant

    # perturb within one monomial fiber to break invariance but not the map
    rng = np.random.default_rng(3)
    A = rng.normal(size=(9, 9))
    sym = A @ A.T
    inv = 0.5 * (sym + GramRepresentation(1, 1, 2, sym).permuted((1, 0)).entries)
    g2 = GramRepresentation(1, 1, 2, inv)
    tuples = g2.index_tuples()
    # find two distinct symmetric cell pairs with the same monomial
    target = {}
    move = None
    for r, Kr in enumerate(tuples):
        for s, Ks in enumerate(tuples):
            if r > s:
                continue
            mono = tuple(tuple(x + y for x, y in zip(br, bs)) for br, bs in zip(Kr, Ks))
            if mono in target and target[mono] != (r, s):
                move = (target[mono], (r, s))
                break
            target[mono] = (r, s)
        if move:
            break
    (r1, s1), (r2, s2) = move
    pert = inv.copy()
    for (rr, ss), sign in (((r1, s1), 1.0), ((r2, s2), -1.0)):
        pert[rr, ss] += 0.25 * sign
        if rr != ss:
            pert[ss, rr] += 0.25 * sign
        else:
            pert[rr, ss] += 0.25 * sign
    g3 = GramRepresentation(1, 1, 2, pert)
    assert gram_map(g3).allclose(gram_map(g2), 1e-9)
    sym3 = gram_symmetrize(g3, a)
    assert gram_map(sym3).allclose(gram_map(g2), 1e-9)
    for g_el in range(2):
        assert np.allclose(sym3.permuted(a.vperm(g_el)).entries, sym3.entries)


def test_gram_symmetrize_rejects_non_invariant_polynomial():
    a = double_edge_swap_action()
    m = np.zeros((4, 4))
    m[1, 1] = 1.0  # polynomial y^2, not swap invariant
    with pytest.raises(NotInvariantPolynomial):
        gram_symmetrize(GramRepresentation(1, 1, 1, m), a)


def test_invariant_sos_family_reconstructs():
    a = double_edge_swap_action()
    g = quartic_gram()
    fam = invariant_sos_family(g, a)
    assert fam.sum_squares().allclose(gram_map(g), 1e-9)
    assert fam.family_invariant(a, 1e-9)


def comparison_rules():
    """Each public float comparison rule, as a call at tolerance ``tol``."""
    from omegadec.invariance import is_invariant
    from omegadec.tensorbridge import DenseTensor, TensorDecomposition, psd_distance_factorization
    a = double_edge_swap_action()
    g = quartic_gram()
    fam = invariant_sos_family(g, a)
    p = gram_map(g)
    exact = squares_double_edge_decomposition()
    trivial = OmegaGDecomposition(exact.complex, trivial_action(exact.complex), 2, (1, 1),
                                  exact.locals)
    square = RadPoly.from_poly(squares_target_polynomial())
    edge = standard_complex("single_edge")
    return {
        "BlockPolynomial.allclose": lambda tol: p.allclose(p + p, tol),
        "psd_floor": lambda tol: psd_floor(-np.eye(2), tol),
        "is_gram_invariant": lambda tol: is_gram_invariant(g, a, tol),
        "SosFamily.family_invariant": lambda tol: fam.family_invariant(a, tol),
        "TensorDecomposition.check_psd": lambda tol: psd_distance_factorization(3).check_psd(tol),
        "RadPoly.matches": lambda tol: square.matches(square, tol),
        "is_invariant": lambda tol: is_invariant(square, a, tol),
        "check_symmetry": lambda tol: exact.check_symmetry(tol),
        "check_symmetry trivial group": lambda tol: trivial.check_symmetry(tol),
        "check_joint_symmetry":
            lambda tol: sos_family_witness_single_edge().check_joint_symmetry(tol),
        "TensorDecomposition.check_symmetry":
            lambda tol: TensorDecomposition("plain", edge, None, 1, 1,
                                            vectors={(0, (1,)): (1,)}).check_symmetry(tol),
        "empty TensorDecomposition.check_psd":
            lambda tol: TensorDecomposition("psd", edge, None, 1, 1,
                                            psd_mats={(0, 0): {}}).check_psd(tol),
        "DenseTensor.allclose":
            lambda tol: DenseTensor((0,), []).allclose(DenseTensor((0,), []), tol),
    }


COMPARISON_RULES = list(comparison_rules())


def test_nan_tolerance_is_rejected_by_every_comparison_rule():
    # each of these passed at a NaN tolerance, since every comparison with NaN is
    # false; the exact ones and the empty ones compared no float at all
    for check in comparison_rules().values():
        with pytest.raises(ValueError, match="tolerance must not be NaN"):
            check(float("nan"))


@pytest.mark.parametrize("rule", COMPARISON_RULES)
def test_infinite_or_negative_tolerance_is_rejected(rule):
    # an infinite bound held for every finite difference, so it passed anything;
    # a negative one failed equal sides
    check = comparison_rules()[rule]
    for tol in (float("inf"), -1e-9, -1.0):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            check(tol)
    check(0.0)


def test_invariant_sos_family_rank_one():
    a = double_edge_swap_action()
    fam = invariant_sos_family(bell_gram(), a)
    rows = []
    keys = sorted({k for q in fam.polys.values() for k in q.terms})
    for q in fam.polys.values():
        rows.append([q.terms.get(k, 0.0) for k in keys])
    assert np.linalg.matrix_rank(np.array(rows), tol=1e-9) == 1


# The sequential Gram-layer loops that the numpy kernels replaced, kept as oracles.
# The kernels add every coefficient in the same order, so they must give the same
# floats (compared with ==, not allclose) and the same invariance verdicts.

def quadratic_form_oracle(mat, basis, V):
    tuples = list(product(basis, repeat=V))
    terms: dict = {}
    for r, Kr in enumerate(tuples):
        for s, Ks in enumerate(tuples):
            coeff = mat[r, s]
            if coeff == 0.0:
                continue
            key = tuple(tuple(a + b for a, b in zip(mr, ms)) for mr, ms in zip(Kr, Ks))
            terms[key] = terms.get(key, 0.0) + coeff
    return BlockPolynomial((len(basis[0]),) * V, terms, FLOAT)


def members_oracle(g, root):
    """Row r of the root against the monomial vector, for every nonzero row."""
    tuples = g.index_tuples()
    polys = {}
    for r, K in enumerate(tuples):
        q = BlockPolynomial(g.sites, {Ks: root[r, s] for s, Ks in enumerate(tuples)
                                      if root[r, s] != 0.0}, FLOAT)
        if not q.is_zero():
            polys[K] = q
    return polys


def sum_squares_oracle(sites, members):
    acc = BlockPolynomial.zero(sites, FLOAT)
    for q in members.values():
        acc = acc + q * q
    return acc


def family_invariant_oracle(family, a, tol):
    """Compare the member at gK with the block-moved member at K, one member at a time."""
    for g in range(len(a)):
        vperm = a.vperm(g)
        for K in family.grid():
            gK = [None] * len(family.sites)
            for i, k in enumerate(K):
                gK[vperm[i]] = k
            if not family.member(tuple(gK)).allclose(family.member(K).act(vperm), tol):
                return False
    return True


def seeded_gram_and_root(n, m, d, seed, zeroed):
    """A PSD Gram matrix and its root; zeroed halves both (symmetrically for the matrix,
    with a zero row and negative zeros for the root)."""
    rng = np.random.default_rng([n, m, d, seed])
    dim = math.comb(m + d, d) ** (n + 1)
    A = rng.normal(size=(dim, dim)) * 10.0 ** rng.integers(-3, 4)
    M = A @ A.T
    root = psd_sqrt(M)
    if zeroed:
        keep = rng.random((dim, dim)) < 0.5
        M = M * (keep & keep.T)
        root = root * (rng.random((dim, dim)) < 0.5)
        root[rng.integers(dim)] = 0.0
    return GramRepresentation(n, m, d, M), root


def kernel_mismatches() -> list[tuple]:
    """The seeded cases where a kernel's terms differ from its oracle's, in value or order."""
    bad = []
    for (n, m, d), seed, zeroed in product([(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1),
                                            (2, 1, 1)], range(3), (False, True)):
        case = (n, m, d, seed, zeroed)
        g, root = seeded_gram_and_root(*case)
        ref = quadratic_form_oracle(g.entries, g.local_basis, n + 1)
        if list(gram_map(g).terms.items()) != list(ref.terms.items()):
            bad.append(("gram_map",) + case)
        # the approx factors: one site, homogeneous basis, a non-symmetric matrix
        basis = homogeneous_basis(m, d)
        F = root[:len(basis), :len(basis)]
        ref = quadratic_form_oracle(F, basis, 1)
        if list(quadratic_forms(F[None], basis, 1)[0].terms.items()) != list(ref.terms.items()):
            bad.append(("quadratic_form",) + case)
        family, members = SosFamily(g, root), members_oracle(g, root)
        if ([(K, q.terms) for K, q in family.polys.items()]
                != [(K, q.terms) for K, q in members.items()]):
            bad.append(("polys",) + case)
        if family.sum_squares().terms != sum_squares_oracle(g.sites, members).terms:
            bad.append(("sum_squares",) + case)
    return bad


def test_gram_kernels_give_the_oracle_floats():
    assert kernel_mismatches() == []


class _ShuffledBincount:
    """numpy, except that bincount adds its weights in a shuffled order.

    Reversing the order would not do: a symmetric matrix lists the entries of
    each coefficient as a palindrome in row-major order.
    """

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def bincount(indices, weights, minlength):
        order = np.random.default_rng(0).permutation(len(indices))
        return np.bincount(indices[order], weights[order], minlength)


def test_oracle_comparison_catches_a_reordered_bincount(monkeypatch):
    # a numpy whose bincount summed in another order would fail the test above
    import omegadec.positivity as positivity
    monkeypatch.setattr(positivity, "np", _ShuffledBincount())
    kinds = {case[0] for case in kernel_mismatches()}
    assert kinds == {"gram_map", "quadratic_form", "sum_squares"}


@pytest.mark.parametrize("action", [double_edge_swap_action(), circle_rotation_action(3)],
                         ids=["double-edge-swap", "c3-rotation"])
def test_family_invariant_matches_per_member_oracle(action):
    n = action.complex.vertex_count - 1
    rng = np.random.default_rng(n)
    verdicts = set()
    for m, d in ((1, 1), (1, 2), (2, 1)):
        dim = math.comb(m + d, d) ** (n + 1)
        g = GramRepresentation(n, m, d, np.eye(dim))
        A = rng.normal(size=(dim, dim))
        roots = [A, group_average(A, g, action)]
        roots += [roots[1] + scale * rng.normal(size=(dim, dim)) * (roots[1] != 0)
                  for scale in (1e-12, 1e-3)]
        mask = group_average((rng.random((dim, dim)) < 0.5) * 1.0, g, action) == 1.0
        roots += [root * mask for root in roots[1:]] + [np.zeros((dim, dim))]
        for root in roots:
            family = SosFamily(g, root)
            for tol in (0.5, 1e-9, 1e-14, 0.0):
                verdict = family.family_invariant(action, tol)
                assert verdict == family_invariant_oracle(family, action, tol), (m, d, tol)
                verdicts.add(verdict)
            # a negative tolerance is rejected, not compared
            with pytest.raises(ValueError, match="finite and >= 0"):
                family.family_invariant(action, -1.0)
    assert verdicts == {True, False}
    other = circle_rotation_action(3) if n == 1 else double_edge_swap_action()
    with pytest.raises(IncompatibleBlockSizes):
        SosFamily(GramRepresentation(n, 1, 0, np.eye(1)), np.eye(1)).family_invariant(other)


def test_gram_map_fails_closed_on_coefficient_overflow():
    M = np.zeros((4, 4))
    for r, s in ((0, 3), (1, 2)):
        M[r, s] = M[s, r] = 1e308       # all four add into the coefficient of xy
    g = GramRepresentation(1, 1, 1, M)
    assert np.isfinite(g.entries).all()
    with pytest.raises(ValueError, match="non-finite coefficient inf"):
        gram_map(g)


def test_sos_family_fails_closed_on_a_non_finite_root():
    # finite entries whose largest eigenvalue, and so the root, overflows: the
    # PSD check now rejects the eigenvalue before the root is taken
    g = GramRepresentation(1, 1, 1, np.full((4, 4), 1e308))
    with np.errstate(all="raise"), pytest.raises(ValueError, match="finite eigenvalues"):
        invariant_sos_family(g, double_edge_swap_action())


def test_invariant_sos_family_requires_psd():
    a = double_edge_swap_action()
    m = -np.eye(4)
    with pytest.raises(NotPSD):
        invariant_sos_family(GramRepresentation(1, 1, 1, m), a)


def test_hand_family_squares_to_target():
    for witness in (sos_family_witness_double_edge(), sos_family_witness_single_edge()):
        assert witness.check_joint_symmetry()
        assert witness.sum_squares() == RadPoly.from_poly(quartic_target_polynomial())


def test_family_symmetrize_theorem_path():
    from omegadec.positivity import psd_sqrt
    a = double_edge_swap_action()
    g = quartic_gram()
    fam = invariant_sos_family(g, a)
    B = psd_sqrt(g.entries)
    pieces = matrix_pair_split(B, 2)
    factors = {}
    basis = g.local_basis
    for j, (b0, b1) in enumerate(pieces):
        for k_idx, k in enumerate(basis):
            for site, mat in ((0, b0), (1, b1)):
                terms = {}
                for kp_idx, kp in enumerate(basis):
                    c = mat[k_idx, kp_idx]
                    if c != 0.0:
                        terms[(kp,)] = c
                factors[(site, k, j)] = BlockPolynomial((1,), terms, FLOAT)
    dec = family_symmetrize(fam, a, factors)
    assert dec.index_size == len(pieces) * 2
    assert dec.check_joint_symmetry()
    assert dec.sum_squares().to_float().allclose(gram_map(g), 1e-8)
    for K in fam.grid():
        assert dec.member(K).to_float().allclose(fam.member(K), 1e-8)
    # planted misalignment is caught
    bad = dict(factors)
    key = next(iter(bad))
    bad[key] = bad[key].scaled(3.0)
    with pytest.raises(LocalsNotAligned):
        family_symmetrize(fam, a, bad)


def test_separable_symmetrize():
    a = double_edge_swap_action()
    t2 = BlockPolynomial.univar({2: Fraction(1)})
    one = BlockPolynomial.univar({0: Fraction(1)})
    terms = [(t2, one), (one, t2)]
    dec = separable_symmetrize(terms, a)
    assert dec.index_size <= len(a) * len(terms)
    assert dec.contract() == RadPoly.from_poly(squares_target_polynomial())
    for mapping in dec.locals.values():
        for poly in mapping.values():
            for _, p in poly.parts:
                assert evidently_sos(p)
    with pytest.raises(FactorNotInCone):
        separable_symmetrize([(BlockPolynomial.univar({1: Fraction(1)}), one),
                              (one, BlockPolynomial.univar({1: Fraction(1)}))], a)
    # float(Fraction(-1, 10**400)) is -0.0, which is not below zero
    tiny = _t({2: 1, 0: Fraction(-1, 10**400)})
    assert evidently_sos(tiny) is False
    with pytest.raises(FactorNotInCone):
        separable_symmetrize([(tiny, tiny)], a)


def test_separable_symmetrize_circle():
    a = circle_rotation_action(3)
    t2 = BlockPolynomial.univar({2: Fraction(2)})
    one = BlockPolynomial.univar({0: Fraction(1)})
    raw = [(t2, one, one)]
    closed = []
    for term in raw:
        for g in range(len(a)):
            moved = [None] * 3
            for i in range(3):
                moved[a.vertex_image(g, i)] = term[i]
            closed.append(tuple(moved))
    dec = separable_symmetrize(closed, a)
    from omegadec.decomposition import elementary_sum
    assert dec.contract() == elementary_sum(closed)
    for mapping in dec.locals.values():
        for poly in mapping.values():
            for _, p in poly.parts:
                assert evidently_sos(p)


@pytest.mark.parametrize("index_size", [0, -1])
def test_factorizability_needs_an_index_size_of_at_least_one(index_size):
    fixed = double_edge_fixed_vertex_action()
    with pytest.raises(ValueError, match=f"index size must be >= 1, got {index_size}"):
        factorizability_solve(fixed, index_size)


def test_factorizability_examples():
    fixed = double_edge_fixed_vertex_action()
    sol = factorizability_solve(fixed, 2)
    assert sol is not None and sol.residual < 1e-10
    assert sol.counts[(1, 1)] == 1 and sol.counts[(1, 2)] == 2
    assert abs(sol.C(0, (1, 1)) - 1.0) < 1e-12
    assert abs(sol.C(0, (1, 2)) - 1 / math.sqrt(2)) < 1e-12

    free = double_edge_swap_action()
    sol2 = factorizability_solve(free, 3)
    assert sol2 is not None
    assert all(abs(v - 1.0) < 1e-12 for v in sol2.values.values())

    from omegadec.fixtures import simplex_full_symmetry_action
    s3 = simplex_full_symmetry_action(2)
    sol3 = factorizability_solve(s3, 2)
    assert sol3 is not None and sol3.residual < 1e-9


# the triangle of double edges, its vertices fixed and the two copies of every edge swapped
TRIANGLE_COMPLEX = {"n": 2, "facets": [{"vertices": [0, 1], "weight": 2},
                                       {"vertices": [1, 2], "weight": 2},
                                       {"vertices": [0, 2], "weight": 2}]}
TRIANGLE_ACTION = {"generators": [{"vertex_perm": [0, 1, 2],
                                   "multifacet_perm": [1, 0, 3, 2, 5, 4]}]}


def test_factorizability_of_the_swapped_triangle():
    """Infeasible at index sizes 2 and 3, and solved exactly at index size 1,
    where every assignment is counted once."""
    c = WeightedComplex.from_obj(TRIANGLE_COMPLEX)
    a = SymmetryAction.from_obj(c, TRIANGLE_ACTION)
    assert factorizability_solve(a, 2) is None
    assert factorizability_solve(a, 3) is None
    sol = factorizability_solve(a, 1)
    assert sol.residual == 0.0
    assert sol.values == {(i, (1, 1, 1, 1)): 1.0 for i in range(3)}
    assert sol.counts == {(1,) * 6: 1}


def test_factorizability_guard_builds_no_power():
    """10**6 labels at index size 10**6: the guard stops as the count passes the
    limit, where building 10**6 ** 10**6 alone took seconds."""
    c = build_complex([({0}, 10**6)])
    a = trivial_action(c)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge,
                       match=r"^1000000\*\*1000000 assignments exceed 10000000$"):
        factorizability_solve(a, 10**6)
    assert time.perf_counter() - start < 1.0


def test_sos_to_plain_exact_on_fixture():
    witness = sos_family_witness_double_edge()
    plain = sos_to_plain(witness)
    assert plain.index_size == witness.index_size**2
    assert plain.contract() == RadPoly.from_poly(quartic_target_polynomial())
    assert plain.check_symmetry()


def test_sep_to_sos_free_double_edge():
    sep = squares_double_edge_decomposition()
    sol = factorizability_solve(sep.action, sep.index_size)
    sos = sep_to_sos(sep, sol)
    assert sos.index_size == sep.index_size
    assert sos.check_joint_symmetry()
    assert sos.sum_squares().to_float().allclose(sep.contract().to_float(), 1e-9)


def test_sep_to_sos_trivial_group_single_local():
    c = standard_complex("single_edge")
    a = trivial_action(c)
    t2 = BlockPolynomial.univar({2: Fraction(3)})
    dec = OmegaGDecomposition(c, a, 1, (1, 1), {0: {(1,): t2}, 1: {(1,): t2}})
    sol = factorizability_solve(a, 1)
    sos = sep_to_sos(dec, sol)
    assert sos.sum_squares().to_float().allclose(dec.contract().to_float(), 1e-9)


def test_sep_to_sos_weighted_fixed_vertex():
    fixed = double_edge_fixed_vertex_action()
    t2 = BlockPolynomial.univar({2: Fraction(1)})
    one = BlockPolynomial.univar({0: Fraction(1)})
    locs = {(1, 1): t2, (1, 2): one, (2, 1): one}
    sep = OmegaGDecomposition(fixed.complex, fixed, 2, (1, 1),
                              {0: dict(locs), 1: dict(locs)})
    assert sep.check_symmetry()
    sol = factorizability_solve(fixed, 2)
    sos = sep_to_sos(sep, sol)
    assert sos.sum_squares().to_float().allclose(sep.contract().to_float(), 1e-9)


def test_sep_to_sos_rejects_a_splitting_of_another_action():
    """The swap and the fixed-vertex action act on one complex with the same
    keys; the swap's splitting (every C is 1) would reweight the fixed-vertex
    decomposition to 4 + x^2 y^2 where it contracts to 2 + x^2 y^2."""
    fixed = double_edge_fixed_vertex_action()
    t2 = BlockPolynomial.univar({2: Fraction(1)})
    one = BlockPolynomial.univar({0: Fraction(1)})
    locs = {(1, 1): t2, (1, 2): one, (2, 1): one}
    sep = OmegaGDecomposition(fixed.complex, fixed, 2, (1, 1), {0: dict(locs), 1: dict(locs)})
    swap_sol = factorizability_solve(double_edge_swap_action(), 2)
    with pytest.raises(ValueError, match="^splitting solved for a different action$"):
        sep_to_sos(sep, swap_sol)
    # an equal action built apart is the same action
    sos = sep_to_sos(sep, factorizability_solve(double_edge_fixed_vertex_action(), 2))
    assert sos.sum_squares().to_float().allclose(sep.contract().to_float(), 1e-9)


def test_sep_to_sos_errors():
    sep = squares_double_edge_decomposition()
    with pytest.raises(NotFactorizable):
        sep_to_sos(sep, None)
    odd = OmegaGDecomposition(sep.complex, sep.action, 1, (1, 1),
                              {0: {(1, 1): BlockPolynomial.univar({1: Fraction(1)})},
                               1: {(1, 1): BlockPolynomial.univar({1: Fraction(1)})}})
    sol = factorizability_solve(sep.action, 1)
    with pytest.raises(MissingSquareSplits):
        sep_to_sos(odd, sol)
    # the exact split rejects -10**-15; a float retry would drop it within 1e-12
    local = _t({2: 1, 0: Fraction(-1, 10**15)})
    tiny = OmegaGDecomposition(sep.complex, sep.action, 1, (1, 1),
                               {0: {(1, 1): local}, 1: {(1, 1): local}})
    assert tiny.check_symmetry()
    with pytest.raises(MissingSquareSplits, match="negative coefficient"):
        sep_to_sos(tiny, sol)


def test_sep_to_sos_checks_supplied_splits():
    sep = squares_double_edge_decomposition()
    sol = factorizability_solve(sep.action, sep.index_size)
    # the local at (0, (1, 2)) is t^2, and 5^2 is not
    with pytest.raises(MissingSquareSplits, match="does not square to its local"):
        sep_to_sos(sep, sol, {(0, (1, 2)): [_t({0: 5})]})
    with pytest.raises(MissingSquareSplits):
        sep_to_sos(sep, sol, {(0, (1, 2)): [BlockPolynomial.univar({1: 1.001}, "float")]})
    for split in ([_t({1: 1})], [BlockPolynomial.univar({1: -1.0}, "float")]):
        sos = sep_to_sos(sep, sol, {(0, (1, 2)): split})
        assert sos.sum_squares().to_float().allclose(sep.contract().to_float(), 1e-9)


def test_monomial_square_split():
    p = BlockPolynomial.univar({0: Fraction(1, 2), 2: Fraction(2)})
    taus = monomial_square_split(p)
    total = RadPoly.zero((1,))
    for tau in taus:
        total = total + tau * tau
    assert total == RadPoly.from_poly(p)


def test_monomial_square_split_float():
    """A float coefficient down to -1e-12 counts as zero; below that it is negative."""
    p = BlockPolynomial((1, 1), {((2,), (0,)): 4.0, ((0,), (2,)): -1e-13,
                                 ((2,), (4,)): 0.25}, FLOAT)
    taus = monomial_square_split(p)
    assert len(taus) == 2
    total = RadPoly.zero((1, 1))
    for tau in taus:
        total = total + tau * tau
    assert total.mode == FLOAT
    assert total.to_float().terms == {((2,), (0,)): 4.0, ((2,), (4,)): 0.25}
    with pytest.raises(MissingSquareSplits, match="negative coefficient"):
        monomial_square_split(BlockPolynomial((1, 1), {((2,), (0,)): -1e-11}, FLOAT))


def test_caratheodory_values():
    assert caratheodory_bound(1, 2, 1, 2) == 18
    assert caratheodory_bound(5, 0, 3, 1) == 1
    assert caratheodory_bound(2, 1, 2, 6) == 162


@pytest.mark.parametrize("m,d,g", [(1, 1, 1), (1, 1, 3), (2, 3, 7), (40, 40, 1), (0, 9, 10**4299)],
                         ids=["m1d1", "m1d1g3", "m2d3g7", "m40d40", "d0g10**4299"])
def test_caratheodory_bound_digit_limit(m, d, g):
    # the largest n whose bound has at most 4300 digits passes, n + 1 does not
    side, limit = math.comb(m + d, d), 10**4300
    n, bound = 0, g * side
    while side > 1 and bound * side < limit:
        n, bound = n + 1, bound * side
    assert caratheodory_bound(m, d, n, g) == bound < limit
    if side > 1:
        with pytest.raises(ValueError, match="more than 4300 digits"):
            caratheodory_bound(m, d, n + 1, g)
    with pytest.raises(ValueError, match="more than 4300 digits"):
        caratheodory_bound(m, d, n, 10**4300)


def test_comb_power_matches_math_comb():
    for m, d, n, limit in product(range(4), range(4), range(4), (1, 10, 10**4)):
        power = math.comb(m + d, d) ** (n + 1)
        assert _comb_power(m, d, n, limit) == (power if power <= limit else None)


def test_cone_check_modes():
    neg = BlockPolynomial((1,), {((2,),): -1.0}, FLOAT)
    assert cone_check(neg, "nn_coeff").ok is False
    pos = BlockPolynomial((1, 1), {((2,), (2,)): 3.0}, FLOAT)
    assert cone_check(pos, "nn_coeff").ok is True
    tiny = _t({2: 1, 0: Fraction(-1, 10**400)})      # float() of it reads -0.0
    assert cone_check(tiny, "nn_coeff").witness == ((0,),)
    assert cone_check(tiny, "nn_coeff").ok is False

    bell_poly = gram_map(bell_gram())
    verdict = cone_check(bell_poly, "sos_with_certificate", certificate=bell_gram())
    assert verdict.ok is True and verdict.verdict == "sos-certified"
    wrong = cone_check(pos.astype_float(), "sos_with_certificate", certificate=bell_gram())
    assert wrong.ok is False
    with pytest.raises(MissingCertificate):
        cone_check(bell_poly, "sos_with_certificate")

    found = cone_check(neg, "nonnegative_sampled", seed=1)
    assert found.ok is False and found.verdict == "counterexample-found"
    none_found = cone_check(pos, "nonnegative_sampled", seed=1)
    assert none_found.ok is None and none_found.verdict == "no-counterexample-found"


def test_gram_validation():
    from omegadec.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        GramRepresentation(1, 1, 1, np.zeros((3, 3)))
    asym = np.zeros((4, 4))
    asym[0, 1] = 1.0
    with pytest.raises(DimensionMismatch):
        GramRepresentation(1, 1, 1, asym)
    flat = GramRepresentation(1, 1, 1, [0.0] * 16)
    assert flat.entries.shape == (4, 4)
    again = GramRepresentation.from_obj(bell_gram().to_obj())
    assert np.allclose(again.entries, bell_gram().entries)
    with pytest.raises(ValueError):
        GramRepresentation(-1, 1, 1, [1.0])
    # the size check runs before any basis enumeration, so huge sizes fail fast
    for n, m, d in ((10**12, 1, 1), (0, 10**7, 10**7), (0, 1200, 1)):
        with pytest.raises(DimensionMismatch):
            GramRepresentation(n, m, d, [1.0])
    # a side of 2**31 has 2**62 entries, the most the check admits
    for n, m, d, message in ((30, 1, 1, "expected 2147483648x2147483648 entries"),
                             (31, 1, 1, "expected over 2\\*\\*62 entries"),
                             (0, 1, 2**31 - 1, "expected 2147483648x2147483648 entries"),
                             (0, 1, 2**31, "expected over 2\\*\\*62 entries")):
        with pytest.raises(DimensionMismatch, match=message):
            GramRepresentation(n, m, d, [1.0])


def monomials_upto_oracle(m, d):
    """Every exponent vector by growing prefixes, then sorted by degree and lexicographically."""
    out = [((), d)]
    for _ in range(m):
        out = [(prefix + (e,), left - e) for prefix, left in out for e in range(left + 1)]
    return sorted((prefix for prefix, _ in out), key=lambda a: (sum(a), a))


def test_monomials_upto_matches_prefix_oracle():
    for m in range(6):
        for d in range(6):
            assert monomials_upto(m, d) == monomials_upto_oracle(m, d), (m, d)


def test_monomials_upto_many_variables():
    basis = monomials_upto(1200, 1)
    assert len(basis) == 1201
    assert basis[0] == (0,) * 1200 and basis[1] == (0,) * 1199 + (1,)
    assert basis[-1] == (1,) + (0,) * 1199


def test_sos_family_requires_invariant_matrix():
    a = double_edge_swap_action()
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4))
    with pytest.raises(NotInvariantPolynomial):
        invariant_sos_family(GramRepresentation(1, 1, 1, A @ A.T), a)


def test_sos_decomposition_rejects_an_action_on_another_complex():
    c = standard_complex("double_edge")
    with pytest.raises(ValueError, match="action acts on a different complex"):
        SosOmegaGDecomposition(c, circle_rotation_action(3), 1, (1, 1), (0,), {})


@pytest.mark.parametrize("build", [
    lambda c, site_vars, locs: OmegaGDecomposition(
        c, None, 2, site_vars, {site: {beta: p} for (site, beta), p in locs.items()}),
    lambda c, site_vars, locs: SosOmegaGDecomposition(
        c, None, 2, site_vars, (0,),
        {(site, 0, beta): p for (site, beta), p in locs.items()}),
], ids=["plain", "sos"])
def test_decompositions_share_the_local_check(build):
    c = standard_complex("single_edge")
    one = BlockPolynomial.constant((1,), 1)
    with pytest.raises(IncompatibleBlockSizes,
                       match=r"local at site 0 has sites \(2,\), expected \(1,\)"):
        build(c, (1, 1), {(0, (1,)): BlockPolynomial.constant((2,), 1)})
    with pytest.raises(ValueError, match="one variable count per vertex"):
        build(c, (1,), {})
    with pytest.raises(ValueError, match="wrong arity"):
        build(c, (1, 1), {(0, (1, 1)): one})
    with pytest.raises(ValueError, match=r"outside 1\.\.2"):
        build(c, (1, 1), {(1, (3,)): one})
    with pytest.raises(VertexOutOfRange):
        build(c, (1, 1), {(2, (1,)): one})
    kept = build(c, (1, 1), {(0, (1,)): one, (1, (2,)): BlockPolynomial.zero((1,))})
    assert len(kept.locals) == 1


def test_sos_decomposition_rejects_member_values_no_member_reads():
    # each once made sos_to_plain(s).contract() differ from s.sum_squares()
    c = standard_complex("single_edge")
    x = BlockPolynomial.univar({1: 1})
    for k, poly in [(5, x), (5, BlockPolynomial.zero((1,)))]:
        with pytest.raises(ValueError, match="^member value 5 outside the range of site 0$"):
            SosOmegaGDecomposition(c, None, 1, (1, 1), (0,),
                                   {(0, 0, (1,)): x, (0, k, (1,)): poly, (1, 0, (1,)): x})
    with pytest.raises(ValueError, match="^a member range repeats a value$"):
        SosOmegaGDecomposition(c, None, 1, (1, 1), (0, 0),
                               {(0, 0, (1,)): x, (1, 0, (1,)): x})


def test_sos_to_plain_contracts_to_the_sum_of_squares():
    witnesses = [random_sos(random.Random(f"sos-plain-{seed}")) for seed in range(30)]
    witnesses += [sos_family_witness_double_edge(), sos_family_witness_single_edge()]
    for s in witnesses:
        assert sos_to_plain(s).contract().matches(s.sum_squares())


def psd_sos_out_of_member_order(seed):
    """The sos family of a float psd decomposition on the single edge whose
    matrix root has a zero entry at (0, 1): the build meets member value 1 of
    site 0 after values 2 and 3, where column 0 of the root reads them first."""
    rng = np.random.default_rng(seed)
    n = 4
    R = rng.uniform(0.5, 1.5, size=(n, n))
    B = (R + R.T) / 2 + 3 * np.eye(n)
    B[0, 1] = B[1, 0] = 0
    M = B @ B
    entries = {((r + 1,), (c + 1,)): float(M[r, c]) for r in range(n) for c in range(n)}
    a = single_edge_swap_action()
    return tensor_dec_to_poly_dec(TensorDecomposition("psd", a.complex, a, n, 1,
                                                      psd_mats={(0, 0): entries, (1, 0): entries}))


@pytest.mark.parametrize("seed", range(1, 6))
def test_sos_to_plain_sums_in_member_order(seed):
    """Locals given in reverse member order are stored, and summed by
    `sos_to_plain`, in member order, as those given in member order."""
    s = psd_sos_out_of_member_order(seed)
    assert all(list(by_k) == sorted(by_k, key=s.members.index) for by_k in s.locals.values())
    flat = [((site, k, beta), p) for site, by_k in s.locals.items()
            for k, mapping in by_k.items() for beta, p in mapping.items()]
    backwards = dict(sorted(flat, key=lambda kv: -s.members.index(kv[0][1])))
    reversed_ = SosOmegaGDecomposition(s.complex, s.action, s.index_size, s.site_vars,
                                       s.members, backwards, s.scale)
    assert {site: list(by_k) for site, by_k in reversed_.locals.items()} == \
        {site: list(by_k) for site, by_k in s.locals.items()}
    assert sos_to_plain(s).to_obj() == sos_to_plain(reversed_).to_obj()
