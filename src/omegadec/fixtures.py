"""Stock instances used by the acceptance suite, tests, and CLI demos."""

from __future__ import annotations

from fractions import Fraction

from .blockpoly import BlockPolynomial
from .complexes import standard_complex
from .decomposition import OmegaGDecomposition
from .familycheck import LocalFamily
from .positivity import SosOmegaGDecomposition
from .radpoly import RadPoly
from .scalars import ScaledScalar
from .symmetry import SymmetryAction, build_action


def double_edge_swap_action() -> SymmetryAction:
    """Order-two action on the double edge: swap vertices and swap copies (free)."""
    c = standard_complex("double_edge")
    return build_action(c, [((1, 0), (1, 0))])


def double_edge_fixed_vertex_action() -> SymmetryAction:
    """Order-two action on the double edge fixing vertices, swapping copies."""
    c = standard_complex("double_edge")
    return build_action(c, [((0, 1), (1, 0))])


def single_edge_swap_action() -> SymmetryAction:
    """Order-two vertex swap on the single edge (blending, not free)."""
    c = standard_complex("single_edge")
    return build_action(c, [((1, 0), (0,))])


def circle_rotation_action(n: int) -> SymmetryAction:
    """Cyclic rotation on the circle with n vertices (free, not blending)."""
    c = standard_complex("circle", n)
    vperm = tuple((i + 1) % n for i in range(n))
    # facet k = {k, k+1} maps to facet k+1; single copy each
    mperm = tuple((k + 1) % n for k in range(n))
    return build_action(c, [(vperm, mperm)])


def simplex_full_symmetry_action(n: int) -> SymmetryAction:
    """Full permutation group on the simplex with n+1 vertices (blending)."""
    c = standard_complex("simplex", n)
    gens = []
    if n >= 1:
        transposition = tuple([1, 0] + list(range(2, n + 1)))
        cycle = tuple(list(range(1, n + 1)) + [0])
        gens = [(transposition, (0,)), (cycle, (0,))]
    return build_action(c, gens)


def quartic_target_polynomial() -> BlockPolynomial:
    """4 + 8xy + x^2 + y^2 + 4x^2y^2 on two single-variable sites."""
    return BlockPolynomial((1, 1), {
        ((0,), (0,)): 4,
        ((1,), (1,)): 8,
        ((2,), (0,)): 1,
        ((0,), (2,)): 1,
        ((2,), (2,)): 4,
    })


def _t(coeffs: dict) -> BlockPolynomial:
    return BlockPolynomial.univar({d: Fraction(c) for d, c in coeffs.items()})


def quartic_double_edge_decomposition() -> OmegaGDecomposition:
    """Exact index-2 invariant decomposition of the quartic target.

    The off-diagonal constants are square roots kept exact through radical
    scales: sqrt(15/8) and sqrt(8).
    """
    a = double_edge_swap_action()
    p11 = RadPoly.from_poly(_t({0: Fraction(1, 2), 2: 2}))
    p12 = RadPoly.scaled_poly(ScaledScalar(Fraction(15, 8), 2), _t({0: 1}))
    p22 = RadPoly.scaled_poly(ScaledScalar(8, 2), _t({1: 1}))
    site0 = {(1, 1): p11, (1, 2): p12, (2, 1): p12, (2, 2): p22}
    site1 = {(1, 1): p11, (1, 2): p12, (2, 1): p12, (2, 2): p22}
    return OmegaGDecomposition(a.complex, a, 2, (1, 1), {0: site0, 1: site1})


def squares_target_polynomial() -> BlockPolynomial:
    """x^2 + y^2 on two single-variable sites."""
    return BlockPolynomial((1, 1), {((2,), (0,)): 1, ((0,), (2,)): 1})


def squares_difference_pair() -> tuple[OmegaGDecomposition, OmegaGDecomposition]:
    """Single-edge difference pair: ((1+t^2)/sqrt2)^{x,y} minus ((1-t^2)/sqrt2)^{x,y}."""
    a = single_edge_swap_action()
    half = ScaledScalar(Fraction(1, 2), 2)
    plus = RadPoly.scaled_poly(half, _t({0: 1, 2: 1}))
    minus = RadPoly.scaled_poly(half, _t({0: 1, 2: -1}))
    q1 = OmegaGDecomposition(a.complex, a, 1, (1, 1), {0: {(1,): plus}, 1: {(1,): plus}})
    q2 = OmegaGDecomposition(a.complex, a, 1, (1, 1), {0: {(1,): minus}, 1: {(1,): minus}})
    return q1, q2


def squares_double_edge_decomposition() -> OmegaGDecomposition:
    """Index-2 invariant decomposition of x^2 + y^2 on the double edge."""
    a = double_edge_swap_action()
    t2 = _t({2: 1})
    one = _t({0: 1})
    site0 = {(1, 2): t2, (2, 1): one}
    site1 = {(2, 1): t2, (1, 2): one}
    return OmegaGDecomposition(a.complex, a, 2, (1, 1), {0: site0, 1: site1})


def sos_family_witness_double_edge() -> SosOmegaGDecomposition:
    """Index-3 family decomposition of the sos quartic on the double edge.

    Members reconstruct to sqrt2*(1+xy), x, y, sqrt2*(1+xy); the fourth-root
    entries make all products exact.
    """
    a = double_edge_swap_action()
    r4 = ScaledScalar(2, 4)       # 2**(1/4)
    r2 = ScaledScalar(2, 2)       # sqrt 2
    inv_r2 = ScaledScalar(Fraction(1, 2), 2)
    t = _t({1: 1})
    one = _t({0: 1})
    q0_site0 = {
        (1, 1): RadPoly.scaled_poly(r4, t),
        (1, 2): RadPoly.scaled_poly(inv_r2, one),
        (2, 1): RadPoly.from_poly(one),
    }
    q1_site0 = {
        (2, 1): RadPoly.scaled_poly(r2, t),
        (2, 2): RadPoly.scaled_poly(r4, t),
        (3, 3): RadPoly.scaled_poly(r4, one),
    }
    locals_ = {}
    for beta, poly in q0_site0.items():
        locals_[(0, 0, beta)] = poly
        locals_[(1, 0, beta[::-1])] = poly
    for beta, poly in q1_site0.items():
        locals_[(0, 1, beta)] = poly
        locals_[(1, 1, beta[::-1])] = poly
    return SosOmegaGDecomposition(a.complex, a, 3, (1, 1), (0, 1), locals_)


def planted_negative_family() -> LocalFamily:
    """Two 2x2 transfer matrices with clean diagonals but a negative mixed trace.

    Sizes: every single matrix has trace 0, both squares have trace 2, and the
    mixed product has trace -2, so the first violation sits at two sites with
    witness variables (0, 1).
    """
    a1 = ((1, 0), (0, -1))
    a2 = ((-1, 0), (0, 1))
    coeffs = tuple(tuple((a1[r][c], a2[r][c]) for c in range(2)) for r in range(2))
    return LocalFamily(2, 2, coeffs)


def nonnegative_family() -> LocalFamily:
    """All-nonnegative coefficients: no size can produce a negative entry."""
    coeffs = (((1, 0), (2, 1)), ((0, 1), (1, 2)))
    return LocalFamily(2, 2, coeffs)
