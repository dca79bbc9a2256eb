"""Decomposition containers, contraction, constructions, rank oracle."""

import gc
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.complexes import build_complex, standard_complex
from omegadec.decomposition import (
    OmegaGDecomposition,
    _rank_exact,
    bipartite_rank,
    blending_difference,
    concat_sum,
    elementary_sum,
    from_elementary,
    label_assignments,
    pointwise_product,
    symmetric_indicator_split,
    symmetrize_average,
    symmetrize_free,
)
from omegadec.errors import (
    ActionNotBlending,
    ActionNotFree,
    IncompatibleBlockSizes,
    NotBipartite,
    NotConnected,
    NotInvariant,
    SearchSpaceTooLarge,
    SizeTooLarge,
)
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_swap_action,
    quartic_double_edge_decomposition,
    quartic_target_polynomial,
    simplex_full_symmetry_action,
    single_edge_swap_action,
    squares_double_edge_decomposition,
    squares_target_polynomial,
)
from omegadec.radpoly import RadPoly, rad_outer
from omegadec.scalars import ScaledScalar
from omegadec.symmetry import build_action, is_blending, trivial_action


def uni(coeffs):
    return BlockPolynomial.univar({d: Fraction(c) for d, c in coeffs.items()})


X2, ONE_P = uni({2: 1}), uni({0: 1})


def contract_dense(dec, limit=200_000):
    """Reference contraction: every global assignment, one chained sum."""
    c = dec.complex
    L = c.label_count
    if dec.index_size**L > limit:
        raise SearchSpaceTooLarge(f"{dec.index_size}**{L} assignments exceed {limit}")
    mode = FLOAT if any(p.mode == FLOAT for locs in dec.locals.values()
                        for p in locs.values()) else RATIONAL
    acc = RadPoly.zero(dec.site_vars, mode)
    positions = [c.label_positions_at(i) for i in range(c.vertex_count)]
    for alpha in product(range(1, dec.index_size + 1), repeat=L):
        factors = []
        for i in range(c.vertex_count):
            beta = tuple(alpha[p] for p in positions[i])
            loc = dec.locals.get(i, {}).get(beta)
            if loc is None:
                break
            factors.append(loc)
        else:
            acc = acc + rad_outer(factors)
    return acc.scale_mul(dec.scale ** c.vertex_count)


def test_from_elementary_double_edge():
    c = standard_complex("double_edge")
    dec = from_elementary([(X2, ONE_P), (ONE_P, X2)], c)
    assert dec.contract() == RadPoly.from_poly(squares_target_polynomial())
    assert dec.index_size == 2


def test_from_elementary_single_term_rank_one():
    c = standard_complex("circle", 3)
    dec = from_elementary([(X2, ONE_P, uni({1: 2}))], c)
    assert dec.index_size == 1
    expected = BlockPolynomial((1, 1, 1), {((2,), (0,), (1,)): 2})
    assert dec.contract() == RadPoly.from_poly(expected)


def test_from_elementary_nonzero_assignment_count():
    # on the 3-circle with 2 terms, only the 2 constant assignments survive
    c = standard_complex("circle", 3)
    terms = [(X2, ONE_P, ONE_P), (ONE_P, X2, uni({1: 1}))]
    dec = from_elementary(terms, c)
    positions = [c.label_positions_at(i) for i in range(3)]
    nonzero = 0
    for alpha in product((1, 2), repeat=c.label_count):
        betas = [tuple(alpha[p] for p in positions[i]) for i in range(3)]
        if all(beta in dec.locals.get(i, {}) for i, beta in enumerate(betas)):
            nonzero += 1
    assert nonzero == 2
    assert dec.contract() == elementary_sum(terms)


def test_from_elementary_requires_connected():
    c = build_complex([({0, 1}, 1), ({2, 3}, 1)])
    with pytest.raises(NotConnected):
        from_elementary([(X2, ONE_P, ONE_P, ONE_P)], c)


def test_contract_matches_dense_oracle():
    rng = np.random.default_rng(17)
    c = standard_complex("circle", 3)
    for _ in range(10):
        locals_ = {}
        for site in range(3):
            width = len(c.label_positions_at(site))
            mapping = {}
            for beta in product((1, 2), repeat=width):
                if rng.random() < 0.5:
                    mapping[beta] = uni({int(rng.integers(0, 3)): int(rng.integers(-2, 3)) or 1})
            if mapping:
                locals_[site] = mapping
        dec = OmegaGDecomposition(c, None, 2, (1, 1, 1), locals_,
                                  ScaledScalar(Fraction(1, 2), 3))
        assert dec.contract() == contract_dense(dec)


COMPLEXES = [("simplex", 0), ("simplex", 2), ("line", 1), ("line", 3), ("circle", 3),
             ("circle", 5), ("double_edge", 1), ("single_edge", 1)]


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_label_assignments_match_brute_force(data):
    kind, n = data.draw(st.sampled_from(COMPLEXES))
    c = standard_complex(kind, n)
    index_size = data.draw(st.integers(1, 3))
    positions = [c.label_positions_at(i) for i in range(c.vertex_count)]
    site_keys = []
    for pos in positions:
        grid = list(product(range(1, index_size + 1), repeat=len(pos)))
        site_keys.append(data.draw(st.lists(st.sampled_from(grid), unique=True)))
    want = []
    for alpha in product(range(1, index_size + 1), repeat=c.label_count):
        keys = tuple(tuple(alpha[p] for p in pos) for pos in positions)
        if all(k in stored for k, stored in zip(keys, site_keys)):
            want.append(keys)
    got = list(label_assignments(positions, c.label_count, index_size, site_keys))
    assert got == want


def test_contract_deep_circle():
    dec = from_elementary([[ONE_P] * 1100], standard_complex("circle", 1100))
    assert dec.contract() == RadPoly.from_poly(BlockPolynomial.constant((1,) * 1100, 1))


def test_contract_leaves_no_cyclic_garbage():
    terms = [[uni({k: 1}), ONE_P, uni({1: 2}), ONE_P] for k in range(3)]
    dec = from_elementary(terms, standard_complex("circle", 4))
    dec.contract()
    gc.collect()
    gc.disable()
    try:
        dec.contract()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scale_is_per_site():
    c = standard_complex("single_edge")
    dec = OmegaGDecomposition(c, None, 1, (1, 1),
                              {0: {(1,): ONE_P}, 1: {(1,): ONE_P}},
                              ScaledScalar(Fraction(1, 2), 2))
    # per-site factor (1/2)^(1/2) over two sites gives a global 1/2
    assert dec.contract() == RadPoly.from_poly(BlockPolynomial.constant((1, 1), Fraction(1, 2)))


def test_check_symmetry_detects_planted_violation():
    dec = squares_double_edge_decomposition()
    assert dec.check_symmetry()
    broken = OmegaGDecomposition(dec.complex, dec.action, 2, (1, 1), {
        0: dict(dec.locals[0]),
        1: {(2, 1): uni({2: 1}), (1, 2): uni({1: 5})},
    })
    assert not broken.check_symmetry()


def test_symmetrize_free_double_edge():
    a = double_edge_swap_action()
    terms = [(X2, ONE_P), (ONE_P, X2)]
    dec = symmetrize_free(terms, a)
    assert dec.index_size == 2 * len(terms)
    assert dec.contract() == elementary_sum(terms)
    assert dec.check_symmetry()


def test_symmetrize_average_trivial_group_matches_elementary():
    c = standard_complex("circle", 3)
    a = trivial_action(c)
    terms = [(X2, ONE_P, ONE_P), (uni({1: 1}), X2, ONE_P)]
    dec = symmetrize_average(terms, a)
    assert dec.index_size == len(terms)
    assert dec.contract() == elementary_sum(terms)


def test_symmetrize_free_rejects_non_invariant():
    a = double_edge_swap_action()
    with pytest.raises(NotInvariant):
        symmetrize_free([(X2, ONE_P)], a)


def test_symmetrize_free_requires_free_action():
    a = single_edge_swap_action()
    with pytest.raises(ActionNotFree):
        symmetrize_free([(X2, ONE_P), (ONE_P, X2)], a)


def test_symmetrize_free_circle_exact():
    rng = np.random.default_rng(5)
    a = circle_rotation_action(3)
    raw = []
    for _ in range(2):
        raw.append(tuple(uni({int(rng.integers(0, 3)): int(rng.integers(-2, 3)) or 1})
                         for _ in range(3)))
    closed = []
    for term in raw:
        for g in range(len(a)):
            moved = [None] * 3
            for i in range(3):
                moved[a.vertex_image(g, i)] = term[i]
            closed.append(tuple(moved))
    dec = symmetrize_free(closed, a)
    assert dec.contract() == elementary_sum(closed)
    assert dec.index_size <= len(a) * len(closed)
    assert dec.check_symmetry()


def test_blending_difference_single_edge():
    a = single_edge_swap_action()
    terms = [(X2, ONE_P), (ONE_P, X2)]
    q1, q2 = blending_difference(terms, a)
    assert (q1.contract() - q2.contract()) == elementary_sum(terms)
    assert q1.check_symmetry() and q2.check_symmetry()
    assert q2.local_count() > 0  # two sites: the subtracted part is needed


def test_blending_difference_even_site_count_drops_minus():
    a = simplex_full_symmetry_action(2)
    terms = [(X2, ONE_P, ONE_P), (ONE_P, X2, ONE_P), (ONE_P, ONE_P, X2)]
    q1, q2 = blending_difference(terms, a)
    assert q2.local_count() == 0
    assert q1.contract() == elementary_sum(terms)


def test_blending_difference_empty_terms():
    a = single_edge_swap_action()
    q1, q2 = blending_difference([], a)
    assert q1.local_count() == 0 and q2.local_count() == 0


@pytest.mark.parametrize("index_size,site_vars,message", [
    (-3, (1, 1), r"index_size -3 and site_vars \[1, 1\] must be >= 0"),
    (1, (-1, -1), r"index_size 1 and site_vars \[-1, -1\] must be >= 0"),
    (1, (1, -1), r"index_size 1 and site_vars \[1, -1\] must be >= 0"),
], ids=["index", "both-sites", "one-site"])
def test_negative_sizes_are_rejected_where_they_enter(index_size, site_vars, message):
    from omegadec.positivity import SosOmegaGDecomposition
    c = standard_complex("single_edge")
    with pytest.raises(ValueError, match=message):
        OmegaGDecomposition(c, None, index_size, site_vars, {})
    with pytest.raises(ValueError, match=message):
        SosOmegaGDecomposition(c, None, index_size, site_vars, (0,), {})
    # an index size of 0, which the blending build gives an empty term list,
    # and sites without variables stay valid
    assert OmegaGDecomposition(c, None, 0, (0, 0), {}).contract().is_zero()
    q1, q2 = blending_difference([], single_edge_swap_action())
    assert q1.index_size == q2.index_size == 0


def test_blending_scale_matches_stabilizer_count():
    """The orbit formula equals |Stab(0)|...|Stab(n)| times the realized vertex maps, times 2**n."""
    rng = random.Random(6)
    blending = 0
    for _ in range(120):
        n = rng.randint(0, 4)
        weight = rng.choice((1, 1, 2, 3)) if n <= 2 else 1
        c = build_complex([(range(n + 1), weight)])
        gens = [(rng.sample(range(n + 1), n + 1), rng.sample(range(weight), weight))
                for _ in range(rng.randint(1, 2))]
        a = build_action(c, gens)
        if not is_blending(a):
            continue
        blending += 1
        stabilizers = 1
        for i in range(n + 1):
            stabilizers *= sum(1 for g in range(len(a)) if a.vertex_image(g, i) == i)
        realized = len({a.vperm(g) for g in range(len(a))})
        q1, _ = blending_difference([[ONE_P] * (n + 1)], a)
        assert q1.scale == ScaledScalar(Fraction(1, 2**n * stabilizers * realized), n + 1)
    assert blending >= 30


def test_blending_requires_a_connected_complex():
    """Two disjoint edges, each swapped on its own: a blending action of order 4."""
    c = build_complex([({0, 1}, 1), ({2, 3}, 1)])
    a = build_action(c, [((1, 0, 2, 3), (0, 1)), ((0, 1, 3, 2), (0, 1))])
    assert len(a) == 4 and is_blending(a)
    with pytest.raises(NotConnected, match="^difference construction requires a connected"):
        blending_difference([tuple(ONE_P for _ in range(4))], a)


def test_blending_requires_blending_action():
    a = circle_rotation_action(5)
    terms = [tuple(ONE_P for _ in range(5))]
    with pytest.raises(ActionNotBlending):
        blending_difference(terms, a)


def test_indicator_split_brute_force():
    for n in range(4):
        split = symmetric_indicator_split(n)
        assert len(split) == 2**n
        for idx in product(range(n + 1), repeat=n + 1):
            total = sum(Fraction(sign) * np.prod([Fraction(vec[i]) for i in idx])
                        for sign, vec in split)
            expected = Fraction(2**n) if set(idx) == set(range(n + 1)) else Fraction(0)
            assert total == expected
    # n = 0 is the empty product of the general loop: one positive all-ones vector
    assert symmetric_indicator_split(0) == [(1, (1,))]
    with pytest.raises(SizeTooLarge):
        symmetric_indicator_split(9)
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        symmetric_indicator_split(-1)


def test_bipartite_rank_values():
    # oracle: determinant of [[4,0,1],[0,8,0],[1,0,4]] is 120, hence full rank 3
    assert bipartite_rank(quartic_target_polynomial()) == 3
    sq = BlockPolynomial((1, 1), {((0,), (0,)): 1, ((1,), (1,)): 2, ((2,), (2,)): 1})
    assert bipartite_rank(sq) == 3  # diagonal coefficient matrix, three nonzeros
    assert bipartite_rank(BlockPolynomial.zero((1, 1))) == 0
    assert bipartite_rank(squares_target_polynomial()) == 2
    with pytest.raises(NotBipartite):
        bipartite_rank(BlockPolynomial.zero((1, 1, 1)))
    f = quartic_target_polynomial().astype_float()
    assert bipartite_rank(f) == 3
    # numpy takes no max of the empty matrix of a float zero polynomial
    assert bipartite_rank(BlockPolynomial.zero((1, 1), FLOAT)) == 0


def fraction_rank(rows):
    """Rank by Gaussian elimination in Fractions, the elimination `_rank_exact` ran
    before it moved to fraction-free integer rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@pytest.mark.parametrize("seed", range(10))
def test_integer_rank_matches_the_fraction_elimination(seed):
    """300 seeded rational matrices per seed, built as products of a random
    m x r and r x n factor, so most are rank-deficient, with some columns
    zeroed so that elimination skips them; ints and Fractions mixed."""
    rng = random.Random(f"rank:{seed}")
    values = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 4)]
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        r = rng.randint(0, min(m, n))
        left = [[rng.choice(values) for _ in range(r)] for _ in range(m)]
        right = [[rng.choice(values) for _ in range(n)] for _ in range(r)]
        zeroed = set(rng.sample(range(n), rng.randint(0, n - 1)))
        rows = [[0 if j in zeroed else sum(a * right[k][j] for k, a in enumerate(row))
                 for j in range(n)] for row in left]
        assert _rank_exact(rows) == fraction_rank(rows) <= r
    assert _rank_exact([]) == fraction_rank([]) == 0


def test_integer_rank_of_the_distance_matrix():
    for m in (2, 3, 12, 40):
        rows = [[Fraction((i - j) ** 2) for j in range(m)] for i in range(m)]
        assert _rank_exact(rows) == fraction_rank(rows) == min(m, 3)


def test_concat_sum_and_pointwise_product():
    a = double_edge_swap_action()
    d1 = squares_double_edge_decomposition()
    d2 = quartic_double_edge_decomposition()
    s = concat_sum(d1, d2)
    assert s.index_size == d1.index_size + d2.index_size
    assert s.contract() == d1.contract() + d2.contract()
    assert s.action is not None and s.check_symmetry()
    p = pointwise_product(d1, d2)
    assert p.index_size == d1.index_size * d2.index_size
    assert p.contract() == d1.contract() * d2.contract()
    assert p.action is not None and p.check_symmetry()


def test_sum_and_product_of_scaled_decompositions():
    """Scaled summands fold their scales into the locals and stay exact.

    Two decompositions on one action keep it; a decomposition built without
    an action has the trivial group, and pairing with it gives the trivial group.
    """
    a = circle_rotation_action(3)
    d1 = symmetrize_free([(X2, ONE_P, ONE_P), (ONE_P, X2, ONE_P), (ONE_P, ONE_P, X2)], a)
    d2 = symmetrize_free([(uni({1: 1}), uni({1: 2}), uni({1: 3})),
                          (uni({1: 3}), uni({1: 1}), uni({1: 2})),
                          (uni({1: 2}), uni({1: 3}), uni({1: 1}))], a)
    plain = from_elementary([(X2, uni({0: 2}), uni({1: 1}))], a.complex)
    assert d1.scale == d2.scale == ScaledScalar(Fraction(1, 3), 3)
    assert len(plain.action) == 1 and plain.check_symmetry()
    for other, shared in ((d2, a), (plain, trivial_action(a.complex))):
        s = concat_sum(d1, other)
        assert s.scale == ScaledScalar(1, 1)
        assert s.contract() == d1.contract() + other.contract()
        p = pointwise_product(d1, other)
        assert p.contract() == d1.contract() * other.contract()
        for dec in (s, p):
            assert dec.action.elements == shared.elements
            assert dec.check_symmetry()


def test_contract_invariance_of_symmetrized_output():
    from omegadec.invariance import is_invariant
    a = double_edge_swap_action()
    terms = [(X2, ONE_P), (ONE_P, X2)]
    dec = symmetrize_free(terms, a)
    assert is_invariant(dec.contract(), a)


def old_is_invariant(p, a, tol=1e-12):
    """The invariance check that built every moved polynomial."""
    if isinstance(p, BlockPolynomial):
        p = RadPoly.from_poly(p)
    return all(p.act(a.vperm(g)).matches(p, tol) for g in range(len(a)))


@pytest.mark.parametrize("seed", range(60))
def test_is_invariant_matches_the_moved_polynomial_check(seed):
    from omegadec.invariance import is_invariant
    rng = random.Random(seed)
    a = rng.choice([double_edge_swap_action(), single_edge_swap_action(),
                    circle_rotation_action(3), circle_rotation_action(4),
                    simplex_full_symmetry_action(2)])
    V = a.complex.vertex_count
    kind = ("exact", "radical", "radicals", "float", "widths")[seed % 5]
    width = rng.randint(1, 2)
    sites = [width] * V
    if kind == "widths":    # widths that differ along an orbit, or one site too many
        sites = [rng.randint(1, 2) for _ in range(V + seed % 2)]
    mode = "float" if kind == "float" else "rational"
    values = [0.5, -1.0, 2.0] if mode == "float" else [Fraction(1, 2), -1, 2]

    def poly():
        keys = [tuple(tuple(rng.randint(0, 1) for _ in range(m)) for m in sites)
                for _ in range(rng.randint(1, 4))]
        q = BlockPolynomial(sites, {k: rng.choice(values) for k in keys}, mode)
        if kind != "widths" and rng.random() < 0.7:     # the group average is invariant
            q = sum((q.act(a.vperm(g)) for g in range(1, len(a))), q)
        return q

    p = RadPoly.from_poly(poly()) if kind != "radical" else \
        RadPoly.scaled_poly(ScaledScalar(2, 2), poly())
    if kind == "radicals":
        p = p + RadPoly.scaled_poly(ScaledScalar(3, 2), poly())
    for q in (p, p.as_polynomial() if kind in ("exact", "widths", "float") else p):
        try:
            want = old_is_invariant(q, a)
        except IncompatibleBlockSizes as e:
            with pytest.raises(IncompatibleBlockSizes, match=re.escape(str(e))):
                is_invariant(q, a)
        else:
            assert is_invariant(q, a) is want


def test_contract_work_guard():
    dec = quartic_double_edge_decomposition()
    with pytest.raises(SearchSpaceTooLarge):
        dec.contract(max_work=1)


def test_decomposition_json_round_trip():
    dec = quartic_double_edge_decomposition()
    again = OmegaGDecomposition.from_obj(dec.complex, dec.action, dec.to_obj())
    assert again.contract() == dec.contract()
    assert again.check_symmetry()
    assert again.to_obj() == dec.to_obj()


def test_contract_residual_scale_is_tagged():
    c = standard_complex("single_edge")
    dec = OmegaGDecomposition(c, None, 1, (1, 1),
                              {0: {(1,): uni({1: 1})}, 1: {(1,): ONE_P}},
                              ScaledScalar(2, 4))  # per-site 2**(1/4)
    scale, poly = dec.contract().residual()
    assert scale == ScaledScalar(2, 2)
    assert poly == BlockPolynomial((1, 1), {((1,), (0,)): 1})


def test_multi_part_local_round_trip():
    c = standard_complex("single_edge")
    mixed = (RadPoly.scaled_poly(ScaledScalar(2, 2), uni({1: 1}))
             + RadPoly.scaled_poly(ScaledScalar(3, 2), uni({0: 1})))
    dec = OmegaGDecomposition(c, None, 1, (1, 1),
                              {0: {(1,): mixed}, 1: {(1,): ONE_P}})
    again = OmegaGDecomposition.from_obj(c, None, dec.to_obj())
    assert again.locals[0][(1,)] == mixed
    assert again.contract() == dec.contract()
