"""Tensor-polynomial correspondence and the separation instance families."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from omegadec import tensorbridge
from omegadec.blockpoly import BlockPolynomial
from omegadec.complexes import standard_complex
from omegadec.decomposition import bipartite_rank
from omegadec.errors import (
    DimensionMismatch,
    NotCanonicalForm,
    NotInvariant,
    SearchSpaceTooLarge,
    SizeTooLarge,
    VertexActionNotFree,
)
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_fixed_vertex_action,
    double_edge_swap_action,
)
from omegadec.positivity import cone_check
from omegadec.tensorbridge import (
    DenseTensor,
    TensorDecomposition,
    distance_matrix,
    distance_nn_lower_bound,
    nn_rank_upper_bound,
    nn_starts,
    poly_dec_to_tensor_dec,
    poly_from_tensor,
    polygon_slack,
    psd_distance_factorization,
    separations_report,
    tensor_dec_to_poly_dec,
    tensor_from_poly,
    tensor_positivity,
)


def numeric_rank(mat, rel_tol=1e-8):
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rel_tol * s[0]).sum())


def contract_dense(td):
    """Reference contraction: every assignment times every entry.

    psd assigns an index pair (v1, v2) to every label, the pairs enumerated
    label by label; site i then reads matrix (i, j) at the assignments of the
    first and of the second halves.
    """
    c = td.complex
    V, L = c.vertex_count, c.label_count
    positions = [c.label_positions_at(i) for i in range(V)]
    values = list(range(1, td.index_size + 1))
    if td.variant == "psd":
        values = list(product(values, values))
        exact = all(not isinstance(v, float) for mat in td.psd_mats.values() for v in mat.values())

        def entry(i, j, pairs):
            return td.psd_mats.get((i, j), {}).get(tuple(zip(*pairs)), 0)
    else:
        exact = all(not isinstance(x, float) for vec in td.vectors.values() for x in vec)

        def entry(i, j, beta):
            return td.vectors.get((i, beta), (0,) * td.axis_dim)[j]
    t = DenseTensor.zeros((td.axis_dim,) * V, "rational" if exact else "float")
    for alpha in product(values, repeat=L):
        betas = [tuple(alpha[p] for p in pos) for pos in positions]
        for idx in t.indices():
            prod_ = 1
            for i, j in enumerate(idx):
                prod_ = prod_ * entry(i, j, betas[i])
                if prod_ == 0:
                    break
            if prod_ != 0:
                t[idx] = t[idx] + prod_
    return t


def random_tensor_decomposition(rng, variant, exact):
    kind, n = [("single_edge", 1), ("double_edge", 1), ("line", 2), ("circle", 3)][
        int(rng.integers(4))]
    c = standard_complex(kind, n)
    index_size, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))

    def value():
        if rng.random() < 0.3:
            return 0
        if exact:
            x = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        else:
            x = float(rng.normal())
        return abs(x) if variant == "nonnegative" else x

    grids = [list(product(range(1, index_size + 1), repeat=len(c.label_positions_at(i))))
             for i in range(c.vertex_count)]
    if variant == "psd":
        mats = {(i, j): {(b1, b2): value() for b1 in grid for b2 in grid if rng.random() < 0.6}
                for i, grid in enumerate(grids) for j in range(m)}
        return TensorDecomposition(variant, c, None, index_size, m, psd_mats=mats)
    vecs = {(i, beta): tuple(value() for _ in range(m))
            for i, grid in enumerate(grids) for beta in grid if rng.random() < 0.7}
    return TensorDecomposition(variant, c, None, index_size, m, vectors=vecs)


def test_contract_matches_dense_oracle():
    rng = np.random.default_rng(29)
    for variant in ("plain", "nonnegative", "psd"):
        for exact in (True, False):
            for _ in range(8):
                td = random_tensor_decomposition(rng, variant, exact)
                assert td.contract().to_obj() == contract_dense(td).to_obj()


def test_assignments_must_fit_the_complex():
    c = standard_complex("single_edge")
    for beta in [(2,), (0,), (1, 1)]:
        with pytest.raises(ValueError):
            TensorDecomposition("plain", c, None, 1, 1, vectors={(0, beta): (1,)})
        with pytest.raises(ValueError):
            TensorDecomposition("psd", c, None, 1, 1, psd_mats={(0, 0): {((1,), beta): 1}})
    # (0 - 1) * 2 + 4 = 2 is a pair number in range, but neither half is a value
    with pytest.raises(ValueError):
        TensorDecomposition("psd", c, None, 2, 1, psd_mats={(0, 0): {((0,), (4,)): 1}})


def test_contract_work_guard():
    with pytest.raises(SearchSpaceTooLarge):
        psd_distance_factorization(4).contract(max_work=1)


def test_poly_from_tensor_examples():
    t = DenseTensor((1, 1), [1])
    p = poly_from_tensor(t)
    assert p == BlockPolynomial((1, 1), {((2,), (2,)): 1})
    m3 = distance_matrix(3)
    pm = poly_from_tensor(m3)
    assert len(pm.terms) == 6  # zero diagonal drops three entries
    assert pm.terms[((2, 0, 0), (0, 0, 2))] == 4
    assert poly_from_tensor(DenseTensor.zeros((2, 2))).is_zero()


def test_round_trip_and_canonical_form():
    m4 = distance_matrix(4)
    assert tensor_from_poly(poly_from_tensor(m4)) == m4
    with pytest.raises(NotCanonicalForm):
        tensor_from_poly(BlockPolynomial((1, 1), {((1,), (2,)): 1}))


def test_positivity_witness_matches_evaluation():
    t = DenseTensor.zeros((2, 2))
    t[(1, 1)] = -1
    t[(0, 1)] = 5
    verdict = tensor_positivity(t)
    assert not verdict["nonneg_entrywise"]
    j = verdict["witness"]
    p = poly_from_tensor(t)
    point = [tuple(1 if i == jj else 0 for i in range(2)) for jj in j]
    assert p.evaluate(point) == t[j] == -1
    assert tensor_positivity(distance_matrix(3))["nonneg_entrywise"]


def test_distance_matrix_values_and_rank():
    m3 = distance_matrix(3)
    assert [m3[(i, j)] for i in range(3) for j in range(3)] == [0, 1, 4, 1, 0, 1, 4, 1, 0]
    for m in range(3, 13):
        assert bipartite_rank(poly_from_tensor(distance_matrix(m))) == 3


def test_psd_distance_factorization_exact():
    for m in (2, 4, 8):
        fact = psd_distance_factorization(m)
        assert fact.index_size == 2
        assert fact.check_psd()
        t = fact.contract()
        assert t == distance_matrix(m)
        for i in range(m):
            assert t[(i, i)] == 0
    # spec spot value: m=4, i=2, j=3 (1-based) gives ((1,2).(3,-1))^2 = 1
    t4 = psd_distance_factorization(4).contract()
    assert t4[(1, 2)] == 1


def test_psd_distance_contraction_stays_in_ints():
    t = psd_distance_factorization(12).contract()
    assert t.dims == (12, 12)
    for i, j in product(range(12), repeat=2):
        assert type(t[(i, j)]) is int and t[(i, j)] == (i - j) ** 2


def test_plain_conversion_distance_split():
    c = standard_complex("single_edge")
    m = 6
    vecs = {
        (0, (1,)): tuple(Fraction((i + 1) ** 2) for i in range(m)),
        (1, (1,)): tuple(Fraction(1) for _ in range(m)),
        (0, (2,)): tuple(Fraction(-2 * (i + 1)) for i in range(m)),
        (1, (2,)): tuple(Fraction(j + 1) for j in range(m)),
        (0, (3,)): tuple(Fraction(1) for _ in range(m)),
        (1, (3,)): tuple(Fraction((j + 1) ** 2) for j in range(m)),
    }
    td = TensorDecomposition("plain", c, None, 3, m, vectors=vecs)
    assert td.contract() == distance_matrix(m)
    pd = tensor_dec_to_poly_dec(td)
    assert pd.index_size == 3
    assert pd.contract() == poly_from_tensor(distance_matrix(m))
    back = poly_dec_to_tensor_dec(pd, "plain")
    assert back.contract() == distance_matrix(m)


def test_nonnegative_rank_one_conversion():
    c = standard_complex("single_edge")
    v = (Fraction(1), Fraction(2))
    w = (Fraction(3), Fraction(0))
    td = TensorDecomposition("nonnegative", c, None, 1, 2,
                             vectors={(0, (1,)): v, (1, (1,)): w})
    pd = tensor_dec_to_poly_dec(td)
    assert pd.index_size == 1
    for mapping in pd.locals.values():
        for poly in mapping.values():
            assert cone_check(poly.as_polynomial(), "nn_coeff").ok
    expected = DenseTensor((2, 2), [3, 0, 6, 0])
    assert td.contract() == expected
    with pytest.raises(NotCanonicalForm):
        TensorDecomposition("nonnegative", c, None, 1, 2,
                            vectors={(0, (1,)): (Fraction(-1), Fraction(0)),
                                     (1, (1,)): w})
    # float(Fraction(-1, 10**400)) is -0.0, which is not below zero
    with pytest.raises(NotCanonicalForm):
        TensorDecomposition("nonnegative", c, None, 1, 2,
                            vectors={(0, (1,)): (Fraction(-1, 10**400), Fraction(0)),
                                     (1, (1,)): w})


def test_psd_conversion_round_trip():
    fact = psd_distance_factorization(4)
    sos = tensor_dec_to_poly_dec(fact)
    assert sos.index_size == 2
    target = poly_from_tensor(distance_matrix(4)).astype_float()
    assert sos.sum_squares().to_float().allclose(target, 1e-9)
    back = poly_dec_to_tensor_dec(sos, "psd")
    assert back.contract().allclose(distance_matrix(4), 1e-9)
    assert back.check_psd()


def test_psd_conversion_requires_free_vertex_action():
    fixed = double_edge_fixed_vertex_action()
    betas = [(1, 1)]
    mats = {(i, 0): {(betas[0], betas[0]): 1} for i in range(2)}
    td = TensorDecomposition("psd", fixed.complex, fixed, 1, 1, psd_mats=mats)
    with pytest.raises(VertexActionNotFree):
        tensor_dec_to_poly_dec(td)


def swap_psd(site1_mats):
    """psd decomposition on the double edge under the swap: site 0 holds [[1]] at j = 0."""
    a = double_edge_swap_action()
    b = (1, 1)
    mats = {(0, 0): {(b, b): 1}}
    mats.update({(1, j): {(b, b): v} for j, v in site1_mats.items()})
    return TensorDecomposition("psd", a.complex, a, 1, 2, psd_mats=mats)


def test_check_symmetry_plain_and_psd():
    a = double_edge_swap_action()
    b = (1, 1)
    same = TensorDecomposition("plain", a.complex, a, 1, 2,
                               vectors={(0, b): (1, 2), (1, b): (1, 2)})
    assert same.check_symmetry()
    moved = TensorDecomposition("plain", a.complex, a, 1, 2,
                                vectors={(0, b): (1, 2), (1, b): (2, 1)})
    assert not moved.check_symmetry()
    assert TensorDecomposition("plain", a.complex, None, 1, 2,
                               vectors={(0, b): (1, 2), (1, b): (2, 1)}).check_symmetry()
    assert swap_psd({0: 1}).check_symmetry()
    assert not swap_psd({1: 4}).check_symmetry()
    assert not swap_psd({0: 2}).check_symmetry()
    # exact entries compare exactly, floats within the relative tolerance
    near = (Fraction(1) + Fraction(1, 10**12),)
    assert not TensorDecomposition("plain", a.complex, a, 1, 1,
                                   vectors={(0, b): (1,), (1, b): near}).check_symmetry()
    assert TensorDecomposition("plain", a.complex, a, 1, 1,
                               vectors={(0, b): (1.0,), (1, b): (1.0 + 1e-12,)}).check_symmetry()


def test_psd_checks_run_on_the_support_of_a_large_index():
    # a dense 10**5 x 10**5 matrix would take 74.5 GiB
    n = 10**5
    lo, hi = (1,), (n,)
    mats = {(0, 0): {(lo, lo): 1},
            (0, 1): {(lo, lo): 1, (lo, hi): 2, (hi, lo): 2, (hi, hi): 4},
            (1, 0): {(lo, lo): 1, (hi, hi): 1},
            (1, 1): {(hi, hi): 9}}
    td = TensorDecomposition("psd", standard_complex("single_edge"), None, n, 2, psd_mats=mats)
    assert td.check_psd()
    assert td.psd_matrix(0, 1)[0] == [lo, hi]
    assert td.contract() == DenseTensor((2, 2), [1, 0, 5, 36])
    sos = tensor_dec_to_poly_dec(td)
    assert sos.sum_squares().to_float().allclose(
        poly_from_tensor(td.contract()).astype_float(), 1e-12)
    mats[(1, 1)] = {(lo, lo): -1}
    assert not TensorDecomposition("psd", td.complex, None, n, 2, psd_mats=mats).check_psd()


def test_zero_float_vector_in_an_exact_decomposition_stores_no_local():
    # the exact entries set the mode; the float zeros build no tensor
    vectors = {(0, (1,)): (1, 2), (1, (1,)): (0.0, 0.0)}
    td = TensorDecomposition("plain", standard_complex("single_edge"), None, 1, 2, vectors)
    assert td.poly.local_count() == 1
    assert all(p.mode == "rational" for locs in td.poly.locals.values() for p in locs.values())
    assert td.contract() == DenseTensor.zeros((2, 2))


def test_empty_psd_matrix_is_psd_and_adds_no_factor():
    c = standard_complex("single_edge")
    b = (1,)
    mats = {(0, 0): {(b, b): 2}, (0, 1): {(b, b): 0}, (1, 0): {(b, b): 3}, (1, 1): {}}
    td = TensorDecomposition("psd", c, None, 1, 2, psd_mats=mats)
    support, mat = td.psd_matrix(0, 1)
    assert support == [] and mat.shape == (0, 0)
    assert td.check_psd()
    assert td.contract() == DenseTensor((2, 2), [6, 0, 0, 0])
    sos = tensor_dec_to_poly_dec(td)
    assert {k for by_k in sos.locals.values() for k in by_k} == {(0, 0)}
    assert sos.sum_squares().to_float().allclose(
        poly_from_tensor(td.contract()).astype_float(), 1e-12)


def test_psd_conversion_rejects_a_non_invariant_decomposition():
    # factoring the orbit representative alone would give x0^2 y0^2
    td = swap_psd({1: 4})
    assert td.contract() == DenseTensor((2, 2), [0, 4, 0, 0])
    with pytest.raises(NotInvariant):
        tensor_dec_to_poly_dec(td)
    sos = tensor_dec_to_poly_dec(swap_psd({0: 1}))
    assert sos.sum_squares().to_float().allclose(
        poly_from_tensor(swap_psd({0: 1}).contract()).astype_float(), 1e-12)


@pytest.mark.parametrize("variant,unread", [("plain", "psd_mats"), ("nonnegative", "psd_mats"),
                                            ("psd", "vectors")])
def test_tensor_decomposition_rejects_the_argument_it_does_not_read(variant, unread):
    """A non-empty argument of the other variants is an error, not dropped; an
    empty one is accepted."""
    c = standard_complex("single_edge")
    data = {"vectors": {(0, (1,)): (1,), (1, (1,)): (1,)},
            "psd_mats": {(0, 0): {((1,), (1,)): 1}, (1, 0): {((1,), (1,)): 1}}}
    read = "psd_mats" if unread == "vectors" else "vectors"
    with pytest.raises(ValueError) as info:
        TensorDecomposition(variant, c, None, 1, 1, **data)
    assert str(info.value) == f"a {variant} decomposition does not read {unread}"
    td = TensorDecomposition(variant, c, None, 1, 1, **{read: data[read], unread: {}})
    assert td.contract() == DenseTensor((1, 1), [1])


def test_tensor_decomposition_rejects_an_action_on_another_complex():
    c = standard_complex("double_edge")
    with pytest.raises(ValueError, match="action acts on a different complex"):
        TensorDecomposition("plain", c, circle_rotation_action(3), 1, 1, vectors={})


def test_polygon_slack_properties():
    for m in (3, 4, 7):
        s = polygon_slack(m)
        arr = s.to_numpy()
        assert numeric_rank(arr) == 3
        assert arr.min() >= -1e-12
        for i in range(m):
            assert abs(s[(i, i)]) < 1e-9
            assert abs(s[(i, (i + 1) % m)]) < 1e-9
        # non-incident pairs are strictly slack
        if m >= 4:
            assert s[(0, 2)] > 1e-3


def test_nn_rank_bounds():
    assert [distance_nn_lower_bound(m) for m in (4, 8, 12)] == [2, 3, 4]
    upper = nn_rank_upper_bound(distance_matrix(4).to_numpy(), restarts=8, seed=2)
    assert distance_nn_lower_bound(4) <= upper <= 4
    assert nn_rank_upper_bound(np.zeros((3, 3))) == 0
    with pytest.raises(ValueError):
        nn_rank_upper_bound(np.array([[-1.0]]))


def sequential_nn_upper(mat, restarts=50, iters=400, rel_tol=1e-6, seed=0):
    """Oracle: each restart draws W then H and runs its own updates."""
    mat = np.asarray(mat, dtype=float)
    rows, cols = mat.shape
    norm = np.linalg.norm(mat)
    if norm == 0.0:
        return 0
    rng = np.random.default_rng(seed)
    eps = 1e-12
    for r in range(1, min(rows, cols)):
        for _ in range(restarts):
            W = rng.random((rows, r)) + 0.1
            H = rng.random((r, cols)) + 0.1
            for _ in range(iters):
                H *= (W.T @ mat) / (W.T @ W @ H + eps)
                W *= (mat @ H.T) / (W @ H @ H.T + eps)
            if np.linalg.norm(mat - W @ H) <= rel_tol * norm:
                return r
    return min(rows, cols)


def planted_positive(rank, seed):
    rng = np.random.default_rng([seed, rank])
    return (rng.random((6, rank)) + 0.1) @ (rng.random((rank, 7)) + 0.1)


def test_nn_batch_matches_sequential_on_distance_grid():
    for m in range(2, 13):
        mat = distance_matrix(m).to_numpy()
        for seed in range(5):
            assert (nn_rank_upper_bound(mat, restarts=3, iters=25, seed=seed)
                    == sequential_nn_upper(mat, restarts=3, iters=25, seed=seed)), (m, seed)


def test_nn_batch_matches_sequential_at_defaults():
    mat = distance_matrix(4).to_numpy()
    assert nn_rank_upper_bound(mat) == sequential_nn_upper(mat) == 4


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_nn_batch_matches_sequential_on_planted_ranks(rank):
    # a loose tolerance lets a few short restarts succeed below the trivial bound 6
    opts = {"restarts": 4, "iters": 100, "rel_tol": 1e-2}
    for seed in range(3):
        mat = planted_positive(rank, seed)
        got = nn_rank_upper_bound(mat, seed=seed, **opts)
        assert got == sequential_nn_upper(mat, seed=seed, **opts)
        assert rank <= got < 6


def test_nn_batch_starts_are_the_sequential_draws():
    rows, cols, restarts = 5, 4, 6
    batch, seq = np.random.default_rng(3), np.random.default_rng(3)
    for r in (1, 2, 3):
        W, H = nn_starts(batch, restarts, rows, cols, r)
        assert W.shape == (restarts, rows, r) and H.shape == (restarts, r, cols)
        for k in range(restarts):
            assert np.array_equal(W[k], seq.random((rows, r)) + 0.1)
            assert np.array_equal(H[k], seq.random((r, cols)) + 0.1)
    assert batch.random() == seq.random()


RANK_TOLERANCES = (0.0, 1e-12, 1e-6, 1e-2, 0.5)


def planted_rank_one_with_noise(seed):
    rng = np.random.default_rng(seed)
    return np.outer(rng.random(5) + 0.1, rng.random(6) + 0.1) + 1e-9 * rng.random((5, 6))


@pytest.mark.parametrize("rel_tol", RANK_TOLERANCES)
def test_pruned_nn_search_matches_sequential(rel_tol):
    opts = {"restarts": 4, "iters": 60, "rel_tol": rel_tol}
    for mat in (np.ones((3, 3)), 2 * np.ones((4, 5)), planted_rank_one_with_noise(7)):
        for seed in range(2):
            assert (nn_rank_upper_bound(mat, seed=seed, **opts)
                    == sequential_nn_upper(mat, seed=seed, **opts)), (mat.shape, seed)
    mat = distance_matrix(5).to_numpy()
    assert (nn_rank_upper_bound(mat, restarts=3, iters=25, rel_tol=rel_tol)
            == sequential_nn_upper(mat, restarts=3, iters=25, rel_tol=rel_tol))


def test_skipped_inner_dimensions_still_draw_their_starts(monkeypatch):
    import omegadec.tensorbridge as tb
    calls = []

    def counting_starts(rng, restarts, rows, cols, r):
        calls.append(r)
        return nn_starts(rng, restarts, rows, cols, r)

    monkeypatch.setattr(tb, "nn_starts", counting_starts)
    # rank 3, so the search skips r = 1 and 2 and runs r = 3..5
    mat = distance_matrix(6).to_numpy()
    assert tb.nn_rank_upper_bound(mat, restarts=2, iters=5) == 6
    assert calls == [1, 2, 3, 4, 5]
    calls.clear()
    assert tb.nn_rank_upper_bound(np.ones((3, 4)), restarts=2, iters=50) == 1
    assert calls == [1]


def test_psd_check_fails_closed_when_the_trace_overflows():
    fact = psd_distance_factorization(3)
    # diag(1e308, -1e300) is not PSD; with a third entry of 1e308 its trace
    # overflows, and a floor of -inf would pass it
    fact.psd_mats[(0, 0)] = {((1,), (1,)): 1e308, ((2,), (2,)): -1e300}
    with np.errstate(all="raise"):
        assert not fact.check_psd()
        fact.psd_mats[(0, 0)][((3,), (3,))] = 1e308
        with pytest.raises(ValueError, match="finite trace"):
            fact.check_psd()


def test_nn_rank_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        mat = distance_matrix(3).to_numpy()
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            nn_rank_upper_bound(mat)


def test_nn_rank_work_guard():
    mat = distance_matrix(4).to_numpy()
    with pytest.raises(SizeTooLarge):
        nn_rank_upper_bound(mat, max_work=3 * 50 * 400 - 1)
    assert nn_rank_upper_bound(mat, restarts=2, iters=10, max_work=3 * 2 * 10) == 4
    with pytest.raises(SizeTooLarge):
        separations_report(4, max_work=1000)


def test_separations_guard_boundary():
    with pytest.raises(SearchSpaceTooLarge):
        separations_report(4, max_work=1)
    with pytest.raises(SizeTooLarge, match="^60000 updates exceed 59999$"):
        separations_report(4, max_work=59999)
    assert separations_report(4, max_work=60000)["nn_upper_bound"] == 4


def test_separations_report():
    rep = separations_report(8, seed=0)
    assert rep["bipartite_rank"] == 3
    assert rep["psd_index"] == 2 and rep["psd_verified"]
    assert rep["nn_lower_bound"] == 3 <= rep["nn_upper_bound"] <= 8


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_separations_upper_bound_is_what_the_search_returns(m):
    # the report gives the trivial bound without running the search; at the
    # default settings the search returns the same bound
    searched = nn_rank_upper_bound(distance_matrix(m).to_numpy(), seed=0)
    assert separations_report(m)["nn_upper_bound"] == searched == m


def test_dense_tensor_json_round_trip():
    t = distance_matrix(3)
    assert DenseTensor.from_obj(t.to_obj()) == t
    f = polygon_slack(4)
    again = DenseTensor.from_obj(f.to_obj())
    assert again.allclose(f, 1e-15)


def test_psd_key_outside_axis_dimension_is_rejected():
    c = standard_complex("single_edge")
    mats = {(0, 5): {((1,), (1,)): 1.0}}
    with pytest.raises(DimensionMismatch):
        TensorDecomposition("psd", c, None, 1, 2, psd_mats=mats)


def test_non_finite_vector_entry_is_rejected():
    c = standard_complex("single_edge")
    vecs = {(0, (1,)): (float("nan"), 1.0), (1, (1,)): (1.0, 1.0)}
    with pytest.raises(ValueError):
        TensorDecomposition("plain", c, None, 1, 2, vectors=vecs)


def test_non_finite_psd_entry_is_rejected():
    c = standard_complex("single_edge")
    mats = {(0, 0): {((1,), (1,)): float("inf")}}
    with pytest.raises(ValueError):
        TensorDecomposition("psd", c, None, 1, 2, psd_mats=mats)


def test_float_dense_tensor_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        DenseTensor((2,), [1.0, float("inf")], "float")
    with pytest.raises(ValueError):
        DenseTensor.from_obj({"dims": [1], "mode": "float", "entries": [float("nan")]})


def constructor_poly_from_tensor(t):
    """Oracle: the embedding built term by term through the validating constructor."""
    m = t.dims[0]
    terms = {}
    for idx in product(range(m), repeat=t.order):
        if t[idx] != 0:
            terms[tuple(tuple(2 if j == i else 0 for j in range(m)) for i in idx)] = t[idx]
    return BlockPolynomial((m,) * t.order, terms, t.mode)


def tensors_to_embed():
    exact = DenseTensor((2, 2), [1, 0, Fraction(3, 2), Fraction(4, 2)])
    floats = DenseTensor((3, 3), [0.0, -0.0, 1.5, 2, -1e-300, 0, 3.25, 1e300, -4], "float")
    assigned = DenseTensor.zeros((2, 2, 2))
    assigned[(0, 1, 1)] = Fraction(6, 3)
    assigned[(1, 0, 0)] = "5/7"
    assigned[(1, 1, 0)] = -3
    assigned[(1, 1, 1)] = 0
    assigned_float = DenseTensor.zeros((2, 2), "float")
    assigned_float[(1, 0)] = 3
    assigned_float[(0, 1)] = -0.25
    rng = np.random.default_rng(16)
    seeded = DenseTensor((3,) * 3, rng.integers(-2, 3, size=27).tolist())
    seeded_float = DenseTensor((2,) * 4, (rng.integers(-1, 2, size=16) * 0.5).tolist(), "float")
    return [exact, floats, assigned, assigned_float, seeded, seeded_float,
            DenseTensor((1,), [7]), DenseTensor.zeros((3, 3)), DenseTensor((0, 0), []),
            distance_matrix(5), polygon_slack(5)]


def test_poly_from_tensor_matches_the_constructor_oracle():
    for t in tensors_to_embed():
        p, want = poly_from_tensor(t), constructor_poly_from_tensor(t)
        assert p == want and p.sites == want.sites and p.mode == want.mode
        assert list(p.terms.items()) == list(want.terms.items())
        assert [type(c) for c in p.terms.values()] == [type(c) for c in want.terms.values()]


@pytest.mark.parametrize("make", [DenseTensor.zeros,
                                  lambda dims: tensor_from_poly(BlockPolynomial(dims, {}))],
                         ids=["zeros", "tensor_from_poly"])
def test_dense_sizes_are_bounded_before_they_are_allocated(make, monkeypatch):
    """Both dense allocations stop multiplying their dims once the product passes
    the work limit; the checks below raise before any list is built."""
    assert make((10,) * 3).entries == [0] * 1000
    with pytest.raises(SizeTooLarge, match=r"^dims \[10, 10, 10, 10, 10, 10, 10, 10\] hold "
                                           r"more than 10000000 entries$"):
        make((10,) * 8)
    # the boundary, at a limit small enough to allocate
    monkeypatch.setattr(tensorbridge, "DEFAULT_MAX_WORK", 100)
    assert len(make((10, 10)).entries) == 100
    with pytest.raises(SizeTooLarge, match=r"^dims \[101\] hold more than 100 entries$"):
        make((101,))


def test_dense_size_limit_and_zero_dims():
    with pytest.raises(SizeTooLarge, match=r"^dims \[10000001\] hold more than 10000000 "):
        DenseTensor.zeros((10**7 + 1,))
    assert DenseTensor.zeros((10**8, 0)).entries == []
    with pytest.raises(ValueError, match="^negative tensor dimension in"):
        DenseTensor.zeros((-10**4, -10**4))
    # an empty decomposition of axis dimension 10 on 10 sites contracts to 10**10 zeros
    td = TensorDecomposition("plain", standard_complex("circle", 10), None, 1, 10, vectors={})
    with pytest.raises(SizeTooLarge, match=r"hold more than 10000000 entries$"):
        td.contract()


def test_dense_tensor_reads_every_entry_where_it_enters():
    t = DenseTensor((2,), [Fraction(4, 2), "3/6"])
    assert t.entries == [2, Fraction(1, 2)] and type(t.entries[0]) is int
    t[1] = Fraction(8, 4)
    assert type(t[1]) is int
    for bad, error in ((0.5, TypeError), (True, TypeError), ("x", ValueError)):
        with pytest.raises(error):
            t[0] = bad
        with pytest.raises(error):
            DenseTensor((1,), [bad])
    f = DenseTensor((2,), [1, 2.5], "float")
    assert f.entries == [1.0, 2.5] and type(f.entries[0]) is float
    f[0] = 4
    assert type(f[0]) is float
    for bad, error in ((True, TypeError), (float("nan"), ValueError), (float("inf"), ValueError)):
        with pytest.raises(error):
            f[0] = bad
        with pytest.raises(error):
            DenseTensor((1,), [bad], "float")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        DenseTensor((1,), [1], "bogus")
    with pytest.raises(ValueError, match="negative tensor dimension"):
        DenseTensor((-1, -1), [1])
    # the constructor keeps a zero dimension; a tensor file may not hold one
    assert DenseTensor((0, 2), []).entries == []
    with pytest.raises(ValueError, match=r"dimensions must be >= 1, got \[0, 0\]"):
        DenseTensor.from_obj({"dims": [0, 0], "entries": []})


def test_min_entry_returns_the_first_of_tied_minima():
    assert DenseTensor((2, 2), [3, -1, -1, 0]).min_entry() == (-1, (0, 1))
    assert DenseTensor((2, 2, 2), [5] * 8).min_entry() == (5, (0, 0, 0))
    t = DenseTensor((3, 3), [0.5, 0.0, -2.0, 1.0, -2.0, 0.0, -2.0, 1.0, 0.0], "float")
    assert t.min_entry() == (-2.0, (0, 2))
    assert tensor_positivity(t)["witness"] == (0, 2)


def test_a_tensor_without_entries_has_no_min_entry():
    for t in (DenseTensor((0, 0), []), DenseTensor((2, 0), [], "float")):
        with pytest.raises(ValueError, match="tensor has no entries"):
            t.min_entry()
        with pytest.raises(ValueError, match="tensor has no entries"):
            tensor_positivity(t)


@pytest.mark.parametrize("dims,count,ok", [
    ((2, 3), 6, True), ((2, 3), 5, False), ((2, 3), 7, False),
    ((0, 10**4000), 0, True), ((10**4000, 0), 0, True), ((10**4000, 0), 1, False),
    ((10**4000, 10**4000), 1, False), ((1, 10**4000), 1, False), ((1,) * 50, 1, True),
], ids=["fits", "one-short", "one-over", "zero-first", "zero-last", "zero-with-entry",
        "huge", "one-huge", "many-ones"])
def test_dense_tensor_counts_entries_without_multiplying_huge_dims(dims, count, ok):
    if ok:
        assert DenseTensor(dims, [1] * count).dims == dims
        return
    with pytest.raises(DimensionMismatch) as info:
        DenseTensor(dims, [1] * count)
    assert str(info.value) == f"dims {list(dims)} do not hold {count} entries"


def test_nonnegative_vectors_are_read_once_and_stored_as_read():
    c = standard_complex("single_edge")
    td = TensorDecomposition("nonnegative", c, None, 1, 1,
                             vectors={(0, (1,)): ("1/2",), (1, (1,)): (2,)})
    assert td.vectors == {(0, (1,)): (Fraction(1, 2),), (1, (1,)): (2,)}
    assert td.contract() == DenseTensor((1, 1), [1])
    with pytest.raises(NotCanonicalForm):
        TensorDecomposition("nonnegative", c, None, 1, 1,
                            vectors={(0, (1,)): ("-1/2",), (1, (1,)): (2,)})


def test_psd_entries_are_read_once_and_checked_as_read():
    c = standard_complex("single_edge")
    b = (1,)
    td = TensorDecomposition("psd", c, None, 1, 1,
                             psd_mats={(0, 0): {(b, b): "1/2"}, (1, 0): {(b, b): 4}})
    assert td.psd_mats[(0, 0)] == {(b, b): Fraction(1, 2)}
    assert td.check_psd()
    assert td.contract() == DenseTensor((1, 1), [2])
    neg = TensorDecomposition("psd", c, None, 1, 1, psd_mats={(0, 0): {(b, b): "-1/2"}})
    assert not neg.check_psd()


def test_every_vector_has_the_axis_dimension():
    c = standard_complex("single_edge")
    for vec in ((1, 2, 3), (0, 0, 0)):
        with pytest.raises(DimensionMismatch, match="expected 2 entries, got 3"):
            TensorDecomposition("plain", c, None, 1, 2, vectors={(0, (1,)): vec})


@pytest.mark.parametrize("variant", ["plain", "psd"])
@pytest.mark.parametrize("index_size,axis_dim", [(-2, 1), (1, -1)])
def test_negative_sizes_are_rejected_for_every_variant(variant, index_size, axis_dim):
    """The psd counterpart has index size index_size**2, so -2 would read as 4."""
    with pytest.raises(ValueError, match="must be >= 0"):
        TensorDecomposition(variant, standard_complex("single_edge"), None, index_size, axis_dim)
