"""The stacked float paths against the per-matrix loops they replaced.

`quadratic_forms`, `SosFamily.sum_squares` and `TensorDecomposition.check_psd`
each make one numpy pass over a stack of matrices. The loops below, one call
per matrix or per row, are kept here as oracles: every coefficient must come
out bit for bit the same (compared by `float.hex`, so a `-0.0` or a last-bit
change shows), every term in the same order, and every PSD verdict or error
the same as the loop's first failing matrix gives.
"""

import json
from itertools import product

import numpy as np
import pytest

import omegadec.approx as approx
import omegadec.positivity as positivity
from omegadec.approx import SeparableGram, approx_separable, sample_budget
from omegadec.blockpoly import FLOAT, BlockPolynomial
from omegadec.complexes import standard_complex
from omegadec.positivity import (
    PSD_OUT_OF_RANGE,
    SosFamily,
    _pair_keys,
    homogeneous_basis,
    monomials_upto,
    psd_floor,
    quadratic_forms,
)
from omegadec.tensorbridge import TensorDecomposition, psd_distance_factorization
from test_approx import random_witness
from test_positivity import seeded_gram_and_root


def quadratic_form_loop(mat, basis, V):
    """One bincount per matrix: each coefficient adds its entries in row-major
    order, terms by first nonzero entry."""
    keys, index = _pair_keys(tuple(basis), V)
    order = list(dict.fromkeys(index[np.flatnonzero(mat)].tolist()))
    values = np.bincount(index, weights=mat.ravel(), minlength=len(keys))[order]
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite coefficient {values[~np.isfinite(values)][0]}")
    terms = {keys[k]: c for k, c in zip(order, values.tolist()) if c}
    return BlockPolynomial._trusted((len(basis[0]),) * V, terms, FLOAT)


def sum_squares_loop(family):
    """One bincount per nonzero row, the squares added in member order."""
    keys, index = _pair_keys(tuple(family.gram.local_basis), family.gram.n + 1)
    acc = np.zeros(len(keys))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in family.root[family.root.any(axis=1)]:
            acc += np.bincount(index, weights=np.outer(b, b).ravel(), minlength=len(keys))
    return BlockPolynomial._trusted(
        family.sites, {k: c for k, c in zip(keys, acc.tolist()) if c}, FLOAT)


def check_psd_loop(td, tol=1e-9):
    """One eigvalsh and one allclose per matrix, in `psd_mats` order."""
    for site, j in td.psd_mats:
        support, mat = td.psd_matrix(site, j)
        if not support:
            continue
        lo, bound = psd_floor(0.5 * mat + 0.5 * mat.T, tol)
        if not np.allclose(mat, mat.T, atol=tol) or lo < bound:
            return False
    return True


def hexed(p: BlockPolynomial) -> list:
    """The terms in order, each coefficient as its exact bits."""
    return [(key, float(c).hex()) for key, c in p.terms.items()]


def outcome(f):
    try:
        return f()
    except Exception as exc:    # noqa: BLE001 - the error is the outcome compared
        return type(exc).__name__, str(exc)


def random_stack(rng, k, N, kind):
    mats = rng.normal(size=(k, N, N)) * 10.0 ** rng.integers(-3, 4, size=(k, 1, 1))
    mats[rng.random((k, N, N)) < 0.4] = 0.0
    if kind == "negative zeros":
        mats[rng.random((k, N, N)) < 0.4] = -0.0
    elif kind == "rational":        # the nearest floats to small fractions p/q
        mats = rng.integers(-50, 51, size=(k, N, N)) / rng.integers(1, 13, size=(k, N, N))
    elif kind == "zero":
        mats = np.zeros((k, N, N))
    return mats


@pytest.mark.parametrize("kind", ["float", "negative zeros", "rational", "zero"])
def test_stacked_quadratic_forms_are_the_per_matrix_loop(kind):
    rng = np.random.default_rng(["float", "negative zeros", "rational", "zero"].index(kind))
    for m, d, V, homogeneous in product((1, 2), (1, 2, 3), (1, 2), (False, True)):
        basis = homogeneous_basis(m, d) if homogeneous else monomials_upto(m, d)
        N = len(basis) ** V
        if N > 40:
            continue
        for k in (0, 1, 5):
            mats = random_stack(rng, k, N, kind)
            got = quadratic_forms(mats, basis, V)
            want = [quadratic_form_loop(mat, basis, V) for mat in mats]
            assert [hexed(p) for p in got] == [hexed(p) for p in want], (m, d, V, k)
            assert all(p.sites == (len(basis[0]),) * V for p in got)


def test_the_first_non_finite_coefficient_in_stack_order_is_reported():
    basis = homogeneous_basis(1, 1)
    mats = np.zeros((3, 2, 2))
    mats[1] = [[1e308, 1e308], [1e308, -np.inf]]   # coefficient 2e308 = inf, then -inf
    mats[2] = [[np.nan, 0.0], [0.0, 0.0]]
    want = [outcome(lambda: quadratic_form_loop(mat, basis, 1)) for mat in mats]
    assert want[1] == ("ValueError", "non-finite coefficient inf")
    assert outcome(lambda: quadratic_forms(mats, basis, 1)) == want[1]
    assert outcome(lambda: quadratic_forms(mats[[0, 2, 1]], basis, 1)) == want[2]


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (2, 1, 1)])
def test_stacked_sum_squares_is_the_per_row_loop(shape):
    for seed, zeroed in product(range(4), (False, True)):
        g, root = seeded_gram_and_root(*shape, seed, zeroed)
        for B in (root, np.zeros_like(root), -root):
            family = SosFamily(g, B)
            assert hexed(family.sum_squares()) == hexed(sum_squares_loop(family))


def test_sum_squares_adds_across_row_blocks_in_member_order(monkeypatch):
    # a block of 3 rows splits the 16 rows at d = 3 into six blocks
    g, root = seeded_gram_and_root(1, 1, 3, 0, True)
    family = SosFamily(g, root)
    want = hexed(sum_squares_loop(family))
    monkeypatch.setattr(positivity, "STACK_BLOCK", 3 * len(root) ** 2)
    assert hexed(family.sum_squares()) == want


def approx_outcome(sg, action, epsilon, seed):
    res = approx_separable(sg, action, epsilon, seed)
    return (json.dumps(res.decomposition.to_obj(), sort_keys=True), res.error_schatten2.hex(),
            res.approximant.tobytes(), res.terms_used)


# (V, m, d, count): V = 2 doubles the count into swapped pairs
@pytest.mark.parametrize("V,m,d,count", [(2, 2, 1, 20), (2, 2, 1, 150), (1, 2, 3, 30)])
def test_approx_separable_builds_the_per_matrix_forms(V, m, d, count, monkeypatch):
    terms, gram, action = random_witness(np.random.default_rng([V, m, d, count]), V, m, d, count)
    sg = SeparableGram(gram, terms)
    # the budget 49 keeps up to 49 terms verbatim; the budget 2 samples every witness
    runs = [(epsilon, seed) for epsilon in (3.0, 20.0) for seed in range(3)]
    assert [sample_budget(eps) for eps in (3.0, 20.0)] == [49, 2]
    got = [approx_outcome(sg, action, eps, seed) for eps, seed in runs]
    monkeypatch.setattr(approx, "quadratic_forms", lambda mats, basis, V: [
        quadratic_form_loop(mat, basis, V) for mat in mats])
    assert got == [approx_outcome(sg, action, eps, seed) for eps, seed in runs]


EDGE = standard_complex("single_edge")
B1, B2, B3 = (1,), (2,), (3,)
FINE = {(B1, B1): 1.0, (B1, B2): 0.5, (B2, B1): 0.5, (B2, B2): 1.0}
NOT_PSD = {(B1, B1): 1.0, (B2, B2): -1.0}
OUT_OF_RANGE = {(B1, B1): 1e308, (B2, B2): 1e308}         # its trace overflows
ASYMMETRIC = {(B1, B1): 1.0, (B1, B2): 0.5, (B2, B2): 1.0}
THREE = {(B1, B1): 1.0, (B2, B2): 2.0, (B3, B3): 3.0}
EMPTY = {}


def psd_dec(*mats):
    """A psd decomposition whose matrices, in `psd_mats` order, are mats."""
    return TensorDecomposition("psd", EDGE, None, 3, len(mats),
                               psd_mats={(0, j): mat for j, mat in enumerate(mats)})


@pytest.mark.parametrize("mats,expected", [
    ((FINE, NOT_PSD, OUT_OF_RANGE), False),
    ((FINE, OUT_OF_RANGE, NOT_PSD), ("ValueError", PSD_OUT_OF_RANGE)),
    ((ASYMMETRIC, OUT_OF_RANGE), False),
    ((OUT_OF_RANGE, ASYMMETRIC), ("ValueError", PSD_OUT_OF_RANGE)),
    ((FINE, ASYMMETRIC, FINE), False),
    ((EMPTY, FINE, EMPTY, THREE), True),
    ((EMPTY,), True),
    ((THREE, FINE, THREE, NOT_PSD), False),
    # the size-3 group, checked first, fails at position 2, the size-2 group at 1
    ((THREE, OUT_OF_RANGE, {**THREE, (B3, B3): -3.0}), ("ValueError", PSD_OUT_OF_RANGE)),
    ((THREE, NOT_PSD, {**THREE, (B3, B3): 1e308, (B2, B2): 1e308}), False),
    # the size-3 group fails at position 0, before the size-2 group
    (({**THREE, (B3, B3): -3.0}, OUT_OF_RANGE), False),
    (({**THREE, (B3, B3): 1e308, (B2, B2): 1e308}, NOT_PSD), ("ValueError", PSD_OUT_OF_RANGE)),
    ((FINE, THREE, {**FINE, (B1, B1): 1e308, (B2, B2): 1e308}),
     ("ValueError", PSD_OUT_OF_RANGE)),
], ids=["non-PSD first", "out of range first", "asymmetric first",
        "out of range before asymmetric", "asymmetric", "empty supports skipped", "only empty",
        "mixed sizes, last fails", "smaller size fails first", "smaller size non-PSD first",
        "larger size non-PSD first", "larger size fails first", "out of range last"])
def test_the_first_failing_matrix_decides(mats, expected):
    td = psd_dec(*mats)
    assert outcome(td.check_psd) == outcome(lambda: check_psd_loop(td)) == expected


def test_check_psd_verdicts_are_the_loops():
    rng = np.random.default_rng(7)
    for m in range(2, 15):
        td = psd_distance_factorization(m)
        assert td.check_psd() is check_psd_loop(td) is True
        for _ in range(3):
            for key in rng.choice(len(td.psd_mats), size=2, replace=False):
                site_j = list(td.psd_mats)[key]
                pair = (B1, B1) if rng.random() < 0.5 else (B2, B2)
                td.psd_mats[site_j] = {**td.psd_mats[site_j],
                                       pair: float(rng.choice([-1.0, 1e308, -1e-12]))}
            for tol in (0.0, 1e-9, 1e-3):
                want = outcome(lambda: check_psd_loop(td, tol))
                assert outcome(lambda: td.check_psd(tol)) == want
