"""Transfer tensors and the bounded positivity checker."""

import gc
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadec import familycheck
from omegadec.complexes import standard_complex
from omegadec.errors import SizeTooLarge
from omegadec.familycheck import (
    LocalFamily,
    UNDECIDED_DISCLAIMER,
    _necklaces,
    bounded_positivity_check,
    family_polynomial,
    transfer_tensor,
)
from omegadec.fixtures import nonnegative_family, planted_negative_family
from omegadec.invariance import is_invariant
from omegadec.symmetry import build_action
import famref


def min_trace(f, n, max_tuples=10**9):
    """The minimum entry at size n alone and its witness, as the check reports them."""
    size, = bounded_positivity_check(f, n, n_min=n, max_tuples=max_tuples).sizes
    return size.min_entry, size.witness


def test_scalar_family_outer_product():
    f = LocalFamily(1, 2, (((1, 2),),))
    t = transfer_tensor(f, 1)
    assert [t[(i, j)] for i in range(2) for j in range(2)] == [1, 2, 2, 4]
    p = family_polynomial(f, 1)
    assert p.terms[((2, 0), (0, 2))] == 2
    assert len(p.terms) == 4


def test_identity_transfer_matrices_trace_d():
    f = LocalFamily(2, 2, (((1, 1), (0, 0)), ((0, 0), (1, 1))))
    t = transfer_tensor(f, 3)
    assert set(t.entries) == {2}


def test_transfer_matches_einsum_oracle():
    from omegadec.acceptance import _brute_force_transfer
    rng = np.random.default_rng(88)
    for D, m, n in ((2, 2, 3), (3, 2, 4), (2, 3, 5), (3, 3, 3)):
        coeffs = rng.integers(-3, 4, size=(D, m * 0 + D, m))
        fam = LocalFamily(D, m, tuple(tuple(tuple(int(x) for x in cell)
                                            for cell in row) for row in coeffs))
        mine = np.array([int(x) for x in transfer_tensor(fam, n).entries])
        oracle = _brute_force_transfer(coeffs.astype(np.int64), n).reshape(-1)
        assert np.array_equal(mine, oracle)


def test_family_polynomial_cyclically_invariant():
    fam = nonnegative_family()
    for n in (2, 3):
        p = family_polynomial(fam, n)
        c = standard_complex("circle", n + 1)
        shift = tuple((i + 1) % (n + 1) for i in range(n + 1))
        rot = build_action(c, [(shift, shift)])
        assert is_invariant(p, rot)


def test_planted_family_first_violation():
    rep = bounded_positivity_check(planted_negative_family(), 4)
    assert rep.first_violation == 1
    assert rep.sizes[0].min_entry == -2
    assert rep.sizes[0].witness == (0, 1)
    assert rep.violation_found
    assert "no algorithm" in rep.disclaimer
    assert rep.disclaimer == UNDECIDED_DISCLAIMER


def test_degenerate_single_site_check():
    rep = bounded_positivity_check(planted_negative_family(), 2, n_min=0)
    assert rep.sizes[0].n == 0
    assert rep.sizes[0].min_entry == 0  # both matrices are traceless
    scalar = LocalFamily(1, 1, (((-1,),),))
    rep2 = bounded_positivity_check(scalar, 2, n_min=0)
    assert rep2.first_violation == 0


def test_scaling_preserves_verdicts():
    fam = planted_negative_family()
    base = bounded_positivity_check(fam, 4)
    scaled = bounded_positivity_check(fam.scaled(7), 4)
    assert [s.violated for s in base.sizes] == [s.violated for s in scaled.sizes]
    assert base.first_violation == scaled.first_violation


def test_clean_family_reports_no_violation():
    rep = bounded_positivity_check(nonnegative_family(), 5)
    assert rep.first_violation is None
    assert not rep.violation_found
    assert all(s.min_entry >= 0 for s in rep.sizes)


def test_guards_and_validation():
    fam = LocalFamily(2, 3, tuple(tuple((1, 1, 1) for _ in range(2)) for _ in range(2)))
    with pytest.raises(SizeTooLarge):
        transfer_tensor(fam, 20)
    with pytest.raises(SizeTooLarge):
        bounded_positivity_check(fam, 20, max_tuples=100)
    # the necklace walk evaluates fewer traces, but the guard counts every index
    sign = LocalFamily(1, 2, [[[1, -1]]])
    assert min_trace(sign, 3, 2 ** 4) == (-1, (0, 0, 0, 1))
    with pytest.raises(SizeTooLarge):
        min_trace(sign, 3, 2 ** 4 - 1)
    with pytest.raises(ValueError):
        min_trace(sign, -1, 10)
    with pytest.raises(ValueError):
        LocalFamily(2, 2, (((1, 2),),))


@pytest.mark.parametrize("n", [10**7, 3 * 10**7])
def test_the_guard_decides_without_the_power(n):
    # the guard stops multiplying once it passes the limit; 3**(n + 1) itself takes seconds
    fam = LocalFamily(1, 3, [[[1, 1, 1]]])
    start = time.perf_counter()
    with pytest.raises(SizeTooLarge, match=rf"^3\*\*{n + 1} tuples exceed 10000000$"):
        bounded_positivity_check(fam, n, n_min=n)
    assert time.perf_counter() - start < 1.0
    unit = LocalFamily(1, 1, [[[1]]])
    for limit, passes in ((1, True), (0, False)):
        if passes:
            min_trace(unit, 3, limit)
        else:
            with pytest.raises(SizeTooLarge, match=r"^1\*\*4 tuples exceed 0$"):
                min_trace(unit, 3, limit)
    with pytest.raises(ValueError, match="m must be >= 1"):
        LocalFamily(1, 0, [[[]]])
    for D, m in ((2.0, 1), (1, 1.5), (True, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            LocalFamily(D, m, (((1,),),))
    with pytest.raises(ValueError):
        bounded_positivity_check(fam, 0, n_min=3)


def test_check_leaves_no_cyclic_garbage():
    bounded_positivity_check(planted_negative_family(), 4)
    gc.collect()
    gc.disable()
    try:
        bounded_positivity_check(planted_negative_family(), 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_family_json_round_trip():
    fam = planted_negative_family()
    assert LocalFamily.from_obj(fam.to_obj()) == fam


def test_families_are_values():
    fam, again = planted_negative_family(), LocalFamily.from_obj(planted_negative_family().to_obj())
    assert fam == again and hash(fam) == hash(again) and fam is not again
    assert fam != nonnegative_family() and fam != fam.scaled(2) and fam != fam.to_obj()
    assert repr(fam) == "LocalFamily(D=2, m=2)"
    for name in ("D", "m", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(fam, name, None)
        with pytest.raises(AttributeError):
            delattr(fam, name)
    assert fam == again


def full_walk_min_trace(f, n):
    """Oracle: the trace of every index's plain matrix product, from the
    coefficients directly; the minimum, first attained in lexicographic order."""
    mats = [np.array(f.coeffs, dtype=object)[:, :, j] for j in range(f.m)]
    best = witness = None
    for index in product(range(f.m), repeat=n + 1):
        prod = np.identity(f.D, dtype=object)
        for j in index:
            prod = prod @ mats[j]
        trace = prod.trace()
        if best is None or trace < best:
            best, witness = trace, index
    return best, witness


def seeded_family(rng, D, m, low=-3, high=3):
    return LocalFamily(D, m, rng.integers(low, high + 1, size=(D, D, m)).tolist())


def test_necklace_walk_matches_full_walk():
    rng = np.random.default_rng(15)
    for D in (1, 2, 3):
        for m in (1, 2, 3):
            for low, high in ((-3, 3), (-2, 0), (0, 2)):
                fam = seeded_family(rng, D, m, low, high)
                for n in range(9 if m < 3 else 7):
                    assert min_trace(fam, n) == full_walk_min_trace(fam, n), (fam, n)


def test_necklace_walk_keeps_the_first_of_tied_minima():
    # identity transfer matrices: every trace is D, so the witness is all zeros
    ident = LocalFamily(2, 3, [[[1, 1, 1], [0, 0, 0]], [[0, 0, 0], [1, 1, 1]]])
    for n in range(6):
        assert min_trace(ident, n) == (2, (0,) * (n + 1))
    # scalar traces: the product of the chosen coefficients, -1 at an odd count of
    # ones; ties are broken by the first such index, a rotation of which comes later
    sign = LocalFamily(1, 2, [[[1, -1]]])
    for n in range(8):
        assert min_trace(sign, n) == full_walk_min_trace(sign, n)
        assert min_trace(sign, n) == (-1, (0,) * n + (1,))
    # every trace negative and all of one size: the witness is still the first index
    negative = LocalFamily(1, 3, [[[-1, -1, -1]]])
    for n in (0, 2, 4):
        assert min_trace(negative, n) == (-1, (0,) * (n + 1))


def test_bounded_check_matches_full_walk_oracle():
    rng = np.random.default_rng(1500)
    for D, m, n_max in ((1, 2, 8), (2, 2, 8), (2, 3, 6), (3, 2, 7), (3, 3, 5)):
        for _ in range(3):
            fam = seeded_family(rng, D, m, -1, 1)
            rep = bounded_positivity_check(fam, n_max, n_min=0)
            want = [full_walk_min_trace(fam, n) for n in range(n_max + 1)]
            assert [(s.min_entry, s.witness) for s in rep.sizes] == want
            first = next((n for n, (lo, _) in enumerate(want) if lo < 0), None)
            assert rep.first_violation == first


def smallest_rotation(index):
    return min(index[k:] + index[:k] for k in range(len(index)))


@settings(max_examples=60, deadline=None)
@given(D=st.integers(1, 3), m=st.integers(1, 3), n=st.integers(0, 6), data=st.data())
def test_every_witness_is_its_smallest_rotation(D, m, n, data):
    cells = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    coeffs = data.draw(st.lists(st.lists(cells, min_size=D, max_size=D), min_size=D, max_size=D))
    _, witness = min_trace(LocalFamily(D, m, coeffs), n)
    assert witness == smallest_rotation(witness)


def test_walk_yields_each_smallest_rotation_once_in_order():
    for m in (1, 2, 3):
        fam = LocalFamily(1, m, [[[1] * m]])
        for n in range(6):
            walked = [tuple(index) for index, _, _ in _necklaces(fam, n, n)]
            want = sorted({smallest_rotation(index)
                           for index in product(range(m), repeat=n + 1)})
            assert walked == want, (m, n)


def test_one_walk_yields_each_size_its_necklaces_once_in_order():
    # the prefixes of the walk at n_max serve every size in [n_min, n_max]
    for m in (1, 2, 3):
        fam = LocalFamily(1, m, [[[1] * m]])
        for n_max in range(6):
            for n_min in range(n_max + 1):
                walked = {n: [] for n in range(n_min, n_max + 1)}
                for index, n, _ in _necklaces(fam, n_min, n_max):
                    walked[n].append(tuple(index[:n + 1]))
                for n, got in walked.items():
                    want = sorted({smallest_rotation(index)
                                   for index in product(range(m), repeat=n + 1)})
                    assert got == want, (m, n_min, n_max, n)


def test_transfer_tensor_matches_einsum_oracle_on_seeded_families():
    from omegadec.acceptance import _brute_force_transfer
    rng = np.random.default_rng(1600)
    ident = [[[1, 1, 1], [0, 0, 0]], [[0, 0, 0], [1, 1, 1]]]    # every trace ties at 2
    for D in (1, 2, 3):
        for m in (1, 2, 3):
            for fam in (seeded_family(rng, D, m), seeded_family(rng, D, m, -1, 0)):
                coeffs = np.array(fam.coeffs, dtype=np.int64)
                for n in range(7):
                    t = transfer_tensor(fam, n)
                    assert t.dims == (m,) * (n + 1) and t.mode == "rational"
                    assert all(type(x) is int for x in t.entries)
                    oracle = _brute_force_transfer(coeffs, n).reshape(-1).tolist()
                    assert t.entries == oracle, (D, m, n)
    for n in range(7):
        assert transfer_tensor(LocalFamily(2, 3, ident), n).entries == [2] * 3 ** (n + 1)


def differential_cases():
    """(family, n_min, n_max, n) for the differential against the per-size walk:
    1000 seeded families with entries in [-2, 2], then m = 1 chains up to
    n = 40, identity families whose traces all tie, and all-negative scalars."""
    rng = np.random.default_rng(3300)
    for case in range(1000):
        D, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n_max = int(rng.integers(0, {1: 13, 2: 8, 3: 5}[m]))
        n_min = (0, n_max, int(rng.integers(0, n_max + 1)))[case % 3]
        n = int(rng.integers(0, min(n_max, 5) + 1))
        yield seeded_family(rng, D, m, -2, 2), n_min, n_max, n
    for D in (1, 2, 3):
        yield seeded_family(rng, D, 1, -2, 2), 0, 40, 40
        yield seeded_family(rng, D, 1, -2, 2), 17, 40, 17
    for m in (1, 2, 3):
        ident = LocalFamily(2, m, [[[1] * m, [0] * m], [[0] * m, [1] * m]])
        yield ident, 0, {1: 40, 2: 8, 3: 5}[m], 4
        for cell in ([-1] * m, list(range(-m, 0))):
            yield LocalFamily(1, m, [[cell]]), 0, {1: 40, 2: 8, 3: 5}[m], 4


def test_one_walk_matches_the_walk_per_size():
    cases = 0
    for fam, n_min, n_max, n in differential_cases():
        got = bounded_positivity_check(fam, n_max, n_min=n_min).to_obj()
        assert got == famref.report(fam, n_max, n_min), (fam.coeffs, n_min, n_max)
        assert transfer_tensor(fam, n).entries == famref.transfer_entries(fam, n), (fam.coeffs, n)
        cases += 1
    assert cases >= 1000


def test_one_matrix_family_costs_one_walk():
    # m = 1 has one necklace per size; all sizes share one chain of prefix products
    ident = LocalFamily(2, 1, [[[1], [0]], [[0], [1]]])
    start = time.perf_counter()
    rep = bounded_positivity_check(ident, 2000)
    assert time.perf_counter() - start < 1.0
    assert [s.n for s in rep.sizes] == list(range(1, 2001))
    assert all((s.min_entry, s.witness) == (2, (0,) * (s.n + 1)) for s in rep.sizes)
    assert bounded_positivity_check(ident, 200).to_obj() == famref.report(ident, 200)


def test_the_guard_checks_every_size_before_any_trace(monkeypatch):
    walked = []
    tripping = True

    def counted(*args):
        for item in _necklaces(*args):
            # a walk to n_max = 30 would run for hours: fail at its first trace
            assert not tripping, "a trace was evaluated before the guard tripped"
            walked.append(item[1])
            yield item

    monkeypatch.setattr(familycheck, "_necklaces", counted)
    fam = LocalFamily(2, 2, [[[1, -1], [0, 1]], [[1, 0], [-1, 1]]])
    # 2**(n + 1) first passes 2**10 at n = 10: that size's message, and no trace before it
    for n_min in (1, 10):
        with pytest.raises(SizeTooLarge, match=r"^2\*\*11 tuples exceed 1024$"):
            bounded_positivity_check(fam, 30, n_min=n_min, max_tuples=2 ** 10)
    with pytest.raises(SizeTooLarge, match=r"^2\*\*13 tuples exceed 1024$"):
        bounded_positivity_check(fam, 30, n_min=12, max_tuples=2 ** 10)
    tripping = False
    rep = bounded_positivity_check(fam, 9, n_min=9, max_tuples=2 ** 10)
    assert set(walked) == {9} and len(walked) == 108      # the binary necklaces of length 10
    assert rep.to_obj() == famref.report(fam, 9, 9)
