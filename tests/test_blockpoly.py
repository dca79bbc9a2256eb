"""Block polynomial arithmetic, degrees, block moves, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial, outer
from omegadec.errors import IncompatibleBlockSizes
from omegadec.radpoly import RadSum
from omegadec.scalars import ScaledScalar


def quartic():
    return BlockPolynomial((1, 1), {
        ((0,), (0,)): 4, ((1,), (1,)): 8, ((2,), (0,)): 1,
        ((0,), (2,)): 1, ((2,), (2,)): 4})


def test_zero_coefficients_dropped():
    p = BlockPolynomial((1,), {((1,),): 0, ((2,),): 3})
    assert list(p.terms) == [((2,),)]
    q = BlockPolynomial((1,), {((1,),): 2}) + BlockPolynomial((1,), {((1,),): -2})
    assert q.is_zero()


def test_local_degree_examples():
    assert quartic().local_degree() == 2
    assert BlockPolynomial.constant((1, 1), 1).local_degree() == 0
    p = BlockPolynomial((1, 1), {((3,), (1,)): 1})
    assert p.local_degree() == 3
    assert max(sum(map(sum, key)) for key in p.terms) == 4


def test_bad_term_shapes_rejected():
    with pytest.raises(ValueError):
        BlockPolynomial((1, 1), {((1,),): 1})
    with pytest.raises(ValueError):
        BlockPolynomial((2,), {((1,),): 1})
    with pytest.raises(TypeError):
        BlockPolynomial((1,), {((1,),): 0.5})  # float coefficient in rational mode


def test_act_examples():
    # x^2 y -> x y^2 under the swap
    p = BlockPolynomial((1, 1), {((2,), (1,)): 1})
    swapped = p.act((1, 0))
    assert swapped == BlockPolynomial((1, 1), {((1,), (2,)): 1})
    assert p.act((0, 1)) == p
    sym = BlockPolynomial((1, 1), {((2,), (0,)): 1, ((0,), (2,)): 1})
    assert sym.act((1, 0)) == sym


def test_act_rejects_incompatible_widths():
    p = BlockPolynomial((1, 2), {((1,), (0, 0)): 1})
    with pytest.raises(IncompatibleBlockSizes):
        p.act((1, 0))


def test_evaluate():
    p = quartic()
    assert p.evaluate([(1,), (2,)]) == 4 + 16 + 1 + 4 + 16
    assert p.evaluate([(Fraction(1, 2),), (0,)]) == 4 + Fraction(1, 4)


def test_outer_matches_product():
    f = BlockPolynomial.univar({0: 1, 2: 2})
    g = BlockPolynomial.univar({1: 3})
    prod = outer([f, g])
    assert prod == BlockPolynomial((1, 1), {((0,), (1,)): 3, ((2,), (1,)): 6})
    zero = outer([f, BlockPolynomial.zero((1,))])
    assert zero.is_zero()


def test_mode_promotion_and_allclose():
    p = BlockPolynomial.univar({1: 1})
    q = BlockPolynomial.univar({1: 1.0}, mode=FLOAT)
    assert (p + q).mode == FLOAT
    assert p.astype_float().allclose(q)
    assert not p.astype_float().allclose(q.scaled(1.001), 1e-9)


coeffs = st.integers(min_value=-4, max_value=4)


def small_polys(sites=(1, 1), deg=2):
    keys = st.tuples(*(st.tuples(st.integers(min_value=0, max_value=deg))
                       for _ in sites))
    return st.dictionaries(keys, coeffs, max_size=4).map(
        lambda d: BlockPolynomial(sites, d))


@given(small_polys(), small_polys(), small_polys())
@settings(deadline=None, max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r


@given(small_polys())
@settings(deadline=None, max_examples=60)
def test_json_round_trip_lossless(p):
    assert BlockPolynomial.from_obj(p.to_obj()) == p


@given(small_polys(sites=(1, 1, 1)))
@settings(deadline=None, max_examples=40)
def test_act_composition(p):
    g = (1, 2, 0)
    h = (2, 0, 1)
    hg = tuple(h[g[i]] for i in range(3))
    assert p.act(g).act(h) == p.act(hg)
    assert p.act((0, 1, 2)) == p


@given(small_polys())
@settings(deadline=None, max_examples=40)
def test_eval_permutation_identity(p):
    # moving blocks by g, then evaluating, matches evaluating with permuted points
    g = (1, 0)
    point = [(Fraction(2),), (Fraction(-3),)]
    moved = p.act(g)
    permuted_point = [point[g[0]], point[g[1]]]
    assert moved.evaluate(permuted_point) == p.evaluate(point)


def test_sorted_terms_lexicographic():
    p = BlockPolynomial((1, 1), {((2,), (0,)): 1, ((0,), (2,)): 2, ((1,), (1,)): 3})
    assert [k for k, _ in p.sorted_terms()] == [
        ((0,), (2,)), ((1,), (1,)), ((2,), (0,))]


# Arithmetic results skip the validating constructor; they must still be what
# it would build: same terms, no stored zero, coefficient type set by the mode.

def sparse_polys(mode, sites=(1, 2), deg=2, values=None):
    keys = st.tuples(*(st.tuples(*(st.integers(min_value=0, max_value=deg) for _ in range(m)))
                       for m in sites))
    if values is None and mode == FLOAT:
        # tiny magnitudes make products underflow to 0.0, which must be dropped
        values = st.sampled_from([1e-170, -1e-170]) | st.floats(
            min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
    elif values is None:
        values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(keys, values, max_size=5).map(lambda d: BlockPolynomial(sites, d, mode))


def assert_clean(r):
    assert r == BlockPolynomial(r.sites, r.terms, r.mode)
    assert all(r.terms.values())
    allowed = (float,) if r.mode == FLOAT else (int, Fraction)
    assert all(type(c) in allowed for c in r.terms.values())


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_arithmetic_results_are_clean(data):
    mode_p, mode_q = (data.draw(st.sampled_from([RATIONAL, FLOAT])) for _ in range(2))
    p = data.draw(sparse_polys(mode_p))
    q = data.draw(sparse_polys(mode_q))
    c = data.draw(st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
                  | st.floats(-10, 10) | st.sampled_from([1e-170]))
    for r in (p + q, p - q, p + (-p), -p, p * q, p * p, p.scaled(c), p * c, p.act((0, 1)),
              p.astype_float()):
        assert_clean(r)
    f = data.draw(sparse_polys(mode_p, sites=(1,)))
    g = data.draw(sparse_polys(mode_q, sites=(1,)))
    h = data.draw(sparse_polys(RATIONAL, sites=(2,)))
    assert_clean(outer([f, g, h]))
    assert_clean(outer([f.astype_float(), f.astype_float()]))
    assert_clean(f.act((0,)))


# Integer coefficients stay Python ints through every exact operation, so the
# exact core multiplies and adds them without Fraction objects.

def assert_int_coefficients(r):
    assert r.mode == RATIONAL
    assert all(type(c) is int for c in r.terms.values())


# n * sqrt(b): within one b, every scale is an integer multiple of the n = 1 scale
INT_MULTIPLES = {b: [ScaledScalar(n * n * b, 2) for n in (1, 2, 3)] for b in (1, 2, 3)}


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_integer_inputs_give_int_coefficients(data):
    ints = st.integers(-6, 6)
    p, q = (data.draw(sparse_polys(RATIONAL, values=ints)) for _ in range(2))
    n = data.draw(ints)
    f, g = (data.draw(sparse_polys(RATIONAL, sites=(1,), values=ints)) for _ in range(2))
    h = data.draw(sparse_polys(RATIONAL, sites=(2,), values=ints))
    for r in (p + q, p - q, -p, p * q, p.act((0, 1)), p.scaled(n), p.scaled(Fraction(n)),
              p * n, outer([f, g, h])):
        assert_int_coefficients(r)
    acc = RadSum(p.sites)
    for multiples in INT_MULTIPLES.values():
        acc.add_part(multiples[0], BlockPolynomial.constant(p.sites, 1))
    for _ in range(data.draw(st.integers(0, 6))):
        s = data.draw(st.sampled_from(INT_MULTIPLES[data.draw(st.sampled_from([1, 2, 3]))]))
        acc.add_part(s, data.draw(sparse_polys(RATIONAL, values=ints)))
    acc.drop_zeros()
    for _, r in acc.result().parts:
        assert_int_coefficients(r)


def test_from_obj_stores_integral_coefficients_as_int():
    p = BlockPolynomial.from_obj({"sites": [1], "terms": [
        {"exps": [[0]], "coeff": "3"}, {"exps": [[1]], "coeff": "3/2"},
        {"exps": [[2]], "coeff": "6/2"}]})
    c0, c1, c2 = (p.terms[((d,),)] for d in range(3))
    assert type(c0) is int and c0 == 3
    assert type(c1) is Fraction and c1 == Fraction(3, 2)
    assert type(c2) is int and c2 == 3
    assert p.to_obj()["terms"][0]["coeff"] == "3"


def test_float_underflow_is_dropped():
    tiny = BlockPolynomial.univar({0: 1e-170, 1: 1.0}, mode=FLOAT)
    assert list((tiny * tiny).terms) == [((1,),), ((2,),)]
    assert list(tiny.scaled(1e-170).terms) == [((1,),)]
    assert outer([tiny, tiny]).terms == {((0,), (1,)): 1e-170, ((1,), (0,)): 1e-170,
                                         ((1,), (1,)): 1.0}
    assert BlockPolynomial.univar({0: Fraction(1, 10**400)}).astype_float().is_zero()


def test_non_finite_float_coefficients_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            BlockPolynomial.univar({0: bad}, mode=FLOAT)
        with pytest.raises(ValueError):
            BlockPolynomial.from_obj({"sites": [1], "mode": FLOAT,
                                      "terms": [{"exps": [[0]], "coeff": bad}]})


def test_allclose_fails_on_non_finite():
    ok = BlockPolynomial.univar({0: 1.0}, mode=FLOAT)
    nan = BlockPolynomial._trusted((1,), {((0,),): float("nan")}, FLOAT)
    inf = BlockPolynomial._trusted((1,), {((1,),): float("inf")}, FLOAT)
    for a, b in ((nan, nan), (nan, ok), (ok, nan), (inf, inf), (ok, inf)):
        assert not a.allclose(b)
    assert ok.allclose(ok)


def test_term_pairs_sum_at_their_first_occurrence_and_drop_zeros_last():
    pairs = [([[1]], "1/2"), ([[0]], 2), ([[1]], "1/2"), ([[2]], 1), ([[0]], -2), ([[2]], 0)]
    p = BlockPolynomial((1,), pairs)
    assert list(p.terms.items()) == [(((1,),), 1), (((2,),), 1)]
    assert type(p.terms[((1,),)]) is int
    assert BlockPolynomial.from_obj({"sites": [1], "terms": [
        {"exps": e, "coeff": c} for e, c in pairs]}).terms == p.terms
    # a key that cancels and comes back keeps its first place
    q = BlockPolynomial((1,), [([[1]], 1), ([[2]], 1), ([[1]], -1), ([[1]], 3)])
    assert list(q.terms) == [((1,),), ((2,),)] and q.terms[((1,),)] == 3
    with pytest.raises(ValueError, match="float coefficients must be finite"):
        BlockPolynomial((1,), [([[0]], 1e308), ([[0]], 1e308)], FLOAT)


def test_from_obj_reads_the_mode_before_any_coefficient():
    obj = {"sites": [1], "mode": "Float", "terms": [{"exps": [[0]], "coeff": 0.5}]}
    with pytest.raises(ValueError, match="unknown mode 'Float'"):
        BlockPolynomial.from_obj(obj)
