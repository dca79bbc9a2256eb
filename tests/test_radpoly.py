"""Radical-scaled polynomial combinations."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.errors import IncommensurableScales
from omegadec.radpoly import RadPoly, RadSum, rad_outer
from omegadec.scalars import ONE, ScaledScalar
from radref import RefSum, ref_rad_outer, ref_radpoly, ref_to_float, structure


def x(sites=(1,)):
    return BlockPolynomial(sites, {((1,),): 1})


def test_commensurable_parts_merge():
    sqrt2 = ScaledScalar(2, 2)
    sqrt8 = ScaledScalar(8, 2)
    p = RadPoly.scaled_poly(sqrt8, x()) + RadPoly.scaled_poly(sqrt2, x())
    assert len(p.parts) == 1
    # sqrt8 = 2 sqrt2, so the sum is 3 sqrt2 * x
    assert p == RadPoly.scaled_poly(sqrt2, x().scaled(3))


def test_incommensurable_parts_stay_separate():
    p = (RadPoly.scaled_poly(ScaledScalar(2, 2), x())
         + RadPoly.scaled_poly(ScaledScalar(3, 2), x()))
    assert len(p.parts) == 2
    with pytest.raises(IncommensurableScales):
        p.as_polynomial()
    s, poly = (RadPoly.scaled_poly(ScaledScalar(3, 2), x())).residual()
    assert s == ScaledScalar(3, 2) and poly == x()


def test_collapse_is_exact_unless_irrational_parts_remain():
    exact = RadPoly.scaled_poly(ScaledScalar(Fraction(9, 4), 2), x())
    assert exact.collapse() == x().scaled(Fraction(3, 2))
    assert exact.collapse().mode == RATIONAL
    mixed = (RadPoly.scaled_poly(ScaledScalar(2, 2), x())
             + RadPoly.scaled_poly(ScaledScalar(3, 2), x()))
    assert mixed.collapse().mode == FLOAT
    assert mixed.collapse().allclose(mixed.to_float(), 0.0)


def test_products_fold_to_rational():
    s = RadPoly.scaled_poly(ScaledScalar(Fraction(15, 8), 2), BlockPolynomial.constant((1,), 1))
    prod = s * s
    assert prod.as_polynomial() == BlockPolynomial.constant((1,), Fraction(15, 8))


def test_fourth_roots():
    r4 = RadPoly.scaled_poly(ScaledScalar(2, 4), x())
    assert (r4 * r4).residual()[0] == ScaledScalar(2, 2)
    assert (r4 * r4 * r4 * r4).as_polynomial() == BlockPolynomial((1,), {((4,),): 2})


def test_equality_is_semantic():
    sqrt2 = ScaledScalar(2, 2)
    a = RadPoly.scaled_poly(sqrt2, x().scaled(2))
    b = RadPoly.scaled_poly(ScaledScalar(8, 2), x())
    assert a == b
    assert not (a == RadPoly.scaled_poly(sqrt2, x()))
    assert RadPoly.zero((1,)) == RadPoly.from_poly(BlockPolynomial.zero((1,)))


def test_subtraction_cancels():
    sqrt2 = ScaledScalar(2, 2)
    a = RadPoly.scaled_poly(sqrt2, x())
    assert (a - a).is_zero()


def test_float_mode_collapses():
    p = RadPoly.scaled_poly(ScaledScalar(2, 2), x().astype_float())
    assert p.mode == FLOAT
    assert len(p.parts) == 1 and p.parts[0][0] == ONE
    assert abs(p.parts[0][1].terms[((1,),)] - 2**0.5) < 1e-12


def test_rad_outer():
    sqrt2 = ScaledScalar(2, 2)
    f = RadPoly.scaled_poly(sqrt2, x())
    g = RadPoly.scaled_poly(sqrt2, BlockPolynomial.univar({0: 1, 1: 1}))
    prod = rad_outer([f, g])
    expected = BlockPolynomial((1, 1), {((1,), (0,)): 2, ((1,), (1,)): 2})
    assert prod.as_polynomial() == expected
    assert rad_outer([f, RadPoly.zero((1,))]).is_zero()


def test_scale_mul_and_scalar():
    p = RadPoly.from_poly(x())
    q = p.scale_mul(ScaledScalar(2, 2)).scale_mul(ScaledScalar(2, 2))
    assert q.as_polynomial() == x().scaled(2)
    assert p.scaled(Fraction(-3, 2)).as_polynomial() == x().scaled(Fraction(-3, 2))


def test_act_moves_blocks():
    p = RadPoly.scaled_poly(ScaledScalar(2, 2), BlockPolynomial((1, 1), {((2,), (1,)): 1}))
    q = p.act((1, 0))
    assert q == RadPoly.scaled_poly(ScaledScalar(2, 2),
                                    BlockPolynomial((1, 1), {((1,), (2,)): 1}))


# Scales in three commensurability classes: {1}, {sqrt2, sqrt8, sqrt(1/2)}, {sqrt3, sqrt12},
# plus the fourth root of 2, so sums merge some parts and keep others apart.
SCALES = [ONE, ScaledScalar(2, 2), ScaledScalar(8, 2), ScaledScalar(Fraction(1, 2), 2),
          ScaledScalar(3, 2), ScaledScalar(12, 2), ScaledScalar(2, 4)]


def polys(mode=RATIONAL):
    keys = st.tuples(st.tuples(st.integers(0, 2)), st.tuples(st.integers(0, 1)))
    if mode == FLOAT:
        values = st.floats(-100, 100, allow_nan=False).filter(bool)
    else:
        values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    return st.dictionaries(keys, values, max_size=3).map(
        lambda d: BlockPolynomial((1, 1), d, mode))


def radpolys(mode=RATIONAL):
    parts = st.lists(st.tuples(st.sampled_from(SCALES), polys(mode)), max_size=4)
    return parts.map(lambda ps: RadPoly((1, 1), ps, mode))


def rewritten(p: RadPoly, data) -> RadPoly:
    """The same value with every part moved to another scale of its class."""
    parts = []
    for s, q in p.parts:
        other = data.draw(st.sampled_from([t for t in SCALES if s.ratio_to(t) is not None]))
        parts.append((other, q.scaled(s.ratio_to(other))))
    return RadPoly(p.sites, parts)


def reference_merge(sites, parts, mode=RATIONAL):
    """Merged parts built one polynomial operation at a time: a part joins the
    first earlier part with a rational scale ratio, or is appended; parts that
    cancel are dropped at the end. Returns (mode, [(scale, poly)])."""
    float_mode = mode == FLOAT or any(p.mode == FLOAT for _, p in parts)
    merged = []
    for s, p in parts:
        if p.is_zero():
            continue
        if float_mode:
            p, s = p.astype_float().scaled(float(s)), ONE
        for idx, (s0, p0) in enumerate(merged):
            ratio = Fraction(1) if float_mode else s.ratio_to(s0)
            if ratio is not None:
                merged[idx] = (s0, p0 + (p.scaled(float(ratio)) if float_mode else p.scaled(ratio)))
                break
        else:
            merged.append((s, p))
    return (FLOAT if float_mode else RATIONAL), [(s, p) for s, p in merged if not p.is_zero()]


def same_structure(a: RadPoly, b: RadPoly) -> bool:
    """Equal parts in the same order, each with its terms in the same order."""
    return a.mode == b.mode and [(s, list(p.terms.items())) for s, p in a.parts] == \
        [(s, list(p.terms.items())) for s, p in b.parts]


def test_equality_across_commensurable_scales():
    p = BlockPolynomial((1,), {((1,),): 2, ((3,),): -4})
    a = RadPoly.scaled_poly(ScaledScalar(2, 2), p)
    b = RadPoly.scaled_poly(ScaledScalar(8, 2), p.scaled(Fraction(1, 2)))
    assert a == b and (a - b).is_zero()
    assert not a == b.scaled(2)


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_equality_agrees_with_subtraction(data):
    a = data.draw(radpolys())
    b = data.draw(st.sampled_from(["same", "rewritten", "other"]))
    b = {"same": a, "rewritten": rewritten(a, data), "other": data.draw(radpolys())}[b]
    assert (a == b) == (a - b).is_zero()
    assert (b == a) == (a == b)
    assert rewritten(a, data) == a


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_trusted_results_are_merged(data):
    mode = data.draw(st.sampled_from([RATIONAL, FLOAT]))
    a = data.draw(radpolys(mode))
    c = data.draw(st.integers(-2, 2) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
                  | st.floats(-3, 3))
    s = data.draw(st.sampled_from(SCALES))
    for r in (-a, a.scaled(c), a.scale_mul(s), a.act((1, 0))):
        assert same_structure(r, RadPoly(r.sites, r.parts, r.mode))
        assert all(not p.is_zero() for _, p in r.parts)


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_in_place_sum_matches_chained_addition(data):
    modes = st.sampled_from([RATIONAL, RATIONAL, FLOAT])
    items = data.draw(st.lists(modes.flatmap(radpolys), max_size=6))
    items += [-x for x in data.draw(st.lists(st.sampled_from(items), max_size=3))] if items else []
    start = data.draw(modes)
    chained, acc, ref = RadPoly.zero((1, 1), start), RadSum((1, 1), start), (start, [])
    for x in items:
        chained = chained + x
        acc.add(x)
        ref = reference_merge((1, 1), ref[1] + list(x.parts), FLOAT if FLOAT in (ref[0], x.mode)
                              else RATIONAL)
        assert same_structure(chained, RadPoly._trusted((1, 1), tuple(ref[1]), ref[0]))
    assert same_structure(acc.result(), chained)


def test_a_cancelled_part_keeps_its_place():
    sqrt2, sqrt3, sqrt8 = ScaledScalar(2, 2), ScaledScalar(3, 2), ScaledScalar(8, 2)
    p = RadPoly((1,), [(sqrt2, x()), (sqrt3, x()), (sqrt2, -x()), (sqrt8, x())])
    assert [(s, p.terms) for s, p in p.parts] == [(sqrt2, {((1,),): 2}), (sqrt3, {((1,),): 1})]
    # The rational part of this product cancels after two of its eight
    # combinations and comes back in a later one, so it keeps its place
    # and its representative scale, as in the product built by `outer`.
    a = RadPoly((1,), [(ONE, x()), (sqrt2, BlockPolynomial.univar({2: 1}))])
    b = RadPoly((1,), [(ONE, x()), (sqrt2, x())])
    c = RadPoly((1,), [(ONE, x()), (sqrt2, x().scaled(Fraction(-1, 2)))])
    for got in (rad_outer([a, b, c]), ref_rad_outer([a, b, c])):
        assert [(s, p.terms) for s, p in got.parts] == [
            (ONE, {((2,), (1,), (1,)): 1}), (sqrt2, {((1,), (1,), (1,)): Fraction(1, 2)})]


# Seeded differential against the reference merges of tests/radref.py. The
# values include 1e-170, whose square underflows to 0.0, and the scales include
# the commensurable pair sqrt2, sqrt8 and the fourth root of 2.
DIFF_SCALES = [ONE, ScaledScalar(2, 2), ScaledScalar(3, 2), ScaledScalar(8, 2), ScaledScalar(2, 4)]
DIFF_VALUES = {RATIONAL: [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)],
               FLOAT: [1.0, -1.0, 0.1, -0.1, 3.0, 1e-170, -1e-170]}
DIFF_MODES = {"rational": [RATIONAL], "float": [FLOAT], "mixed": [RATIONAL, FLOAT]}


def random_poly(rng, sites, mode):
    keys = list(product(*[list(product(range(2), repeat=m)) for m in sites]))
    chosen = rng.sample(keys, rng.randint(0, min(3, len(keys))))
    return BlockPolynomial(sites, {k: rng.choice(DIFF_VALUES[mode]) for k in chosen}, mode)


def random_parts(rng, sites, modes):
    """Up to four parts, a third of them cancelling an earlier part at an equal or
    commensurable scale, in whole or in part."""
    parts = []
    for _ in range(rng.randint(0, 4)):
        if parts and rng.random() < 0.35:
            s, p = rng.choice(parts)
            t = rng.choice([t for t in DIFF_SCALES if s.ratio_to(t) is not None])
            parts.append((t, p.scaled(-s.ratio_to(t))))
        else:
            parts.append((rng.choice(DIFF_SCALES), random_poly(rng, sites, rng.choice(modes))))
    return parts


def random_radpoly(rng, sites, modes):
    return ref_radpoly(sites, random_parts(rng, sites, modes), rng.choice(modes))


def random_factors(rng, modes):
    return [random_radpoly(rng, (rng.randint(1, 2),), modes) for _ in range(rng.randint(1, 3))]


def common_mode(*xs):
    return FLOAT if any(x.mode == FLOAT for x in xs) else RATIONAL


def diff_case(op, rng, modes):
    """(library result, reference result) of one seeded operation."""
    sites = rng.choice([(1,), (2,), (1, 1)])
    a, b = random_radpoly(rng, sites, modes), random_radpoly(rng, sites, modes)
    if op == "construct":
        parts, mode = random_parts(rng, sites, modes), rng.choice(modes)
        return RadPoly(sites, parts, mode), ref_radpoly(sites, parts, mode)
    if op == "add":
        return a + b, ref_radpoly(sites, a.parts + b.parts, common_mode(a, b))
    if op == "sub":
        return a - b, ref_radpoly(sites, a.parts + tuple((s, -p) for s, p in b.parts),
                                  common_mode(a, b))
    if op == "mul":
        return a * b, ref_radpoly(sites, [(s * t, p * q) for s, p in a.parts for t, q in b.parts],
                                  common_mode(a, b))
    if op == "scaled":
        c = rng.choice([0, 2, Fraction(-1, 3), 0.5, -3.0, 1e-170])
        return a.scaled(c), ref_radpoly(sites, [(s, p.scaled(c)) for s, p in a.parts], a.mode)
    if op == "scale_mul":
        t = rng.choice(DIFF_SCALES)
        return a.scale_mul(t), ref_radpoly(sites, [(t * s, p) for s, p in a.parts], a.mode)
    if op == "to_float":
        return a.to_float(), ref_to_float(a)
    if op == "rad_outer":
        factors = random_factors(rng, modes)
        return rad_outer(factors), ref_rad_outer(factors)
    if op == "add_outer":     # products and whole RadPolys added in turn to one sum
        factors = random_factors(rng, modes)
        sites = tuple(f.sites[0] for f in factors)
    start = rng.choice(modes)
    acc, ref = RadSum(sites, start), RefSum(sites, start)
    for _ in range(rng.randint(1, 3)):
        x = random_radpoly(rng, sites, modes)
        acc.add(x)
        ref.add(x)
        if op == "add_outer":
            factors = [random_radpoly(rng, f.sites, modes) for f in factors]
            acc.add_outer(factors)
            ref.add(ref_rad_outer(factors))
    return acc.result(), ref.result()


DIFF_OPS = ["construct", "add", "sub", "mul", "scaled", "scale_mul", "to_float", "add_sum",
            "rad_outer", "add_outer"]


@pytest.mark.parametrize("op", DIFF_OPS)
def test_radical_layer_matches_the_reference_merges(op):
    """120 seeded cases per operation, 1200 in all, in rational, float and mixed
    modes: equal parts, scales, term order, coefficient types and float bits."""
    for seed in range(120):
        rng = random.Random(f"{op}:{seed}")
        got, want = diff_case(op, rng, DIFF_MODES[["rational", "float", "mixed"][seed % 3]])
        assert structure(got) == structure(want), (op, seed)
