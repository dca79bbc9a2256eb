"""Raises and branches that no other test reaches, pinned.

Each row of the raise table builds its input and calls one function, which
must raise the given error with exactly the given message; one test runs
the `omega` command whose guard is otherwise unreached. The tests after the
table take the other branches no other test takes, each with the value it
gives, so that dropping or flipping the branch fails a test.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from omegadec.approx import SeparableGram, _normalize_site, approx_separable
from omegadec.blockpoly import FLOAT, BlockPolynomial, outer
from omegadec.cli import main
from omegadec.complexes import standard_complex
from omegadec.decomposition import (
    OmegaGDecomposition,
    bipartite_rank,
    concat_sum,
    elementary_sum,
    pointwise_product,
)
from omegadec.errors import _integer, digits_checked
from omegadec.familycheck import transfer_tensor
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_swap_action,
    nonnegative_family,
    sos_family_witness_double_edge,
    squares_double_edge_decomposition,
)
from omegadec.positivity import (
    GramRepresentation,
    SosOmegaGDecomposition,
    cone_check,
    factorizability_solve,
    family_symmetrize,
    gram_symmetrize,
    invariant_sos_family,
    sep_to_sos,
)
from omegadec.radpoly import RadPoly, RadSum
from omegadec.scalars import ONE, ScaledScalar, integer_root
from omegadec.tensorbridge import (
    DenseTensor,
    TensorDecomposition,
    distance_matrix,
    distance_nn_lower_bound,
    poly_dec_to_tensor_dec,
    poly_from_tensor,
    polygon_slack,
    psd_distance_factorization,
    tensor_dec_to_poly_dec,
    tensor_from_poly,
)
from test_family_build import planted_case, snapshot

X = BlockPolynomial.univar({1: 1})
WIDE = BlockPolynomial.constant((2,), 1)     # one site of two variables


def other_complex():
    """An empty decomposition of the same widths on the single edge."""
    return OmegaGDecomposition(standard_complex("single_edge"), None, 1, (1, 1), {})


def other_widths():
    """An empty decomposition of widths (2, 2) on the double edge."""
    return OmegaGDecomposition(standard_complex("double_edge"), None, 1, (2, 2), {})


def gram():
    return GramRepresentation(1, 1, 1, np.eye(4))


def moved_witness():
    """A witness of trace 1 whose matrix the double-edge swap moves."""
    F1, F2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return SeparableGram(GramRepresentation(1, 1, 1, np.kron(F1, F2)), [(1.0, [F1, F2])])


def half_witness():
    """The witness (I/2) (x) (I/2) on two sites, of trace 1."""
    half = np.eye(2) / 2
    return SeparableGram(GramRepresentation(1, 1, 1, np.kron(half, half)),
                         [(1.0, [half, half])])


def sep_for_another_index_size():
    sep = squares_double_edge_decomposition()
    return sep_to_sos(sep, factorizability_solve(sep.action, sep.index_size + 1))


def non_psd_tensor():
    c = standard_complex("single_edge")
    return TensorDecomposition("psd", c, None, 1, 1,
                               psd_mats={(0, 0): {((1,), (1,)): -1}, (1, 0): {((1,), (1,)): 1}})


def quadratic_sos():
    """An sos decomposition on the single edge whose site-0 local is x^2."""
    x2 = BlockPolynomial.univar({2: 1})
    return SosOmegaGDecomposition(standard_complex("single_edge"), None, 1, (1, 1), (0,),
                                  {(0, 0, (1,)): x2, (1, 0, (1,)): X})


def mixed_widths():
    return OmegaGDecomposition(standard_complex("single_edge"), None, 1, (1, 2),
                               {0: {(1,): X}})


RAISES = [
    ("concat_sum: different complexes",
     lambda: concat_sum(squares_double_edge_decomposition(), other_complex()),
     "ValueError", "summands live on different complexes"),
    ("concat_sum: different widths",
     lambda: concat_sum(squares_double_edge_decomposition(), other_widths()),
     "IncompatibleBlockSizes", "summands disagree on site widths"),
    ("pointwise_product: different complexes",
     lambda: pointwise_product(squares_double_edge_decomposition(), other_complex()),
     "ValueError", "factors live on different complexes"),
    ("pointwise_product: different widths",
     lambda: pointwise_product(squares_double_edge_decomposition(), other_widths()),
     "IncompatibleBlockSizes", "factors disagree on site widths"),
    ("RadPoly.__add__", lambda: RadPoly.from_poly(X) + RadPoly.from_poly(WIDE),
     "ValueError", "site mismatch"),
    ("RadSum.add", lambda: RadSum((1,)).add(RadPoly.from_poly(WIDE)),
     "ValueError", "site mismatch"),
    ("RadPoly.__init__", lambda: RadPoly((1,), [(ONE, WIDE)]),
     "ValueError", "part sites (2,) differ from (1,)"),
    ("gram_symmetrize: vertex count",
     lambda: gram_symmetrize(gram(), circle_rotation_action(3)),
     "DimensionMismatch", "action vertex count differs from Gram site count"),
    ("invariant_sos_family: vertex count",
     lambda: invariant_sos_family(gram(), circle_rotation_action(3)),
     "DimensionMismatch", "action vertex count differs from Gram site count"),
    ("approx_separable: vertex count",
     lambda: approx_separable(half_witness(), circle_rotation_action(3), 0.5),
     "DimensionMismatch", "action vertex count differs from witness"),
    ("approx_separable: not invariant",
     lambda: approx_separable(moved_witness(), double_edge_swap_action(), 0.5),
     "NotInvariant", "witness matrix is not invariant under the action"),
    ("sep_to_sos: another index size", sep_for_another_index_size,
     "DimensionMismatch", "splitting solved for a different index size"),
    ("tensor_dec_to_poly_dec: not psd", lambda: tensor_dec_to_poly_dec(non_psd_tensor()),
     "NotPSD", "psd decomposition has a non-psd matrix"),
    ("poly_dec_to_tensor_dec: plain of an sos decomposition",
     lambda: poly_dec_to_tensor_dec(sos_family_witness_double_edge(), "plain"),
     "TypeError", "plain/nonnegative conversion expects a polynomial decomposition"),
    ("poly_dec_to_tensor_dec: psd of a plain decomposition",
     lambda: poly_dec_to_tensor_dec(squares_double_edge_decomposition(), "psd"),
     "TypeError", "psd conversion expects an sos family decomposition"),
    ("poly_dec_to_tensor_dec: mixed widths",
     lambda: poly_dec_to_tensor_dec(mixed_widths(), "nonnegative"),
     "DimensionMismatch", "all sites must share one width"),
    ("poly_dec_to_tensor_dec: non-linear local",
     lambda: poly_dec_to_tensor_dec(quadratic_sos(), "psd"),
     "NotCanonicalForm", "psd conversion needs linear locals"),
    ("poly_dec_to_tensor_dec: unknown variant",
     lambda: poly_dec_to_tensor_dec(squares_double_edge_decomposition(), "dense"),
     "ValueError", "unknown variant 'dense'"),
    ("integer_root: negative radicand", lambda: integer_root(-1, 2),
     "ValueError", "negative radicand"),
    ("integer_root: root index", lambda: integer_root(4, 0),
     "ValueError", "root index must be >= 1"),
    ("ScaledScalar.root", lambda: ScaledScalar(2, 2).root(0),
     "ValueError", "root index must be >= 1"),
    ("LocalFamily.scaled", lambda: nonnegative_family().scaled(0),
     "ValueError", "scaling factor must be positive"),
    ("transfer_tensor: negative size", lambda: transfer_tensor(nonnegative_family(), -1),
     "ValueError", "n must be >= 0"),
    ("standard_complex: simplex", lambda: standard_complex("simplex", -1),
     "InvalidSize", "simplex needs n >= 0"),
    ("BlockPolynomial.__add__: widths", lambda: X + WIDE,
     "IncompatibleBlockSizes", "(1,) vs (2,)"),
    ("BlockPolynomial.__mul__: widths", lambda: X * WIDE,
     "IncompatibleBlockSizes", "(1,) vs (2,)"),
    ("BlockPolynomial.evaluate: blocks", lambda: X.evaluate([(1,), (1,)]),
     "ValueError", "point has wrong number of site blocks"),
    ("BlockPolynomial.evaluate: width", lambda: X.evaluate([(1, 2)]),
     "ValueError", "point block has wrong width"),
    ("outer: no factor", lambda: outer([]), "ValueError", "empty factor list"),
    ("outer: two-site factor", lambda: outer([BlockPolynomial.constant((1, 1), 1)]),
     "ValueError", "outer expects single-site factors"),
    ("elementary_sum: no term", lambda: elementary_sum([]),
     "ValueError", "need at least one elementary term"),
    ("digits_checked", lambda: digits_checked("1" * 4301),
     "ValueError", "number has 4301 digits, more than 4300"),
    ("RadPoly.residual: two parts",
     lambda: (RadPoly.from_poly(X) + RadPoly.scaled_poly(ScaledScalar(2, 2), X)).residual(),
     "IncommensurableScales", "2 parts, expected 1"),
    ("RadPoly.as_polynomial: one irrational part",
     lambda: RadPoly.scaled_poly(ScaledScalar(2, 2), X).as_polynomial(),
     "IncommensurableScales", "result has 1 radical part(s); use residual() or to_float()"),
    ("DenseTensor: index out of range", lambda: DenseTensor((2,), [1, 2])[(2,)],
     "IndexError", "index (2,) out of range for (2,)"),
    ("poly_from_tensor: unequal axes", lambda: poly_from_tensor(DenseTensor((1, 2), [1, 2])),
     "DimensionMismatch", "axis dimensions must agree"),
    ("tensor_from_poly: unequal widths",
     lambda: tensor_from_poly(BlockPolynomial.constant((1, 2), 1)),
     "DimensionMismatch", "all sites must have the same width"),
    ("TensorDecomposition: unknown variant",
     lambda: TensorDecomposition("dense", standard_complex("single_edge"), None, 1, 1),
     "ValueError", "unknown variant 'dense'"),
    ("distance_matrix", lambda: distance_matrix(1), "ValueError", "need m >= 2"),
    ("psd_distance_factorization", lambda: psd_distance_factorization(1),
     "ValueError", "need m >= 2"),
    ("polygon_slack", lambda: polygon_slack(2), "ValueError", "need m >= 3"),
    ("distance_nn_lower_bound", lambda: distance_nn_lower_bound(0),
     "ValueError", "need m >= 1"),
    ("cone_check: unknown cone", lambda: cone_check(X, "dense"),
     "ValueError", "unknown cone 'dense'"),
]


@pytest.mark.parametrize("call,error,message", [r[1:] for r in RAISES],
                         ids=[r[0] for r in RAISES])
def test_each_raise_keeps_its_type_and_message(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value).__name__, str(info.value)) == (error, message)


def test_dec_symmetrize_needs_an_action(capsys, tmp_path):
    x = {"sites": [1], "terms": [{"exps": [[1]], "coeff": "1"}]}
    bundle = {"complex": {"n": 1, "facets": [{"vertices": [0, 1], "weight": 2}]},
              "terms": [[x, x]]}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code = main(["dec", "symmetrize", str(path), "--mode", "free"])
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "OmegaError", "message": "symmetrize needs an action in the bundle"}


def test_a_float_fold_that_underflows_drops_the_term():
    tiny = BlockPolynomial.univar({1: 1e-30}, FLOAT)
    assert RadPoly.scaled_poly(ScaledScalar(Fraction(1, 10**300)), tiny).parts == ()


def test_an_irrational_part_collapses_to_its_float_reading():
    p = RadPoly.scaled_poly(ScaledScalar(2, 2), X).collapse()
    assert p.mode == FLOAT and p.terms == {((1,),): float(ScaledScalar(2, 2))}


def test_a_radpoly_times_a_fraction_is_scaled():
    assert RadPoly.from_poly(X) * Fraction(1, 3) == RadPoly.from_poly(X.scaled(Fraction(1, 3)))


def test_zero_polynomials_of_other_sites_are_unequal():
    assert RadPoly.zero((1,)) != RadPoly.zero((2,))
    assert not BlockPolynomial.zero((1,)).allclose(BlockPolynomial.zero((2,)))


def test_bipartite_rank_reads_a_radpoly():
    xy = BlockPolynomial((1, 1), {((1,), (1,)): 1, ((0,), (0,)): 1})
    assert bipartite_rank(RadPoly.from_poly(xy)) == 2


def test_a_float_orbit_compares_an_unstored_member_with_a_later_stored_one():
    """On the rotated circle of three, the orbit's first and last keys hold 0.6e-9 and
    1.2e-9 and the middle one nothing: each stored local is within 1e-9 of the other
    and of zero, but zero is not within 1e-9 of 1.2e-9."""
    a = circle_rotation_action(3)
    first, middle, last = next(a.orbits([(0, (1, 1))]))
    assert middle[0] != first[0] != last[0]

    def const(c):
        return BlockPolynomial.constant((1,), c, FLOAT)

    locals_ = {first[0]: {first[1]: const(0.6e-9)}, last[0]: {last[1]: const(1.2e-9)}}
    assert not OmegaGDecomposition(a.complex, a, 1, (1, 1, 1), locals_).check_symmetry()
    locals_[last[0]][last[1]] = const(0.9e-9)
    assert OmegaGDecomposition(a.complex, a, 1, (1, 1, 1), locals_).check_symmetry()


def test_family_symmetrize_reads_a_missing_factor_as_zero():
    gram, factors = planted_case(0, 1, 1)
    kept = {key: p for key, p in factors.items() if not p.is_zero()}
    assert len(kept) < len(factors)
    a = double_edge_swap_action()
    fam = invariant_sos_family(gram, a)
    assert snapshot(family_symmetrize(fam, a, kept)) == snapshot(
        family_symmetrize(fam, a, factors))


def test_sep_to_sos_places_no_local_at_an_unstored_orbit_member():
    full = squares_double_edge_decomposition()
    sep = OmegaGDecomposition(full.complex, full.action, 2, (1, 1),
                              {0: full.locals[0], 1: {(2, 1): full.locals[1][(2, 1)]}})
    sos = sep_to_sos(sep, factorizability_solve(sep.action, sep.index_size))
    stored = {(site, beta) for site, by_k in sos.locals.items()
              for mapping in by_k.values() for beta in mapping}
    assert stored == {(0, (1, 2)), (0, (2, 1)), (1, (2, 1))}


def test_cone_check_rejects_a_certificate_that_is_not_psd():
    verdict = cone_check(X, "sos_with_certificate",
                         GramRepresentation(0, 1, 1, np.diag([1.0, -1.0])))
    assert (verdict.ok, verdict.verdict, verdict.witness) == (False, "certificate-not-psd", -1.0)


def test_a_decomposition_of_irrational_scale_converts_through_floats():
    x2 = BlockPolynomial.univar({2: 1})
    dec = OmegaGDecomposition(standard_complex("single_edge"), None, 1, (1, 1),
                              {0: {(1,): x2}, 1: {(1,): x2}}, ScaledScalar(2, 2))
    td = poly_dec_to_tensor_dec(dec, "plain")
    assert td.vectors == {(0, (1,)): (float(ScaledScalar(2, 2)),),
                          (1, (1,)): (float(ScaledScalar(2, 2)),)}


def test_integer_reads_a_numpy_int_as_an_int():
    value = _integer(np.int64(3), "n")
    assert value == 3 and type(value) is int


def test_a_zero_site_vector_normalizes_to_the_first_unit_vector():
    assert _normalize_site(np.zeros(3)).tolist() == [1.0, 0.0, 0.0]


def test_digits_checked_counts_digits_not_characters():
    text = "1/" + "1" * 4299
    assert digits_checked(text) is text


def test_dense_tensor_reads_an_int_index_and_compares_dims_first():
    t = DenseTensor((2,), [5, 7])
    assert t[1] == 7
    assert not t.allclose(DenseTensor((1, 2), [5, 7]))


@pytest.mark.parametrize("method,other", [
    (X.__add__, 1), (X.__eq__, 1), (RadPoly.from_poly(X).__eq__, 1),
    (ONE.__mul__, 2), (ONE.__truediv__, 2), (ONE.__eq__, 1),
    (DenseTensor((1,), [1]).__eq__, [1]),
], ids=["BlockPolynomial.__add__", "BlockPolynomial.__eq__", "RadPoly.__eq__",
        "ScaledScalar.__mul__", "ScaledScalar.__truediv__", "ScaledScalar.__eq__",
        "DenseTensor.__eq__"])
def test_a_foreign_operand_is_not_implemented(method, other):
    assert method(other) is NotImplemented
