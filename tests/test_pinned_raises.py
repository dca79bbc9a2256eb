"""Raises that no other test reaches, pinned by type and message.

Each row builds its input and calls one function, which must raise the
given error with exactly the given message; the last test runs the `omega`
command whose guard is otherwise unreached.
"""

import json

import numpy as np
import pytest

from omegadec.approx import SeparableGram, approx_separable
from omegadec.blockpoly import BlockPolynomial
from omegadec.cli import main
from omegadec.complexes import standard_complex
from omegadec.decomposition import OmegaGDecomposition, concat_sum, pointwise_product
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_swap_action,
    sos_family_witness_double_edge,
    squares_double_edge_decomposition,
)
from omegadec.positivity import (
    GramRepresentation,
    SosOmegaGDecomposition,
    factorizability_solve,
    gram_symmetrize,
    invariant_sos_family,
    sep_to_sos,
)
from omegadec.radpoly import RadPoly, RadSum
from omegadec.scalars import ONE
from omegadec.tensorbridge import (
    TensorDecomposition,
    poly_dec_to_tensor_dec,
    tensor_dec_to_poly_dec,
)

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
    return sep_to_sos(sep, factorizability_solve(sep.complex, sep.action, sep.index_size + 1))


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
