"""Decompositions the library builds skip the constructor's checks; the public
constructor keeps them.

Every builder hands its locals to `OmegaGDecomposition(..., _trusted=True)`,
which keeps the nonzero locals as given. A seeded differential records each
trusted construction of every builder and passes the same arguments through
the public constructor: the two agree in `to_obj`, the locals (the same
objects, in the same order), the scale, the index size, the action and the
contraction. The inputs mix rational, radical, float and zero factors, and a
float product that underflows to zero. A planted bad local, one per check the
public constructor makes, still raises its error and message there.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from omegadec.approx import approx_separable
from omegadec.blockpoly import FLOAT, BlockPolynomial
from omegadec.decomposition import (
    OmegaGDecomposition,
    blending_difference,
    concat_sum,
    from_elementary,
    pointwise_product,
    symmetrize_average,
    symmetrize_free,
)
from omegadec.errors import IncompatibleBlockSizes, NotInvariant
from omegadec.positivity import sos_to_plain
from omegadec.radpoly import RadPoly
from test_closure import BLENDING_ACTIONS, term_set
from test_entry_checks import random_sos
from test_free_build import (
    COMPLEXES,
    FREE_ACTIONS,
    SWAP,
    orbit_widths,
    random_terms,
    witness,
)
from test_tensorbridge import random_tensor_decomposition


@pytest.fixture
def trusted(monkeypatch):
    """The (result, arguments) of every trusted construction while the test runs."""
    calls = []
    init = OmegaGDecomposition.__init__

    def recording(self, *args, _trusted=False):
        init(self, *args, _trusted=_trusted)
        if _trusted:
            calls.append((self, args))

    monkeypatch.setattr(OmegaGDecomposition, "__init__", recording)
    return calls


def snapshot(dec):
    return (dec.to_obj(), [(site, [(beta, id(p)) for beta, p in mapping.items()])
                           for site, mapping in dec.locals.items()],
            dec.scale, dec.index_size, dec.site_vars, dec.action, dec.contract().to_obj())


def free_builds(rng):
    c = rng.choice(COMPLEXES)
    from_elementary(random_terms(rng, [rng.randint(1, 2) for _ in range(c.vertex_count)],
                                 rng.randint(1, 3)), c)
    a = rng.choice(FREE_ACTIONS)
    symmetrize_average(random_terms(rng, orbit_widths(rng, a), rng.randint(1, 2)), a)
    for shape in ("closed", "split"):
        try:
            symmetrize_free(term_set(rng, a, shape, 1), a)
        except NotInvariant:    # a float sum may miss invariance at the tolerance
            pass


def blending_builds(rng):
    a = rng.choice(BLENDING_ACTIONS[:2])
    blending_difference(term_set(rng, a, "closed", rng.randint(1, 2)), a)


def sum_and_product_builds(rng):
    a = rng.choice(FREE_ACTIONS[:2])       # a product of larger ones contracts slowly
    widths = orbit_widths(rng, a)
    d1, d2 = (symmetrize_average(random_terms(rng, widths, 1), a) for _ in range(2))
    concat_sum(d1, d2)
    pointwise_product(d1, d2)
    concat_sum(d1, from_elementary(random_terms(rng, widths, 1), a.complex))


def underflow_build(rng):
    """A float pointwise product whose every local underflows to zero."""
    tiny = BlockPolynomial((1,), {((1,),): 1e-170}, FLOAT)
    d = from_elementary([[tiny, tiny]], SWAP.complex)
    product = pointwise_product(d, d)
    assert product.locals == {} and product.contract().is_zero()


def sos_builds(rng):
    sos_to_plain(random_sos(rng))


def approx_builds(rng):
    approx_separable(witness(1, rng.choice([0.5, 1.0])), SWAP, 0.5, seed=rng.randrange(100))


def psd_tensor_builds(rng):
    """The squared-variable counterpart of a psd tensor decomposition, whose keys
    the tensor constructor checks where it reads them."""
    nrng = np.random.default_rng(rng.randrange(1000))
    random_tensor_decomposition(nrng, "psd", rng.random() < 0.5)


BUILDERS = [free_builds, blending_builds, sum_and_product_builds, underflow_build, sos_builds,
            approx_builds, psd_tensor_builds]


@pytest.mark.parametrize("builds", BUILDERS, ids=[b.__name__ for b in BUILDERS])
def test_trusted_builds_equal_the_public_constructor(trusted, builds):
    for seed in range(12):
        builds(random.Random(f"{builds.__name__}-{seed}"))
    assert trusted
    for dec, args in trusted:
        assert snapshot(dec) == snapshot(OmegaGDecomposition(*args))


def test_from_obj_of_a_trusted_build_round_trips():
    rng = random.Random("round-trip")
    for _ in range(10):
        a = rng.choice(FREE_ACTIONS)
        dec = symmetrize_free(term_set(rng, a, "closed", 1, ["int", "fraction", "radical"]), a)
        again = OmegaGDecomposition.from_obj(dec.complex, dec.action, dec.to_obj())
        assert again.to_obj() == dec.to_obj()
        assert again.contract() == dec.contract()


X = RadPoly.from_poly(BlockPolynomial((1,), {((1,),): 1}))
X2 = RadPoly.from_poly(BlockPolynomial((2,), {((1, 0),): 1}))
# (a change to one local of a built decomposition, the error it raises)
PLANTED = [
    (lambda locs: locs[0].update({(1,): X}), ValueError,
     "assignment (1,) has wrong arity for site 0"),
    (lambda locs: locs[0].update({(99, 1): X}), ValueError, "assignment (99, 1) outside 1..4"),
    (lambda locs: locs[0].update({(0, 1): X}), ValueError, "assignment (0, 1) outside 1..4"),
    (lambda locs: locs[1].update({(1, 2): X2}), IncompatibleBlockSizes,
     "local at site 1 has sites (2,), expected (1,)"),
    (lambda locs: locs.update({2.0: {(1, 2): X}}), ValueError,
     "site must be an integer, got 2.0"),
    (lambda locs: locs[0].update({(1.5, 1): X}), ValueError,
     "assignment value must be an integer, got 1.5"),
    (lambda locs: locs[0].update({(1, 1): "x"}), TypeError, "cannot coerce str to RadPoly"),
]


@pytest.mark.parametrize("plant,error,message", PLANTED)
def test_a_planted_bad_local_is_still_rejected(plant, error, message):
    # the free symmetrization over a swap of two terms: index size 4, two labels per site
    dec = symmetrize_free([[X, X.scaled(Fraction(2))], [X.scaled(Fraction(2)), X]], SWAP)
    assert dec.index_size == 4
    locals_ = {site: dict(mapping) for site, mapping in dec.locals.items()}
    plant(locals_)
    with pytest.raises(error) as err:
        OmegaGDecomposition(dec.complex, dec.action, dec.index_size, dec.site_vars, locals_,
                            dec.scale)
    assert str(err.value) == message


def test_the_public_constructor_still_checks_its_action_and_sizes():
    dec = from_elementary([[X, X]], SWAP.complex)
    args = (dec.complex, dec.action, dec.index_size, dec.site_vars, dec.locals)
    with pytest.raises(ValueError, match="^action acts on a different complex$"):
        OmegaGDecomposition(dec.complex, FREE_ACTIONS[1], *args[2:])
    with pytest.raises(ValueError, match="^site_vars must list one variable count per vertex$"):
        OmegaGDecomposition(*args[:3], (1,), dec.locals)
    with pytest.raises(ValueError, match="^index_size must be an integer, got 1.0$"):
        OmegaGDecomposition(*args[:2], 1.0, *args[3:])
    assert OmegaGDecomposition(*args[:1], None, *args[2:]).action.elements == [
        ((0, 1), (0, 1))]

