"""Decompositions the library builds or reads skip the constructor's checks; the
public constructor keeps them.

Every builder, `OmegaGDecomposition.from_obj` and every `TensorDecomposition`
hand their locals to `OmegaGDecomposition(..., _trusted=True)`, which keeps
the nonzero locals as given. A seeded differential records each trusted
construction of every builder and passes the same arguments through the
public constructor: the two agree in `to_obj`, the locals (the same objects,
in the same order), the scale, the index size, the action and the
contraction. The inputs mix rational, radical, float and zero factors, a
float product that underflows to zero, and files with a local split across
two entries and a zero entry. A planted bad local, one per check the public
constructor makes, still raises its error and message there and in the file
`from_obj` reads.
"""

import json
import os
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from omegadec import blockpoly, decomposition
from omegadec.approx import approx_separable
from omegadec.blockpoly import FLOAT, BlockPolynomial
from omegadec.complexes import WeightedComplex, standard_complex
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
from omegadec.symmetry import SymmetryAction
from omegadec.tensorbridge import TensorDecomposition, distance_matrix, psd_distance_factorization
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

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


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


def vector_tensor_builds(rng):
    """The counterparts of plain and nonnegative tensor decompositions, exact and float."""
    nrng = np.random.default_rng(rng.randrange(1000))
    for variant in ("plain", "nonnegative"):
        for exact in (True, False):
            random_tensor_decomposition(nrng, variant, exact)


def split_file(rng, obj):
    """The file of a decomposition with one local's terms split across two entries
    and a zero entry of its width added, both after every other entry."""
    entries = list(obj["locals"])
    entry = entries[rng.randrange(len(entries))]
    terms = entry["poly"]["terms"]
    cut = rng.randint(1, len(terms))
    first = {**entry, "poly": {**entry["poly"], "terms": terms[:cut]}}
    second = {**entry, "poly": {**entry["poly"], "terms": terms[cut:]}}
    zero = {"site": entry["site"], "beta": entry["beta"],
            "poly": {"sites": entry["poly"]["sites"], "terms": []}}
    entries[entries.index(entry)] = first
    return {**obj, "locals": entries + [zero, second]}


def from_obj_builds(rng):
    """Free and blending builds with radical and float locals, read back from their
    files; one of the files splits a local and adds a zero entry."""
    a = rng.choice(FREE_ACTIONS)
    built = [symmetrize_average(term_set(rng, a, "not invariant", 2, ["radical", "float"]), a)]
    b = rng.choice(BLENDING_ACTIONS[:2])
    built += blending_difference(term_set(rng, b, "closed", 1, ["radical", "float"]), b)
    for n, dec in enumerate(d for d in built if d.locals):
        obj = dec.to_obj()
        again = OmegaGDecomposition.from_obj(dec.complex, dec.action,
                                             split_file(rng, obj) if n == 0 else obj)
        assert again.to_obj() == obj


BUILDERS = [free_builds, blending_builds, sum_and_product_builds, underflow_build, sos_builds,
            approx_builds, psd_tensor_builds, vector_tensor_builds, from_obj_builds]


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


@pytest.mark.parametrize("plant,error,message", PLANTED)
def test_a_planted_bad_local_is_still_rejected_in_a_file(plant, error, message):
    dec = symmetrize_free([[X, X.scaled(Fraction(2))], [X.scaled(Fraction(2)), X]], SWAP)
    locals_ = {site: dict(mapping) for site, mapping in dec.locals.items()}
    plant(locals_)
    # a local that is no polynomial is a poly entry that is no polynomial object
    entries = [{"site": site, "beta": list(beta), **part}
               for site, mapping in locals_.items() for beta, poly in mapping.items()
               for part in (poly.to_obj() if isinstance(poly, RadPoly) else [{"poly": poly}])]
    with pytest.raises(error) as err:
        OmegaGDecomposition.from_obj(dec.complex, dec.action, {**dec.to_obj(), "locals": entries})
    if error is not TypeError:      # the file's reader, not the constructor, names that fault
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


def counted(monkeypatch, module, name):
    """Counts of the calls of module.name while the test runs, by their second
    argument (what a reader names), or under None."""
    counts = Counter()
    reader = getattr(module, name)

    def counting(x, *what):
        counts[what[0] if what else None] += 1
        return reader(x, *what)

    monkeypatch.setattr(module, name, counting)
    return counts


def test_each_input_value_is_read_once(monkeypatch):
    """A dec file's sites and assignment values, a tensor's entries and a tensor
    decomposition's sizes are read once each: earlier versions read the first
    two again in the constructor, every tensor entry written after its zero,
    and the sizes of plain and nonnegative vectors twice."""
    with open(os.path.join(FIXTURES, "double_edge_invariant.json"), encoding="utf-8") as fh:
        bundle = json.load(fh)
    c = WeightedComplex.from_obj(bundle["complex"])
    a = SymmetryAction.from_obj(c, bundle["action"])
    integers = counted(monkeypatch, decomposition, "_integer")
    dec = OmegaGDecomposition.from_obj(c, a, bundle["decomposition"])
    assert dec.local_count() == len(bundle["decomposition"]["locals"]) == 8
    assert integers["site"] == 8 and integers["assignment value"] == 16

    fact, want = psd_distance_factorization(4), distance_matrix(4)
    rationals = counted(monkeypatch, blockpoly, "_rational")
    assert fact.contract() == want
    assert rationals[None] == 16

    integers.clear()
    vectors = {(site, beta): (1, 2) for site in range(2) for beta in ((1, 2), (2, 1))}
    TensorDecomposition("plain", standard_complex("double_edge"), None, 2, 2, vectors)
    assert integers["index_size"] == 1 and integers["site_vars entry"] == 2
