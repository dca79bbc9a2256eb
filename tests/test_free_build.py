"""One free symmetrization build behind elementary reuse and both symmetrizations.

`from_elementary` is the free symmetrization over the trivial group, and
`symmetrize_free` and `approx_separable` read their terms once. A seeded
differential compares each construction with the loops it used to run, kept
here: `ref_from_elementary` is the old elementary-reuse loop and
`ref_symmetrize` the old free-extension loop of `symmetrize_average`. The
results agree in `to_obj`, the order of each site's locals, the scale, the
index size, the action and the contraction. A pinned table of malformed
inputs keeps each construction's error type, message and precedence.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from omegadec.approx import SeparableGram, approx_separable
from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.complexes import build_complex, is_connected, standard_complex
from omegadec.decomposition import (
    OmegaGDecomposition,
    blending_difference,
    elementary_sum,
    free_extension,
    from_elementary,
    symmetrize_average,
    symmetrize_free,
)
from omegadec.errors import NotConnected
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_swap_action,
    simplex_full_symmetry_action,
)
from omegadec.positivity import GramRepresentation, separable_symmetrize
from omegadec.radpoly import RadPoly
from omegadec.scalars import ScaledScalar
from omegadec.symmetry import build_action, free_refinement, linearizer, trivial_action
from test_entry_checks import KINDS, random_rad


def read(terms):
    """The widths and the terms with each factor coerced to a RadPoly."""
    factors = [[RadPoly.coerce(f) for f in term] for term in terms]
    return tuple(f.sites[0] for f in factors[0]), factors


def ref_from_elementary(terms, c):
    """Elementary reuse as its own loop: term j on the constant assignment j."""
    if not is_connected(c):
        raise NotConnected("elementary reuse requires a connected complex")
    V = c.vertex_count
    site_vars, factors = read(terms)
    locals_ = {}
    for j, term in enumerate(factors):
        for i in range(V):
            width = len(c.label_positions_at(i))
            locals_.setdefault(i, {})[(j + 1,) * width] = term[i]
    return OmegaGDecomposition(c, None, len(terms), site_vars, locals_)


def ref_symmetrize(terms, a):
    """The free-extension loop of `symmetrize_average`, for valid input."""
    site_vars, factors = read(terms)
    locals_ = {}
    for i, gi, betas in free_extension(a, len(terms)):
        for term, beta in zip(factors, betas):
            poly = term[gi]
            if not poly.is_zero():
                locals_.setdefault(i, {})[beta] = poly
    scale = ScaledScalar(Fraction(1, len(a)), a.complex.vertex_count)
    return OmegaGDecomposition(a.complex, a, len(terms) * len(a), site_vars, locals_, scale)


def ref_free_extension(a, count):
    """The free extension as it multiplied group elements: label l of site i
    under g gets g*z(l), z the linearizer."""
    z = linearizer(a)
    order = len(a)
    for i in range(a.complex.vertex_count):
        positions = a.complex.label_positions_at(i)
        for g in range(order):
            selector = [a.mul(g, z[pos]) for pos in positions]
            yield i, a.vertex_image(g, i), [tuple(j * order + h + 1 for h in selector)
                                            for j in range(count)]


def snapshot(dec):
    return (dec.to_obj(), [(site, list(mapping)) for site, mapping in dec.locals.items()],
            dec.scale, dec.index_size, dec.action.elements, dec.contract().to_obj())


COMPLEXES = [standard_complex("circle", 3), standard_complex("circle", 4),
             standard_complex("double_edge"), standard_complex("simplex", 2),
             standard_complex("line", 3), standard_complex("single_edge")]
LINE = standard_complex("line", 2)
FREE_ACTIONS = [double_edge_swap_action(), circle_rotation_action(3), circle_rotation_action(4),
                build_action(LINE, [((2, 1, 0), (1, 0))]),
                free_refinement(simplex_full_symmetry_action(2))]


SIMPLEX2 = standard_complex("simplex", 2)
# the free refinements of the simplex swap, 3-cycle and full symmetric group
REFINED = [free_refinement(build_action(standard_complex("simplex", 1), [((1, 0), (0,))])),
           free_refinement(build_action(SIMPLEX2, [((1, 2, 0), (0,))])),
           free_refinement(build_action(SIMPLEX2, [((1, 0, 2), (0,)), ((1, 2, 0), (0,))]))]
EXTENSION_ACTIONS = FREE_ACTIONS + [circle_rotation_action(n) for n in range(3, 7)] + REFINED


@pytest.mark.parametrize("a", EXTENSION_ACTIONS, ids=range(len(EXTENSION_ACTIONS)))
def test_free_extension_permutes_the_linearizer(a):
    for count in (1, 2, 3):
        assert list(free_extension(a, count)) == list(ref_free_extension(a, count))


def random_factor(rng, w, kinds):
    """A factor of width w: rational, float, radical or zero."""
    if rng.random() < 0.2:
        return BlockPolynomial.zero((w,), rng.choice([RATIONAL, FLOAT]))
    return random_rad(rng, (w,), rng.choice(kinds))


def random_terms(rng, site_vars, count):
    kinds = rng.sample(KINDS, 2)
    return [[random_factor(rng, w, kinds) for w in site_vars] for _ in range(count)]


def orbit_widths(rng, a):
    """Random widths equal along the vertex orbits of a."""
    widths = {}
    for orbit in a.vertex_orbits():
        w = rng.randint(1, 2)
        widths.update((v, w) for v in orbit)
    return tuple(widths[v] for v in range(a.complex.vertex_count))


def case_from_elementary(rng):
    c = rng.choice(COMPLEXES)
    terms = random_terms(rng, [rng.randint(1, 2) for _ in range(c.vertex_count)],
                         rng.randint(1, 4))
    assert snapshot(from_elementary(terms, c)) == snapshot(ref_from_elementary(terms, c))


def case_trivial_average(rng):
    c = rng.choice(COMPLEXES)
    terms = random_terms(rng, [rng.randint(1, 2) for _ in range(c.vertex_count)],
                         rng.randint(1, 4))
    assert (snapshot(symmetrize_average(terms, trivial_action(c)))
            == snapshot(ref_from_elementary(terms, c)))


def case_free_average(rng):
    a = rng.choice(FREE_ACTIONS)
    terms = random_terms(rng, orbit_widths(rng, a), rng.randint(1, 3))
    assert snapshot(symmetrize_average(terms, a)) == snapshot(ref_symmetrize(terms, a))


def case_free_invariant(rng):
    """symmetrize_free on the orbit closure of random terms, an invariant sum."""
    a = rng.choice(FREE_ACTIONS)
    V = a.complex.vertex_count
    closed = []
    for term in random_terms(rng, orbit_widths(rng, a), rng.randint(1, 2)):
        for g in range(len(a)):
            moved = [None] * V
            for i in range(V):
                moved[a.vertex_image(g, i)] = term[i]
            closed.append(moved)
    assert snapshot(symmetrize_free(closed, a)) == snapshot(ref_symmetrize(closed, a))


CASES = {case_from_elementary: 120, case_trivial_average: 60, case_free_average: 80,
         case_free_invariant: 60}


@pytest.mark.parametrize("case", list(CASES), ids=[c.__name__ for c in CASES])
def test_matches_the_replaced_loops(case):
    for seed in range(CASES[case]):
        case(random.Random(f"{case.__name__}-{seed}"))


def u(*coeffs, w=1):
    """The one-site polynomial sum_e coeffs[e] x_0**e of width w."""
    return BlockPolynomial((w,), {((e,) + (0,) * (w - 1),): c for e, c in enumerate(coeffs) if c})


X, Y, X2 = u(0, 1), u(1, 2), u(0, 1, w=2)
Z1, Z2 = BlockPolynomial.zero((1,)), BlockPolynomial.zero((2,))
TWO_SITES = BlockPolynomial((1, 1), {((1,), (1,)): 1})
NO_SITES = BlockPolynomial((), {})
SWAP = double_edge_swap_action()
EDGE = standard_complex("single_edge")
DISCONNECTED = build_action(build_complex([({0, 1}, 1), ({2, 3}, 1)]), [((2, 3, 0, 1), (1, 0))])
NOT_FREE = simplex_full_symmetry_action(2)
LINE_FLIP = FREE_ACTIONS[3]


def witness(n, weight):
    """The witness of weight times (I/2) tensored over n + 1 sites, or no terms at weight 0."""
    half = np.eye(2) / 2
    K = np.ones((1, 1))
    for _ in range(n + 1):
        K = np.kron(K, half)
    terms = [(weight, [half] * (n + 1))] if weight else []
    return SeparableGram(GramRepresentation(n, 1, 1, weight * K), terms)


CONSTRUCTIONS = {"from_elementary": (from_elementary, EDGE),
                 "symmetrize_average": (symmetrize_average, SWAP),
                 "symmetrize_free": (symmetrize_free, SWAP)}
# (construction, case) -> terms, for each construction on its connected
# two-site complex; one case per fault, and the errors follow it
FAULTS = {
    "empty terms": [],
    "ragged terms": [[X, Y], [X]],
    "ragged terms, first short": [[X], [X, Y]],
    "term length 3 != V, zero product": [[Z1, Z1, Z1]],
    "term length 1 != V, zero product": [[Z1]],
    "term length 3 != V, nonzero product": [[X, X, X]],
    "widths disagree": [[X, X], [X2, X]],
    "orbit width mismatch": [[X, X2]],
    "orbit width mismatch, zero product": [[Z1, Z2]],
    "two-site factor": [[TWO_SITES, X]],
    "non-invariant sum": [[X, Y]],
    "a non-polynomial factor": [[X, "x"]],
    "empty factor list": [[]],
    "zero-site factor": [[NO_SITES, X]],
    "two-site factor before a width fault": [[TWO_SITES, X], [X, X2]],
}
LENGTH_1_OF_2 = ("ValueError", "term has 1 factors, expected 2")
LENGTH_3_OF_2 = ("ValueError", "term has 3 factors, expected 2")
EMPTY = ("ValueError", "need at least one elementary term")
WIDTHS = ("IncompatibleBlockSizes", "terms disagree on site 0 width: {1, 2}")
ORBIT = ("IncompatibleBlockSizes", "sites 0 and 1 share an orbit but differ in width")
SITES = ("ValueError", "site mismatch")
NO_FACTORS = ("ValueError", "term has 0 factors, expected 2")
COERCE = ("TypeError", "cannot coerce str to RadPoly")
NOT_INVARIANT = ("NotInvariant", "elementary sum is not invariant under the action")
SYM_CONNECTED = ("NotConnected", "symmetrization requires a connected complex")
SYM_FREE = ("ActionNotFree", "symmetrization requires a free action on the multifacets")
# every fault of the term list is found by the one read, so the three builds
# differ only in the group and invariance conditions; None: a decomposition
EXPECTED = {
    "from_elementary": [EMPTY, LENGTH_1_OF_2, LENGTH_1_OF_2, LENGTH_3_OF_2, LENGTH_1_OF_2,
                        LENGTH_3_OF_2, WIDTHS, None, None, SITES, None, COERCE, NO_FACTORS,
                        SITES, SITES],
    "symmetrize_average": [EMPTY, LENGTH_1_OF_2, LENGTH_1_OF_2, LENGTH_3_OF_2, LENGTH_1_OF_2,
                           LENGTH_3_OF_2, WIDTHS, ORBIT, ORBIT, SITES, None, COERCE, NO_FACTORS,
                           SITES, SITES],
    "symmetrize_free": [EMPTY, LENGTH_1_OF_2, LENGTH_1_OF_2, LENGTH_3_OF_2, LENGTH_1_OF_2,
                        LENGTH_3_OF_2, WIDTHS, ORBIT, ORBIT, SITES, NOT_INVARIANT, COERCE,
                        NO_FACTORS, SITES, SITES],
}
TABLE = [(f"{name}: {fault}", f, terms, where, expected)
         for name, (f, where) in CONSTRUCTIONS.items()
         for (fault, terms), expected in zip(FAULTS.items(), EXPECTED[name], strict=True)]
TABLE += [
    ("from_elementary: disconnected complex", from_elementary, [[X, X, X, X]],
     DISCONNECTED.complex, ("NotConnected", "elementary reuse requires a connected complex")),
    ("from_elementary: disconnected complex and empty terms", from_elementary, [],
     DISCONNECTED.complex, ("NotConnected", "elementary reuse requires a connected complex")),
    ("from_elementary: widths differ per site", from_elementary, [[X, X2]], EDGE, None),
    ("symmetrize_average: disconnected complex", symmetrize_average, [[X, X, X, X]],
     DISCONNECTED, SYM_CONNECTED),
    ("symmetrize_average: disconnected complex and empty terms", symmetrize_average, [],
     DISCONNECTED, SYM_CONNECTED),
    ("symmetrize_average: non-free action", symmetrize_average, [[X, X, X]], NOT_FREE, SYM_FREE),
    ("symmetrize_average: non-free action and empty terms", symmetrize_average, [], NOT_FREE,
     SYM_FREE),
    ("symmetrize_average: orbit width mismatch on a line", symmetrize_average, [[X, X, X2]],
     LINE_FLIP, ("IncompatibleBlockSizes", "sites 0 and 2 share an orbit but differ in width")),
    ("symmetrize_free: disconnected complex", symmetrize_free, [[X, X, X, X]], DISCONNECTED,
     SYM_CONNECTED),
    ("symmetrize_free: disconnected complex, zero product of length 1", symmetrize_free, [[Z1]],
     DISCONNECTED, SYM_CONNECTED),
    ("symmetrize_free: disconnected complex and empty terms", symmetrize_free, [], DISCONNECTED,
     SYM_CONNECTED),
    ("symmetrize_free: disconnected complex, non-invariant", symmetrize_free, [[X, Y, X, X]],
     DISCONNECTED, SYM_CONNECTED),
    ("symmetrize_free: non-free action", symmetrize_free, [[X, X, X]], NOT_FREE, SYM_FREE),
    ("symmetrize_free: non-free action, zero product of length 1", symmetrize_free, [[Z1]],
     NOT_FREE, SYM_FREE),
    ("symmetrize_free: non-free action, non-invariant", symmetrize_free, [[X, Y, X]], NOT_FREE,
     SYM_FREE),
    ("symmetrize_free: orbit width mismatch on a line, zero product", symmetrize_free,
     [[Z1, Z1, Z2]], LINE_FLIP,
     ("IncompatibleBlockSizes", "sites 0 and 2 share an orbit but differ in width")),
    ("separable_symmetrize: term length 3, zero product", separable_symmetrize, [[Z1, Z1, Z1]],
     SWAP, LENGTH_3_OF_2),
    ("separable_symmetrize: non-invariant", separable_symmetrize, [[X, Y]], SWAP,
     ("FactorNotInCone", "term 0, site 0 fails the cone check")),
    ("elementary_sum: zero-site factor", lambda terms, _: elementary_sum(terms), [[NO_SITES, X]],
     None, SITES),
    ("blending_difference: zero-site factor", blending_difference, [[NO_SITES, X]],
     simplex_full_symmetry_action(1), SITES),
    ("separable_symmetrize: zero-site factor", separable_symmetrize, [[NO_SITES, u(1)]], SWAP,
     SITES),
    ("approx_separable: non-free action", lambda w, a: approx_separable(witness(2, w), a, 0.5),
     1.0, NOT_FREE, ("ActionNotFree", "approximation requires a free action")),
    ("approx_separable: disconnected complex",
     lambda w, a: approx_separable(witness(3, w), a, 0.5), 1.0, DISCONNECTED, SYM_CONNECTED),
    ("approx_separable: empty witness", lambda w, a: approx_separable(witness(1, w), a, 0.5),
     0.0, SWAP, EMPTY),
    ("approx_separable: empty witness, disconnected",
     lambda w, a: approx_separable(witness(3, w), a, 0.5), 0.0, DISCONNECTED, SYM_CONNECTED),
]


@pytest.mark.parametrize("f,terms,where,expected", [row[1:] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_malformed_inputs_keep_their_errors(f, terms, where, expected):
    if expected is None:
        f(terms, where)
        return
    with pytest.raises(Exception) as info:
        f(terms, where)
    assert (type(info.value).__name__, str(info.value)) == expected
