"""The free constructions and `contract` against the sympy oracle in tests/symref.py.

Each case draws factors as plain data, rational or with radical parts and
now and then zero, and hands the library and the oracle the same data. The
oracle expands the decomposition the library built by the defining
label-assignment sum and checks it against the polynomial the construction
promises: the elementary sum for `from_elementary` and `symmetrize_free`, its
group average for `symmetrize_average`, and invariance under every
generator for `symmetrize_free`. On every standard complex, the oracle's sum
for a decomposition whose locals repeat, drawn from a small pool with
negations, must equal the library's `contract`. For sos decompositions, the
double-edge witness and seeded exact and radical ones, the oracle's members
must equal the library's `member`, and the sum of their squares both
`sum_squares` and the contraction of `sos_to_plain`. The tensor bridge:
`poly_from_tensor` on seeded exact tensors must give the oracle's sum of
entries times squared variables, and the contraction of
`psd_distance_factorization(m)` the distance polynomial. `sep_to_sos` is
numeric: on the free double-edge fixture and seeded separable decompositions
of the free and the fixed-vertex double-edge actions, the squares of the
oracle's members must sum to the oracle's contraction of the separable input
within 1e-9 per coefficient.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from omegadec.blockpoly import BlockPolynomial
from omegadec.complexes import build_complex, standard_complex
from omegadec.decomposition import (
    OmegaGDecomposition,
    blending_difference,
    from_elementary,
    symmetrize_average,
    symmetrize_free,
)
from omegadec.blockpoly import RATIONAL
from omegadec.fixtures import (
    double_edge_fixed_vertex_action,
    double_edge_swap_action,
    sos_family_witness_double_edge,
    squares_double_edge_decomposition,
)
from omegadec.positivity import factorizability_solve, sep_to_sos, sos_to_plain
from omegadec.radpoly import RadPoly
from omegadec.scalars import ScaledScalar
from omegadec.symmetry import build_action
from omegadec.tensorbridge import DenseTensor, poly_from_tensor, psd_distance_factorization
from symref import (average, closure, contraction, elementary, equal, group, moved, radpoly,
                    sos_members, symbol, tensor_polynomial)
from test_entry_checks import random_sos

# (facets, generators as (vertex perm, label perm) pairs)
CIRCLE3 = [((0, 1), 1), ((1, 2), 1), ((2, 0), 1)]
CIRCLE4 = [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((3, 0), 1)]
DOUBLE_EDGE = [((0, 1), 2)]
LINE2 = [((0, 1), 1), ((1, 2), 1)]
FREE = [(DOUBLE_EDGE, [((1, 0), (1, 0))]),
        (CIRCLE3, [((1, 2, 0), (1, 2, 0))]),
        (CIRCLE4, [((1, 2, 3, 0), (1, 2, 3, 0))]),
        (LINE2, [((2, 1, 0), (1, 0))])]
TRIVIAL = [CIRCLE3, CIRCLE4, DOUBLE_EDGE, LINE2, [((0, 1, 2), 1)], [((0, 1), 1)],
           [((0, 1), 1), ((1, 2), 1), ((2, 3), 1)]]
# (radicand, root index) of a part: rational, or sqrt 2, sqrt 8, sqrt 3 and 2**(1/4)
SCALES = [("1", 1), ("2", 2), ("8", 2), ("3", 2), ("2", 4), ("1/3", 3)]


def random_factor(rng, w, radical):
    """Parts (radicand, root index, {exponents: coefficient}); no parts is zero."""
    if rng.random() < 0.15:
        return []
    scales = rng.sample(SCALES, rng.randint(1, 2)) if radical else [SCALES[0]]
    return [(r, k, {tuple(rng.randrange(3) for _ in range(w)):
                    str(Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3])))
                    for _ in range(rng.randint(1, 2))})
            for r, k in scales]


def library_factor(parts, w):
    return RadPoly((w,), [(ScaledScalar(Fraction(r), k),
                           BlockPolynomial((w,), {(e,): Fraction(c) for e, c in terms.items()}))
                          for r, k, terms in parts])


def library_terms(terms, widths):
    return [[library_factor(f, w) for f, w in zip(term, widths)] for term in terms]


def vertex_count(facets):
    return 1 + max(v for vertices, _ in facets for v in vertices)


def orbit_widths(rng, facets, generators):
    V = vertex_count(facets)
    widths = [0] * V
    for i in range(V):
        if not widths[i]:
            w = rng.randint(1, 2)
            for p in group([g for g, _ in generators], V):
                widths[p[i]] = w
    return widths


def case_from_elementary(rng):
    facets = rng.choice(TRIVIAL)
    widths = [rng.randint(1, 2) for _ in range(vertex_count(facets))]
    radical = rng.random() < 0.5
    terms = [[random_factor(rng, w, radical) for w in widths] for _ in range(rng.randint(1, 3))]
    dec = from_elementary(library_terms(terms, widths), build_complex(facets))
    assert equal(contraction(facets, dec.to_obj()), elementary(terms))


def case_symmetrize_average(rng):
    facets, generators = rng.choice(FREE)
    widths = orbit_widths(rng, facets, generators)
    radical = rng.random() < 0.5
    terms = [[random_factor(rng, w, radical) for w in widths] for _ in range(rng.randint(1, 2))]
    a = build_action(build_complex(facets), generators)
    dec = symmetrize_average(library_terms(terms, widths), a)
    perms = group([g for g, _ in generators], len(widths))
    assert equal(contraction(facets, dec.to_obj()), average(terms, perms))


def case_symmetrize_free(rng):
    """The orbit closure of one random term is an invariant elementary sum."""
    facets, generators = rng.choice(FREE)
    widths = orbit_widths(rng, facets, generators)
    term = [random_factor(rng, w, rng.random() < 0.5) for w in widths]
    terms = closure([term], group([g for g, _ in generators], len(widths)))
    a = build_action(build_complex(facets), generators)
    got = contraction(facets, symmetrize_free(library_terms(terms, widths), a).to_obj())
    assert equal(got, elementary(terms))
    for g, _ in generators:
        assert equal(moved(got, g, widths), got)


CASES = [case_from_elementary, case_symmetrize_average, case_symmetrize_free]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_agrees_with_the_sympy_oracle(case):
    for seed in range(24):
        case(random.Random(f"{case.__name__}-{seed}"))


# the full symmetric group of the simplex on 2, 3 and 4 vertices, by a swap and a cycle
BLENDING = [([((0, 1), 1)], [((1, 0), (0,))]),
            ([((0, 1, 2), 1)], [((1, 0, 2), (0,)), ((1, 2, 0), (0,))]),
            ([((0, 1, 2, 3), 1)], [((1, 0, 2, 3), (0,)), ((1, 2, 3, 0), (0,))])]


def halved(parts):
    return [(r, k, {e: str(Fraction(c) / 2) for e, c in terms.items()}) for r, k, terms in parts]


def case_blending_difference(rng, blending):
    """The orbit closure of one random term, or that closure with one term split
    into two halves, which is invariant but not closed: q1 - q2 contracts to the
    elementary sum, and q1 and q2 are each invariant under every generator."""
    facets, generators = blending
    V = vertex_count(facets)
    widths = [rng.randint(1, 2) if V < 4 else 1] * V
    term = [random_factor(rng, w, V < 4 and rng.random() < 0.5) for w in widths]
    terms = closure([term], group([g for g, _ in generators], V))
    if rng.random() < 0.5:
        half = [halved(terms[0][0])] + terms[0][1:]
        terms[:1] = [half, half]
    a = build_action(build_complex(facets), generators)
    q1, q2 = (contraction(facets, q.to_obj())
              for q in blending_difference(library_terms(terms, widths), a))
    assert equal(q1 - q2, elementary(terms))
    for g, _ in generators:
        assert equal(moved(q1, g, widths), q1) and equal(moved(q2, g, widths), q2)


@pytest.mark.parametrize("blending,cases", zip(BLENDING, (12, 6, 4)),
                         ids=["simplex1", "simplex2", "simplex3"])
def test_blending_difference_agrees_with_the_sympy_oracle(blending, cases):
    # about 2 s on 3 vertices: sympy expands the assignment sums of both parts
    rng = random.Random(f"blending-{len(blending[0][0][0])}")
    for _ in range(cases):
        case_blending_difference(rng, blending)


# each standard complex as (kind, n) and as its facets
STANDARD = [(("simplex", 0), [((0,), 1)]), (("simplex", 2), [((0, 1, 2), 1)]),
            (("line", 1), [((0, 1), 1)]), (("line", 3), LINE2 + [((2, 3), 1)]),
            (("circle", 3), CIRCLE3), (("circle", 4), CIRCLE4),
            (("double_edge", 1), DOUBLE_EDGE), (("single_edge", 1), [((0, 1), 1)])]


def negated(parts):
    return [(r, k, {e: str(-Fraction(c)) for e, c in terms.items()}) for r, k, terms in parts]


def case_contract(rng, standard, radical):
    """Locals drawn from a pool of two nonzero factors per width and the
    negation of the first, so that the products of whole assignments repeat and partial
    sums cancel; each pool entry is one RadPoly, stored at every key that
    draws it."""
    kind, facets = standard
    c = standard_complex(*kind)
    V = vertex_count(facets)
    widths = [rng.randint(1, 2) for _ in range(V)]
    index_size = rng.randint(2, 2 if V > 3 else 3)
    pools = {}
    for w in set(widths):
        drawn = []
        while len(drawn) < 2:
            drawn += [f for f in [random_factor(rng, w, radical)] if f]
        pools[w] = [library_factor(f, w) for f in drawn + [negated(drawn[0])]]
    locals_ = {i: {beta: rng.choice(pools[widths[i]])
                   for beta in product(range(1, index_size + 1),
                                       repeat=len(c.label_positions_at(i)))}
               for i in range(V)}
    r, k = rng.choice(SCALES)
    dec = OmegaGDecomposition(c, None, index_size, widths, locals_,
                              ScaledScalar(Fraction(r), k))
    assert equal(radpoly(dec.contract().to_obj()), contraction(facets, dec.to_obj()))


@pytest.mark.parametrize("standard", STANDARD, ids=[f"{k}{n}" for (k, n), _ in STANDARD])
def test_contract_agrees_with_the_sympy_oracle(standard):
    rng = random.Random(f"contract-{standard[0]}")
    case_contract(rng, standard, False)
    if standard[0][0] in ("circle", "line", "double_edge"):
        case_contract(rng, standard, True)


def sos_data(sos):
    """An sos decomposition as plain data for `sos_members`."""
    return {"index_size": sos.index_size, "scale": sos.scale.to_obj(),
            "site_vars": list(sos.site_vars), "members": list(sos.members),
            "locals": [{"site": site, "k": k, "beta": list(beta), **part}
                       for site, by_k in sos.locals.items() for k, mapping in by_k.items()
                       for beta, p in mapping.items() for part in p.to_obj()]}


def exact_random_sos(rng):
    """`random_sos` drawn again until every local is exact, rational or radical."""
    while True:
        sos = random_sos(rng)
        if all(p.mode == RATIONAL for by_k in sos.locals.values()
               for mapping in by_k.values() for p in mapping.values()):
            return sos


def check_sos(facets, sos):
    """Every member, `sum_squares` and the contraction of `sos_to_plain` against
    the oracle's members and the sum of their squares."""
    members = sos_members(facets, sos_data(sos))
    for K, member in members.items():
        assert equal(radpoly(sos.member(K).to_obj()), member)
    squares = sympy.expand(sympy.Add(*(m**2 for m in members.values())))
    assert equal(radpoly(sos.sum_squares().to_obj()), squares)
    assert equal(radpoly(sos_to_plain(sos).contract().to_obj()), squares)


def test_sos_family_agrees_with_the_sympy_oracle():
    # about 2-3 s: sympy expands every member and the sum of their squares
    check_sos(DOUBLE_EDGE, sos_family_witness_double_edge())
    rng = random.Random("sos")
    for _ in range(30):
        check_sos([((0, 1), 1)], exact_random_sos(rng))


def test_poly_from_tensor_agrees_with_the_sympy_oracle():
    rng = random.Random("tensor")
    for _ in range(24):
        dims = (rng.randint(1, 3),) * rng.randint(1, 3)
        entries = [rng.choice([0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
                   for _ in range(dims[0] ** len(dims))]
        got = RadPoly.from_poly(poly_from_tensor(DenseTensor(dims, entries))).to_obj()
        assert equal(radpoly(got), tensor_polynomial(dims, [str(v) for v in entries]))


@pytest.mark.parametrize("m", range(2, 7))
def test_psd_distance_factorization_agrees_with_the_sympy_oracle(m):
    distance = sympy.Add(*((i - j) ** 2 * symbol(0, i) ** 2 * symbol(1, j) ** 2
                           for i in range(m) for j in range(m)))
    got = contraction([((0, 1), 1)], psd_distance_factorization(m).poly.to_obj())
    assert equal(got, distance)


def square_local(rng):
    """One or two even powers of x with positive rational coefficients."""
    return BlockPolynomial((1,), {((2 * e,),): Fraction(rng.randint(1, 4), rng.randint(1, 3))
                                  for e in rng.sample(range(3), rng.randint(1, 2))})


def random_separable(rng, a):
    """Index-2 locals on the double edge, equal along the orbits of a: the swap
    moves (site 0, (b1, b2)) to (site 1, (b2, b1)), and the fixed-vertex action
    moves (site i, (b1, b2)) to (site i, (b2, b1))."""
    betas = list(product((1, 2), repeat=2))
    if a.vertex_image(1, 0) == 1:
        site0 = {beta: square_local(rng) for beta in betas}
        locals_ = {0: site0, 1: {beta[::-1]: p for beta, p in site0.items()}}
    else:
        locals_ = {}
        for i in range(2):
            cross = square_local(rng)
            locals_[i] = {(1, 1): square_local(rng), (2, 2): square_local(rng),
                          (1, 2): cross, (2, 1): cross}
    sep = OmegaGDecomposition(a.complex, a, 2, (1, 1), locals_)
    assert sep.check_symmetry()
    return sep


def test_sep_to_sos_agrees_with_the_sympy_oracle():
    rng = random.Random("sep")
    seps = [squares_double_edge_decomposition()]
    seps += [random_separable(rng, a) for a in (double_edge_swap_action(),
                                                double_edge_fixed_vertex_action())
             for _ in range(2)]
    for sep in seps:
        sos = sep_to_sos(sep, factorizability_solve(sep.complex, sep.action, sep.index_size))
        members = sos_members(DOUBLE_EDGE, sos_data(sos))
        squares = sympy.Add(*(m**2 for m in members.values()))
        diff = sympy.expand(squares - contraction(DOUBLE_EDGE, sep.to_obj()))
        gens = sorted(diff.free_symbols, key=str)
        coeffs = sympy.Poly(diff, *gens).coeffs() if gens else [diff]
        assert all(abs(float(c)) <= 1e-9 for c in coeffs)
