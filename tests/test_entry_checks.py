"""Checks where values enter, permutations that only move keys, folds on `RadSum`.

The constructions read each input factor once and check it there; a site
product trusts the factors it is given. A permutation of sites maps distinct
keys to distinct keys, so `act` moves terms without merging them, and a
non-permutation is rejected. The sum-of-squares folds, the supplied-split
check, `sos_to_plain` and the merge of repeated `dec` entries add into a
`RadSum`. A seeded differential compares each of these with the loop it
replaced, kept in tests/radref.py (`ref_act`, `ref_rad_act`, `ref_fold`),
by `structure()`: mode, parts, scales, term order and float bits. Inputs mix
rational, float (with products that underflow to zero) and radical parts.
A decomposition's scale must be a `ScaledScalar` where it enters.
"""

import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.cli import main
from omegadec.complexes import standard_complex
from omegadec.decomposition import (
    OmegaGDecomposition,
    elementary_sum,
    free_extension,
    symmetrize_average,
    symmetrize_free,
)
from omegadec.errors import IncompatibleBlockSizes, MissingSquareSplits
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_swap_action,
    squares_double_edge_decomposition,
)
from omegadec.invariance import is_invariant
from omegadec.positivity import (
    SosOmegaGDecomposition,
    factorizability_solve,
    pair_assignment,
    sep_to_sos,
    sos_to_plain,
)
from omegadec.radpoly import RadPoly, RadSum, rad_outer
from omegadec.scalars import ONE, ScaledScalar
from omegadec.symmetry import trivial_action
from radref import ref_act, ref_fold, ref_rad_act, ref_rad_outer, structure

# sqrt2 and sqrt8 are commensurable, sqrt3 and the fourth root of 2 are not
SCALES = [ONE, ScaledScalar(2, 2), ScaledScalar(8, 2), ScaledScalar(3, 2), ScaledScalar(2, 4)]
VALUES = {
    "int": [-2, -1, 1, 2, 3],
    "fraction": [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), 1, -1],
    # 1e-170 squared underflows to 0.0; +-1.0 and 0.1 cancel in some orders only
    "float": [1.0, -1.0, 0.1, -0.1, 0.5, 3.0, 1e-170, -1e-170],
}
KINDS = ["int", "fraction", "float", "radical"]


class Perms:
    """The two things `is_invariant` reads of an action: its order and each vperm."""

    def __init__(self, perms):
        self.perms = list(perms)

    def __len__(self):
        return len(self.perms)

    def vperm(self, g):
        return self.perms[g]


def random_poly(rng, sites, values, mode=RATIONAL):
    keys = [tuple(tuple(rng.randrange(3) for _ in range(w)) for w in sites)
            for _ in range(rng.randint(1, 5))]
    return BlockPolynomial(sites, {k: rng.choice(values) for k in keys}, mode)


def random_rad(rng, sites, kind=None):
    kind = kind or rng.choice(KINDS)
    if kind == "float":
        return RadPoly.from_poly(random_poly(rng, sites, VALUES["float"], FLOAT))
    if kind == "radical":
        parts = [(s, random_poly(rng, sites, VALUES["fraction"]))
                 for s in rng.sample(SCALES, rng.randint(1, 3))]
        return RadPoly(sites, parts)
    return RadPoly.from_poly(random_poly(rng, sites, VALUES[kind]))


def random_perm(rng, n):
    """A permutation of n sites and widths that it keeps: one width per cycle."""
    vperm = list(range(n))
    rng.shuffle(vperm)
    widths = [0] * n
    for i in range(n):
        if not widths[i]:
            w, j = rng.randint(1, 2), i
            while not widths[j]:
                widths[j], j = w, vperm[j]
    return tuple(vperm), tuple(widths)


def cyclic_group(vperm):
    perms, g = [tuple(range(len(vperm)))], vperm
    while g != perms[0]:
        perms.append(g)
        g = tuple(vperm[gi] for gi in g)
    return perms


def locals_structure(locals_):
    return [(site, [(beta, structure(p)) for beta, p in mapping.items()])
            for site, mapping in locals_.items()]


def case_act(rng):
    vperm, sites = random_perm(rng, rng.randint(1, 4))
    kind = rng.choice(["int", "fraction", "float"])
    p = random_poly(rng, sites, VALUES[kind], FLOAT if kind == "float" else RATIONAL)
    assert structure(p.act(vperm)) == structure(ref_act(p, vperm))
    x = random_rad(rng, sites)
    assert structure(x.act(vperm)) == structure(ref_rad_act(x, vperm))


def case_is_invariant(rng):
    vperm, sites = random_perm(rng, rng.randint(1, 4))
    perms = cyclic_group(vperm)
    x = random_rad(rng, sites)
    if rng.random() < 0.5:      # the orbit sum is invariant, exactly when it is exact
        x = ref_fold(sites, [ref_rad_act(x, g) for g in perms])
    expected = all(ref_rad_act(x, g).matches(x, 1e-9) for g in perms)
    assert is_invariant(x, Perms(perms), 1e-9) is expected
    if len(x.parts) == 1 and x.parts[0][0] == ONE:
        assert is_invariant(x.parts[0][1], Perms(perms), 1e-9) is expected


def case_fold(rng):
    sites = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
    addends = []
    for _ in range(rng.randint(1, 6)):
        addends.append(-rng.choice(addends) if addends and rng.random() < 0.2
                       else random_rad(rng, sites))
    acc = RadSum(sites)
    for x in addends:
        acc.add(x)
    assert structure(acc.result()) == structure(ref_fold(sites, addends))


SINGLE_EDGE = standard_complex("single_edge")


def random_sos_input(rng):
    """The locals, keyed (site, member value, assignment), and the scale of
    `random_sos`."""
    kinds = rng.sample(KINDS, 2)
    locals_ = {}
    for site, k, v in product(range(2), range(2), range(1, 3)):
        if rng.random() < 0.7:
            locals_[(site, k, (v,))] = random_rad(rng, (1,), rng.choice(kinds))
    return locals_, rng.choice(SCALES)


def random_sos(rng):
    return SosOmegaGDecomposition(SINGLE_EDGE, trivial_action(SINGLE_EDGE), 2, (1, 1), (0, 1),
                                  *random_sos_input(rng))


def case_sum_squares(rng):
    sos = random_sos(rng)
    squares = [q * q for q in map(sos.member, sos.grid()) if not q.is_zero()]
    assert structure(sos.sum_squares()) == structure(ref_fold(sos.site_vars, squares))


def case_sos_to_plain(rng):
    sos = random_sos(rng)
    I = sos.index_size
    locals_ = {}
    for site, by_k in sos.locals.items():
        acc = {}
        for mapping in by_k.values():
            for (b1, p1), (b2, p2) in product(mapping.items(), repeat=2):
                key = pair_assignment(b1, b2, I)
                acc[key] = p1 * p2 if key not in acc else acc[key] + p1 * p2
        locals_[site] = acc
    ref = OmegaGDecomposition(sos.complex, sos.action, I * I, sos.site_vars, locals_,
                              sos.scale**2)
    assert locals_structure(sos_to_plain(sos).locals) == locals_structure(ref.locals)


def case_from_obj(rng):
    entries, ref = [], {}
    for _ in range(rng.randint(1, 8)):
        site, beta = rng.randrange(2), (rng.randint(1, 2),)
        kind = rng.choice(["int", "fraction", "float"])
        poly = random_poly(rng, (1,), VALUES[kind], FLOAT if kind == "float" else RATIONAL)
        entry = {"site": site, "beta": list(beta), "poly": poly.to_obj()}
        s = ONE
        if rng.random() < 0.5:
            s = rng.choice(SCALES)
            entry["scale"] = s.to_obj()
        entries.append(entry)
        rp = RadPoly.scaled_poly(s, BlockPolynomial.from_obj(entry["poly"]))
        prev = ref.setdefault(site, {}).get(beta)
        ref[site][beta] = rp if prev is None else prev + rp
    obj = {"index_size": 2, "site_vars": [1, 1], "locals": entries}
    got = OmegaGDecomposition.from_obj(SINGLE_EDGE, None, obj)
    want = OmegaGDecomposition(SINGLE_EDGE, None, 2, (1, 1), ref)
    assert locals_structure(got.locals) == locals_structure(want.locals)


SEP = squares_double_edge_decomposition()
SOLUTION = factorizability_solve(SEP.complex, SEP.action, SEP.index_size)
T = BlockPolynomial.univar({1: 1})
T_FLOAT = T.astype_float()
SPLITS = [        # the local at (0, (1, 2)) is t^2
    [T], [T.scaled(Fraction(3, 5)), T.scaled(Fraction(4, 5))],
    [RadPoly.scaled_poly(ScaledScalar(Fraction(1, 2), 2), T)] * 2,
    [T_FLOAT.scaled(0.6), T_FLOAT.scaled(0.8)], [T_FLOAT, T_FLOAT.scaled(1e-170)],
    [RadPoly.scaled_poly(ScaledScalar(3, 2), T), T.scaled(2)],
]


def case_supplied_split(rng):
    split = [RadPoly.coerce(t) for t in rng.choice(SPLITS)]
    if rng.random() < 0.5:
        split.append(random_rad(rng, (1,)))
    local = SEP.locals[0][(1, 2)].scale_mul(SEP.scale)
    expected = ref_fold(local.sites, [t * t for t in split]).matches(local)
    try:
        sep_to_sos(SEP, SOLUTION, {(0, (1, 2)): split})
    except MissingSquareSplits:
        assert not expected
    else:
        assert expected


def random_terms(rng, site_vars, count):
    kinds = rng.sample(KINDS, 2)
    return [[random_rad(rng, (w,), rng.choice(kinds)) if rng.random() < 0.8
             else BlockPolynomial((w,), {((0,) * w,): 1e-170}, FLOAT)
             for w in site_vars] for _ in range(count)]


def case_elementary_sum(rng):
    site_vars = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
    terms = random_terms(rng, site_vars, rng.randint(1, 4))
    ref = ref_fold(site_vars, [ref_rad_outer(term) for term in terms])
    assert structure(elementary_sum(terms)) == structure(ref)


ACTIONS = [double_edge_swap_action(), circle_rotation_action(3), circle_rotation_action(4)]


def case_symmetrize_average(rng):
    a = rng.choice(ACTIONS)
    V = a.complex.vertex_count
    terms = [[BlockPolynomial.univar({rng.randrange(3): rng.choice([1, 2, Fraction(1, 3)])})
              if rng.random() < 0.5 else f for f in term]
             for term in random_terms(rng, (1,) * V, rng.randint(1, 3))]
    dec = symmetrize_average(terms, a)
    locals_, sources = {}, {}
    for i, gi, betas in free_extension(a, len(terms)):
        for j, (term, beta) in enumerate(zip(terms, betas)):
            poly = RadPoly.coerce(term[gi])
            if not poly.is_zero():
                locals_.setdefault(i, {})[beta] = poly
                sources[i, beta] = (j, gi)
    ref = OmegaGDecomposition(a.complex, a, len(terms) * len(a), (1,) * V, locals_, dec.scale)
    assert locals_structure(dec.locals) == locals_structure(ref.locals)
    # every local built from one input factor is one RadPoly
    ids = {}
    for (i, beta), source in sources.items():
        assert ids.setdefault(source, id(dec.locals[i][beta])) == id(dec.locals[i][beta])
    assert len(set(ids.values())) == len(ids)


CASES = [case_act, case_is_invariant, case_fold, case_sum_squares, case_sos_to_plain,
         case_from_obj, case_supplied_split, case_elementary_sum, case_symmetrize_average]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_matches_the_replaced_loops(case):
    for seed in range(120):
        case(random.Random(f"{case.__name__}-{seed}"))


def test_a_non_permutation_is_rejected():
    # moving both blocks of p = x0 + 5*x1^2 by (0, 0) would fold its two terms into one key
    p = BlockPolynomial((1, 1), {((1,), (0,)): 1, ((0,), (2,)): 5})
    q = RadPoly((1, 1), [(ONE, p), (ScaledScalar(2, 2), p)])
    for bad in [(0, 0), (1, 1), (0, 2), (0, -1)]:
        for x in (p, RadPoly.from_poly(p), q, RadPoly.from_poly(p.astype_float())):
            with pytest.raises(IncompatibleBlockSizes, match="not a permutation"):
                x.act(bad)
            with pytest.raises(IncompatibleBlockSizes, match="not a permutation"):
                is_invariant(x, Perms([(0, 1), bad]))


TWO_SITE = BlockPolynomial((1, 1), {((1,), (1,)): 1})


def test_a_factor_on_two_sites_is_rejected_where_terms_enter():
    t = BlockPolynomial.univar({2: 1})
    terms = [(TWO_SITE, t), (t, TWO_SITE)]
    with pytest.raises(ValueError, match="^site mismatch$"):
        elementary_sum(terms)
    with pytest.raises(ValueError, match="^site mismatch$"):
        symmetrize_free(terms, double_edge_swap_action())
    with pytest.raises(ValueError, match="^site mismatch$"):
        symmetrize_average(terms, double_edge_swap_action())
    with pytest.raises(ValueError, match="^empty factor list$"):
        rad_outer([])
    with pytest.raises(ValueError, match="^empty factor list$"):
        elementary_sum([[], []])
    with pytest.raises(ValueError, match="^rad_outer expects single-site factors$"):
        rad_outer([t, TWO_SITE])


def test_dec_entries_of_one_local_at_two_widths(capsys, tmp_path):
    poly = {"sites": [1], "terms": [{"exps": [[1]], "coeff": "1"}]}
    wide = {"sites": [2], "terms": [{"exps": [[1, 0]], "coeff": "1"}]}
    bundle = {"complex": {"facets": [{"vertices": [0, 1], "weight": 1}], "n": 1},
              "action": None,
              "decomposition": {"index_size": 1, "site_vars": [1, 1], "locals": [
                  {"site": 0, "beta": [1], "poly": poly},
                  {"site": 0, "beta": [1], "poly": wide},
                  {"site": 1, "beta": [1], "poly": poly}]}}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    assert main(["dec", "verify", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "IncompatibleBlockSizes",
        "message": "local at site 0 has sites (2,), expected (1,)"}


def test_result_is_a_snapshot():
    X = BlockPolynomial.univar({1: 1})
    x, y = RadPoly.from_poly(X), RadPoly.from_poly(X + BlockPolynomial.univar({2: 1}))
    acc = RadSum((1,))
    acc.add(x)
    acc.add(y)              # a private part, keyed by tuples
    r = acc.result()
    acc.add(y)
    assert r.parts[0][1].terms == {((1,),): 2, ((2,),): 1}
    shared = RadSum((1,))
    shared.add(y)           # a part that still shares y's terms
    r = shared.result()
    shared.add(y)
    assert r.parts[0][1].terms == {((1,),): 1, ((2,),): 1} == y.parts[0][1].terms
    coded = RadSum((1, 1))
    f = [x, y]
    coded.add_outer(f)      # a part keyed by integer codes
    r = coded.result()
    coded.add_outer(f)
    assert r == rad_outer(f)
    assert coded.result() == rad_outer(f).scaled(2)


@pytest.mark.parametrize("scale", [2, 0.5, -1, Fraction(1, 2)], ids=repr)
def test_a_scale_that_is_no_scaled_scalar_is_rejected_where_it_enters(scale):
    x = BlockPolynomial.univar({1: 1})
    edge = standard_complex("single_edge")
    plain = {0: {(1,): x}, 1: {(1,): x}}
    sos = {(0, 0, (1,)): x, (1, 0, (1,)): x}
    message = re.escape(f"scale must be a ScaledScalar, not {type(scale).__name__} {scale!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        OmegaGDecomposition(edge, None, 1, (1, 1), plain, scale)
    with pytest.raises(TypeError, match=f"^{message}$"):
        SosOmegaGDecomposition(edge, None, 1, (1, 1), (0,), sos, scale)
    if scale > 0:       # the value as a ScaledScalar builds and contracts
        s = ScaledScalar(Fraction(scale))
        unscaled = OmegaGDecomposition(edge, None, 1, (1, 1), plain).contract()
        assert OmegaGDecomposition(edge, None, 1, (1, 1), plain, s).contract() == \
            unscaled.scale_mul(s * s)
        assert SosOmegaGDecomposition(edge, None, 1, (1, 1), (0,), sos, s).sum_squares() == \
            (unscaled * unscaled).scale_mul(s ** 4)
