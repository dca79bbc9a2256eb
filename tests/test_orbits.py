"""Orbit walks, orbit-once symmetry checks and per-orbit blending locals against
|G|-fold oracles.

`SymmetryAction.orbits` is the one walk over group orbits, `locals_agree`
visits each orbit of (site, ..., assignment) once through it, and the
blending difference builds one local per vertex orbit as |Stab| times the
orbit sum. The oracles below are the earlier forms, which visit every group
element for every key: their orbits, verdicts and locals must be the same.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.complexes import build_complex
from omegadec.decomposition import blending_difference, locals_agree, symmetric_indicator_split
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_fixed_vertex_action,
    double_edge_swap_action,
    simplex_full_symmetry_action,
    single_edge_swap_action,
)
from omegadec.radpoly import RadPoly, RadSum
from omegadec.scalars import ScaledScalar
from omegadec.symmetry import build_action, free_refinement, is_blending, is_free, trivial_action

TOL = 1e-9


def beta_orbit_oracle(a, key):
    """Every key some group element pushes key = (site, ..., assignment) to."""
    out = set()
    for g in range(len(a)):
        gi, gbeta = a.beta_image(g, key[0], key[-1])
        out.add((gi, *key[1:-1], gbeta))
    return out


def sorted_orbits_oracle(a, size, image):
    """Sorted orbits of 0..size-1 under image(g, x), by smallest member."""
    seen, orbits = set(), []
    for x in range(size):
        if x not in seen:
            orbit = sorted({image(g, x) for g in range(len(a))})
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def locals_agree_oracle(a, site_vars, stored, tol):
    """Compare every stored local with its image under every group element."""
    if len(a) == 1:
        return True
    exact = all(p.mode == RATIONAL for p in stored.values())
    for key, poly in stored.items():
        site, middle, beta = key[0], key[1:-1], key[-1]
        for g in range(len(a)):
            gi, gbeta = a.beta_image(g, site, beta)
            other = stored.get((gi, *middle, gbeta))
            if other is None:
                other = RadPoly.zero((site_vars[gi],), RATIONAL if exact else FLOAT)
            if exact:
                if not poly == other:
                    return False
            elif not poly.allclose(other, tol):
                return False
    return True


def blending_locals_oracle(terms, a):
    """The (plus, minus) locals of the blending difference, each a sum over all of G."""
    c = a.complex
    V = c.vertex_count
    split = symmetric_indicator_split(V - 1)
    if (V - 1) % 2 == 0:
        split = [(1, tuple(sign * x for x in vec)) for sign, vec in split]
    factors = [[RadPoly.coerce(f) for f in term] for term in terms]
    out = []
    for vectors in ([v for s, v in split if s > 0], [v for s, v in split if s < 0]):
        locals_ = {}
        for i in range(V):
            width = len(c.label_positions_at(i))
            for li, vec in enumerate(vectors):
                for j, term in enumerate(factors):
                    acc = RadSum((term[i].sites[0],))
                    for g in range(len(a)):
                        gi = a.vertex_image(g, i)
                        acc.add(term[gi] if vec[gi] > 0 else -term[gi])
                    local = acc.result()
                    if not local.is_zero():
                        beta = (j * len(vectors) + li + 1,) * width
                        locals_.setdefault(i, {})[beta] = local
        out.append(locals_)
    return out


def uni(coeffs, mode=RATIONAL):
    return BlockPolynomial.univar(coeffs, mode)


def random_local(rng, mode):
    if mode == FLOAT:
        return RadPoly.coerce(uni({d: rng.uniform(-2, 2) for d in range(3)}, FLOAT))
    p = RadPoly.coerce(uni({d: rng.randint(-2, 2) for d in range(2)}))
    if rng.random() < 0.4:
        root = ScaledScalar(rng.choice((2, 3, 8, Fraction(1, 2))), 2)
        p = p + RadPoly.scaled_poly(root, uni({rng.randint(0, 2): rng.randint(1, 3)}))
    return p


def all_keys(a, index_size, middles):
    c = a.complex
    return [(i, *middle, beta) for i in range(c.vertex_count) for middle in middles
            for beta in product(range(1, index_size + 1), repeat=len(c.label_positions_at(i)))]


def invariant_stored(rng, a, index_size, middles, mode):
    """Locals equal along every orbit, on a random subset of the orbits."""
    stored = {}
    for key in all_keys(a, index_size, middles):
        if key in stored or rng.random() < 0.3:
            continue
        local = random_local(rng, mode)
        for g in range(len(a)):
            gi, gbeta = a.beta_image(g, key[0], key[-1])
            stored[(gi, *key[1:-1], gbeta)] = local
    return stored


ACTIONS = {
    "double_edge_swap": double_edge_swap_action,
    "double_edge_fixed_vertex": double_edge_fixed_vertex_action,
    "single_edge_swap": single_edge_swap_action,
    "circle3_rotation": lambda: circle_rotation_action(3),
    "simplex2_full": lambda: simplex_full_symmetry_action(2),
    "refined_single_edge": lambda: free_refinement(single_edge_swap_action()),
}


# every fixture action, and the trivial group that an absent action stands for
ORBIT_ACTIONS = {**ACTIONS, "trivial": lambda: trivial_action(build_complex([((0, 1), 2)]))}


def test_action_set_covers_free_and_non_free():
    frees = {is_free(make()) for make in ACTIONS.values()}
    assert frees == {True, False}


@pytest.mark.parametrize("middles", [[()], [(0,), ((1, 2),)]], ids=["plain", "middle"])
@pytest.mark.parametrize("name", list(ORBIT_ACTIONS))
def test_orbits_match_the_brute_force_orbits(name, middles):
    a = ORBIT_ACTIONS[name]()
    keys = all_keys(a, 2, middles)
    rng = random.Random(name)
    for items in (keys, rng.sample(keys, len(keys)), rng.sample(keys, len(keys) // 3)):
        seen = set()
        firsts = []
        for orbit in a.orbits(items):
            first = orbit[0]
            firsts.append(first)
            # members in group-element order, without repeats, the item itself first
            images = [(gi, *first[1:-1], gbeta)
                      for gi, gbeta in (a.beta_image(g, first[0], first[-1])
                                        for g in range(len(a)))]
            assert orbit == list(dict.fromkeys(images))
            assert set(orbit) == beta_orbit_oracle(a, first)
            assert seen.isdisjoint(orbit)
            seen.update(orbit)
        # one orbit for each item no earlier orbit contains
        assert set(items) <= seen
        assert firsts == [k for n, k in enumerate(items)
                          if not any(k in beta_orbit_oracle(a, j) for j in items[:n])]


@pytest.mark.parametrize("name", list(ORBIT_ACTIONS))
def test_sorted_orbits_match_the_sorted_set_form(name):
    a = ORBIT_ACTIONS[name]()
    c = a.complex
    assert a.vertex_orbits() == sorted_orbits_oracle(a, c.vertex_count, a.vertex_image)
    assert a.label_orbits() == sorted_orbits_oracle(a, c.label_count, a.label_image)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("middles", [[()], [(0,), ((1, 2),)]], ids=["plain", "middle"])
@pytest.mark.parametrize("name", list(ACTIONS))
def test_orbit_check_matches_oracle(name, middles, mode):
    a = ACTIONS[name]()
    site_vars = (1,) * a.complex.vertex_count
    rng = random.Random(f"{name}-{len(middles)}-{mode}")
    verdicts = set()
    for trial in range(40):
        stored = invariant_stored(rng, a, 2, middles, mode)
        if not stored:
            continue
        keys = list(stored)
        edit = trial % 4
        if edit == 1:       # one local perturbed
            key = rng.choice(keys)
            stored[key] = stored[key] + RadPoly.coerce(uni({1: 1}, mode))
        elif edit == 2:     # one local dropped: its orbit now meets the zero local
            del stored[rng.choice(keys)]
        elif edit == 3:     # a local where its orbit stores nothing
            missing = [k for k in all_keys(a, 2, middles) if k not in stored]
            if missing:
                stored[rng.choice(missing)] = random_local(rng, mode)
        want = locals_agree_oracle(a, site_vars, stored, TOL)
        assert locals_agree(a, site_vars, stored, TOL) is want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", list(ACTIONS))
def test_float_check_matches_oracle_near_tol(name):
    """Perturbations just inside and just outside the tolerance give the oracle's verdict."""
    a = ACTIONS[name]()
    site_vars = (1,) * a.complex.vertex_count
    rng = random.Random(name)
    verdicts = set()
    for trial in range(60):
        stored = invariant_stored(rng, a, 2, [()], FLOAT)
        if not stored:
            continue
        key = rng.choice(list(stored))
        ref = max(abs(c) for p in stored.values() for _, q in p.parts for c in q.terms.values())
        step = rng.choice((0.5, 0.99, 1.01, 2.0)) * TOL * (1 + ref)
        d = rng.randint(0, 2)
        stored[key] = stored[key] + RadPoly.coerce(uni({d: step}, FLOAT))
        if trial % 2:
            # a second orbit member moved the other way: each stays within tol of
            # the unmoved members, but the two may differ by more than tol
            gi, gbeta = a.beta_image(rng.randrange(len(a)), key[0], key[-1])
            if (gi, gbeta) != key and (gi, gbeta) in stored:
                stored[gi, gbeta] = stored[gi, gbeta] - RadPoly.coerce(uni({d: step}, FLOAT))
        want = locals_agree_oracle(a, site_vars, stored, TOL)
        assert locals_agree(a, site_vars, stored, TOL) is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_float_check_keeps_a_non_finite_fixed_local_failing():
    """A fixed point compares its local with itself, which fails on an infinity."""
    a = double_edge_fixed_vertex_action()
    inf = RadPoly.coerce(BlockPolynomial._trusted((1,), {((0,),): float("inf")}, FLOAT))
    stored = {(0, (1, 1)): inf}
    assert locals_agree_oracle(a, (1, 1), stored, TOL) is False
    assert locals_agree(a, (1, 1), stored, TOL) is False


def blending_actions(n, rng):
    """The full symmetry, the trivial group and random blending actions on the n-simplex."""
    out = [simplex_full_symmetry_action(n), build_action(build_complex([(range(n + 1), 1)]), [])]
    while len(out) < 5:
        weight = rng.choice((1, 2))
        c = build_complex([(range(n + 1), weight)])
        gens = [(rng.sample(range(n + 1), n + 1), rng.sample(range(weight), weight))
                for _ in range(rng.randint(1, 2))]
        a = build_action(c, gens)
        if is_blending(a):
            out.append(a)
    return out


def invariant_terms(rng, a, mode):
    """Random terms closed under the vertex permutations of the action."""
    V = a.complex.vertex_count
    closed = []
    for _ in range(2):
        term = [random_local(rng, mode) for _ in range(V)]
        for vperm in sorted({a.vperm(g) for g in range(len(a))}):
            moved = [None] * V
            for i in range(V):
                moved[vperm[i]] = term[i]
            closed.append(tuple(moved))
    return closed


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blending_locals_match_oracle(n, mode):
    rng = random.Random(f"{n}-{mode}")
    for a in blending_actions(n, rng):
        terms = invariant_terms(rng, a, mode)
        pair = blending_difference(terms, a)
        for dec, want in zip(pair, blending_locals_oracle(terms, a)):
            assert dec.locals.keys() == want.keys()
            for site, mapping in want.items():
                assert dec.locals[site].keys() == mapping.keys()
                for beta, local in mapping.items():
                    got = dec.locals[site][beta]
                    assert got == local if mode == RATIONAL else got.allclose(local, 1e-12)
            assert dec.check_symmetry()


def test_exact_blending_check_compares_each_local_once(monkeypatch):
    a = simplex_full_symmetry_action(3)
    terms = invariant_terms(random.Random(3), a, RATIONAL)
    pair = blending_difference(terms, a)
    calls = 0
    original = RadPoly.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(RadPoly, "__eq__", counting_eq)
    for dec in pair:
        before = calls
        assert dec.check_symmetry()
        assert 0 < calls - before <= dec.local_count()
