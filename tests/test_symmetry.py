"""Group actions: closure, freeness, blending, refinement, linearizers."""

import random
from itertools import permutations, product

import pytest

from omegadec.complexes import build_complex, standard_complex
from omegadec.errors import (
    ActionNotFree,
    CollapseNotLinear,
    GroupTooLarge,
    WeightNotPreserved,
)
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_fixed_vertex_action,
    double_edge_swap_action,
    simplex_full_symmetry_action,
    single_edge_swap_action,
)
from omegadec.symmetry import (
    SymmetryAction,
    _validate_element,
    build_action,
    free_refinement,
    is_blending,
    is_free,
    linearizer,
    trivial_action,
)


def line_reversal_action(n):
    c = standard_complex("line", n)
    vperm = tuple(n - i for i in range(n + 1))
    mperm = tuple(n - 1 - k for k in range(n))  # facet {i, i+1} -> {n-i-1, n-i}
    return build_action(c, [(vperm, mperm)])


def test_closure_and_composition():
    a = simplex_full_symmetry_action(3)
    assert len(a) == 24
    for g in range(len(a)):
        gi = a.inv(g)
        assert a.mul(g, gi) == a.identity
        for h in range(len(a)):
            gh = a.mul(g, h)
            for v in range(4):
                assert a.vertex_image(gh, v) == a.vertex_image(g, a.vertex_image(h, v))


def test_freeness_examples():
    assert is_free(double_edge_swap_action())
    # refinement that keeps the copies fixed is not free
    c = standard_complex("double_edge")
    fixed_copies = build_action(c, [((1, 0), (0, 1))])
    assert not is_free(fixed_copies)
    assert not is_free(single_edge_swap_action())
    for n in (3, 4, 5, 6):
        assert is_free(circle_rotation_action(n))
    assert is_free(line_reversal_action(2))
    assert not is_free(line_reversal_action(3))
    assert is_free(line_reversal_action(4))


def test_blending_examples():
    for n in (1, 2, 3):
        assert is_blending(simplex_full_symmetry_action(n))
    for n in (3, 4, 5):
        assert not is_blending(circle_rotation_action(n))
    assert is_blending(line_reversal_action(2))
    assert not is_blending(line_reversal_action(3))
    assert is_blending(single_edge_swap_action())
    assert is_blending(double_edge_swap_action())


def blending_oracle(a):
    """Every orbit-compatible vertex bijection is one realized vertex permutation."""
    realized = {a.vperm(g) for g in range(len(a))}
    orbits = a.vertex_orbits()
    for images in product(*(permutations(orbit) for orbit in orbits)):
        f = [0] * a.complex.vertex_count
        for orbit, image in zip(orbits, images):
            for v, w in zip(orbit, image):
                f[v] = w
        if tuple(f) not in realized:
            return False
    return True


def test_blending_count_matches_oracle():
    rng = random.Random(4)
    seen = set()
    for _ in range(150):
        n = rng.randint(0, 5)
        weight = rng.choice((1, 1, 2, 3)) if n <= 3 else 1
        c = build_complex([(range(n + 1), weight)])
        gens = []
        for _ in range(rng.randint(1, 2)):
            vperm = list(range(n + 1))
            mperm = list(range(weight))
            rng.shuffle(vperm)
            rng.shuffle(mperm)
            gens.append((vperm, mperm))
        a = build_action(c, gens)
        verdict = is_blending(a)
        assert verdict == blending_oracle(a)
        seen.add(verdict)
    assert seen == {True, False}


def random_complex_with_generators(rng):
    """A random complex and generator pairs built from its weight-preserving vertex maps."""
    n = rng.randint(2, 5)
    facets = []
    for _ in range(rng.randint(1, 5)):
        s = set(rng.sample(range(n), rng.randint(1, min(3, n))))
        if not any(s <= t for t, _ in facets):
            facets = [(t, w) for t, w in facets if not t < s] + [(s, rng.choice((1, 1, 2)))]
    covered = set().union(*(t for t, _ in facets))
    facets += [({v}, 1) for v in range(n) if v not in covered]
    if rng.random() < 0.5:      # uniform weights leave more symmetry
        facets = [(t, facets[0][1]) for t, _ in facets]
    c = build_complex(facets)
    weighted = {(f, w) for f, w in c.facets}
    autos = [p for p in permutations(range(n))
             if {(frozenset(p[v] for v in f), w) for f, w in c.facets} == weighted]
    gens = []
    for vperm in rng.sample(autos, min(len(autos), rng.randint(1, 3))):
        mperm = [0] * c.label_count
        for f_idx, (fset, _) in enumerate(c.facets):
            target = c.facet_index(frozenset(vperm[v] for v in fset))
            src = [pos for pos, lab in enumerate(c.labels) if lab[0] == f_idx]
            dst = [pos for pos, lab in enumerate(c.labels) if lab[0] == target]
            rng.shuffle(dst)
            for a, b in zip(src, dst):
                mperm[a] = b
        gens.append((vperm, mperm))
    return c, gens


def test_closure_elements_valid_and_linearizer_fails_exactly_off_free():
    rng = random.Random(5)
    orders = set()
    free_seen = set()
    for _ in range(300):
        c, gens = random_complex_with_generators(rng)
        a = build_action(c, gens)
        orders.add(len(a))
        for vperm, mperm in a.elements:
            _validate_element(c, vperm, mperm)
        free = is_free(a)
        free_seen.add(free)
        if free:
            linearizer(a)
        else:
            with pytest.raises(ActionNotFree):
                linearizer(a)
    assert len(orders) >= 4 and free_seen == {True, False}


def test_validation_errors():
    c = build_complex([({0, 1}, 1), ({1, 2}, 2)])
    # swapping vertices 0 and 2 maps a weight-1 facet onto a weight-2 facet
    with pytest.raises(WeightNotPreserved):
        build_action(c, [((2, 1, 0), (2, 0, 1))])
    d = build_complex([({0, 1}, 1), ({1, 2}, 1)])
    # vertex map is the identity but the labels of distinct facets are swapped
    with pytest.raises(CollapseNotLinear):
        build_action(d, [((0, 1, 2), (1, 0))])
    with pytest.raises(GroupTooLarge):
        build_action(standard_complex("double_edge"), [((1, 0), (1, 0))], max_group=1)
    with pytest.raises(ValueError):
        build_action(standard_complex("double_edge"), [((1, 1), (0, 1))])


def test_beta_image():
    a = double_edge_swap_action()
    swap = 1  # the non-identity element
    site, beta = a.beta_image(swap, 0, (1, 2))
    assert site == 1 and beta == (2, 1)
    site, beta = a.beta_image(a.identity, 0, (1, 2))
    assert site == 0 and beta == (1, 2)


def test_label_orbit_sizes_divide_group_order():
    for a in (double_edge_swap_action(), circle_rotation_action(5),
              line_reversal_action(4), simplex_full_symmetry_action(2)):
        for orbit in a.label_orbits():
            assert len(a) % len(orbit) == 0


def test_free_refinement_double_edge_from_single():
    a = single_edge_swap_action()
    refined = free_refinement(a)
    assert refined.complex.facets[0][1] == 2
    assert refined.complex.label_count == 2
    assert is_free(refined)


def test_free_refinement_trivial_group_keeps_complex():
    c = standard_complex("circle", 4)
    a = trivial_action(c)
    refined = free_refinement(a)
    assert refined.complex == c
    assert is_free(refined)


def test_free_refinement_simplex():
    base = build_action(standard_complex("simplex", 1), [((1, 0), (0,))])
    refined = free_refinement(base)
    assert refined.complex.facets[0][1] == 2
    assert is_free(refined)
    base3 = build_action(standard_complex("simplex", 2), [((1, 2, 0), (0,))])
    refined3 = free_refinement(base3)
    assert refined3.complex.facets[0][1] == 3
    assert is_free(refined3)
    # fixed-vertex actions stay valid through refinement
    assert all(is_free(free_refinement(a)) for a in
               (double_edge_fixed_vertex_action(), circle_rotation_action(3)))


def test_linearizer_double_edge():
    a = double_edge_swap_action()
    z = linearizer(a)
    assert z[0] == a.identity      # representative of the orbit
    assert z[1] == 1               # the copy-swapping element


def test_linearizer_is_equivariant():
    for a in (double_edge_swap_action(), circle_rotation_action(5),
              free_refinement(single_edge_swap_action())):
        z = linearizer(a)
        for g in range(len(a)):
            for pos in range(a.complex.label_count):
                assert z[a.label_image(g, pos)] == a.mul(g, z[pos])


def test_linearizer_requires_free():
    with pytest.raises(ActionNotFree):
        linearizer(single_edge_swap_action())


def test_trivial_linearizer():
    a = trivial_action(standard_complex("circle", 3))
    assert linearizer(a) == (0, 0, 0)


def test_action_json_round_trip():
    a = double_edge_swap_action()
    again = SymmetryAction.from_obj(a.complex, a.to_obj())
    assert again.elements == a.elements
