"""Invariance from the orbit closure of the input terms, against the check it skips.

`symmetrize_free` and `blending_difference` take an exact term set whose
multiset each generator's vertex permutation maps onto itself as invariant,
and expand and test only the others. A seeded differential runs each
construction as it is and with `old_require_invariant`, the expansion and
key-moving test that every input went through before, kept here as the
oracle. Term sets are closed, invariant but not closed (two terms merged
into one, or one term split into two), not invariant, and of zero sum, with
rational, radical, float and zero factors; the results agree in `to_obj` and
the contraction, or in the error type and message. A term set closed under
one generator only is not taken as invariant, and a counting pin shows that
a closed exact input is neither expanded nor tested.
"""

import random
from fractions import Fraction

import pytest

from omegadec import decomposition
from omegadec.blockpoly import FLOAT
from omegadec.decomposition import blending_difference, symmetrize_free
from omegadec.errors import NotInvariant
from omegadec.fixtures import simplex_full_symmetry_action
from omegadec.invariance import is_invariant
from omegadec.radpoly import RadPoly, RadSum
from test_entry_checks import KINDS, random_rad
from test_free_build import FREE_ACTIONS, orbit_widths, random_factor


def old_require_invariant(a, site_vars, factors):
    """The invariance step before the closure test: the product sum, each
    factor checked to lie on one site, and every key moved by every element."""
    if not site_vars:
        raise ValueError("empty factor list")
    acc = RadSum(site_vars)
    for term in factors:
        if any(f.sites != (m,) for f, m in zip(term, site_vars)):
            raise ValueError("site mismatch")
        acc.add_outer(term)
    if not is_invariant(acc.result(), a, 1e-9):
        raise NotInvariant("elementary sum is not invariant under the action")


# the full symmetric group of the simplex on 2, 3 and 4 vertices, as `exact_blending` uses it
BLENDING_ACTIONS = [simplex_full_symmetry_action(n) for n in (1, 2, 3)]


def closure(terms, a):
    """Each term moved by each group element: its factor at site i goes to site g(i)."""
    V = a.complex.vertex_count
    out = []
    for term in terms:
        for g in range(len(a)):
            moved = [None] * V
            for i in range(V):
                moved[a.vertex_image(g, i)] = term[i]
            out.append(moved)
    return out


def halved(f):
    f = RadPoly.coerce(f)
    return f.scaled(0.5 if f.mode == FLOAT else Fraction(1, 2))


def term_set(rng, a, shape, raw_count, kinds=KINDS, widths=None):
    """Terms of the given shape on widths that agree along vertex orbits, random
    unless given, their factors of two of the given kinds or zero."""
    V = a.complex.vertex_count
    widths = widths or orbit_widths(rng, a)
    kinds = rng.sample(kinds, 2)
    raw = [[random_factor(rng, w, kinds) for w in widths] for _ in range(raw_count)]
    if shape == "not invariant":
        return raw
    if shape == "zero sum, not closed":
        return raw + [[-RadPoly.coerce(term[0])] + term[1:] for term in raw]
    if shape == "zero sum, closed":
        return closure(raw + [[-RadPoly.coerce(term[0])] + term[1:] for term in raw], a)
    if shape == "merged":
        # the closure of t and t', which differ at site i, with t and t' as one term
        i = rng.randrange(V)
        t = raw[0]
        other = t[:i] + [random_rad(rng, (widths[i],), rng.choice(kinds))] + t[i + 1:]
        closed = closure(raw + [other], a)
        merged = t[:i] + [RadPoly.coerce(t[i]) + other[i]] + t[i + 1:]
        images = {0, len(raw) * len(a)}     # t and t' moved by the identity
        return [merged] + [term for k, term in enumerate(closed) if k not in images]
    closed = closure(raw, a)
    rng.shuffle(closed)
    if shape == "split":
        j, i = rng.randrange(len(closed)), rng.randrange(V)
        half = closed[j][:i] + [halved(closed[j][i])] + closed[j][i + 1:]
        closed[j:j + 1] = [half, half]
    return closed


SHAPES = ["closed", "merged", "split", "not invariant", "zero sum, closed",
          "zero sum, not closed"]


def outcome(build, terms, a):
    try:
        result = build(terms, a)
    except Exception as err:        # the type and message are what is compared
        return type(err).__name__, str(err)
    decs = result if isinstance(result, tuple) else (result,)
    return [(d.to_obj(), d.contract().to_obj()) for d in decs]


def compare(monkeypatch, build, terms, a):
    got = outcome(build, terms, a)
    with monkeypatch.context() as m:
        m.setattr(decomposition, "_require_invariant", old_require_invariant)
        want = outcome(build, terms, a)
    assert got == want


@pytest.mark.parametrize("shape", SHAPES)
def test_symmetrize_free_matches_the_expanded_check(monkeypatch, shape):
    for seed in range(20):
        rng = random.Random(f"closure-free-{shape}-{seed}")
        a = rng.choice(FREE_ACTIONS)
        compare(monkeypatch, symmetrize_free, term_set(rng, a, shape, rng.randint(1, 2)), a)


@pytest.mark.parametrize("shape", SHAPES)
def test_blending_difference_matches_the_expanded_check(monkeypatch, shape):
    # up to 1 s: a closed set on 4 vertices holds 24 or 48 terms, and each case
    # builds and contracts both parts twice
    for seed in range(8):
        rng = random.Random(f"closure-blending-{shape}-{seed}")
        if seed:
            a = rng.choice(BLENDING_ACTIONS[:2])
            terms = term_set(rng, a, shape, rng.randint(1, 2))
        else:   # on 4 vertices, wider or inexact factors make a contraction take seconds
            a = BLENDING_ACTIONS[2]
            terms = term_set(rng, a, shape, 1, ["int", "fraction"], (1,) * 4)
        compare(monkeypatch, blending_difference, terms, a)


def test_malformed_closed_inputs_keep_their_errors(monkeypatch):
    swap = FREE_ACTIONS[0]
    x = RadPoly.coerce(random_rad(random.Random(0), (1,), "int"))
    two_sites = RadPoly.coerce(random_rad(random.Random(1), (1, 1), "int"))
    cases = [[[]], [[x]], [[x, x, x]], [[two_sites, two_sites]], [[x, two_sites], [two_sites, x]]]
    for terms in cases:
        compare(monkeypatch, symmetrize_free, terms, swap)
        compare(monkeypatch, blending_difference, terms, BLENDING_ACTIONS[0])


def test_closure_under_one_generator_is_not_enough(monkeypatch):
    # closed under the swap of vertices 0 and 1, but not under the 3-cycle
    x, y, z = (RadPoly.coerce(random_rad(random.Random(s), (1,), "int")) for s in (4, 5, 6))
    terms = [[x, y, z], [y, x, z]]
    for build, a in [(blending_difference, BLENDING_ACTIONS[1]), (symmetrize_free, FREE_ACTIONS[4])]:
        assert len(a.generators) == 2
        with pytest.raises(NotInvariant):
            build(terms, a)
        compare(monkeypatch, build, terms, a)


def counting(monkeypatch):
    calls = {"_product_sum": 0, "is_invariant": 0}
    for name in calls:
        original = getattr(decomposition, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(decomposition, name, counted)
    return calls


def test_a_closed_exact_input_is_neither_expanded_nor_tested(monkeypatch):
    calls = counting(monkeypatch)
    for seed in range(10):
        rng = random.Random(f"closure-pin-{seed}")
        for a, build in [(rng.choice(FREE_ACTIONS), symmetrize_free),
                         (rng.choice(BLENDING_ACTIONS[:2]), blending_difference)]:
            widths = orbit_widths(rng, a)
            raw = [[random_rad(rng, (w,), rng.choice(["int", "fraction", "radical"]))
                    for w in widths]]
            build(closure(raw, a), a)
    assert calls == {"_product_sum": 0, "is_invariant": 0}
    # a split term and a float factor take the expanded check; a term of another
    # length is rejected by the read and never expanded
    a = FREE_ACTIONS[0]
    x, y = (RadPoly.coerce(random_rad(random.Random(s), (1,), "int")) for s in (2, 3))
    symmetrize_free([[x, y], [y, halved(x)], [y, halved(x)]], a)
    symmetrize_free([[x.to_float(), x.to_float()]], a)
    assert calls == {"_product_sum": 2, "is_invariant": 2}
    with pytest.raises(ValueError, match="^term has 1 factors, expected 2$"):
        symmetrize_free([[RadPoly.zero((1,))]], a)
    assert calls == {"_product_sum": 2, "is_invariant": 2}
