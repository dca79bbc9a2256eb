"""The exact path's per-element kernels against the expressions they replaced.

`BlockPolynomial.scaled` multiplies by a non-integral rational p/q in ints,
`SymmetryAction.key_image` and `beta_image` move an assignment through one
cached move per (g, site), `free_extension` shifts one list per (site,
group element), and one pass over the locals decides a contraction's mode
and grouping. The oracles below are the earlier expressions: each kernel must
give their values, in their term order, and the constructions and reports
built on them must be byte-equal to what the earlier kernels give, which
`old_kernels` swaps back in.
"""

import json
import random
from fractions import Fraction

import pytest

from omegadec import decomposition
from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.cli import main
from omegadec.complexes import standard_complex
from omegadec.decomposition import blending_difference, free_extension, symmetrize_free
from omegadec.errors import _rational
from omegadec.fixtures import (
    circle_rotation_action,
    double_edge_fixed_vertex_action,
    double_edge_swap_action,
    simplex_full_symmetry_action,
    single_edge_swap_action,
)
from omegadec.radpoly import RadPoly
from omegadec.scalars import ONE, ScaledScalar
from omegadec.symmetry import (
    SymmetryAction,
    build_action,
    free_refinement,
    linearizer,
    trivial_action,
)
from radref import structure
from test_free_build import EXTENSION_ACTIONS


# the earlier kernels -----------------------------------------------------------

def ref_scaled(p, c):
    """The product term by term: {k: v * c}, zeros dropped."""
    if isinstance(c, float) and p.mode == RATIONAL:
        return ref_scaled(p.astype_float(), c)
    c = float(c) if p.mode == FLOAT else _rational(c)
    return BlockPolynomial._trusted(p.sites, {k: v * c for k, v in p.terms.items() if v * c},
                                    p.mode)


def ref_beta_map(a, g, site):
    """Target site g*site and, per target label slot, the source slot index."""
    c = a.complex
    inv_m = a.mperm(a.inv(g))
    src_index = {p: t for t, p in enumerate(c.label_positions_at(site))}
    gi = a.vertex_image(g, site)
    return gi, tuple(src_index[inv_m[p]] for p in c.label_positions_at(gi))


def ref_beta_image(a, g, site, beta):
    gi, mapping = ref_beta_map(a, g, site)
    return gi, tuple(beta[t] for t in mapping)


def ref_key_image(a, g, key):
    gi, mapping = ref_beta_map(a, g, key[0])
    gbeta = tuple([key[-1][t] for t in mapping])
    return (gi, gbeta) if len(key) == 2 else (gi, *key[1:-1], gbeta)


def ref_free_extension(a, count):
    """One generator tuple per term, site and group element."""
    z = linearizer(a)
    order = len(a)
    c = a.complex
    for i in range(c.vertex_count):
        positions = c.label_positions_at(i)
        for g in range(order):
            mperm = a.mperm(g)
            selector = [z[mperm[pos]] for pos in positions]
            yield i, a.vertex_image(g, i), [tuple(j * order + h + 1 for h in selector)
                                            for j in range(count)]


def ref_contraction_mode(site_locals):
    """Two passes: any float local, then every local one part of scale one."""
    if any(p.mode == FLOAT for locs in site_locals.values() for p in locs.values()):
        return FLOAT, False
    return RATIONAL, all(len(p.parts) == 1 and p.parts[0][0] == ONE
                         for locs in site_locals.values() for p in locs.values())


@pytest.fixture
def old_kernels(monkeypatch):
    """A function that swaps the earlier kernels into the library."""
    def install():
        monkeypatch.setattr(BlockPolynomial, "scaled", ref_scaled)
        monkeypatch.setattr(SymmetryAction, "beta_image", ref_beta_image)
        monkeypatch.setattr(SymmetryAction, "key_image", ref_key_image)
        monkeypatch.setattr(decomposition, "free_extension", ref_free_extension)
        monkeypatch.setattr(decomposition, "_contraction_mode", ref_contraction_mode)
    return install


# scaling by a rational ------------------------------------------------------------

def integral(v) -> bool:
    return Fraction(v).denominator == 1


def random_coeffs(rng, kind):
    if kind == "int":
        return rng.choice([-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12, 10**30 + 7])
    return Fraction(rng.choice([-9, -5, -3, -1, 1, 2, 5, 7, 3**40]), rng.choice([2, 3, 4, 9, 7]))


def random_poly(rng, kind):
    """Terms of one kind, "int" or "fraction", or of both, in a random order."""
    keys = [((a, b), (c,)) for a in range(3) for b in range(2) for c in range(2)]
    rng.shuffle(keys)
    terms = {}
    for key in keys[:rng.randint(0, len(keys))]:
        terms[key] = random_coeffs(rng, kind if kind != "mixed" else rng.choice(["int", "fraction"]))
    return BlockPolynomial((2, 1), terms)


FACTORS = [Fraction(p, q) for p in (1, -1, 2, -2, 3, -5, 6, 2**70) for q in (2, 3, 4, 6, 9)
           if Fraction(p, q).denominator > 1]


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_scaled_by_a_rational_matches_the_product(kind):
    rng = random.Random(f"scaled:{kind}")
    integral_seen = fractional_seen = 0
    for _ in range(300):
        p = random_poly(rng, kind)
        c = rng.choice(FACTORS)
        got, want = p.scaled(c), ref_scaled(p, c)
        assert list(got.terms.items()) == list(want.terms.items())
        for v in got.terms.values():
            assert type(v) is (int if integral(v) else Fraction)
            integral_seen += integral(v)
            fractional_seen += not integral(v)
        assert (got.sites, got.mode) == (p.sites, RATIONAL)
    assert integral_seen and fractional_seen


def test_int_and_float_factors_keep_their_branches():
    rng = random.Random("scaled:other")
    for _ in range(200):
        p = random_poly(rng, "mixed")
        q = p.astype_float()
        for c in (0, 1, -2, Fraction(6, 3), 0.5, -1.5, 1e-300):
            assert structure(p.scaled(c)) == structure(ref_scaled(p, c))
            assert structure(q.scaled(c)) == structure(ref_scaled(q, c))


def test_as_polynomial_and_radpoly_scaled_give_int_where_integral():
    rng = random.Random("as_polynomial")
    for _ in range(200):
        p = random_poly(rng, rng.choice(["int", "fraction", "mixed"]))
        s = ScaledScalar(rng.choice([Fraction(1, 6), Fraction(4, 9), Fraction(3, 2)]))
        r = RadPoly.scaled_poly(s, p)
        got = r.as_polynomial()
        assert list(got.terms.items()) == list(ref_scaled(p, s.as_fraction()).terms.items())
        c = rng.choice(FACTORS)
        scaled = r.scaled(c)
        assert [(t, list(q.terms.items())) for t, q in scaled.parts] == \
            [(t, list(ref_scaled(q, c).terms.items())) for t, q in r.parts]
        for q in [got] + [q for _, q in scaled.parts]:
            assert all(type(v) is (int if integral(v) else Fraction) for v in q.terms.values())


# moving assignments -------------------------------------------------------------

def reflection(c):
    """The vertex reversal of a complex of weight-one facets that it maps onto each other."""
    V = c.vertex_count
    label_of = {f: pos for pos, (f, _) in enumerate(c.facets)}
    image = [frozenset(V - 1 - v for v in f) for f, _ in c.facets]
    return build_action(c, [(tuple(range(V - 1, -1, -1)), tuple(label_of[f] for f in image))])


def actions_of(kind, n):
    """The trivial action of a standard complex, its fixture or reflection
    actions, and the free refinement of each nontrivial one."""
    c = standard_complex(kind, n)
    out = [trivial_action(c)]
    if kind == "double_edge":
        out += [double_edge_swap_action(), double_edge_fixed_vertex_action()]
    elif kind == "single_edge":
        out.append(single_edge_swap_action())
    elif kind == "simplex":
        out.append(simplex_full_symmetry_action(n))
    else:
        out.append(reflection(c))
        if kind == "circle":
            out.append(circle_rotation_action(n))
    return out + [free_refinement(a) for a in out if len(a) > 1]


KINDS = [("simplex", n) for n in (0, 1, 2, 3)] + [("line", n) for n in (1, 2, 3)] + \
    [("circle", n) for n in (3, 4, 5)] + [("double_edge", 1), ("single_edge", 1)]
ACTIONS = [a for kind, n in KINDS for a in actions_of(kind, n)]


@pytest.mark.parametrize("a", ACTIONS, ids=range(len(ACTIONS)))
def test_key_and_beta_images_match_the_list_comprehension(a):
    rng = random.Random(len(a) * 1000 + a.complex.label_count)
    c = a.complex
    for site in range(c.vertex_count):
        arity = len(c.label_positions_at(site))
        for _ in range(3):
            beta = tuple(rng.randint(1, 9) for _ in range(arity))
            for g in range(len(a)):
                for key in ((site, beta), (site, ("m", rng.randint(0, 3)), beta),
                            (site, 0, 1, beta)):
                    got = a.key_image(g, key)
                    assert got == ref_key_image(a, g, key) and type(got[-1]) is tuple
                    _, mapping = ref_beta_map(a, g, site)
                    if mapping == tuple(range(arity)):
                        assert got[-1] is beta      # an identity order returns the stored tuple
                gi, gbeta = a.beta_image(g, site, beta)
                assert (gi, gbeta) == ref_beta_image(a, g, site, beta)
                assert type(gbeta) is tuple


def test_the_actions_cover_identity_reversed_and_one_slot_maps():
    seen = set()
    for a in ACTIONS:
        for site in range(a.complex.vertex_count):
            for g in range(len(a)):
                _, mapping = ref_beta_map(a, g, site)
                n = len(mapping)
                seen.add("one slot" if n == 1 else "identity" if mapping == tuple(range(n))
                         else "reversed" if mapping == tuple(range(n - 1, -1, -1)) else "other")
    assert {"one slot", "identity", "reversed", "other"} <= seen


@pytest.mark.parametrize("a", EXTENSION_ACTIONS, ids=range(len(EXTENSION_ACTIONS)))
def test_free_extension_matches_the_generator_form(a):
    for count in (0, 1, 2, 5):
        got = list(free_extension(a, count))
        assert got == list(ref_free_extension(a, count))
        assert all(type(beta) is tuple for _, _, betas in got for beta in betas)


# one pass over the locals ---------------------------------------------------------

def test_one_pass_gives_the_two_pass_verdicts():
    x = BlockPolynomial.univar({1: 1})
    rad = RadPoly.scaled_poly(ScaledScalar(2, 2), x)
    two_parts = RadPoly.from_poly(x) + rad
    rational_one = RadPoly.scaled_poly(ScaledScalar(Fraction(1)), x)
    exact, flt = RadPoly.from_poly(x), RadPoly.from_poly(x.astype_float())
    rng = random.Random("contraction mode")
    for _ in range(300):
        pool = rng.sample([exact, exact, rational_one, rad, two_parts, flt, RadPoly.zero((1,))],
                          rng.randint(0, 4))
        site_locals = {}
        for n, p in enumerate(pool):
            site_locals.setdefault(rng.randint(0, 2), {})[(n + 1,)] = p
        assert decomposition._contraction_mode(site_locals) == ref_contraction_mode(site_locals)


# the constructions and reports built on the kernels ------------------------------

def random_factor(rng, deg):
    return BlockPolynomial.univar({d: rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2),
                                                  Fraction(-2, 3)]) for d in range(deg + 1)})


def closed_terms(rng, a, deg, count):
    """The distinct vertex-permutation images of random terms."""
    V = a.complex.vertex_count
    seen, out = set(), []
    for _ in range(count):
        term = [random_factor(rng, deg) for _ in range(V)]
        for g in range(len(a)):
            moved = [None] * V
            for i in range(V):
                moved[a.vertex_image(g, i)] = term[i]
            key = tuple(tuple(f.terms.items()) for f in moved)
            if key not in seen:
                seen.add(key)
                out.append(moved)
    return out


def free_pool():
    simplex2 = standard_complex("simplex", 2)
    actions = [circle_rotation_action(n) for n in (3, 4, 5, 6)] + [
        free_refinement(build_action(standard_complex("simplex", 1), [((1, 0), (0,))])),
        free_refinement(build_action(simplex2, [((1, 2, 0), (0,))])),
        free_refinement(build_action(simplex2, [((1, 0, 2), (0,)), ((1, 2, 0), (0,))]))]
    rng = random.Random("free pool")
    return [(a, closed_terms(rng, a, rng.randint(1, 2), rng.randint(1, 2)))
            for a in actions for _ in range(2)]


def blending_pool():
    rng = random.Random("blending pool")
    out = []
    for n in (1, 2, 3):
        swap = tuple([1, 0] + list(range(2, n + 1)))
        cycle = tuple(list(range(1, n + 1)) + [0])
        a = build_action(standard_complex("simplex", n), [(swap, (0,)), (cycle, (0,))])
        for _ in range(2 if n < 3 else 1):
            out.append((a, closed_terms(rng, a, 2, 1 if n == 3 else 2)))
    return out


def bundle(a, **extra):
    return {"complex": a.complex.to_obj(), "action": a.to_obj(), **extra}


def reports(tmp_path, capsys):
    """Every construction's to_obj, its contractions and the dec reports, as bytes."""
    out = []
    for n, (a, terms) in enumerate(free_pool()):
        dec = symmetrize_free(terms, a)
        raw = dec.contract()
        out.append(json.dumps([dec.to_obj(), raw.to_obj(), raw.as_polynomial().to_obj(),
                               dec.check_symmetry()]))
        out += [structure(raw), list(raw.as_polynomial().terms.items())]
        path = tmp_path / f"free{n}.json"
        path.write_text(json.dumps(bundle(a, decomposition=dec.to_obj())))
        assert main(["dec", "verify", str(path)]) == 0
        path.write_text(json.dumps(bundle(a, terms=[[f.to_obj() for f in t] for t in terms])))
        assert main(["dec", "symmetrize", str(path), "--mode", "free"]) == 0
    for n, (a, terms) in enumerate(blending_pool()):
        q1, q2 = blending_difference(terms, a)
        p1, p2 = q1.contract(), q2.contract()
        out.append(json.dumps([q1.to_obj(), q2.to_obj(), p1.to_obj(), p2.to_obj(),
                               q1.check_symmetry(), q2.check_symmetry()]))
        out += [structure(p1), list(p1.as_polynomial().terms.items())]
        path = tmp_path / f"blend{n}.json"
        path.write_text(json.dumps(bundle(a, terms=[[f.to_obj() for f in t] for t in terms])))
        assert main(["dec", "symmetrize", str(path), "--mode", "blending"]) == 0
        for name, q in (("plus", q1), ("minus", q2)):
            path = tmp_path / f"blend{n}{name}.json"
            path.write_text(json.dumps(bundle(a, decomposition=q.to_obj())))
            assert main(["dec", "verify", str(path)]) == 0
    return out, capsys.readouterr().out


def test_constructions_and_reports_are_those_of_the_earlier_kernels(tmp_path, capsys,
                                                                   old_kernels):
    new, new_stdout = reports(tmp_path, capsys)
    old_kernels()
    old, old_stdout = reports(tmp_path, capsys)
    assert new == old
    assert new_stdout == old_stdout and new_stdout.count("\n") >= 40
