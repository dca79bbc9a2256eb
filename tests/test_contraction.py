"""The contraction's product loop and label walk against independent oracles.

`ref_rad_outer` plus `RefSum.add` (tests/radref.py) is how every site product
was once added: the product polynomial was built by `outer` and merged as a
RadPoly under tuple keys, one part at a time. The library merges site
products under integer codes of the keys, which widen as sites see new
exponent blocks, and must give the same terms in the same order, the same
parts and representative scales, and the same float bits. The label walk
descends one key trie per site; it must yield exactly the assignments a
brute-force enumeration of every assignment keeps, and `old_label_assignments`,
which re-filtered every compatible key for every child, pins its work count.

An exact contraction whose locals are each one part of scale one adds each
distinct tuple of local values once, times its count; `grouped_sum` writes
that apart and must match it exactly. Against the old loop it gives the same
values and report bytes, and the same terms in the same order and with the
same types, except for terms that a partial sum of either loop cancels to
zero part way through. Float, radical and scaled locals still run the old
loop, bit for bit. The tests draw locals from small pools, with negations
where partial sums should cancel, so that tuples repeat.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from omegadec.blockpoly import FLOAT, RATIONAL, BlockPolynomial
from omegadec.complexes import standard_complex
from omegadec.decomposition import (
    contract_assignments,
    elementary_sum,
    label_assignments,
    symmetrize_free,
)
from omegadec.errors import SearchSpaceTooLarge
from omegadec.fixtures import circle_rotation_action
from omegadec.radpoly import RadPoly, RadSum, rad_outer
from omegadec.scalars import ONE, ScaledScalar
from radref import RefSum, ref_rad_outer, structure


def old_label_assignments(positions, label_count, site_keys, max_work=10**7):
    compat = [tuple(keys) for keys in site_keys]
    if not all(compat):
        return
    touch = [[] for _ in range(label_count)]
    for i, site_positions in enumerate(positions):
        for slot, pos in enumerate(site_positions):
            touch[pos].append((i, slot))
    work = 0
    stack = [(0, compat)]
    while stack:
        pos, compat = stack.pop()
        if pos == label_count:
            yield tuple(keys[0] for keys in compat)
            continue
        allowed = None
        for i, slot in touch[pos]:
            vals = {k[slot] for k in compat[i]}
            allowed = vals if allowed is None else allowed & vals
        children = []
        for v in sorted(allowed):       # every label position is read by some site
            work += 1
            if work > max_work:
                raise SearchSpaceTooLarge(f"contraction exceeded {max_work} steps")
            nxt = list(compat)
            for i, slot in touch[pos]:
                nxt[i] = tuple(k for k in nxt[i] if k[slot] == v)
            children.append((pos + 1, nxt))
        stack += reversed(children)


def old_walk(c, site_locals):
    """The locals of each assignment, in the order of the old walk."""
    locs = [site_locals.get(i, {}) for i in range(c.vertex_count)]
    positions = [c.label_positions_at(i) for i in range(c.vertex_count)]
    for keys in old_label_assignments(positions, c.label_count, [loc.keys() for loc in locs]):
        yield [loc[key] for loc, key in zip(locs, keys)]


def old_sum(c, site_locals, site_vars):
    mode = FLOAT if any(p.mode == FLOAT
                        for locs in site_locals.values() for p in locs.values()) else RATIONAL
    acc = RefSum(tuple(site_vars), mode)
    for factors in old_walk(c, site_locals):
        acc.add(ref_rad_outer(factors))
    return acc


def old_contract(c, site_locals, site_vars):
    return old_sum(c, site_locals, site_vars).result()


def grouped_sum(c, site_locals, site_vars):
    """The grouped contraction written apart, for exact one-part locals of
    scale one: the product of each distinct tuple of local values (terms in
    order, with their types), in order of first occurrence, times its count."""
    counts = {}
    for factors in old_walk(c, site_locals):
        value = tuple(tuple((k, type(x), x) for k, x in f.parts[0][1].terms.items())
                      for f in factors)
        counts.setdefault(value, [factors, 0])[1] += 1
    acc = RefSum(tuple(site_vars))
    for factors, count in counts.values():
        acc.add(ref_rad_outer(factors).scaled(count))
    return acc


def old_elementary_sum(terms):
    acc = RefSum(tuple(RadPoly.coerce(f).sites[0] for f in terms[0]))
    for term in terms:
        acc.add(ref_rad_outer(term))
    return acc.result()


# sqrt2 and sqrt8 are commensurable, sqrt3 and the fourth root of 2 are not
SCALES = [ONE, ScaledScalar(2, 2), ScaledScalar(8, 2), ScaledScalar(3, 2), ScaledScalar(2, 4)]
VALUES = {
    "int": [-2, -1, 1, 1, 2, 3],
    "fraction": [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), 1, -1],
    # 1e-200 on two sites underflows to 0.0; +-1.0 and 0.1 cancel in some orders only
    "float": [1.0, -1.0, 0.1, -0.1, 0.5, 3.0, 1e-200, -1e-200],
}


def random_local(rng, width, kind, exps=2):
    keys = list(product(range(exps), repeat=width))

    def poly(values, mode=RATIONAL):
        chosen = rng.sample(keys, rng.randint(1, min(3, len(keys))))
        return BlockPolynomial((width,), {(k,): rng.choice(values) for k in chosen}, mode)

    if kind == "float":
        return RadPoly.from_poly(poly(VALUES["float"], FLOAT))
    if kind in ("int", "fraction"):
        return RadPoly.from_poly(poly(VALUES[kind]))
    if kind == "scaled":
        return RadPoly.scaled_poly(rng.choice(SCALES[1:]), poly(VALUES["int"]))
    # "radical": two or three parts, at least two of them incommensurable
    parts = [(s, poly(VALUES["fraction"])) for s in rng.sample(SCALES, rng.randint(2, 3))]
    return RadPoly((width,), parts)


MIXES = [("int",), ("int", "fraction"), ("float",), ("float", "int"),
         ("float", "fraction", "scaled"), ("radical", "int"), ("radical", "scaled", "fraction"),
         ("radical", "float"), ("scaled",)]
COMPLEXES = [("simplex", 0), ("simplex", 2), ("line", 1), ("line", 3), ("circle", 3),
             ("circle", 4), ("double_edge", 1), ("single_edge", 1)]


@pytest.mark.parametrize("seed", range(45))
def test_contraction_matches_the_old_product_loop(seed):
    rng = random.Random(seed)
    c = standard_complex(*rng.choice(COMPLEXES))
    mix = MIXES[seed % len(MIXES)]
    index_size = rng.randint(1, 3)
    site_vars = [rng.randint(1, 2) for _ in range(c.vertex_count)]
    locals_ = {}
    for i in range(c.vertex_count):
        grid = product(range(1, index_size + 1), repeat=len(c.label_positions_at(i)))
        locals_[i] = {beta: random_local(rng, site_vars[i], rng.choice(mix))
                      for beta in grid if rng.random() < 0.7}
    got = contract_assignments(c, locals_, site_vars)
    assert structure(got) == structure(old_contract(c, locals_, site_vars))


@pytest.mark.parametrize("seed", range(45))
def test_elementary_sum_and_rad_outer_match_the_old_product_loop(seed):
    rng = random.Random(1000 + seed)
    # half the exact mixes gain float factors, so the sum turns float part way
    mix = MIXES[seed % len(MIXES)] + (("float",) if seed % 2 else ("int",))
    widths = [rng.randint(1, 2) for _ in range(rng.randint(1, 4))]
    terms = [[random_local(rng, w, rng.choice(mix)) for w in widths]
             for _ in range(rng.randint(1, 6))]
    if seed % 5 == 0:       # a zero float factor still turns the sum to float mode
        terms.insert(rng.randint(0, len(terms)), [RadPoly.zero((w,), FLOAT) for w in widths])
    assert structure(elementary_sum(terms)) == structure(old_elementary_sum(terms))
    for term in terms:
        assert structure(rad_outer(term)) == structure(ref_rad_outer(term))


@pytest.mark.parametrize("seed", range(18))
def test_a_counted_product_is_the_product_added_count_times(seed):
    rng = random.Random(5000 + seed)
    mix = MIXES[seed % len(MIXES)]
    widths = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    factors = [random_local(rng, w, rng.choice(mix)) for w in widths]
    count = rng.randint(2, 5)
    acc, ref = RadSum(tuple(widths)), RefSum(tuple(widths))
    acc.add_outer(factors, count)
    for _ in range(count):
        ref.add(ref_rad_outer(factors))
    got, want = acc.result(), ref.result()
    assert got.mode == want.mode
    if got.mode == RATIONAL:
        assert got == want
    else:
        assert got.allclose(want, 1e-12)


def test_float_products_that_underflow_or_cancel_are_dropped():
    tiny = RadPoly.from_poly(BlockPolynomial((1,), {((0,),): 1e-200, ((1,),): 1.0}, FLOAT))
    one = RadPoly.from_poly(BlockPolynomial((1,), {((0,),): 1.0}, FLOAT))
    minus = RadPoly.from_poly(BlockPolynomial((1,), {((1,),): -1.0}, FLOAT))
    terms = [[tiny, tiny], [one, minus], [minus, one]]
    got = elementary_sum(terms)
    assert structure(got) == structure(old_elementary_sum(terms))
    # 1e-200 * 1e-200 is 0.0 and is dropped; 1e-200 - 1.0 rounds to -1.0
    assert list(got.parts[0][1].terms.items()) == [
        (((0,), (1,)), -1.0), (((1,), (0,)), -1.0), (((1,), (1,)), 1.0)]
    exact = RadPoly.from_poly(BlockPolynomial((1,), {((1,),): 1}))
    cancel = [[exact, one], [-exact, one]]
    assert elementary_sum(cancel).is_zero() and old_elementary_sum(cancel).is_zero()


def wide_poly(rng, sites, grow, top, values):
    """A polynomial on all sites whose exponents at site grow run up to top - 1."""
    def key():
        return tuple(tuple(rng.randrange(top if i == grow else 2) for _ in range(w))
                     for i, w in enumerate(sites))
    mode = FLOAT if isinstance(values[0], float) else RATIONAL
    return BlockPolynomial(sites, {key(): rng.choice(values) for _ in range(3)}, mode)


@pytest.mark.parametrize("seed", range(30))
def test_coded_keys_widen_when_a_site_sees_new_blocks(seed):
    """The first product holds exponents 0 and 1; then products, whole RadPolys
    and single parts whose exponents at one site reach 12 arrive in turn, past
    the width the codes first took, and some products cancel earlier ones."""
    rng = random.Random(3000 + seed)
    mix = [("int", "fraction"), ("float", "int"), ("radical", "scaled", "int")][seed % 3]
    sites = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 4)))
    grow = rng.randrange(len(sites))
    acc, ref = RadSum(sites), RefSum(sites)

    def factors(top):
        return [random_local(rng, w, rng.choice(mix), top if i == grow else 2)
                for i, w in enumerate(sites)]

    done = [[random_local(rng, w, "int") for w in sites]]     # codes the first part
    acc.add_outer(done[0])
    ref.add(ref_rad_outer(done[0]))
    first_width = acc.width
    for top in range(3, 14):
        step = rng.choice(["outer", "outer", "cancel", "add", "add_part"])
        values = VALUES["float" if "float" in mix and rng.random() < 0.5 else "fraction"]
        if step == "add":
            x = RadPoly.scaled_poly(rng.choice(SCALES), wide_poly(rng, sites, grow, top, values))
            acc.add(x)
            ref.add(x)
        elif step == "add_part":
            s, p = rng.choice(SCALES), wide_poly(rng, sites, grow, top, values)
            acc.add_part(s, p)
            ref.add_part(s, p)
            acc.drop_zeros()
            ref.drop_zeros()
        else:
            f = factors(top) if step == "outer" else rng.choice(done)
            if step == "cancel":
                f = [-f[0]] + f[1:]
            done.append(f)
            acc.add_outer(f)
            ref.add(ref_rad_outer(f))
        assert structure(acc.result()) == structure(ref.result()), (seed, top, step)
    # five blocks no earlier addend held outgrow the width if the loop left it
    fresh = {((20 + j,) + (0,) * (sites[grow] - 1),): j + 1 for j in range(5)}
    f = [RadPoly.from_poly(BlockPolynomial((w,), fresh)) if i == grow
         else random_local(rng, w, "int") for i, w in enumerate(sites)]
    acc.add_outer(f)
    ref.add(ref_rad_outer(f))
    assert structure(acc.result()) == structure(ref.result())
    assert acc.width > first_width


def positive(p):
    return RadPoly._trusted(p.sites, tuple(
        (s, BlockPolynomial._trusted(q.sites, {k: abs(x) for k, x in q.terms.items()}, q.mode))
        for s, q in p.parts), p.mode)


def pooled_locals(rng, c, index_size, site_vars, mix, negations):
    """Locals drawn from a pool of few values per width, so that whole tuples of
    locals repeat across assignments. A pool holds a local of the first kind
    of mix, one of any kind, a copy of the first as another object and, for a
    one-part local of scale one, the first with its terms in reverse order
    and, if exact, the first with every coefficient a Fraction.
    With negations the pool adds the negation of each, so that partial sums
    cancel; without, every coefficient is positive, so that none does. The
    first local stored at site 0 is its pool's first, so that every
    contraction holds a local of the first kind."""
    pools = {}
    for w in sorted(set(site_vars)):
        first, second = random_local(rng, w, mix[0]), random_local(rng, w, rng.choice(mix))
        if not negations:
            first, second = positive(first), positive(second)
        pool = [first, second, RadPoly(first.sites, first.parts)]
        if len(first.parts) == 1 and first.parts[0][0] == ONE:
            q = first.parts[0][1]
            pool.append(RadPoly.from_poly(BlockPolynomial._trusted(
                q.sites, dict(reversed(q.terms.items())), q.mode)))
            if q.mode == RATIONAL:      # integral Fractions, equal to the ints of first
                pool.append(RadPoly.from_poly(BlockPolynomial._trusted(
                    q.sites, {k: Fraction(x) for k, x in q.terms.items()}, q.mode)))
        pools[w] = pool + [-p for p in pool] if negations else pool
    locals_ = {i: {beta: rng.choice(pools[site_vars[i]])
                   for beta in product(range(1, index_size + 1),
                                       repeat=len(c.label_positions_at(i)))
                   if rng.random() < 0.8}
               for i in range(c.vertex_count)}
    for beta in list(locals_[0])[:1]:
        locals_[0][beta] = pools[site_vars[0]][0]
    return locals_


def kept_terms(p, cancelled):
    """The terms, in order and with their types, of the keys never cancelled."""
    return [[(k, type(x), x) for k, x in q.terms.items() if k not in cancelled]
            for _, q in p.parts]


# exact one-part locals of scale one are grouped; the others run the product loop
GROUPED_POOLS = [("int",), ("fraction",), ("int", "fraction")]
UNGROUPED_POOLS = [("radical", "int"), ("scaled", "fraction"), ("float",), ("float", "int"),
                   ("radical", "scaled", "float")]


def check_grouped(c, locals_, site_vars):
    """Check an exact contraction against `grouped_sum` and the product loop;
    True if some term moved or changed type after a cancellation."""
    got = contract_assignments(c, locals_, site_vars)
    old = old_sum(c, locals_, site_vars)
    want = old.result()
    grouped = grouped_sum(c, locals_, site_vars)
    assert structure(got) == structure(grouped.result())
    assert got.to_obj() == want.to_obj()
    assert [dict(q.terms) for _, q in got.parts] == [dict(q.terms) for _, q in want.parts]
    cancelled = old.cancelled | grouped.cancelled
    assert kept_terms(got, cancelled) == kept_terms(want, cancelled)
    return kept_terms(got, ()) != kept_terms(want, ())


@pytest.mark.parametrize("complex_", COMPLEXES, ids=[f"{k}{n}" for k, n in COMPLEXES])
def test_grouped_contraction_matches_the_old_product_loop(complex_):
    """Radical, scaled and float pools run the product loop, bit for bit. Exact
    pools are grouped as `grouped_sum` writes it apart; against the product
    loop they give the same values and report bytes. A term that some partial
    sum of either loop cancels may come back at another place, and an
    integral one as an int where the loop held a Fraction or the reverse
    (the two compare, hash and print alike); every other term keeps its
    place and its type. With no negations nothing cancels, and the results
    are the same throughout."""
    c = standard_complex(*complex_)
    for seed in range(16):
        rng = random.Random(f"{complex_}-{seed}")
        pools = (GROUPED_POOLS + UNGROUPED_POOLS)[seed % 8]
        negations = seed // 8 == 1
        index_size = rng.randint(1, 3)
        site_vars = [rng.randint(1, 2) for _ in range(c.vertex_count)]
        locals_ = pooled_locals(rng, c, index_size, site_vars, pools, negations)
        got = contract_assignments(c, locals_, site_vars)
        if pools in UNGROUPED_POOLS or not negations:
            assert structure(got) == structure(old_contract(c, locals_, site_vars))
        if pools in GROUPED_POOLS:
            check_grouped(c, locals_, site_vars)


def test_grouped_terms_move_only_where_a_partial_sum_cancels():
    """Negation pools on every complex, checked as in `check_grouped`; some of
    them do move or retype a term, so the check meets that case."""
    moved = 0
    for seed in range(240):
        c = standard_complex(*COMPLEXES[seed % len(COMPLEXES)])
        rng = random.Random(f"cancel-{seed}")
        index_size = rng.randint(1, 3)
        site_vars = [rng.randint(1, 2) for _ in range(c.vertex_count)]
        locals_ = pooled_locals(rng, c, index_size, site_vars, GROUPED_POOLS[seed % 3], True)
        moved += check_grouped(c, locals_, site_vars)
    assert moved     # the cases reach the one allowed difference


def test_a_closed_orbit_adds_one_product_per_term(monkeypatch):
    """On the circle of five, the free extension of the rotation orbit T of one
    term stores |G| translated copies of each term: the walk yields |G|*|T|
    assignments, and the contraction merges |T| products."""
    a = circle_rotation_action(5)
    c = a.complex
    x = [RadPoly.from_poly(BlockPolynomial((1,), {((e,),): e + 1})) for e in range(5)]
    orbit = [tuple(x[(i + g) % 5] for i in range(5)) for g in range(5)]
    dec = symmetrize_free(orbit, a)
    locs = [dec.locals[i] for i in range(5)]
    walk = label_assignments([c.label_positions_at(i) for i in range(5)], c.label_count,
                             [loc.keys() for loc in locs])
    assert len(list(walk)) == 25
    calls = []
    merge = RadSum._add_product

    def counted(self, *args):
        calls.append(args)
        return merge(self, *args)

    monkeypatch.setattr(RadSum, "_add_product", counted)
    got = dec.contract()
    assert len(calls) == 5
    monkeypatch.undo()
    assert got == elementary_sum(orbit)


def test_grouped_contraction_trips_the_work_guard_where_the_old_walk_does():
    rng = random.Random(11)
    c = standard_complex("circle", 4)
    site_vars = [1, 2, 1, 2]
    locals_ = pooled_locals(rng, c, 3, site_vars, ("int", "fraction"), True)
    locs = [locals_[i] for i in range(c.vertex_count)]
    args = ([c.label_positions_at(i) for i in range(c.vertex_count)], c.label_count,
            [loc.keys() for loc in locs])
    steps = 0       # the fewest steps the old walk needs to finish
    while run_walk(old_label_assignments, *args, steps)[1]:
        steps += 1
    assert steps > 10
    with pytest.raises(SearchSpaceTooLarge, match=f"^contraction exceeded {steps - 1} steps$"):
        contract_assignments(c, locals_, site_vars, steps - 1)
    got = contract_assignments(c, locals_, site_vars, steps)
    assert got.to_obj() == old_contract(c, locals_, site_vars).to_obj()


def run_walk(walk, positions, label_count, site_keys, max_work):
    """The keys yielded before the walk ends, and whether its work guard fired."""
    out = []
    try:
        for keys in walk(positions, label_count, site_keys, max_work):
            out.append(keys)
    except SearchSpaceTooLarge:
        return out, True
    return out, False


def walk_case(seed):
    """A seeded complex's index size, its label positions and count, and stored keys."""
    rng = random.Random(2000 + seed)
    c = standard_complex(*rng.choice(COMPLEXES + [("circle", 5)]))
    index_size = rng.randint(1, 3)
    positions = [c.label_positions_at(i) for i in range(c.vertex_count)]
    site_keys = []
    for pos in positions:
        grid = list(product(range(1, index_size + 1), repeat=len(pos)))
        site_keys.append(rng.sample(grid, rng.randint(len(grid) // 2, len(grid))))
    return index_size, positions, c.label_count, site_keys


@pytest.mark.parametrize("seed", range(40))
def test_walk_yields_every_assignment_each_site_stores(seed):
    index_size, positions, label_count, site_keys = walk_case(seed)
    stored = [set(keys) for keys in site_keys]
    want = []
    for alpha in product(range(1, index_size + 1), repeat=label_count):
        keys = tuple(tuple(alpha[p] for p in pos) for pos in positions)
        if all(k in held for k, held in zip(keys, stored)):
            want.append(keys)
    assert list(label_assignments(positions, label_count, site_keys)) == want
    # a site may read its positions in any order, its keys in that order
    flipped = [[k[::-1] for k in keys] for keys in site_keys]
    got = label_assignments([pos[::-1] for pos in positions], label_count, flipped)
    assert list(got) == [tuple(k[::-1] for k in keys) for keys in want]


@pytest.mark.parametrize("seed", range(40))
def test_bucketed_walk_matches_the_filtering_walk(seed):
    _, *args = walk_case(seed)
    steps = 0       # the fewest steps the old walk needs to finish
    while run_walk(old_label_assignments, *args, steps)[1]:
        steps += 1
    for max_work in {max(steps - 1, 0), steps, steps // 2}:
        assert run_walk(label_assignments, *args, max_work) == \
            run_walk(old_label_assignments, *args, max_work)
    assert not run_walk(label_assignments, *args, steps)[1]
    if steps:
        assert run_walk(label_assignments, *args, steps - 1)[1]
