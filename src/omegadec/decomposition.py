"""Invariant decompositions of block polynomials and their rank witnesses.

A decomposition assigns to every site a sparse family of local polynomials
indexed by assignments of summation indices to the multifacet labels touching
that site; absent assignments mean the zero polynomial. Contraction sums the
per-site products over all global assignments. The decomposition also carries
a positive per-site scale factor, so group-order roots arising in the
symmetrization constructions stay exact.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .blockpoly import FLOAT, RATIONAL, BlockPolynomial
from .complexes import WeightedComplex, require_connected
from .errors import (
    DEFAULT_MAX_WORK,
    MAX_DIGITS,
    ActionNotBlending,
    ActionNotFree,
    IncompatibleBlockSizes,
    NotBipartite,
    NotInvariant,
    SearchSpaceTooLarge,
    SizeTooLarge,
    _integer,
    _object,
    _tolerance,
    power_within,
)
from .invariance import is_invariant
from .radpoly import RadPoly, RadSum
from .scalars import ONE, ScaledScalar
from .symmetry import SymmetryAction, is_blending, is_free, linearizer, trivial_action

Beta = tuple[int, ...]
SiteLocals = dict[int, dict[Beta, RadPoly]]


def label_assignments(positions: Sequence[Sequence[int]], label_count: int,
                      index_size: int, site_keys: Sequence[Iterable[Beta]],
                      max_work: int = DEFAULT_MAX_WORK) -> Iterator[tuple[Beta, ...]]:
    """Yield the per-site keys of each global label assignment, in lexicographic order.

    Site i reads the distinct label positions ``positions[i]`` and stores the
    keys ``site_keys[i]``, tuples of values in 1..index_size. An assignment is
    yielded when every site stores the key it induces. Each site's keys go
    into a trie once, a level per position in ascending order and a key per
    leaf. The walk fixes positions in that order with a trie node per site, so
    sparsity prunes the search: a position tries the sorted common children of
    the sites reading it, each child descending their tries. Every tried label
    value counts one step against ``max_work``.
    """
    tries = []
    touch: list[list[int]] = [[] for _ in range(label_count)]
    for i, (site_positions, keys) in enumerate(zip(positions, site_keys)):
        slots = sorted(range(len(site_positions)), key=site_positions.__getitem__)
        holder: dict = {}       # its one child, under 0, is the root
        for k in keys:
            node, v = holder, 0
            for slot in slots:
                node, v = node.setdefault(v, {}), k[slot]
            node[v] = k
        if not holder:
            return
        tries.append(holder[0])
        for pos in site_positions:
            touch[pos].append(i)
    work = 0
    # partial assignments: the next position to fix, each site's trie node
    stack = [(0, tries)]
    while stack:
        pos, nodes = stack.pop()
        if pos == label_count:
            yield tuple(nodes)
            continue
        sites = touch[pos]
        if sites:
            allowed = nodes[sites[0]].keys()
            for i in sites[1:]:
                allowed = allowed & nodes[i].keys()
        children = []
        for v in sorted(allowed) if sites else range(1, index_size + 1):
            work += 1
            if work > max_work:
                raise SearchSpaceTooLarge(f"contraction exceeded {max_work} steps")
            nxt = list(nodes)
            for i in sites:
                nxt[i] = nodes[i][v]
            children.append((pos + 1, nxt))
        stack += reversed(children)


def checked_assignment(complex_: WeightedComplex, site: int, beta: Sequence[int],
                       index_size: int) -> Beta:
    """The assignment as an int tuple, checked to fit the labels of the site."""
    beta = tuple(_integer(b, "assignment value") for b in beta)
    if len(beta) != len(complex_.label_positions_at(site)):
        raise ValueError(f"assignment {beta} has wrong arity for site {site}")
    if any(not 1 <= b <= index_size for b in beta):
        raise ValueError(f"assignment {beta} outside 1..{index_size}")
    return beta


def checked_action(complex_: WeightedComplex,
                   action: SymmetryAction | None) -> SymmetryAction:
    """The action, checked to act on the complex; None is the trivial group."""
    if action is None:
        return trivial_action(complex_)
    if action.complex is not complex_ and action.complex != complex_:
        raise ValueError("action acts on a different complex")
    return action


def checked_sizes(complex_: WeightedComplex, index_size: int,
                  site_vars: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The index size and one variable count per vertex of the complex, as ints >= 0."""
    index_size = _integer(index_size, "index_size")
    site_vars = tuple(_integer(m, "site_vars entry") for m in site_vars)
    if len(site_vars) != complex_.vertex_count:
        raise ValueError("site_vars must list one variable count per vertex")
    if min(index_size, *site_vars) < 0:
        raise ValueError(f"index_size {index_size} and site_vars {list(site_vars)} must be >= 0")
    return index_size, site_vars


def checked_scale(scale) -> ScaledScalar:
    """The per-site scale, which must be a ScaledScalar; anything else, an int
    or a Fraction included, is a TypeError that names it."""
    if not isinstance(scale, ScaledScalar):
        raise TypeError(f"scale must be a ScaledScalar, not {type(scale).__name__} {scale!r}")
    return scale


def checked_local(complex_: WeightedComplex, index_size: int, site_vars: Sequence[int],
                  site: int, beta: Sequence[int], poly) -> tuple[int, Beta, RadPoly | None]:
    """The checked site and assignment of a local, and the local; None if it is zero."""
    site = _integer(site, "site")
    beta = checked_assignment(complex_, site, beta, index_size)
    rp = RadPoly.coerce(poly)
    if rp.sites != (site_vars[site],):
        raise IncompatibleBlockSizes(
            f"local at site {site} has sites {rp.sites}, expected ({site_vars[site]},)")
    return site, beta, None if rp.is_zero() else rp


def _contraction_mode(site_locals: Mapping[int, Mapping[Beta, RadPoly]]) -> tuple[str, bool]:
    """The mode of a contraction, and whether it groups its products, which it
    does when every local is exact and one part of scale one. One pass over
    the locals decides both; it stops at the first float local."""
    grouped = True
    for loc in site_locals.values():
        for p in loc.values():
            if p.mode == FLOAT:
                return FLOAT, False
            if grouped and not (len(p.parts) == 1 and ((s := p.parts[0][0]) is ONE or s == ONE)):
                grouped = False
    return RATIONAL, grouped


def contract_assignments(complex_: WeightedComplex, index_size: int,
                         site_locals: Mapping[int, Mapping[Beta, RadPoly]],
                         site_vars: Sequence[int],
                         max_work: int = DEFAULT_MAX_WORK) -> RadPoly:
    """Sum the per-site local products over all index assignments.

    The product of each assignment is added in walk order, except in an
    exact contraction whose locals are each one part of scale one. There,
    each distinct local value (its terms in order, with their types) gets a
    code, the walk counts each tuple of per-site codes, and each distinct
    product is added once, in order of first occurrence, times its count.
    The values and the terms are those of adding every product, but a term
    that a partial sum cancels part way through the walk may come back at
    another place, and an integral coefficient as an int where adding every
    product held a Fraction, or the reverse. A float product is not
    grouped, since count times it need not be bit-equal to adding it count
    times; nor is a local with several parts or a scale other than one,
    since a part cancelled part way through comes back at the end of the
    parts, with the scale of the product that brings it back.
    """
    V = complex_.vertex_count
    mode, grouped = _contraction_mode(site_locals)
    acc = RadSum(tuple(site_vars), mode)
    locs = [site_locals.get(i, {}) for i in range(V)]
    positions = [complex_.label_positions_at(i) for i in range(V)]
    walk = label_assignments(positions, complex_.label_count, index_size,
                             [loc.keys() for loc in locs], max_work)
    if not grouped:
        for keys in walk:
            acc.add_outer([loc[key] for loc, key in zip(locs, keys)])
        return acc.result()
    values: list[RadPoly] = []      # the local of each code
    code_of: dict = {}              # a local's value -> its code
    seen: dict[int, int] = {}       # id of a local -> its code
    site_codes = []
    for loc in locs:
        codes = {}
        for beta, p in loc.items():
            if id(p) not in seen:
                value = tuple((k, type(c), c) for k, c in p.parts[0][1].terms.items())
                if value not in code_of:
                    code_of[value] = len(values)
                    values.append(p)
                seen[id(p)] = code_of[value]
            codes[beta] = seen[id(p)]
        site_codes.append(codes)
    counts: dict[tuple[int, ...], int] = {}
    for keys in walk:
        t = tuple([codes[key] for codes, key in zip(site_codes, keys)])
        counts[t] = counts.get(t, 0) + 1
    for t, count in counts.items():
        acc.add_outer([values[c] for c in t], count)
    return acc.result()


def locals_agree(a: SymmetryAction, site_vars: Sequence[int],
                 stored: Mapping[tuple, RadPoly], tol: float) -> bool:
    """True iff locals keyed (site, ..., assignment) agree along every group orbit.

    g moves the site and the assignment and keeps what lies between; a missing
    key is the zero local of width ``site_vars[g*i]``. Each orbit is visited
    once, from its first stored key: exact locals are compared with that
    first one, which equality makes transitive, and float locals pairwise,
    each pair of a stored local and an orbit member once, itself included.
    Exactness is decided for the whole decomposition, not per pair.
    """
    _tolerance(tol)
    if len(a) == 1:
        return True
    mode = RATIONAL if all(p.mode == RATIONAL for p in stored.values()) else FLOAT
    for orbit in a.orbits(stored):
        first = stored[orbit[0]]
        members: list[tuple[bool, RadPoly]] = []     # (whether stored, local)
        for key in orbit:
            p = stored.get(key)
            members.append((True, p) if p is not None
                           else (False, RadPoly.zero((site_vars[key[0]],), mode)))
        if mode == RATIONAL:
            if not all(first == p for _, p in members):
                return False
        elif not all(p.allclose(q, tol) for n, (held, p) in enumerate(members)
                     for held_q, q in members[n:] if held or held_q):
            return False
    return True


def free_extension(a: SymmetryAction, count: int
                   ) -> Iterator[tuple[int, int, list[Beta]]]:
    """(site i, site g*i, assignment of term j for j < count) for every i and g.

    Label l of site i gets j*|G| + h + 1 with h = g*z(l), z the linearizer,
    so exactly the |G| translated copies of each term survive contraction.
    Term j's assignment is term 0's shifted by j*|G|.
    """
    z = linearizer(a)
    order = len(a)
    c = a.complex
    for i in range(c.vertex_count):
        positions = c.label_positions_at(i)
        for g in range(order):
            mperm = a.mperm(g)
            first = [z[mperm[pos]] + 1 for pos in positions]    # g*z(l) = z(g*l)
            yield i, a.vertex_image(g, i), [tuple([h + shift for h in first])
                                            for shift in range(0, count * order, order)]


class OmegaGDecomposition:
    """Per-site local polynomial families plus a per-site positive scale.

    ``contract`` returns scale**V times the assignment sum, V being the number
    of sites, i.e. the scale is the factor implicitly multiplying every local.
    """

    def __init__(self, complex_: WeightedComplex, action: SymmetryAction | None,
                 index_size: int, site_vars: Sequence[int],
                 locals_: Mapping[int, Mapping[Beta, object]],
                 scale: ScaledScalar = ONE, *, _trusted: bool = False):
        """Check the scale, the action, the sizes and every local, and keep the nonzero locals.

        ``_trusted`` is for the library's own builders: their scale, action,
        int sizes, int sites and assignments and single-site RadPoly locals of
        the right widths are taken as given, and only zero locals are dropped.
        """
        self.complex = complex_
        if _trusted:
            self.scale = scale
            self.action, self.index_size, self.site_vars = action, index_size, site_vars
            self.locals = {site: kept for site, mapping in locals_.items()
                           if (kept := {b: p for b, p in mapping.items() if not p.is_zero()})}
            return
        self.scale = checked_scale(scale)
        self.action = checked_action(complex_, action)
        self.index_size, self.site_vars = checked_sizes(complex_, index_size, site_vars)
        store: SiteLocals = {}
        for site, mapping in locals_.items():
            for beta, poly in mapping.items():
                site, beta, rp = checked_local(complex_, self.index_size, self.site_vars,
                                               site, beta, poly)
                if rp is not None:
                    store.setdefault(site, {})[beta] = rp
        self.locals = store

    def local_count(self) -> int:
        return sum(len(v) for v in self.locals.values())

    def contract(self, max_work: int = DEFAULT_MAX_WORK) -> RadPoly:
        raw = contract_assignments(self.complex, self.index_size, self.locals,
                                   self.site_vars, max_work)
        return raw.scale_mul(self.scale ** self.complex.vertex_count)

    def check_symmetry(self, tol: float = 1e-9) -> bool:
        """Verify locals agree along every group orbit of (site, assignment)."""
        stored = {(site, beta): poly for site, mapping in self.locals.items()
                  for beta, poly in mapping.items()}
        return locals_agree(self.action, self.site_vars, stored, tol)

    # serialization

    def to_obj(self) -> dict:
        entries = []
        for site in sorted(self.locals):
            for beta in sorted(self.locals[site]):
                entries.extend({"site": site, "beta": list(beta), **part}
                               for part in self.locals[site][beta].to_obj())
        return {
            "index_size": self.index_size,
            "scale": self.scale.to_obj(),
            "site_vars": list(self.site_vars),
            "locals": entries,
        }

    @classmethod
    def from_obj(cls, complex_: WeightedComplex, action: SymmetryAction | None,
                 obj: dict) -> "OmegaGDecomposition":
        action = checked_action(complex_, action)
        obj = _object(obj, "decomposition")
        index_size, site_vars = checked_sizes(complex_, obj["index_size"], obj["site_vars"])
        sums: dict[int, dict[Beta, RadSum]] = {}
        for entry in (_object(entry, "local") for entry in obj.get("locals", [])):
            poly = BlockPolynomial.from_obj(entry["poly"])
            s = ScaledScalar.from_obj(entry["scale"]) if "scale" in entry else ONE
            rp = RadPoly.scaled_poly(s, poly)
            # checked before it joins its (site, beta) sum, since 1, 1.0 and true hash alike
            site, beta, _ = checked_local(complex_, index_size, site_vars,
                                          entry["site"], entry["beta"], rp)
            sums.setdefault(site, {}).setdefault(beta, RadSum(rp.sites)).add(rp)
        locals_ = {site: {beta: acc.result() for beta, acc in by_beta.items()}
                   for site, by_beta in sums.items()}
        scale = ScaledScalar.from_obj(obj.get("scale", {"r": "1/1", "k": 1}))
        return cls(complex_, action, index_size, site_vars, locals_, scale, _trusted=True)


def _read_terms(terms: Sequence[Sequence[object]], V: int,
                a: SymmetryAction | None = None) -> tuple[tuple[int, ...], list]:
    """Per-site widths of a non-empty list of elementary terms of V > 0 factors
    each, and the terms with each factor coerced once to a RadPoly: the one check
    of a term list. Site by site, each factor must lie on one site and the widths
    agree; given an action, the widths also agree along its vertex orbits."""
    if not terms:
        raise ValueError("need at least one elementary term")
    for term in terms:
        if len(term) != V:
            raise ValueError(f"term has {len(term)} factors, expected {V}")
    if not V:
        raise ValueError("empty factor list")
    columns: list[list[RadPoly]] = []
    for i in range(V):
        columns.append([RadPoly.coerce(t[i]) for t in terms])
        if any(len(f.sites) != 1 for f in columns[i]):
            raise ValueError("site mismatch")
        widths = {f.sites[0] for f in columns[i]}
        if len(widths) != 1:
            raise IncompatibleBlockSizes(f"terms disagree on site {i} width: {widths}")
    site_vars = tuple(column[0].sites[0] for column in columns)
    for g in range(len(a) if a is not None else 0):
        for i, width in enumerate(site_vars):
            gi = a.vertex_image(g, i)
            if site_vars[gi] != width:
                raise IncompatibleBlockSizes(
                    f"sites {i} and {gi} share an orbit but differ in width")
    return site_vars, list(zip(*columns))


def elementary_sum(terms: Sequence[Sequence[object]]) -> RadPoly:
    """The polynomial of an elementary decomposition: sum of site products."""
    return _product_sum(*_read_terms(terms, len(terms[0]) if terms else 0))


def _product_sum(site_vars: tuple[int, ...], factors: list) -> RadPoly:
    """The sum of the site products of read single-site terms."""
    acc = RadSum(site_vars)
    for term in factors:
        acc.add_outer(term)
    return acc.result()


def _closed(a: SymmetryAction, factors: list) -> bool:
    """True if the vertex permutation of every generator of a maps the multiset
    of terms, read with one factor per vertex, onto itself, putting the factor
    of site i at site g(i).

    Equal keys mean equal factors of equal width, so the sum of such terms is
    invariant under the group the generators generate, which `build_action`
    and `free_refinement` make the action's. Only exact terms are tested; a
    float term set is not closed here.
    """
    V = a.complex.vertex_count
    if any(f.mode != RATIONAL for term in factors for f in term):
        return False
    codes: dict = {}        # a factor's width and parts -> a small int
    keys = [tuple([codes.setdefault((f.sites, tuple((s, frozenset(p.terms.items()))
                                                    for s, p in f.parts)), len(codes))
                   for f in term]) for term in factors]
    counts = Counter(keys)
    for vperm, _ in a.generators:
        moved = [None] * V
        images: Counter = Counter()
        for key in keys:
            for i, k in enumerate(key):
                moved[vperm[i]] = k
            images[tuple(moved)] += 1
        if images != counts:
            return False
    return True


def _require_invariant(a: SymmetryAction, site_vars: tuple[int, ...], factors: list) -> None:
    """Raise unless the sum of the read terms is invariant: closed terms are,
    and any others are summed and tested."""
    if not _closed(a, factors) and not is_invariant(_product_sum(site_vars, factors), a, 1e-9):
        raise NotInvariant("elementary sum is not invariant under the action")


def _free_build(a: SymmetryAction, site_vars: tuple[int, ...],
                factors: list) -> OmegaGDecomposition:
    """Free symmetrization of read terms, whose widths agree along vertex
    orbits: the index pairs (term, group element) of the free extension leave
    exactly the |G| translated copies of the input in the contraction, and the
    per-site scale (1/|G|)**(1/V) turns their total into the average."""
    locals_: dict[int, dict[Beta, RadPoly]] = {}
    for i, gi, betas in free_extension(a, len(factors)):
        for term, beta in zip(factors, betas):
            locals_.setdefault(i, {})[beta] = term[gi]
    scale = ScaledScalar(Fraction(1, len(a)), a.complex.vertex_count)
    return OmegaGDecomposition(a.complex, a, len(factors) * len(a), site_vars, locals_, scale,
                               _trusted=True)


def from_elementary(terms: Sequence[Sequence[object]],
                    c: WeightedComplex) -> OmegaGDecomposition:
    """Reuse the factors of an elementary decomposition as local polynomials: the
    free symmetrization over the trivial group. The j-th term sits on the constant
    assignment j; connectivity makes every non-constant assignment hit a zero
    local, so contraction reproduces the elementary sum exactly."""
    require_connected(c, "elementary reuse")
    return _free_build(trivial_action(c), *_read_terms(terms, c.vertex_count))


def _require_free(a: SymmetryAction) -> None:
    require_connected(a.complex, "symmetrization")
    if not is_free(a):
        raise ActionNotFree("symmetrization requires a free action on the multifacets")


def symmetrize_average(terms: Sequence[Sequence[object]],
                       a: SymmetryAction) -> OmegaGDecomposition:
    """Invariant decomposition contracting to the group average of the input sum;
    requires a free action on a connected complex."""
    _require_free(a)
    return _free_build(a, *_read_terms(terms, a.complex.vertex_count, a))


def symmetrize_free(terms: Sequence[Sequence[object]],
                    a: SymmetryAction) -> OmegaGDecomposition:
    """Invariant decomposition of an invariant elementary sum, free action case: the
    input factors rearranged, with |G| times the input term count as index size."""
    _require_free(a)
    site_vars, factors = _read_terms(terms, a.complex.vertex_count, a)
    _require_invariant(a, site_vars, factors)
    return _free_build(a, site_vars, factors)


def symmetric_indicator_split(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Signed rank-one split of the permutation-indicator tensor on n+1 points.

    Returns 2**n pairs (sign, vector v) with v = (1, e_1, ..., e_n), signs the
    product of the e's, such that (1/2**n) * sum sign * v^{tensor (n+1)} has
    entry 1 exactly on tuples enumerating {0,...,n} and 0 elsewhere.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 8:
        raise SizeTooLarge("indicator split limited to n <= 8")
    out = []
    for eps in product((1, -1), repeat=n):
        sign = 1
        for e in eps:
            sign *= e
        out.append((sign, (1,) + eps))
    return out


def blending_difference(terms: Sequence[Sequence[object]], a: SymmetryAction
                        ) -> tuple[OmegaGDecomposition, OmegaGDecomposition]:
    """Write an invariant polynomial as a difference of invariant decompositions.

    Requires a blending vertex action on a connected complex. When the number
    of sites is odd the sign of each negative split vector is absorbed into
    the vector, so the subtracted part is empty.
    """
    c = a.complex
    require_connected(c, "difference construction")
    if not is_blending(a):
        raise ActionNotBlending("difference construction requires a blending vertex action")
    V = c.vertex_count
    if not terms:
        empty = OmegaGDecomposition(c, a, 0, (1,) * V, {}, _trusted=True)
        return empty, empty
    site_vars, factors = _read_terms(terms, V, a)
    _require_invariant(a, site_vars, factors)

    n = V - 1
    split = symmetric_indicator_split(n)
    if n % 2 == 0:
        split = [(1, tuple(sign * x for x in vec)) for sign, vec in split]
    plus = [vec for sign, vec in split if sign > 0]
    minus = [vec for sign, vec in split if sign < 0]

    order = len(a)
    # blending realizes |O|! vertex maps per orbit O, and |Stab(i)| = |G|/|O| on O
    total = 2**n * math.prod(math.factorial(len(o)) * (order // len(o)) ** len(o)
                             for o in a.vertex_orbits())
    scale = ScaledScalar(Fraction(1, total), V)
    # split vectors have entries +-1, so each local sums signed copies of the factors
    signed = {1: factors, -1: [[-f for f in term] for term in factors]}

    def build(vectors: list[tuple[int, ...]]) -> OmegaGDecomposition:
        if not vectors:
            return OmegaGDecomposition(c, a, 0, site_vars, {}, _trusted=True)
        r = len(terms)
        locals_: dict[int, dict[Beta, RadPoly]] = {}
        # the sum over g of the factor at g*i is |Stab(i)| = |G|/|O| times the
        # sum over the orbit O of i, so each orbit builds one local for all its sites
        for orbit in a.vertex_orbits():
            for li, vec in enumerate(vectors):
                for j in range(r):
                    acc = RadSum((site_vars[orbit[0]],))
                    for v in orbit:
                        acc.add(signed[vec[v]][j][v])
                    local = acc.result().scaled(order // len(orbit))
                    if local.is_zero():
                        continue
                    for i in orbit:
                        beta = (j * len(vectors) + li + 1,) * len(c.label_positions_at(i))
                        locals_.setdefault(i, {})[beta] = local
        return OmegaGDecomposition(c, a, r * len(vectors), site_vars, locals_, scale,
                                   _trusted=True)

    return build(plus), build(minus)


def _rank_exact(rows: list[list[int | Fraction]]) -> int:
    """Rank by fraction-free (Bareiss) elimination, each row cleared of its
    denominators first, which keeps the rank; every Bareiss division is exact."""
    rows = [[x.numerator * (d // x.denominator) for x in r]
            for r in rows for d in (math.lcm(*(x.denominator for x in r)),)]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(pv * x - a * y) // prev for x, y in zip(rows[i], rows[rank])]
        prev = pv
        rank += 1
        if rank == len(rows):
            break
    return rank


def bipartite_rank(p) -> int:
    """Rank of the two-site coefficient matrix (operator Schmidt rank)."""
    if isinstance(p, RadPoly):
        p = p.collapse()
    if len(p.sites) != 2:
        raise NotBipartite(f"polynomial has {len(p.sites)} sites")
    if p.is_zero():
        return 0
    rows_idx = sorted({key[0] for key in p.terms})
    cols_idx = sorted({key[1] for key in p.terms})
    col_of = {b: j for j, b in enumerate(cols_idx)}
    row_of = {b: i for i, b in enumerate(rows_idx)}
    if p.mode == RATIONAL:
        mat = [[0] * len(cols_idx) for _ in rows_idx]
        for (b0, b1), coeff in p.terms.items():
            mat[row_of[b0]][col_of[b1]] = coeff
        return _rank_exact(mat)
    import numpy as np      # only the float rank needs it; exact commands never load it
    mat = np.zeros((len(rows_idx), len(cols_idx)))
    for (b0, b1), coeff in p.terms.items():
        mat[row_of[b0], col_of[b1]] = coeff
    return int(np.linalg.matrix_rank(mat, tol=1e-9 * max(1.0, float(np.abs(mat).max()))))


def _comb_power(m: int, d: int, n: int, limit: int) -> int | None:
    """comb(m+d, d)**(n+1), or None once it passes limit.

    It is multiplied up a factor at a time, and every step at least doubles
    it, so huge m, d or n stop within log2(limit) + 1 steps.
    """
    side = 1
    for k in range(1, min(m, d) + 1):
        side = side * (max(m, d) + k) // k          # comb(max + k, k)
        if side > limit:
            return None
    return power_within(side, n + 1, limit)


def caratheodory_bound(m: int, d: int, n: int, group_order: int) -> int:
    """Conic-combination size bound: |G| times the local dimension count.

    A bound of more than MAX_DIGITS digits is a ValueError, decided before
    the bound is built.
    """
    if min(m, d, n, group_order) < 0 or group_order < 1:
        raise ValueError("inputs must be nonnegative with group order >= 1")
    limit = 10**MAX_DIGITS
    power = _comb_power(m, d, n, limit)
    if power is None or group_order * power >= limit:
        raise ValueError(f"bound has more than {MAX_DIGITS} digits, the most a report prints")
    return group_order * power


def _shared_action(d1: OmegaGDecomposition, d2: OmegaGDecomposition) -> SymmetryAction:
    """The action of both factors, or the trivial group when they differ."""
    a, b = d1.action, d2.action
    if a is b or (a.complex == b.complex and a.elements == b.elements):
        return a
    return trivial_action(d1.complex)


def concat_sum(d1: OmegaGDecomposition, d2: OmegaGDecomposition) -> OmegaGDecomposition:
    """Decomposition of the sum of two contractions on a shared complex.

    Index sets are concatenated; assignments mixing the two blocks hit zero
    locals, which needs connectivity. Each summand's per-site scale is pushed
    into its locals.
    """
    if d1.complex != d2.complex:
        raise ValueError("summands live on different complexes")
    if d1.site_vars != d2.site_vars:
        raise IncompatibleBlockSizes("summands disagree on site widths")
    require_connected(d1.complex, "index concatenation")
    locals_: dict[int, dict[Beta, RadPoly]] = {}
    for d, shift in ((d1, 0), (d2, d1.index_size)):
        for site, mapping in d.locals.items():
            for beta, poly in mapping.items():
                if d.scale != ONE:
                    poly = poly.scale_mul(d.scale)
                locals_.setdefault(site, {})[tuple(v + shift for v in beta)] = poly
    return OmegaGDecomposition(d1.complex, _shared_action(d1, d2),
                               d1.index_size + d2.index_size, d1.site_vars, locals_,
                               _trusted=True)


def pair_assignment(beta1: Beta, beta2: Beta, size: int) -> Beta:
    """The assignment of the index pairs (v1, v2), numbered (v1 - 1) * size + v2."""
    return tuple((v1 - 1) * size + v2 for v1, v2 in zip(beta1, beta2))


def pointwise_product(d1: OmegaGDecomposition, d2: OmegaGDecomposition) -> OmegaGDecomposition:
    """Decomposition of the product of two contractions on a shared complex."""
    if d1.complex != d2.complex:
        raise ValueError("factors live on different complexes")
    if d1.site_vars != d2.site_vars:
        raise IncompatibleBlockSizes("factors disagree on site widths")
    i2 = d2.index_size
    locals_: dict[int, dict[Beta, RadPoly]] = {}
    for site in range(d1.complex.vertex_count):
        m1 = d1.locals.get(site, {})
        m2 = d2.locals.get(site, {})
        for beta1, p1 in m1.items():
            for beta2, p2 in m2.items():
                locals_.setdefault(site, {})[pair_assignment(beta1, beta2, i2)] = p1 * p2
    return OmegaGDecomposition(d1.complex, _shared_action(d1, d2), d1.index_size * i2,
                               d1.site_vars, locals_, d1.scale * d2.scale, _trusted=True)
