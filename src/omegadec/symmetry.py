"""Finite group actions on weighted simplicial complexes.

An action is stored as the closure of generator pairs (vertex permutation,
multifacet-label permutation). Every element must map facets to facets of
equal weight, and its label permutation must cover its vertex permutation
through the collapse map. Freeness always refers to the action on the
multifacet labels; blending refers to the action on the vertices.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .complexes import WeightedComplex, require_connected
from .errors import (
    DEFAULT_MAX_GROUP,
    ActionNotFree,
    CollapseNotLinear,
    GroupTooLarge,
    WeightNotPreserved,
    _integer,
    _object,
)

Perm = tuple[int, ...]


def _compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def _invert(a: Perm) -> Perm:
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def _check_perm(p: Sequence[int], size: int, what: str) -> Perm:
    p = tuple(_integer(x, what) for x in p)
    if len(p) != size or sorted(p) != list(range(size)):
        raise ValueError(f"{what} is not a permutation of 0..{size - 1}")
    return p


class SymmetryAction:
    """A finite group acting on a weighted simplicial complex."""

    def __init__(self, complex_: WeightedComplex,
                 elements: Sequence[tuple[Perm, Perm]],
                 generators: Sequence[tuple[Perm, Perm]]):
        self.complex = complex_
        self.elements = list(elements)
        self.generators = list(generators)
        self._index = {el: i for i, el in enumerate(self.elements)}
        self._moves: dict[tuple[int, int], tuple[int, Callable | None]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def vperm(self, g: int) -> Perm:
        return self.elements[g][0]

    def mperm(self, g: int) -> Perm:
        return self.elements[g][1]

    def mul(self, a: int, b: int) -> int:
        va, ma = self.elements[a]
        vb, mb = self.elements[b]
        return self._index[(_compose(va, vb), _compose(ma, mb))]

    def inv(self, a: int) -> int:
        va, ma = self.elements[a]
        return self._index[(_invert(va), _invert(ma))]

    def vertex_image(self, g: int, i: int) -> int:
        return self.elements[g][0][i]

    def label_image(self, g: int, pos: int) -> int:
        return self.elements[g][1][pos]

    def _slot_move(self, g: int, site: int) -> tuple[int, Callable | None]:
        """Cache and return the target site g*site and the move of an
        assignment at `site` to g*site.

        An assignment beta on the labels at `site` pushes forward to the
        labels at g*site by reading each target label through g^{-1}. The
        move is None where every target slot reads its own slot, so the
        assignment tuple itself is the image. Otherwise it is an itemgetter
        of the source slot of each target slot; such a slot order has at
        least two slots, so the getter returns a tuple.
        """
        c = self.complex
        gi = self.vertex_image(g, site)
        inv_m = self.mperm(self.inv(g))
        src_index = {p: t for t, p in enumerate(c.label_positions_at(site))}
        mapping = tuple(src_index[inv_m[p]] for p in c.label_positions_at(gi))
        move = None if mapping == tuple(range(len(mapping))) else itemgetter(*mapping)
        self._moves[g, site] = (gi, move)
        return gi, move

    def beta_image(self, g: int, site: int, beta: tuple) -> tuple[int, tuple]:
        """Push an assignment tuple on the labels at `site` forward by g."""
        gi, move = self._moves.get((g, site)) or self._slot_move(g, site)
        return gi, beta if move is None else move(beta)

    def key_image(self, g: int, key: tuple) -> tuple:
        """Move the site and assignment of a key (site, ..., assignment) by g; keep the middle.

        Every symmetry check runs this once per orbit member, so the
        assignment moves through the cached move of (g, site): under an
        identity slot order the stored tuple itself is the image.
        """
        gi, move = self._moves.get((g, key[0])) or self._slot_move(g, key[0])
        beta = key[-1] if move is None else move(key[-1])
        return (gi, beta) if len(key) == 2 else (gi, *key[1:-1], beta)

    def orbits(self, items: Iterable, image: Callable | None = None) -> Iterator[list]:
        """The orbit of each item that no earlier orbit contains.

        ``image(g, x)`` moves x by group element g, `key_image` by default.
        Members come in group-element order without repeats, the item itself
        first, since element 0 is the identity.
        """
        image = image or self.key_image
        seen: set = set()
        for item in items:
            if item in seen:
                continue
            orbit = []
            for g in range(len(self.elements)):
                x = image(g, item)
                if x not in seen:
                    seen.add(x)
                    orbit.append(x)
            yield orbit

    # structure queries

    def label_orbits(self) -> list[list[int]]:
        """Sorted orbits of the label positions, by smallest member."""
        return [sorted(o) for o in self.orbits(range(self.complex.label_count), self.label_image)]

    def vertex_orbits(self) -> list[list[int]]:
        """Sorted orbits of the vertices, by smallest member."""
        return [sorted(o) for o in self.orbits(range(self.complex.vertex_count), self.vertex_image)]

    def to_obj(self) -> dict:
        return {"generators": [{"vertex_perm": list(v), "multifacet_perm": list(m)}
                               for v, m in self.generators]}

    @classmethod
    def from_obj(cls, complex_: WeightedComplex, obj: dict,
                 max_group: int = DEFAULT_MAX_GROUP) -> "SymmetryAction":
        obj = _object(obj, "action")
        gens = [(g["vertex_perm"], g["multifacet_perm"])
                for g in (_object(g, "generator") for g in obj["generators"])]
        return build_action(complex_, gens, max_group=max_group)


def _validate_element(c: WeightedComplex, vperm: Perm, mperm: Perm) -> None:
    for fset, weight in c.facets:
        image = frozenset(vperm[v] for v in fset)
        idx = c.facet_index(image)
        if idx is None or c.facets[idx][1] != weight:
            raise WeightNotPreserved(
                f"facet {sorted(fset)} maps to {sorted(image)} which is not a facet of weight {weight}")
    for pos in range(c.label_count):
        f_idx = c.labels[pos][0]
        target_f = c.labels[mperm[pos]][0]
        image = frozenset(vperm[v] for v in c.facets[f_idx][0])
        if c.facets[target_f][0] != image:
            raise CollapseNotLinear(
                f"label {c.labels[pos]} maps to {c.labels[mperm[pos]]}, "
                f"inconsistent with the vertex image {sorted(image)}")


def build_action(c: WeightedComplex,
                 generators: Sequence[tuple[Sequence[int], Sequence[int]]],
                 max_group: int = DEFAULT_MAX_GROUP) -> SymmetryAction:
    """Validate generator pairs and close them into a full group action.

    Only the generators are checked: a product of pairs that preserve facet
    weights and cover their vertex permutation through the collapse map does
    both as well, so every closure element is valid.
    """
    V, L = c.vertex_count, c.label_count
    gens = []
    for vp, mp in generators:
        pair = (_check_perm(vp, V, "vertex_perm"), _check_perm(mp, L, "multifacet_perm"))
        _validate_element(c, *pair)
        gens.append(pair)
    identity = (tuple(range(V)), tuple(range(L)))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for gen in gens:
                prod = (_compose(gen[0], el[0]), _compose(gen[1], el[1]))
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
                    if len(elements) > max_group:
                        raise GroupTooLarge(f"group exceeds cap {max_group}")
        frontier = nxt
    ordered = [identity] + sorted(el for el in elements if el != identity)
    return SymmetryAction(c, ordered, gens)


def trivial_action(c: WeightedComplex) -> SymmetryAction:
    return build_action(c, [])


def is_free(a: SymmetryAction) -> bool:
    """True iff no non-identity element fixes any multifacet label."""
    for g in range(1, len(a)):
        mp = a.mperm(g)
        if any(mp[pos] == pos for pos in range(a.complex.label_count)):
            return False
    return True


def is_blending(a: SymmetryAction) -> bool:
    """True iff every orbit-compatible vertex bijection is realized by one element.

    A vertex bijection f is realizable by a tuple of group elements exactly
    when f(i) lies in the orbit of i for every i; blending demands each such f
    to agree with a single element on all vertices. Every vertex permutation
    of the group preserves each orbit, so it blends exactly when it realizes
    as many distinct vertex permutations as there are orbit-compatible
    bijections, the product of |O|! over the vertex orbits O.
    """
    realized = {a.vperm(g) for g in range(len(a))}
    return len(realized) == math.prod(math.factorial(len(o)) for o in a.vertex_orbits())


def free_refinement(a: SymmetryAction) -> SymmetryAction:
    """Refine the action to a free one by multiplying every weight by |G|.

    New labels are pairs (old label, group element); g sends (l, h) to
    (g*l, g*h), which has trivial stabilizers since left multiplication of the
    group on itself is free.
    """
    require_connected(a.complex, "free refinement")
    c = a.complex
    order = len(a)
    new_c = WeightedComplex(c.vertex_count,
                            tuple((fset, w * order) for fset, w in c.facets))

    offsets = []
    acc = 0
    for _, w in c.facets:
        offsets.append(acc)
        acc += w * order

    def new_pos(old_pos: int, h: int) -> int:
        f_idx, copy = c.labels[old_pos]
        return offsets[f_idx] + copy * order + h

    def refine_mperm(g: int) -> Perm:
        out = [0] * new_c.label_count
        for old_pos in range(c.label_count):
            for h in range(order):
                out[new_pos(old_pos, h)] = new_pos(a.label_image(g, old_pos), a.mul(g, h))
        return tuple(out)

    new_elements = [(a.vperm(g), refine_mperm(g)) for g in range(order)]
    gen_pairs = []
    for vp, mp in a.generators:
        g = a._index[(vp, mp)]
        gen_pairs.append((vp, refine_mperm(g)))
    return SymmetryAction(new_c, new_elements, gen_pairs)


def linearizer(a: SymmetryAction) -> tuple[int, ...]:
    """A G-linear map from label positions to group elements, identity on orbit reps.

    Exists exactly when the action is free; representatives are the
    lexicographically smallest label of each orbit. Stabilizers along an orbit
    are conjugate, so a non-free action sends some representative to one
    label twice.
    """
    z = [-1] * a.complex.label_count
    for orbit in a.label_orbits():
        rep = orbit[0]
        for g in range(len(a)):
            pos = a.label_image(g, rep)
            if z[pos] != -1:
                raise ActionNotFree("stabilizer is non-trivial")
            z[pos] = g
    return tuple(z)
