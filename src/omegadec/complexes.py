"""Weighted simplicial complexes.

A complex on vertices 0..n-1 is stored extensionally as its facets, each an
inclusion-maximal vertex set with a positive integer weight. The weight map on
arbitrary vertex sets is derived as the gcd of the weights of the containing
facets. Each facet of weight w contributes w multifacet labels (facet index,
copy index), ordered lexicographically; decomposition indices are functions on
these labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DivisibilityViolation,
    EmptyFacet,
    InvalidSize,
    NonMaximalFacet,
    UncoveredVertex,
    VertexOutOfRange,
)

Label = tuple[int, int]


@dataclass(frozen=True)
class WeightedComplex:
    """A weighted simplicial complex given by its facets."""

    vertex_count: int
    facets: tuple[tuple[frozenset[int], int], ...]
    labels: tuple[Label, ...] = field(init=False, repr=False, compare=False)
    _labels_at: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _facet_of: dict[frozenset[int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = []
        facet_of: dict[frozenset[int], int] = {}
        for f_idx, (fset, weight) in enumerate(self.facets):
            facet_of.setdefault(fset, f_idx)
            for copy in range(weight):
                labels.append((f_idx, copy))
        per_vertex = []
        for v in range(self.vertex_count):
            per_vertex.append(tuple(
                pos for pos, (f_idx, _) in enumerate(labels)
                if v in self.facets[f_idx][0]))
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "_labels_at", tuple(per_vertex))
        object.__setattr__(self, "_facet_of", facet_of)

    @property
    def label_count(self) -> int:
        return len(self.labels)

    def facet_of_label(self, pos: int) -> frozenset[int]:
        """Collapse map: the facet underlying a multifacet label position."""
        return self.facets[self.labels[pos][0]][0]

    def label_positions_at(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.vertex_count:
            raise VertexOutOfRange(f"vertex {i} outside 0..{self.vertex_count - 1}")
        return self._labels_at[i]

    def facet_index(self, vertices: frozenset[int]) -> int | None:
        return self._facet_of.get(vertices)

    def to_obj(self) -> dict:
        return {
            "n": self.vertex_count - 1,
            "facets": [{"vertices": sorted(f), "weight": w} for f, w in self.facets],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "WeightedComplex":
        facets = [(set(f["vertices"]), int(f.get("weight", 1))) for f in obj["facets"]]
        n = obj.get("n")
        return build_complex(facets, vertex_count=None if n is None else int(n) + 1)

    @classmethod
    def loads(cls, text: str) -> "WeightedComplex":
        return cls.from_obj(json.loads(text))


def omega_value(c: WeightedComplex, subset: Iterable[int]) -> int:
    """Derived weight of a vertex set: gcd of weights of containing facets, 0 if none."""
    s = frozenset(subset)
    g = 0
    for fset, w in c.facets:
        if s <= fset:
            g = gcd(g, w)
    return g


def build_complex(facet_list: Sequence[tuple[Iterable[int], int]],
                  vertex_count: int | None = None) -> WeightedComplex:
    """Validate a facet list and assemble the complex.

    Rejects empty facets, non-maximal facets (including duplicates), vertex
    ranges with gaps, and any divisibility failure of the derived weight map.
    """
    sets: list[frozenset[int]] = []
    weights: list[int] = []
    for vertices, weight in facet_list:
        fset = frozenset(int(v) for v in vertices)
        if not fset:
            raise EmptyFacet("facet with empty vertex set")
        if min(fset) < 0:
            raise VertexOutOfRange("negative vertex index")
        weight = int(weight)
        if weight < 1:
            raise ValueError(f"facet weight must be >= 1, got {weight}")
        sets.append(fset)
        weights.append(weight)
    if not sets:
        raise EmptyFacet("complex needs at least one facet")
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                raise NonMaximalFacet(f"facet {sorted(a)} is contained in {sorted(b)}")
    top = max(max(f) for f in sets)
    if vertex_count is None:
        vertex_count = top + 1
    elif top >= vertex_count:
        raise VertexOutOfRange(f"vertex {top} outside 0..{vertex_count - 1}")
    covered = set().union(*sets)
    missing = [v for v in range(vertex_count) if v not in covered]
    if missing:
        raise UncoveredVertex(f"vertices {missing} lie in no facet")
    c = WeightedComplex(vertex_count, tuple(zip(sets, weights)))
    _check_divisibility(c)
    return c


def _check_divisibility(c: WeightedComplex, limit: int = 4096) -> None:
    """Exhaustively verify divisibility of the derived weight map on small complexes."""
    if 2**c.vertex_count > limit:
        return
    universe = range(c.vertex_count)
    subsets = []
    for mask in range(1, 2**c.vertex_count):
        subsets.append(frozenset(v for v in universe if mask >> v & 1))
    values = {s: omega_value(c, s) for s in subsets}
    for s1 in subsets:
        w1 = values[s1]
        for s2 in subsets:
            if s1 <= s2:
                w2 = values[s2]
                if w2 != 0 and (w1 == 0 or w2 % w1 != 0):
                    raise DivisibilityViolation(
                        f"weight {w1} of {sorted(s1)} does not divide weight {w2} of {sorted(s2)}")


def standard_complex(kind: str, n: int = 1) -> WeightedComplex:
    """One of the stock families: simplex, line, circle, double_edge, single_edge."""
    if kind == "simplex":
        if n < 0:
            raise InvalidSize("simplex needs n >= 0")
        return build_complex([(range(n + 1), 1)])
    if kind == "line":
        if n < 1:
            raise InvalidSize("line needs n >= 1")
        return build_complex([({i, i + 1}, 1) for i in range(n)])
    if kind == "circle":
        if n < 3:
            raise InvalidSize("circle needs n >= 3")
        return build_complex([({i, (i + 1) % n}, 1) for i in range(n)])
    if kind == "double_edge":
        return build_complex([({0, 1}, 2)])
    if kind == "single_edge":
        return build_complex([({0, 1}, 1)])
    raise InvalidSize(f"unknown standard complex kind {kind!r}")


def multifacets_at(c: WeightedComplex, i: int) -> list[Label]:
    """Multifacet labels whose facet contains vertex i."""
    return [c.labels[pos] for pos in c.label_positions_at(i)]


def is_connected(c: WeightedComplex) -> bool:
    """True iff every pair of vertices is linked through shared facets."""
    if c.vertex_count <= 1:
        return True
    adj: dict[int, set[int]] = {v: set() for v in range(c.vertex_count)}
    for fset, _ in c.facets:
        for v in fset:
            adj[v] |= fset
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == c.vertex_count
