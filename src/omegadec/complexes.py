"""Weighted simplicial complexes.

A complex on vertices 0..n-1 is stored extensionally as its facets, each an
inclusion-maximal vertex set with a positive integer weight. The weight map on
arbitrary vertex sets is derived as the gcd of the weights of the containing
facets. Each facet of weight w contributes w multifacet labels (facet index,
copy index), ordered lexicographically; decomposition indices are functions on
these labels.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DEFAULT_MAX_WORK,
    EmptyFacet,
    InvalidSize,
    NonMaximalFacet,
    NotConnected,
    SizeTooLarge,
    UncoveredVertex,
    VertexOutOfRange,
    _integer,
    _object,
)

Label = tuple[int, int]

_NAMED_UNCOVERED = 10     # uncovered vertices named in the error; the rest are counted


class WeightedComplex:
    """A weighted simplicial complex given by its facets. It is immutable, and
    its vertex count and facets alone decide equality and the hash; the labels
    and the lookups are derived from them."""

    __slots__ = ("vertex_count", "facets", "labels", "_labels_at", "_facet_of")

    def __init__(self, vertex_count: int, facets: tuple[tuple[frozenset[int], int], ...]):
        labels: list[Label] = []
        facet_of: dict[frozenset[int], int] = {}
        per_vertex: list[list[int]] = [[] for _ in range(vertex_count)]
        for f_idx, (fset, weight) in enumerate(facets):
            facet_of.setdefault(fset, f_idx)
            # the labels of a facet are consecutive positions, so each list ascends
            positions = range(len(labels), len(labels) + weight)
            for v in fset:
                per_vertex[v].extend(positions)
            labels.extend((f_idx, copy) for copy in range(weight))
        for name, value in (("vertex_count", vertex_count), ("facets", facets),
                            ("labels", tuple(labels)),
                            ("_labels_at", tuple(map(tuple, per_vertex))),
                            ("_facet_of", facet_of)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.facets) == (other.vertex_count, other.facets)

    def __hash__(self):
        return hash((self.vertex_count, self.facets))

    def __repr__(self):
        return f"WeightedComplex(vertex_count={self.vertex_count!r}, facets={self.facets!r})"

    @property
    def label_count(self) -> int:
        return len(self.labels)

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
        obj = _object(obj, "complex")
        facets = [(f["vertices"], f.get("weight", 1))
                  for f in (_object(f, "facet") for f in obj["facets"])]
        n = obj.get("n")
        return build_complex(facets, vertex_count=None if n is None else _integer(n, "n") + 1)


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

    Rejects vertices and weights that are not integers (bools and floats
    included), empty facets, negative vertices, weights below 1, non-maximal
    facets (including duplicates), vertices outside ``vertex_count`` and
    vertex ranges with gaps, then, with SizeTooLarge, a complex that would
    store more than DEFAULT_MAX_WORK label entries. The derived weight map
    needs no check: the facets containing a set also contain each of its
    subsets, so the gcd over the former is a multiple of the gcd over the
    latter.
    """
    sets: list[frozenset[int]] = []
    weights: list[int] = []
    for vertices, weight in facet_list:
        fset = frozenset(_integer(v, "vertex") for v in vertices)
        if not fset:
            raise EmptyFacet("facet with empty vertex set")
        if min(fset) < 0:
            raise VertexOutOfRange("negative vertex index")
        weight = _integer(weight, "facet weight")
        if weight < 1:
            raise ValueError(f"facet weight must be >= 1, got {weight}")
        sets.append(fset)
        weights.append(weight)
    if not sets:
        raise EmptyFacet("complex needs at least one facet")
    containing: dict[int, list[int]] = {}
    for j, b in enumerate(sets):
        for v in b:
            containing.setdefault(v, []).append(j)
    # a facet can only lie inside facets sharing its smallest vertex
    for i, a in enumerate(sets):
        for j in containing[min(a)]:
            if i != j and a <= sets[j]:
                raise NonMaximalFacet(f"facet {sorted(a)} is contained in {sorted(sets[j])}")
    top = max(max(f) for f in sets)
    if vertex_count is None:
        vertex_count = top + 1
    elif top >= vertex_count:
        raise VertexOutOfRange(f"vertex {top} outside 0..{vertex_count - 1}")
    # every key of `containing` is in range, so the count finds a gap without
    # scanning a range that may be far larger than the input
    uncovered = vertex_count - len(containing)
    if uncovered:
        named = list(islice((v for v in range(vertex_count) if v not in containing),
                            _NAMED_UNCOVERED))
        more = f" and {uncovered - len(named)} more" if uncovered > len(named) else ""
        raise UncoveredVertex(f"vertices {named}{more} lie in no facet")
    # a facet of weight w stores w labels and w positions at each of its vertices
    entries = sum(w * (1 + len(f)) for f, w in zip(sets, weights))
    if entries > DEFAULT_MAX_WORK:
        raise SizeTooLarge(f"complex would store {entries} label entries, "
                           f"more than {DEFAULT_MAX_WORK}")
    return WeightedComplex(vertex_count, tuple(zip(sets, weights)))


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


def require_connected(c: WeightedComplex, construction: str) -> None:
    """Raise NotConnected unless c is connected, as the construction requires."""
    if not is_connected(c):
        raise NotConnected(f"{construction} requires a connected complex")
