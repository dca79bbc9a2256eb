"""Weighted simplicial complexes: construction, queries, invariants."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadec import complexes
from omegadec.complexes import (
    WeightedComplex,
    build_complex,
    is_connected,
    multifacets_at,
    omega_value,
    standard_complex,
)
from omegadec.errors import (
    EmptyFacet,
    InvalidSize,
    NonMaximalFacet,
    SizeTooLarge,
    UncoveredVertex,
    VertexOutOfRange,
)


def test_single_and_double_edge():
    single = build_complex([({0, 1}, 1)])
    assert single.label_count == 1
    double = build_complex([({0, 1}, 2)])
    assert double.labels == ((0, 0), (0, 1))
    one_vertex = build_complex([({0}, 1)])
    assert one_vertex.label_count == 1 and one_vertex.vertex_count == 1


def test_complexes_are_values():
    """Equal vertex counts and facets make equal complexes with one hash; the
    labels are derived, and no attribute can be set or deleted."""
    a, b = standard_complex("double_edge"), build_complex([([1, 0], 2)])
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != standard_complex("single_edge") and a != WeightedComplex(3, a.facets)
    assert a != (a.vertex_count, a.facets)
    assert {a: 1}[b] == 1
    assert repr(a) == "WeightedComplex(vertex_count=2, facets=((frozenset({0, 1}), 2),))"
    for name in ("vertex_count", "facets", "labels", "_facet_of", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and a.labels == ((0, 0), (0, 1))


def test_standard_families():
    simplex = standard_complex("simplex", 4)
    assert len(simplex.facets) == 1 and simplex.label_count == 1
    assert simplex.facets[0][0] == frozenset(range(5))
    line = standard_complex("line", 3)
    assert len(line.facets) == 3 and line.vertex_count == 4
    circle = standard_complex("circle", 5)
    assert len(circle.facets) == 5
    for v in range(5):
        assert len(circle.label_positions_at(v)) == 2
    with pytest.raises(InvalidSize):
        standard_complex("circle", 2)
    with pytest.raises(InvalidSize):
        standard_complex("line", 0)
    with pytest.raises(InvalidSize):
        standard_complex("nope")


def test_multifacets_at_examples():
    double = standard_complex("double_edge")
    assert multifacets_at(double, 0) == [(0, 0), (0, 1)]
    assert multifacets_at(double, 1) == [(0, 0), (0, 1)]
    circle = standard_complex("circle", 5)
    assert multifacets_at(circle, 2) == [(1, 0), (2, 0)]
    simplex = standard_complex("simplex", 4)
    assert multifacets_at(simplex, 3) == [(0, 0)]
    with pytest.raises(VertexOutOfRange):
        multifacets_at(double, 2)


def test_is_connected():
    assert is_connected(standard_complex("circle", 5))
    assert is_connected(standard_complex("single_edge"))
    split = build_complex([({0, 1}, 1), ({2, 3}, 1)])
    assert not is_connected(split)
    for n in range(6):
        assert is_connected(standard_complex("simplex", n))


def test_validation_errors():
    with pytest.raises(EmptyFacet):
        build_complex([(set(), 1)])
    with pytest.raises(EmptyFacet):
        build_complex([])
    with pytest.raises(NonMaximalFacet):
        build_complex([({0, 1, 2}, 1), ({0, 1}, 1)])
    with pytest.raises(NonMaximalFacet):
        build_complex([({0, 1}, 1), ({0, 1}, 2)])
    with pytest.raises(UncoveredVertex):
        build_complex([({0, 1}, 1), ({3}, 1)])
    with pytest.raises(UncoveredVertex):
        build_complex([({0, 1}, 1)], vertex_count=3)
    with pytest.raises(VertexOutOfRange):
        build_complex([({0, 5}, 1)], vertex_count=2)
    with pytest.raises(ValueError):
        build_complex([({0, 1}, 0)])
    for weight in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="facet weight must be an integer"):
            build_complex([({0, 1}, weight)])
    for vertices in ([0, 1.5], [0, 1.0], [0, True], [0, "1"]):
        with pytest.raises(ValueError, match="vertex must be an integer"):
            build_complex([(vertices, 1)])
    with pytest.raises(ValueError, match="n must be an integer"):
        WeightedComplex.from_obj({"n": 1.5, "facets": [{"vertices": [0, 1]}]})


def test_uncovered_vertices_are_named_up_to_a_bound():
    with pytest.raises(UncoveredVertex, match=r"^vertices \[2\] lie in no facet$"):
        build_complex([({0, 1}, 1), ({3}, 1)])
    with pytest.raises(UncoveredVertex, match=r"^vertices \[2, 4\] lie in no facet$"):
        build_complex([({0, 1}, 1), ({3}, 1)], vertex_count=5)
    ten = r"\[1, 2, 3, 4, 5, 6, 7, 8, 9, 10\]"
    with pytest.raises(UncoveredVertex, match=rf"^vertices {ten} lie in no facet$"):
        build_complex([({0, 11}, 1)])
    with pytest.raises(UncoveredVertex, match=rf"^vertices {ten} and 1 more lie in no facet$"):
        build_complex([({0, 12}, 1)])
    with pytest.raises(UncoveredVertex, match=rf"^vertices {ten} and 999999989 more lie"):
        build_complex([({0, 10**9}, 1)])


def facet_of_label(c: WeightedComplex, pos: int) -> frozenset[int]:
    """Collapse map: the facet underlying a multifacet label position."""
    return c.facets[c.labels[pos][0]][0]


def test_weight_sum_and_collapse_fibers():
    c = build_complex([({0, 1}, 3), ({1, 2}, 2)])
    assert c.label_count == sum(w for _, w in c.facets) == 5
    for f_idx, (fset, weight) in enumerate(c.facets):
        fiber = [lab for lab in c.labels if lab[0] == f_idx]
        assert len(fiber) == weight
        for pos, lab in enumerate(c.labels):
            if lab[0] == f_idx:
                assert facet_of_label(c, pos) == fset


def test_omega_value_gcd():
    c = build_complex([({0, 1}, 4), ({1, 2}, 6)])
    assert omega_value(c, {0, 1}) == 4
    assert omega_value(c, {1}) == 2  # gcd(4, 6)
    assert omega_value(c, {0, 2}) == 0
    assert omega_value(c, {0, 1, 2}) == 0


@st.composite
def random_complexes(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    raw = draw(st.lists(
        st.tuples(st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
                  st.integers(1, 6)),
        min_size=1, max_size=4))
    # keep only inclusion-maximal sets, merging nothing
    facets = []
    for s, w in raw:
        facets = [(t, u) for t, u in facets if not t < s]
        if not any(s <= t for t, _ in facets):
            facets.append((s, w))
    covered = set().union(*(s for s, _ in facets))
    for v in range(n):
        if v not in covered:
            facets.append(({v}, draw(st.integers(1, 6))))
    return build_complex(facets)


@given(random_complexes())
@settings(deadline=None, max_examples=50)
def test_derived_weights_divide_along_inclusions(c):
    import itertools
    verts = range(c.vertex_count)
    subsets = [frozenset(s) for r in range(1, c.vertex_count + 1)
               for s in itertools.combinations(verts, r)]
    for s1 in subsets:
        for s2 in subsets:
            if s1 <= s2:
                w1, w2 = omega_value(c, s1), omega_value(c, s2)
                if w2 != 0:
                    assert w1 != 0 and w2 % w1 == 0


def maximality_oracle(facets):
    """The all-pairs scan: the message of the first (i, j) with facet i inside facet j."""
    sets = [frozenset(f) for f, _ in facets]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                return f"facet {sorted(a)} is contained in {sorted(b)}"
    return None


@given(st.lists(st.tuples(st.sets(st.integers(0, 5), min_size=1, max_size=4),
                          st.integers(1, 3)), min_size=1, max_size=6))
@settings(deadline=None, max_examples=300)
def test_maximality_check_matches_all_pairs_scan(facets):
    expected = maximality_oracle(facets)
    try:
        build_complex(facets)
    except NonMaximalFacet as exc:
        assert str(exc) == expected
    except UncoveredVertex:
        assert expected is None
    else:
        assert expected is None


def test_maximality_messages_on_duplicate_and_nested_facets():
    for facets in ([({0, 1}, 1), ({1, 2}, 1), ({0, 1}, 2)],
                   [({2, 3}, 1), ({0, 1, 2}, 1), ({1, 2}, 1)],
                   [({1, 2}, 1), ({0, 1, 2, 3}, 1)]):
        with pytest.raises(NonMaximalFacet) as err:
            build_complex(facets)
        assert str(err.value) == maximality_oracle(facets)


@given(random_complexes())
@settings(deadline=None, max_examples=50)
def test_label_positions_match_per_vertex_scan(c):
    for v in range(c.vertex_count):
        assert c.label_positions_at(v) == tuple(
            pos for pos, (f_idx, _) in enumerate(c.labels) if v in c.facets[f_idx][0])


def test_large_complexes_build():
    wide = build_complex([({0, 1, 2}, 2), ({2, 3}, 1)] + [({i, i + 1}, 1) for i in range(3, 12)])
    assert wide.vertex_count == 13
    assert wide.label_positions_at(2) == (0, 1, 2)
    circle = standard_complex("circle", 1100)
    assert circle.label_count == 1100
    assert circle.label_positions_at(0) == (0, 1099)
    assert all(circle.label_positions_at(v) == (v - 1, v) for v in range(1, 1100))


def test_label_entries_are_counted_before_they_are_stored(monkeypatch):
    # a facet of weight w stores w labels and w positions at each of its vertices
    facets = [({0, 1}, 2), ({1, 2}, 1)]     # 2 * 3 + 1 * 3 = 9 entries
    monkeypatch.setattr(complexes, "DEFAULT_MAX_WORK", 9)
    assert build_complex(facets).label_count == 3
    monkeypatch.setattr(complexes, "DEFAULT_MAX_WORK", 8)
    with pytest.raises(SizeTooLarge, match="^complex would store 9 label entries, more than 8$"):
        build_complex(facets)


@pytest.mark.parametrize("weight", [10**9, 10**30])
def test_huge_weights_stop_before_allocating(weight):
    start = time.perf_counter()
    with pytest.raises(SizeTooLarge):
        build_complex([({0, 1}, weight)])
    assert time.perf_counter() - start < 1.0


def test_json_round_trip():
    c = build_complex([({0, 1}, 2), ({1, 2}, 1)])
    again = WeightedComplex.from_obj(c.to_obj())
    assert again == c
    assert again.to_obj() == c.to_obj()
