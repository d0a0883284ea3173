from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowlab import (
    Graph,
    identify_vertices,
    make_circulant_regular_bipartite,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_random_regular_bipartite,
    parse_graph,
)
from rainbowlab.graphs import format_graph


def test_path_shape():
    g = make_path(3)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_path_single_edge():
    g = make_path(1)
    assert g.edge_count == 1
    assert g.edges == ((0, 1),)


def test_path_bipartition_by_parity():
    g = make_path(6)
    x_side, y_side = g.bipartition
    assert (len(x_side), len(y_side)) == (4, 3)
    assert x_side == frozenset({0, 2, 4, 6})


def test_path_rejects_zero():
    with pytest.raises(ValueError):
        make_path(0)


def test_cycle_even_is_bipartite():
    g = make_cycle(4)
    assert g.bipartition == (frozenset({0, 2}), frozenset({1, 3}))


def test_cycle_odd_has_no_bipartition():
    assert make_cycle(5).bipartition is None


def test_cycle_triangle():
    g = make_cycle(3)
    assert g.edge_count == 3
    assert g.edges == ((0, 1), (1, 2), (2, 0))


def test_cycle_rejects_small():
    with pytest.raises(ValueError):
        make_cycle(2)


def test_complete_bipartite_degrees():
    g = make_complete_bipartite(3)
    assert g.edge_count == 9
    assert all(d == 3 for d in g.degrees())


def test_complete_bipartite_single_edge():
    assert make_complete_bipartite(1).edges == ((0, 1),)


def test_complete_bipartite_two_is_four_cycle():
    g = make_complete_bipartite(2)
    assert set(g.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_circulant_shape():
    g = make_circulant_regular_bipartite(4, 3)
    assert g.edge_count == 12
    assert all(d == 3 for d in g.degrees())


def test_circulant_full_equals_complete_bipartite():
    assert set(make_circulant_regular_bipartite(3, 3).edges) == set(
        make_complete_bipartite(3).edges
    )


def test_circulant_k1_is_perfect_matching():
    g = make_circulant_regular_bipartite(5, 1)
    assert g.edge_count == 5
    assert all(d == 1 for d in g.degrees())


def test_circulant_degrees_exhaustive():
    for n in range(1, 13):
        for k in range(1, n + 1):
            g = make_circulant_regular_bipartite(n, k)
            assert all(d == k for d in g.degrees()), (n, k)


def test_circulant_rejects_k_above_n():
    with pytest.raises(ValueError):
        make_circulant_regular_bipartite(3, 4)


def test_random_regular_degrees():
    g = make_random_regular_bipartite(5, 2, seed=7)
    assert all(d == 2 for d in g.degrees())


def test_random_regular_unique_on_three_by_three():
    expected = set(make_complete_bipartite(3).edges)
    for seed in range(6):
        assert set(make_random_regular_bipartite(3, 3, seed).edges) == expected


def test_random_regular_deterministic():
    assert make_random_regular_bipartite(6, 3, 1) == make_random_regular_bipartite(6, 3, 1)


def test_handshake_identity_across_builders():
    builders = [
        make_path(7),
        make_cycle(8),
        make_complete_bipartite(4),
        make_circulant_regular_bipartite(5, 3),
        make_random_regular_bipartite(5, 2, 3),
    ]
    for g in builders:
        assert sum(g.degrees()) == 2 * g.edge_count


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (1, 0)))


def test_graph_rejects_non_crossing_bipartition():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1),), (frozenset({0, 1}), frozenset({2})))


# --- identification ----------------------------------------------------------


def test_identify_path_ends_gives_cycle():
    g = make_path(4)
    result = identify_vertices(g, 0, 4)
    h = result.graph
    assert h.edge_count == 4
    assert h.vertex_count == 4
    assert all(d == 2 for d in h.degrees())
    assert result.vertex_map[0] == result.vertex_map[4] == result.merged_vertex


def test_identify_isolated_vertices_keeps_edges():
    g = Graph(4, ((0, 1),))
    h = identify_vertices(g, 2, 3).graph
    assert h.edges == ((0, 1),)
    assert h.vertex_count == 3


def test_identify_rejects_adjacent():
    with pytest.raises(ValueError):
        identify_vertices(make_path(3), 0, 1)


def test_identify_rejects_common_neighbor():
    with pytest.raises(ValueError):
        identify_vertices(make_path(3), 0, 2)


@st.composite
def graph_with_mergeable_pair(draw):
    n = draw(st.integers(4, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    g = Graph(n, tuple(chosen))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in g.neighbors(u) and not (g.neighbors(u) & g.neighbors(v))
    ]
    if not candidates:
        return None
    return g, draw(st.sampled_from(candidates))


@settings(max_examples=150, deadline=None)
@given(graph_with_mergeable_pair())
def test_identify_preserves_edge_count_and_simplicity(item):
    if item is None:
        return
    g, (u, v) = item
    h = identify_vertices(g, u, v).graph  # Graph validates no loops/duplicates
    assert h.edge_count == g.edge_count
    assert h.vertex_count == g.vertex_count - 1


# --- serialization -----------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        make_path(1),
        make_path(6),
        make_cycle(5),
        make_cycle(6),
        make_complete_bipartite(3),
        make_circulant_regular_bipartite(4, 3),
        make_random_regular_bipartite(5, 2, 11),
        Graph(3, ()),
        identify_vertices(make_path(4), 0, 4).graph,
    ],
)
def test_round_trip_is_identity(g):
    back = parse_graph(format_graph(g))
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges
    assert back.bipartition == g.bipartition


@st.composite
def simple_graph(draw):
    """Any simple graph as a caller builds it: Graph(n, edges) with no sides,
    edges in arbitrary order and orientation."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return Graph(n, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)))


# Edgeless graphs, isolated vertices next to an edge, and odd cycles with and
# without isolated vertices, pinned so every run covers them.
SIDELESS_EXAMPLES = [
    Graph(0, ()),
    Graph(1, ()),
    Graph(3, ()),
    Graph(4, ((0, 1),)),
    Graph(3, ((0, 1), (1, 2), (2, 0))),
    Graph(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))),
    Graph(6, ((3, 5), (0, 1), (5, 4), (1, 2))),
]


def _add_examples(test):
    for g in SIDELESS_EXAMPLES:
        test = example(g)(test)
    return test


@_add_examples
@settings(max_examples=200, deadline=None)
@given(simple_graph())
def test_round_trip_is_identity_for_graphs_built_without_sides(g):
    back = parse_graph(format_graph(g))
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges
    assert back.bipartition == g.bipartition


@_add_examples
@settings(max_examples=200, deadline=None)
@given(simple_graph())
def test_bipartition_is_none_only_for_odd_cycles(g):
    has_proper_two_coloring = any(
        all(sides[u] != sides[v] for u, v in g.edges)
        for sides in product((0, 1), repeat=g.vertex_count)
    )
    if not has_proper_two_coloring:  # some cycle is odd
        assert g.bipartition is None
        return
    assert g.bipartition is not None  # Graph has checked it is a valid bipartition
    # canonical: the lowest vertex of each connected component lies in X
    root = list(range(g.vertex_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        root[max(ru, rv)] = min(ru, rv)
    lowest = {find(v) for v in range(g.vertex_count)}
    assert lowest <= g.bipartition[0]


def test_parse_ignores_comments_and_blank_lines():
    text = "# a comment\n\ngraph 3 2\n0 1  # trailing\n\n1 2\n"
    g = parse_graph(text)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_bipartite_header_sets_sides():
    g = parse_graph("bipartite 2 3 2\n0 2\n1 4\n")
    assert g.bipartition == (frozenset({0, 1}), frozenset({2, 3, 4}))


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        parse_graph("graph 3 2\n0 1\n")


def test_parse_rejects_garbage_header():
    with pytest.raises(ValueError):
        parse_graph("digraph 3 2\n0 1\n1 2\n")


def test_edge_indices_are_one_based_positions():
    g = parse_graph("graph 4 3\n0 1\n1 2\n2 3\n")
    assert g.edge(1) == (0, 1)
    assert g.edge(3) == (2, 3)
    with pytest.raises(IndexError):
        g.edge(0)
