import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbowlab import (
    Graph,
    NonBipartiteError,
    make_circulant_regular_bipartite,
    make_cycle,
    make_path,
    maximum_matching,
)
from rainbowlab.rainbow import _independence_masks, _matching_number
from helpers import (
    brute_matchings_of_size,
    brute_max_matching_size,
    is_disjoint_edge_set,
    random_bipartite,
)


def test_path_matching_size():
    assert maximum_matching(make_path(4)).size == 2


def test_circulant_has_perfect_matching():
    g = make_circulant_regular_bipartite(5, 3)
    m = maximum_matching(g)
    assert m.size == 5
    assert is_disjoint_edge_set(g, m.edges)
    # brute force confirms some 5-edge independent set exists
    assert any(True for _ in brute_matchings_of_size(g, 5))


def test_empty_graph_matching():
    g = Graph(2, (), (frozenset({0}), frozenset({1})))
    assert maximum_matching(g).size == 0


def test_graph_built_without_sides_is_accepted():
    # an edge plus two isolated vertices, no sides given: bipartite all the same
    g = Graph(4, ((0, 1),))
    assert maximum_matching(g).size == 1


def test_rejects_non_bipartite():
    g = make_cycle(5)
    with pytest.raises(NonBipartiteError):
        maximum_matching(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_konig_duality_random(seed):
    # two independent routes to the matching number: augmenting paths and the
    # memoised exact branching of rainbow.py
    g = random_bipartite(random.Random(seed))
    matching = maximum_matching(g)
    assert is_disjoint_edge_set(g, matching.edges)
    indep = _independence_masks(g.edge_vertex_masks())
    assert matching.size == _matching_number((1 << g.edge_count) - 1, indep, {})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_matching_size_matches_brute_force(seed):
    g = random_bipartite(random.Random(seed), max_side=4, p=0.5)
    if g.edge_count > 12:
        return
    assert maximum_matching(g).size == brute_max_matching_size(g)
