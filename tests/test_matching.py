import random

from hypothesis import given, settings, strategies as st

from rainbowlab import (
    Graph,
    make_circulant_regular_bipartite,
    make_path,
    max_matching_size,
)
from helpers import (
    augmenting_path_matching_size,
    brute_matchings_of_size,
    brute_max_matching_size,
    random_bipartite,
)


def test_path_matching_size():
    assert max_matching_size(make_path(4)) == 2


def test_circulant_has_perfect_matching():
    g = make_circulant_regular_bipartite(5, 3)
    assert max_matching_size(g) == 5
    # brute force confirms some 5-edge independent set exists
    assert any(True for _ in brute_matchings_of_size(g, 5))


def test_empty_graph_matching():
    g = Graph(2, ())
    assert max_matching_size(g) == 0


def test_graph_built_without_sides_is_accepted():
    # an edge plus two isolated vertices, no sides given: bipartite all the same
    g = Graph(4, ((0, 1),))
    assert max_matching_size(g) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_konig_duality_random(seed):
    # two independent routes to the matching number: augmenting paths and the
    # memoised exact branching of rainbow.py
    g = random_bipartite(random.Random(seed))
    assert max_matching_size(g) == augmenting_path_matching_size(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_matching_size_matches_brute_force(seed):
    g = random_bipartite(random.Random(seed), max_side=4, p=0.5)
    if g.edge_count > 12:
        return
    assert max_matching_size(g) == brute_max_matching_size(g)
