import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbowlab import (
    Coloring,
    Graph,
    RainbowWitness,
    ext_exact,
    find_rainbow_matching,
    make_circulant_regular_bipartite,
    make_cycle,
    make_path,
    max_matching_size,
    extremal_coloring_regular,
)
from helpers import (
    canonical_colorings,
    brute_first_rainbow_matching,
    brute_has_rainbow_matching,
    brute_max_matching_size,
    enumerate_representative_choices,
    random_bipartite,
)


def test_path_witness_is_lexicographically_first():
    w = find_rainbow_matching(make_path(4), Coloring((1, 2, 1, 2), 2), 2)
    assert w.edges == (1, 4)
    assert w.colors == (1, 2)


def test_cycle_proper_two_coloring_has_no_rainbow_pair():
    assert find_rainbow_matching(make_cycle(4), Coloring((1, 2, 1, 2), 2), 2) is None


def test_single_edge_is_rainbow():
    w = find_rainbow_matching(make_path(5), Coloring((1, 1, 2, 1, 1), 2), 1)
    assert w.size == 1


def test_regular_lower_bound_coloring_defeats_search():
    g = make_circulant_regular_bipartite(4, 3)
    report = extremal_coloring_regular(g, 3)
    assert find_rainbow_matching(g, report.coloring, 3) is None


def test_short_circuit_above_matching_number():
    g = make_path(4)
    assert find_rainbow_matching(g, Coloring((1, 2, 3, 4), 4), 3) is None


def test_rejects_mismatched_coloring():
    with pytest.raises(ValueError):
        find_rainbow_matching(make_path(4), Coloring((1, 2), 2), 2)


def test_witness_verifies_against_host():
    g = make_path(6)
    c = Coloring((1, 2, 3, 1, 2, 3), 3)
    w = find_rainbow_matching(g, c, 3)
    assert w is not None and w.verify(g, c)


def test_witness_with_edge_index_outside_the_graph_fails_verification():
    g, c = make_path(2), Coloring((1, 1), 1)
    assert not RainbowWitness((0,), (1,)).verify(g, c)
    assert not RainbowWitness((3,), (1,)).verify(g, c)
    assert not RainbowWitness((1, 4), (1, 2)).verify(make_path(4), Coloring((1, 2), 2))
    assert RainbowWitness((2,), (1,)).verify(g, c)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_is_lexicographically_first_rainbow_matching(seed):
    # random graphs with at most 10 edges, bipartite or not, every m up to nu + 1
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(rng.sample(pairs, rng.randint(1, min(10, len(pairs))))))
    t = rng.randint(1, g.edge_count)
    assignment = [rng.randint(1, t) for _ in range(g.edge_count)]
    remap = {c: i + 1 for i, c in enumerate(sorted(set(assignment)))}
    c = Coloring(tuple(remap[a] for a in assignment), len(remap))
    for m in range(1, brute_max_matching_size(g) + 2):
        w = find_rainbow_matching(g, c, m)
        assert (None if w is None else (w.edges, w.colors)) == brute_first_rainbow_matching(g, c, m)


def test_max_matching_size_non_bipartite():
    assert max_matching_size(make_cycle(5)) == 2
    assert max_matching_size(make_cycle(7)) == 3
    assert max_matching_size(make_path(6)) == 3


# --- the representative-choice oracle -----------------------------------------


def test_representative_oracle_trivial_cases():
    g = make_path(1)
    assert enumerate_representative_choices(g, Coloring((1,), 1), 1)
    g2 = make_path(4)
    assert not enumerate_representative_choices(g2, Coloring((1, 2, 3, 4), 4), 3)


def test_oracles_agree_on_all_colorings_of_p5():
    g = make_path(5)
    for c in canonical_colorings(5, max_colors=4):
        for m in range(1, 4):
            assert enumerate_representative_choices(g, c, m) == (
                find_rainbow_matching(g, c, m) is not None
            ), (c, m)


def test_oracles_agree_with_third_brute_force():
    rng = random.Random(4242)
    for _ in range(80):
        g = random_bipartite(rng, max_side=4, p=0.5)
        if not 1 <= g.edge_count <= 9:
            continue
        t = rng.randint(1, g.edge_count)
        assignment = [rng.randint(1, t) for _ in range(g.edge_count)]
        # densify colors
        palette = sorted(set(assignment))
        remap = {c: i + 1 for i, c in enumerate(palette)}
        c = Coloring(tuple(remap[a] for a in assignment), len(palette))
        for m in range(1, 4):
            want = brute_has_rainbow_matching(g, c, m)
            assert (find_rainbow_matching(g, c, m) is not None) == want
            assert enumerate_representative_choices(g, c, m) == want


def test_counting_argument_forces_rainbow():
    # any coloring with more colors than ext(G, m) contains a rainbow m-matching
    for g, m in [(make_path(5), 2), (make_cycle(6), 2), (make_circulant_regular_bipartite(3, 2), 2)]:
        cap = ext_exact(g, m).value
        for c in canonical_colorings(g.edge_count, max_colors=min(g.edge_count, cap + 2)):
            if c.color_count > cap:
                assert find_rainbow_matching(g, c, m) is not None, (g.edges, c, m)
