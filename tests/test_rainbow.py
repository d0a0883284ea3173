import random

import pytest
from hypothesis import given, settings, strategies as st

from rainbowlab import (
    Coloring,
    Graph,
    RainbowWitness,
    ext_exact,
    extremal_coloring_cycle_tight,
    extremal_coloring_path_simple,
    extremal_coloring_path_tight,
    find_rainbow_matching,
    make_circulant_regular_bipartite,
    make_cycle,
    make_path,
    max_matching_size,
    extremal_coloring_regular,
)
from rainbowlab.rainbow import _side_cover
from helpers import (
    canonical_colorings,
    brute_first_rainbow_matching,
    brute_has_rainbow_matching,
    brute_max_matching_size,
    brute_max_rainbow_matching,
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


def _complete_graph(n: int) -> Graph:
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def _disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.vertex_count
    return Graph(offset, tuple(edges))


def _double_star(k: int) -> Graph:
    # adjacent centres 0 and 1, each with k leaves; matching number 2
    return Graph(2 + 2 * k, ((0, 1), *((0, 2 + i) for i in range(k)),
                             *((1, 2 + k + i) for i in range(k))))


@pytest.mark.parametrize(
    "g, m",
    [
        (_complete_graph(9), 5),
        (_complete_graph(11), 6),
        (_disjoint_union(make_cycle(11), make_cycle(11), make_cycle(11)), 16),
        *((_disjoint_union(*[_double_star(k)] * k), 2 * k + 1) for k in range(2, 6)),
    ],
    ids=["K9_m5", "K11_m6", "3xC11_m16", "2xS22_m5", "3xS33_m7", "4xS44_m9", "5xS55_m11"],
)
def test_no_rainbow_matching_above_the_matching_number_with_distinct_colors(g, m):
    # every edge its own color, so the color count never binds; the answer rests on nu = m - 1
    assert max_matching_size(g) == m - 1
    distinct = Coloring(tuple(range(1, g.edge_count + 1)), g.edge_count)
    assert find_rainbow_matching(g, distinct, m) is None


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
    # edge 0 and edge -1 would read the last edges through negative indexing
    assert not RainbowWitness((0,), (1,)).verify(g, c)
    assert not RainbowWitness((-1,), (1,)).verify(g, c)
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


def _dense_coloring(assignment) -> Coloring:
    remap = {c: i + 1 for i, c in enumerate(sorted(set(assignment)))}
    return Coloring(tuple(remap[a] for a in assignment), len(remap))


def _random_coloring(rng: random.Random, edge_count: int) -> Coloring:
    t = rng.randint(1, edge_count)
    return _dense_coloring([rng.randint(1, t) for _ in range(edge_count)])


def _color_masks(colors) -> list[int]:
    masks = [0] * (max(colors) + 1)
    for j, c in enumerate(colors):
        masks[c] |= 1 << j
    return masks


def _assert_witness_is_brute_first_for_every_m(g: Graph, c: Coloring):
    for m in range(1, brute_max_matching_size(g) + 2):
        w = find_rainbow_matching(g, c, m)
        assert (None if w is None else (w.edges, w.colors)) == brute_first_rainbow_matching(g, c, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_is_brute_first_on_bipartite_graphs_of_up_to_14_edges(seed):
    # sides of up to 6 vertices, where the side cover cuts
    rng = random.Random(seed)
    g = random_bipartite(rng, max_side=6, p=rng.uniform(0.2, 0.6))
    if not g.edges:
        return
    g = Graph(g.vertex_count, tuple(rng.sample(g.edges, min(14, g.edge_count))))
    _assert_witness_is_brute_first_for_every_m(g, _random_coloring(rng, g.edge_count))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_is_brute_first_on_non_bipartite_graphs_of_up_to_12_edges(seed):
    # an odd cycle plus random chords and pendant edges, so no side cover applies
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    cycle = rng.sample(range(n), rng.randrange(3, n + 1, 2))
    edges = {tuple(sorted((u, cycle[(i + 1) % len(cycle)]))) for i, u in enumerate(cycle)}
    others = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - edges)
    edges |= set(rng.sample(others, min(len(others), rng.randint(0, 12 - len(edges)))))
    g = Graph(n, tuple(rng.sample(sorted(edges), len(edges))))
    assert g.bipartition is None
    _assert_witness_is_brute_first_for_every_m(g, _random_coloring(rng, g.edge_count))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_is_brute_first_on_recolored_path_and_cycle_constructions(seed):
    # the 2m-3 and 2m-2 colorings with up to two edges recolored: unlike random
    # colorings, their searches come back to refuted (avail, need) pairs
    rng = random.Random(seed)
    n = rng.randint(4, 13)
    if rng.random() < 0.5:
        m = rng.randint(2, (n + 1) // 2)
        tight = n <= 3 * m - 3
        report = (extremal_coloring_path_tight if tight else extremal_coloring_path_simple)(n, m)
    else:
        report = extremal_coloring_cycle_tight(n, rng.randint((n + 5) // 3, (n + 2) // 2))
    assignment = list(report.coloring.assignment)
    for _ in range(rng.randint(0, 2)):
        assignment[rng.randrange(n)] = rng.randint(1, max(assignment) + 1)
    _assert_witness_is_brute_first_for_every_m(report.graph, _dense_coloring(assignment))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000))
def test_side_cover_bounds_every_rainbow_matching(seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, max_side=5, p=rng.uniform(0.2, 0.7))
    if not 1 <= g.edge_count <= 14:
        return
    colors = _random_coloring(rng, g.edge_count).assignment
    color_masks = _color_masks(colors)
    avail = rng.getrandbits(g.edge_count)
    most = brute_max_rainbow_matching(g, colors, avail)
    for side in g.bipartition:
        side_masks = [g.incidence[v] for v in side]
        assert _side_cover(avail, side_masks, colors, color_masks) >= most, (g.edges, colors, avail)


def test_a_refuted_pair_does_not_refute_the_same_edges_at_a_smaller_need():
    # after edges 1 and 3, edges 8-10 (colors 5, 4, 5) hold no rainbow
    # 2-matching; after edges 1, 4 and 6 the same three edges need only give one
    g = make_path(10)
    c = Coloring((3, 3, 1, 2, 1, 1, 3, 5, 4, 5), 5)
    w = find_rainbow_matching(g, c, 4)
    assert (w.edges, w.colors) == ((1, 4, 6, 8), (3, 2, 1, 5))


def test_side_cover_refutes_the_star_coloring_at_the_root():
    # the m-2 star centres on Y see many colors, every other Y-vertex only the
    # shared one: a cover of m-1 elements, so no rainbow 9-matching
    g = make_circulant_regular_bipartite(16, 4)
    colors = extremal_coloring_regular(g, 9).coloring.assignment
    y_masks = [g.incidence[v] for v in g.bipartition[1]]
    assert _side_cover((1 << g.edge_count) - 1, y_masks, colors, _color_masks(colors)) == 8


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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: find_rainbow_matching(make_path(3), Coloring((1, 2, 3), 3), 0),
         "matching size must be positive"),
        (lambda: RainbowWitness((1, 3), (1,)), "must align"),
        (lambda: RainbowWitness((1, 3), (2, 2)), "pairwise distinct"),
    ],
    ids=["search_m0", "witness_misaligned", "witness_repeated_color"],
)
def test_rainbow_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "witness",
    [RainbowWitness((1, 2), (1, 2)), RainbowWitness((1,), (2,))],
    ids=["shared_vertex", "wrong_color"],
)
def test_witness_that_is_no_rainbow_matching_fails_verification(witness):
    assert not witness.verify(make_path(4), Coloring((1, 2, 1, 2), 2))
