import random
import re
import time
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rainbowlab import (
    DISPUTED_FORMULA_CELLS,
    BudgetExceededError,
    Coloring,
    Graph,
    ext_exact,
    ext_formula_regular,
    find_rainbow_matching,
    make_circulant_regular_bipartite,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_random_regular_bipartite,
    max_matching_size,
    rb_bounds,
    rb_exact,
    rb_formula,
    verify_theorem,
)
from rainbowlab import extremal
from rainbowlab.extremal import (
    _add_conflicts,
    _closable,
    _conflict_free,
    _ext_branch_and_bound,
    _greedy_order,
    _odd_girth,
    _rainbow_matching,
    _search,
)
from helpers import (
    brute_avoided_colors,
    brute_closable,
    brute_conflicts,
    canonical_colorings,
    brute_cover_ext,
    brute_ext,
    brute_extremal_coloring,
    brute_first_rainbow_matching_in,
    brute_has_rainbow_matching,
    brute_max_matching_size,
    brute_max_rainbow_matching,
    brute_odd_girth,
    is_disjoint_edge_set,
    random_bipartite,
)


# --- ext ---------------------------------------------------------------------


def test_ext_regular_example():
    g = make_circulant_regular_bipartite(4, 3)
    assert ext_exact(g, 2).value == 3


def test_ext_m1_is_zero():
    assert ext_exact(make_path(5), 1).value == 0


def test_ext_path_matches_brute_force():
    g = make_path(4)
    result = ext_exact(g, 2)
    assert result.value == brute_ext(g, 2) == 2
    assert result.cover is not None


def test_ext_witness_invariants():
    for g, m in [
        (make_path(6), 3),
        (make_cycle(7), 2),
        (make_circulant_regular_bipartite(4, 2), 3),
    ]:
        result = ext_exact(g, m)
        assert len(result.witness_edges) == result.value
        sub_edges = sorted(result.witness_edges)
        # no m pairwise-disjoint edges inside the witness
        from itertools import combinations

        assert not any(
            is_disjoint_edge_set(g, combo) for combo in combinations(sub_edges, m)
        )


def test_ext_odd_cycle_uses_branch_and_bound():
    # odd girth 5 = 2m - 1: the whole cycle has no 3-matching
    g = make_cycle(5)
    result = ext_exact(g, 3)
    assert result.cover is None
    assert result.value == brute_ext(g, 3) == 5


def test_ext_odd_cycles_match_brute_force():
    for n in (3, 5, 7):
        g = make_cycle(n)
        for m in range(2, n // 2 + 1):
            assert ext_exact(g, m).value == brute_ext(g, m), (n, m)


def test_ext_graph_built_without_sides_uses_cover_route():
    # K_{5,5} as a caller builds it, with no sides given: 25 edges is above the
    # non-bipartite edge limit, so only the cover route can answer.
    g = Graph(10, make_complete_bipartite(5).edges)
    result = ext_exact(g, 3)
    assert result.cover is not None
    assert result.value == 10 == ext_exact(make_complete_bipartite(5), 3).value


def test_ext_rejects_m_zero_and_big_non_bipartite():
    with pytest.raises(ValueError):
        ext_exact(make_path(3), 0)
    big = make_cycle(19)  # odd girth 19 = 2m - 1, so only branch and bound could answer
    with pytest.raises(BudgetExceededError):
        ext_exact(big, 10)


def test_ext_formula_values():
    assert ext_formula_regular(5, 3, 3) == 6
    assert ext_formula_regular(4, 4, 2) == 4
    assert ext_formula_regular(3, 1, 2) == 1


def test_ext_formula_names_violated_constraint():
    with pytest.raises(ValueError, match="k <= n"):
        ext_formula_regular(3, 4, 2)
    with pytest.raises(ValueError, match="2 <= m <= n"):
        ext_formula_regular(5, 3, 7)


def test_ext_consistency_small_sweep():
    for n in range(3, 6):
        for k in range(2, n + 1):
            g = make_circulant_regular_bipartite(n, k)
            for m in range(2, n + 1):
                assert ext_exact(g, m).value == k * (m - 1), (n, k, m)


@pytest.mark.parametrize(
    ("g", "m", "value"),
    [
        (make_complete_bipartite(12), 7, 72),
        (make_complete_bipartite(12), 13, 144),
        (make_circulant_regular_bipartite(16, 5), 5, 20),
    ],
    ids=["K12,12_m7", "K12,12_m13", "circulant(16,5)_m5"],
)
def test_ext_pinned_cells(g, m, value):
    assert ext_exact(g, m).value == value


def test_ext_k12_12_witness_is_the_first_six_x_vertices():
    result = ext_exact(make_complete_bipartite(12), 7)
    assert result.cover == frozenset(range(6))
    assert result.witness_edges == frozenset(range(1, 73))


def test_ext_cover_at_the_ends_of_the_m_range():
    g = make_path(3)  # 4 vertices
    assert ext_exact(g, 1).cover == frozenset()
    for m in (5, 6):  # m-1 >= |V|: every vertex, every edge
        result = ext_exact(g, m)
        assert (result.value, result.cover) == (3, frozenset(range(4)))
    assert ext_exact(make_cycle(5), 3).cover is None


@st.composite
def cover_route_graph(draw):
    """A bipartite graph with its vertices relabelled at random: an irregular
    one from random_bipartite (isolated vertices, several components or no
    edges at all), or a random k-regular one, whose degrees all tie."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        g = random_bipartite(random.Random(seed), max_side=draw(st.integers(1, 6)),
                             p=draw(st.sampled_from((0.2, 0.4, 0.6, 0.8))))
    else:
        n = draw(st.integers(1, 6))
        g = make_random_regular_bipartite(n, draw(st.integers(1, n)), seed)
    label = draw(st.permutations(range(g.vertex_count)))
    return Graph(g.vertex_count, tuple((label[u], label[v]) for u, v in g.edges))


@settings(max_examples=300, deadline=None)
@given(cover_route_graph())
def test_ext_cover_route_matches_the_scan_of_every_subset(g):
    for m in range(2, g.vertex_count + 2):
        result = ext_exact(g, m)
        value, witness = brute_cover_ext(g, m)
        assert (result.value, result.witness_edges) == (value, witness), (g.edges, m)
        assert result.cover is not None
        # the certificate: at most m-1 vertices whose edges are the witness
        assert len(result.cover) <= m - 1
        assert result.witness_edges == frozenset(
            i for i, (u, v) in enumerate(g.edges, start=1)
            if u in result.cover or v in result.cover)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_ext_odd_cycle_at_odd_girth_2m_minus_1_takes_every_edge(n):
    # m = (n + 1) / 2: the cycle itself has no m-matching, but m - 1 vertices
    # touch only n - 1 of its edges, so the cover route would be one short
    g, m = make_cycle(n), (n + 1) // 2
    result = ext_exact(g, m)
    assert (result.value, result.cover) == (n, None)
    assert brute_cover_ext(g, m)[0] == n - 1


def test_ext_long_odd_cycle_takes_the_cover_route():
    g = make_cycle(17)
    result = ext_exact(g, 5)
    assert (result.value, result.cover) == (8, frozenset({0, 2, 4, 6}))
    assert result.witness_edges == frozenset(
        i for i, (u, v) in enumerate(g.edges, start=1) if u in result.cover or v in result.cover)


@st.composite
def long_odd_girth_graph(draw):
    """A graph with an odd cycle of length 7 to 13, relabelled at random: the
    cycle, pendant trees hung from it, and up to two more edges, kept only
    when the odd girth stays at 5 or more so that some m >= 2 has odd girth
    above 2m - 1.  At most 16 edges, for the search over edge subsets."""
    length = draw(st.sampled_from((7, 9, 11, 13)))
    edges = [(j, (j + 1) % length) for j in range(length)]
    vertex_count = length
    for _ in range(draw(st.integers(0, 16 - length))):
        edges.append((draw(st.integers(0, vertex_count - 1)), vertex_count))
        vertex_count += 1
    for _ in range(draw(st.integers(0, min(2, 16 - len(edges))))):
        u, v = draw(st.lists(st.integers(0, vertex_count - 1), min_size=2, max_size=2,
                             unique=True))
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    label = draw(st.permutations(range(vertex_count)))
    g = Graph(vertex_count, tuple((label[u], label[v]) for u, v in edges))
    assume(_odd_girth(g) >= 5)
    return g


@settings(max_examples=150, deadline=None)
@given(long_odd_girth_graph())
def test_ext_cover_route_on_long_odd_girth_matches_the_edge_subset_search(g):
    girth = _odd_girth(g)
    for m in range(2, (girth + 1) // 2):  # odd girth above 2m - 1
        result = ext_exact(g, m)
        assert result.value == _ext_branch_and_bound(g, m)[0], (g.edges, m)
        assert result.witness_edges == brute_cover_ext(g, m)[1], (g.edges, m)
        # the certificate: at most m-1 vertices whose edges are the witness
        assert result.cover is not None and len(result.cover) <= m - 1
        assert result.witness_edges == frozenset(
            i for i, (u, v) in enumerate(g.edges, start=1)
            if u in result.cover or v in result.cover)


# --- rb exact -----------------------------------------------------------------


def test_rb_path_values():
    assert rb_exact(make_path(4), 2).rb_value == 2
    assert rb_exact(make_path(3), 2).rb_value == 3


def test_rb_complete_bipartite():
    assert rb_exact(make_complete_bipartite(3), 3).rb_value == 5


def test_rb_four_cycle_disagrees_with_formula():
    result = rb_exact(make_cycle(4), 2)
    assert result.rb_value == 3
    assert rb_formula("cycle", 4, None, 2) == 2
    # the certifying coloring: opposite edges share a color
    assert find_rainbow_matching(make_cycle(4), Coloring((1, 2, 1, 2), 2), 2) is None


def test_rb_result_coherence():
    result = rb_exact(make_path(6), 3)
    assert result.rb_value == result.f_value + 1
    coloring = result.extremal_coloring
    assert coloring.color_count == result.f_value
    assert find_rainbow_matching(make_path(6), coloring, 3) is None


def test_every_coloring_at_rb_colors_has_rainbow():
    for g, m in [(make_path(4), 2), (make_cycle(4), 2), (make_cycle(5), 2)]:
        rb = rb_exact(g, m).rb_value
        for c in canonical_colorings(g.edge_count):
            if c.color_count == rb:
                assert find_rainbow_matching(g, c, m) is not None, (g.edges, c)


def test_f_at_most_ext():
    for g, m in [
        (make_path(7), 3),
        (make_cycle(6), 2),
        (make_circulant_regular_bipartite(4, 3), 3),
    ]:
        assert rb_exact(g, m).f_value <= ext_exact(g, m).value


def test_rb_sandwich_regular():
    for n, k in [(3, 2), (4, 3), (4, 4), (5, 2), (5, 3)]:
        g = make_circulant_regular_bipartite(n, k)
        for m in (2, 3):
            if m > n:
                continue
            lo, hi = rb_bounds("circulant", n, k, m)
            assert lo <= rb_exact(g, m).rb_value <= hi, (n, k, m)


def test_rb_of_random_regular_6_3_is_5_on_every_ladder_seed():
    # the benchmark ladder pins rb = 5 for this cell with m = 3 on seeds 0..119
    for seed in range(120):
        g = make_random_regular_bipartite(6, 3, seed)
        assert rb_exact(g, 3, edge_budget=18).rb_value == 5, seed


def test_rb_budget_refusal_and_override():
    g = make_circulant_regular_bipartite(5, 4)  # 20 edges
    with pytest.raises(BudgetExceededError):
        rb_exact(g, 2)
    assert rb_exact(g, 2, edge_budget=20).rb_value == 2


def test_rb_rejects_m_above_matching_number():
    with pytest.raises(ValueError):
        rb_exact(make_path(4), 3)


def test_rb_m1_special_case():
    result = rb_exact(make_path(3), 1)
    assert (result.f_value, result.rb_value) == (0, 1)
    assert result.extremal_coloring is None


# P14 with m = 4 takes 127 nodes, fewer than TIMEOUT_CHECK_INTERVAL, so it
# shows whether the deadline is checked before the first interval ends.
@pytest.mark.parametrize(
    ("g", "m"),
    [(make_complete_bipartite(4), 4), (make_path(14), 4)],
    ids=["K44_m4", "P14_m4"],
)
def test_rb_timeout_is_budget_refusal(g, m):
    with pytest.raises(BudgetExceededError):
        rb_exact(g, m, timeout_ms=0.0)


def test_rb_extremal_coloring_is_lex_minimal():
    # every canonical coloring strictly below the witness in lex order either
    # uses fewer colors or contains a rainbow matching
    g = make_path(5)
    m = 2
    result = rb_exact(g, m)
    witness = result.extremal_coloring.assignment
    for c in canonical_colorings(5):
        if c.assignment >= witness:
            continue
        assert (
            c.color_count < result.f_value
            or find_rainbow_matching(g, c, m) is not None
        )


@st.composite
def small_graph(draw):
    """Any simple graph with 2 to 7 edges, bipartite or not, connected or not."""
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    size = min(draw(st.integers(2, 7)), len(pairs))
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True,
                                        min_size=size, max_size=size))))


@example(Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4))))  # triangle plus a disjoint edge
@example(Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))))  # two triangles
@example(Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6))))  # C5 plus an edge
@example(make_cycle(7))
@example(make_path(7))
@settings(max_examples=300, deadline=None)
@given(small_graph())
def test_rb_exact_matches_brute_force_enumeration(g):
    # second route: every canonical coloring, checked by the brute-force
    # helper; canonical_colorings is lexicographic, so a strict > keeps the
    # lex-first coloring among those with the most colors
    for m in range(2, brute_max_matching_size(g) + 1):
        best = None
        for c in canonical_colorings(g.edge_count):
            if best is not None and c.color_count <= best.color_count:
                continue
            if not brute_has_rainbow_matching(g, c, m):
                best = c
        result = rb_exact(g, m)
        assert (result.f_value, result.rb_value, result.extremal_coloring) == (
            best.color_count,
            best.color_count + 1,
            best,
        ), (g.edges, m)


# The search tree and extremal coloring of seventeen cells, pinned: a faster
# kernel must cut exactly this tree and return exactly this coloring.  Every
# search exhausts its tree, since its ceiling, the edge count, is out of
# reach.  The P14, C13, m = 3, P16, C15, P18 and C17 cells have
# f < ext(G, m); on P12, C12 and C11 f = ext(G, m), which is also prune
# (b)'s cap at the root.  The rainbow matching bound of prune (b) cuts the
# path and cycle cells to a few thousand nodes or fewer, prune (c) cuts the
# cycles with m >= 5 and the m = 4 circulants further, and the dense m = 3
# trees are as they were.  `nodes` is the tree of one search in the given order;
# `raced` is rb_exact's count over both phases.  A given-order tree
# under the first node cap (1,024) is rb_exact's whole count.  Above it the
# greedy order wins the dense m = 3 cells (K_{5,5}: 35,085 nodes in the given
# order, 1,279 raced) and loses P18 and C17, where the given order finishes
# at a later cap.
@pytest.mark.parametrize(
    ("g", "m", "nodes", "raced", "coloring"),
    [
        (make_path(14), 4, 127, 127, "11111111112345"),
        (make_cycle(13), 5, 796, 796, "1111111234567"),
        (make_circulant_regular_bipartite(7, 3), 3, 245, 245, "111111111111111111234"),
        (make_circulant_regular_bipartite(5, 4), 3, 1_849, 1_235, "11111111111111112345"),
        (make_complete_bipartite(4), 3, 1_838, 1_178, "1111111111112345"),
        (make_path(12), 5, 138, 138, "121343565787"),
        (make_cycle(12), 5, 297, 297, "121343565787"),
        (make_path(12), 6, 224, 224, "1213435678910"),
        (make_cycle(11), 5, 259, 259, "12134356578"),
        (make_path(16), 5, 382, 382, "1111111111234567"),
        (make_cycle(15), 5, 934, 934, "111111111234567"),
        (make_path(18), 6, 1_141, 3_072, "111111111123456789"),
        (make_circulant_regular_bipartite(8, 3), 4, 900, 900, "111111111111111111234567"),
        (make_circulant_regular_bipartite(10, 3), 4, 912, 912, "111111111111111111111111234567"),
        (make_cycle(17), 6, 6_652, 20_886, "11111111123456789"),
        (make_complete_bipartite(5), 3, 35_085, 1_279, "1111111111111111111123456"),
        (make_circulant_regular_bipartite(7, 5), 3, 35_108, 1_499,
         "11111111111111111111111111111123456"),
    ],
    ids=["P14_m4", "C13_m5", "circulant73_m3", "circulant54_m3", "K44_m3",
         "P12_m5", "C12_m5", "P12_m6", "C11_m5", "P16_m5", "C15_m5", "P18_m6",
         "circulant83_m4", "circulant103_m4", "C17_m6", "K55_m3", "circulant75_m3"],
)
def test_rb_search_tree_is_pinned(g, m, nodes, raced, coloring):
    f, assignment, examined = _search(g, m, None, g.edge_count)
    assert examined == nodes
    assert "".join(map(str, assignment)) == coloring
    result = rb_exact(g, m, edge_budget=g.edge_count)
    assert result.colorings_examined == raced
    assert (result.f_value, result.extremal_coloring.assignment) == (f, assignment)


def test_rb_timeout_holds_across_restarts():
    # K_{6,6} with m = 5 takes about a minute, over a dozen attempts of both
    # orders, so a 1-s timeout needs every attempt to check the one deadline
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        rb_exact(make_complete_bipartite(6), 5, edge_budget=36, timeout_ms=1000)
    assert time.monotonic() - start < 2.0


@st.composite
def race_case(draw):
    """A random bipartite graph of up to 5 + 5 vertices or any small graph
    (small_graph), and an m from 2 up to its matching number."""
    if draw(st.booleans()):
        g = random_bipartite(random.Random(draw(st.integers(0, 2**32 - 1))), max_side=5)
    else:
        g = draw(small_graph())
    assume(g.edge_count and max_matching_size(g) >= 2)
    return g, draw(st.integers(2, max_matching_size(g)))


@settings(max_examples=150, deadline=None)
@given(race_case())
def test_a_forced_race_matches_the_exhaustive_search(case):
    # a first node cap of 1 makes every cell alternate the two orders, with
    # caps 1, 1, 2, 2, 4, 4, ..., and take its coloring from phase 2 unless
    # the given order finishes first
    g, m = case
    f, assignment, _ = _search(g, m, None, g.edge_count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extremal, "_FIRST_NODE_CAP", 1)
        result = rb_exact(g, m, edge_budget=g.edge_count)
    assert (result.f_value, result.extremal_coloring.assignment) == (f, assignment), (g.edges, m)
    if g.edge_count <= 7:
        assert result.extremal_coloring == brute_extremal_coloring(g, m), (g.edges, m)


@settings(max_examples=150, deadline=None)
@given(race_case())
def test_the_seeded_search_finds_the_unseeded_coloring(case):
    # the ceiling g.edge_count is out of reach (m <= nu), so that search
    # exhausts the tree; a ceiling at or above f and a seed below it change
    # neither f nor the coloring, and a search they stop early visits no
    # more nodes than the exhaustive one
    g, m = case
    f, assignment, exhausted = _search(g, m, None, g.edge_count)
    for ceiling in {f, g.edge_count}:
        for best in range(f):
            f_seeded, seeded, nodes = _search(g, m, None, ceiling, best)
            assert (f_seeded, seeded) == (f, assignment), (g.edges, m, ceiling, best)
            assert nodes <= exhausted, (g.edges, m, ceiling, best)


@settings(max_examples=200, deadline=None)
@given(race_case())
def test_the_greedy_order_peels_maximal_matchings(case):
    g, _ = case
    order = _greedy_order(g)
    assert sorted(order) == list(range(g.edge_count))
    left = set(order)
    while order:
        # a batch runs while the next edge misses it, so it must be maximal
        # among the edges left, and taken in index order
        batch, ends = [], set()
        for j in order:
            if ends & set(g.edges[j]):
                break
            batch.append(j)
            ends |= set(g.edges[j])
        assert batch == sorted(batch)
        assert all(ends & set(g.edges[j]) for j in left - set(batch)), (g.edges, batch)
        left -= set(batch)
        order = order[len(batch):]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_ext_ceiling_changes_neither_f_nor_the_coloring(seed):
    # ceiling = edge_count is never reached (m <= nu), so that search exhausts the tree
    g = random_bipartite(random.Random(seed), max_side=5)
    for m in range(2, max_matching_size(g) + 1):
        ceiling = ext_exact(g, m).value
        stopped = _search(g, m, None, ceiling)
        exhausted = _search(g, m, None, g.edge_count)
        assert stopped[:2] == exhausted[:2], (g.edges, m)
        assert stopped[2] <= exhausted[2]


@st.composite
def closable_case(draw):
    """A simple graph of up to 10 edges, a coloring of it with up to 4 colors,
    and random avail and target edge masks."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True,
                                     min_size=1, max_size=min(10, len(pairs))))))
    colors = draw(st.lists(st.integers(1, 4), min_size=g.edge_count, max_size=g.edge_count))
    every = (1 << g.edge_count) - 1
    return g, colors, draw(st.integers(0, every)), draw(st.integers(0, every))


@settings(max_examples=300, deadline=None)
@given(closable_case(), st.integers(0, 2**5 - 1))
def test_closable_matches_the_union_over_every_rainbow_matching(case, target_colors):
    # edge targets are sieved by disjoint, color targets (bit c is color c)
    # by the complement of each edge's color bit
    g, colors, avail, target = case
    color_masks = [0] * 5
    for j, c in enumerate(colors):
        color_masks[c] |= 1 << j
    keep = [~(1 << c) for c in colors]
    for need in range(4):
        assert _closable(avail, need, target, g.disjoint, g.disjoint, colors, color_masks) == (
            brute_closable(g, colors, avail, need, target)), (g.edges, colors, need)
        assert _closable(avail, need, target_colors, keep, g.disjoint, colors, color_masks) == (
            brute_avoided_colors(g, colors, avail, need, target_colors)), (g.edges, colors, need)


@settings(max_examples=300, deadline=None)
@given(closable_case())
def test_rainbow_matching_is_the_first_one_inside_avail(case):
    g, colors, avail, _ = case
    color_masks = [0] * 5
    for j, c in enumerate(colors):
        color_masks[c] |= 1 << j
    for need in range(4):
        assert _rainbow_matching(avail, need, g.disjoint, colors, color_masks) == (
            brute_first_rainbow_matching_in(g, colors, avail, need)), (g.edges, colors, need)


@st.composite
def conflict_case(draw):
    """A simple graph of up to 10 vertices and 12 edges, a coloring of it with
    up to 4 colors, and for each edge the step after which it closes."""
    n = draw(st.integers(4, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True,
                                     min_size=1, max_size=12))))
    colors = draw(st.lists(st.integers(1, 4), min_size=g.edge_count, max_size=g.edge_count))
    closes = draw(st.lists(st.integers(0, g.edge_count), min_size=g.edge_count,
                           max_size=g.edge_count))
    late = draw(st.lists(st.booleans(), min_size=g.edge_count, max_size=g.edge_count))
    return g, colors, closes, late


@settings(max_examples=300, deadline=None)
@given(conflict_case())
def test_the_conflict_table_matches_every_rainbow_matching(case):
    # color the edges in order, as the search does; edge j is open after
    # step p while j > p and it has not closed, and an edge never reopens.
    # A late edge's conflicts are added at a later step, against that step's
    # smaller open set; after each step with nothing pending, table[j] must
    # hold exactly the open edges above j that conflict with j.  With skip,
    # a step with no rainbow (m-2)-matching among the colored edges drops its
    # pending edges unadded, as _search does below r = m - 2: every conflict
    # through such an edge needs one
    g, colors, closes, late = case
    for m in (4, 5):
        for skip in (False, True):
            table, pending, color_masks = [0] * g.edge_count, [], [0] * 5
            for p in range(g.edge_count):
                color_masks[colors[p]] |= 1 << p
                opened = sum(1 << j for j in range(p + 1, g.edge_count) if closes[j] > p)
                if skip and brute_max_rainbow_matching(g, colors, (2 << p) - 1) < m - 2:
                    pending.clear()
                else:
                    pending.append(p)
                    if late[p] and p < g.edge_count - 1:
                        continue
                    for q in pending:
                        _add_conflicts(table, q, opened, m - 2, g.disjoint, colors, color_masks)
                    pending.clear()
                for j in range(g.edge_count):
                    if opened >> j & 1:
                        assert table[j] & opened == brute_conflicts(
                            g, colors, (2 << p) - 1, m - 2, j, opened & -(2 << j)), (
                            g.edges, colors, closes, late, m, skip, p, j)


@settings(max_examples=200, deadline=None)
@given(closable_case(), st.integers(0, 2**10 - 1))
def test_conflict_free_matches_brute_force_over_subsets(case, keep):
    # the candidates are a subset of the target, as in the search's recursion
    g, colors, pool, target = case
    cands = target & keep
    edges = [j for j in range(g.edge_count) if cands >> j & 1]
    for size in range(3):
        table = [brute_conflicts(g, colors, pool, size, j, target) for j in range(g.edge_count)]
        largest = max(len(subset) for k in range(len(edges) + 1)
                      for subset in combinations(edges, k)
                      if not any(table[a] >> b & 1 for a, b in combinations(subset, 2)))
        for need in range(len(edges) + 2):
            assert _conflict_free(cands, need, table) == (need <= largest), (
                g.edges, colors, size, need)


def _union(*parts):
    """The disjoint union of cycles ("C", n) and paths ("P", n) with n edges each."""
    edges, base = [], 0
    for kind, n in parts:
        size = n if kind == "C" else n + 1
        edges += [(base + j, base + (j + 1) % size) for j in range(n)]
        base += size
    return Graph(base, tuple(edges))


@pytest.mark.parametrize(
    ("g", "girth"),
    [(make_cycle(n), n if n % 2 else None) for n in range(3, 10)]
    + [
        (Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))), 3),
        (_union(("C", 3), ("C", 5)), 3),
        (Graph(9, make_cycle(9).edges + ((0, 4),)), 5),
        (make_path(6), None),
        (make_complete_bipartite(3), None),
        (make_circulant_regular_bipartite(5, 3), None),
    ],
    ids=[f"C{n}" for n in range(3, 10)] + ["K4", "C3+C5", "C9_chord", "P6", "K33", "circulant53"],
)
def test_odd_girth(g, girth):
    assert _odd_girth(g) == girth


@settings(max_examples=300, deadline=None)
@given(small_graph())
def test_odd_girth_matches_the_shortest_odd_cycle_by_brute_force(g):
    assert _odd_girth(g) == brute_odd_girth(g), g.edges


# Prune (b) caps the edges that avoid the rainbow matching by the s largest
# degrees when G is bipartite or its odd girth exceeds 2s + 1, and by the 2s
# largest otherwise.  The triangle plus P6 takes the 2s branch at every s, C7
# with m = 3 the s branch on a graph that is not bipartite, and C5 plus P5 and
# C4 plus C5 (m = 4) the s branch at s = 1 and the 2s branch above.  C4 plus C5
# fails if the s branch is taken at s = 2, where its odd girth is 5 = 2s + 1.
@pytest.mark.parametrize(
    ("g", "m"),
    [
        (_union(("C", 3), ("P", 6)), 4),
        (_union(("C", 5), ("P", 5)), 4),
        (make_cycle(7), 3),
        (_union(("C", 4), ("C", 5)), 4),
    ],
    ids=["C3+P6_m4", "C5+P5_m4", "C7_m3", "C4+C5_m4"],
)
def test_both_caps_of_prune_b_match_brute_force(g, m):
    best = brute_extremal_coloring(g, m)
    result = rb_exact(g, m)
    assert (result.f_value, result.extremal_coloring) == (best.color_count, best)


# Prune (c) cuts C8 and C9 with m = 4 (123 and 191 nodes without it, 69 and
# 77 with it); on P8 and two 4-cycles with m = 4 it never cuts.
@pytest.mark.parametrize(
    ("g", "m", "nodes"),
    [(make_cycle(8), 4, 69), (make_cycle(9), 4, 77)],
    ids=["C8_m4", "C9_m4"],
)
def test_prune_c_matches_brute_force(g, m, nodes):
    best = brute_extremal_coloring(g, m)
    result = rb_exact(g, m)
    assert (result.f_value, result.extremal_coloring) == (best.color_count, best)
    assert result.colorings_examined == nodes


def test_t25_holds_on_first_nontrivial_cells():
    # m = 3 with n = 7 > 3(m-1): rb = k(m-2)+2 on circulant and random
    # 3- and 4-regular bipartite graphs of up to 28 edges
    records = verify_theorem("T2.5", n_range=(7, 7), k_range=(3, 4), m_range=(3, 3),
                             samples=2, edge_budget=28, timeout_ms=30_000)
    assert len(records) == 4
    assert [r.status for r in records] == ["match"] * 4, records


def test_rb_complete_bipartite_k55():
    result = rb_exact(make_complete_bipartite(5), 3, edge_budget=25, timeout_ms=30_000)
    assert result.rb_value == rb_formula("complete_bipartite", 5, None, 3) == 7


# --- closed forms ---------------------------------------------------------------


def test_bounds_values():
    assert rb_bounds("circulant", 4, 3, 2) == (2, 4)
    assert rb_bounds("random_regular", 5, 3, 3) == (5, 7)
    assert rb_bounds("circulant", 6, 2, 2) == (2, 3)


def test_bounds_reject_m1_with_pointer():
    with pytest.raises(ValueError, match="rb\\(G, one edge\\) = 1"):
        rb_bounds("circulant", 4, 3, 1)


def test_path_and_cycle_bounds_values():
    # T3.1 and T3.4: 2m-2 <= rb <= 2m-1 on the path or cycle with n edges
    assert rb_bounds("path", 3, None, 2) == (2, 3)
    assert rb_bounds("path", 7, None, 4) == (6, 7)
    assert rb_bounds("cycle", 4, None, 2) == (2, 3)
    assert rb_bounds("cycle", 9, None, 4) == (6, 7)


@pytest.mark.parametrize("family, n, m, match", [
    ("path", 4, 3, "constraint 2 <= m <= ceil(n/2) violated: m=3, n=4"),
    ("path", 6, 1, "constraint 2 <= m <= ceil(n/2) violated: m=1, n=6"),
    ("cycle", 5, 3, "constraint 2 <= m <= floor(n/2) violated: m=3, n=5"),
    ("cycle", 7, 4, "constraint 2 <= m <= floor(n/2) violated: m=4, n=7"),
], ids=["path_above", "path_m1", "cycle_above", "cycle_odd_above"])
def test_path_and_cycle_bounds_name_the_violated_range(family, n, m, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        rb_bounds(family, n, None, m)


@pytest.mark.parametrize("family, k", [("unknown", None), ("unknown", 3), ("circulant", None)],
                         ids=["unknown", "unknown_with_k", "circulant_without_k"])
def test_bounds_reject_a_family_without_a_closed_form(family, k):
    message = f"no closed form for family {family!r} with k={k}"
    with pytest.raises(ValueError, match=re.escape(message)):
        rb_bounds(family, 6, k, 2)


def test_regular_formula():
    assert rb_formula("circulant", 4, 3, 2) == 2
    assert rb_formula("circulant", 7, 3, 3) == 5
    assert rb_formula("random_regular", 6, 3, 3) is None  # n = 3(m-1) boundary
    assert rb_formula("circulant", 9, 2, 2) is None  # k below 3


def test_regular_formula_names_violated_constraint():
    with pytest.raises(ValueError, match="k >= 1"):
        rb_formula("circulant", 5, 0, 2)
    with pytest.raises(ValueError, match="2 <= m <= n"):
        rb_formula("random_regular", 5, 3, 6)


def test_path_formula():
    assert rb_formula("path", 6, None, 3) == 5
    assert rb_formula("path", 7, None, 3) == 4
    assert rb_formula("path", 4, None, 2) == 2
    with pytest.raises(ValueError):
        rb_formula("path", 4, None, 3)


def test_cycle_formula():
    assert rb_formula("cycle", 6, None, 3) == 5 and ("cycle", 6, 3) not in DISPUTED_FORMULA_CELLS
    assert rb_formula("cycle", 8, None, 3) == 4 and ("cycle", 8, 3) not in DISPUTED_FORMULA_CELLS
    assert rb_formula("cycle", 4, None, 2) == 2 and ("cycle", 4, 2) in DISPUTED_FORMULA_CELLS
    # the disputed cell is keyed by family: the path with 4 edges is not disputed
    assert ("path", 4, 2) not in DISPUTED_FORMULA_CELLS
    with pytest.raises(ValueError):
        rb_formula("cycle", 5, None, 3)


def test_complete_bipartite_formula():
    assert rb_formula("complete_bipartite", 3, None, 2) == 2
    assert rb_formula("complete_bipartite", 3, None, 3) == 5
    assert rb_formula("complete_bipartite", 4, None, 4) == 10
    with pytest.raises(ValueError, match="n >= 3"):
        rb_formula("complete_bipartite", 2, None, 2)


def _closed_form(family, n, k, m):
    """rb by the paper's closed form for the family, written out with no shared
    code: a value, None where the claim says nothing, or a ValueError holding the
    constraint that rb_formula must name.  k is 1..n on the regular families."""
    if family in ("path", "cycle"):
        top, name = ((n + 1) // 2, "ceil(n/2)") if family == "path" else (n // 2, "floor(n/2)")
        if not 2 <= m <= top:
            return ValueError(f"constraint 2 <= m <= {name} violated: m={m}, n={n}")
        return 2 * m - 1 if n <= 3 * m - 3 else 2 * m - 2  # T3.5, T3.6
    if family == "complete_bipartite" and n < 3:
        return ValueError(f"constraint n >= 3 violated: n={n}")
    if m == 1:
        return ValueError("constraint m >= 2 violated")
    if m > n:
        return ValueError(f"constraint 2 <= m <= n violated: m={m}, n={n}")
    if family == "complete_bipartite":
        return n * (m - 2) + 2  # K_{n,n}
    return k * (m - 2) + 2 if k >= 3 and n > 3 * (m - 1) else None  # T2.5


@pytest.mark.parametrize("family", ["path", "cycle", "complete_bipartite", "circulant",
                                    "random_regular"])
def test_rb_formula_agrees_with_the_family_formula(family):
    regular = family in ("circulant", "random_regular")
    for n in range(1, 9):
        for k in range(1, n + 1) if regular else [None]:
            for m in range(1, n + 2):
                expected = _closed_form(family, n, k, m)
                if isinstance(expected, ValueError):
                    with pytest.raises(ValueError, match=re.escape(str(expected))):
                        rb_formula(family, n, k, m)
                else:
                    assert rb_formula(family, n, k, m) == expected, (n, k, m)


def test_rb_formula_is_none_where_t25_says_nothing():
    assert rb_formula("circulant", 3, 3, 2) is None  # n = 3(m-1)
    assert rb_formula("random_regular", 9, 2, 2) is None  # k below 3
    assert rb_formula("circulant", 4, 3, 2) == 2


@pytest.mark.parametrize("family, k, m", [
    ("unknown", None, 2),
    ("unknown", 3, 2),
    ("circulant", None, 2),
    ("path", None, 1),
], ids=["unknown", "unknown_with_k", "circulant_without_k", "path_m1"])
def test_rb_formula_rejects_a_cell_without_a_closed_form(family, k, m):
    with pytest.raises(ValueError):
        rb_formula(family, 6, k, m)


def test_matching_number_guard_uses_exact_value():
    # rb_exact's matching-number precondition agrees with brute force
    for g in [make_path(5), make_cycle(5), make_cycle(6)]:
        assert brute_max_matching_size(g) == max_matching_size(g)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: rb_exact(make_path(3), 0), "matching size must be positive"),
        (lambda: rb_exact(Graph(3, ()), 1), "graphs with no edges"),
        (lambda: rb_exact(make_path(3), 3), "matching number is 2"),
        (lambda: rb_exact(make_path(3), 2, timeout_ms=float("nan")), "got NaN"),
        (lambda: rb_exact(make_path(3), 2, timeout_ms=-1), "timeout must be at least 0"),
        (lambda: rb_exact(make_path(3), 2, edge_budget=-1), "edge budget must be at least 0"),
        (lambda: rb_formula("complete_bipartite", 3, None, 4), r"2 <= m <= n violated"),
    ],
    ids=["rb_exact_m0", "rb_exact_edgeless", "rb_exact_m_above_nu", "rb_exact_nan_timeout",
         "rb_exact_negative_timeout", "rb_exact_negative_budget", "complete_bipartite_m_above_n"],
)
def test_rb_input_checks_name_the_violated_constraint(call, match):
    with pytest.raises(ValueError, match=match):
        call()
