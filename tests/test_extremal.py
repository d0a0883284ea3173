import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowlab import (
    BudgetExceededError,
    Coloring,
    Graph,
    canonical_colorings,
    ext_exact,
    ext_formula_regular,
    find_rainbow_matching,
    make_circulant_regular_bipartite,
    make_complete_bipartite,
    make_cycle,
    make_path,
    max_matching_size,
    rb_bounds_regular,
    rb_exact,
    rb_formula_complete_bipartite,
    rb_formula_cycle,
    rb_formula_path,
    rb_formula_regular,
    verify_theorem,
)
from helpers import (
    brute_ext,
    brute_has_rainbow_matching,
    brute_max_matching_size,
    is_disjoint_edge_set,
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
    assert result.method == "cover_based"


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
    g = make_cycle(5)
    result = ext_exact(g, 2)
    assert result.method == "branch_and_bound"
    assert result.value == brute_ext(g, 2)


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
    assert result.method == "cover_based"
    assert result.value == 10 == ext_exact(make_complete_bipartite(5), 3).value


def test_ext_rejects_m_zero_and_big_non_bipartite():
    with pytest.raises(ValueError):
        ext_exact(make_path(3), 0)
    big = make_cycle(19)
    with pytest.raises(BudgetExceededError):
        ext_exact(big, 2)


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


# --- rb exact -----------------------------------------------------------------


def test_rb_path_values():
    assert rb_exact(make_path(4), 2).rb_value == 2
    assert rb_exact(make_path(3), 2).rb_value == 3


def test_rb_complete_bipartite():
    assert rb_exact(make_complete_bipartite(3), 3).rb_value == 5


def test_rb_four_cycle_disagrees_with_formula():
    result = rb_exact(make_cycle(4), 2)
    assert result.rb_value == 3
    assert rb_formula_cycle(4, 2).value == 2
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
            lo, hi = rb_bounds_regular(n, k, m)
            assert lo <= rb_exact(g, m).rb_value <= hi, (n, k, m)


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


# P14 with m = 4 takes 3,616 nodes, fewer than TIMEOUT_CHECK_INTERVAL, so it
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


def test_t25_holds_on_first_nontrivial_cells():
    # m = 3 with n = 7 > 3(m-1): rb = k(m-2)+2 on circulant and random
    # 3- and 4-regular bipartite graphs of up to 28 edges
    records = verify_theorem("T2.5", n_range=(7, 7), k_range=(3, 4), m_range=(3, 3),
                             samples=2, edge_budget=28, timeout_ms=30_000)
    assert len(records) == 4
    assert [r.status for r in records] == ["match"] * 4, records


def test_rb_complete_bipartite_k55():
    result = rb_exact(make_complete_bipartite(5), 3, edge_budget=25, timeout_ms=30_000)
    assert result.rb_value == rb_formula_complete_bipartite(5, 3) == 7


# --- closed forms ---------------------------------------------------------------


def test_bounds_values():
    assert rb_bounds_regular(4, 3, 2) == (2, 4)
    assert rb_bounds_regular(5, 3, 3) == (5, 7)
    assert rb_bounds_regular(6, 2, 2) == (2, 3)


def test_bounds_reject_m1_with_pointer():
    with pytest.raises(ValueError, match="rb\\(G, one edge\\) = 1"):
        rb_bounds_regular(4, 3, 1)


def test_regular_formula():
    assert rb_formula_regular(4, 3, 2) == 2
    assert rb_formula_regular(7, 3, 3) == 5
    assert rb_formula_regular(6, 3, 3) is None  # n = 3(m-1) boundary
    assert rb_formula_regular(9, 2, 2) is None  # k below 3


def test_path_formula():
    assert rb_formula_path(6, 3) == 5
    assert rb_formula_path(7, 3) == 4
    assert rb_formula_path(4, 2) == 2
    with pytest.raises(ValueError):
        rb_formula_path(4, 3)


def test_cycle_formula():
    assert rb_formula_cycle(6, 3) == (5, False)
    assert rb_formula_cycle(8, 3) == (4, False)
    disputed = rb_formula_cycle(4, 2)
    assert disputed.value == 2 and disputed.disputed
    with pytest.raises(ValueError):
        rb_formula_cycle(5, 3)


def test_complete_bipartite_formula():
    assert rb_formula_complete_bipartite(3, 2) == 2
    assert rb_formula_complete_bipartite(3, 3) == 5
    assert rb_formula_complete_bipartite(4, 4) == 10
    with pytest.raises(ValueError, match="n >= 3"):
        rb_formula_complete_bipartite(2, 2)


def test_matching_number_guard_uses_exact_value():
    # rb_exact's matching-number precondition agrees with brute force
    for g in [make_path(5), make_cycle(5), make_cycle(6)]:
        assert brute_max_matching_size(g) == max_matching_size(g)
