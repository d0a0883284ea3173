import pytest

from rainbowlab import (
    extremal_coloring_cycle_tight,
    extremal_coloring_path_simple,
    extremal_coloring_path_tight,
    extremal_coloring_regular,
    find_rainbow_matching,
    make_circulant_regular_bipartite,
    make_complete_bipartite,
    make_cycle,
    make_path,
    rb_exact,
)


def test_regular_construction_b43():
    g = make_circulant_regular_bipartite(4, 3)
    report = extremal_coloring_regular(g, 3)
    assert report.colors_used == 4  # k(m-2)+1
    assert report.rainbow_free_certified


def test_regular_construction_m2_is_monochromatic():
    g = make_circulant_regular_bipartite(5, 2)
    report = extremal_coloring_regular(g, 2)
    assert report.colors_used == 1
    assert set(report.coloring.assignment) == {1}
    assert report.rainbow_free_certified


def test_regular_construction_complete_bipartite():
    report = extremal_coloring_regular(make_complete_bipartite(3), 3)
    assert report.colors_used == 4
    assert report.rainbow_free_certified


def test_regular_construction_rejects_irregular():
    with pytest.raises(ValueError):
        extremal_coloring_regular(make_path(4), 2)


def test_path_simple_examples():
    report = extremal_coloring_path_simple(5, 3)
    assert report.coloring.assignment == (1, 2, 3, 3, 3)
    assert report.colors_used == 3
    assert report.rainbow_free_certified

    assert extremal_coloring_path_simple(4, 2).coloring.assignment == (1, 1, 1, 1)
    assert extremal_coloring_path_simple(7, 3).coloring.assignment == (1, 2, 3, 3, 3, 3, 3)


def test_path_tight_examples():
    report = extremal_coloring_path_tight(6, 3)
    assert report.coloring.assignment == (2, 1, 2, 4, 3, 4)
    assert report.colors_used == 4
    assert report.rainbow_free_certified

    assert extremal_coloring_path_tight(3, 2).coloring.assignment == (2, 1, 2)
    assert extremal_coloring_path_tight(9, 4).coloring.assignment == (
        2, 1, 2, 4, 3, 4, 6, 5, 6,
    )


def test_path_tight_rejects_long_paths():
    with pytest.raises(ValueError, match="path_simple"):
        extremal_coloring_path_tight(7, 3)  # n > 3m-3


def test_cycle_tight_examples_certify():
    report = extremal_coloring_cycle_tight(6, 3)
    assert report.colors_used == 4
    assert report.rainbow_free_certified  # certified at run time, never assumed
    report9 = extremal_coloring_cycle_tight(9, 4)
    assert report9.colors_used == 6
    assert report9.rainbow_free_certified


def test_cycle_tight_triangle():
    # a triangle has no 2-matching at all, so the pattern is trivially free
    report = extremal_coloring_cycle_tight(3, 2)
    assert report.coloring.assignment == (2, 1, 2)
    assert report.rainbow_free_certified


def test_color_count_formulas():
    for n, k, m in [(4, 3, 2), (4, 3, 3), (5, 3, 3), (4, 4, 3)]:
        g = make_circulant_regular_bipartite(n, k)
        assert extremal_coloring_regular(g, m).colors_used == k * (m - 2) + 1
    for n, m in [(4, 2), (6, 3), (9, 4)]:
        assert extremal_coloring_path_simple(n, m).colors_used == 2 * m - 3
    for n, m in [(3, 2), (6, 3), (8, 4)]:
        assert extremal_coloring_path_tight(n, m).colors_used == 2 * m - 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: extremal_coloring_regular(make_circulant_regular_bipartite(12, 5), 7),
        lambda: extremal_coloring_regular(make_circulant_regular_bipartite(16, 4), 9),
        lambda: extremal_coloring_path_simple(60, 16),
        lambda: extremal_coloring_path_tight(30, 11),
        lambda: extremal_coloring_cycle_tight(30, 11),
        lambda: extremal_coloring_cycle_tight(29, 11),  # odd, so non-bipartite
        lambda: extremal_coloring_cycle_tight(27, 10),
        lambda: extremal_coloring_cycle_tight(43, 22),
        lambda: extremal_coloring_cycle_tight(45, 23),
    ],
    ids=["regular_c12_5_m7", "regular_c16_4_m9", "path_simple_60_16", "path_tight_30_11",
         "cycle_tight_30_11", "cycle_tight_29_11", "cycle_tight_27_10", "cycle_tight_43_22",
         "cycle_tight_45_23"],
)
def test_constructions_certify_at_scale(build):
    # each is certified by an exhaustive search, never assumed
    assert build().rainbow_free_certified


def test_certification_is_rechecking_the_search():
    report = extremal_coloring_path_tight(6, 3)
    assert find_rainbow_matching(report.graph, report.coloring, 3) is None


def test_lower_bound_linkage():
    # each construction's color count is at most f of its instance
    g = make_circulant_regular_bipartite(4, 3)
    report = extremal_coloring_regular(g, 3)
    assert rb_exact(g, 3).f_value >= report.colors_used

    for n, m in [(5, 3), (6, 3), (7, 3)]:
        applicable = (
            extremal_coloring_path_tight(n, m)
            if n <= 3 * m - 3
            else extremal_coloring_path_simple(n, m)
        )
        assert rb_exact(make_path(n), m).f_value >= applicable.colors_used


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: extremal_coloring_regular(make_cycle(5), 2), "requires a bipartite graph"),
        (lambda: extremal_coloring_regular(make_cycle(6), 1), r"2 <= m <= \|Y\| violated"),
        (lambda: extremal_coloring_regular(make_cycle(6), 4), r"2 <= m <= \|Y\| violated"),
        (lambda: extremal_coloring_path_simple(5, 1), r"2 <= m <= ceil\(n/2\) violated"),
        (lambda: extremal_coloring_path_simple(5, 4), r"2 <= m <= ceil\(n/2\) violated"),
        (lambda: extremal_coloring_path_tight(5, 1), r"2 <= m <= ceil\(n/2\) violated"),
        (lambda: extremal_coloring_path_tight(5, 4), r"2 <= m <= ceil\(n/2\) violated"),
        (lambda: extremal_coloring_cycle_tight(3, 1), "m >= 2 violated"),
        (lambda: extremal_coloring_cycle_tight(5, 4), "needs n >= 2m-2"),
        (lambda: extremal_coloring_cycle_tight(7, 3), "only for n <= 3m-3"),
    ],
    ids=["regular_odd_cycle", "regular_m1", "regular_m_above_y", "path_simple_m1",
         "path_simple_m_too_big", "path_tight_m1", "path_tight_m_too_big", "cycle_tight_m1",
         "cycle_tight_short_cycle", "cycle_tight_long_cycle"],
)
def test_construction_range_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_only_the_path_pattern_points_a_long_input_to_the_simple_path_pattern():
    with pytest.raises(ValueError, match="takes extremal_coloring_path_simple$"):
        extremal_coloring_path_tight(10, 3)
    with pytest.raises(ValueError) as exc:
        extremal_coloring_cycle_tight(10, 3)
    assert str(exc.value) == "tight pattern applies only for n <= 3m-3 (got n=10, m=3)"
