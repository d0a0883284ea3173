import pytest

from rainbowlab import Coloring, parse_coloring
from rainbowlab.colorings import format_coloring

from helpers import canonical_colorings

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_coloring_requires_surjectivity():
    with pytest.raises(ValueError):
        Coloring((1, 3), 3)  # color 2 unused
    with pytest.raises(ValueError):
        Coloring((1, 2), 1)  # color 2 out of range


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonical_enumeration_counts_bell(n):
    assert sum(1 for _ in canonical_colorings(n)) == BELL[n]


def test_canonical_enumeration_respects_cap():
    seen = list(canonical_colorings(5, max_colors=2))
    assert all(c.color_count <= 2 for c in seen)
    assert len(seen) == 1 + 15  # Stirling2(5,1) + Stirling2(5,2)


def test_canonical_strings_are_restricted_growth():
    for c in canonical_colorings(5):
        running_max = 0
        for color in c.assignment:
            assert color <= running_max + 1
            running_max = max(running_max, color)


def test_file_round_trip():
    c = Coloring((2, 1, 2, 3), 3)
    assert parse_coloring(format_coloring(c)) == c


def test_parse_accepts_shuffled_lines():
    c = parse_coloring("coloring 3 2\n3 1\n1 2\n2 1\n")
    assert c.assignment == (2, 1, 1)


def test_parse_validates_surjectivity():
    with pytest.raises(ValueError):
        parse_coloring("coloring 2 2\n1 1\n2 1\n")  # declares 2 colors, uses 1


def test_parse_rejects_missing_or_duplicate_edges():
    with pytest.raises(ValueError):
        parse_coloring("coloring 3 2\n1 1\n2 2\n")
    with pytest.raises(ValueError):
        parse_coloring("coloring 2 2\n1 1\n1 2\n2 2\n")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Coloring((1,), 0), "at least one color"),
        (lambda: Coloring((), 1), "at least one edge"),
        (lambda: parse_coloring("colouring 1 1\n1 1\n"), "bad coloring header"),
        (lambda: parse_coloring("coloring 1 1\n1 1 1\n"), "bad coloring line"),
        (lambda: parse_coloring("# only a comment\n\n"), "empty coloring file"),
    ],
    ids=["no_colors", "no_edges", "bad_header", "bad_line", "empty_file"],
)
def test_coloring_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
