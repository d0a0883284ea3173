"""Graph files, coloring files and the allowlist share one line-file syntax:
'#' comments and blank lines are dropped wherever they appear, and a field
that should be an integer and is not is reported with its line."""

import re

import pytest

from rainbowlab import load_allowlist, parse_coloring, parse_graph


def _read(kind, text, tmp_path):
    if kind == "allowlist":
        path = tmp_path / "entries.allow"
        path.write_text(text, encoding="utf-8")
        return load_allowlist(path)
    return {"graph": parse_graph, "coloring": parse_coloring}[kind](text)


BARE = {
    "graph": "bipartite 2 2 3\n0 2\n0 3\n1 2\n",
    "coloring": "coloring 3 2\n1 1\n2 2\n3 1\n",
    "allowlist": "T3.6 family=cycle n=4 m=2\nT2.5 n=5 k=3 m=3 seed=2\n",
}
COMMENTED = {
    "graph": "# rainbowlab family=test\n\nbipartite 2 2 3  # header\n0 2\n\n  # between\n"
             "0 3 # x1 y1\n\n1 2\n# trailing\n",
    "coloring": "# two colors\ncoloring 3 2 # header\n\n1 1\n  # between\n2 2  # odd one\n\n3 1\n",
    "allowlist": "\n# first entry\nT3.6 family=cycle n=4 m=2  # the C4 cell\n\n  \n"
                 "# second\nT2.5 n=5 k=3 m=3 seed=2\n# done\n",
}


@pytest.mark.parametrize("kind", ["graph", "coloring", "allowlist"])
def test_comments_and_blank_lines_between_records_change_nothing(kind, tmp_path):
    assert _read(kind, COMMENTED[kind], tmp_path) == _read(kind, BARE[kind], tmp_path)


@pytest.mark.parametrize(
    "kind, text, line, match",
    [
        ("graph", "graph 2 1\n0 x\n", "0 x", "bad edge line"),
        ("graph", "graph 2 x\n0 1\n", "graph 2 x", "non-integer field"),
        ("coloring", "coloring 1 1\n1 x\n", "1 x", "bad coloring line"),
        ("allowlist", "T3.6 family=cycle n=x m=2\n", "T3.6 family=cycle n=x m=2",
         "non-integer field"),
        ("allowlist", "T3.7 family=cycle n=4 m=2\n", "T3.7 family=cycle n=4 m=2",
         "unknown allowlist theorem id 'T3.7'"),
    ],
    ids=["graph_edge", "graph_header", "coloring_line", "allowlist_value",
         "allowlist_theorem_id"],
)
def test_a_bad_field_is_reported_with_its_line(kind, text, line, match, tmp_path):
    with pytest.raises(ValueError, match=re.escape(match)) as exc:
        _read(kind, text, tmp_path)
    assert repr(line) in str(exc.value)
    assert "invalid literal" not in str(exc.value)
