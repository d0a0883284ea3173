"""Edge colorings and their file I/O.

A coloring assigns every edge of a host graph one color from 1..t, and every
color is used at least once.  Rainbow-freeness is invariant under renaming
colors, so the exhaustive search in extremal.py only builds canonical
colorings: restricted-growth strings, where edge i may use a color at most one
larger than the maximum color on earlier edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import _data_lines, _format_lines, _ints, _read_line_file

__all__ = [
    "Coloring",
    "parse_coloring",
    "format_coloring",
    "load_coloring",
    "save_coloring",
]


@dataclass(frozen=True)
class Coloring:
    """Surjective assignment of dense color indices 1..color_count to edges.

    assignment[i - 1] is the color of edge i (1-based, in host edge order).
    """

    assignment: tuple[int, ...]
    color_count: int

    def __post_init__(self):
        if self.color_count < 1:
            raise ValueError("a coloring needs at least one color")
        used = set(self.assignment)
        if not used:
            raise ValueError("a coloring needs at least one edge")
        if used != set(range(1, self.color_count + 1)):
            missing = sorted(set(range(1, self.color_count + 1)) - used)
            extra = sorted(used - set(range(1, self.color_count + 1)))
            raise ValueError(
                f"coloring is not a surjection onto 1..{self.color_count}"
                f" (missing {missing}, out-of-range {extra})"
            )

    @property
    def edge_count(self) -> int:
        return len(self.assignment)


# --- file format: a line file (graphs.py) -------------------------------------
#
#   coloring <edge_count> <color_count>
#   <edge_index> <color_index>               (both 1-based, one line per edge)


def format_coloring(coloring: Coloring, *, comment: str | None = None) -> str:
    lines = [f"coloring {coloring.edge_count} {coloring.color_count}"]
    lines += [f"{i} {c}" for i, c in enumerate(coloring.assignment, start=1)]
    return _format_lines(lines, comment)


def parse_coloring(text: str) -> Coloring:
    lines = _data_lines(text)
    raw_line, header = next(lines, (None, None))
    if header is None:
        raise ValueError("empty coloring file")
    if header[0] != "coloring" or len(header) != 3:
        raise ValueError(f"bad coloring header: {raw_line!r}")
    edge_count, color_count = _ints(raw_line, header[1:])
    seen: dict[int, int] = {}
    for raw_line, fields in lines:
        try:
            i, c = fields
            edge_index, color = int(i), int(c)
        except ValueError:
            raise ValueError(f"bad coloring line: {raw_line!r}") from None
        if edge_index in seen:
            raise ValueError(f"edge {edge_index} colored twice")
        seen[edge_index] = color
    if set(seen) != set(range(1, edge_count + 1)):
        raise ValueError(f"expected every edge 1..{edge_count} exactly once")
    assignment = tuple(seen[i] for i in range(1, edge_count + 1))
    return Coloring(assignment, color_count)  # surjectivity validated on construction


def save_coloring(coloring: Coloring, path, *, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_coloring(coloring, comment=comment))


def load_coloring(path) -> Coloring:
    return _read_line_file(path, parse_coloring)
