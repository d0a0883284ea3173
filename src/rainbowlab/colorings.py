"""Edge colorings, the canonical (restricted-growth) enumeration, and file I/O.

A coloring assigns every edge of a host graph one color from 1..t, and every
color is used at least once.  Rainbow-freeness is invariant under renaming
colors, so exhaustive searches only ever enumerate canonical colorings:
restricted-growth strings, where edge i may use a color at most one larger
than the maximum color on earlier edges.  That quotients out all t!
permutations of each color partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Coloring",
    "canonical_colorings",
    "split_color_class",
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

    def color_of(self, edge_index: int) -> int:
        return self.assignment[edge_index - 1]

    def color_classes(self) -> dict[int, list[int]]:
        """Edge indices per color, each list ascending."""
        classes: dict[int, list[int]] = {c: [] for c in range(1, self.color_count + 1)}
        for i, c in enumerate(self.assignment, start=1):
            classes[c].append(i)
        return classes


def canonical_colorings(edge_count: int, max_colors: int | None = None) -> Iterator[Coloring]:
    """All canonical colorings of edge_count edges, optionally capped at max_colors.

    Yields restricted-growth strings in lexicographic order; every surjective
    coloring is color-isomorphic to exactly one string yielded here.
    """
    if edge_count < 1:
        raise ValueError("need at least one edge to color")
    cap = edge_count if max_colors is None else min(max_colors, edge_count)
    assignment = [0] * edge_count

    def extend(i: int, t: int) -> Iterator[Coloring]:
        if i == edge_count:
            yield Coloring(tuple(assignment), t)
            return
        for c in range(1, min(t + 1, cap) + 1):
            assignment[i] = c
            yield from extend(i + 1, max(t, c))

    yield from extend(0, 0)


def split_color_class(coloring: Coloring, edge_indices: set[int]) -> Coloring:
    """Refine a coloring by moving some edges of one class to a fresh color.

    The moved edges must form a proper nonempty subset of a single class;
    they receive color color_count + 1.
    """
    if not edge_indices:
        raise ValueError("nothing to split")
    colors = {coloring.color_of(i) for i in edge_indices}
    if len(colors) != 1:
        raise ValueError("edges to split must currently share one color")
    (old_color,) = colors
    class_size = sum(1 for c in coloring.assignment if c == old_color)
    if len(edge_indices) >= class_size:
        raise ValueError("splitting must leave the old class nonempty")
    new_assignment = tuple(
        coloring.color_count + 1 if i in edge_indices else c
        for i, c in enumerate(coloring.assignment, start=1)
    )
    return Coloring(new_assignment, coloring.color_count + 1)


# --- file format ------------------------------------------------------------
#
#   coloring <edge_count> <color_count>
#   <edge_index> <color_index>               (both 1-based, one line per edge)


def format_coloring(coloring: Coloring, *, comment: str | None = None) -> str:
    lines: list[str] = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    lines.append(f"coloring {coloring.edge_count} {coloring.color_count}")
    for i, c in enumerate(coloring.assignment, start=1):
        lines.append(f"{i} {c}")
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> Coloring:
    header: list[str] | None = None
    seen: dict[int, int] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = line.split()
            if header[0] != "coloring" or len(header) != 3:
                raise ValueError(f"bad coloring header: {raw_line!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad coloring line: {raw_line!r}")
        edge_index, color = int(parts[0]), int(parts[1])
        if edge_index in seen:
            raise ValueError(f"edge {edge_index} colored twice")
        seen[edge_index] = color
    if header is None:
        raise ValueError("empty coloring file")
    edge_count, color_count = int(header[1]), int(header[2])
    if set(seen) != set(range(1, edge_count + 1)):
        raise ValueError(f"expected every edge 1..{edge_count} exactly once")
    assignment = tuple(seen[i] for i in range(1, edge_count + 1))
    return Coloring(assignment, color_count)  # surjectivity validated on construction


def save_coloring(coloring: Coloring, path, *, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_coloring(coloring, comment=comment))


def load_coloring(path) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coloring(fh.read())
