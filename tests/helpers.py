"""Independent brute-force oracles used to cross-check the library.

Everything here is written the dumbest correct way (itertools over subsets),
on purpose: these are the second route of every dual-route check, so they
must not share logic with the implementations they gate.  That includes the
representative-choice rainbow oracle (enumerate_representative_choices), the
second route to find_rainbow_matching's answer on small colored graphs, the
enumeration of every canonical coloring (canonical_colorings), the second
route to rb_exact's pruned search, the union over every rainbow matching of
the edges it avoids (brute_closable) and of the colors it misses
(brute_avoided_colors), the second route to rb_exact's search kernel, the
pairs of edges that one rainbow matching avoids (brute_conflicts), the
second route to prune (c)'s conflict table, the lexicographically first
rainbow matching inside an edge bitmask
(brute_first_rainbow_matching_in), the second route to the rainbow matching
that prune (b) grows, the lexicographically first canonical coloring with
the most colors and no rainbow m-matching (brute_extremal_coloring), the
second route to rb_exact, the largest rainbow matching inside an edge bitmask
(brute_max_rainbow_matching), the yardstick of find_rainbow_matching's side
cover bound, and the scan of every (m-1)-vertex subset (brute_cover_ext), the
second route to ext_exact's cover branch and bound, and the scan of every
vertex sequence for a shortest odd cycle (brute_odd_girth), the second route
to the breadth-first odd girth.
The augmenting-path matching size is not brute force, but it shares nothing
with the bitmask branching of max_matching_size, so it checks that routine on
graphs too large for brute force.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Iterator

from rainbowlab import Coloring, Graph

REPRESENTATIVE_ORACLE_MAX_EDGES = 20


def is_disjoint_edge_set(g: Graph, edge_indices) -> bool:
    touched = set()
    for i in edge_indices:
        u, v = g.edges[i - 1]
        if u in touched or v in touched:
            return False
        touched.update((u, v))
    return True


def canonical_colorings(edge_count: int, max_colors: int | None = None) -> Iterator[Coloring]:
    """All canonical colorings of edge_count edges, optionally capped at max_colors.

    Yields restricted-growth strings (edge i may use a color at most one larger
    than the maximum color on earlier edges) in lexicographic order; every
    surjective coloring is color-isomorphic to exactly one string yielded here.
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


def brute_matchings_of_size(g: Graph, size: int):
    for combo in combinations(range(1, g.edge_count + 1), size):
        if is_disjoint_edge_set(g, combo):
            yield combo


def brute_max_matching_size(g: Graph) -> int:
    for size in range(g.edge_count, 0, -1):
        for _ in brute_matchings_of_size(g, size):
            return size
    return 0


def brute_has_rainbow_matching(g: Graph, coloring, m: int) -> bool:
    for combo in brute_matchings_of_size(g, m):
        colors = [coloring.assignment[i - 1] for i in combo]
        if len(set(colors)) == m:
            return True
    return False


def brute_first_rainbow_matching(g: Graph, coloring, m: int):
    """The lexicographically first m-edge rainbow matching, as (edges, colors),
    or None."""
    for combo in brute_matchings_of_size(g, m):
        colors = tuple(coloring.assignment[i - 1] for i in combo)
        if len(set(colors)) == m:
            return combo, colors
    return None


def brute_closable(g: Graph, colors, avail: int, need: int, target: int) -> int:
    """The edges of bitmask `target` that some rainbow matching of `need` edges
    of bitmask `avail` avoids (shares no vertex with), in Graph's encoding (bit
    j is edge j + 1) with colors[j] the color of edge j + 1: every need-subset
    of avail that is a rainbow matching, and the union of the target edges it
    touches no endpoint of."""
    def edges_of(mask):
        return [i for i in range(1, g.edge_count + 1) if mask >> (i - 1) & 1]

    closable = 0
    for combo in combinations(edges_of(avail), need):
        if not is_disjoint_edge_set(g, combo):
            continue
        if len({colors[i - 1] for i in combo}) < need:
            continue
        touched = {v for i in combo for v in g.edges[i - 1]}
        for j in edges_of(target):
            if not touched & set(g.edges[j - 1]):
                closable |= 1 << (j - 1)
    return closable


def brute_avoided_colors(g: Graph, colors, avail: int, need: int, target: int) -> int:
    """The colors of bitmask `target` (bit c is color c) that some rainbow
    matching of `need` edges of bitmask `avail` has on none of its edges, in
    Graph's encoding (bit j is edge j + 1) with colors[j] the color of edge
    j + 1: every need-subset of avail that is a rainbow matching, and the
    union of the target colors it misses."""
    edges = [i for i in range(1, g.edge_count + 1) if avail >> (i - 1) & 1]
    avoided = 0
    for combo in combinations(edges, need):
        used = {colors[i - 1] for i in combo}
        if len(used) == need and is_disjoint_edge_set(g, combo):
            avoided |= target & ~sum(1 << c for c in used)
    return avoided


def brute_conflicts(g: Graph, colors, pool: int, size: int, j: int, target: int) -> int:
    """The edges of bitmask `target` disjoint from edge j + 1 that, with it,
    some rainbow matching of `size` edges of bitmask `pool` avoids, in Graph's
    encoding (bit j is edge j + 1) with colors[j] the color of edge j + 1:
    every size-subset of pool that is a rainbow matching, and the union of the
    target edges that it, edge j + 1 and the target edge leave vertex-disjoint."""
    def edges_of(mask):
        return [i for i in range(1, g.edge_count + 1) if mask >> (i - 1) & 1]

    conflicts = 0
    for combo in combinations(edges_of(pool), size):
        if len({colors[i - 1] for i in combo}) < size:
            continue
        for k in edges_of(target):
            if k != j + 1 and is_disjoint_edge_set(g, combo + (j + 1, k)):
                conflicts |= 1 << (k - 1)
    return conflicts


def brute_first_rainbow_matching_in(g: Graph, colors, avail: int, need: int) -> int | None:
    """The lexicographically first rainbow matching of `need` edges of bitmask
    `avail`, as a bitmask, or None, in Graph's encoding (bit j is edge j + 1)
    with colors[j] the color of edge j + 1."""
    edges = [i for i in range(1, g.edge_count + 1) if avail >> (i - 1) & 1]
    for combo in combinations(edges, need):
        if len({colors[i - 1] for i in combo}) == need and is_disjoint_edge_set(g, combo):
            return sum(1 << (i - 1) for i in combo)
    return None


def brute_extremal_coloring(g: Graph, m: int) -> Coloring:
    """The lexicographically first canonical coloring of g with the most colors
    and no rainbow m-matching: canonical_colorings is lexicographic, so a
    strict > keeps the first coloring with each new record count."""
    best = None
    for c in canonical_colorings(g.edge_count):
        if best is not None and c.color_count <= best.color_count:
            continue
        if not brute_has_rainbow_matching(g, c, m):
            best = c
    return best


def brute_max_rainbow_matching(g: Graph, colors, avail: int) -> int:
    """The size of a largest rainbow matching among the edges of bitmask
    `avail`, in Graph's encoding (bit j is edge j + 1) with colors[j] the
    color of edge j + 1: the largest avail subset whose edges are pairwise
    disjoint and pairwise distinct in color."""
    edges = [i for i in range(1, g.edge_count + 1) if avail >> (i - 1) & 1]
    for size in range(min(len(edges), g.vertex_count // 2), 0, -1):
        for combo in combinations(edges, size):
            if len({colors[i - 1] for i in combo}) == size and is_disjoint_edge_set(g, combo):
                return size
    return 0


def augmenting_path_matching_size(g: Graph) -> int:
    """Matching number of a bipartite graph by augmenting paths from each X
    vertex (Kuhn's algorithm)."""
    x_side, _ = g.bipartition
    neighbors = {x: [v if u == x else u for u, v in g.edges if x in (u, v)] for x in x_side}
    partner: dict[int, int] = {}

    def augment(x: int, seen: set[int]) -> bool:
        for y in neighbors[x]:
            if y not in seen:
                seen.add(y)
                if y not in partner or augment(partner[y], seen):
                    partner[y] = x
                    return True
        return False

    return sum(augment(x, set()) for x in sorted(x_side))


def brute_ext(g: Graph, m: int) -> int:
    """Largest edge subset with no m-matching, by trying subsets largest first."""
    edge_ids = list(range(1, g.edge_count + 1))
    for size in range(g.edge_count, -1, -1):
        for subset in combinations(edge_ids, size):
            if not any(
                is_disjoint_edge_set(g, combo) for combo in combinations(subset, m)
            ):
                return size
    return 0


def brute_cover_ext(g: Graph, m: int) -> tuple[int, frozenset[int]]:
    """ext(g, m) by the cover identity, which holds on a bipartite graph or
    one of odd girth above 2m - 1, scanning every (m-1)-vertex subset in
    order: the most edges some m-1 vertices touch, and the edges of the
    first subset that touches that many."""
    cover_size = min(m - 1, g.vertex_count)
    best_value = -1
    best_edges: frozenset[int] = frozenset()
    for subset in combinations(range(g.vertex_count), cover_size):
        chosen = set(subset)
        incident = [i for i, (u, v) in enumerate(g.edges, start=1) if u in chosen or v in chosen]
        if len(incident) > best_value:
            best_value = len(incident)
            best_edges = frozenset(incident)
    return best_value, best_edges


def enumerate_representative_choices(g: Graph, coloring, m: int) -> bool:
    """Rainbow-matching oracle: try every m-subset of colors and every choice
    of one edge per chosen color, and report whether some choice is pairwise
    disjoint.  Refuses graphs with more than REPRESENTATIVE_ORACLE_MAX_EDGES
    edges."""
    if m < 1:
        raise ValueError(f"matching size must be positive, got {m}")
    if coloring.edge_count != g.edge_count:
        raise ValueError(
            f"coloring covers {coloring.edge_count} edges but graph has {g.edge_count}"
        )
    if g.edge_count > REPRESENTATIVE_ORACLE_MAX_EDGES:
        raise ValueError(
            f"representative oracle is limited to {REPRESENTATIVE_ORACLE_MAX_EDGES} edges, "
            f"got {g.edge_count}"
        )
    classes = {c: [] for c in range(1, coloring.color_count + 1)}
    for i, c in enumerate(coloring.assignment, start=1):
        classes[c].append(i)
    for color_subset in combinations(sorted(classes), m):
        for choice in product(*(classes[c] for c in color_subset)):
            if is_disjoint_edge_set(g, choice):
                return True
    return False


def brute_odd_girth(g: Graph) -> int | None:
    """The length of a shortest odd cycle of g, by trying every sequence of
    an odd number of distinct vertices, shortest first; None when there is none."""
    pairs = {frozenset(e) for e in g.edges}
    # a cycle passes only through vertices of degree 2 or more
    on_two = [v for v in range(g.vertex_count) if sum(v in e for e in pairs) >= 2]
    for length in range(3, len(on_two) + 1, 2):
        for cycle in permutations(on_two, length):
            if all(frozenset((cycle[j - 1], cycle[j])) in pairs for j in range(length)):
                return length
    return None


def random_bipartite(rng: random.Random, max_side: int = 6, p: float = 0.4) -> Graph:
    """Seeded random bipartite graph with sides up to max_side (so at most
    2 * max_side vertices), possibly with isolated vertices or no edges."""
    nx = rng.randint(1, max_side)
    ny = rng.randint(1, max_side)
    edges = []
    for x in range(nx):
        for y in range(ny):
            if rng.random() < p:
                edges.append((x, nx + y))
    return Graph(nx + ny, tuple(edges))
