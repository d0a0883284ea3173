"""Exact anti-Ramsey style computations and closed-form evaluators.

ext_exact computes the largest edge count of a subgraph with no matching of
size m: the most edges that m-1 vertices touch (Koenig) when G has no odd
cycle of length 2m-1 or less, a search over edge subsets otherwise.
rb_exact computes the rainbow number rb(G, m) = f(G, m) + 1, where
f(G, m) is the largest number of colors in a surjective edge-coloring of G
with no rainbow m-matching; the search enumerates canonical restricted-growth
colorings with three prunes (a rainbow m-matching among the colored edges,
and two bounds on new colors), and returns the lexicographically smallest
extremal coloring.  The first bound counts the uncolored edges that can
still open a new color (_closable), and caps those away from a largest
rainbow matching already colored (_rainbow_matching) by the edges at a few
largest-degree vertices: the paper's fact behind rb <= ext + 1 (one edge of
each color spans no m-matching) applied at every node.  The second is its
pairwise form: two disjoint uncolored edges that a colored rainbow
(m-2)-matching misses cannot both open a color (_conflicts), so the new
colors are at most the most open edges with no such pair among them
(_conflict_free).  On a bipartite graph the search also stops at its first
leaf with ext(G, m) colors, since no rainbow-free coloring has more.  The
one search routine (_search) runs in two phases.  The first finds f by
racing the given edge order against a greedy-matching order under doubling
node caps; the second takes the lexicographically smallest extremal coloring
from one given-order search that starts from f - 1.

Three entry points evaluate the closed forms: ext_formula_regular (ext on
k-regular bipartite graphs), rb_bounds (bounds on rb for k-regular families,
paths and cycles) and rb_formula (exact rb for k-regular families, complete
bipartite graphs, paths and cycles).  Each validates its stated parameter range
and names the violated constraint on rejection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate, count

from .colorings import Coloring
from .errors import BudgetExceededError
from .graphs import Graph
from .rainbow import _matching_number, find_rainbow_matching, max_matching_size

__all__ = [
    "ExtResult",
    "RbResult",
    "DISPUTED_FORMULA_CELLS",
    "DEFAULT_EDGE_BUDGET",
    "ext_exact",
    "ext_formula_regular",
    "rb_exact",
    "rb_bounds",
    "rb_formula",
]

DEFAULT_EDGE_BUDGET = 16
NONBIPARTITE_EXT_MAX_EDGES = 18
TIMEOUT_CHECK_INTERVAL = 4096
# the node cap of rb_exact's first two attempts; later pairs double it
_FIRST_NODE_CAP = 1024

# The (family, n, m) cells where rb_formula is known to disagree with the
# exhaustive oracle.  The one known cell: on the 4-cycle with m = 2, coloring
# opposite edges alike is rainbow-free with two colors, so the oracle gives 3
# while the two-branch cycle formula gives 2.
DISPUTED_FORMULA_CELLS = frozenset({("cycle", 4, 2)})


@dataclass(frozen=True)
class ExtResult:
    """Largest m-matching-free edge subset: its size, one attaining subset
    and, on the cover route, the at most m-1 vertices whose incident edges
    are that subset (None on the branch-and-bound route)."""

    value: int
    witness_edges: frozenset[int]
    cover: frozenset[int] | None


@dataclass(frozen=True)
class RbResult:
    """rb_exact's answer: f, the most colors of a coloring with no rainbow
    m-matching; the lexicographically smallest such coloring with f colors
    (None when m = 1); the search nodes of every attempt of rb_exact's two
    phases; and the wall time of the call."""

    f_value: int
    extremal_coloring: Coloring | None
    colorings_examined: int
    elapsed_ms: float

    @property
    def rb_value(self) -> int:
        return self.f_value + 1


# --- ext --------------------------------------------------------------------


def ext_exact(g: Graph, m: int) -> ExtResult:
    """Maximum number of edges of a subgraph of g with no matching of size m.

    Graphs with no odd cycle of length 2m-1 or less, bipartite ones included,
    are solved through the cover identity (Koenig): an edge set has no
    m-matching exactly when some m-1 vertices cover it, so the answer is the
    most edges that m-1 vertices touch.  Koenig needs the edge set to be
    bipartite, which an m-matching-free one then is (_koenig).  A depth-first
    branch and bound picks the vertices in increasing order, keeping the incident
    edges of the picked ones as a bitmask; a node with j picks left among
    vertices v and above is cut when its covered edges plus j times the
    largest degree among those vertices cannot beat the best count.  Only a
    strictly larger count replaces the best, and ties are cut, so the result
    is the lexicographically first (m-1)-subset of maximum coverage, the one
    a scan of every subset in order would return.  `cover` holds it and
    `witness_edges` its incident edges; with m-1 >= |V| the cover is every
    vertex, and with m = 1 it is empty.

    Graphs with an odd cycle of length 2m-1 or less fall back to branch and
    bound over edge subsets, testing each inclusion with the memoised exact
    matching number, and are refused above NONBIPARTITE_EXT_MAX_EDGES edges;
    their `cover` is None.  The cover would undercount there: on C5 with
    m = 3 the whole cycle has no 3-matching, but two vertices touch only 4
    of its 5 edges.
    """
    if m < 1:
        raise ValueError(f"matching size must be at least 1, got m={m} (m=0 is vacuous)")
    if m == 1:
        return ExtResult(0, frozenset(), frozenset())
    if _koenig(_odd_girth(g), m - 1):
        value, mask, cover = _ext_cover_based(g, m)
    elif g.edge_count > NONBIPARTITE_EXT_MAX_EDGES:
        raise BudgetExceededError(
            f"non-bipartite ext search is limited to {NONBIPARTITE_EXT_MAX_EDGES} edges, "
            f"got {g.edge_count}"
        )
    else:
        value, mask, cover = _ext_branch_and_bound(g, m)
    return ExtResult(value, frozenset(j + 1 for j in range(g.edge_count) if mask >> j & 1), cover)


def _ext_cover_based(g: Graph, m: int) -> tuple[int, int, frozenset[int]]:
    vertex_count, incidence = g.vertex_count, g.incidence
    # most[v]: the largest degree among vertices v, v+1, ...
    most = list(accumulate(reversed(g.degrees()), max))[::-1]
    best = (-1, 0, 0)  # covered edge count, covered edges and cover, as bitmasks

    def extend(v: int, need: int, covered: int, cover: int):
        nonlocal best
        count = covered.bit_count()
        if need == 0:
            if count > best[0]:
                best = (count, covered, cover)
            return
        for u in range(v, vertex_count - need + 1):
            # most[u] only shrinks as u grows, so no later u can do better
            if count + need * most[u] <= best[0]:
                return
            extend(u + 1, need - 1, covered | incidence[u], cover | 1 << u)

    extend(0, min(m - 1, vertex_count), 0, 0)
    value, covered, cover = best
    return value, covered, frozenset(v for v in range(vertex_count) if cover >> v & 1)


def _ext_branch_and_bound(g: Graph, m: int) -> tuple[int, int, None]:
    disjoint = g.disjoint
    edge_count = g.edge_count
    best_value = 0
    best_mask = 0
    memo: dict[int, int] = {}

    def bb(i: int, chosen_mask: int, chosen_count: int):
        nonlocal best_value, best_mask
        if chosen_count + (edge_count - i) <= best_value:
            return
        if i == edge_count:
            best_value = chosen_count
            best_mask = chosen_mask
            return
        # include edge i unless it completes an m-matching among chosen edges
        if _matching_number(chosen_mask & disjoint[i], disjoint, memo) < m - 1:
            bb(i + 1, chosen_mask | (1 << i), chosen_count + 1)
        bb(i + 1, chosen_mask, chosen_count)

    bb(0, 0, 0)
    return best_value, best_mask, None


def ext_formula_regular(n: int, k: int, m: int) -> int:
    """Closed form k*(m-1) for k-regular bipartite graphs on n+n vertices."""
    _check_regular(n, k, m)
    return k * (m - 1)


# --- rb exact search ---------------------------------------------------------


def _closable(avail: int, need: int, target: int, disjoint: tuple[int, ...], colors: list[int],
              color_masks: list[int]) -> int:
    """The edges of bitmask `target` that some rainbow matching of `need`
    edges inside bitmask `avail` (colored edges) avoids.  A chosen edge drops
    its color class and the edges it meets from the pool, and the target edges
    it meets from those it can still close; a branch with none left dies."""
    if need == 0:
        return target
    found = 0
    while avail and found != target:
        low = avail & -avail
        j = low.bit_length() - 1
        avail ^= low
        rest = target & disjoint[j] & ~found
        if rest:
            found |= _closable(avail & disjoint[j] & ~color_masks[colors[j]], need - 1, rest,
                               disjoint, colors, color_masks)
    return found


def _conflicts(j: int, pool: int, size: int, target: int, disjoint: tuple[int, ...],
               colors: list[int], color_masks: list[int]) -> int:
    """The edges of bitmask `target` that conflict with edge j: those disjoint
    from it that, with it, some rainbow matching of `size` edges inside bitmask
    `pool` (colored edges) avoids.  Such a matching avoids edge j exactly when
    it lies among the pool edges disjoint from j."""
    return _closable(pool & disjoint[j], size, target & disjoint[j], disjoint, colors, color_masks)


def _conflict_free(cands: int, need: int, conflicts: dict[int, int], target: int, pool: int,
                   size: int, disjoint: tuple[int, ...], colors: list[int],
                   color_masks: list[int]) -> bool:
    """Whether `need` edges of bitmask `cands` exist, no two of which conflict
    (_conflicts with `pool` and `size`).  The lowest candidate is taken, then
    dropped; a branch with fewer candidates than it needs dies.  conflicts[j]
    caches the edges of `target` above j that conflict with j, made when the
    test first takes j, so `target` must hold every candidate."""
    if need <= 0:
        return True
    while cands.bit_count() >= need:
        low = cands & -cands
        j = low.bit_length() - 1
        cands ^= low
        clash = conflicts.get(j)
        if clash is None:
            clash = conflicts[j] = _conflicts(j, pool, size, target & -(low << 1), disjoint,
                                              colors, color_masks)
        if _conflict_free(cands & ~clash, need - 1, conflicts, target, pool, size, disjoint,
                          colors, color_masks):
            return True
    return False


def _rainbow_matching(avail: int, need: int, disjoint: tuple[int, ...], colors: list[int],
                      color_masks: list[int]) -> int | None:
    """One rainbow matching of `need` edges inside bitmask `avail`, as a
    bitmask, or None when there is none: the first in lowest-edge-first order."""
    if need == 0:
        return 0
    while avail.bit_count() >= need:
        low = avail & -avail
        j = low.bit_length() - 1
        avail ^= low
        rest = _rainbow_matching(avail & disjoint[j] & ~color_masks[colors[j]], need - 1,
                                 disjoint, colors, color_masks)
        if rest is not None:
            return rest | low
    return None


def _odd_girth(g: Graph) -> int | None:
    """The length of a shortest odd cycle of g, or None when g is bipartite.

    An edge whose ends are both at distance d from a vertex v closes an odd
    walk of length 2d + 1, which holds an odd cycle no longer.  Walking round
    a shortest odd cycle through v, the distance from v changes by at most 1
    per edge and returns to 0 after an odd number of edges, so some edge has
    equal ends, at distance at most half the cycle's length: a breadth-first
    search from every vertex finds the shortest odd cycle exactly."""
    if g.bipartition is not None:
        return None
    neighbours: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    girth = g.vertex_count + 1  # longer than any cycle
    for root in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        dist[root] = 0
        level, d = [root], 0
        # a level d with 2d + 1 >= girth can close no shorter odd walk
        while level and 2 * d + 1 < girth:
            following = []
            for u in level:
                for w in neighbours[u]:
                    if dist[w] < 0:
                        dist[w] = d + 1
                        following.append(w)
                    elif dist[w] == d:
                        girth = 2 * d + 1
            level, d = following, d + 1
    return girth


def _koenig(girth: int | None, s: int) -> bool:
    """Whether, in a graph of odd girth `girth` (None when it is bipartite),
    every edge set of matching number at most s is covered by s vertices.
    An odd cycle of length 2j + 1 holds a j-matching, so such an edge set
    has no odd cycle when the graph has none of length 2s + 1 or less; it
    is then bipartite, and Koenig's theorem gives the cover."""
    return girth is None or girth > 2 * s + 1


class _NodeCapReached(Exception):
    """Raised by _search at its node cap; args[0] is the best count it had found."""


def _search(g: Graph, m: int, deadline: float | None, ceiling: int, best: int = 0,
            cap: int | None = None):
    """Search the canonical colorings of g's edges in lexicographic order;
    return the best rainbow-free color count, its lexicographically smallest
    assignment, and the number of search nodes visited.  Edges are colored in
    index order, so at edge i the colored edges are exactly the edges before i.

    `ceiling` is an upper bound on that count.  The search returns at the
    first leaf that reaches it and otherwise exhausts the tree.  Leaves are
    visited in lexicographic order and prunes (b) and (c) cut only subtrees
    that cannot beat the best count, so that first leaf is the one an
    exhaustive search keeps: the count and the assignment do not depend on
    the ceiling.

    `best` is a count the search starts from and must beat: the count of a
    coloring known to exist, so cutting what cannot beat it loses nothing.
    When no leaf beats it the assignment is None and the count is `best`.
    With `best` = f - 1 and `ceiling` = f for the largest count f, the search
    stops at the first leaf with f colors, the assignment an exhaustive search
    keeps.  The search raises _NodeCapReached, carrying its best count, at
    its `cap`-th node; with cap None it has no node cap.

    An uncolored edge j is closed when some rainbow (m-1)-matching among the
    colored edges avoids j: a new color on j would complete a rainbow
    m-matching.  The closed mask is exact, since after edge i is colored only
    matchings through i are new, and those avoid only edges disjoint from i;
    one _closable call re-tests those of them that are still open.  It is
    made only when the child's r (below) is m - 1, since a new rainbow
    (m-1)-matching through edge i would raise r to m - 1.

    Prune (a): colors of colored edges are final, so a branch dies the moment
    edge i's color c completes a rainbow m-matching, that is, when a rainbow
    (m-1)-matching among the colored edges avoids both edge i and color c.
    For a new color that is edge i's closed bit.  An open edge has no such
    matching for any c, so only a closed edge searches, once per reused color.

    Prune (b): each node carries r, the size of a largest rainbow matching M
    among the colored edges, M's edge mask `held`, and `touch`, the edges at
    M's 2r vertices.  Coloring edge i can raise r only by one, through a
    matching that uses edge i, so a child needs a rainbow r-matching among
    the colored edges disjoint from edge i and not of its color: M itself
    when it lies there, else the first one _rainbow_matching finds.  When
    there is one, it plus edge i is the child's M.  A leaf below the node
    with T > t colors gives each new color a first edge.  Those T - t edges
    are open now, since a closed edge never takes a new color and closed
    edges stay closed.
    A matching among those that miss touch, joined to M, is a rainbow matching
    of the leaf (M's colors are old and distinct, theirs new and distinct);
    the leaf is rainbow-free, so their matching number is at most
    s = m - 1 - r.  An edge set of matching number at most s is covered by the
    at most 2s ends of a maximal matching, and by s vertices when it is
    bipartite (Koenig), which it is when G is bipartite or its odd girth
    exceeds 2s + 1 (_koenig).
    So, with cap[s] the sum of the s (or 2s) largest degrees of G,
    T <= t + |open & touch| + min(|open - touch|, cap[s]), and a node whose
    bound is at most the best count found is cut.  The bound is never weaker
    than t + |open|, which is tested first as it is cheaper.

    Prune (c): two open edges f and f' conflict when they are disjoint and
    some rainbow (m-2)-matching N among the colored edges misses both
    (_conflicts).  The first edges of the T - t new colors of a leaf below
    the node are open now, as in prune (b), and no two of them conflict: N
    plus the pair would be a rainbow m-matching of the leaf, since N's colors
    are old and distinct and the pair's are new and distinct.  So T - t is at
    most the largest conflict-free set of open edges, and a node is cut when
    no best - t + 1 open edges are pairwise conflict-free (_conflict_free,
    which makes each edge's conflicts when it first reaches that edge).  Like
    prune (b) it cuts only subtrees that cannot beat the best count.  No
    pair can conflict while r < m - 2, so the test runs from r = m - 2 on,
    and only for m >= 4, where it pays for itself (see the comment there).
    """
    disjoint, incidence = g.disjoint, g.incidence
    edge_count = len(disjoint)
    # ends[j]: the edges at either end of edge j
    ends = [incidence[u] | incidence[v] for u, v in g.edges]
    degrees = sorted(g.degrees(), reverse=True)
    girth = _odd_girth(g)
    # room[r] = cap[s] for s = m - 1 - r
    room = [sum(degrees[:s if _koenig(girth, s) else 2 * s])
            for s in range(m - 1, -1, -1)]
    every = (1 << edge_count) - 1
    colors = [0] * edge_count
    color_masks = [0] * (edge_count + 2)
    best_t = best
    best_assignment: tuple[int, ...] | None = None
    nodes = 0

    def assign(i: int, t: int, closed: int, r: int, held: int, touch: int):
        nonlocal best_t, best_assignment, nodes
        nodes += 1
        # checked at the first node too, so small searches honour the deadline
        if deadline is not None and nodes % TIMEOUT_CHECK_INTERVAL == 1:
            if time.monotonic() >= deadline:
                raise BudgetExceededError("rainbow-number search exceeded its time budget")
        if nodes == cap:
            raise _NodeCapReached(best_t)
        if i == edge_count:
            if t > best_t:
                best_t = t
                best_assignment = tuple(colors)
            return best_t == ceiling
        # the bound is min(t + |open|, t + |open & touch| + room[r])
        if (t + (edge_count - i) - (closed >> i).bit_count() <= best_t
                or t + ((touch & ~closed) >> i).bit_count() + room[r] <= best_t):
            return
        bit = 1 << i
        # prune (c).  At m = 3 a conflict needs one colored edge, and the test
        # costs more than it cuts: it took the benchmark sweep's m = 3 cells
        # from 4,729 to 3,767 nodes (seed 1) but made K_{5,5} and
        # circulant(7,5) with m = 3 14% and 35% slower (medians of 21 runs).
        if m >= 4 and r >= m - 2:
            opened = every & ~closed & -bit
            if not _conflict_free(opened, best_t - t + 1, {}, opened, bit - 1, m - 2, disjoint,
                                  colors, color_masks):
                return
        shut = closed & bit
        # open uncolored edges disjoint from edge i
        recheck = disjoint[i] & ~closed & -(bit << 1)
        # colored edges disjoint from edge i
        colored = disjoint[i] & (bit - 1)
        for c in range(1, t + 1 if shut else t + 2):
            avail = colored & ~color_masks[c]
            colors[i] = c
            # avail lies inside disjoint[i], so any matching in it avoids edge i
            if shut and _closable(avail, m - 1, bit, disjoint, colors, color_masks):
                continue
            child_r, child_held, child_touch = r, held, touch
            # r = m - 1 cannot grow: prune (a) or edge i's open bit rules that out
            if r < m - 1:
                if not held & ~avail:
                    # M lies in the pool, so M plus edge i is rainbow
                    child_r, child_held, child_touch = r + 1, held | bit, touch | ends[i]
                else:
                    grown = _rainbow_matching(avail, r, disjoint, colors, color_masks)
                    if grown is not None:
                        child_r, child_held, child_touch = r + 1, grown | bit, ends[i]
                        while grown:
                            low = grown & -grown
                            child_touch |= ends[low.bit_length() - 1]
                            grown ^= low
            color_masks[c] |= bit
            child_closed = closed
            if child_r == m - 1:
                child_closed |= _closable(avail, m - 2, recheck, disjoint, colors, color_masks)
            if assign(i + 1, t if c <= t else c, child_closed, child_r, child_held, child_touch):
                return True
            color_masks[c] &= ~bit

    assign(0, 0, 0, 0, 0, 0)
    return best_t, best_assignment, nodes


def _greedy_order(g: Graph) -> list[int]:
    """g's edge indices peeled into greedy maximal matchings: scan the edges
    left by index, take each one disjoint from those taken, repeat on the
    edges not taken, and concatenate the batches."""
    order, left = [], range(g.edge_count)
    while left:
        taken: set[int] = set()
        rest = []
        for j in left:
            if taken.isdisjoint(g.edges[j]):
                taken.update(g.edges[j])
                order.append(j)
            else:
                rest.append(j)
        left = rest
    return order


def rb_exact(g: Graph, m: int, *, edge_budget: int = DEFAULT_EDGE_BUDGET,
             timeout_ms: float | None = None) -> RbResult:
    """Exact rainbow number of m-matchings in g by a search over canonical colorings.

    f is the maximum color count over rainbow-free surjective colorings and
    rb = f + 1.  The search space is the set of restricted-growth strings
    over the edge list, so color permutations are never revisited.  A branch
    dies when its colored edges hold a rainbow m-matching, or when its colors
    plus a bound on its new colors cannot beat the best count found.  A new
    color's first edge is uncolored and open (no rainbow (m-1)-matching among
    colored edges avoids it), and with r the size of a largest rainbow
    matching M among the colored edges, the first edges that miss M's
    vertices have matching number at most s = m - 1 - r, so they are covered
    by the s largest-degree vertices (bipartite G, or odd girth above
    2s + 1) or the 2s largest: the bound is the open edges at M's vertices
    plus the lesser of the other open edges and that cover's degree sum.
    For m >= 4 a second bound takes pairs: no two first edges of new colors
    are disjoint and missed by one colored rainbow (m-2)-matching, so the
    new colors are at most the most open edges without such a pair.

    One edge of each color of a rainbow-free coloring spans no m-matching, so
    f <= ext(G, m): on a bipartite graph the search stops at its first leaf
    with ext(G, m) colors.  Other graphs get the edge count as ceiling,
    which m <= nu keeps out of reach.  Giving graphs of odd girth above
    2m - 1 the ext ceiling too saved only 117 of the benchmark sweep's
    14,383 nodes (seed 1) and none of the ladder's, at one more ext_exact
    call per such cell.

    No one edge order suits every graph, so the search runs in two phases.
    Phase 1 finds f.  It alternates the given edge order with the greedy
    order (_greedy_order), under node caps that start at 1,024 and double
    after each pair of attempts (Luby, Sinclair & Zuckerman's restarts,
    IPL 47, 1993), and each attempt starts from the best count any earlier
    one found.  The first attempt to finish gives f.  The greedy order wins
    on dense cells (K_{6,6} with m = 4: 2,158 nodes, against no answer in
    a minute in the given order) and loses on sparse ones (P18 with m = 6:
    3,072 nodes, against 1,141).  Phase 2 finds the witness, the
    lexicographically smallest coloring with f colors in the given order.
    When the given order finished phase 1 with a coloring, that is it;
    otherwise one more given-order search starts from f - 1 and stops at
    its first leaf with f colors.  `colorings_examined` counts the nodes of
    every attempt of both phases, so it equals one given-order search only
    when that finishes under the first cap.  Every attempt honours the one
    deadline of `timeout_ms`.  Graphs with more than edge_budget edges are
    refused outright rather than approximated; raise the budget explicitly
    to accept the runtime risk.
    """
    if m < 1:
        raise ValueError(f"matching size must be positive, got {m}")
    if g.edge_count == 0:
        raise ValueError("rainbow numbers are undefined on graphs with no edges")
    if g.edge_count > edge_budget:
        raise BudgetExceededError(
            f"graph has {g.edge_count} edges, above the search budget of {edge_budget}; "
            "re-run with a larger explicit budget to accept the runtime risk"
        )
    start = time.perf_counter()
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
    nu = max_matching_size(g)
    if m > nu:
        raise ValueError(
            f"no coloring of this graph contains a rainbow {m}-matching "
            f"(matching number is {nu}); the rainbow number is undefined"
        )
    if m == 1:
        # Any edge of any coloring is a rainbow 1-matching, so no coloring is
        # rainbow-free and rb = 1 with no extremal coloring to exhibit.
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return RbResult(0, None, 0, elapsed_ms)
    ceiling = ext_exact(g, m).value if g.bipartition is not None else g.edge_count
    # phase 1: attempts alternate between the given and the greedy order
    orders, best, examined = [g], 0, 0
    for attempt in count():
        h, cap = orders[attempt % 2], _FIRST_NODE_CAP << attempt // 2
        try:
            f, assignment, nodes = _search(h, m, deadline, ceiling, best, cap)
            break
        except _NodeCapReached as reached:
            best, examined = reached.args[0], examined + cap
            if attempt == 0:
                orders.append(Graph(g.vertex_count, tuple(g.edges[j] for j in _greedy_order(g))))
    examined += nodes
    # phase 2: the given order's first leaf with f colors, unless phase 1 found it
    if h is not g or assignment is None:
        _, assignment, nodes = _search(g, m, deadline, f, f - 1)
        examined += nodes
    assert assignment is not None and f >= 1  # monochromatic leaf always survives
    extremal = Coloring(assignment, f)
    if find_rainbow_matching(g, extremal, m) is not None:
        raise AssertionError("search returned a coloring that is not rainbow-free")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return RbResult(f, extremal, examined, elapsed_ms)


# --- closed forms -------------------------------------------------------------


def _check_regular(n: int, k: int, m: int) -> None:
    """Reject parameters outside 1 <= k <= n and 2 <= m <= n, the range of the
    three k-regular bipartite closed forms, naming the violated constraint."""
    if m == 1:
        raise ValueError(
            "constraint m >= 2 violated: m=1 is the degenerate case "
            "rb(G, one edge) = 1, ext(G, one edge) = 0"
        )
    if k < 1:
        raise ValueError(f"constraint k >= 1 violated: k={k}")
    if k > n:
        raise ValueError(f"constraint k <= n violated: k={k}, n={n}")
    if not 2 <= m <= n:
        raise ValueError(f"constraint 2 <= m <= n violated: m={m}, n={n}")


def _check_path(n: int, m: int) -> None:
    """Reject m outside 2 <= m <= ceil(n/2), the range of the path formula and constructions."""
    if not 2 <= m <= (n + 1) // 2:
        raise ValueError(f"constraint 2 <= m <= ceil(n/2) violated: m={m}, n={n}")


def rb_bounds(family: str, n: int, k: int | None, m: int) -> tuple[int, int]:
    """Bounds (lo, hi) on rb: T2.4's (k(m-2)+2, k(m-1)+1) on a k-regular family with
    sides of size n, T3.1/T3.4's (2m-2, 2m-1) on the path/cycle with n edges."""
    if family in ("circulant", "random_regular") and k is not None:
        _check_regular(n, k, m)
        return k * (m - 2) + 2, k * (m - 1) + 1
    if family not in ("path", "cycle"):
        raise ValueError(f"no closed form for family {family!r} with k={k}")
    if family == "path":
        _check_path(n, m)
    elif not 2 <= m <= n // 2:
        raise ValueError(f"constraint 2 <= m <= floor(n/2) violated: m={m}, n={n}")
    return 2 * m - 2, 2 * m - 1


def rb_formula(family: str, n: int, k: int | None, m: int) -> int | None:
    """Exact rb by a family's closed form: n(m-2)+2 on K_{n,n} (n >= 3), else an end of
    rb_bounds: the lower end on a k-regular family where T2.5 applies (k >= 3 and
    n > 3(m-1); None elsewhere), and by T3.5/T3.6 the upper end on the path/cycle
    with n <= 3(m-1) edges, the lower end above.  ValueError where none applies."""
    if family == "complete_bipartite":
        if n < 3:
            raise ValueError(f"constraint n >= 3 violated: n={n}")
        _check_regular(n, n, m)
        return n * (m - 2) + 2
    lo, hi = rb_bounds(family, n, k, m)
    if family in ("path", "cycle"):
        return hi if n <= 3 * (m - 1) else lo
    return lo if k >= 3 and n > 3 * (m - 1) else None
