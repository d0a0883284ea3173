"""Per-layer spans recorded from outside the package.

A Tracer replaces the public functions that rainbowlab's modules import by
name (``verify.rb_exact``, ``constructions.find_rainbow_matching``, ...) with
thin timing wrappers, and puts the originals back on ``uninstall``.  Only the
benchmark's own process is touched; nothing in ``src/`` changes.  The private
recursive kernel ``extremal._exists_rainbow`` is never wrapped: it runs
millions of times per search.

Each span records its kind, the span that called it, start, end and a small
outcome (node count, witness found, records produced, ...).  Spans stay in
memory; ``layer_metrics`` turns the spans of one pass into per-layer counts
and self times (a span's duration minus the time of its direct children).
"""

from __future__ import annotations

import functools
import sys
import time

# Span kind -> (module that defines the functions, their public names).  A
# name missing from every module (renamed or deleted later) is skipped,
# never an error; an unrelated ``main`` or ``load_graph`` elsewhere is left
# alone because only functions defined in the named module are wrapped.
SPAN_FUNCTIONS = {
    "extremal.rb": ("rainbowlab.extremal", ("rb_exact",)),
    "extremal.ext": ("rainbowlab.extremal", ("ext_exact",)),
    "rainbow.certify": ("rainbowlab.rainbow", ("find_rainbow_matching",)),
    "matching.guard": ("rainbowlab.rainbow", ("max_matching_size",)),
    "constructions": ("rainbowlab.constructions", (
        "extremal_coloring_regular",
        "extremal_coloring_path_simple",
        "extremal_coloring_path_tight",
        "extremal_coloring_cycle_tight",
    )),
    "graphs.build": ("rainbowlab.graphs", (
        "make_path",
        "make_cycle",
        "make_complete_bipartite",
        "make_circulant_regular_bipartite",
        "make_random_regular_bipartite",
        "identify_vertices",
    )),
    "graphs.io": ("rainbowlab.graphs", ("load_graph", "save_graph", "parse_graph", "format_graph")),
    "verify": ("rainbowlab.verify", ("verify_theorem", "monotonicity_records")),
    "cli": ("rainbowlab.cli", ("main",)),
}

KIND, PARENT, START, END, OUTCOME = range(5)


def _search_nodes(result) -> int | None:
    """Nodes of one rb search: ``colorings_examined`` if the result has it,
    else ``nodes`` of a stats record attached to the result, else None."""
    nodes = getattr(result, "colorings_examined", None)
    if isinstance(nodes, int):
        return nodes
    for value in getattr(result, "__dict__", {}).values():
        nodes = getattr(value, "nodes", None)
        if isinstance(nodes, int):
            return nodes
    return None


def _outcome(kind: str, result):
    if kind == "extremal.rb":
        return _search_nodes(result)
    if kind == "rainbow.certify":
        return result is not None
    if kind == "constructions":
        return bool(getattr(result, "rainbow_free_certified", False))
    if kind == "verify":
        return len(result)
    return None


class Tracer:
    """Timing wrappers for rainbowlab's modules, and the spans they record.

    The wrappers are planned once, from the modules imported so far; each
    ``install`` puts them in place and ``uninstall`` restores the originals,
    so code outside a traced region runs unwrapped.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "rainbowlab" or name.startswith("rainbowlab."))]
        for kind, (home, names) in SPAN_FUNCTIONS.items():
            for name in names:
                original = next((getattr(mod, name) for mod in modules
                                 if getattr(getattr(mod, name, None), "__module__", None)
                                 == home), None)
                if original is None:
                    continue
                wrapper = self._wrap(kind, original)
                self._plan.extend((mod, name, original, wrapper) for mod in modules
                                  if getattr(mod, name, None) is original)

    def _wrap(self, kind: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [kind, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                record[OUTCOME] = _outcome(kind, result)
                return result
            except BaseException as exc:
                record[OUTCOME] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for mod, name, _, wrapper in self._plan:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._plan:
            setattr(mod, name, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list (the
        same list object, which the wrappers hold)."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times (ms) of one traced pass whose timed
    calls took ``wall_s`` seconds in total."""
    own = self_times(spans)

    def of(kind):
        return [(s, t) for s, t in zip(spans, own) if s[KIND] == kind]

    def ms(kind):
        return 1000.0 * sum(t for _, t in of(kind))

    def ratio(kind, hit):
        outcomes = [s[OUTCOME] for s, _ in of(kind)]
        return sum(1 for o in outcomes if o is hit) / len(outcomes) if outcomes else 0.0

    rb = of("extremal.rb")
    out = {
        "extremal.rb_calls": len(rb),
        "extremal.rb_self_ms": ms("extremal.rb"),
        "extremal.rb_refused": sum(1 for s, _ in rb if s[OUTCOME] == "BudgetExceededError"),
        "extremal.ext_calls": len(of("extremal.ext")),
        "extremal.ext_ms": ms("extremal.ext"),
        "rainbow.certify_calls": len(of("rainbow.certify")),
        "rainbow.certify_ms": ms("rainbow.certify"),
        "rainbow.witness_ratio": ratio("rainbow.certify", True),
        "constructions.calls": len(of("constructions")),
        "constructions.self_ms": ms("constructions"),
        "constructions.certified_ratio": ratio("constructions", True),
        "matching.guard_calls": len(of("matching.guard")),
        "matching.guard_ms": ms("matching.guard"),
        "graphs.build_calls": len(of("graphs.build")),
        "graphs.build_ms": ms("graphs.build"),
        "graphs.io_ms": ms("graphs.io"),
        "verify.cells": sum(s[OUTCOME] for s, _ in of("verify")
                            if isinstance(s[OUTCOME], int)
                            and (s[PARENT] < 0 or spans[s[PARENT]][KIND] != "verify")),
        "verify.self_ms": ms("verify"),
        "cli.calls": len(of("cli")),
        "cli.self_ms": ms("cli"),
        "trace.coverage_frac": sum(own) / wall_s if wall_s > 0 else 0.0,
    }
    # Refused searches (outcome is an exception name) count no nodes; a
    # finished search without a node counter leaves nodes absent.
    finished = [s[OUTCOME] for s, _ in rb if not isinstance(s[OUTCOME], str)]
    if all(isinstance(n, int) for n in finished):
        nodes = sum(finished)
        rb_self_s = out["extremal.rb_self_ms"] / 1000.0
        out["extremal.nodes"] = nodes
        out["extremal.nodes_per_s"] = nodes / rb_self_s if rb_self_s > 0 else 0.0
    return out
