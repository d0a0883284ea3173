"""Claim-verification sweeps: exhaustive oracles vs closed-form claims.

Each claim identifier (T2.3 .. T3.6) is one entry of a table that pairs the
instance grid it is checked on with the check run on each cell.  A sweep
produces one VerificationRecord per cell, in grid order; discrepancies are
first-class outputs, never silently dropped, and can only be acknowledged
through an explicit allowlist.  Sweeps are deterministic given (ranges,
samples, seed).
"""

from __future__ import annotations

import functools
import random
import time
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceededError
from .extremal import (
    DEFAULT_EDGE_BUDGET,
    DISPUTED_FORMULA_CELLS,
    _check_limits,
    ext_exact,
    ext_formula_regular,
    rb_bounds,
    rb_exact,
    rb_formula,
)
from .graphs import (
    Graph,
    _data_lines,
    _ints,
    _read_line_file,
    identify_vertices,
    make_family,
)
# Unused here; kept because bench/test_bench.py checks that the benchmark's
# tracer restores verify.max_matching_size.
from .rainbow import max_matching_size  # noqa: F401

__all__ = [
    "VerificationRecord",
    "THEOREM_IDS",
    "verify_theorem",
    "load_allowlist",
    "apply_allowlist",
]

STATUS_MATCH = "match"
STATUS_WITHIN_BOUNDS = "within_bounds"
STATUS_DISCREPANCY = "discrepancy"
STATUS_NOT_APPLICABLE = "not_applicable"
DEFAULT_SAMPLES = 5  # graphs per regular cell; T3.2/C3.3 reads random identifications


@dataclass
class VerificationRecord:
    theorem_id: str
    family: str
    n: int
    k: int | None
    m: int
    seed: int | None
    oracle_value: int | None
    claimed: object  # int, or (lo, hi) with either end possibly None
    status: str
    elapsed_ms: float
    note: str = ""
    acknowledged: bool = False


def _span(rng: tuple[int, int] | None, default: tuple[int, int]) -> range:
    lo, hi = rng if rng is not None else default
    return range(lo, hi + 1)


# --- instance grids: (n_range, k_range, m_range, samples, seed) -> cells ------
#
# A cell is (family, n, k, m, seed); each one becomes one VerificationRecord.


def _regular_grid(n_range, k_range, m_range, samples: int | None, seed: int):
    """Cells of a claim quantified over all k-regular bipartite graphs: the
    circulant plus samples - 1 seeded random draws per (n, k, m)."""
    samples = DEFAULT_SAMPLES if samples is None else samples
    if samples < 1:
        raise ValueError(f"samples must be at least 1 (the circulant), got {samples}")
    realizations = [("circulant", None)] + [("random_regular", seed + i)
                                            for i in range(samples - 1)]
    for n in _span(n_range, (3, 5)):
        for k in _span(k_range, (2, n)):
            for m in _span(m_range, (2, 3)):
                if k <= n and 2 <= m <= n:
                    for family, s in realizations:
                        yield family, n, k, m, s


def _edge_count_grid(family: str, n_default: tuple[int, int], m_top):
    """Cells over a path or cycle with n edges and 2 <= m <= m_top(n)."""

    def grid(n_range, k_range, m_range, samples, seed):
        if k_range is not None:
            raise ValueError(f"{family} cells have no k, so a k range cannot be honoured")
        if samples is not None:
            raise ValueError(f"{family} cells are not random, so a sample count cannot be honoured")
        for n in _span(n_range, n_default):
            for m in _span(m_range, (2, m_top(n))):
                if 2 <= m <= m_top(n):
                    yield family, n, None, m, None

    return grid


_path_grid = _edge_count_grid("path", (2, 9), lambda n: (n + 1) // 2)
_cycle_grid = _edge_count_grid("cycle", (3, 9), lambda n: n // 2)


def _random_identification(seed: int) -> tuple[int, int, int]:
    """(n, u, v): a path with 5..8 edges and a uniform pair of its vertices among
    those identify_vertices accepts, which on a path are those >= 3 apart."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    u, v = rng.choice([(u, v) for u in range(n + 1) for v in range(u + 3, n + 1)])
    return n, u, v


def _identification_grid(n_range, k_range, m_range, samples: int | None, seed: int):
    """The path_vs_cycle cells, then samples random identifications at m = 2,
    the i-th drawn from seed + i, when m_range includes 2."""
    samples = DEFAULT_SAMPLES if samples is None else samples
    if samples < 0:
        raise ValueError("samples must be at least 0 (0 skips the random identifications), "
                         f"got {samples}")
    yield from _edge_count_grid("path_vs_cycle", (3, 8), lambda n: n // 2)(
        n_range, k_range, m_range, None, seed)
    if m_range is None or m_range[0] <= 2 <= m_range[1]:
        for s in range(seed, seed + samples):
            yield "random_identification", _random_identification(s)[0], None, 2, s


# --- checks: (rb, build, family, n, k, m, seed) -> (oracle, claimed, status, note)
#
# One per kind of claim: exact ext (T2.3), rb within bounds (T2.4, T3.1, T3.4),
# rb equal to extremal.rb_formula (T2.5, T3.5, T3.6), identification (C3.3).
# rb(g, m) is the sweep's budgeted rb_exact and build(family, n, k, seed) its
# make_family, cached for one verify_theorem call.  Library functions are
# looked up when a sweep runs, so wrappers installed on this module see every
# call.


def _exact(claimed: int, oracle: int, note: str = ""):
    return oracle, claimed, STATUS_MATCH if oracle == claimed else STATUS_DISCREPANCY, note


def _check_ext_regular(rb, build, family, n, k, m, seed):
    return _exact(ext_formula_regular(n, k, m), ext_exact(build(family, n, k, seed), m).value)


def _check_rb_bounds(rb, build, family, n, k, m, seed):
    oracle = rb(build(family, n, k, seed), m)
    lo, hi = rb_bounds(family, n, k, m)
    return oracle, (lo, hi), STATUS_WITHIN_BOUNDS if lo <= oracle <= hi else STATUS_DISCREPANCY, ""


def _check_rb_formula(rb, build, family, n, k, m, seed):
    claimed = rb_formula(family, n, k, m)
    if claimed is None:
        return None, None, STATUS_NOT_APPLICABLE, "needs k >= 3 and n > 3(m-1)"
    disputed = (family, n, m) in DISPUTED_FORMULA_CELLS
    return _exact(claimed, rb(build(family, n, k, seed), m),
                  "formula cell flagged as disputed" if disputed else "")


def _check_identification(rb, build, family, n, k, m, seed):
    path = build("path", n)
    if family == "path_vs_cycle":
        # identifying the two ends of the path with n edges gives the n-cycle, edge for edge
        merged, note = build("cycle", n), "path value must not exceed the identified-cycle value"
    else:
        _, u, v = _random_identification(seed)
        merged = identify_vertices(path, u, v)
        note = f"merged vertices {u} and {v} of a path with {n} edges"
    rb_path, rb_merged = rb(path, m), rb(merged, m)
    status = STATUS_MATCH if rb_path <= rb_merged else STATUS_DISCREPANCY
    return rb_path, (None, rb_merged), status, note


# Claim id -> (instance grid, check), in the order the CLI lists them.  samples
# counts graphs per regular cell and T3.2/C3.3's random identifications.
_CLAIMS = {
    "T2.3": (_regular_grid, _check_ext_regular),
    "T2.4": (_regular_grid, _check_rb_bounds),
    "T2.5": (_regular_grid, _check_rb_formula),
    "T3.1": (_path_grid, _check_rb_bounds),
    "T3.2/C3.3": (_identification_grid, _check_identification),
    "T3.4": (_cycle_grid, _check_rb_bounds),
    "T3.5": (_path_grid, _check_rb_formula),
    "T3.6": (_cycle_grid, _check_rb_formula),
}

THEOREM_IDS = tuple(_CLAIMS)


def _budgeted_rb(edge_budget: int, timeout_ms: float | None):
    def rb(g: Graph, m: int) -> int:
        return rb_exact(g, m, edge_budget=edge_budget, timeout_ms=timeout_ms).rb_value

    return rb


def _record(theorem_id: str, cell: tuple, check) -> VerificationRecord:
    """One cell's record from check(); a budget refusal becomes not_applicable."""
    started = time.perf_counter()
    try:
        oracle, claimed, status, note = check()
    except BudgetExceededError as exc:
        oracle, claimed, status, note = (None, None, STATUS_NOT_APPLICABLE,
                                         f"budget refusal: {exc}")
    return VerificationRecord(theorem_id, *cell, oracle, claimed, status,
                              (time.perf_counter() - started) * 1000.0, note)


def verify_theorem(theorem_id: str, *, n_range=None, k_range=None, m_range=None,
                   samples: int | None = None, seed: int = 0,
                   edge_budget: int = DEFAULT_EDGE_BUDGET,
                   timeout_ms: float | None = None) -> list[VerificationRecord]:
    """Sweep one claim over its instance grid and return one record per cell.
    A cell the search refuses is a not_applicable record, never an error.

    A check gets its family graph from a builder made for this call, so each
    (family, n, k, seed) graph is built once, when the first of its m-cells
    needs it: that cell's `elapsed_ms` includes the build and the later ones
    do not.  Nothing is kept across calls.  The limits are checked before
    any cell, so a claim whose cells run no rb search still rejects them."""
    _check_limits(edge_budget, timeout_ms)
    if theorem_id not in _CLAIMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    grid, check = _CLAIMS[theorem_id]
    rb = _budgeted_rb(edge_budget, timeout_ms)
    build = functools.cache(make_family)
    return [_record(theorem_id, cell, lambda: check(rb, build, *cell))
            for cell in grid(n_range, k_range, m_range, samples, seed)]


# --- allowlist ----------------------------------------------------------------
#
# A line file (graphs.py) with one acknowledged discrepancy per record: a
# theorem id followed by key=value constraints, e.g.
#
#   T3.6 family=cycle n=4 m=2
#
# A record is acknowledged when some entry has its theorem id and every one of
# its constraints matches the record.


def load_allowlist(path) -> list[dict]:
    return _read_line_file(path, _parse_allowlist)


def _parse_allowlist(text: str) -> list[dict]:
    entries: list[dict] = []
    for raw_line, fields in _data_lines(text):
        if fields[0] not in _CLAIMS:
            raise ValueError(f"unknown allowlist theorem id {fields[0]!r} in line "
                             f"{raw_line!r}; known: {', '.join(THEOREM_IDS)}")
        entry: dict = {"theorem_id": fields[0]}
        for token in fields[1:]:
            if "=" not in token:
                raise ValueError(f"bad allowlist token {token!r} in line {raw_line!r}")
            key, value = token.split("=", 1)
            if key not in ("family", "n", "k", "m", "seed"):
                raise ValueError(f"unknown allowlist key {key!r}")
            entry[key] = value if key == "family" else _ints(raw_line, [value])[0]
        entries.append(entry)
    return entries


def apply_allowlist(records: list[VerificationRecord], entries: list[dict]) -> None:
    for record in records:
        if record.status != STATUS_DISCREPANCY:
            continue
        for entry in entries:
            if entry["theorem_id"] != record.theorem_id:
                continue
            if all(getattr(record, key) == value
                   for key, value in entry.items() if key != "theorem_id"):
                record.acknowledged = True
                break


def summary_line(records: list[VerificationRecord]) -> str:
    counts = Counter(r.status for r in records)
    acknowledged = sum(r.status == STATUS_DISCREPANCY and r.acknowledged for r in records)
    return (f"matches={counts[STATUS_MATCH]} within_bounds={counts[STATUS_WITHIN_BOUNDS]} "
            f"discrepancies={counts[STATUS_DISCREPANCY]} (acknowledged={acknowledged}) "
            f"not_applicable={counts[STATUS_NOT_APPLICABLE]}")


def has_blocking_discrepancy(records: list[VerificationRecord]) -> bool:
    return any(r.status == STATUS_DISCREPANCY and not r.acknowledged for r in records)
