"""Claim-verification sweeps: exhaustive oracles vs closed-form claims.

Each registered claim identifier (T2.3 .. T3.6) names one formula or bound
family together with the instance grid it is checked on.  A sweep produces
one VerificationRecord per instance; discrepancies are first-class outputs,
never silently dropped, and can only be acknowledged through an explicit
allowlist.  Sweeps are deterministic given (ranges, samples, seed) and
instances are independent, so they parallelize across a worker pool with
output ordered by instance key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict
from multiprocessing import get_context

from .errors import BudgetExceededError
from .extremal import (
    DEFAULT_EDGE_BUDGET,
    ext_exact,
    ext_formula_regular,
    rb_bounds_regular,
    rb_exact,
    rb_formula_complete_bipartite,
    rb_formula_cycle,
    rb_formula_path,
    rb_formula_regular,
)
from .graphs import (
    Graph,
    identify_vertices,
    make_circulant_regular_bipartite,
    make_cycle,
    make_path,
    make_random_regular_bipartite,
)
from .rainbow import max_matching_size

__all__ = [
    "VerificationRecord",
    "THEOREM_IDS",
    "verify_theorem",
    "monotonicity_records",
    "load_allowlist",
    "apply_allowlist",
    "summarize",
]

THEOREM_IDS = ("T2.3", "T2.4", "T2.5", "T3.1", "T3.2/C3.3", "T3.4", "T3.5", "T3.6")

STATUS_MATCH = "match"
STATUS_WITHIN_BOUNDS = "within_bounds"
STATUS_DISCREPANCY = "discrepancy"
STATUS_NOT_APPLICABLE = "not_applicable"


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

    def to_dict(self) -> dict:
        d = asdict(self)
        if isinstance(self.claimed, tuple):
            d["claimed"] = list(self.claimed)
        return d


def _build_regular(family: str, n: int, k: int, seed: int | None) -> Graph:
    if family == "circulant":
        return make_circulant_regular_bipartite(n, k)
    return make_random_regular_bipartite(n, k, seed if seed is not None else 0)


def _regular_realizations(samples: int, seed: int):
    """Realization descriptors for a claim quantified over all k-regular
    bipartite graphs: the deterministic circulant plus seeded random draws."""
    out: list[tuple[str, int | None]] = [("circulant", None)]
    for i in range(max(0, samples - 1)):
        out.append(("random_regular", seed + i))
    return out


def _span(rng: tuple[int, int] | None, default: tuple[int, int]) -> range:
    lo, hi = rng if rng is not None else default
    return range(lo, hi + 1)


def _compare_exact(oracle: int, claimed: int) -> str:
    return STATUS_MATCH if oracle == claimed else STATUS_DISCREPANCY


def _compare_bounds(oracle: int, lo: int | None, hi: int | None) -> str:
    if lo is not None and oracle < lo:
        return STATUS_DISCREPANCY
    if hi is not None and oracle > hi:
        return STATUS_DISCREPANCY
    return STATUS_WITHIN_BOUNDS


def _run_instance(task: tuple) -> VerificationRecord:
    """Evaluate one (theorem, instance) cell.  Top-level so worker pools can
    dispatch it."""
    (theorem_id, family, n, k, m, seed, edge_budget, timeout_ms) = task
    started = time.perf_counter()

    def done(oracle, claimed, status, note=""):
        return VerificationRecord(
            theorem_id, family, n, k, m, seed, oracle, claimed, status,
            (time.perf_counter() - started) * 1000.0, note,
        )

    try:
        if theorem_id == "T2.3":
            g = _build_regular(family, n, k, seed)
            claimed = ext_formula_regular(n, k, m)
            oracle = ext_exact(g, m).value
            return done(oracle, claimed, _compare_exact(oracle, claimed))

        if theorem_id == "T2.4":
            g = _build_regular(family, n, k, seed)
            lo, hi = rb_bounds_regular(n, k, m)
            oracle = rb_exact(g, m, edge_budget=edge_budget, timeout_ms=timeout_ms).rb_value
            return done(oracle, (lo, hi), _compare_bounds(oracle, lo, hi))

        if theorem_id == "T2.5":
            claimed = rb_formula_regular(n, k, m)
            if claimed is None:
                return done(None, None, STATUS_NOT_APPLICABLE,
                            "needs k >= 3 and n > 3(m-1)")
            g = _build_regular(family, n, k, seed)
            oracle = rb_exact(g, m, edge_budget=edge_budget, timeout_ms=timeout_ms).rb_value
            return done(oracle, claimed, _compare_exact(oracle, claimed))

        if theorem_id == "T3.1":
            oracle = rb_exact(make_path(n), m, edge_budget=edge_budget,
                              timeout_ms=timeout_ms).rb_value
            bounds = (2 * m - 2, 2 * m - 1)
            return done(oracle, bounds, _compare_bounds(oracle, *bounds))

        if theorem_id == "T3.2/C3.3":
            path = make_path(n)
            cycle = identify_vertices(path, 0, n)
            rb_path = rb_exact(path, m, edge_budget=edge_budget,
                               timeout_ms=timeout_ms).rb_value
            rb_cycle = rb_exact(cycle, m, edge_budget=edge_budget,
                                timeout_ms=timeout_ms).rb_value
            status = STATUS_MATCH if rb_path <= rb_cycle else STATUS_DISCREPANCY
            return done(rb_path, (None, rb_cycle), status,
                        "path value must not exceed the identified-cycle value")

        if theorem_id == "T3.4":
            oracle = rb_exact(make_cycle(n), m, edge_budget=edge_budget,
                              timeout_ms=timeout_ms).rb_value
            bounds = (2 * m - 2, 2 * m - 1)
            return done(oracle, bounds, _compare_bounds(oracle, *bounds))

        if theorem_id == "T3.5":
            claimed = rb_formula_path(n, m)
            oracle = rb_exact(make_path(n), m, edge_budget=edge_budget,
                              timeout_ms=timeout_ms).rb_value
            return done(oracle, claimed, _compare_exact(oracle, claimed))

        if theorem_id == "T3.6":
            formula = rb_formula_cycle(n, m)
            oracle = rb_exact(make_cycle(n), m, edge_budget=edge_budget,
                              timeout_ms=timeout_ms).rb_value
            note = "formula cell flagged as disputed" if formula.disputed else ""
            return done(oracle, formula.value, _compare_exact(oracle, formula.value), note)

        raise ValueError(f"unknown theorem id {theorem_id!r}")
    except BudgetExceededError as exc:
        return done(None, None, STATUS_NOT_APPLICABLE, f"budget refusal: {exc}")


def _instances(theorem_id: str, n_range, k_range, m_range, samples: int, seed: int,
               edge_budget: int, timeout_ms) -> list[tuple]:
    tasks: list[tuple] = []
    if theorem_id in ("T2.3", "T2.4", "T2.5"):
        for n in _span(n_range, (3, 5)):
            for k in _span(k_range, (2, n)):
                if k > n:
                    continue
                for m in _span(m_range, (2, 3)):
                    if not 2 <= m <= n:
                        continue
                    for family, s in _regular_realizations(samples, seed):
                        tasks.append((theorem_id, family, n, k, m, s,
                                      edge_budget, timeout_ms))
    elif theorem_id in ("T3.1", "T3.5"):
        for n in _span(n_range, (2, 9)):
            for m in _span(m_range, (2, (n + 1) // 2)):
                if not 2 <= m <= (n + 1) // 2:
                    continue
                tasks.append((theorem_id, "path", n, None, m, None,
                              edge_budget, timeout_ms))
    elif theorem_id == "T3.2/C3.3":
        for n in _span(n_range, (3, 8)):
            for m in _span(m_range, (2, n // 2)):
                if not 2 <= m <= n // 2:
                    continue
                tasks.append((theorem_id, "path_vs_cycle", n, None, m, None,
                              edge_budget, timeout_ms))
    elif theorem_id in ("T3.4", "T3.6"):
        for n in _span(n_range, (3, 9)):
            for m in _span(m_range, (2, n // 2)):
                if not 2 <= m <= n // 2:
                    continue
                tasks.append((theorem_id, "cycle", n, None, m, None,
                              edge_budget, timeout_ms))
    else:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    return tasks


def verify_theorem(theorem_id: str, *, n_range=None, k_range=None, m_range=None,
                   samples: int = 5, seed: int = 0,
                   edge_budget: int = DEFAULT_EDGE_BUDGET, workers: int = 1,
                   timeout_ms: float | None = None) -> list[VerificationRecord]:
    """Sweep one claim over its instance grid and return one record per cell."""
    tasks = _instances(theorem_id, n_range, k_range, m_range, samples, seed,
                       edge_budget, timeout_ms)
    if workers > 1 and len(tasks) > 1:
        with get_context("fork").Pool(workers) as pool:
            return pool.map(_run_instance, tasks)
    return [_run_instance(t) for t in tasks]


def monotonicity_records(*, n_range=None, m_range=None, samples: int = 5, seed: int = 0,
                         edge_budget: int = DEFAULT_EDGE_BUDGET, workers: int = 1,
                         timeout_ms: float | None = None) -> list[VerificationRecord]:
    """Identification monotonicity: closing a path into a cycle never lowers
    the rainbow number, plus seeded random identifications on small graphs."""
    records = verify_theorem("T3.2/C3.3", n_range=n_range, m_range=m_range,
                             samples=samples, seed=seed, edge_budget=edge_budget,
                             workers=workers, timeout_ms=timeout_ms)
    records.extend(_random_identification_records(samples, seed, edge_budget, timeout_ms))
    return records


def _random_identification_records(samples: int, seed: int, edge_budget: int,
                                   timeout_ms) -> list[VerificationRecord]:
    import random

    rng = random.Random(seed)
    records: list[VerificationRecord] = []
    trials = 0
    while len(records) < samples and trials < 50 * max(samples, 1):
        trials += 1
        n = rng.randint(5, 8)
        g = make_path(n)
        u, v = rng.sample(range(g.vertex_count), 2)
        try:
            merged = identify_vertices(g, u, v)
        except ValueError:
            continue
        m = 2
        if max_matching_size(g) < m or max_matching_size(merged) < m:
            continue
        started = time.perf_counter()
        rb_g = rb_exact(g, m, edge_budget=edge_budget, timeout_ms=timeout_ms).rb_value
        rb_h = rb_exact(merged, m, edge_budget=edge_budget, timeout_ms=timeout_ms).rb_value
        status = STATUS_MATCH if rb_g <= rb_h else STATUS_DISCREPANCY
        records.append(VerificationRecord(
            "T3.2/C3.3", "random_identification", n, None, m, seed + trials,
            rb_g, (None, rb_h), status,
            (time.perf_counter() - started) * 1000.0,
            f"merged vertices {u} and {v} of a path with {n} edges",
        ))
    return records


# --- allowlist ----------------------------------------------------------------
#
# One acknowledged discrepancy per line:  a theorem id followed by key=value
# constraints, e.g.
#
#   T3.6 family=cycle n=4 m=2
#
# A record is acknowledged when some entry has its theorem id and every one of
# its constraints matches the record.  '#' comments and blank lines ignored.


def load_allowlist(path) -> list[dict]:
    entries: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            entry: dict = {"theorem_id": parts[0]}
            for token in parts[1:]:
                if "=" not in token:
                    raise ValueError(f"bad allowlist token {token!r} in line {raw_line!r}")
                key, value = token.split("=", 1)
                if key not in ("family", "n", "k", "m", "seed"):
                    raise ValueError(f"unknown allowlist key {key!r}")
                entry[key] = value if key == "family" else int(value)
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


def summarize(records: list[VerificationRecord]) -> dict:
    counts = {
        "matches": 0,
        "within_bounds": 0,
        "discrepancies": 0,
        "acknowledged": 0,
        "not_applicable": 0,
    }
    for record in records:
        if record.status == STATUS_MATCH:
            counts["matches"] += 1
        elif record.status == STATUS_WITHIN_BOUNDS:
            counts["within_bounds"] += 1
        elif record.status == STATUS_DISCREPANCY:
            counts["discrepancies"] += 1
            if record.acknowledged:
                counts["acknowledged"] += 1
        else:
            counts["not_applicable"] += 1
    return counts


def summary_line(counts: dict) -> str:
    return ("matches={matches} within_bounds={within_bounds} "
            "discrepancies={discrepancies} (acknowledged={acknowledged}) "
            "not_applicable={not_applicable}".format(**counts))


def has_blocking_discrepancy(records: list[VerificationRecord]) -> bool:
    return any(r.status == STATUS_DISCREPANCY and not r.acknowledged for r in records)
