"""Benchmark of rainbowlab: run one workload and print its metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports rainbowlab from
``src/``.  One process, one caller, ``workers=1`` throughout.  The workload's
cells run in passes, back to back, until ``--seconds`` are used up; every
cell's answer is checked after its timed call.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  ``setup_s`` is
  the median over fresh child processes that import rainbowlab and build the
  inputs, ``wall_s`` the median pass time, both scaled to a reference speed
  of the machine; ``peak_rss_mb`` is this process's peak resident memory.
* ``--trace 1``: the per-layer metrics, as medians over traced passes, which
  alternate with untraced ones so that ``trace.overhead_frac`` compares them.

Spans, per-pass figures and provenance are written to ``.bench_out/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
SETUP_REFERENCE_LOOPS = 5
# Times are reported scaled to a machine on which reference_work() takes
# REFERENCE_S.  After each cell the reference loop runs for about
# REFERENCE_SHARE of the cell's time, so that each pass has its own measure
# of how fast the machine was while it ran (see README.md).
REFERENCE_S = 0.02
REFERENCE_SHARE = 0.1
# Pass time grows more slowly than the reference loop's time when the
# machine slows: as its 0.7th power on ladder and sweep, 0.5th on certify,
# fitted over the passes of ten runs each.  Scaling by the full ratio
# over-corrects; 0.7 is the exponent used.
REFERENCE_EXPONENT = 0.7
MIN_PASSES = 3  # untraced run
MIN_TRACED_PASSES = 2  # of each kind, traced run


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def locate_package() -> None:
    """Put the checkout's ``src/`` first on sys.path; refuse to fall back to
    any other installed copy."""
    package = ROOT / "src" / "rainbowlab" / "__init__.py"
    if not package.is_file():
        raise FileNotFoundError(f"no rainbowlab sources at {package.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["RAINBOWLAB_WORKERS"] = "1"


def setup(workload: str, seed: int, out_dir: Path, tiny: bool):
    """Import rainbowlab and build the workload's inputs: (cells, seconds)."""
    start = time.perf_counter()
    import rainbowlab  # noqa: F401  (the import is part of what is timed)

    cells = workloads.build(workload, seed, out_dir, tiny)
    elapsed = time.perf_counter() - start
    if not Path(rainbowlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"rainbowlab imported from {rainbowlab.__file__}, not {ROOT / 'src'}")
    return cells, elapsed


def probe_setup(args) -> dict:
    """Time setup in a fresh interpreter, so the import is timed every time,
    and the reference loop right after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def reference_work() -> int:
    """Fixed pure-Python work, independent of rainbowlab: counts the
    5-subsets of a 30-bit mask with no two neighbouring bits."""
    def count(avail, need):
        if need == 0:
            return 1
        total = 0
        while avail:
            low = avail & -avail
            avail ^= low
            total += count(avail & ~(low << 1), need - 1)
        return total

    return count((1 << 30) - 1, 5)


def time_reference(loops: int) -> list[float]:
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


def run_pass(cells, tracer=None) -> dict:
    """One pass over the cells: timed calls, then untimed answer checks."""
    from rainbowlab.errors import BudgetExceededError

    cell_s: list[float] = []
    ref_s: list[float] = []
    failures: list[str] = []
    for cell in cells:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result, failure = cell.call(), None
        except BudgetExceededError:
            result, failure = None, "refused"
        except Exception as exc:  # a crashing cell is a failed cell, the run goes on
            result, failure = None, "error"
            print(f"bench: {cell.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        cell_s.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
        ref_s += time_reference(max(1, round(REFERENCE_SHARE * cell_s[-1] / REFERENCE_S)))
        found = [failure] * cell.cells if failure else cell.check(result)
        for kind in found:
            print(f"bench: {cell.label}: {kind}", file=sys.stderr)
        failures += found
    out = {"wall_s": sum(cell_s), "cell_s": dict(zip((c.label for c in cells), cell_s)),
           "ref_s": ref_s, "attempted": sum(c.cells for c in cells), "failures": failures}
    if tracer is not None:
        out["spans"] = tracer.take()
    return out


def measure(cells, seconds: float, tracer=None) -> list[dict]:
    """Passes back to back until the next one would overrun `seconds`.
    With a tracer, passes alternate untraced, traced, untraced, ..."""
    start = time.perf_counter()
    passes: list[dict] = []
    lengths: list[float] = []
    least = 2 * MIN_TRACED_PASSES if tracer is not None else MIN_PASSES
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cells, tracer if traced else None))
        passes[-1]["traced"] = traced
        lengths.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(passes) >= least and elapsed + statistics.median(lengths) > seconds:
            return passes


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def scaled(seconds: float, reference_s: float) -> float:
    """A time measured while the reference loop took `reference_s`, scaled
    to a machine on which it takes REFERENCE_S."""
    return seconds * (REFERENCE_S / reference_s) ** REFERENCE_EXPONENT


def end_to_end(passes, probes) -> tuple[dict, dict]:
    """(metrics, raw medians).  Each setup probe is scaled by the reference
    loop timed in the same child, each pass by the loops timed in it."""
    metrics = {
        "setup_s": statistics.median(scaled(p["setup_s"], p["reference_s"]) for p in probes),
        "wall_s": statistics.median(scaled(p["wall_s"], statistics.median(p["ref_s"]))
                                    for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "reference_s": statistics.median(t for p in passes for t in p["ref_s"]),
    }
    return metrics, raw


def per_layer(passes) -> dict:
    from spans import layer_metrics

    traced = [layer_metrics(p["spans"], p["wall_s"]) for p in passes if p["traced"]]
    names = set.intersection(*(set(m) for m in traced))
    out = {name: statistics.median(m[name] for m in traced) for name in sorted(names)}
    untraced_s = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_s = statistics.median(p["wall_s"] for p in passes if p["traced"])
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    try:
        locate_package()
        spec = json.loads(spec_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot start: {exc}")
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed, out_dir / "probe", args.tiny)
        reference = statistics.median(time_reference(SETUP_REFERENCE_LOOPS))
        print(json.dumps({"setup_s": seconds, "reference_s": reference}))
        return 0

    cells, _ = setup(args.workload, args.seed, out_dir, args.tiny)
    if args.trace:
        from spans import Tracer

        passes = measure(cells, args.seconds, Tracer())
        metrics, wanted = per_layer(passes), spec["per_layer"]
    else:
        probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
        passes = measure(cells, args.seconds)
        (metrics, raw), wanted = end_to_end(passes, probes), spec["end_to_end"]

    failures = [kind for p in passes for kind in p["failures"]]
    result = {
        "correct": not any(kind in ("wrong", "error") for kind in failures),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    record = {"provenance": provenance(args), "result": result,
              "all_metrics": metrics, "passes": passes}
    if not args.trace:
        record["raw"] = raw
        record["setup_probes"] = probes
    record_file = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"], "raw": record.get("raw"),
                      "record": str(record_file)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
