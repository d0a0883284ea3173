"""Re-measure the baseline ladder: median and quartiles of repeated runs.

    python3 bench/ladder_baseline.py --repeats 5

Each cell is one sequential ``rb_exact`` call with an explicit edge budget and
timeout; the cells run round-robin, so slow phases of a shared machine spread
over all of them.  Prints the median time of the benchmark's reference loop
(how fast the machine was), then one JSON line per cell: nodes, and raw wall
seconds as (q1, median, q3) over the repeats.  Cells known to run past a minute
(P16/C16 with m = 5, circulant(7,4) and circulant(10,3)) are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import run
import workloads

CELLS = (
    ("path P14", ("path", 14), 4),
    ("cycle C14", ("cycle", 14), 5),
    ("circulant(5,3)", ("circulant", 5, 3), 3),
    ("K_{4,4}", ("complete_bipartite", 4), 3),
    ("circulant(7,3)", ("circulant", 7, 3), 3),
    ("circulant(8,3)", ("circulant", 8, 3), 3),
    ("K_{5,5}", ("complete_bipartite", 5), 3),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    run.locate_package()
    from rainbowlab import extremal, graphs

    built = [(label, workloads.make_graph(graphs, spec, 0), m) for label, spec, m in CELLS]
    walls = {label: [] for label, _, _ in CELLS}
    nodes = {}
    reference = []
    for _ in range(args.repeats):
        for label, g, m in built:
            start = time.perf_counter()
            result = extremal.rb_exact(g, m, edge_budget=32, timeout_ms=120_000)
            walls[label].append(time.perf_counter() - start)
            nodes[label] = result.colorings_examined
            reference += run.time_reference(1)
    print(json.dumps({"reference_loop_median_s": statistics.median(reference),
                      "nominal_s": run.REFERENCE_S}))
    for label, g, m in built:
        q1, median, q3 = statistics.quantiles(walls[label], n=4)
        print(json.dumps({"cell": label, "edges": g.edge_count, "m": m, "nodes": nodes[label],
                          "repeats": args.repeats, "wall_q1_s": q1, "wall_median_s": median,
                          "wall_q3_s": q3}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
