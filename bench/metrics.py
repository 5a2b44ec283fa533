"""What every metric means: its unit, which way is better, its layer and, for a
per-layer metric, the end-to-end metric and workload it should move.

`BENCHMARK.json` at the repository root carries the name, unit, direction and
bound of each metric; this table adds the layer and the expected effect, and
the traced run prints it next to each value."""

from __future__ import annotations

WORKLOADS = {
    "catalog-warm": (
        "a panel of 12 matrix permutation classes, seeded members, x 5 classes at the limits, "
        "in-process, jobs=1, warm caches: solve via classify_minimality dominates"
    ),
    "catalog-cold": (
        "a fresh `python -m mpart enumerate --jobs $(nproc)` per (matrix, class), all/bipartite/"
        "chordal n <= 8: cold generation, the pool, serialization and catalog writes"
    ),
    "solve-deep": (
        "Theorem 5 graphs and random split graphs n=10..40, m=2..4, each solved by solve "
        "and solve_split: few but deep searches, no generation or pool"
    ),
}

# name: (unit, better, bound, meaning on each workload)
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25,
                  "operations per busy second: matrices (five catalogs each) on catalog-warm, "
                  "cold processes (enum_per_s) on catalog-cold, instances on solve-deep"),
    "op_p50_ms": ("ms", "lower", 0.25,
                  "median latency of one such operation (enum_p50_ms on catalog-cold)"),
    "peak_rss_mb": ("MB", "lower", 0.25,
                    "peak resident set of the benchmark process, plus its largest child "
                    "on catalog-cold"),
    "setup_s": ("s", "lower", 0.25,
                "median of repeated set-ups (three on catalog-warm, nine on the others): cold "
                "import of mpart plus what the workload prepares before its timed loop (all "
                "candidate generation on catalog-warm)"),
}

# name: (unit, better, end-to-end metric it should move, workload). The
# end-to-end names here are the ones the text report prints (enum_* on the
# catalog workloads, solve_* and split_solve_* on solve-deep); END_TO_END
# says how they relate to the names of the JSON result line.
_GEN = ("setup_s; enum_p50_ms (not enum_per_s on catalog-warm)", "every workload; catalog-cold")
_WARM = ("enum_per_s", "catalog-warm")
_SOLVE = ("enum_per_s; solve_per_s, solve_tail_ms", "catalog-warm; solve-deep")
_SPLIT = ("split_solve_per_s, split_solve_tail_ms", "solve-deep")
_COLD = ("enum_p50_ms", "catalog-cold")
PER_LAYER = {
    "graph.canonical_form.calls": ("count", "lower", *_GEN),
    "graph.canonical_form.self_s": ("s", "lower", *_GEN),
    "graph.enumerate_graphs.self_s": ("s", "lower", *_GEN),
    "graph.enumerate_split_graphs.self_s": ("s", "lower", *_GEN),
    "graph.delete_vertex.calls": ("count", "lower", *_WARM),
    "graph.delete_vertex.self_s": ("s", "lower", *_WARM),
    "solver.solve.calls": ("count", "lower", *_SOLVE),
    "solver.solve.self_s": ("s", "lower", *_SOLVE),
    "solver.solve.p50_us": ("us", "lower", *_SOLVE),
    "solver.solve.tail_us": ("us", "lower", *_SOLVE),
    "solver.solve.obstructed_ratio": ("ratio", "higher", *_SOLVE),
    "solver.solve_split.calls": ("count", "lower", *_SPLIT),
    "solver.solve_split.self_s": ("s", "lower", *_SPLIT),
    "solver.solve_split.random.calls": ("count", "lower", *_SPLIT),
    "solver.solve_split.random.self_s": ("s", "lower", *_SPLIT),
    "solver.solve_split.theorem5.calls": ("count", "lower", *_SPLIT),
    "solver.solve_split.theorem5.self_s": ("s", "lower", *_SPLIT),
    "recognize.is_bipartite.calls": ("count", "lower", "enum_per_s (bipartite class)",
                                     "catalog-warm"),
    "recognize.is_bipartite.self_s": ("s", "lower", "enum_per_s (bipartite class)",
                                      "catalog-warm"),
    "recognize.is_chordal.calls": ("count", "lower", "enum_per_s (chordal class)",
                                   "catalog-warm"),
    "recognize.is_chordal.self_s": ("s", "lower", "enum_per_s (chordal class)", "catalog-warm"),
    "recognize.split_partition.calls": ("count", "lower", *_SPLIT),
    "recognize.split_partition.self_s": ("s", "lower", *_SPLIT),
    "obstruction.classify_minimality.calls": ("count", "lower", *_WARM),
    "obstruction.classify_minimality.self_s": ("s", "lower", *_WARM),
    "obstruction.minimal_ratio": ("ratio", "higher", *_WARM),
    "obstruction.solves_per_candidate": ("ratio", "lower", *_WARM),
    "obstruction.enumerate_minimal_obstructions.self_s": ("s", "lower", *_WARM),
    "obstruction.pool.child_cpu_s": ("s", "lower", *_COLD),
    "obstruction.pool.efficiency": ("ratio", "higher", *_COLD),
    "obstruction.save_catalog.self_s": ("s", "lower", *_COLD),
    "obstruction.save_catalog.bytes": ("bytes", "lower", *_COLD),
    "obstruction.report_to_json.self_s": ("s", "lower", *_COLD),
    "obstruction.report_to_json.bytes": ("bytes", "lower", *_COLD),
    "cli.startup_s": ("s", "lower", *_COLD),
    "trace.overhead_pct": ("%", "lower", "none: the cost of tracing itself", "every workload"),
}
