"""mpart benchmark: one closed-loop client, one workload per invocation.

    python3 bench/run.py --workload catalog-warm --seed 1 --seconds 15 --trace 0

Workloads (see metrics.WORKLOADS): catalog-warm, catalog-cold, solve-deep.
Each run checks every output against the reference answers in
bench/reference and against certificate checks that share no code with the
solver. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs a fixed prefix of the same inputs untraced and then traced, and prints
the per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import common
import metrics


def print_result(outcome, values: dict, units: dict) -> None:
    correct = outcome.failed == 0 and outcome.attempted > 0
    if outcome.problems:
        print(f"failures ({outcome.failed} of {outcome.attempted}):")
        for p in outcome.problems[:20]:
            print(f"  {p}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "solve-deep":
        import deep as workload
    else:
        import catalog as workload
    try:
        if args.setup_probe:  # one of the repeated set-ups of common.measure_setup
            t0 = time.perf_counter()
            workload.setup(args.workload, args.seed)
            print(time.perf_counter() - t0)
            return 0
        print(f"mpart benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}, closed loop, one client")
        outcome, values, units = workload.run(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    except (common.BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        for name in metrics.END_TO_END:
            if name not in values:
                print(f"bench: metric {name} missing", file=sys.stderr)
                return 2
    print_result(outcome, values, units)
    return 0


if __name__ == "__main__":
    os.chdir(common.ROOT)
    raise SystemExit(main())
