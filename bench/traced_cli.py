"""One `mpart` CLI process with the benchmark's span wrappers installed.

    python3 bench/traced_cli.py SPANS_FILE SPAWN_TIME ARGV...

Imports mpart.cli cold, installs the wrappers, calls `mpart.cli.main(ARGV)`
and, after it returns, writes the spans to SPANS_FILE and a JSON side file
SPANS_FILE.json with start-up time (from SPAWN_TIME, a `time.monotonic()`
reading taken by the parent just before the spawn), wall time, own CPU time
and the CPU time of the pool workers it waited for. Spans inside pool workers
are not collected."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import common
import spans


def main() -> int:
    spans_file, spawned, argv = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    common.use_checkout_sources()
    import mpart.cli

    tracer = spans.Tracer()
    tracer.install()
    entered = time.monotonic()  # system-wide, comparable with the parent's reading
    cpu0 = spans.cpu_seconds(children=False)
    t0 = time.perf_counter()
    rc = mpart.cli.main(argv)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    tracer.dump(spans_file)
    jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
    side = {
        "startup_s": entered - spawned,
        "wall_s": wall,
        "self_cpu_s": spans.cpu_seconds(children=False) - cpu0,
        "child_cpu_s": spans.cpu_seconds(children=True),
        "jobs": jobs,
    }
    Path(f"{spans_file}.json").write_text(json.dumps(side))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
