"""Shared pieces of the benchmark: locating the checkout's `src`, the input
catalogue, answer digests, statistics and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

CLASSES = ("split", "all", "bipartite", "cobipartite", "chordal")
CLASS_LIMITS = {"split": 9, "all": 8, "bipartite": 8, "cobipartite": 8, "chordal": 8}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference data)."""


def use_checkout_sources():
    """Import `mpart` from this checkout's `src` and nowhere else."""
    if not (SRC / "mpart" / "__init__.py").is_file():
        raise BenchError(f"no mpart sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mpart

    if Path(mpart.__file__).resolve().parent != (SRC / "mpart").resolve():
        raise BenchError(f"mpart imported from {mpart.__file__}, not from {SRC}")
    return mpart


def child_env() -> dict:
    """Environment for child Python processes that import the checkout's mpart."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MPART_JOBS", None)
    return env


def matrix_rows() -> list[str]:
    """The 228 diagonal-star-free 2x2 and 3x3 matrices, as `a;b;c` text, in a
    fixed order (diagonal first, then off-diagonal entries)."""
    out = []
    for d in product("01", repeat=2):
        for o in "01*":
            out.append(f"{d[0]}{o};{o}{d[1]}")
    for d in product("01", repeat=3):
        for a, b, c in product("01*", repeat=3):
            out.append(f"{d[0]}{a}{b};{a}{d[1]}{c};{b}{c}{d[2]}")
    return out


def catalog_digest(graph6s, counts) -> str:
    """Digest of one catalog: its sorted graph6 strings and per-order counts."""
    body = json.dumps(
        {"graph6": sorted(graph6s), "counts": {str(n): c for n, c in sorted(counts.items())}},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def load_json(name: str):
    path = REFERENCE_DIR / name
    if not path.is_file():
        raise BenchError(f"missing reference file {path}")
    return json.loads(path.read_text())


# --- statistics -------------------------------------------------------------

def p50(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when that percentile would not exceed the median."""
    s = sorted(values)
    n = len(s)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, s[n - 11]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus the largest waited-for child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def report_line(name: str, value, unit: str, note: str = "") -> None:
    """One human-readable metric line; the JSON result line comes last."""
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {shown:>14} {unit:<6} {note}".rstrip())


def timing_lines(prefix: str, seconds, scale: float, unit: str) -> None:
    """p50 and tail lines for a list of latencies in seconds."""
    n = len(seconds)
    if not n:
        report_line(f"{prefix}_p50_{unit}", "n/a", unit, "no samples")
        return
    report_line(f"{prefix}_p50_{unit}", p50(seconds) * scale, unit, f"n={n}")
    t = tail(seconds)
    if t is None:
        report_line(f"{prefix}_tail_ms", "n/a", "ms", f"too few samples for a tail (n={n})")
    else:
        pct, value = t
        report_line(f"{prefix}_tail_ms", value * 1e3, "ms", f"p{pct:.1f}, n={n}, 10 beyond")


class Outcome:
    """Attempted and failed operations, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def error_rate_line(self) -> None:
        rate = self.failed / self.attempted if self.attempted else 1.0
        report_line("error_rate", rate, "ratio", f"{self.failed} failed of {self.attempted} attempted")


# Set-up is repeated in this many processes per workload (the benchmark's own
# plus fresh children running `run.py --setup-probe`) and the median reported,
# because one cold import or generation is noisy. catalog-warm's set-up
# generates every candidate graph (about 14 s); the others take well under 1 s.
SETUP_REPEATS = {"catalog-warm": 3, "catalog-cold": 9, "solve-deep": 9}


def measure_setup(workload: str, seed: int, own_seconds: float) -> list[float]:
    """`own_seconds` plus the set-up time of SETUP_REPEATS - 1 fresh processes."""
    times = [own_seconds]
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_REPEATS[workload] - 1):
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=170, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def passes_until(passes, seconds: float):
    """Yield whole passes from `passes` until the run is as near to `seconds`
    as whole passes allow: the first pass always, then another only while it
    would, at the mean pass time so far, end the run nearer to `seconds` than
    stopping does. So the number of passes in a run depends on the machine's
    speed only when a pass takes about two thirds of `seconds` or less."""
    start = time.perf_counter()
    for done, one_pass in enumerate(passes):
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / done / 2 >= seconds:
            return
        yield one_pass


def balanced_groups(items, cost, n: int) -> list[list]:
    """`items` split into n groups of the same size and almost the same total
    `cost[item]`: costliest first, each item goes to the group with the least
    cost so far among those not yet full. A group is listed costliest first;
    the cheapest items left over when len(items) is not a multiple of n are
    appended to every group."""
    ranked = sorted(items, key=lambda i: (-cost[i], i))
    size = len(ranked) // n
    groups = [[] for _ in range(n)]
    totals = [0.0] * n
    for i in ranked[:size * n]:
        g = min((g for g in range(n) if len(groups[g]) < size), key=lambda g: (totals[g], g))
        groups[g].append(i)
        totals[g] += cost[i]
    for group in groups:
        group.extend(ranked[size * n:])
    return groups


def balanced_order(n: int, rng) -> list[int]:
    """A seeded order of the positions of an n-item list sorted by cost, in
    which each consecutive pair is (k, n-1-k), so any prefix of it has close
    to the average cost."""
    pairs = [[k, n - 1 - k] for k in range(n // 2)]
    rng.shuffle(pairs)
    for pair in pairs:
        rng.shuffle(pair)
    if n % 2:
        pairs.insert(rng.randrange(len(pairs) + 1), [n // 2])
    return [k for pair in pairs for k in pair]
