"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or use the
equivalent `mpart verify --level full` command.
"""

import subprocess
import time

import pytest

from mpart import verify as vf


@pytest.mark.parametrize(
    "name,budget,func",
    [(name, budget, func) for name, budget, _tier, func in vf.CRITERIA],
    ids=[name for name, *_ in vf.CRITERIA],
)
def test_criterion(name, budget, func):
    t0 = time.perf_counter()
    ok, measured = func()
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{verdict}\t{name}\t{elapsed:.2f}s (budget {budget}s)\t{measured}")
    assert ok, f"{name}: {measured}"
    assert elapsed <= budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def test_enumeration_determinism_kills_late_children(monkeypatch):
    # children still running at the timeout are killed, and the check fails
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    monkeypatch.setattr(vf, "DETERMINISM_TIMEOUT", 0)
    ok, measured = vf.check_enumeration_determinism()
    assert not ok and "killed" in measured
    assert len(started) == 2 and all(p.returncode is not None for p in started)
