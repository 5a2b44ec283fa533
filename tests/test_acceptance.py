"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or use the
equivalent `mpart verify --level full` command.
"""

import subprocess

import pytest

from mpart import verify as vf


@pytest.mark.parametrize(
    "name,budget,func",
    [(name, budget, func) for name, budget, _tier, func in vf.CRITERIA],
    ids=[name for name, *_ in vf.CRITERIA],
)
def test_criterion(name, budget, func):
    # the rule `mpart verify` applies: the check holds within its budget
    ok, line = vf.run_criterion(name, budget, func)
    print(line)
    assert ok, f"{line} (budget {budget}s)"


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
