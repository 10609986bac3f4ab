"""Golden solver runs: every registry problem, bit for bit.

``tests/data/golden_multistart.json`` pins, per registry problem, what
``multistart(p, starts=8, seed=42)`` returns, and what ``solve`` returns from
each of 8 seeded start points before any deduplication: statuses, step
kinds, iteration counts and ``float.hex`` of every coordinate of ``x`` and
``v``.  A solver change that keeps Newton iterates bit-identical leaves it
as is.
Regenerate it (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from vibox import SolveConfig, get_problem, multistart, solve
from vibox.registry import problem_ids

GOLDEN = Path(__file__).parent / "data" / "golden_multistart.json"


def _record(r):
    return {"status": r.status, "steps": list(r.steps), "iterations": r.iterations,
            "x": [float(t).hex() for t in r.x], "v": [float(t).hex() for t in r.v]}


def snapshot(pid):
    p = get_problem(pid)
    rng = np.random.default_rng(42)
    lo = np.where(np.isfinite(p.set.lo), p.set.lo, -10.0)
    hi = np.where(np.isfinite(p.set.hi), p.set.hi, 10.0)
    starts = [rng.uniform(lo - 2.0, hi + 2.0) for _ in range(8)]
    return {"multistart": [_record(r) for r in multistart(p, starts=8, seed=42)],
            "starts": [_record(solve(p, SolveConfig(start=s))) for s in starts]}


@pytest.mark.parametrize("pid", problem_ids())
def test_multistart_matches_golden(pid):
    golden = json.loads(GOLDEN.read_text())
    assert snapshot(pid) == golden[pid]


def test_golden_covers_registry():
    assert sorted(json.loads(GOLDEN.read_text())) == problem_ids()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({pid: snapshot(pid) for pid in problem_ids()},
                                 indent=1, sort_keys=True) + "\n")
