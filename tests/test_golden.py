"""Golden runs: solver results and certify reports, bit for bit.

``tests/data/golden_multistart.json`` pins, per registry problem and for a
seeded nonconvex game half of whose starts stall, what
``multistart(p, starts=8, seed=42)`` returns, and
what ``solve`` returns from each of 8 seeded start points before any
deduplication: statuses, step kinds, iteration counts and ``float.hex`` of
every coordinate of ``x`` and ``v``.  A solver change that keeps Newton
iterates bit-identical leaves it as is.

``tests/data/golden_certify.json`` pins the exit code and the full stdout of
``vibox certify`` with default options for every registry problem, for
three seeded affine VIs with m = 8 (a P-matrix, one with a planted negative
2x2 principal minor, and a rank-deficient one), and for a seeded two-player
game with 2-dim own blocks on a bounded box, whose ``pl`` margin is not a
round number.  A checker change that keeps every margin and witness
bit-identical leaves it as is.

Regenerate a file (only for a deliberate behaviour change) with

    PYTHONPATH=src python tests/test_golden.py multistart
    PYTHONPATH=src python tests/test_golden.py certify
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from vibox import (BoxSet, VIProblem, affine_mapping, get_problem, make_game, multistart,
                   normal_map, save_problem, solve, solver)
from vibox.certificates import certify_problem, maximal_rank_tsearch
from vibox.cli import main
from vibox.registry import problem_ids

GOLDEN = Path(__file__).parent / "data" / "golden_multistart.json"
GOLDEN_CERTIFY = Path(__file__).parent / "data" / "golden_certify.json"


def _record(r):
    return {"status": r.status, "steps": list(r.steps), "iterations": r.iterations,
            "x": [float(t).hex() for t in r.x], "v": [float(t).hex() for t in r.v]}


def snapshot_starts(p):
    """The 8 seeded start points of ``snapshot``."""
    rng = np.random.default_rng(42)
    lo = np.where(np.isfinite(p.set.lo), p.set.lo, -10.0)
    hi = np.where(np.isfinite(p.set.hi), p.set.hi, 10.0)
    return [rng.uniform(lo - 2.0, hi + 2.0) for _ in range(8)]


def snapshot(name):
    cases = stall_cases()
    p = cases[name] if name in cases else get_problem(name)
    return {"multistart": [_record(r) for r in multistart(p, starts=8, seed=42)],
            "starts": [_record(solve(p, start=s)) for s in snapshot_starts(p)]}


def affine_cases(m=8):
    """Seeded affine VIs on a box with one free and one half-bounded coordinate."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((m, m))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, m))
    planted = a.copy()
    planted[2, 5] = planted[5, 2] = 1.5 * np.sqrt(a[2, 2] * a[5, 5])
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    w = np.linalg.qr(rng.standard_normal((m, m)))[0]
    singular = u @ np.diag(np.r_[rng.uniform(0.5, 3.0, m - 2), 0.0, 0.0]) @ w.T
    lo = np.r_[np.full(m - 2, -2.0), -np.inf, 0.0]
    hi = np.r_[np.full(m - 2, 3.0), np.inf, np.inf]
    b = rng.standard_normal(m)
    return {f"affine-m{m}-{tag}": VIProblem(affine_mapping(mat, b), BoxSet(lo, hi), name=tag)
            for tag, mat in (("pmatrix", a), ("planted", planted), ("singular", singular))}


def game_cases():
    """A seeded two-player game with 2-dim own blocks on [-3, 3]^4 whose unique
    Nash equilibrium lies inside the box."""
    rng = np.random.default_rng(9)
    q = {(i, j): rng.uniform(-0.5, 0.5, (2, 2)) for i in range(2) for j in range(2)}
    for i in range(2):
        s = q[i, i] @ q[i, i].T + np.eye(2)
        q[i, i] = (s + s.T) / 2.0
    box = BoxSet(np.full(4, -3.0), np.full(4, 3.0), (2, 2))
    g = make_game((2, 2), q, (np.zeros(2), np.zeros(2)), box)
    c = -(g.mapping.data["A"] @ rng.uniform(-1.0, 1.0, 4))
    return {"game-2x2-box": make_game((2, 2), q, (c[:2], c[2:]), box, name="game-2x2-box")}


def stall_cases():
    """A seeded three-player game on [-3, 3]^4 with blocks (2, 1, 1) whose first
    own block is indefinite: half of the seeded starts of ``snapshot`` and all
    but one of ``multistart``'s end in line-search-stall.  Without the
    progress stop they took about 20 halvings per Newton iteration."""
    rng = np.random.default_rng(37)
    a = 0.4 * rng.standard_normal((4, 4))
    u = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    own = u @ np.diag([-rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)]) @ u.T
    a[:2, :2] = (own + own.T) / 2.0
    for i in (2, 3):
        a[i, i] = rng.standard_normal() ** 2 + 0.5
    c = rng.uniform(-3.0, 3.0, 4)
    sl = (slice(0, 2), slice(2, 3), slice(3, 4))
    q = {(i, j): a[sl[i], sl[j]] for i in range(3) for j in range(3)}
    return {"game-3p-stall": make_game((2, 1, 1), q, [c[s] for s in sl],
                                       BoxSet(np.full(4, -3.0), np.full(4, 3.0), (2, 1, 1)),
                                       name="game-3p-stall")}


def certify_output(problem):
    """Exit code and stdout of ``vibox certify <problem>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["certify", problem])
    return {"exit": code, "stdout": out.getvalue()}


def certify_record(name):
    """Certify record of a registry problem, or of an affine or game case
    written to the current directory (so that the report names a relative path)."""
    cases = {**affine_cases(), **game_cases()}
    if name in cases:
        save_problem(cases[name], f"{name}.json")
        return certify_output(f"{name}.json")
    return certify_output(name)


MULTISTART_NAMES = problem_ids() + sorted(stall_cases())
CERTIFY_NAMES = problem_ids() + sorted(affine_cases()) + sorted(game_cases())


@pytest.mark.parametrize("pid", MULTISTART_NAMES)
def test_multistart_matches_golden(pid):
    golden = json.loads(GOLDEN.read_text())
    assert snapshot(pid) == golden[pid]


def test_golden_covers_registry():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(MULTISTART_NAMES)


def test_stall_case_stops_stalled_starts_early(monkeypatch):
    # Each stalled seeded start ends within 10 iterations, on fewer normal-map
    # evaluations than the same start makes with the progress stop disabled.
    p = stall_cases()["game-3p-stall"]
    calls = []

    def counted(p, v):
        calls.append(1)
        return normal_map(p, v)

    def run(start):
        calls.clear()
        res = solve(p, start=start)
        return res, len(calls)

    # _trial, in the module vibox.normal_map (the package attribute is the
    # function), evaluates every line-search trial
    monkeypatch.setattr(sys.modules["vibox.normal_map"], "normal_map", counted)
    stalled = 0
    for start in snapshot_starts(p):
        res, evals = run(start)
        if res.status != "line-search-stall":
            continue
        stalled += 1
        with monkeypatch.context() as m:
            m.setattr(solver, "MIN_PROGRESS", 0.0)
            old, old_evals = run(start)
        assert old.status == "line-search-stall"
        assert res.iterations <= 10 < old.iterations and evals < old_evals
    assert stalled >= 2
    assert any(r.status == "solved" for r in multistart(p, starts=8, seed=42))


@pytest.mark.parametrize("name", CERTIFY_NAMES)
def test_certify_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert certify_record(name) == json.loads(GOLDEN_CERTIFY.read_text())[name]


def test_golden_certify_covers_cases():
    assert sorted(json.loads(GOLDEN_CERTIFY.read_text())) == sorted(CERTIFY_NAMES)


def test_maximal_rank_fails_on_rank_deficient_case():
    # rank m - 2: the vertex minors det A[S, S] over the faces differ in sign,
    # and the edge ({6}, 0) of the witness shows it where F_nor != 0
    p = affine_cases()["affine-m8-singular"]
    (rep,), _ = certify_problem(p, ["maximal-rank"], tol=1e-8)
    assert rep.verdict == "fail" and rep.witness["residual"] > 1e-8
    assert (rep.witness["index_set"], rep.witness["k"]) == ([6], 0)
    assert np.prod(np.sign(rep.witness["minors"])) < 0.0


@pytest.mark.parametrize("p", [VIProblem(affine_mapping(np.ones((2, 2))), BoxSet.full_space(2)),
                               affine_cases()["affine-m8-singular"]], ids=["ones-2x2", "m8"])
def test_maximal_rank_never_passes_rank_deficient_cases(p):
    # Their least sigma_min is rounding noise (3.35e-17 and 5.24e-18): above a
    # tol of 0, below the default 1e-8.  With b = 0, F_nor vanishes at the
    # face point of ones-2x2, so there the verdict is inconclusive.
    rep = maximal_rank_tsearch(p, 5, 0, 10.0)
    assert rep.verdict != "pass" and rep.margin <= 1e-8


if __name__ == "__main__":
    which = sys.argv[1:] or ["multistart", "certify"]
    if "multistart" in which:
        GOLDEN.write_text(json.dumps({name: snapshot(name) for name in MULTISTART_NAMES},
                                     indent=1, sort_keys=True) + "\n")
    if "certify" in which:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            records = {name: certify_record(name) for name in CERTIFY_NAMES}
        GOLDEN_CERTIFY.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
