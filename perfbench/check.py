"""Checks of CLI outputs with plain numpy against each instance's (A, b, lo, hi).

Every call is either correct or failed under exactly one reason.  Every
instance that is solved has a solution: the solve-large matrices are positive
definite and the games live on bounded boxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

REASONS = ("exception", "exit-1", "unsolved", "bad-residual", "wrong-verdict", "bad-witness")
# Reasons under which the program answered, and answered wrongly.
WRONG_ANSWER = ("bad-residual", "wrong-verdict", "bad-witness")
RESIDUAL_TOL = 1e-8
WITNESS_TOL = 1e-9  # relative slack when a witness quantity is recomputed


@dataclass
class Call:
    code: int | None  # exit code, None when the call raised
    out: str  # captured stdout
    error: str | None  # exception type when the call raised
    seconds: float


@dataclass
class Facts:
    """What one checked call contributes to the workload properties."""

    active: int = 0  # solved coordinates sitting on a bound
    coords: int = 0  # solved coordinates in all
    decided: int = 0  # certificates with a pass or fail verdict
    requested: int = 0  # conditions requested


def check(inst, call: Call) -> tuple[str | None, Facts]:
    """(failure reason or None, facts) for one call."""
    facts = Facts()
    if call.error is not None:
        return "exception", facts
    if call.code == 1:
        return "exit-1", facts
    doc = json.loads(call.out)
    if doc["command"] == "solve":
        return _check_solve(inst, doc, facts), facts
    return _check_certify(inst, doc, facts), facts


def natural_residual(inst, x) -> float:
    """||x - P_K(x - F(x))||_inf."""
    f = inst.a @ x + inst.b
    return float(np.max(np.abs(x - np.clip(x - f, inst.lo, inst.hi))))


def _check_solve(inst, doc, facts):
    solved = [r for r in doc["results"] if r["status"] == "solved"]
    if not solved:
        return "unsolved"
    for r in solved:
        x = np.array(r["x"], dtype=float)
        if np.any(x < inst.lo) or np.any(x > inst.hi):
            return "bad-residual"
        if natural_residual(inst, x) > RESIDUAL_TOL * (1.0 + np.max(np.abs(x))):
            return "bad-residual"
        facts.active += int(np.sum((x == inst.lo) | (x == inst.hi)))
        facts.coords += inst.m
    return None


def _check_certify(inst, doc, facts):
    certs = {c["condition"]: c for c in doc["certificates"]}
    facts.requested = len(certs) + len(doc["skipped"])
    facts.decided = sum(c["verdict"] in ("pass", "fail") for c in certs.values())
    if inst.pmatrix is True and any(certs[c]["verdict"] != "pass"
                                    for c in ("pmatrix", "uniform-pmatrix")):
        return "wrong-verdict"
    if inst.pmatrix is False and certs["pmatrix"]["verdict"] != "fail":
        return "wrong-verdict"
    for c in certs.values():
        if c["verdict"] == "fail" and not witness_holds(inst, c):
            return "bad-witness"
    return None


def _minor(a, idx) -> tuple[float, float]:
    """(principal minor, Hadamard bound on its magnitude)."""
    sub = a[np.ix_(idx, idx)]
    return float(np.linalg.det(sub)), float(np.prod(np.linalg.norm(sub, axis=1)))


def _nonpositive_minor(a, idx) -> bool:
    d, scale = _minor(a, list(idx))
    return d <= WITNESS_TOL * scale


def _own_block(inst, player):
    start = sum(inst.blocks[:player])
    sl = slice(start, start + inst.blocks[player])
    return inst.a[sl, sl]


def _min_eig(q) -> float:
    return float(np.linalg.eigvalsh((q + q.T) / 2.0)[0])


def upsilon(inst) -> np.ndarray:
    """Comparison matrix of a game: own-block lambda_min on the diagonal,
    minus cross-block spectral norms off it."""
    offs = np.concatenate([[0], np.cumsum(inst.blocks)])
    n = len(inst.blocks)
    ups = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            blk = inst.a[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
            ups[i, j] = _min_eig(blk) if i == j else -np.linalg.norm(blk, 2)
    return ups


def witness_holds(inst, cert) -> bool:
    """Recompute the quantity a fail witness asserts.

    The Jacobian of every benchmark instance is the constant matrix A, so a
    mixed-row matrix of uniform-pmatrix is A itself.  Witnesses of the
    maximal-rank, coercivity and pl conditions are not recomputed.
    """
    w, cond, a = cert["witness"], cert["condition"], inst.a
    scale = 1.0 + float(np.max(np.abs(a)))
    if cond in ("pmatrix", "uniform-pmatrix"):
        if "index_set" in w:
            return _nonpositive_minor(a, w["index_set"])
        least = min(_minor(a, list(idx))[0] for r in range(1, inst.m + 1)
                    for idx in combinations(range(inst.m), r))
        return least < w["eta_floor"]
    if cond == "sigma-sweep":
        idx = w["index_set"]
        s = np.linalg.svd(a[np.ix_(idx, idx)], compute_uv=False)[-1]
        return s <= WITNESS_TOL * scale
    if cond in ("pfunction", "block-pfunction"):
        x, y = np.array(w["x"]), np.array(w["y"])
        df, d = (a @ x + inst.b) - (a @ y + inst.b), x - y
        if cond == "pfunction":
            top = np.max(df * d)
        else:
            offs = np.concatenate([[0], np.cumsum(inst.blocks or (inst.m,))])
            top = max(df[s:e] @ d[s:e] for s, e in zip(offs[:-1], offs[1:]))
        return top / (d @ d) <= WITNESS_TOL * scale
    if cond == "block-convexity" or (cond == "upsilon" and w["clause"] == "own-block-pd"):
        return _min_eig(_own_block(inst, w["player"])) <= WITNESS_TOL * scale
    if cond == "upsilon":
        return _nonpositive_minor(upsilon(inst), w["index_set"])
    return True
