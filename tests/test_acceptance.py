"""End-to-end acceptance checks.

Each test exercises one numbered criterion and prints a single PASS or FAIL
line (bypassing capture) before asserting, so a verbose run shows the
scorecard even when individual assertions are terse.
"""

import json
import time

import numpy as np
import pytest

from vibox import (BoxSet, Mapping, VIProblem, affine_mapping, classify, coercivity_check,
                   coercivity_probe, fd_jacobian, get_problem, maximal_rank_tsearch,
                   multistart, normal_map, normal_map_jacobian_element, pl_condition_check,
                   pmatrix_minors, pmatrix_oracle, solve, uniform_pfunction_search,
                   upsilon_build)
from vibox.cli import main as cli_main


@pytest.fixture
def scorecard(capfd):
    def report(criterion, ok, detail=""):
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return report


def test_criterion_1_multistart_solves_coupled_affine_vi(scorecard):
    t0 = time.perf_counter()
    results = multistart(get_problem("example-vi"), starts=8, seed=42)
    elapsed = time.perf_counter() - t0
    norms = [np.linalg.norm(r.x) for r in results if r.status == "solved"]
    ok = bool(norms) and max(norms) <= 1e-8 and elapsed < 1.0
    scorecard(1, ok, f"{len(results)} distinct, worst |x*|={max(norms):.2e}, "
                     f"{elapsed:.3f}s")


def test_criterion_2_game_classified_nash_with_exact_gap_moduli(scorecard):
    p = get_problem("example-game")
    res = multistart(p, starts=1)[0]
    rep = pl_condition_check(p, res.x)
    mu = rep.metrics["mu"]
    label = classify(p, res)
    ok = (res.status == "solved" and label == "nash"
          and np.linalg.norm(res.x) <= 1e-8
          and rep.verdict == "pass"
          and max(abs(m - 2.0) for m in mu) <= 1e-9)
    scorecard(2, ok, f"classification={label}, mu={mu}")


def test_criterion_3_negative_certificates_carry_exact_witnesses(scorecard):
    f = get_problem("example-vi")
    opaque = VIProblem(Mapping(fn=f.mapping.fn, dim=f.dim, rows=f.mapping.rows), f.set)
    rep_pf = uniform_pfunction_search(opaque, pairs=200, seed=42)
    d = np.array(rep_pf.witness["y"]) - np.array(rep_pf.witness["x"])
    d /= np.linalg.norm(d)
    target = np.array([1.0, -1.0]) / np.sqrt(2.0)
    dir_err = min(np.linalg.norm(d - target), np.linalg.norm(d + target))
    ups = upsilon_build(get_problem("example-game"))
    rep_up = pmatrix_minors(ups)
    ok = (rep_pf.verdict == "fail" and dir_err <= 1e-3
          and np.array_equal(ups, [[1.0, -2.0], [-3.0, 1.0]])
          and rep_up.verdict == "fail" and rep_up.margin == -5.0)
    scorecard(3, ok, f"direction error {dir_err:.1e}, upsilon minor {rep_up.margin}")


def test_criterion_4_randomized_oracle_agrees_with_minor_enumeration(scorecard):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    total = found = unsound = 0
    nonp = 0
    while total < 100:
        a = rng.uniform(-2.0, 2.0, (3, 3))
        rep_exact = pmatrix_minors(a)
        if abs(rep_exact.margin) < 1e-6:
            continue  # keep cases decisively on one side
        total += 1
        rep_orc = pmatrix_oracle(a, samples=100000, seed=123)
        if rep_exact.verdict == "pass":
            unsound += rep_orc.verdict == "fail"
        else:
            nonp += 1
            found += rep_orc.verdict == "fail"
    elapsed = time.perf_counter() - t0
    ok = unsound == 0 and found >= 0.95 * nonp and elapsed < 10.0
    scorecard(4, ok, f"{found}/{nonp} non-P found, {unsound} unsound, {elapsed:.1f}s")


def test_criterion_5_jacobian_element_matches_finite_differences(scorecard):
    worst = 0.0
    for pid in ("example-vi", "example-game", "identity-box", "spd-box", "cubic-free"):
        p = get_problem(pid)
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 50:
            v = rng.uniform(-3.0, 3.0, p.dim)
            if (np.any(np.abs(v - p.set.lo) < 1e-3)
                    or np.any(np.abs(v - p.set.hi) < 1e-3)):
                continue
            checked += 1
            j = normal_map_jacobian_element(p, v)
            jfd = fd_jacobian(lambda u: normal_map(p, u).r, v)
            worst = max(worst, float(np.max(np.abs(j - jfd))))
    ok = worst < 1e-5
    scorecard(5, ok, f"worst FD deviation {worst:.1e} over 250 points")


def test_criterion_6_coercivity_probe_is_calibrated(scorecard):
    slope_err = 0.0
    ok = True
    for m in (2, 5, 10):
        f = affine_mapping(np.eye(m))
        p = VIProblem(Mapping(fn=f.fn, dim=m, rows=f.rows), BoxSet.full_space(m))
        _, norms = coercivity_probe(p)
        slopes = np.polyfit(np.log(2.0 ** np.arange(4, 12)), np.log(norms[:, 4:]).T, 1)[0]
        slope_err = max(slope_err, float(np.max(np.abs(slopes - 1.0))))
        ok &= coercivity_check(p, 0).verdict == "pass"
    ok &= slope_err <= 0.01
    f = affine_mapping(np.zeros((3, 3)), np.ones(3))
    flat = VIProblem(Mapping(fn=f.fn, dim=3, rows=f.rows), BoxSet.full_space(3))
    ok &= coercivity_check(flat, 0).verdict == "fail"
    scorecard(6, ok, f"identity slope error {slope_err:.1e}, flat map flagged")


def test_criterion_7_maximal_rank_by_vertex_determinants(scorecard):
    # Every element I - D + A D is nonsingular iff the vertex minors det A[S, S]
    # share one sign: identity on a cube passes, and so does a nonsingular A
    # on the full space; [[1, 1], [1, 0]] on a box has A[1, 1] = 0 and fails
    # on the edge from S = {} to S = {1}, where F_nor is nonzero.
    p_box = VIProblem(affine_mapping(np.eye(3)), BoxSet([0.0] * 3, [1.0] * 3))
    rep_box = maximal_rank_tsearch(p_box, 20, 7, 10.0)
    rep_free = maximal_rank_tsearch(get_problem("example-vi"), 20, 7, 10.0)
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    p_bad = VIProblem(affine_mapping(a), BoxSet([-1.0] * 2, [1.0] * 2))
    rep_bad = maximal_rank_tsearch(p_bad, 20, 7, 10.0)
    w = rep_bad.witness
    ok = (rep_box.verdict == "pass" and rep_free.verdict == "pass"
          and rep_bad.verdict == "fail" and (w["index_set"], w["k"]) == ([], 1)
          and w["minors"] == [1.0, 0.0] and normal_map(p_bad, w["point"]).norm > 1e-8)
    scorecard(7, ok, f"box {rep_box.verdict}, free {rep_free.verdict}, "
                     f"zero minor {rep_bad.verdict}")


def test_criterion_8_solutions_satisfy_the_variational_inequality(scorecard):
    rng = np.random.default_rng(8)
    worst = np.inf
    ok = True
    for pid in ("example-vi", "example-game", "identity-box", "constant-box",
                "spd-box", "cubic-free"):
        p = get_problem(pid)
        res = solve(p)
        ok &= res.status == "solved"
        f = p.F(res.x)
        scale = 1.0 + float(np.linalg.norm(f))
        lo = np.where(np.isfinite(p.set.lo), p.set.lo, -50.0)
        hi = np.where(np.isfinite(p.set.hi), p.set.hi, 50.0)
        z = rng.uniform(lo, hi, size=(1000, p.dim))
        worst = min(worst, float(np.min((z - res.x) @ f)) / scale)
        ok &= worst >= -1e-8
    scorecard(8, ok, f"worst normalized gap {worst:.1e} over 6000 test points")


def test_criterion_9_reports_are_deterministic(scorecard, capfd):
    outs = []
    for _ in range(2):
        code = cli_main(["certify", "example-game", "--seed", "42"])
        outs.append(capfd.readouterr().out)
    doc = json.loads(outs[0])
    ok = (outs[0] == outs[1] and code in (0, 2, 3)
          and len(doc["certificates"]) > 0)
    scorecard(9, ok, f"{len(outs[0])} bytes, {len(doc['certificates'])} certificates")
