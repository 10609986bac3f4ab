"""Compare the solver's step-growth singularity test with the singular-value test.

Solves 300 seeded affine box VIs whose matrices are rank deficient (even
index: trailing singular values exactly 0 before rounding) or near singular
(odd index: trailing singular values 1e-14 .. 1e-6), m = 2 .. 29, from 4
starts each (the default start and 3 seeded ones), twice: once with the
solver as it is, once with the Newton directions (``newton_directions``,
which takes the starts' systems as one stack) patched to build each full
element J, decide singularity by its SVD, sigma_min < REG_FLOOR *
max(sigma_max, 1), and solve J d = -r by the LU of J itself.
Prints how many problems give identical runs (statuses, step kinds and the
bits of x and v), how many give the same statuses and step kinds (the bits
differ by rounding wherever a coordinate is active, since the solver factors
only the free block), how the differing ones differ, and how many problems
have at least one solved start under each rule.

    PYTHONPATH=src python scripts/singular_study.py
"""

from collections import Counter
from unittest import mock

import numpy as np

import vibox.solver
from vibox import BoxSet, VIProblem, affine_mapping, box_midpoint, solve
from vibox.solver import REG_FLOOR


def svd_rule_directions(df, free, r, r_norm):
    """The reference, row by row: the full element J = I - D + dF D, its SVD,
    and the LU solve of J d = -r when the singular-value test passes."""
    d, singular = np.full(r.shape, np.nan), np.zeros(len(r), dtype=bool)
    for i, (f, ri) in enumerate(zip(free, r)):
        j = df[i] * f + np.diag(1.0 - f)
        sv = np.linalg.svd(j, compute_uv=False)
        singular[i] = sv[-1] < REG_FLOOR * max(sv[0], 1.0)
        if not singular[i]:
            d[i] = np.linalg.solve(j, -ri)
    return d, singular


def problem(i):
    rng = np.random.default_rng(1000 + i)
    m = int(rng.integers(2, 30))
    k = int(rng.integers(1, m))
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    w = np.linalg.qr(rng.standard_normal((m, m)))[0]
    s = np.zeros(m)
    s[:k] = rng.uniform(0.5, 5.0, k)
    if i % 2:
        s[k:] = 10.0 ** rng.uniform(-14, -6, m - k)
    b = rng.standard_normal(m)
    lo = rng.uniform(-3, 0, m)
    hi = lo + rng.uniform(0.5, 4, m)
    free = rng.random(m) < 0.2
    lo[free], hi[free] = -np.inf, np.inf
    p = VIProblem(affine_mapping((u * s) @ w.T, b), BoxSet(lo, hi))
    box_lo = np.where(np.isfinite(lo), lo - 2.0, -10.0)
    box_hi = np.where(np.isfinite(hi), hi + 2.0, 10.0)
    return p, [box_midpoint(p.set)] + [rng.uniform(box_lo, box_hi) for _ in range(3)]


def runs(p, starts):
    return [solve(p, start=s) for s in starts]


def key(res):
    return res.status, res.steps, res.x.tobytes(), res.v.tobytes()


def main(count=300):
    identical, same_steps, first_change, solved = 0, 0, Counter(), Counter()
    for i in range(count):
        p, starts = problem(i)
        new = runs(p, starts)
        with mock.patch.object(vibox.solver, "newton_directions", svd_rule_directions):
            old = runs(p, starts)
        solved["step-growth"] += any(r.solved for r in new)
        solved["svd"] += any(r.solved for r in old)
        if [key(r) for r in new] == [key(r) for r in old]:
            identical += 1
        same_steps += [key(r)[:2] for r in new] == [key(r)[:2] for r in old]
        for a, b in zip(old, new):
            k = next((n for n, (s, t) in enumerate(zip(a.steps, b.steps)) if s != t), None)
            if k is not None:
                first_change[f"{a.steps[k]} (svd) -> {b.steps[k]} (step-growth)"] += 1
    print(f"problems: {count}, identical: {identical}, differ: {count - identical}, "
          f"same statuses and steps: {same_steps}")
    print("first differing step per start:", dict(first_change))
    print("problems with a solved start:", dict(solved))


if __name__ == "__main__":
    main()
