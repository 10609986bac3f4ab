"""Time the stacked principal-submatrix engine against per-subset enumeration.

For m = 8 .. 16, builds one seeded strictly diagonally dominant matrix (a
P-matrix, so every minor is computed) and times, best of 3:

- ``pmatrix_minors(a)``, as it is and with ``_minor_scan`` patched back to
  the per-subset loop (one ``np.ix_`` gather and one determinant per subset);
- ``principal_submatrix_sigma_sweep`` on the affine VI with Jacobian a and
  one sample point, as it is and with ``_sigma_scan`` patched back to the
  per-subset loop (one SVD per subset).

Both pairs of reports must be identical (compared as JSON, so every float
bit for bit); the script stops with an AssertionError otherwise.

    PYTHONPATH=src python scripts/minor_engine_study.py
"""

import json
import time
from itertools import combinations
from unittest import mock

import numpy as np

from vibox import (BoxSet, VIProblem, affine_mapping, certificates, draw_samples,
                   pmatrix_minors, principal_submatrix_sigma_sweep)
from vibox.certificates import principal_minor_det


def subsets(m):
    for r in range(1, m + 1):
        yield from combinations(range(m), r)


def loop_minor_scan(a):
    min_minor, first_bad = np.inf, None
    for idx in subsets(a.shape[0]):
        d = principal_minor_det(a[np.ix_(idx, idx)])
        if d < min_minor:
            min_minor = d
        if d <= 0.0 and first_bad is None:
            first_bad = idx
    return min_minor, first_bad


def loop_sigma_scan(a):
    margin, arg = np.inf, None
    for idx in subsets(a.shape[0]):
        s = float(np.linalg.svd(a[np.ix_(idx, idx)], compute_uv=False)[-1])
        if s < margin:
            margin, arg = s, idx
    return margin, arg


def best_of(fn, n=3):
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), json.dumps(out.to_dict(), sort_keys=True)


def matrix(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, m))
    return a


def main():
    print(f"numpy {np.__version__}; seconds are best of 3")
    print(f"{'m':>3} {'minors loop':>12} {'engine':>9} {'x':>6} "
          f"{'sigma loop':>11} {'engine':>9} {'x':>6}")
    for m in range(8, 17):
        a = matrix(m)
        p = VIProblem(affine_mapping(a), BoxSet.full_space(m))
        ss = draw_samples(p.set, 1, seed=m)
        minors = best_of(lambda: pmatrix_minors(a))
        sigma = best_of(lambda: principal_submatrix_sigma_sweep(p, ss))
        with mock.patch.object(certificates, "_minor_scan", loop_minor_scan):
            minors_loop = best_of(lambda: pmatrix_minors(a))
        with mock.patch.object(certificates, "_sigma_scan", loop_sigma_scan):
            sigma_loop = best_of(lambda: principal_submatrix_sigma_sweep(p, ss))
        assert minors[1] == minors_loop[1], f"m={m}: pmatrix_minors reports differ"
        assert sigma[1] == sigma_loop[1], f"m={m}: sigma sweep reports differ"
        print(f"{m:>3} {minors_loop[0]:>12.4f} {minors[0]:>9.4f} "
              f"{minors_loop[0] / minors[0]:>6.1f} {sigma_loop[0]:>11.4f} {sigma[0]:>9.4f} "
              f"{sigma_loop[0] / sigma[0]:>6.1f}")
    print("reports identical at every m")


if __name__ == "__main__":
    main()
