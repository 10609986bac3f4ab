"""Seeded inputs for the benchmark workloads.

Problem files are written here, following the schema documented in
``src/vibox/problem_io.py``, and never with ``vibox.save_problem``: the inputs
must stay the same when the program's own writer changes.  Every instance
keeps its (A, b, lo, hi) so that the checker can verify outputs with plain
numpy, without vibox.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# (dimension, box half-width scale).  Narrow boxes leave many bounds active at
# the solution, wide ones few, so the active share differs between instances.
# Four instances per dimension average out their integer iteration counts.
SOLVE_LARGE = tuple((m, w) for m in (400, 600, 1000) for w in (0.5, 1.0, 1.5, 2.0))
FREE_SHARE = 0.2  # share of coordinates with no bounds at all
# About 40% of the nonconvex games and 3% of the others stall, and stalled
# games take about 60% of a pass, so the pass time varies with how many
# stall; a large batch keeps that variation between seeds small.
GAMES_PER_PASS = 1600
CERTIFY_DIMS = (8, 9, 10)
CERTIFY_PER_KIND = 2  # P-matrix and planted instances per dimension
CERTIFY_GAMES = 8
GAME_BOX = 3.0


@dataclass
class Instance:
    path: str  # relative to the checkout root, so reports do not depend on its location
    argv: list
    a: np.ndarray  # F(x) = A x + b
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    pmatrix: bool | None = None  # True: P-matrix by construction; False: planted bad minor
    blocks: tuple | None = None  # player block sizes of a game
    nonconvex: bool = False  # game with an own block that is not positive definite
    boundary: bool = False  # game whose every equilibrium has a coordinate on a bound

    @property
    def m(self) -> int:
        return self.b.shape[0]


def _bounds(v):
    return ["inf" if x == np.inf else "-inf" if x == -np.inf else float(x) for x in v]


def _write_affine(path, a, b, lo, hi):
    """Affine problem file; A is streamed row by row to keep memory flat.

    The file is synced to disk before the run measures anything, so that its
    writeback does not compete with the calls."""
    m = b.shape[0]
    head = {"name": os.path.basename(path), "m": m, "mapping": {"kind": "affine"},
            "set": {"lo": _bounds(lo), "hi": _bounds(hi)}}
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1])
        fh.write(', "affine": {"b": %s, "A": [' % json.dumps(b.tolist()))
        for i in range(m):
            fh.write(("," if i else "") + ",".join(map(repr, a[i].tolist())))
        fh.write("]}}\n")
        fh.flush()
        os.fsync(fh.fileno())


def _write_game(path, sizes, a, c, lo, hi):
    offs = np.concatenate([[0], np.cumsum(sizes)])
    q = {f"{i},{j}": a[offs[i]:offs[i + 1], offs[j]:offs[j + 1]].ravel().tolist()
         for i in range(len(sizes)) for j in range(len(sizes))}
    doc = {"name": os.path.basename(path), "m": int(offs[-1]), "mapping": {"kind": "game"},
           "set": {"lo": _bounds(lo), "hi": _bounds(hi), "blocks": list(sizes)},
           "game": {"block_sizes": list(sizes), "q": q,
                    "c": [c[offs[i]:offs[i + 1]].tolist() for i in range(len(sizes))]}}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _free_box(rng, m, scale):
    """Box with independent lower and upper half-widths; round(FREE_SHARE * m)
    coordinates, chosen at random, are unbounded on both sides.  The count is
    fixed because checker cost grows with the number of finite bounds."""
    free = rng.permutation(m) < round(FREE_SHARE * m)
    lo = np.where(free, -np.inf, -scale * rng.uniform(0.1, 1.0, m))
    hi = np.where(free, np.inf, scale * rng.uniform(0.1, 1.0, m))
    return lo, hi


def spd_skew(rng, m):
    """Symmetric positive definite part plus a skew part: strongly monotone,
    so the box VI has exactly one solution."""
    g = rng.standard_normal((m, m))
    s = rng.standard_normal((m, m))
    return g @ g.T / m + 0.5 * np.eye(m) + 0.5 * (s - s.T) / np.sqrt(m)


def diag_dominant(rng, m):
    """Strictly row diagonally dominant with a positive diagonal: a P-matrix
    whose principal minors are all at least the product of the row margins."""
    a = rng.standard_normal((m, m))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, m))
    return a


def plant_bad_minor(rng, a):
    """Make the 2x2 principal minor at a random index pair negative:
    a_ij a_ji = 2.25 a_ii a_jj."""
    i, j = sorted(rng.choice(a.shape[0], size=2, replace=False))
    sign = rng.choice([-1.0, 1.0])
    a[i, j] = a[j, i] = sign * 1.5 * np.sqrt(a[i, i] * a[j, j])
    return a


def quadratic_game(rng, sizes, nonconvex):
    """Gradient matrix and linear term of a quadratic game on [-3, 3]^m.

    Own blocks are symmetric positive definite, except that a nonconvex game
    gives its first two-dimensional player an indefinite own block.
    """
    m = sum(sizes)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    a = 0.4 * rng.standard_normal((m, m))
    bad = sizes.index(2) if nonconvex else -1
    for i, s in enumerate(sizes):
        if i == bad:
            u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            own = u @ np.diag([-rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)]) @ u.T
        else:
            g = rng.standard_normal((s, s))
            own = g @ g.T + 0.5 * s * np.eye(s)
        a[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = (own + own.T) / 2.0
    c = rng.uniform(-3.0, 3.0, m)
    lo, hi = np.full(m, -GAME_BOX), np.full(m, GAME_BOX)
    # Equilibria with no active bound solve A x + b = 0; if that point is not
    # strictly inside the box, every equilibrium sits on a bound.
    try:
        x = np.linalg.solve(a, -c)
        boundary = not bool(np.all((x > lo) & (x < hi)))
    except np.linalg.LinAlgError:
        boundary = True
    return a, c, lo, hi, boundary


def _game_instance(rng, path, sizes, nonconvex, argv):
    sizes = tuple(int(s) for s in sizes)
    a, c, lo, hi, boundary = quadratic_game(rng, sizes, nonconvex)
    _write_game(path, sizes, a, c, lo, hi)
    return Instance(path, argv + [path], a, c, lo, hi, blocks=sizes, nonconvex=nonconvex,
                    boundary=boundary)


def _affine_instance(path, a, b, lo, hi, argv, pmatrix=None):
    _write_affine(path, a, b, lo, hi)
    return Instance(path, argv + [path], a, b, lo, hi, pmatrix=pmatrix)


def solve_large(rng, workdir, warmup=False):
    """One SPD-plus-skew box VI per (m, width) pair, solved from one start."""
    argv = ["solve", "--starts", "1"]
    sizes = ((200, 1.0),) if warmup else SOLVE_LARGE
    out = []
    for k, (m, width) in enumerate(sizes):
        a = spd_skew(rng, m)
        b = rng.standard_normal(m)
        lo, hi = _free_box(rng, m, width)
        out.append(_affine_instance(f"{workdir}/vi-{k:02d}-m{m}.json", a, b, lo, hi, argv))
    return out


def games_multistart(rng, workdir, warmup=False):
    """N-player quadratic games, N cycling through 2..6, blocks of size 1-2,
    one game in four nonconvex; every box is bounded, so each has a solution."""
    argv = ["solve", "--starts", "8"]
    out = []
    for k in range(1 if warmup else GAMES_PER_PASS):
        nonconvex = k % 4 == 3
        sizes = rng.integers(1, 3, size=2 + k % 5)
        if nonconvex and 2 not in sizes:
            sizes[0] = 2
        out.append(_game_instance(rng, f"{workdir}/game-{k:04d}.json", sizes, nonconvex, argv))
    return out


def certify_mixed(rng, workdir, warmup=False):
    """Dense affine VIs, P-matrix and planted instances in equal numbers per
    dimension, plus small bounded games.  Games have equal blocks so that the
    Upsilon test applies, except one in four whose blocks differ; another one
    in four is nonconvex."""
    argv = ["certify"]
    out = []
    for m in ((5,) if warmup else CERTIFY_DIMS):
        for j in range(1 if warmup else CERTIFY_PER_KIND):
            for pmatrix in (True, False):
                a = diag_dominant(rng, m)
                if not pmatrix:
                    a = plant_bad_minor(rng, a)
                b = rng.standard_normal(m)
                lo, hi = _free_box(rng, m, 5.0)
                tag = "p" if pmatrix else "planted"
                out.append(_affine_instance(f"{workdir}/vi-m{m}-{tag}-{j}.json", a, b, lo, hi,
                                            argv, pmatrix))
    for k in range(0 if warmup else CERTIFY_GAMES):
        n = 2 + k % 3
        sizes = [1, 2] + [1] * (n - 2) if k % 4 == 2 else [1 + k % 2] * n
        out.append(_game_instance(rng, f"{workdir}/game-{k}.json", sizes, k % 4 == 3, argv))
    return out


WORKLOADS = {
    "solve-large": solve_large,
    "games-multistart": games_multistart,
    "certify-mixed": certify_mixed,
}


def generate(workload, seed, workdir, warmup=False):
    """Write the workload's batch (or its small warm-up batch) under workdir.

    The same (workload, seed) always gives the same files."""
    os.makedirs(workdir, exist_ok=True)
    salt = list(WORKLOADS).index(workload) + (100 if warmup else 0)
    return WORKLOADS[workload](np.random.default_rng([seed, salt]), workdir, warmup)
