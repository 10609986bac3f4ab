"""Compare the CLI reports of this checkout with those of another one.

Runs, in one subprocess per checkout (with PYTHONPATH=<checkout>/src),
``vibox.cli.main`` in-process over ``list`` and over ``solve`` and
``certify`` on every registry problem, once with default options, once
with ``--seed 5 --radius 3`` (``certify`` also with ``--samples 12``; ``solve``
has no ``--samples``), and once with a tolerance that changes some reports:
``--tol 1e-6`` for ``solve``, and ``--tol 0.5`` for ``certify``, which moves
the ``sigma-sweep`` verdicts of three games and of the cubic file below, and
that file's ``maximal-rank`` verdict (on affine problems and games ``--tol``
reaches ``maximal-rank`` only through the block of free coordinates, which
no game here has).  A tolerance that no longer reaches the solver or the
checkers then shows.  ``certify`` also runs three ``--conditions`` lists
in other orders: ``uniform-pmatrix,pmatrix,sigma-sweep``,
``block-pfunction,pfunction,growth`` and ``block-convexity,pl,upsilon`` (a
repeated id exits 1).
The checkers of one call share their sampled Jacobians, principal-minor
scans, pair values and own-block spectra, so these show a report that
depends on which checker computed a shared input first.
``solve`` also runs with ``--starts 1`` and
``--starts 13``: the solver advances the starts of a call as one stack, so
these cover a stack of one row and one wider than the default 8.
The same calls run on problem files too: this checkout writes every
registry problem once with ``save_problem`` into a temporary directory that
both subprocesses read, so the file loader is compared and the
``provenance`` fields (the paths) match.  Nine quadratic games join
them, written straight in the file schema with ``json.dump``
(``save_games``), so that the game loader, the game-only checkers and
``classify`` meet unequal blocks, a nonconvex and a semidefinite own
block, a semidefinite game whose solution sits on a bound of the flat
own coordinate, so that ``pl`` is inconclusive there and ``classify``
reads ``nash`` off the own blocks alone, a game without cross blocks, a
game whose default start stalls, so that ``pl`` takes its candidate from
the corner-ray path, a game of 33 one-dimensional
players with all 1,089 ``q`` blocks written: over 1,100 ``[`` outside
strings at depth 4, more than ``problem_io.ORJSON_MAX_OPENINGS``, so the
loader reads it with ``json`` rather than orjson; and two games for
``pl``: ``Q = [[1]]``, ``c = 0`` on ``[-1e160, 1e160]``, where squared
gaps and gradients overflow, and two players with an interior
equilibrium whose first own block has eigenvalues 0.5 and 3.  Seven more files are shaped like
the ``certify-mixed`` benchmark workload (``save_affine``): affine problems
with m of 8 to 10 on boxes with some free coordinates, three with a strictly
diagonally dominant A and three with a planted negative 2x2 principal
minor, and the ``cubic`` builtin on a box with one infinite side.  Five
more files (``save_variants``) hold problems above in other shapes that the
schema allows: an affine file with ``\\r\\n`` line ends, one with ``A`` as
nested rows, a game file without ``set.blocks``, and two copies of an
affine file whose ``name`` is padded with ``[`` until the file holds exactly
``ORJSON_MAX_OPENINGS`` ``[`` and ``{`` (strings count), or one more, so
that orjson reads the one and ``json`` the other; so each branch of the
loader is compared.  One affine file is shaped like the ``solve-large``
benchmark instances (``save_large``): a flat ``A``, an SPD-plus-skew
matrix with m = 300, 20% of the coordinates free and the others bounded,
so that each start takes several Newton steps as its free block shrinks.
Three affine files hold entries near the largest double (``save_overflow``):
a one-dimensional problem on whose corner-ray path F overflows where the
end point is read back, though it is finite at every start;
``diag(1e160, 1)`` on ``[0, 5] x [-1, 1]``, where the squares of the first
row of ``maximal-rank``'s Schur complement overflow; and ``diag(1e305, 1)``
with ``b = 0`` on ``[0, inf) x [-1, 1]``, where F is finite at every
sample but overflows on the ray ``+e_0``, so ``coercivity`` reads a row of
NaN.
Two 10x10 affine files test where ``sigma-sweep`` skips an SVD
(``save_sweep_edges``): a diagonally dominant A with its rows scaled by
``2^500`` and ``2^-500`` in turn, whose scaled least ``sigma_min`` falls below
the skip test's underflow guard, and ``3I + 1e-9 B``, B uniform in [-1, 1],
whose submatrices' ``sigma_min`` lie within about ``1e-8`` of each other;
on the rows-scaled file the solver's regularized system overflows, and
those starts take the gradient step.
Two 2x2 affine files hold ``maximal-rank``'s edge cases (``save_rank_edges``):
``A = [[1e-8, 1e308], [0, -1]]``, ``b = (1, 1)`` on ``R x [0, 1]``, whose
Schur complement overflows to NaN and fails on the edge ``({0}, 1)``, and
``A = [[1, 1], [1, 1 + 1e-13]]``, ``b = (1, 1)`` on ``[0, 1]^2``, a
P-matrix whose row-scaled complement minor falls below ``1e-12``, so that
its edge minors share one sign and the verdict is ``inconclusive``.
A call that raises is compared by the type of its exception, in place of
an exit code, and each call that raises in this checkout is printed.
Prints each call whose exit code
or stdout differs between the checkouts, or whose argv only one of them
makes, and exits 1 if there is any; stderr (timings) is not compared.
Under each ``certify`` call that differs it names what differs: the
condition id of each certificate entry that differs, then ``exit code``
and ``other fields`` when those differ too.

    python scripts/compare_reports.py <other-checkout>
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
OPTIONS = {"solve": [["--seed", "5", "--radius", "3"], ["--tol", "1e-6"], ["--starts", "1"],
                     ["--starts", "13"]],
           "certify": [["--seed", "5", "--samples", "12", "--radius", "3"], ["--tol", "0.5"],
                       ["--conditions", "uniform-pmatrix,pmatrix,sigma-sweep"],
                       ["--conditions", "block-pfunction,pfunction,growth"],
                       ["--conditions", "block-convexity,pl,upsilon"]]}


def calls(problem_dir):
    from vibox.registry import problem_ids

    problems = [*problem_ids(), *sorted(str(f) for f in Path(problem_dir).glob("*.json"))]
    yield ["list"]
    for command, option_sets in OPTIONS.items():
        for problem in problems:
            yield [command, problem]
            for options in option_sets:
                yield [command, problem, *options]


def save_registry(problem_dir):
    """Write every registry problem of this checkout into problem_dir."""
    sys.path.insert(0, str(HERE / "src"))
    from vibox import get_problem, save_problem
    from vibox.registry import problem_ids

    for pid in problem_ids():
        save_problem(get_problem(pid), Path(problem_dir) / f"{pid}.json")


def _bound(v):
    return v if np.isfinite(v) else str(v)


def _symmetric(rng, n, least):
    """An exactly symmetric n x n matrix whose least eigenvalue is about ``least``."""
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = u @ np.diag(np.r_[least, rng.uniform(0.5, 2.0, n - 1)]) @ u.T
    return (s + s.T) / 2.0


def _stall_game():
    """game-3p-stall of tests/test_golden.py, built the same way: three players
    on [-3, 3]^4 with blocks (2, 1, 1) and an indefinite first own block.  Its
    default start stalls, so ``pl`` checks the end of the corner-ray path."""
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
    return (2, 1, 1), q, [c[s] for s in sl], [-3.0] * 4, [3.0] * 4


def _many_players(n=33):
    """n players with one-dimensional blocks on [-2, 2]^n, a diagonally
    dominant A, and every one of the n^2 blocks Q_ij given, zero or not."""
    rng = np.random.default_rng(33)
    a = 0.1 * rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    q = {(i, j): a[i:i + 1, j:j + 1] for i in range(n) for j in range(n)}
    return (1,) * n, q, [rng.uniform(-1.0, 1.0, 1) for _ in range(n)], [-2.0] * n, [2.0] * n


def _interior_game():
    """Two players on [-4, 4]^3 with blocks (2, 1): player 0's own block has
    eigenvalues 0.5 and 3, and c puts the equilibrium at an interior point."""
    rng = np.random.default_rng(41)
    u = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    a = 0.3 * rng.standard_normal((3, 3))
    own = u @ np.diag([0.5, 3.0]) @ u.T
    a[:2, :2] = (own + own.T) / 2.0
    a[2, 2] = 1.5
    c = -(a @ np.array([0.7, -1.2, 0.4]))
    sl = (slice(0, 2), slice(2, 3))
    q = {(i, j): a[sl[i], sl[j]] for i in range(2) for j in range(2)}
    return (2, 1), q, [c[s] for s in sl], [-4.0] * 3, [4.0] * 3


def save_games(problem_dir):
    """Write nine games into problem_dir as files of mapping kind "game"."""
    rng = np.random.default_rng(12)

    def cross(sizes):
        return {(i, j): 0.5 * rng.standard_normal((a, b)) for i, a in enumerate(sizes)
                for j, b in enumerate(sizes) if i != j}

    def linear(sizes):
        return [rng.uniform(-1.0, 1.0, n) for n in sizes]

    games = {  # name: (block sizes, blocks Q_ij, linear terms c_i, bounds lo, hi)
        "game-unequal-blocks": ((1, 2), {(0, 0): _symmetric(rng, 1, 1.0),
                                         (1, 1): _symmetric(rng, 2, 0.5), **cross((1, 2))},
                                linear((1, 2)), [-2.0] * 3, [2.0] * 3),
        "game-nonconvex": ((2, 2), {(0, 0): _symmetric(rng, 2, -0.5),
                                    (1, 1): _symmetric(rng, 2, 1.0), **cross((2, 2))},
                           linear((2, 2)), [-3.0] * 4, [3.0] * 4),
        "game-semidefinite": ((2, 1), {(0, 0): np.diag([1.0, 0.0]), (1, 1): np.eye(1)},
                              [np.zeros(2), np.zeros(1)], [-1.0] * 3, [1.0] * 3),
        "game-semidefinite-boundary": ((2, 1), {(0, 0): np.diag([1.0, 0.0]),
                                                (0, 1): np.array([[0.5], [0.0]]),
                                                (1, 0): np.array([[0.5, 0.0]]),
                                                (1, 1): np.eye(1)},
                                       [np.array([0.0, -1.0]), np.zeros(1)], [-1.0] * 3,
                                       [1.0] * 3),
        "game-no-cross": ((1, 2, 1), {(0, 0): _symmetric(rng, 1, 1.5),
                                      (1, 1): _symmetric(rng, 2, 0.8),
                                      (2, 2): _symmetric(rng, 1, 2.0)},
                          linear((1, 2, 1)), [-np.inf, -1.0, -1.0, 0.0],
                          [np.inf, 1.0, np.inf, 2.0]),
        "game-3p-stall": _stall_game(),
        "game-33-players": _many_players(),
        "game-wide-box": ((1,), {(0, 0): np.eye(1)}, [np.zeros(1)], [-1e160], [1e160]),
        "game-interior-pl": _interior_game(),
    }
    for name, (sizes, q, c, lo, hi) in games.items():
        doc = {"name": name, "m": sum(sizes), "mapping": {"kind": "game"},
               "set": {"lo": [_bound(v) for v in lo], "hi": [_bound(v) for v in hi],
                       "blocks": list(sizes)},
               "game": {"block_sizes": list(sizes), "c": [v.tolist() for v in c],
                        "q": {f"{i},{j}": v.ravel().tolist() for (i, j), v in q.items()}}}
        with open(Path(problem_dir) / f"{name}.json", "w") as fh:
            json.dump(doc, fh)


def save_affine(problem_dir):
    """Write six seeded affine problems and one cubic builtin problem into
    problem_dir (see the module docstring)."""
    rng = np.random.default_rng(21)
    docs = {}
    for m in (8, 9, 10):
        for planted in (False, True):
            a = rng.standard_normal((m, m))
            np.fill_diagonal(a, 0.0)
            np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, m))
            if planted:  # a_ij a_ji = 2.25 a_ii a_jj: that 2x2 minor is negative
                i, j = sorted(rng.choice(m, size=2, replace=False))
                a[i, j] = a[j, i] = rng.choice([-1.5, 1.5]) * np.sqrt(a[i, i] * a[j, j])
            free = rng.permutation(m) < round(0.2 * m)
            lo = np.where(free, -np.inf, -5.0 * rng.uniform(0.1, 1.0, m))
            hi = np.where(free, np.inf, 5.0 * rng.uniform(0.1, 1.0, m))
            docs[f"affine-m{m}-{'planted' if planted else 'dominant'}"] = {
                "m": m, "mapping": {"kind": "affine"},
                "affine": {"A": a.ravel().tolist(), "b": rng.standard_normal(m).tolist()},
                "set": {"lo": [_bound(v) for v in lo], "hi": [_bound(v) for v in hi]}}
    docs["cubic-half-line"] = {"m": 3, "mapping": {"kind": "builtin"},
                               "builtin": {"id": "cubic"},
                               "set": {"lo": [-2.0, -1.0, 0.5], "hi": [1.5, 1.0, "inf"]}}
    for name, doc in docs.items():
        with open(Path(problem_dir) / f"{name}.json", "w") as fh:
            json.dump(dict(doc, name=name), fh)


def save_variants(problem_dir):
    """Write five files of save_affine and save_games again in other shapes
    (see the module docstring)."""
    from vibox.problem_io import ORJSON_MAX_OPENINGS  # imported by save_registry from HERE

    d = Path(problem_dir)

    def read(name):
        return json.loads((d / f"{name}.json").read_text())

    def write(name, doc, text=json.dumps):
        with open(d / f"{name}.json", "wb") as fh:  # bytes: line ends as given
            fh.write(text(dict(doc, name=name)).encode())

    write("affine-m9-crlf", read("affine-m9-dominant"),
          lambda doc: json.dumps(doc, indent=2).replace("\n", "\r\n"))
    doc = read("affine-m10-planted")
    doc["affine"]["A"] = np.reshape(doc["affine"]["A"], (doc["m"], doc["m"])).tolist()
    write("affine-m10-nested-rows", doc)
    doc = read("game-unequal-blocks")
    del doc["set"]["blocks"]
    write("game-no-set-blocks", doc)
    doc = dict(read("affine-m8-dominant"), name="")
    text = json.dumps(doc)
    for extra, name in ((0, "affine-m8-openings-at-limit"), (1, "affine-m8-openings-past-limit")):
        pad = "[" * (ORJSON_MAX_OPENINGS + extra - text.count("[") - text.count("{"))
        (d / f"{name}.json").write_text(json.dumps(dict(doc, name=pad)))


def save_large(problem_dir):
    """Write one affine problem shaped like the solve-large instances (see the
    module docstring), with A written flat."""
    rng = np.random.default_rng(300)
    m = 300
    g, s = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    a = g @ g.T / m + 0.5 * np.eye(m) + 0.5 * (s - s.T) / np.sqrt(m)
    free = rng.permutation(m) < round(0.2 * m)
    lo = np.where(free, -np.inf, -rng.uniform(0.1, 1.0, m))
    hi = np.where(free, np.inf, rng.uniform(0.1, 1.0, m))
    doc = {"name": "affine-m300-large", "m": m, "mapping": {"kind": "affine"},
           "affine": {"A": a.ravel().tolist(), "b": rng.standard_normal(m).tolist()},
           "set": {"lo": [_bound(v) for v in lo], "hi": [_bound(v) for v in hi]}}
    with open(Path(problem_dir) / "affine-m300-large.json", "w") as fh:
        json.dump(doc, fh)


def save_overflow(problem_dir):
    """Write the three affine files with entries near the largest double (see
    the module docstring)."""
    _save_small_affine(problem_dir, {
        "affine-overflow-path-end": ([7.684337819423959e+307], [-6.9305022522022e+303],
                                     [-0.494153906108326], [2.58142683425597]),
        "affine-huge-row": ([1e160, 0.0, 0.0, 1.0], [0.0, 0.0], [0.0, -1.0], [5.0, 1.0]),
        "affine-overflow-ray": ([1e305, 0.0, 0.0, 1.0], [0.0, 0.0], [0.0, -1.0], ["inf", 1.0]),
    })


def save_rank_edges(problem_dir):
    """Write the two 2x2 affine files for maximal-rank's edge cases (see the
    module docstring)."""
    _save_small_affine(problem_dir, {
        "affine-nan-schur": ([1e-8, 1e308, 0.0, -1.0], [1.0, 1.0], ["-inf", 0.0], ["inf", 1.0]),
        "affine-near-singular-edge": ([1.0, 1.0, 1.0, 1.0 + 1e-13], [1.0, 1.0], [0.0, 0.0],
                                      [1.0, 1.0]),
    })


def _save_small_affine(problem_dir, docs):
    """Write each {name: (A flat, b, lo, hi)} of docs as an affine file."""
    for name, (a, b, lo, hi) in docs.items():
        doc = {"name": name, "m": len(b), "mapping": {"kind": "affine"},
               "affine": {"A": a, "b": b}, "set": {"lo": lo, "hi": hi}}
        with open(Path(problem_dir) / f"{name}.json", "w") as fh:
            json.dump(doc, fh)


def save_sweep_edges(problem_dir):
    """Write the two 10x10 affine files for the sigma-sweep's skip test (see
    the module docstring)."""
    rng = np.random.default_rng(500)
    m = 10
    a = rng.uniform(-1.0, 1.0, (m, m))
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    docs = {"affine-m10-rows-2pm500": np.ldexp(a, np.tile([500, -500], m // 2)[:, None]),
            "affine-m10-near-tie": 3.0 * np.eye(m) + 1e-9 * rng.uniform(-1.0, 1.0, (m, m))}
    for name, a in docs.items():
        doc = {"name": name, "m": m, "mapping": {"kind": "affine"},
               "affine": {"A": a.ravel().tolist(), "b": rng.standard_normal(m).tolist()},
               "set": {"lo": [-5.0] * m, "hi": [5.0] * m}}
        with open(Path(problem_dir) / f"{name}.json", "w") as fh:
            json.dump(doc, fh)


def emit(problem_dir):
    """Print [argv, exit code, stdout] for every call as one JSON list."""
    from vibox.cli import main

    out = []
    for argv in calls(problem_dir):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except Exception as e:  # compared by its type, in place of an exit code
            code = f"raises {type(e).__name__}"
        out.append([argv, code, buf.getvalue()])
    print(json.dumps(out))


def certify_differences(mine, other) -> list[str]:
    """What differs between two (exit code, stdout) results of one certify
    call: the condition id of each certificate entry that differs, position
    by position, then "exit code" and "other fields" when those differ."""
    (code, out), (other_code, other_out) = mine, other
    doc, other_doc = (json.loads(text, parse_constant=str) if text else {}  # NaN == NaN
                      for text in (out, other_out))
    certs, other_certs = doc.pop("certificates", []), other_doc.pop("certificates", [])
    parts = [(c or o)["condition"] for c, o in itertools.zip_longest(certs, other_certs)
             if c != o]
    if code != other_code:
        parts.append("exit code")
    if doc != other_doc:
        parts.append("other fields")
    return parts


def run(checkout, problem_dir) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    done = subprocess.run([sys.executable, __file__, "--emit", problem_dir], env=env,
                          check=True, capture_output=True, text=True)
    return {tuple(argv): (code, stdout) for argv, code, stdout in json.loads(done.stdout)}


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as problem_dir:
        save_registry(problem_dir)
        save_games(problem_dir)
        save_affine(problem_dir)
        save_variants(problem_dir)
        save_large(problem_dir)
        save_overflow(problem_dir)
        save_sweep_edges(problem_dir)
        save_rank_edges(problem_dir)
        mine, other = run(HERE, problem_dir), run(argv[0], problem_dir)
    for key, (code, _) in sorted(mine.items()):
        if isinstance(code, str):
            print(f"{code}:", " ".join(key))
    differ = [key for key in sorted(mine.keys() | other.keys())
              if mine.get(key) != other.get(key)]
    for key in differ:
        print("differs:", " ".join(key))
        if key[0] == "certify" and key in mine and key in other:
            for part in certify_differences(mine[key], other[key]):
                print("    in:", part)
    print(f"{len(differ)} of {len(mine.keys() | other.keys())} calls differ "
          f"between {HERE} and {Path(argv[0]).resolve()}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
