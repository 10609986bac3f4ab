"""Core problem types: mappings with Jacobians, box sets, VI problems and quadratic games."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

PSD_TOL = 1e-10  # an own block whose lambda_min is at least -PSD_TOL counts as semidefinite


class ConfigurationError(ValueError):
    """Raised when problem data is dimensionally inconsistent or malformed."""


class EvaluationError(RuntimeError):
    """Raised when a mapping evaluation produces non-finite values."""

    def __init__(self, msg, coordinate=None):
        super().__init__(msg)
        self.coordinate = coordinate


def as_vector(x, m=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ConfigurationError(f"expected a 1-d vector, got shape {v.shape}")
    if m is not None and v.shape[0] != m:
        raise ConfigurationError(f"expected length {m}, got {v.shape[0]}")
    return v


def as_rows(xs, m) -> np.ndarray:
    """xs as a (k, m) float array: a stack of k points of R^m, one per row."""
    v = np.asarray(xs, dtype=float)
    if v.ndim != 2 or v.shape[1] != m:
        raise ConfigurationError(f"expected a (k, {m}) stack of points, got shape {v.shape}")
    return v


def _finite_values(y) -> np.ndarray:
    """y, a value of F or a stack of them one per row, when every entry is
    finite; else EvaluationError naming the coordinate of the first non-finite
    entry in row-major order: that of the first failing row."""
    # y . y is finite when every entry is: one BLAS call for the common case,
    # and the entries are tested one by one only when it is not (or overflows)
    if not math.isfinite(np.vdot(y, y)) and not np.isfinite(y).all():
        c = int(np.argwhere(~np.isfinite(y))[0, -1])
        raise EvaluationError(f"mapping produced non-finite value in coordinate {c}",
                              coordinate=c)
    return y


@dataclass(frozen=True)
class BoxSet:
    """Cartesian product of closed intervals; infinite bounds mark unconstrained coordinates.

    ``blocks``, when present, partitions the coordinates into consecutive
    groups (player action sets in the game case).  The bounds are kept as
    read-only copies: the caller's arrays stay writable, and writing into them
    later leaves the box unchanged.
    """

    lo: np.ndarray
    hi: np.ndarray
    blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("box bounds must be 1-d arrays of equal length")
        # One test when every interval is nonempty; else the first rule broken.
        if not ((lo < hi) | ((lo == hi) & np.isfinite(lo))).all():
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ConfigurationError("box bounds must not be NaN")
            if (lo > hi).any():
                raise ConfigurationError("box has lo > hi in some coordinate")
            raise ConfigurationError("box has an empty coordinate interval: lo = hi = +-inf")
        if self.blocks is not None:
            blocks = tuple(int(b) for b in self.blocks)
            object.__setattr__(self, "blocks", blocks)
            if any(b <= 0 for b in blocks) or sum(blocks) != lo.shape[0]:
                raise ConfigurationError("block sizes must be positive and sum to the dimension")
        lo.setflags(write=False)
        hi.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    @staticmethod
    def full_space(m: int) -> "BoxSet":
        return BoxSet(np.full(m, -np.inf), np.full(m, np.inf))


@dataclass(frozen=True)
class Mapping:
    """A mapping F: R^m -> R^m with optional analytic Jacobian.

    ``rows``, when present, evaluates F on a (k, m) stack of points, one per
    row; row i of its value must equal fn(xs[i]) bit for bit.  Without it,
    ``on_rows`` calls ``fn`` once per row.  ``kind`` is one of ``affine``
    (data holds A, b), ``game-gradient`` or ``builtin``.  Evaluators must be
    deterministic.
    """

    fn: callable
    dim: int
    jac: callable | None = None
    rows: callable | None = None
    kind: str = "builtin"
    data: dict = field(default_factory=dict)

    def __call__(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        return _finite_values(np.asarray(self.fn(x), dtype=float))

    def on_rows(self, xs) -> np.ndarray:
        """F at each row of the (k, m) stack xs, as a (k, m) stack.  Raises the
        EvaluationError of the first row, in order, at which F is non-finite."""
        xs = as_rows(xs, self.dim)
        if self.rows is not None:
            ys = np.asarray(self.rows(xs), dtype=float)
        else:
            ys = np.empty(xs.shape)
            for y, x in zip(ys, xs):
                y[:] = self.fn(x)
        return _finite_values(ys)


def affine_mapping(a, b=None) -> Mapping:
    """F(x) = A x + b with constant Jacobian A; ``jac`` returns A itself, read-only.

    A and b are kept as read-only views: the caller's own arrays are neither
    copied nor frozen, so a caller that writes into them later changes F."""
    a = np.asarray(a, dtype=float).view()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("affine matrix must be square")
    m = a.shape[0]
    b = (np.zeros(m) if b is None else as_vector(b, m)).view()
    a.setflags(write=False)
    b.setflags(write=False)
    return Mapping(
        fn=lambda x: a @ x + b,
        dim=m,
        jac=lambda x: a,
        rows=lambda xs: np.matvec(a, xs) + b,  # a @ x + b per row, bit for bit
        kind="affine",
        data={"A": a, "b": b},
    )


def block_slices(blocks) -> list[slice]:
    """The consecutive coordinate slices of blocks of the given sizes."""
    bounds = np.cumsum([0, *blocks])
    return [slice(int(s), int(e)) for s, e in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class VIProblem:
    """A variational inequality VI(K, F): find x* in K with <F(x*), x - x*> >= 0 on K."""

    mapping: Mapping
    set: BoxSet
    name: str = "unnamed"

    def __post_init__(self):
        if self.mapping.dim != self.set.dim:
            raise ConfigurationError(
                f"mapping dimension {self.mapping.dim} != set dimension {self.set.dim}"
            )

    @property
    def dim(self) -> int:
        return self.set.dim

    @property
    def is_game(self) -> bool:
        """A quadratic game's VI (``make_game``); its players are the blocks of K."""
        return self.mapping.kind == "game-gradient"

    @property
    def is_affine(self) -> bool:
        """F = A x + b with A and b in the mapping's data: an affine mapping or a game."""
        return self.mapping.kind in ("affine", "game-gradient")

    def F(self, x) -> np.ndarray:
        return self.mapping(x)


def make_game(block_sizes, q, c, box, name="game") -> VIProblem:
    """The VI of an N-player game with quadratic costs and box action sets.

    Player i minimizes f_i(x) = 1/2 x_i' Q_ii x_i + x_i' sum_{j!=i} Q_ij x_j + c_i' x_i
    over its block of ``box``, with q[(i, j)] = Q_ij (Q_ii required and exactly
    symmetric, absent blocks zero).  The mapping is the gradient map, of kind
    game-gradient: F(x) = A x + b with A the block matrix of the Q_ij and b the
    stacked c_i, both new arrays that later writes into ``q`` or ``c`` leave alone.
    """
    sizes = tuple(int(s) for s in block_sizes)
    n = len(sizes)
    if n < 1:
        raise ConfigurationError("game needs at least one player")
    if box.blocks != sizes:
        raise ConfigurationError("box block partition must match game block sizes")
    if len(c) != n:
        raise ConfigurationError(f"game has {len(c)} linear terms for {n} players")
    sl = block_slices(sizes)
    a = np.zeros((box.dim, box.dim))
    for (i, j), block in q.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigurationError(f"game block key ({i}, {j}) is outside [0, {n}) "
                                     f"for {n} players")
        block = np.asarray(block, dtype=float)
        if block.shape != (sizes[i], sizes[j]):
            raise ConfigurationError(f"own-block of player {i} has wrong shape" if i == j
                                     else f"cross block ({i},{j}) has wrong shape")
        a[sl[i], sl[j]] = block
    c = [np.asarray(v, dtype=float) for v in c]
    owner = np.repeat(np.arange(n), sizes)  # the player of each coordinate
    rows = np.nonzero((a != a.T) & (owner[:, None] == owner))[0]
    asymmetric = set(owner[rows].tolist())  # players whose own block is not symmetric
    for i in range(n):
        if (i, i) not in q:
            raise ConfigurationError(f"missing own-block matrix for player {i}")
        if i in asymmetric:
            raise ConfigurationError(f"own-block of player {i} is not symmetric")
        if c[i].shape != (sizes[i],):
            raise ConfigurationError(f"linear term of player {i} has wrong length")
    mapping = replace(affine_mapping(a, np.concatenate(c)), kind="game-gradient")
    return VIProblem(mapping=mapping, set=box, name=name)


def own_block_lambdas(p: VIProblem) -> np.ndarray:
    """lambda_min of each own block A[s_i, s_i] of a game's Jacobian A, one per
    player: a 1x1 block's entry itself, as eigvalsh (LAPACK's dsyevd) returns it."""
    a = p.mapping.data["A"]
    return np.array([a[s.start, s.start] if s.stop - s.start == 1 else np.linalg.eigvalsh(a[s, s])[0]
                     for s in block_slices(p.set.blocks)])


def jacobian(p: VIProblem, x) -> np.ndarray:
    """Jacobian of F at x: analytic when available, else central finite differences.

    The finite-difference step is 1e-6 * (1 + |x_i|) per coordinate.
    """
    x = as_vector(x, p.dim)
    if p.mapping.jac is not None:
        return np.asarray(p.mapping.jac(x), dtype=float)
    return fd_jacobian(p.mapping, x)


def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of an arbitrary vector mapping."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    cols = []
    for i in range(m):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)
