"""The normal mapping v -> v - P_K[v] + F(P_K[v]), its Jacobian elements, and a coercivity probe."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import EvaluationError, VIProblem, as_rows, as_vector, jacobian
from .projection import project, projection_jacobian_element

RAY_RADII = 2.0 ** np.arange(12)  # radii of coercivity_probe


class NormalMapEval(NamedTuple):
    v: np.ndarray
    z: np.ndarray  # projected point P_K[v]
    r: np.ndarray  # residual v - z + F(z)
    norm: float  # a (k,) array for a stack of points


def normal_map(p: VIProblem, v) -> NormalMapEval:
    """The residual v - P_K[v] + F(P_K[v]) at v: the solver's line-search
    step, called once per halving round.  v is a point or a (k, m) stack of
    points, one per row; for a stack, z and r are stacks too and norm is the
    (k,) array of row norms, each row bit for bit its own evaluation.  A
    point is row 0 of its one-row stack, with a float norm.  Raises the
    EvaluationError of the first row, in order, at which F is non-finite."""
    point = np.ndim(v) != 2
    v = as_vector(v, p.dim)[None] if point else as_rows(v, p.dim)
    z = np.minimum(np.maximum(v, p.set.lo), p.set.hi)
    r = v - z + p.mapping.on_rows(z)
    norm = np.sqrt(np.vecdot(r, r))  # math.sqrt(r.dot(r)) per row, bit for bit
    if point:
        return NormalMapEval(v[0], z[0], r[0], float(norm[0]))
    return NormalMapEval(v, z, r, norm)


def _trial(p: VIProblem, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """normal_map at each row of v, as the stacks z and r and the list of the
    norms, with norm NaN (never accepted) and rows of NaN instead of an
    EvaluationError at a row where F is non-finite.  A failing stack is split
    in halves, down to its single failing rows: f failing rows of k cost
    O(f log k) calls, but 2k - 1 when every row fails (k + 1 row by row)."""
    try:
        _, z, r, norm = normal_map(p, v)
        return z, r, norm.tolist()
    except EvaluationError:  # F is non-finite at some row: each half on its own
        if len(v) == 1:
            return np.full(v.shape, np.nan), np.full(v.shape, np.nan), [math.nan]
        z, r, norms = zip(*(_trial(p, h) for h in np.array_split(v, 2)))
        return np.concatenate(z), np.concatenate(r), sum(norms, [])


def _jacobian_element(df: np.ndarray, d) -> np.ndarray:
    """I - D + df D for the diagonal d of D, a 0/1 float or a boolean array."""
    j = df * d
    j += 0.0  # -0.0 -> +0.0, as in the sum I - D + dF D
    j.flat[::len(d) + 1] += 1.0 - d
    return j


def normal_map_jacobian_element(p: VIProblem, v) -> np.ndarray:
    """Element I - D + dF(P_K[v]) D of the normal map's generalized Jacobian,
    with D the diagonal projection-Jacobian element at v."""
    v = as_vector(v, p.dim)
    return _jacobian_element(jacobian(p, project(p.set, v)), projection_jacobian_element(p.set, v))


def coercivity_probe(p: VIProblem) -> tuple[np.ndarray, np.ndarray]:
    """The residual norms of the normal map along the 2m rays +-e_i, as
    (directions, norms): direction 2i is +e_i and 2i + 1 is -e_i, and row k
    of norms holds ||F_nor(r d_k)|| at the radii r of RAY_RADII.  A ray on
    which F is non-finite gets a row of NaN.  ``coercivity_check`` reads the
    table; this function only evaluates it, on one stack of all the ray
    points, with the solver's rule for rows where F is non-finite (``_trial``)."""
    eye = np.eye(p.dim)
    directions = np.array([s * eye[i] for i in range(p.dim) for s in (1.0, -1.0)])
    v = RAY_RADII[:, None] * directions[:, None, :]  # (ray, radius, coordinate)
    norms = np.array(_trial(p, v.reshape(-1, p.dim))[2]).reshape(v.shape[:2])
    norms[np.isnan(norms).any(axis=1)] = np.nan  # a finite residual's norm is at most inf
    return directions, norms
