"""The normal mapping v -> v - P_K[v] + F(P_K[v]), its Jacobian elements, and coercivity probes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EvaluationError, VIProblem, as_vector, jacobian
from .projection import project, projection_jacobian_element

COERCIVE_EVIDENCE = "coercive-evidence"
VIOLATION_WITNESS = "violation-witness"
INCONCLUSIVE = "inconclusive"


class NormalMapEval(NamedTuple):
    v: np.ndarray
    z: np.ndarray  # projected point P_K[v]
    r: np.ndarray  # residual v - z + F(z)
    norm: float


def normal_map(p: VIProblem, v) -> NormalMapEval:
    """The residual at v, with the projection and F evaluated inline: this is
    the solver's line-search step, called once per trial.  F is checked for
    finiteness through the norm only; when the norm is not finite, p.F(z)
    raises EvaluationError if F(z) is non-finite, exactly as it would have."""
    v = as_vector(v, p.dim)
    z = np.minimum(np.maximum(v, p.set.lo), p.set.hi)
    r = v - z + np.asarray(p.mapping.fn(z), dtype=float)
    norm = math.sqrt(r.dot(r))  # np.linalg.norm(r): the same call, without its dispatch
    if not math.isfinite(norm):
        p.F(z)
    return NormalMapEval(v, z, r, norm)


def normal_map_jacobian_element(p: VIProblem, v) -> np.ndarray:
    """Element I - D + dF(P_K[v]) D of the normal map's generalized Jacobian,
    with D the diagonal projection-Jacobian element at v."""
    v = as_vector(v, p.dim)
    z = project(p.set, v)
    d = projection_jacobian_element(p.set, v)
    j = jacobian(p, z) * d
    j += 0.0  # -0.0 -> +0.0, as in the sum I - D + dF D
    j.flat[::p.dim + 1] += 1.0 - d
    return j


@dataclass(frozen=True)
class RayProbe:
    direction: np.ndarray
    radii: np.ndarray
    norms: np.ndarray
    slope: float | None  # log-log fit past burn-in; None if non-finite values hit
    verdict: str


@dataclass(frozen=True)
class CoercivityProbe:
    rays: tuple[RayProbe, ...]
    verdict: str


def coercivity_probe(p: VIProblem) -> CoercivityProbe:
    """Evidence for norm coercivity of the normal map along the 2m rays +-e_i.

    Along each ray the residual norm is tabulated at radii 2^k, k = 0..11.
    A ray whose final norm fails to reach twice its first value witnesses a
    violation; if every ray's log-log slope past the first four radii is at
    least 0.5 the probe reports coercive evidence; anything else is
    inconclusive.  Deterministic sampling evidence, not a proof.
    """
    radii = 2.0 ** np.arange(12)
    eye = np.eye(p.dim)
    ray_reports = []
    for d in (s * eye[i] for i in range(p.dim) for s in (1.0, -1.0)):
        try:
            norms = np.array([normal_map(p, r * d).norm for r in radii])
        except EvaluationError:
            norms = np.full(radii.size, np.nan)
        if not np.all(np.isfinite(norms)):
            ray_reports.append(RayProbe(d, radii, norms, None, INCONCLUSIVE))
            continue
        if norms[-1] < 2.0 * norms[0]:
            ray_reports.append(RayProbe(d, radii, norms, None, VIOLATION_WITNESS))
            continue
        tail = slice(4, None)
        with np.errstate(divide="ignore"):
            logs = np.log(norms[tail])
        if not np.all(np.isfinite(logs)):
            ray_reports.append(RayProbe(d, radii, norms, None, INCONCLUSIVE))
            continue
        slope = float(np.polyfit(np.log(radii[tail]), logs, 1)[0])
        verdict = COERCIVE_EVIDENCE if slope >= 0.5 else INCONCLUSIVE
        ray_reports.append(RayProbe(d, radii, norms, slope, verdict))
    if any(r.verdict == VIOLATION_WITNESS for r in ray_reports):
        verdict = VIOLATION_WITNESS
    elif all(r.verdict == COERCIVE_EVIDENCE for r in ray_reports):
        verdict = COERCIVE_EVIDENCE
    else:
        verdict = INCONCLUSIVE
    return CoercivityProbe(rays=tuple(ray_reports), verdict=verdict)
