"""Builtin problem registry: id -> function returning the VIProblem."""

from __future__ import annotations

import numpy as np

from .model import BoxSet, ConfigurationError, Mapping, VIProblem, affine_mapping, make_game


def _cubic_plus_linear(m):
    return Mapping(fn=lambda x: x ** 3 + x, dim=m,
                   jac=lambda x: np.diag(3.0 * x ** 2 + 1.0), rows=lambda xs: xs ** 3 + xs,
                   kind="builtin", data={"id": "cubic-plus-linear"})


def _cubic(m):
    return Mapping(fn=lambda x: x ** 3, dim=m,
                   jac=lambda x: np.diag(3.0 * x ** 2), rows=lambda xs: xs ** 3,
                   kind="builtin", data={"id": "cubic"})


BUILTIN_MAPPINGS = {
    "cubic-plus-linear": _cubic_plus_linear,
    "cubic": _cubic,
}


def builtin_mapping(mapping_id, m) -> Mapping:
    if mapping_id not in BUILTIN_MAPPINGS:
        raise ConfigurationError(f"unknown builtin mapping {mapping_id!r}")
    return BUILTIN_MAPPINGS[mapping_id](m)


def _example_vi():
    return VIProblem(affine_mapping([[1.0, 2.0], [3.0, 1.0]]), BoxSet.full_space(2),
                     name="example-vi")


def _example_game():
    return make_game(
        block_sizes=(1, 1),
        q={(0, 0): [[1.0]], (0, 1): [[2.0]], (1, 0): [[3.0]], (1, 1): [[1.0]]},
        c=([0.0], [0.0]),
        box=BoxSet(np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf]), blocks=(1, 1)),
        name="example-game",
    )


def _identity_box():
    return VIProblem(affine_mapping(np.eye(3)), BoxSet([1.0] * 3, [2.0] * 3),
                     name="identity-box")


def _constant_box():
    return VIProblem(affine_mapping(np.zeros((3, 3)), np.ones(3)),
                     BoxSet([0.0] * 3, [1.0] * 3), name="constant-box")


def _spd_box():
    return VIProblem(affine_mapping([[2.0, -1.0], [-1.0, 2.0]], [-1.0, -1.0]),
                     BoxSet([0.0, 0.0], [2.0, 2.0]), name="spd-box")


def _cubic_free():
    return VIProblem(_cubic_plus_linear(2), BoxSet.full_space(2), name="cubic-free")


REGISTRY = {
    "example-vi": _example_vi,
    "example-game": _example_game,
    "identity-box": _identity_box,
    "constant-box": _constant_box,
    "spd-box": _spd_box,
    "cubic-free": _cubic_free,
}


def get_problem(problem_id) -> VIProblem:
    if problem_id not in REGISTRY:
        raise KeyError(f"unknown problem id {problem_id!r}")
    return REGISTRY[problem_id]()


def problem_ids():
    return sorted(REGISTRY)
