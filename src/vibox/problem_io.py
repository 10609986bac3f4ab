"""Problem-file reading and writing.

Files are JSON with the following fields:

    name            problem label
    m               dimension, an integer at least 1; the number of set.lo and set.hi entries
    set.lo, set.hi  per-coordinate bounds, numbers; "inf", "-inf" or an overflowing number:
                    no bound
    set.blocks      optional block partition, a list of integers (absent: none)
    mapping.kind    one of "affine", "game", "builtin"
    affine.A        row-major m*m matrix, affine.b offset (kind "affine")
    game.block_sizes, game.q ("i,j" keyed row-major blocks; absent ones are zero), game.c
    builtin.id      registered mapping id (kind "builtin")

Every entry of affine.A, affine.b, game.q and game.c must be finite (1e400 is not).
Integers (m, set.blocks, game.block_sizes) must be JSON integers, and the entries
of affine.b, game.c and the bounds JSON numbers: a bool, a float where an integer
is due or a string other than the bounds' "inf" and "-inf" is an error.  The
entries of affine.A and game.q are read as numpy converts them to float.
"""

from __future__ import annotations

import json
import math

import numpy as np
import orjson

from .model import BoxSet, ConfigurationError, VIProblem, affine_mapping, block_slices, make_game
from .registry import builtin_mapping


class ProblemFileError(ValueError):
    """Malformed problem file; carries a human-readable diagnostic."""


def _numbers(v, field, kind=float):
    """v when it is a list of JSON numbers, integers if kind is int (a bool
    is neither); else ProblemFileError naming field."""
    if not isinstance(v, list):
        raise ProblemFileError(f"{field} must be a list, got {v!r}")
    for x in v:
        if isinstance(x, bool) or not isinstance(x, (int, kind)):
            what = "an integer" if kind is int else "a number"
            raise ProblemFileError(f"{field} has an entry that is not {what}: {x!r}")
    return v


def _decode_bound(v, field):
    if isinstance(v, str):
        if v in ("inf", "-inf"):
            return float(v)
        raise ProblemFileError(f"bad bound value {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ProblemFileError(f"{field} has an entry that is not a number: {v!r}")
    return float(v)


def _finite(p: VIProblem, a_field, b_field) -> VIProblem:
    """p, unless an entry of its A (read from a_field) or b (from b_field) is
    NaN or infinite.  One check per assembled array: a check per game block
    cost several times as much on small games."""
    for field, key in ((a_field, "A"), (b_field, "b")):
        if not np.isfinite(p.mapping.data[key]).all():
            raise ProblemFileError(f"{field} has an entry that is not a finite number")
    return p


def _encode_bound(v):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


# orjson 3.8 has no nesting limit: a balanced 1,000,000-deep array overflows the
# C stack and kills the process.  Bytes with at most this many "[" and "{" in
# all, strings included, are never deeper than this, so orjson reads them.
ORJSON_MAX_OPENINGS = 1024


# Below this many bytes two bytes.count passes cost less than a bytes.find per
# opening: a 1.4 KB game file with 32 openings takes 2 us against 8 us.
_FIND_FROM_BYTES = 1 << 14


def _few_openings(raw) -> bool:
    """Whether the bytes raw hold at most ORJSON_MAX_OPENINGS "[" and "{" in
    all, strings included.  Past _FIND_FROM_BYTES, bytes.find jumps from one
    to the next and the count stops past the limit, so no copy of raw is
    made and a large file is not walked byte by byte."""
    if len(raw) < _FIND_FROM_BYTES:
        return raw.count(b"[") + raw.count(b"{") <= ORJSON_MAX_OPENINGS
    count = 0
    for opening in (b"[", b"{"):
        i = raw.find(opening)
        while i >= 0:
            count += 1
            if count > ORJSON_MAX_OPENINGS:
                return False
            i = raw.find(opening, i + 1)
    return count <= ORJSON_MAX_OPENINGS


def _parse_json(raw):
    """json.loads on the bytes raw as a file opened in text mode reads them
    (UTF-8, with "\\r\\n" and a lone "\\r" read as "\\n"), through orjson on
    the bytes when they hold at most ORJSON_MAX_OPENINGS "[" and "{".

    orjson raises on what only json reads (NaN and Infinity literals, numbers
    that overflow a double, lone surrogate escapes), on what json refuses
    too (a byte-order mark, bytes that are not UTF-8) and on malformed text;
    json then gives its document, its JSONDecodeError or, from the decoding,
    a UnicodeDecodeError.  Line ends are whitespace to orjson and never
    valid inside a string, so reading them untranslated changes no document.
    Floats are bit-identical either way; integers beyond the 64-bit range
    come back from orjson as the nearest float.
    """
    if _few_openings(raw):
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def _float_array(v) -> np.ndarray:
    """np.array(v, dtype=float).  A list goes through np.fromiter, which
    skips np.array's type discovery (a quarter of the time on a million
    entries) and gives the same array for entries that are not lists; on an
    entry that is (a nested row), np.array builds the array or raises its
    own error."""
    if isinstance(v, list):
        try:
            return np.fromiter(v, float, len(v))
        except ValueError:
            pass
    return np.array(v, dtype=float)


def load_problem(path) -> VIProblem:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = _parse_json(raw)
    except (OSError, UnicodeDecodeError) as e:
        raise ProblemFileError(f"{path}: cannot read a UTF-8 problem file: {e}") from e
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ProblemFileError(f"{path}: JSON nested too deeply") from e
    except ValueError as e:  # an integer longer than int() reads
        raise ProblemFileError(f"{path}: number too large: {e.args[0].split(';')[0]}") from e
    del raw  # the arrays are built from the document alone
    try:
        return problem_from_dict(doc)
    except KeyError as e:
        raise ProblemFileError(f"{path}: missing field {e.args[0]!r}") from e
    except (AttributeError, ConfigurationError, OverflowError, ProblemFileError,
            TypeError, ValueError) as e:
        raise ProblemFileError(f"{path}: {e}") from e


def problem_from_dict(doc) -> VIProblem:
    if not isinstance(doc, dict):
        raise ProblemFileError("expected a JSON object at the top level, "
                               f"got {type(doc).__name__}")
    name = doc.get("name", "unnamed")
    m = doc["m"]
    if isinstance(m, bool) or not isinstance(m, int):
        raise ProblemFileError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ProblemFileError(f"m must be at least 1, got {m}")
    set_doc = doc["set"]
    lo = np.array([_decode_bound(v, "set.lo") for v in set_doc["lo"]])
    hi = np.array([_decode_bound(v, "set.hi") for v in set_doc["hi"]])
    # Only an absent key means no partition; any other value must be a valid one.
    blocks = (tuple(_numbers(set_doc["blocks"], "set.blocks", int)) if "blocks" in set_doc
              else None)
    box = BoxSet(lo, hi, blocks)
    if box.dim != m:
        raise ProblemFileError(f"m is {m} but the set has {box.dim} coordinates")
    kind = doc["mapping"]["kind"]
    if kind == "affine":
        a = _float_array(doc["affine"]["A"]).reshape(m, m)
        b = np.array(_numbers(doc["affine"].get("b", [0.0] * m), "affine.b"), dtype=float)
        return _finite(VIProblem(affine_mapping(a, b), box, name=name), "affine.A", "affine.b")
    if kind == "game":
        gdoc = doc["game"]
        sizes = tuple(_numbers(gdoc["block_sizes"], "game.block_sizes", int))
        q = {}
        for key, flat in gdoc["q"].items():
            i, j = map(int, key.split(","))
            if not (0 <= i < len(sizes) and 0 <= j < len(sizes)):
                raise ProblemFileError(f"game block key {key!r} is outside "
                                       f"[0, {len(sizes)}) for {len(sizes)} players")
            q[(i, j)] = np.array(flat, dtype=float).reshape(sizes[i], sizes[j])
        # The box read above, unless the set gives no blocks: the players' then.
        game_box = box if blocks is not None else BoxSet(lo, hi, sizes)
        for ci in gdoc["c"]:
            _numbers(ci, "game.c")
        return _finite(make_game(sizes, q, gdoc["c"], game_box, name=name), "game.q", "game.c")
    if kind == "builtin":
        mapping = builtin_mapping(doc["builtin"]["id"], m)
        return VIProblem(mapping, box, name=name)
    raise ProblemFileError(f"unknown mapping kind {kind!r}")


def problem_to_dict(p: VIProblem) -> dict:
    doc = {
        "name": p.name,
        "m": p.dim,
        "set": {
            "lo": [_encode_bound(v) for v in p.set.lo],
            "hi": [_encode_bound(v) for v in p.set.hi],
        },
    }
    if p.set.blocks:
        doc["set"]["blocks"] = list(p.set.blocks)
    if p.is_game:
        a, b = p.mapping.data["A"], p.mapping.data["b"]
        sl = block_slices(p.set.blocks)
        doc["mapping"] = {"kind": "game"}
        doc["game"] = {
            "block_sizes": list(p.set.blocks),
            "q": {f"{i},{j}": a[si, sj].ravel().tolist()
                  for i, si in enumerate(sl) for j, sj in enumerate(sl)},
            "c": [b[s].tolist() for s in sl],
        }
    elif p.mapping.kind == "affine":
        doc["mapping"] = {"kind": "affine"}
        doc["affine"] = {"A": p.mapping.data["A"].ravel().tolist(),
                         "b": p.mapping.data["b"].tolist()}
    elif p.mapping.kind == "builtin" and "id" in p.mapping.data:
        doc["mapping"] = {"kind": "builtin"}
        doc["builtin"] = {"id": p.mapping.data["id"]}
    else:
        raise ProblemFileError(f"mapping kind {p.mapping.kind!r} is not serializable")
    return doc


def save_problem(p: VIProblem, path):
    doc = problem_to_dict(p)  # before the file is opened: an unserializable p writes nothing
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
