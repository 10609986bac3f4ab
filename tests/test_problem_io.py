"""The problem-file parser: orjson where it is safe, json otherwise, and the
same documents and problems either way."""

import io
import json
import math
import struct
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vibox import BoxSet, Mapping, VIProblem, affine_mapping, load_problem, make_game, problem_io
from vibox.problem_io import (ORJSON_MAX_OPENINGS, ProblemFileError, _few_openings, _parse_json,
                              problem_from_dict, problem_to_dict, save_problem)
from vibox.registry import get_problem

INT64_MIN, UINT64_MAX = -2 ** 63, 2 ** 64 - 1


def same(a, b) -> bool:
    """Equal and of the same type all the way down, floats bit for bit (so
    0.0 and -0.0 differ), dict keys in the same order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def as_parsed(doc):
    """json.loads's document as orjson reads it: an integer beyond the 64-bit
    range becomes the nearest float, unless some number in the document
    overflows a double, which sends the whole text to json."""
    def floated(v):
        if isinstance(v, list):
            return [floated(x) for x in v]
        if isinstance(v, dict):
            return {k: floated(x) for k, x in v.items()}
        if type(v) is int and not INT64_MIN <= v <= UINT64_MAX:
            return float(v)
        return v

    try:
        return floated(doc)
    except OverflowError:
        return doc


floats = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(min_value=-1e-300, max_value=1e-300)           # subnormals, +-0.0
          | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                             -0.0, 0.0]))
integers = (st.integers(-2 ** 53, 2 ** 53)
            | st.integers(INT64_MIN - 2 ** 70, INT64_MIN + 8)
            | st.integers(UINT64_MAX - 8, 10 ** 40)
            | st.integers(10 ** 300, 10 ** 310))                     # json only
documents = st.recursive(
    floats | integers | st.text(max_size=8) | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=6),
    max_leaves=40)


class TestParseJson:
    @given(documents, st.sampled_from([None, 0, 2]), st.booleans())
    def test_equals_json_loads(self, doc, indent, ensure_ascii):
        text = json.dumps(doc, indent=indent, ensure_ascii=ensure_ascii)
        assert same(_parse_json(text.encode()), as_parsed(json.loads(text)))

    def test_json_only_inputs_read_as_json_reads_them(self):
        for text in ('[NaN, Infinity, -Infinity]', '[1e400, -1e400]', '"\\ud800"',
                     '[' + '7' * 400 + ']', '{"a": [1.5, "x"], "b": NaN}'):
            assert same(_parse_json(text.encode()), as_parsed(json.loads(text))), text
        assert math.isnan(_parse_json(b"NaN"))

    def test_deep_text_goes_to_json(self, monkeypatch):
        def refuse(text):
            raise AssertionError("orjson called on deep text")

        monkeypatch.setattr(orjson, "loads", refuse)
        depth = ORJSON_MAX_OPENINGS + 1
        with pytest.raises(RecursionError):
            _parse_json(b"[" * depth + b"]" * depth)
        # Brackets inside strings count too: the guard errs towards json.
        assert _parse_json(b'{"k": "' + b"[" * depth + b'"}') == {"k": "[" * depth}

    def test_deep_text_is_a_nesting_error(self, tmp_path, monkeypatch):
        def refuse(text):
            raise AssertionError("orjson called on deep text")

        monkeypatch.setattr(orjson, "loads", refuse)
        path = tmp_path / "deep.json"
        path.write_text("[" * 2000 + "]" * 2000)
        with pytest.raises(ProblemFileError, match="nested too deeply"):
            load_problem(path)

    def test_closings_in_strings_never_lower_the_depth(self, monkeypatch):
        def refuse(text):
            raise AssertionError("orjson called on deep text")

        monkeypatch.setattr(orjson, "loads", refuse)
        deep = "[" * (ORJSON_MAX_OPENINGS + 1) + "]" * (ORJSON_MAX_OPENINGS + 1)
        for closings in ('"' + "]" * 5000 + '"', '"' + "}" * 5000 + '"',
                         '"' + '\\"]' * 3000 + '"'):
            with pytest.raises(RecursionError):  # json's, not orjson's refusal
                _parse_json(("[" + closings + ", " + deep + "]").encode())

    def test_shallow_text_with_many_brackets_loads_bit_for_bit(self, tmp_path):
        # An affine file with A as 1100 nested rows has 1102 "[" but depth 3.
        m = 1100
        a = 2.0 * np.eye(m)
        p = VIProblem(affine_mapping(a, np.ones(m)), BoxSet(np.zeros(m), np.full(m, np.inf)))
        doc = problem_to_dict(p)
        doc["affine"]["A"] = a.tolist()
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        q = load_problem(path)
        assert q.mapping.data["A"].tobytes() == a.tobytes()


class TestOpeningCount:
    @given(st.lists(st.sampled_from([b"[", b"{", b'"', b"\\", b"]", b"}", b"a", b" "]),
                    max_size=60).map(b"".join),
           st.sampled_from([-1, 0, 1]), st.booleans(), st.sampled_from([0, 61]))
    def test_equals_the_count_of_both_openings(self, raw, offset, zero, find_from):
        # find_from 0 takes the bytes.find loop, 61 the bytes.count passes.
        count = raw.count(b"[") + raw.count(b"{")
        limit = 0 if zero else count + offset
        with mock.patch.multiple(problem_io, ORJSON_MAX_OPENINGS=limit,
                                 _FIND_FROM_BYTES=find_from):
            assert _few_openings(raw) == (count <= limit)

    @pytest.mark.parametrize("openings, parser", [(ORJSON_MAX_OPENINGS, "orjson"),
                                                  (ORJSON_MAX_OPENINGS + 1, "json")])
    @pytest.mark.parametrize("spaces", [0, problem_io._FIND_FROM_BYTES], ids=["count", "find"])
    def test_limit_decides_the_parser(self, tmp_path, monkeypatch, openings, parser, spaces):
        # Padding in a field the loader ignores; "[" in a string counts too.
        doc = problem_to_dict(get_problem("spd-box"))
        doc["pad"] = " " * spaces
        base = json.dumps(doc).encode()
        doc["pad"] += "[" * (openings - base.count(b"[") - base.count(b"{"))
        raw = json.dumps(doc).encode()
        assert raw.count(b"[") + raw.count(b"{") == openings
        assert (len(raw) >= problem_io._FIND_FROM_BYTES) == bool(spaces)
        ran = []
        orjson_loads = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda b: ran.append("orjson") or orjson_loads(b))
        path = tmp_path / "padded.json"
        path.write_bytes(raw)
        assert problem_bytes(load_problem(path)) == problem_bytes(get_problem("spd-box"))
        assert ran == (["orjson"] if parser == "orjson" else [])


def affine_problems():
    return st.integers(1, 5).flatmap(lambda m: st.tuples(
        st.lists(floats, min_size=m * m, max_size=m * m),
        st.lists(floats, min_size=m, max_size=m),
        st.lists(st.sampled_from([-math.inf, -1.0, 0.0, -2.5e-310]), min_size=m, max_size=m),
        st.lists(st.sampled_from([math.inf, 1.0, 3.25, 1e300]), min_size=m, max_size=m),
    ).map(lambda t: VIProblem(affine_mapping(np.reshape(t[0], (m, m)), t[1]),
                              BoxSet(t[2], t[3]), name="random-affine")))


@st.composite
def game_problems(draw):
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    q = {}
    for i, si in enumerate(sizes):
        for j, sj in enumerate(sizes):
            if i != j and draw(st.booleans()):
                continue  # an absent cross block is zero
            block = np.reshape(draw(st.lists(floats, min_size=si * sj, max_size=si * sj)),
                               (si, sj))
            if i == j:
                block = np.triu(block) + np.triu(block, 1).T    # exactly symmetric
            q[(i, j)] = block
    c = [draw(st.lists(floats, min_size=s, max_size=s)) for s in sizes]
    m = sum(sizes)
    box = BoxSet([-3.0] * m, [draw(st.sampled_from([3.0, math.inf]))] * m,
                        blocks=tuple(sizes))
    return make_game(sizes, q, c, box, name="random-game")


def problem_bytes(p):
    return [p.name, p.mapping.kind, p.set.lo.tobytes(), p.set.hi.tobytes(), p.set.blocks,
            p.mapping.data["A"].tobytes(), p.mapping.data["b"].tobytes()]


class TestLoadProblem:
    @given(affine_problems() | game_problems())
    def test_saved_problem_loads_as_with_json(self, tmp_path_factory, p):
        path = tmp_path_factory.mktemp("saved") / "p.json"
        save_problem(p, path)
        via_json = problem_from_dict(json.loads(path.read_text()))
        assert problem_bytes(load_problem(path)) == problem_bytes(via_json)

    @given(affine_problems() | game_problems())
    def test_saved_problem_round_trips_bit_exactly(self, tmp_path_factory, p):
        path = tmp_path_factory.mktemp("saved") / "p.json"
        save_problem(p, path)
        assert problem_bytes(load_problem(path)) == problem_bytes(p)

    def test_mapping_built_in_python_is_not_serializable(self, tmp_path):
        # A Mapping's kind defaults to builtin, but it has no registry id to write.
        p = VIProblem(Mapping(fn=lambda x: x, dim=1), BoxSet.full_space(1))
        with pytest.raises(ProblemFileError, match="mapping kind 'builtin' is not serializable"):
            problem_to_dict(p)
        with pytest.raises(ProblemFileError):
            save_problem(p, tmp_path / "p.json")
        assert not (tmp_path / "p.json").exists()

    def test_mixed_bounds_load_as_each_entry_decoded(self, tmp_path):
        # Each entry is its float: an int converted, "inf" and "-inf" no bound.
        lo = [-1.5, -2, "-inf", 0, -0.0, -1e308, 5e-324, -(2 ** 60)]
        hi = [2.5, 3, "inf", 1, 0.0, 1e308, 1.0, 2 ** 60]
        doc = {"m": len(lo), "set": {"lo": lo, "hi": hi}, "mapping": {"kind": "affine"},
               "affine": {"A": np.eye(len(lo)).ravel().tolist()}}
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(doc))
        p = load_problem(path)
        for got, vals in ((p.set.lo, lo), (p.set.hi, hi)):
            assert got.tobytes() == np.array([float(v) for v in vals]).tobytes()

    def test_game_of_33_players_loads_bit_for_bit(self, tmp_path):
        # 1,089 one-entry q blocks and 33 c lists: over ORJSON_MAX_OPENINGS "[", depth 4
        n = 33
        rng = np.random.default_rng(33)
        a = 0.1 * rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        q = {(i, j): a[i:i + 1, j:j + 1] for i in range(n) for j in range(n)}
        c = [rng.uniform(-1.0, 1.0, 1) for _ in range(n)]
        p = make_game((1,) * n, q, c, BoxSet([-2.0] * n, [2.0] * n, (1,) * n), name="players")
        path = tmp_path / "players.json"
        save_problem(p, path)
        assert path.read_bytes().count(b"[") > ORJSON_MAX_OPENINGS
        assert problem_bytes(load_problem(path)) == problem_bytes(p)


def text_mode(raw) -> str:
    """The bytes raw as a file opened in text mode reads them."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()


line_ends = st.sampled_from(["\n", "\r\n", "\r"])


class TestBytesIn:
    """load_problem reads the file as bytes; the result is what reading it in
    text mode gave."""

    @given(affine_problems() | game_problems(), st.sampled_from([None, 0, 2]), line_ends)
    def test_line_ends_and_indents_load_bit_identically(self, tmp_path_factory, p, indent, end):
        path = tmp_path_factory.mktemp("ends") / "p.json"
        text = json.dumps(problem_to_dict(p), indent=indent)
        path.write_bytes(text.replace("\n", end).encode())
        assert problem_bytes(load_problem(path)) == problem_bytes(p)

    @given(affine_problems() | game_problems(), st.sampled_from([None, 0, 2]), line_ends,
           st.data())
    def test_malformed_text_has_the_json_message(self, tmp_path_factory, p, indent, end, data):
        text = json.dumps(problem_to_dict(p), indent=indent).replace("\n", end)
        at = data.draw(st.integers(0, len(text) - 1))
        junk = data.draw(st.sampled_from(["", ",", "]", "}", ":", "x", '"', "\r", "\r\n"]))
        raw = (text[:at] + junk + (text[at:] if junk else "")).encode()  # no junk: cut at `at`
        try:
            json.loads(text_mode(raw))
        except json.JSONDecodeError as e:
            path = tmp_path_factory.mktemp("bad") / "p.json"
            path.write_bytes(raw)
            with pytest.raises(ProblemFileError) as err:
                load_problem(path)
            assert str(err.value) == f"{path}:{e.lineno}:{e.colno}: {e.msg}"
        else:
            assume(False)  # still valid JSON: a line end between tokens, a character in a string

    @pytest.mark.parametrize("raw", [b"\xff", b"\xc0\x80", b"\xed\xa0\x80", b"\xe2\x82",
                                     b"\xf4\x90\x80\x80", b"\xef\xbb"])
    def test_bytes_that_are_not_utf8_are_refused_as_text_mode_refuses_them(self, tmp_path, raw):
        path = tmp_path / "p.json"
        path.write_bytes(b'{"name": "' + raw + b'", "m": 1}')
        with pytest.raises(UnicodeDecodeError) as e:
            text_mode(path.read_bytes())
        with pytest.raises(ProblemFileError) as err:
            load_problem(path)
        assert str(err.value) == f"{path}: cannot read a UTF-8 problem file: {e.value}"
