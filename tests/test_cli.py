import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vibox
from vibox import (BoxSet, VIProblem, affine_mapping, classify, get_problem, load_problem,
                   make_game, save_problem, solve)
from vibox import certificates, cli, problem_io
from vibox.cli import main
from vibox.problem_io import ProblemFileError, problem_to_dict
from vibox.registry import problem_ids


def emitted(doc):
    """What _emit prints for doc, or the type of the exception it raises."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli._emit(doc)
    except (TypeError, ValueError) as e:
        return type(e)
    return out.getvalue()


def dumped(doc):
    """What print(json.dumps(doc, indent=2, sort_keys=True)) prints, or the
    type of the exception it raises."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as e:
        return type(e)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, np.nan, np.inf, -np.inf, 0, 1, True, False]),
    st.text(), st.sampled_from(["", "é", "\"\\/", "\n\t\x00\x1f", "\u2028\U0001f600"]))
JSON_TREES = st.recursive(JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=3).map(tuple),
    st.lists(st.floats(), max_size=5), st.dictionaries(st.text(max_size=4), kids, max_size=5),
    st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()), kids,
                    max_size=2)), max_leaves=40)


@given(JSON_TREES)
def test_emit_prints_what_json_dumps_writes(doc):
    assert emitted(doc) == dumped(doc)


def test_emit_of_every_registry_report(capsys):
    for pid in problem_ids():
        for command in ("solve", "certify"):
            docs = []
            with mock.patch.object(cli, "_emit", docs.append):
                main([command, pid])
            capsys.readouterr()
            assert emitted(docs[0]) == dumped(docs[0])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every kind of write_bad_problem_file that is safe to parse in this process.
BAD_FILE_KINDS = ["directory", "not-utf8", "list", "nested-list", "int-400-digits",
                  "int-5000-digits", "list-100000-deep", "nan-bound", "syntax", "trailing-comma",
                  "bom", "missing-field", "bad-bound", "empty-interval", "block-key"]


def write_bad_problem_file(path, kind):
    """Write a problem file that vibox must reject with one error line."""
    doc = problem_to_dict(get_problem("example-vi"))
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"name": "\xff"}')
    elif kind == "list":
        path.write_text("[1, 2]")
    elif kind == "nested-list":
        doc = problem_to_dict(get_problem("example-game"))
        doc["game"]["q"] = [1.0]
        path.write_text(json.dumps(doc))
    elif kind.startswith("int-"):             # int-<n>-digits: one entry of A
        doc["affine"]["A"][0] = "BIG"
        path.write_text(json.dumps(doc).replace('"BIG"', "9" * int(kind.split("-")[1])))
    elif kind.startswith("list-"):            # list-<n>-deep
        depth = int(kind.split("-")[1])
        path.write_text("[" * depth + "]" * depth)
    elif kind.startswith("object-"):          # object-<n>-deep
        depth = int(kind.split("-")[1])
        path.write_text('{"a":' * depth + "1" + "}" * depth)
    elif kind == "nan-bound":
        doc["set"]["lo"][0] = float("nan")
        path.write_text(json.dumps(doc))
    elif kind == "syntax":
        path.write_text('{\n  "m": 2,\n  oops\n}\n')
    elif kind == "trailing-comma":
        path.write_text(json.dumps(doc)[:-1] + ",}")
    elif kind == "bom":
        path.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
    elif kind == "missing-field":
        del doc["mapping"]
        path.write_text(json.dumps(doc))
    elif kind == "bad-bound":
        doc["set"]["lo"][0] = "low"
        path.write_text(json.dumps(doc))
    elif kind == "empty-interval":
        doc["set"]["lo"][0] = doc["set"]["hi"][0] = "inf"
        path.write_text(json.dumps(doc))
    elif kind == "block-key":
        doc = problem_to_dict(get_problem("example-game"))
        doc["game"]["q"]["2,0"] = [1.0]
        path.write_text(json.dumps(doc))
    else:
        raise ValueError(kind)


class TestList:
    def test_lists_builtins_with_kind(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["example-vi"] == "vi"
        assert lines["example-game"] == "game"
        assert list(lines) == sorted(lines)


class TestSolveCommand:
    def test_solved_exit_zero_with_json(self, capsys):
        code, out, err = run_cli(capsys, "solve", "example-vi")
        assert code == 0
        doc = json.loads(out)
        best = doc["results"][0]
        assert best["status"] == "solved"
        assert np.linalg.norm(best["x"]) <= 1e-8
        assert "trace" not in best
        assert "s" in err  # timing goes to stderr, not stdout

    def test_trace_flag(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "example-vi", "--trace", "--starts", "1")
        doc = json.loads(out)
        trace = doc["results"][0]["trace"]
        assert trace == sorted(trace, reverse=True)

    def test_unknown_ids_are_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "constant-free")
        assert code == 1  # unknown id is usage
        code, out, _ = run_cli(capsys, "certify", "example-vi", "--conditions", "nope")
        assert code == 1

    def test_unsolvable_problem_exit_two(self, tmp_path, capsys):
        # F = (1, 1) everywhere on R^2: no start can reach a zero of the normal map
        path = tmp_path / "constant-free.json"
        save_problem(VIProblem(affine_mapping(np.zeros((2, 2)), [1.0, 1.0]),
                               BoxSet.full_space(2)), path)
        code, out, _ = run_cli(capsys, "solve", str(path))
        results = json.loads(out)["results"]
        assert code == 2 and len(results) == 8
        assert all(r["status"] != "solved" and r["classification"] == "n/a" for r in results)

    def test_unknown_problem_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "no-such-problem")
        assert code == 1 and "no-such-problem" in err

    def test_missing_subcommand_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and "error" in err

    def test_both_commands_time_the_load(self, capsys, monkeypatch):
        # "solved ... in" and "certified ... in" time the same span, from
        # before the problem is loaded to after the report is written.
        load = cli.resolve_problem

        def slow(problem):
            time.sleep(0.05)
            return load(problem)

        monkeypatch.setattr(cli, "resolve_problem", slow)
        for command, verb in (("solve", "solved"), ("certify", "certified")):
            _, _, err = run_cli(capsys, command, "example-game")
            (line,) = [ln for ln in err.splitlines() if ln.startswith(verb)]
            assert float(line.rsplit(" in ", 1)[1].rstrip("s")) >= 0.05

    @pytest.mark.parametrize("pid", ["example-game", "example-vi", "spd-box"])
    def test_classify_once_per_result(self, pid, capsys, monkeypatch):
        seen = []

        def record(p, res):
            seen.append(res.x.tolist())
            return classify(p, res)

        monkeypatch.setattr(cli, "classify", record)
        code, out, _ = run_cli(capsys, "solve", pid, "--seed", "3")
        results = json.loads(out)["results"]
        assert code == 0 and seen == [r["x"] for r in results]
        assert all(r["classification"] != "n/a" for r in results if r["status"] == "solved")


class TestParserReuse:
    def test_consecutive_calls_do_not_share_options(self, capsys):
        _, fresh, _ = run_cli(capsys, "solve", "example-vi", "--starts", "2")
        _, traced, _ = run_cli(capsys, "solve", "example-vi", "--trace", "--seed", "7",
                               "--starts", "2")
        assert "trace" in json.loads(traced)["results"][0]
        _, again, _ = run_cli(capsys, "solve", "example-vi", "--starts", "2")
        assert again == fresh
        doc = json.loads(again)
        assert doc["config"]["seed"] == 42 and "trace" not in doc["results"][0]

    def test_command_replaced_after_first_call_runs(self, capsys, monkeypatch):
        run_cli(capsys, "solve", "example-vi", "--starts", "1")
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.problem) or 7)
        assert main(["solve", "spd-box"]) == 7 and seen == ["spd-box"]


class TestNumberOptions:
    @pytest.mark.parametrize("argv", [
        ("certify", "example-vi", "--samples", "0"),
        ("certify", "example-vi", "--samples", "-1"),
        ("solve", "example-vi", "--starts", "0"),
        ("solve", "example-vi", "--tol", "0"),
        ("solve", "example-vi", "--radius", "nan"),
        ("certify", "example-vi", "--radius", "inf"),
        ("certify", "example-vi", "--radius", "-1"),
        ("certify", "example-vi", "--tol", "-1"),
        ("solve", "example-vi", "--seed", "-1"),
        ("certify", "example-vi", "--seed", "-1"),
    ], ids=" ".join)
    def test_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: argument {argv[2]}: expected ")
        assert err.rstrip().endswith(f", got {argv[3]!r}")

    def test_non_integer_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "example-vi", "--seed", "abc")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: argument --seed: expected an integer >= 0, got 'abc'"]


class TestCertifyCommand:
    def test_all_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "spd-box",
                               "--conditions", "pmatrix,sigma-sweep,coercivity")
        assert code == 0
        doc = json.loads(out)
        assert [c["verdict"] for c in doc["certificates"]] == ["pass"] * 3

    def test_fail_exit_two(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "example-game",
                               "--conditions", "upsilon")
        assert code == 2
        doc = json.loads(out)
        cert = doc["certificates"][0]
        assert cert["verdict"] == "fail"
        assert cert["witness"]["minor"] == -5.0
        assert cert["metrics"]["upsilon"] == [[1.0, -2.0], [-3.0, 1.0]]

    def test_inconclusive_exit_three(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "cubic-free",
                               "--conditions", "pfunction")
        assert code == 3
        doc = json.loads(out)
        assert doc["certificates"][0]["verdict"] == "inconclusive"

    def test_game_only_conditions_skipped_for_plain_vi(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "spd-box",
                               "--conditions", "pmatrix,upsilon,pl,block-convexity")
        doc = json.loads(out)
        assert doc["skipped"] == ["upsilon", "pl", "block-convexity"]
        assert [c["condition"] for c in doc["certificates"]] == ["pmatrix"]
        assert code == 0

    def test_unequal_blocks_upsilon_inconclusive(self, tmp_path, capsys):
        g = make_game((1, 2), {(0, 0): [[2.0]], (1, 1): np.eye(2)}, ([0.0], np.zeros(2)),
                      BoxSet([-1.0] * 3, [1.0] * 3, blocks=(1, 2)))
        path = tmp_path / "unequal.json"
        save_problem(g, path)
        code, out, _ = run_cli(capsys, "certify", str(path), "--conditions", "upsilon")
        assert code == 3
        cert = json.loads(out)["certificates"][0]
        assert cert["verdict"] == "inconclusive" and cert["margin"] is None
        assert "equal dimension" in cert["notes"] and "[1, 2]" in cert["notes"]

    def test_pl_is_the_same_for_any_samples_radius_and_seed(self, tmp_path, capsys):
        # Two players with 2-dim own blocks on R^4 and the equilibrium off 0:
        # pl reads its constant off the own blocks, so no sampling option moves it.
        q = {(0, 0): [[1.05, 0.05], [0.05, 1.5]], (0, 1): [[0.3, 0.4], [0.1, 0.2]],
             (1, 0): [[0.0, 0.4], [0.3, -0.5]], (1, 1): [[1.41, 0.23], [0.23, 1.13]]}
        g = make_game((2, 2), q, ([2.2, 0.2], [-1.2, -0.5]),
                      BoxSet(np.full(4, -np.inf), np.full(4, np.inf), (2, 2)))
        path = tmp_path / "game.json"
        save_problem(g, path)

        def pl(*options):
            code, out, _ = run_cli(capsys, "certify", str(path), "--conditions", "pl", *options)
            (cert,) = json.loads(out)["certificates"]
            assert code == 0 and cert["verdict"] == "pass"
            return cert

        default = pl()
        assert default["seed"] is None and default["budget"] == {"players": 2}
        for options in (("--samples", "5"), ("--radius", "1"), ("--seed", "7")):
            assert pl(*options) == default

    def test_pl_checks_its_candidate_once(self, tmp_path, capsys, monkeypatch):
        # Q_00 = diag(1, 0) fails block-convexity; certify runs the PL check
        # once, at the solver's candidate, and labels nothing.
        g = make_game((2, 1), {(0, 0): np.diag([1.0, 0.0]), (1, 1): [[1.0]]},
                      (np.zeros(2), np.zeros(1)), BoxSet([-1.0] * 3, [1.0] * 3, (2, 1)))
        path = tmp_path / "semidefinite.json"
        save_problem(g, path)
        check, calls = certificates.pl_condition_check, []

        def counted(p, xbar):
            calls.append(1)
            return check(p, xbar)

        monkeypatch.setattr(certificates, "pl_condition_check", counted)
        code, out, _ = run_cli(capsys, "certify", str(path), "--conditions", "pl")
        (cert,) = json.loads(out)["certificates"]
        assert code == 0 and cert["verdict"] == "pass" and len(calls) == 1

    def test_overflowing_edge_minors_print_as_strict_json(self, tmp_path, capsys):
        # A = 10 I on 400 free coordinates and -1 on one coordinate in [0, 1]:
        # the edge's minors are +-10^400, beyond a double; the witness keeps
        # them scaled by one power of two, whose exponent it records.
        m = 401
        a = np.diag(np.r_[np.full(m - 1, 10.0), -1.0])
        p = VIProblem(affine_mapping(a, np.ones(m)),
                      BoxSet(np.r_[np.full(m - 1, -np.inf), 0.0], np.r_[np.full(m - 1, np.inf), 1.0]))
        path = tmp_path / "overflow.json"
        save_problem(p, path)
        code, out, _ = run_cli(capsys, "certify", str(path), "--conditions", "maximal-rank")

        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        (cert,) = json.loads(out, parse_constant=refuse)["certificates"]
        low, high = cert["witness"]["minors"]
        assert code == 2 and cert["verdict"] == "fail" and cert["witness"]["k"] == m - 1
        assert low > 0.0 > high and max(abs(low), abs(high)) < 2.0
        assert cert["witness"]["minors_exp2"] == int(np.floor((m - 1) * np.log2(10.0)))

    def test_boundary_equilibrium_pl_inconclusive(self, tmp_path, capsys):
        # Each player pushes towards +inf and stops at the bound 1: the gradient
        # map is (-1, -1) at the solution (1, 1), not zero.
        g = make_game((1, 1), {(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([-2.0], [-2.0]),
                      BoxSet([-1.0, -1.0], [1.0, 1.0], blocks=(1, 1)))
        path = tmp_path / "boundary.json"
        save_problem(g, path)
        code, out, _ = run_cli(capsys, "certify", str(path), "--conditions", "pl")
        assert code == 3
        cert = json.loads(out)["certificates"][0]
        assert cert["verdict"] == "inconclusive" and cert["margin"] is None
        assert "boundary equilibrium" in cert["notes"]
        assert "gradient-map norm 1.414e+00" in cert["notes"]

    @pytest.mark.parametrize("kind", ["vi", "game"])
    def test_one_point_box_returns_valid_json(self, tmp_path, kind):
        # No two distinct points: the pair checkers must stop, not search forever.
        lo = hi = [1.0, 2.0]
        if kind == "game":
            p = make_game((1, 1), {(0, 0): [[2.0]], (1, 1): [[1.0]], (0, 1): [[0.5]]},
                          ([1.0], [-1.0]), BoxSet(lo, hi, blocks=(1, 1)))
        else:
            p = VIProblem(affine_mapping([[2.0, 0.5], [0.0, 1.0]], [1.0, -1.0]),
                          BoxSet(lo, hi))
        path = tmp_path / "point.json"
        save_problem(p, path)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vibox.__file__)))
        done = subprocess.run([sys.executable, "-m", "vibox.cli", "certify", str(path)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 3, done.stderr

        def no_constants(token):
            raise ValueError(f"stdout is not strict JSON: {token}")

        certs = {c["condition"]: c
                 for c in json.loads(done.stdout, parse_constant=no_constants)["certificates"]}
        for cond in ("pfunction", "block-pfunction", "growth"):
            assert certs[cond]["verdict"] == "inconclusive" and certs[cond]["margin"] is None
            assert certs[cond]["budget"] == {"pairs": 0}
            assert "no two points" in certs[cond]["notes"]

    def test_pl_on_an_overflowing_box_passes_as_strict_json(self, tmp_path, capsys):
        # Strongly convex; on this box 1/2 x^2 and x^2 overflow, but the
        # constant 2 lambda_min(Q_00) = 2 is read off the block, not off points.
        g = make_game((1,), {(0, 0): [[1.0]]}, ([0.0],),
                      BoxSet([-1e160], [1e160], blocks=(1,)))
        path = tmp_path / "wide.json"
        save_problem(g, path)
        code, out, _ = run_cli(capsys, "certify", str(path), "--conditions", "pl")

        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        (cert,) = json.loads(out, parse_constant=refuse)["certificates"]
        assert code == 0 and cert["verdict"] == "pass" and cert["margin"] == 2.0
        assert cert["notes"].startswith("exact:")

    def test_closed_stdout_exits_without_a_traceback(self):
        # The reader of stdout is gone before the report is written, as with
        # `vibox certify example-game | head -1` when head exits first.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vibox.__file__)))
        try:
            done = subprocess.run([sys.executable, "-m", "vibox.cli", "certify", "example-game"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60, env=env)
        finally:
            os.close(write_end)
        assert done.returncode == 1 and done.stderr == ""

    def test_byte_identical_reports(self, capsys):
        _, out_a, _ = run_cli(capsys, "certify", "example-game", "--seed", "7")
        _, out_b, _ = run_cli(capsys, "certify", "example-game", "--seed", "7")
        assert out_a == out_b

    def test_timing_covers_certification(self, capsys, monkeypatch):
        certify = cli.certify_problem

        def slow_certify(*args, **kwargs):
            time.sleep(0.2)
            return certify(*args, **kwargs)

        monkeypatch.setattr(cli, "certify_problem", slow_certify)
        code, _, err = run_cli(capsys, "certify", "spd-box", "--conditions", "pmatrix")
        assert code == 0
        assert float(err.split(" in ")[-1].rstrip().rstrip("s")) >= 0.2

    def test_seed_recorded_in_config(self, capsys):
        _, out, _ = run_cli(capsys, "certify", "identity-box", "--seed", "11",
                            "--conditions", "pmatrix")
        doc = json.loads(out)
        assert doc["config"]["seed"] == 11
        assert doc["certificates"][0]["seed"] == 11


class TestWideSampling:
    @pytest.mark.parametrize("radius", ["10", "1e200", "1e308", "1.7e308"])
    def test_wide_boxes_end_in_a_report_or_one_error_line(self, tmp_path, capsys, radius):
        # Sampled intervals wider than the largest double (hi - lo overflows)
        # and Jacobians that overflow (cubic-free past |x| = 1e154) end in a
        # report, or in one error line with exit code 1, never in an
        # exception.  Solve reports may print an overflowing residual as
        # Infinity; certify reports must be strict JSON.
        path = tmp_path / "wide.json"
        save_problem(VIProblem(affine_mapping([[0.5, 0.1], [-0.1, 0.5]], [1.0, -1.0]),
                               BoxSet([-1e308, -1e308], [1e308, 1e308])), path)

        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        for problem in [*problem_ids(), str(path)]:
            for command in ("solve", "certify"):
                code, out, err = run_cli(capsys, command, problem, "--radius", radius)
                assert code in (0, 1, 2, 3), (command, problem)
                if code == 1:
                    assert out == "" and err.count("\n") == 1 and "non-finite" in err
                elif command == "certify":
                    json.loads(out, parse_constant=refuse)


def test_corner_ray_path_on_a_box_about_1e308_wide(tmp_path, capsys):
    # F(lo) overflows, so the path's tableau is non-finite from the start.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "m": 2, "mapping": {"kind": "affine"},
        "affine": {"A": [-1.948, 2.980, -1.431, 0.864], "b": [-0.753, 0.783]},
        "set": {"lo": [-1e308, -1e308], "hi": [1.0, 1.0]}}))
    code, out, err = run_cli(capsys, "solve", str(path), "--starts", "3")
    assert code == 2 and err.startswith("solved") and err.count("\n") == 1
    ends = [r for r in json.loads(out)["results"] if r["steps"] == ["path"]]
    assert [(r["status"], r["x"]) for r in ends] == [("line-search-stall", [-5e307, -5e307])]


def test_corner_ray_path_where_f_overflows_at_its_end(tmp_path, capsys):
    # F is finite at both starts but overflows where the path reads its end
    # point back: the path stalls at the box midpoint, and solve prints its report.
    path = tmp_path / "overflow-end.json"
    path.write_text(json.dumps({
        "m": 1, "mapping": {"kind": "affine"},
        "affine": {"A": [7.684337819423959e+307], "b": [-6.9305022522022e+303]},
        "set": {"lo": [-0.494153906108326], "hi": [2.58142683425597]}}))
    code, out, err = run_cli(capsys, "solve", str(path), "--starts", "2")
    assert code == 2 and err.startswith("solved") and err.count("\n") == 1
    ends = [r for r in json.loads(out)["results"] if r["steps"] == ["path"]]
    assert [(r["status"], r["x"]) for r in ends] == [
        ("line-search-stall", [(-0.494153906108326 + 2.58142683425597) / 2.0])]


NONFINITE_ENTRIES = [  # (field, problem, path to one entry of the field in its file)
    ("game.q", "example-game", ("game", "q", "0,0", 0)),
    ("game.q", "example-game", ("game", "q", "0,1", 0)),
    ("game.c", "example-game", ("game", "c", 1, 0)),
    ("affine.A", "spd-box", ("affine", "A", 0)),
    ("affine.b", "spd-box", ("affine", "b", 1)),
]


class TestProblemFiles:
    def test_round_trip_matches_builtin_bit_exact(self, tmp_path, capsys):
        for pid in ("example-vi", "example-game", "identity-box", "cubic-free"):
            path = tmp_path / f"{pid}.json"
            save_problem(get_problem(pid), path)
            loaded = load_problem(path)
            a = solve(get_problem(pid))
            b = solve(loaded)
            assert np.array_equal(a.x, b.x) and a.trace == b.trace

    def test_cli_accepts_problem_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_problem(get_problem("spd-box"), path)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["problem"]["provenance"] == str(path)
        np.testing.assert_allclose(doc["results"][0]["x"], [1.0, 1.0], atol=1e-9)

    def test_infinite_bounds_round_trip(self, tmp_path):
        p = get_problem("example-vi")
        path = tmp_path / "free.json"
        save_problem(p, path)
        doc = json.loads(path.read_text())
        assert doc["set"]["lo"] == ["-inf", "-inf"]
        assert np.all(np.isinf(load_problem(path).set.lo))

    def test_malformed_json_diagnostic_has_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "m": 2,\n  oops\n}\n')
        with pytest.raises(ProblemFileError) as exc:
            load_problem(path)
        assert f"{path}:3:" in str(exc.value)
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 1 and ":3:" in err

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text('{"m": 2, "set": {"lo": [0, 0], "hi": [1, 1]}}\n')
        with pytest.raises(ProblemFileError):
            load_problem(path)

    @pytest.mark.parametrize("case", ["unknown-id", "unknown-condition", "repeated-condition",
                                      "builtin-id", "missing-m", "mapping-kind"])
    def test_one_exact_error_line(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.chdir(tmp_path)  # no file named "nope" here
        path = tmp_path / "bad.json"
        doc = {"m": 2, "set": {"lo": [0, 0], "hi": [1, 1]},
               "mapping": {"kind": "builtin"}, "builtin": {"id": "nope"}}
        argv, expected = [str(path)], f"{path}: unknown builtin mapping 'nope'"
        if case == "unknown-id":
            argv, expected = ["nope"], "unknown problem id or file: 'nope'"
        elif case == "unknown-condition":
            argv, expected = ["example-vi", "--conditions", "foo"], \
                "unknown condition ids: ['foo']"
        elif case == "repeated-condition":
            argv, expected = ["example-vi", "--conditions", "pmatrix,growth,pmatrix"], \
                "repeated condition ids: ['pmatrix']"
        elif case == "missing-m":
            del doc["m"]
            expected = f"{path}: missing field 'm'"
        elif case == "mapping-kind":
            doc["mapping"]["kind"] = "cubic"
            expected = f"{path}: unknown mapping kind 'cubic'"
        path.write_text(json.dumps(doc))
        commands = ["certify"] if case.endswith("-condition") else ["solve", "certify"]
        for command in commands:
            code, out, err = run_cli(capsys, command, *argv)
            assert (code, out, err) == (1, "", f"error: {expected}\n")

    def test_bad_bound_token_rejected(self, tmp_path):
        path = tmp_path / "badbound.json"
        path.write_text(json.dumps({
            "m": 1, "set": {"lo": ["low"], "hi": [1.0]},
            "mapping": {"kind": "affine"}, "affine": {"A": [1.0]},
        }))
        with pytest.raises(ProblemFileError):
            load_problem(path)


    def test_zero_dimension_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "m": 0, "set": {"lo": [], "hi": []},
            "mapping": {"kind": "affine"}, "affine": {"A": [], "b": []},
        }))
        with pytest.raises(ProblemFileError, match="m must be at least 1"):
            load_problem(path)
        for command in ("solve", "certify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error:") and "m must be at least 1" in err

    def test_nan_bound_rejected_with_exit_one(self, tmp_path, capsys):
        path = tmp_path / "nanbound.json"
        path.write_text(json.dumps({
            "m": 1, "set": {"lo": [float("nan")], "hi": [1.0]},
            "mapping": {"kind": "affine"}, "affine": {"A": [1.0]},
        }))
        with pytest.raises(ProblemFileError, match="NaN"):
            load_problem(path)
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1 and out == "" and err.startswith("error:") and "NaN" in err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "list", "nested-list",
                                      "int-400-digits", "int-5000-digits", "list-100000-deep"])
    def test_unreadable_problem_file_exit_one(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.json"
        write_bad_problem_file(path, kind)
        with pytest.raises(ProblemFileError):
            load_problem(path)
        for command in ("solve", "certify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == "" and err.startswith("error:")
            assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("kind", ["list-1000000-deep", "object-200000-deep",
                                      "int-400-digits", "int-5000-digits", "nan-bound"])
    def test_pathological_file_exit_one_in_subprocess(self, tmp_path, kind):
        # A parser that overflows the C stack kills the process; a subprocess
        # turns that into a failed test instead of a dead test run.
        path = tmp_path / "bad.json"
        write_bad_problem_file(path, kind)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vibox.__file__)))
        for command in ("solve", "certify"):
            done = subprocess.run([sys.executable, "-m", "vibox.cli", command, str(path)],
                                  capture_output=True, text=True, timeout=60, env=env)
            assert done.returncode == 1 and done.stdout == "", done.stderr[-500:]
            assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("kind", BAD_FILE_KINDS)
    def test_same_message_as_json_parser(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "bad.json"
        write_bad_problem_file(path, kind)
        with pytest.raises(ProblemFileError) as fast:
            load_problem(path)
        # json on the text as a file opened in text mode decodes it
        monkeypatch.setattr(problem_io, "_parse_json", lambda raw: json.loads(
            io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()))
        with pytest.raises(ProblemFileError) as plain:
            load_problem(path)
        assert str(fast.value) == str(plain.value)

    @pytest.mark.parametrize("key", ["2,0", "0,2", "-1,0", "1,-1"])
    def test_game_block_key_out_of_range(self, tmp_path, capsys, key):
        path = tmp_path / "game.json"
        doc = problem_to_dict(get_problem("example-game"))
        doc["game"]["q"][key] = [1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="outside"):
            load_problem(path)
        for command in ("solve", "certify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == "" and key in err and "Traceback" not in err

    @pytest.mark.parametrize("pid, m", [("spd-box", 3), ("cubic-free", 1), ("example-game", 1),
                                        ("three-players", 2)])
    def test_m_other_than_the_box_dimension_exit_one(self, tmp_path, capsys, pid, m):
        if pid == "three-players":  # three 1-dim players on a 3-dim box
            doc = {"m": 3, "mapping": {"kind": "game"},
                   "set": {"lo": [-1.0] * 3, "hi": [1.0] * 3, "blocks": [1, 1, 1]},
                   "game": {"block_sizes": [1, 1, 1], "c": [[0.0]] * 3,
                            "q": {f"{i},{i}": [1.0] for i in range(3)}}}
        else:
            doc = problem_to_dict(get_problem(pid))
        doc["m"] = m
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match=f"m is {m} but the set has"):
            load_problem(path)
        for command in ("solve", "certify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error:") and f"m is {m}" in err

    @pytest.mark.parametrize("bound", ["inf", "-inf"])
    def test_empty_infinite_interval_exit_one(self, tmp_path, capsys, bound):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "m": 2, "set": {"lo": [0.0, bound], "hi": [1.0, bound]},
            "mapping": {"kind": "affine"}, "affine": {"A": [1.0, 0.0, 0.0, 1.0]},
        }))
        with pytest.raises(ProblemFileError, match="empty"):
            load_problem(path)
        for command in ("solve", "certify"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, command, str(path))
            assert code == 1 and out == "" and err.startswith("error:") and "empty" in err

    @pytest.mark.parametrize("field, pid, where, number", [
        pytest.param(field, pid, where, number, id=f"{'.'.join(map(str, where))}={number}")
        for field, pid, where in NONFINITE_ENTRIES for number in ("1e400", "-1e400", "NaN")
        if not (where[2] == "0,0" and number == "NaN")])  # a NaN own block is not symmetric
    def test_nonfinite_problem_data_exit_one(self, tmp_path, capsys, field, pid, where, number):
        doc = problem_to_dict(get_problem(pid))
        *keys, last = where
        entry = doc
        for key in keys:
            entry = entry[key]
        entry[last] = 7.25  # a marker, replaced by number in the file's text
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc).replace("7.25", number))
        with pytest.raises(ProblemFileError, match="not a finite number"):
            load_problem(path)
        conditions = "block-convexity,upsilon" if pid == "example-game" else "pmatrix,sigma-sweep"
        for argv in (["solve"], ["certify", "--conditions", conditions]):
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error:") and f"{field} has an entry" in err

    @pytest.mark.parametrize("pid, where, value, message", [
        ("spd-box", ("m",), 2.7, "m must be an integer, got 2.7"),
        ("spd-box", ("m",), "2", "m must be an integer, got '2'"),
        ("spd-box", ("m",), True, "m must be an integer, got True"),
        ("spd-box", ("set", "lo", 0), False, "set.lo has an entry that is not a number: False"),
        ("spd-box", ("set", "hi", 1), True, "set.hi has an entry that is not a number: True"),
        ("spd-box", ("affine", "b"), ["-1", -1],
         "affine.b has an entry that is not a number: '-1'"),
        ("example-game", ("game", "c"), [["1"], [-1]],
         "game.c has an entry that is not a number: '1'"),
        ("spd-box", ("set", "blocks"), [1.5, 1],
         "set.blocks has an entry that is not an integer: 1.5"),
        ("example-game", ("game", "block_sizes"), [True, True],
         "game.block_sizes has an entry that is not an integer: True"),
        ("example-game", ("game", "block_sizes"), [1.9, 1],
         "game.block_sizes has an entry that is not an integer: 1.9"),
    ], ids=["m-float", "m-string", "m-bool", "lo-false", "hi-true", "b-string", "c-string",
            "blocks-float", "block-sizes-bool", "block-sizes-float"])
    def test_number_fields_take_json_numbers_only(self, tmp_path, capsys, pid, where, value,
                                                  message):
        doc = problem_to_dict(get_problem(pid))
        *keys, last = where
        entry = doc
        for key in keys:
            entry = entry[key]
        entry[last] = value
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(doc))
        for command in ("solve", "certify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("value, message", [
        (False, "set.blocks must be a list, got False"),
        (0, "set.blocks must be a list, got 0"),
        ({}, "set.blocks must be a list, got {}"),
        ("", "set.blocks must be a list, got ''"),
        (None, "set.blocks must be a list, got None"),
        ([], "block sizes must be positive and sum to the dimension"),
    ], ids=["false", "zero", "empty-object", "empty-string", "null", "empty-list"])
    def test_present_set_blocks_must_be_a_partition(self, tmp_path, capsys, value, message):
        # Only an absent set.blocks means no partition.
        doc = problem_to_dict(get_problem("spd-box"))
        doc["set"]["blocks"] = value
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(doc))
        for command in ("solve", "certify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

    def test_overflowing_bound_is_an_unbounded_side(self, tmp_path):
        path = tmp_path / "bounds.json"
        doc = problem_to_dict(get_problem("spd-box"))
        doc["set"]["lo"][0], doc["set"]["hi"][1] = 7.25, 8.25
        path.write_text(json.dumps(doc).replace("7.25", "-1e400").replace("8.25", "1e400"))
        p = load_problem(path)
        assert p.set.lo[0] == -np.inf and p.set.hi[1] == np.inf

    @pytest.mark.parametrize("argv", [("certify", "--conditions", "pfunction"),
                                      ("certify", "--conditions", "block-pfunction"),
                                      ("certify", "--conditions", "growth"), ("solve",)],
                             ids=["pfunction", "block-pfunction", "growth", "solve"])
    def test_nonfinite_mapping_at_sample_exit_one(self, tmp_path, capsys, argv):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "m": 1, "set": {"lo": [0.0], "hi": [2.0]},
            "mapping": {"kind": "affine"}, "affine": {"A": [1e308], "b": [1e308]},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1 and out == "" and err.count("\n") == 1
        point = "a start point" if argv[0] == "solve" else "a sampled point"
        assert err.startswith("error:") and f"non-finite at {point}" in err


NO_KEY = "<no key>"  # a replacement that deletes the field
REPLACEMENTS = [2.7, "2", True, False, ["-1", -1], [["1"], [-1]], [1.5, 1], [True, True],
                [1.9, 1], math.nan, "x", [[1.0, [2.0]]], NO_KEY]


def _paths(node, at=()):
    """The key path of every entry below node, containers before their entries."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    for key, value in items:
        yield (*at, key)
        yield from _paths(value, (*at, key))


@st.composite
def problem_docs(draw):
    """Problem files of kind affine, game or builtin with m <= 3; in two of
    three, one field replaced by an entry of REPLACEMENTS or deleted."""
    m = draw(st.integers(1, 3))
    lo = draw(st.lists(st.sampled_from([-1.0, 0.0, -math.inf, -1e308]), min_size=m, max_size=m))
    hi = draw(st.lists(st.sampled_from([1.0, 2.0, math.inf, 1e308]), min_size=m, max_size=m))
    doc = {"name": "drawn", "m": m,
           "set": {"lo": [v if math.isfinite(v) else str(v) for v in lo],
                   "hi": [v if math.isfinite(v) else str(v) for v in hi]}}
    kind = draw(st.sampled_from(["affine", "game", "builtin"]))

    def numbers(k):
        return draw(st.lists(st.floats(-4, 4) | st.integers(-4, 4), min_size=k, max_size=k))

    if kind == "affine":
        doc["affine"] = {"A": numbers(m * m), "b": numbers(m)}
    elif kind == "game":
        sizes = draw(st.sampled_from([s for s in ([1], [2], [3], [1, 1], [1, 2], [2, 1],
                                                  [1, 1, 1]) if sum(s) == m]))
        q = {}
        for i, si in enumerate(sizes):
            for j, sj in enumerate(sizes):
                block = numbers(si * sj)
                if i == j:  # an exactly symmetric own block
                    block = [block[min(r, c) * si + max(r, c)] for r in range(si)
                             for c in range(si)]
                elif draw(st.booleans()):
                    continue  # an absent cross block is zero
                q[f"{i},{j}"] = block
        doc["game"] = {"block_sizes": sizes, "q": q, "c": [numbers(s) for s in sizes]}
        if draw(st.booleans()):
            doc["set"]["blocks"] = sizes
    else:
        doc["builtin"] = {"id": draw(st.sampled_from(["cubic", "cubic-plus-linear"]))}
    doc["mapping"] = {"kind": kind}
    if draw(st.integers(0, 2)):
        *at, last = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in at:
            parent = parent[key]
        value = draw(st.sampled_from(REPLACEMENTS))
        if value == NO_KEY:
            del parent[last]
        else:
            parent[last] = value
    return doc


@given(problem_docs())
def test_every_problem_file_gets_a_report_or_one_error_line(tmp_path_factory, doc):
    # stdout is not checked to be strict JSON: a report may still print
    # Infinity or NaN for a margin.
    path = tmp_path_factory.mktemp("drawn") / "p.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", str(path), "--starts", "3"], ["certify", str(path), "--samples", "5"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("error:")


class TestReportCommand:
    def _write_report(self, capsys, tmp_path, pid, conditions, name):
        _, out, _ = run_cli(capsys, "certify", pid, "--conditions", conditions)
        path = tmp_path / name
        path.write_text(out)
        return path

    def test_merges_and_sorts_rows(self, capsys, tmp_path):
        a = self._write_report(capsys, tmp_path, "spd-box", "pmatrix,sigma-sweep", "a.json")
        b = self._write_report(capsys, tmp_path, "example-game", "upsilon", "b.json")
        code, out, _ = run_cli(capsys, "report", str(b), str(a), "--format", "delimited")
        assert code == 0
        lines = [l.split("\t") for l in out.strip().splitlines()]
        assert lines[0] == ["problem", "condition", "verdict", "margin"]
        assert [l[0] for l in lines[1:]] == ["example-game", "spd-box", "spd-box"]
        assert lines[1][2] == "fail"

    def test_text_format_is_aligned(self, capsys, tmp_path):
        a = self._write_report(capsys, tmp_path, "spd-box", "pmatrix", "a.json")
        code, out, _ = run_cli(capsys, "report", str(a))
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header.startswith("problem") and "condition" in header
        assert row.startswith("spd-box")

    def test_empty_input_emits_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--format", "delimited")
        assert code == 0
        assert out.strip() == "problem\tcondition\tverdict\tmargin"

    @pytest.mark.parametrize("kind", ["not-utf8", "list-100000-deep", "int-5000-digits",
                                      "id-list"])
    def test_bad_report_skipped_with_one_warning(self, capsys, tmp_path, kind):
        good = self._write_report(capsys, tmp_path, "spd-box", "pmatrix", "a.json")
        bad = tmp_path / "bad.json"
        if kind == "id-list":  # sorting it among string ids would raise
            doc = json.loads(good.read_text())
            doc["problem"]["id"] = ["spd-box"]
            bad.write_text(json.dumps(doc))
        else:
            write_bad_problem_file(bad, kind)
        code, out, err = run_cli(capsys, "report", str(good), str(bad), "--format", "delimited")
        assert code == 0 and err.count("\n") == 1
        assert err.startswith(f"warning: skipping {bad}: ")
        assert [l.split("\t")[:2] for l in out.splitlines()[1:]] == [["spd-box", "pmatrix"]]

    def test_unreadable_file_skipped_with_warning(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, out, err = run_cli(capsys, "report", str(bad))
        assert code == 0 and "skipping" in err


def rows_scaled_problem():
    """The rows-scaled file of scripts/compare_reports.py (save_sweep_edges):
    a diagonally dominant 10 x 10 A, its rows scaled by 2^500 and 2^-500 in
    turn, on [-5, 5]^10."""
    rng = np.random.default_rng(500)
    m = 10
    a = rng.uniform(-1.0, 1.0, (m, m))
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    rng.uniform(-1.0, 1.0, (m, m))  # the other file's A
    return VIProblem(affine_mapping(np.ldexp(a, np.tile([500, -500], m // 2)[:, None]),
                                    rng.standard_normal(m)), BoxSet([-5.0] * m, [5.0] * m))


@pytest.mark.parametrize("starts", ["1", "2", "3", "8", "13"])
def test_an_overflowing_regularized_system_takes_the_gradient_step(capsys, tmp_path, starts):
    # J^T J overflows on these rows and its solve raised LinAlgError from the
    # third start on; such a start now takes the gradient step and the solve
    # ends with a report
    path = tmp_path / "rows.json"
    save_problem(rows_scaled_problem(), path)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(capsys, "solve", str(path), "--starts", starts)
    assert code == 2
    assert len(json.loads(out)["results"]) >= int(starts)
