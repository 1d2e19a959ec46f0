import gc
import json
import os
import random
import re
import subprocess
import sys

import pytest

from conftest import FAN_DIR
from toriclg.cli import MAX_DEGREE, main
from toriclg.linalg import RationalMatrix, lift


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fan_path(name):
    return str(FAN_DIR / f"{name}.json")


class TestValidate:
    def test_p1(self, capsys):
        code, out, _ = run_cli(capsys, "validate", fan_path("p1"), "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["valid"]
        assert payload["primitive_collections"] == [[1, 2]]
        assert payload["semiprojective"]["semiprojective"]
        assert payload["semiprojective"]["certificate"] == [[0], [-1]]

    def test_nonsmooth_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[1, 2]]}))
        code, out, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "smooth" in err

    def test_high_rank_cone_is_checked_without_enumerating_minors(self, capsys, tmp_path):
        # one cone on rows 1-12 of a random unimodular 24 x 24 matrix: its
        # maximal minors number C(24, 12) = 2.7 M
        n = 24
        rng = random.Random(24)
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(96):
            i, j = rng.sample(range(n), 2)
            sign = rng.choice((1, -1))
            mat[i] = [a + sign * b for a, b in zip(mat[i], mat[j])]
        path = tmp_path / "rank24.json"
        path.write_text(json.dumps({"rank": n, "rays": mat[:12], "max_cones": [list(range(1, 13))]}))
        code, out, _ = run_cli(capsys, "validate", str(path), "--json")
        assert code == 0
        assert json.loads(out)["payload"]["valid"]

    def test_overlapping_pair_names_a_common_point_without_enumeration(self, capsys, tmp_path):
        # cone(e_1..e_10) and cone(e_1 + e_2, -e_2, e_3..e_10) overlap beyond
        # cone(e_3..e_10); enumerating the extreme rays of their intersection
        # takes 2^20 active sets
        n = 10
        rays = [[int(i == j) for j in range(n)] for i in range(n)]
        rays += [[1, 1] + [0] * (n - 2), [0, -1] + [0] * (n - 2)]
        a, b = list(range(1, n + 1)), [11, 12] + list(range(3, n + 1))
        path = tmp_path / "overlap10.json"
        path.write_text(json.dumps({"rank": n, "rays": rays, "max_cones": [a, b]}))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        point = json.loads(re.search(r"both contain (\[[^]]*\])", err).group(1))
        alpha, beta = (lift(RationalMatrix.from_columns([rays[i - 1] for i in cone], rows=n), point)
                       for cone in (a, b))
        assert min(alpha) >= 0 and min(beta) >= 0
        # off the common face: positive on a ray of a outside b
        assert alpha[0] > 0 or alpha[1] > 0

    def test_zero_fan(self, capsys):
        code, out, _ = run_cli(capsys, "validate", fan_path("zero2"), "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["valid"]
        assert not payload["semiprojective"]["semiprojective"]
        assert payload["semiprojective"]["reason"] == "not-full-dimensional"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no_such_file.json")
        assert code == 2


class TestCohomology:
    def test_cxp1_ring(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", fan_path("c_x_p1"),
                               "--ring", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["dims"] == [1, 0, 1, 0, 0, 0, 0]
        assert payload["regular_sequence"]["regular"]
        assert payload["regular_sequence"]["forms"] == ["z1", "z2 - z3"]
        degrees = sorted(c["degree"] for c in payload["ring"]["basis"])
        assert degrees == [0, 2]
        # h*h lands in the zero slot of degree 4
        square = [c for c in payload["ring"]["products"]
                  if c["left"] == "t=2#0" and c["right"] == "t=2#0"]
        assert square and square[0]["coords"] == []

    def test_c3(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", fan_path("c3"), "--json")
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["dims"][0] == 1 and not any(payload["dims"][1:])

    def test_p2_tmax(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", fan_path("p2"),
                               "--tmax", "4", "--json")
        payload = json.loads(out)["payload"]
        assert payload["dims"] == [1, 0, 1, 0, 1]


# the stderr line of a verify whose faked pipelines differ in dimension at t = 2
MISMATCH_LINE = "mismatch: dims differ at t=2: twisted complex 1, double complex 2, constant forms 1\n"


class TestVerify:
    @pytest.mark.parametrize("name", ["p1", "p2", "blowup_c2", "c_x_p1", "zero2"])
    def test_suite_agrees(self, capsys, name):
        code, out, _ = run_cli(capsys, "verify", fan_path(name), "--mmax", "4", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["agree"]
        assert payload["exactness_ok"]
        assert payload["dims_twisted"] == payload["dims_const_total"]

    def test_cover_flag(self, capsys):
        # all-cones order for p2: {}, {1}, {1,2}, {1,3}, {2}, {2,3}, {3}
        code, out, _ = run_cli(capsys, "verify", fan_path("p2"),
                               "--mmax", "4", "--cover", "3,4,6,2", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["agree"]
        assert payload["cover"] == [[1, 2], [1, 3], [2, 3], [1]]

    def test_bad_cover_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", fan_path("p2"),
                               "--cover", "2,5,7")
        assert code == 2
        assert "misses" in err

    def test_large_cover_exits_2_naming_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "verify", fan_path("p1xp1"),
                                 "--cover", "1,2,3,4,5,6,7,8,9", "--json")
        assert code == 2
        assert out == ""
        assert err == ("error: cover has 9 cones, more than the limit MAX_COVER_DEFAULT = 8; "
                       "use a cover of at most 8 cones\n")

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        # no valid fan produces disagreement, so fake one to pin the exit code;
        # cmd_verify imports it from toriclg.cech when it runs
        import toriclg.cech as cech
        from toriclg.cech import QuasiIsoReport

        def fake(cs, t_max=None):
            return QuasiIsoReport(4, (1, 0, 1), (1, 0, 2), (1, 0, 1), True, False)

        monkeypatch.setattr(cech, "verify_quasi_iso", fake)
        code, out, err = run_cli(capsys, "verify", fan_path("p1"), "--mmax", "2", "--json")
        assert code == 3
        assert not json.loads(out)["payload"]["agree"]
        assert err == MISMATCH_LINE

    def test_inexact_slice_exits_3_naming_its_degree(self, capsys, monkeypatch):
        import toriclg.cech as cech
        real = cech.verify_exactness

        def fake(cs, m_max):
            report = real(cs, m_max)
            report.entries[(3, 1)] = {**report.entries[(3, 1)], "exact": False}
            report.exact = False
            return report

        monkeypatch.setattr(cech, "verify_exactness", fake)
        code, out, err = run_cli(capsys, "verify", fan_path("p1"), "--mmax", "4", "--json")
        assert code == 3
        assert not json.loads(out)["payload"]["exactness"][3]["exact"]
        assert err == "mismatch: the cover complex is not exact in polynomial degree m=3\n"

    def test_broken_chain_map_exits_3(self, capsys, monkeypatch):
        # an inclusion that is not a chain map sends some representative to a
        # non-cocycle, which the induced check must not try to reduce
        from toriclg.cech import CoverSimplex
        real = CoverSimplex.inclusion_matrix

        def inclusion_matrix(self, t):
            inc = real(self, t)
            if t != 2:
                return inc
            key = min(inc.entries)
            return RationalMatrix(inc.rows, inc.cols, {**inc.entries, key: 2 * inc.entries[key]})

        monkeypatch.setattr(CoverSimplex, "inclusion_matrix", inclusion_matrix)
        code, out, err = run_cli(capsys, "verify", fan_path("p2"), "--json")
        assert (code, err) == (3, "mismatch: the inclusion of constant forms is not a chain map at t=2\n")
        payload = json.loads(out)["payload"]
        assert not payload["chain_map_ok"] and not payload["induced_iso_ok"]
        assert not payload["agree"]


class TestDegenerate:
    def test_p1(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", fan_path("p1"), "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["relations"] == [
            {"ray": 2, "coefficients": [-1], "exponent": 1, "text": "z2 * z1 = t^1"}]
        assert payload["presentation"]["checked"]

    def test_cn_no_relations(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", fan_path("c2"), "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["relations"] == []

    def test_sigma_m_flag(self, capsys):
        code, out, _ = run_cli(capsys, "degenerate", fan_path("blowup_c2"),
                               "--sigma-m", "2,3", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["reference_cone"] == [2, 3]
        assert len(payload["relations"]) == 1
        assert payload["relations"][0]["exponent"] >= 1

    def test_not_semiprojective_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "degenerate", fan_path("zero2"))
        assert code == 2
        assert "semi-projective" in err

    @pytest.mark.parametrize("argv, message", [
        # a repeated index names the flag, as a fan file's cone #k does
        (["degenerate", fan_path("p2"), "--sigma-m", "1,1,2"], "--sigma-m 1,1,2 repeats a ray index"),
        (["degenerate", fan_path("p2"), "--sigma-m", "1"], "--sigma-m cone {1} is not full-dimensional"),
        (["degenerate", fan_path("p2"), "--sigma-m", "1,9"], "[1, 9] is not a cone of the fan"),
        (["degenerate", fan_path("p2"), "--sigma-m", "1,x"],
         "expected a comma-separated integer list, got '1,x'"),
        (["verify", fan_path("p1"), "--cover", "9"], "--cover index 9 outside 1..3"),
    ])
    def test_bad_flag_value_exits_2(self, capsys, argv, message):
        assert run_cli(capsys, *argv, "--json") == (2, "", f"error: {message}\n")


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", fan_path("blowup_c2"), "--mmax", "4", "--json")
        _, out2, _ = run_cli(capsys, "verify", fan_path("blowup_c2"), "--mmax", "4", "--json")
        assert out1 == out2

    def test_payload_roundtrip(self, capsys):
        for args in (("validate", fan_path("p2")),
                     ("cohomology", fan_path("c_x_p1"), "--ring"),
                     ("verify", fan_path("p1"), "--mmax", "4"),
                     ("degenerate", fan_path("p1"))):
            _, out, _ = run_cli(capsys, *args, "--json")
            payload = json.loads(out)
            assert json.loads(json.dumps(payload)) == payload


class TestBadInput:
    def test_missing_file_exits_2_for_every_subcommand(self, capsys):
        for command in ("validate", "cohomology", "verify", "degenerate"):
            code, _, err = run_cli(capsys, command, "no_such_file.json")
            assert code == 2, command
            assert "cannot read no_such_file.json" in err, command

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "not valid JSON: nested too deeply"),
        (b'{"rank": 1, "rays": [[1' + b"0" * 5000 + b'], [-1]], "max_cones": [[1], [2]]}',
         "not valid JSON: Exceeds the limit (4300 digits)"),
    ], ids=["not-utf8", "nested-too-deeply", "integer-past-digit-limit"])
    def test_undecodable_fan_file_exits_2(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for command in ("validate", "cohomology", "verify", "degenerate"):
            code, out, err = run_cli(capsys, command, str(bad), "--json")
            assert (code, out) == (2, ""), command
            assert err.startswith("error: " + message.format(path=bad)), command

    def test_unknown_fan_file_key_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({"rank": 1, "rays": [[1], [-1]], "max_cones": [[1], [2]],
                                   "polyhedon": {"vertices": [[0], [1]]}}))
        for command in ("validate", "cohomology", "verify", "degenerate"):
            code, out, err = run_cli(capsys, command, str(bad), "--json")
            assert code == 2, command
            assert out == ""
            assert "unknown key(s) 'polyhedon'" in err, command

    @pytest.mark.parametrize("polyhedron, key", [
        ({"vertices": [[0, 0]], "recesion_rays": [[1, 0], [0, 1]]}, "recesion_rays"),
        ({"vertices": [[0, 0]], "recession_rays": [[1, 0], [0, 1]], "extra": 1}, "extra"),
    ], ids=["typo", "extra"])
    def test_unknown_polyhedron_key_exits_2(self, capsys, tmp_path, polyhedron, key):
        # a misspelt key must not pass for a missing one ("not full-dimensional")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[1, 2]],
                                   "polyhedron": polyhedron}))
        for command in ("validate", "cohomology", "verify", "degenerate"):
            code, out, err = run_cli(capsys, command, str(bad), "--json")
            assert (code, out) == (2, ""), command
            assert err == (f"error: unknown key(s) {key!r}; a polyhedron has only "
                           "'vertices', 'recession_rays'\n"), command

    @pytest.mark.parametrize("data, message", [
        ({"rank": True, "rays": [[1]], "max_cones": [[1]]},
         "rank must be a positive integer, got True"),
        ({"rank": 2, "rays": [[True, False], [0, 1]], "max_cones": [[1, 2]]},
         "ray 1 is not an integer vector of length 2"),
        ({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[True, 2]]},
         "cone #1 is not a list of integer ray indices"),
        ({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[1, 2]],
          "polyhedron": {"vertices": [[0, 0], [1, 0], [0, True]]}},
         "polyhedron entries must be integer vectors of fan rank"),
        ({"rank": 2, "rays": [1, 2], "max_cones": [[1]]},
         "ray 1 is not an integer vector of length 2"),
        ({"rank": 2, "rays": 7, "max_cones": [[1]]},
         "rays must be a list of integer vectors"),
        ({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [5]},
         "cone #1 is not a list of integer ray indices"),
        ({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[1, 2]],
          "polyhedron": {"vertices": 5}},
         "polyhedron vertices and recession_rays must be lists"),
    ])
    def test_non_integer_fan_data_exits_2(self, capsys, tmp_path, data, message):
        # JSON true/false are Python bools, an int subclass: they must not pass as 1/0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for command in ("validate", "cohomology", "verify", "degenerate"):
            code, out, err = run_cli(capsys, command, str(bad), "--json")
            assert (code, out) == (2, ""), command
            assert err == f"error: {message}\n", command

    @pytest.mark.parametrize("argv", [("cohomology", "--tmax", "-3"),
                                      ("verify", "--tmax", "-1"),
                                      ("verify", "--mmax", "-2")])
    def test_negative_degree_bound_exits_2(self, capsys, argv):
        command, flag, value = argv
        with pytest.raises(SystemExit) as exc:
            main([command, fan_path("p1"), flag, value, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be non-negative, got {value}" in captured.err

    @pytest.mark.parametrize("command, flag", [("cohomology", "--tmax"),
                                               ("verify", "--tmax"),
                                               ("verify", "--mmax")])
    def test_degree_bound_above_the_limit_exits_2(self, capsys, command, flag):
        value = str(MAX_DEGREE + 1)
        with pytest.raises(SystemExit) as exc:
            main([command, fan_path("p2"), flag, value, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"argument {flag}: must be at most MAX_DEGREE = {MAX_DEGREE}, got {value}"
                in captured.err)

    def test_degree_bound_at_the_limit_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", fan_path("p1"),
                               "--tmax", str(MAX_DEGREE), "--json")
        assert code == 0
        assert json.loads(out)["payload"]["dims"] == [1, 0, 1] + [0] * (MAX_DEGREE - 2)

    def test_non_integer_degree_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", fan_path("p1"), "--tmax", "abc"])
        assert exc.value.code == 2
        assert "expected an integer, got 'abc'" in capsys.readouterr().err

    def test_zero_degree_bound_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", fan_path("p1"), "--tmax", "0", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["dims"] == [1]


class TestGrammar:
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_lists_the_commands(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: toriclg ")
        for command in ("validate", "cohomology", "verify", "degenerate"):
            assert f"\n  {command} " in out

    @pytest.mark.parametrize("argv, text", [
        (["verify", "-h"], "comma-separated 1-based indices into the all-cones list printed by "
                           "validate; default: maximal cones"),
        (["degenerate", fan_path("p1"), "--help"],
         "comma-separated ray indices of the reference cone"),
    ])
    def test_command_help_lists_its_options(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: toriclg {argv[0]} ")
        assert text in out and "--json" in out

    def test_option_value_forms_agree(self, capsys):
        results = {run_cli(capsys, "cohomology", fan_path("p2"), *form, "--json")
                   for form in (["--tmax", "3"], ["--tmax=3"], ["--tmax", "5", "--tmax", "3"])}
        assert len(results) == 1
        code, out, _ = results.pop()
        assert code == 0 and json.loads(out)["payload"]["dims"] == [1, 0, 1, 0]

    def test_options_before_the_fan_file(self, capsys):
        assert (run_cli(capsys, "verify", "--json", "--mmax", "2", fan_path("p1"))
                == run_cli(capsys, "verify", fan_path("p1"), "--mmax=2", "--json"))

    @pytest.mark.parametrize("argv, prog, message", [
        (["frob", fan_path("p1")], "toriclg",
         "argument command: invalid choice: 'frob' (choose from 'validate', 'cohomology', "
         "'verify', 'degenerate')"),
        ([], "toriclg", "the following arguments are required: command"),
        (["verify", fan_path("p1"), "--bogus"], "toriclg verify",
         "unrecognized arguments: --bogus"),
        (["cohomology", fan_path("p1"), "--js"], "toriclg cohomology",
         "unrecognized arguments: --js"),
        (["validate"], "toriclg validate", "the following arguments are required: fan_file"),
        (["validate", fan_path("p1"), "extra.json"], "toriclg validate",
         "unrecognized arguments: extra.json"),
        (["verify", fan_path("p1"), "--cover"], "toriclg verify",
         "argument --cover: expected one argument"),
        (["cohomology", fan_path("p1"), "--tmax", "--json"], "toriclg cohomology",
         "argument --tmax: expected one argument"),
        (["cohomology", fan_path("p1"), "--json=yes"], "toriclg cohomology",
         "argument --json: ignored explicit argument 'yes'"),
    ])
    def test_usage_error_exits_2_with_usage_and_message(self, capsys, argv, prog, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith(f"usage: {prog} ")
        assert error == f"{prog}: error: {message}"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toriclg.cli", "validate", fan_path("p1")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "semi-projective: yes" in proc.stdout


def test_in_process_main_leaves_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    run_cli(capsys, "validate", fan_path("p1"), "--json")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == frozen


# main() reads sys.argv, which holds the arguments after -c, as a process
# entry does; the child then prints how many objects it froze
FREEZE_MAIN = (
    "import gc, sys\n"
    "from toriclg.cli import main\n"
    "code = main()\n"
    "print(gc.get_freeze_count())\n"
    "sys.exit(code)\n")


def test_process_entry_freezes_start_up_heap_and_keeps_output(capsys):
    argv = ["validate", fan_path("p1"), "--json"]
    proc = subprocess.run([sys.executable, "-c", FREEZE_MAIN, *argv], capture_output=True, text=True)
    code, out, err = run_cli(capsys, *argv)
    *lines, frozen = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, code, err) == (0, "", 0, "")
    assert "\n".join(lines) + "\n" == out
    assert int(frozen) > 0


def test_process_entry_bad_fan_exits_2_as_in_process(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[1, 2]]}))
    proc = subprocess.run([sys.executable, "-c", FREEZE_MAIN, "validate", str(bad)],
                          capture_output=True, text=True)
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert (proc.returncode, code) == (2, 2)
    assert proc.stderr == err and "smooth" in err


# the second child fakes a disagreement, as test_mismatch_exits_3 does, names
# it on stderr and enters main() as a process entry does
MISMATCH_MAIN = (
    "import sys\n"
    "import toriclg.cech as cech\n"
    "from toriclg.cli import main\n"
    "cech.verify_quasi_iso = lambda cs, t_max=None: cech.QuasiIsoReport(\n"
    "    4, (1, 0, 1), (1, 0, 2), (1, 0, 1), True, False)\n"
    "sys.exit(main())\n")


@pytest.mark.parametrize("argv,want", [
    (["-m", "toriclg.cli", "cohomology", fan_path("p1xp1"), "--ring", "--json"], 0),
    (["-c", MISMATCH_MAIN, "verify", fan_path("p1"), "--mmax", "2"], 3),
])
def test_closed_stdout_keeps_exit_code_and_stderr_empty(argv, want):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    # no error message besides the mismatch line
    assert (proc.returncode, proc.stderr) == (want, b"" if want == 0 else MISMATCH_LINE.encode())
