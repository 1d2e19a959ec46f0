import json
import random
import subprocess
import sys

import pytest

from conftest import FAN_DIR
from toriclg.cli import MAX_DEGREE, main


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
        code, out, _ = run_cli(capsys, "verify", fan_path("p1"), "--mmax", "2", "--json")
        assert code == 3
        assert not json.loads(out)["payload"]["agree"]


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

    def test_unknown_fan_file_key_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({"rank": 1, "rays": [[1], [-1]], "max_cones": [[1], [2]],
                                   "polyhedon": {"vertices": [[0], [1]]}}))
        for command in ("validate", "cohomology", "verify", "degenerate"):
            code, out, err = run_cli(capsys, command, str(bad), "--json")
            assert code == 2, command
            assert out == ""
            assert "unknown key(s) 'polyhedon'" in err, command

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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toriclg.cli", "validate", fan_path("p1")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "semi-projective: yes" in proc.stdout
