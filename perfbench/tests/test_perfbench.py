"""Tests of the benchmark itself: generator, oracle, tracer and metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json

import pytest

import fans
import run
import tracer
from fans import (
    hirzebruch,
    p1_power_minus_cone,
    projective_space,
)
from workloads import WORKLOADS, check, primitive_collections, workload_jobs


def _cases(seed):
    seen = {}
    for workload in WORKLOADS:
        for job in workload_jobs(workload, seed):
            seen[job.case.name] = job.case
    return list(seen.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    def files(seed):
        return [json.dumps(job.case.file_data()) for job in workload_jobs(workload, seed)]

    assert files(7) == files(7)
    assert files(7) != files(8)


def test_every_valid_fan_parses_and_every_invalid_one_is_rejected():
    from toriclg.fan import FanError, parse_fan_file

    for case in _cases(3):
        text = json.dumps(case.file_data())
        if case.error:
            with pytest.raises(FanError):
                parse_fan_file(text)
        else:
            fan, _ = parse_fan_file(text)
            assert fan.num_rays == len(case.rays)
            assert len(fan.all_cones) == len(fans.faces(case.cones))


def test_oracle_on_known_small_cases():
    assert projective_space(2).betti == (1, 0, 1, 0, 1)
    assert hirzebruch(2).betti == (1, 0, 2, 0, 1)
    assert p1_power_minus_cone(3).betti == (1, 0, 3, 0, 3, 0, 0)
    assert fans.surface(12).betti == (1, 0, 10, 0, 1)


def test_scramble_only_relabels():
    def fvector(case):
        return sorted(len(face) for face in fans.faces(case.cones))

    def pairings(case):
        verts = case.polyhedron["vertices"] + case.polyhedron["recession_rays"]
        return sorted(sum(a * b for a, b in zip(v, u)) for v in verts for u in case.rays)

    for case in _cases(5):
        moved = fans.scramble(case, 11)
        assert (moved.betti, moved.semiprojective, moved.error) == \
            (case.betti, case.semiprojective, case.error)
        assert fvector(moved) == fvector(case)
        if case.polyhedron:
            assert pairings(moved) == pairings(case)


def test_check_rejects_a_wrong_answer():
    job = next(j for j in workload_jobs("lg-ring", 1) if j.case.name == "P2")
    good = {"payload": {"t_max": 6, "dims": [1, 0, 1, 0, 1, 0, 0]}}
    bad = {"payload": {"t_max": 6, "dims": [1, 0, 2, 0, 1, 0, 0]}}
    assert check(job, 0, json.dumps(good), "") is None
    assert "dims" in check(job, 0, json.dumps(bad), "")
    assert "exit code" in check(job, 1, "", "internal error")
    overlap = next(j for j in workload_jobs("fan-certify", 1) if j.case.error)
    assert check(overlap, 2, "", f"error: {overlap.case.error} fails") is None
    assert check(overlap, 2, "", "error: cannot read the file") is not None


def test_primitive_collections_oracle():
    assert primitive_collections(projective_space(2)) == [[1, 2, 3]]
    assert primitive_collections(hirzebruch(2)) == [[1, 3], [2, 4]]


def _wrapped_names():
    import importlib

    out = []
    for module, attr, _ in tracer.WRAPS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        if hasattr(owner, "__wrapped__"):
            out.append(attr)
    return out


def test_untraced_jobs_install_no_wrapper():
    job = workload_jobs("cech-verify", 1)[0]
    argv = run.job_argv(job, "f.json")
    assert argv[1:] == ["-m", "toriclg.cli", "verify", "f.json", "--json"]
    assert _wrapped_names() == []
    traced = run.job_argv(job, "f.json", spans=run.WORK / "s.jsonl")
    assert traced[1].endswith("tracer.py") and traced[-3:] == ["verify", "f.json", "--json"]


def test_tracer_replaces_every_copy_and_restores_them():
    import toriclg.cech
    import toriclg.cli
    import toriclg.linalg
    import toriclg.twisted

    original = toriclg.linalg.cohomology_at
    solver_init = toriclg.linalg.LinearSolver.__init__
    restore = tracer.Tracer("job").install()
    try:
        assert len(_wrapped_names()) == len(tracer.WRAPS)
        wrapped = toriclg.linalg.cohomology_at
        assert wrapped is not original
        assert toriclg.twisted.cohomology_at is wrapped
        assert toriclg.cech.cohomology_at is wrapped
        assert toriclg.linalg.LinearSolver.__init__ is not solver_init
        assert toriclg.cli.parse_fan_file is toriclg.fan.parse_fan_file
    finally:
        restore()
    assert toriclg.twisted.cohomology_at is original
    assert toriclg.linalg.LinearSolver.__init__ is solver_init


def test_summarize_bills_self_time_and_keeps_tracer_work_out():
    header = {"import_s": 0.5, "calls": {"linalg.solve_calls": 3}}

    def span(sid, parent, name, start, end, tracer_s=0.0, counts=None):
        return {"job": 0, "id": sid, "parent": parent, "name": name, "start": start,
                "end": end, "tracer_s": tracer_s, "counts": counts}

    elim = {"rows": 4, "cols": 5, "nnz": 7, "repeat": 1}
    spans = [
        span(0, None, "cli.main", 0.0, 10.0, tracer_s=0.5),
        span(1, 0, "cech.quasi_iso", 1.0, 9.0, tracer_s=1.0),
        span(2, 1, "linalg.elim", 2.0, 5.0, counts=elim),
        span(3, 1, "linalg.elim", 5.0, 6.0, counts=dict(elim, repeat=0)),
    ]
    got = tracer.summarize(header, spans)
    assert got["cli.other_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert got["cech.quasi_iso_s"] == pytest.approx(8.0 - 1.0)
    assert got["linalg.elim_s"] == pytest.approx(4.0)
    assert got["linalg.elim_calls"] == 2
    assert got["trace.tracer_s"] == pytest.approx(1.5)
    metrics = tracer.layer_metrics([got, got])
    assert metrics["linalg.elim_repeat_ratio"] == pytest.approx(0.5)
    assert metrics["linalg.elim_max_rows"] == 4
    assert metrics["linalg.solve_calls"] == 6
    assert metrics["cli.import_s"] == pytest.approx(1.0)


def test_calibration_pins_to_one_core_and_scales_to_the_reference():
    import os

    ref = run.REFERENCE_PROBE_S
    assert run.CoreSpeed.scale(ref, ref) == pytest.approx(1.0)
    assert run.CoreSpeed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    speed = run.CoreSpeed()
    try:
        assert speed.pin_fastest() > 0
        assert os.sched_getaffinity(0) <= set(speed.cores)
    finally:
        speed.release()
    assert os.sched_getaffinity(0) == set(speed.cores)


def _run_bench(cwd, *args):
    import subprocess
    import sys

    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    key = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}

    done = _run_bench(run.ROOT, "--workload", "lg-ring", "--seed", "1",
                      "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_refuses_to_run_without_the_engine(tmp_path):
    import shutil

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "lg-ring", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
