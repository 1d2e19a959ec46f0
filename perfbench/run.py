#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the toriclg command line.

Command (from the root of a checkout; the engine runs from ``src/``):

    python3 perfbench/run.py --workload lg-ring --seed 1 --seconds 40 --trace 0

The benchmark generates its fans from ``--seed`` (``fans.py``), writes
them as JSON files under ``.perfbench/run-<pid>/`` (removed when the run
ends), and runs one workload through the real CLI: one fresh
``python -m toriclg.cli <command> <file> --json`` process per job, jobs
strictly one after another (a closed loop with one client).  A pass runs
every job of the workload once; passes repeat until ``--seconds`` is
used up.  Every answer is checked against an oracle that does not use
the engine (``workloads.check``), and the SHA-256 of each job's
``--json`` output must be the same in every pass.  A wrong exit code, a
wrong answer, a changed digest or a timeout is a failed job.

Workloads, and why each exists:

* ``lg-ring``: ``cohomology`` on P^2, H_2, Bl_pt P^2, a 12-ray surface,
  P^3, Bl_pt P^3, C x P^2 and (P^1)^3 minus a cone; ``cohomology --ring``
  on H_2, the 12-ray surface, P^3, C x P^2 and (P^1)^3 minus a cone.  The
  twisted complex with large sparse eliminations and ring products
  dominates; Cech and Fourier-Motzkin never run, so a change to either
  should leave this workload unchanged.
* ``cech-verify``: ``verify`` on P^2, H_2, (P^1)^2, Bl_pt P^2, C x P^1,
  C x P^2, P^3 and a 7-ray surface.  The only workload that runs the
  Cech layer, in its two shapes: the rank-3 fans have few cones and the
  forms double complex dominates; the 7-ray surface has a cover of 7
  cones, 2^7 - 1 simplices, and the constant complex dominates.
* ``fan-certify``: ``validate`` on Bl_pt P^4, C x P^3, an 18-ray surface,
  (P^1)^3 minus a cone, overlapping cones (must exit 2), a non-smooth
  cone (must exit 2), and P^2 with the polyhedron of ROADMAP item 5(a);
  ``degenerate`` on Bl_pt P^3, the 18-ray surface, (P^1)^3 and
  C^2 x P^2.  It stresses the fan-condition enumeration, primitive
  collections and Fourier-Motzkin, and drives ``linalg`` through many
  tiny eliminations instead of a few large ones.  The ROADMAP 5(a) job
  is a known defect: the engine answers "not semi-projective", so it
  counts as failed until the engine is fixed.  It does not make
  ``correct`` false; any other failure does.

Larger fans are left out: P^4 and C x P^3 for ``cohomology``, (P^1)^3
and Bl_pt P^3 for ``--ring``, Bl_pt P^3 and (P^1)^3 minus a cone for
``verify``, P^5, (P^1)^4 and 20-ray surfaces for ``validate``.  Each
takes 4-14 s, and a pass of 6-8 s lets a 40 s run hold several passes.

End-to-end metrics (``--trace 0``), each the median over the run's passes:

* ``cal_wall_s`` (s): wall time of one pass at the reference speed (see
  "Calibration" below): each CLI process from its start to its exit,
  calibrated, summed over the pass's jobs (the checks are not timed).
* ``cal_cpu_s`` (s): user + system time of the pass's CLI processes, from
  each child's rusage, calibrated the same way.  It separates doing less
  work from overlapping it.
* ``peak_rss_mb`` (MB): the largest peak RSS of one CLI process in a pass.
* ``setup_s`` (s): generate the fans, compute their expected answers and
  start the CLI once untimed, calibrated; repeated seven times, median.

It also prints, per workload: the raw ``wall_s`` and ``cpu_s`` (the same
sums before calibration), the calibrated summed wall time of each
command's jobs (``validate_s``, ``cohomology_s``, ``ring_s`` for ``cohomology
--ring``, ``verify_s``, ``degenerate_s``, only for commands the workload
runs) and ``failed_frac``, the failed jobs over the jobs attempted.
They are not in the final JSON line because every metric there must be
present and nonzero on every workload; with ``--trace 1`` they appear as
``job.<command>_s`` among the per-layer metrics.

Per-layer metrics (``--trace 1``): each round runs one untraced pass and
one traced pass.  A traced job runs ``tracer.py``, which wraps the
public functions of ``cli``, ``fan``, ``srring``, ``twisted``, ``cech``,
``linalg`` and ``semiproj`` from outside and calls ``toriclg.cli.main``
in a fresh process.  ``tracer.LAYER_METRICS`` lists every metric with
its unit, how it is computed and the end-to-end metric it should move.
The spans of the last traced pass are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl`` (format in
``tracer.py``).  ``trace.overhead_ratio`` is the traced pass wall time
over the untraced one (both as in ``cal_wall_s``) minus 1, and
``trace.tracer_s`` the part of it the tracer measured in its own
bookkeeping.  End-to-end metrics never come from a traced pass.  Layers
a workload does not run read 0.

Why per-pass sums and medians: no single job repeats within a tenth on a
shared two-core machine.  Six back-to-back ``verify`` runs on Bl_pt P^3
used 4.6-7.7 s of CPU, pinning PYTHONHASHSEED did not narrow that, and
on a shared two-core VM (Python 3.11.7) one ``degenerate`` job took
0.42 s or 0.72 s of CPU a minute apart.  A pass sums
many jobs, and the median over passes drops the outliers.

Calibration: what per-pass medians cannot remove is the machine's own
speed.  On a shared host each core runs a fixed pure-Python loop of
300 000 turns in about 20 ms for a while, then in 27-33 ms for seconds
to minutes while a neighbour loads it, and a CLI job slows by the same
factor in both wall and CPU time.  Raw pass sums of one run swung between 4.5 s and 6.3 s,
and whole 40 s runs stayed slow: over ten seeds on another host the raw
``wall_s`` of ``lg-ring`` spread (q3 - q1) / median 0.19-0.32.  So
before each job the benchmark times ``PROBE_LOOPS`` turns of that loop
on every core it may use, pins itself to the fastest (the child inherits
the pin), and times the loop again on that core after the job.  The
job's wall and CPU time are multiplied by ``REFERENCE_PROBE_S`` over the
mean of the two probes.  The probe does not touch the engine, so a
change to the engine moves the calibrated times as it moves the raw
ones.  With it, ten seeds per workload spread 0.03-0.06 for
``cal_wall_s`` and ``cal_cpu_s`` where the raw sums spread 0.09-0.11 in
the same runs (``baseline.json``).

The child environment drops ``TORICLG_WORKERS``, which would start an
unclamped process pool.  Every result records the Python version, the
processor count and the load average.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import COMMANDS, KNOWN_DEFECT_5A, WORKLOADS, Job, check, workload_jobs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # the whole run must end within 180 s
PROBE_LOOPS = 100_000
# Time of one probe on an idle core (Python 3.11.7, shared two-core VM,
# the fastest of 120 probes read 6.75 ms), so that calibrated times read
# close to raw ones when the machine runs at full speed.
REFERENCE_PROBE_S = 0.007

END_TO_END = (("cal_wall_s", "s"), ("cal_cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
JOB_METRICS = tuple(f"job.{c}_s" for c in COMMANDS)
TRACE_METRICS = (("trace.tracer_s", "s"), ("trace.overhead_ratio", "ratio"))


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
    units.update({name: "s" for name in JOB_METRICS})
    units.update(dict(TRACE_METRICS))
    return units


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TORICLG_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"loadavg {load}")


def probe() -> float:
    """Wall time of a fixed pure-Python loop on the core this process runs on."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class CoreSpeed:
    """Pin the benchmark, and so the next child it starts, to its fastest core.

    On a shared host each core slows by up to half for seconds at a time
    while a neighbour loads it.  ``pin_fastest`` probes every core the
    process may use and pins to the fastest; ``scale`` turns the probes
    before and after a job into the factor that brings its times to the
    reference speed.  Where affinity cannot be set, nothing is pinned and
    the probes still calibrate.
    """

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0))
        for _ in range(5):  # let the interpreter specialise the loop
            probe()

    def _pin(self, cores) -> None:
        try:
            os.sched_setaffinity(0, cores)
        except OSError:
            pass

    def pin_fastest(self) -> float:
        best = None
        for core in self.cores:
            self._pin({core})
            t = probe()
            if best is None or t < best[0]:
                best = (t, core)
        self._pin({best[1]})
        return best[0]

    def release(self) -> None:
        self._pin(set(self.cores))

    @staticmethod
    def scale(before: float, after: float) -> float:
        return REFERENCE_PROBE_S / ((before + after) / 2)


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float
    rss_kb: int
    stdout: str
    stderr: str
    timed_out: bool


def run_child(argv: list[str], timeout: float, scratch: Path) -> Outcome:
    """Run one process to completion and read its own rusage."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], timeout)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"),
                   not exited)


def job_argv(job: Job, path: str, spans: Path | None = None) -> list[str]:
    """The command line of one job; with ``spans`` it runs under the tracer."""
    if spans is None:
        return [sys.executable, "-m", "toriclg.cli", *job.cli_args(path)]
    return [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans),
            job.label, "--", *job.cli_args(path)]


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    cal_wall: float = 0.0
    cal_cpu: float = 0.0
    rss_kb: int = 0
    command_s: dict[str, float] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)


@dataclass
class Run:
    jobs: list[Job]
    paths: list[str]
    scratch: Path
    t_start: float
    speed: CoreSpeed
    attempted: int = 0
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)

    def timeout(self) -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - self.t_start)
        return max(1.0, min(JOB_TIMEOUT_S, left))

    def run_pass(self, number: int, traced: bool) -> PassResult:
        result = PassResult()
        for i, (job, path) in enumerate(zip(self.jobs, self.paths)):
            spans = self.scratch / f"spans-{i:02d}.jsonl" if traced else None
            before = self.speed.pin_fastest()
            out = run_child(job_argv(job, path, spans), self.timeout(), self.scratch)
            scale = self.speed.scale(before, probe())
            self.attempted += 1
            result.wall += out.wall
            result.cpu += out.cpu
            result.cal_wall += out.wall * scale
            result.cal_cpu += out.cpu * scale
            result.rss_kb = max(result.rss_kb, out.rss_kb)
            key = job.command + "_s"
            result.command_s[key] = result.command_s.get(key, 0.0) + out.wall * scale
            problem = "timed out" if out.timed_out else check(job, out.code, out.stdout, out.stderr)
            if problem is None:
                digest = hashlib.sha256(out.stdout.encode()).hexdigest()
                if self.digests.setdefault(i, digest) != digest:
                    problem = "--json output differs from the first pass"
            if problem is not None:
                detail = out.stderr.strip().splitlines()[-1:] if out.stderr.strip() else []
                self.failures.append((number, job.label, "; ".join([problem] + detail)))
            elif traced:
                result.layers.append(tracer.summarize(*tracer.read_spans(spans)))
        return result


def setup(workload: str, seed: int, scratch: Path) -> tuple[list[Job], list[str]]:
    """Generate the fans and their answers, write the files, start the CLI once."""
    jobs = workload_jobs(workload, seed)
    fan_dir = scratch / "fans"
    fan_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = fan_dir / f"{i:02d}-{job.case.name}.json"
        path.write_text(json.dumps(job.case.file_data()), encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    start = run_child([sys.executable, "-m", "toriclg.cli", "--help"], JOB_TIMEOUT_S, scratch)
    if start.code != 0:
        raise SystemExit(f"perfbench: the CLI does not start: {start.stderr.strip()}")
    return jobs, paths


def median(values) -> float:
    return float(statistics.median(values))


def measure(args) -> dict:
    if not (ROOT / "src" / "toriclg" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no engine source at {ROOT / 'src' / 'toriclg'}")
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure_in(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_in(args, scratch: Path) -> dict:
    t_start = time.perf_counter()
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"environment at start: {environment()}")

    speed = CoreSpeed()
    try:
        return measure_pinned(args, scratch, t_start, speed)
    finally:
        speed.release()


def measure_pinned(args, scratch: Path, t_start: float, speed: CoreSpeed) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = speed.pin_fastest()
        t = time.perf_counter()
        jobs, paths = setup(args.workload, args.seed, scratch)
        setup_times.append((time.perf_counter() - t) * speed.scale(before, probe()))
    run = Run(jobs, paths, scratch, t_start, speed)

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    measure_start = time.perf_counter()
    rounds = []
    while True:
        t = time.perf_counter()
        plain.append(run.run_pass(len(plain) + 1, traced=False))
        if args.trace:
            traced.append(run.run_pass(len(traced) + 1, traced=True))
        rounds.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - measure_start
        if elapsed + max(rounds) > args.seconds:
            break

    commands = sorted({job.command for job in jobs}, key=COMMANDS.index)
    print(f"passes: {len(plain)} untraced" + (f", {len(traced)} traced" if args.trace else "")
          + f"; {len(jobs)} jobs per pass, closed loop, one job at a time")
    walls = [p.cal_wall for p in plain]
    print("pass wall times: " + " ".join(f"{p.wall:.3f}" for p in plain))
    print("calibrated:      " + " ".join(f"{w:.3f}" for w in walls))
    report = {
        "cal_wall_s": median(walls),
        "cal_cpu_s": median(p.cal_cpu for p in plain),
        "wall_s": median(p.wall for p in plain),
        "cpu_s": median(p.cpu for p in plain),
        "peak_rss_mb": median(p.rss_kb / 1024 for p in plain),
        "setup_s": median(setup_times),
    }
    for c in commands:
        report[f"{c}_s"] = median(p.command_s[f"{c}_s"] for p in plain)
    failed = len(run.failures)
    report["failed_frac"] = failed / run.attempted
    units = dict(END_TO_END, wall_s="s", cpu_s="s", failed_frac="fraction")
    for name, value in report.items():
        print(f"  {name:<14} {value:.6g} {units.get(name, 's')}")
    print(f"  ({failed} of {run.attempted} jobs failed)")
    known = f"validate:{KNOWN_DEFECT_5A}"
    unexpected = [f for f in run.failures if f[1] != known]
    for number, label, problem in run.failures:
        note = " [known defect, ROADMAP 5(a)]" if label == known else ""
        print(f"  FAILED pass {number} {label}: {problem}{note}")

    if args.trace:
        layer = {}
        per_pass = [tracer.layer_metrics(p.layers) for p in traced]
        for name in per_layer_units():
            if name.startswith("job."):
                key = name[len("job."):]
                layer[name] = median(p.command_s.get(key, 0.0) for p in plain)
            elif name == "trace.overhead_ratio":
                layer[name] = median(p.cal_wall for p in traced) / median(walls) - 1
            else:
                layer[name] = median(m[name] for m in per_pass)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        write_trace(args, scratch)
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    print(f"environment at end: {environment()}")
    return {"correct": not unexpected, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def write_trace(args, scratch: Path) -> None:
    """Concatenate the last traced pass's span files into one run trace."""
    target = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(target, "w", encoding="utf-8") as out:
        out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "environment": environment()}) + "\n")
        for spans in sorted(scratch.glob("spans-*.jsonl")):
            out.write(spans.read_text(encoding="utf-8"))
    print(f"trace written to {target.relative_to(ROOT)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__.split("\n\n", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; passes that would overrun are not started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
