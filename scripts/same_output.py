#!/usr/bin/env python3
"""Compare what the CLI of two source trees prints, run by run.

    python scripts/same_output.py ROOT_A ROOT_B

Runs ``validate``, ``cohomology``, ``cohomology --ring``, ``verify`` and
``degenerate`` from ROOT_A/src and ROOT_B/src on every fan in ``fans/``
and on every distinct fan of the seed-1 and seed-7 benchmark workloads,
each with ``--json`` and with human output (its ``time:`` line dropped).
The LP-bound fans that CI checks (seed-7 P^5, (P^1)^4 to (P^1)^8, the
blown-up P^5 and the 20- and 24-ray surfaces) and the two non-projective
pinwheels get ``validate`` and ``degenerate`` only: ``cohomology --ring``
on (P^1)^8 forms 2^16 products and ``verify`` refuses more than 8 cones.
The elimination-bound fans that CI verifies, P^4 and Bl_pt P^4 (8 cones,
the largest Cech complex the cover limit admits), get ``verify`` only;
P^6 and C^8 are left out, since nothing bounds ``verify`` there.
``verify`` also runs on ``fans/p2.json`` with three covers other than its
maximal cones: ``--cover 3,4,6,2`` and ``3,4,6,2,5,7`` add ray cones, so
intersections repeat, and ``3,4,6,3`` repeats a maximal cone.
The fans are those of the tree that holds this script; the workload,
LP-bound and elimination-bound fans are generated by
``perfbench/fans.py`` and ``perfbench/workloads.py``, which are only
imported.  Each fan file is
written once and both trees read the same path, since reports name it.
Prints every difference in stdout, stderr or exit code and exits 1 if
there is any, else 0.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
from fans import blowup_projective_space, p1_power, projective_space, scramble, surface  # noqa: E402
from workloads import WORKLOADS, workload_jobs  # noqa: E402

COMMANDS = (["validate"], ["cohomology"], ["cohomology", "--ring"], ["verify"], ["degenerate"])
LP_COMMANDS = (["validate"], ["degenerate"])
VERIFY_COMMANDS = (["verify"],)
# all-cones indices of fans/p2.json: 2, 5, 7 are the rays and 3, 4, 6 the maximal cones
COVER_COMMANDS = tuple(["verify", "--cover", cover] for cover in ("3,4,6,2", "3,4,6,2,5,7", "3,4,6,3"))

# smooth, complete and not projective: the cones of P^3 at -e1-e2-e3, and
# cone(e1, e2, e3) cut by w1, w2, w3 and c = (1, 1, 1) along either diagonal
PINWHEEL_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [2, 1, 1], [1, 2, 1], [1, 1, 2], [1, 1, 1]]
PINWHEEL_CORE = [[1, 2, 4], [2, 3, 4], [1, 3, 4], [5, 6, 8], [6, 7, 8], [5, 7, 8]]
PINWHEELS = {
    "pinwheel": PINWHEEL_CORE + [[1, 2, 5], [2, 6, 5], [2, 3, 6], [3, 7, 6], [3, 1, 7], [1, 5, 7]],
    "mirror": PINWHEEL_CORE + [[1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6], [3, 1, 5], [3, 5, 7]],
}


def fan_texts() -> dict[str, tuple[str, tuple]]:
    """File name -> (text, commands) of every fan to run, duplicates dropped."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted((HERE / "fans").glob("*.json"))}
    for seed in (1, 7):
        for workload in WORKLOADS:
            for job in workload_jobs(workload, seed):
                text = json.dumps(job.case.file_data())
                if text not in texts.values():
                    texts[f"seed{seed}-{job.case.name}.json"] = text
    lp = {f"lp-{case.name}.json": json.dumps(scramble(case, 7).file_data())
          for case in (projective_space(5), *map(p1_power, range(4, 9)), blowup_projective_space(5),
                       surface(20), surface(24))}
    lp |= {f"lp-{name}.json": json.dumps({"rank": 3, "rays": PINWHEEL_RAYS, "max_cones": cones})
           for name, cones in PINWHEELS.items()}
    verify = {f"verify-{case.name}.json": json.dumps(case.file_data())
              for case in (projective_space(4), blowup_projective_space(4))}
    return {**{name: (text, COMMANDS + (COVER_COMMANDS if name == "p2.json" else ())) for name, text in texts.items()},
            **{name: (text, LP_COMMANDS) for name, text in lp.items() if text not in texts.values()},
            **{name: (text, VERIFY_COMMANDS) for name, text in verify.items() if text not in texts.values()}}


def run(root: pathlib.Path, args: list[str], cwd: str) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "toriclg.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if "--json" not in args:  # the one line that differs between runs of one tree
        done.stdout = "".join(line for line in done.stdout.splitlines(keepends=True)
                              if not line.startswith("time: "))
    return done.stdout, done.stderr, done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    roots = [pathlib.Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        fans = fan_texts()
        for name, (text, _) in fans.items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        runs = [[*command, name, *mode] for name in sorted(fans)
                for command in fans[name][1] for mode in ([], ["--json"])]
        with ThreadPoolExecutor(max_workers=2) as pool:
            outputs = [pool.map(lambda args, root=root: run(root, args, tmp), runs) for root in roots]
            differences = 0
            for args, a, b in zip(runs, *outputs):
                for what, x, y in zip(("stdout", "stderr", "exit code"), a, b):
                    if x != y:
                        differences += 1
                        print(f"{' '.join(args)}: {what} differs\n--- {argv[0]}\n{x}\n--- {argv[1]}\n{y}")
    print(f"{len(runs)} runs per tree, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
