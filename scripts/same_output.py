#!/usr/bin/env python3
"""Compare what the CLI of two source trees prints, run by run.

    python scripts/same_output.py ROOT_A ROOT_B

Runs ``validate``, ``cohomology``, ``cohomology --ring``, ``verify`` and
``degenerate`` from ROOT_A/src and ROOT_B/src on every fan in ``fans/``
and on every distinct fan of the seed-1 and seed-7 benchmark workloads,
each with ``--json`` and with human output (its ``time:`` line dropped).
The fans are those of the tree that holds this script; the workload fans
are generated by ``perfbench/fans.py`` and ``perfbench/workloads.py``,
which are only imported.  Each fan file is written once and both trees
read the same path, since reports name it.  Prints every difference in
stdout, stderr or exit code and exits 1 if there is any, else 0.
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
from workloads import WORKLOADS, workload_jobs  # noqa: E402

COMMANDS = (["validate"], ["cohomology"], ["cohomology", "--ring"], ["verify"], ["degenerate"])


def fan_texts() -> dict[str, str]:
    """File name -> text of every fan to run, duplicates dropped."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted((HERE / "fans").glob("*.json"))}
    for seed in (1, 7):
        for workload in WORKLOADS:
            for job in workload_jobs(workload, seed):
                text = json.dumps(job.case.file_data())
                if text not in texts.values():
                    texts[f"seed{seed}-{job.case.name}.json"] = text
    return texts


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
        for name, text in fan_texts().items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        runs = [[*command, name, *mode] for name in sorted(os.listdir(tmp))
                for command in COMMANDS for mode in ([], ["--json"])]
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
