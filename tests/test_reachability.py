"""Every function of the engine is reached from the command line.

The commands run in process under ``sys.setprofile`` on every fan in
``fans/``, human and ``--json``, together with the flags, the help, a
usage error and the bad fans that take the other branches.  A function
that none of them calls is test-only code in the library, unless it is
listed in ``KEPT`` with its reason.
"""
import ast
import contextlib
import io
import json
import pathlib
import sys

from conftest import FAN_DIR
from toriclg import twisted
from toriclg.cli import main

# the directory the code objects name, wherever toriclg was imported from
SRC = pathlib.Path(twisted.__file__).parent

# "module.qualname" -> why it stays although no command calls it
KEPT = {
    "__init__.__getattr__": "the lazy public API of ``import toriclg``; the CLI imports modules",
    "fan.cone_intersection_extreme_rays": "perfbench/tracer.py wraps it by name (fan.condition)",
    "fan.halfspace_representation": "cone_intersection_extreme_rays calls it",
    "fan._extend_to_basis": "cone_intersection_extreme_rays calls it",
    "fan.extreme_rays": "cone_intersection_extreme_rays calls it",
    "linalg.RationalMatrix.transpose": "cone_intersection_extreme_rays calls it",
    "linalg.lift": "perfbench/tracer.py wraps it by name (linalg.elim)",
    "linalg.image_pivot_columns": "perfbench/tracer.py wraps it by name (linalg.elim)",
    "cli.__getattr__": "perfbench's tracer test reads cli.parse_fan_file through it",
    "cech.cup": "the manifold's ring; ROADMAP item 5",
    "cech._face_values": "the Cech cup product (cech.cup)",
    "cech.CoverSimplex._total_layout": "the Čech cup's layout (cech.cup)",
    "linalg.add_vectors": "reference algebra of the tests",
    "linalg.scale_vector": "reference algebra of the tests",
    "linalg.RationalMatrix.__add__": "reference algebra of the tests",
    "linalg.RationalMatrix.__sub__": "reference algebra of the tests",
    "srring.SRPolynomial.__add__": "reference algebra of the tests",
    "srring.SRPolynomial.__sub__": "reference algebra of the tests",
    "srring.SRPolynomial.__mul__": "reference algebra of the tests",
    "srring.SRPolynomial.scale": "reference algebra of the tests",
    "srring.SRPolynomial._check": "reference algebra of the tests",
    "srring.multiply": "reference algebra of the tests",
    "fan.Fan.__eq__": "equality of values, kept with the class",
    "semiproj.PLCertificate.__eq__": "equality of values, kept with the class",
    "linalg.RationalMatrix.__repr__": "debugging aid",
}

OVERLAPPING = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[1, 2], [2, 3]]}
NON_SMOOTH = {"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[1, 2]]}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file name, first line of the code object) -> "module.qualname" of every def."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), line)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return out


def invocations(tmp_path) -> list[list[str]]:
    runs = []
    for path in sorted(FAN_DIR.glob("*.json")):
        for command in (["validate"], ["cohomology"], ["cohomology", "--ring"], ["verify"],
                        ["degenerate"]):
            runs += [[*command, str(path)], [*command, str(path), "--json"]]
    p2 = str(FAN_DIR / "p2.json")
    runs += [["cohomology", p2, "--ring", "--tmax", "3"], ["verify", p2, "--cover", "5,6,7,2"],
             ["degenerate", p2, "--sigma-m", "2,3"], ["--help"], ["cohomology", "--tmax", "-1"]]
    for name, data in (("overlapping", OVERLAPPING), ("non_smooth", NON_SMOOTH)):
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        runs.append(["validate", str(bad)])
    return runs


def test_every_engine_function_is_reached_or_kept(tmp_path):
    defined = defined_functions()
    reached = set()
    twisted.ext_subsets.cache_clear()  # earlier tests may have filled it

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for argv in invocations(tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                main(argv)
            except SystemExit:
                pass
            finally:
                sys.setprofile(None)
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached - set(KEPT) == set()
    # a kept name that a command reaches, or that no longer exists, leaves the list
    assert set(KEPT) <= unreached
