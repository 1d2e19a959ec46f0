"""The package and each subcommand load only the modules they run."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import toriclg
from conftest import FAN_DIR

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the engine modules each subcommand loads, besides toriclg and toriclg.cli
SUBCOMMAND_MODULES = {
    "validate": {"fan", "linalg", "semiproj"},
    "cohomology": {"fan", "linalg", "srring", "twisted"},
    "degenerate": {"fan", "linalg", "semiproj", "srring", "twisted"},
    "verify": {"cech", "fan", "linalg", "srring", "twisted"},
}


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


def loaded(code: str) -> list[str]:
    """Names of the toriclg modules loaded after running `code` in a fresh process."""
    proc = run_python(code + "\nimport json, sys\nprint(json.dumps(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'toriclg')))")
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded("import toriclg") == ["toriclg"]


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_exactly_its_modules(command):
    fan = str(FAN_DIR / "p2.json")
    code = ("import contextlib, io\n"
            "from toriclg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{command!r}, {fan!r}, '--json']) == 0")
    want = {"toriclg", "toriclg.cli"} | {f"toriclg.{m}" for m in SUBCOMMAND_MODULES[command]}
    assert set(loaded(code)) == want


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from toriclg import *", namespace)
    for name in toriclg.__all__:
        module = sys.modules[f"toriclg.{toriclg._EXPORTS[name]}"]
        assert namespace[name] is getattr(module, name), name


def test_submodules_and_unknown_names():
    from toriclg import linalg

    assert linalg.RationalMatrix is toriclg.RationalMatrix
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toriclg.no_such_name


def test_no_module_imports_typing():
    for path in sorted((SRC / "toriclg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "typing" for n in names), path.name
