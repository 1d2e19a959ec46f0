"""The package and each subcommand load only the modules they run.

Engine modules import neither ``typing`` nor ``dataclasses``: importing
``dataclasses`` pulls in ``inspect`` (with ``ast``, ``dis`` and
``tokenize``), and every decorated class compiles its generated methods,
a cost each short-lived CLI job would pay at start-up.
"""
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


def loaded(code: str) -> set[str]:
    """Modules a fresh process loads while running `code`.

    Modules already loaded before it (by ``site``, say) are left out.
    """
    proc = run_python("import json, sys\nbefore = set(sys.modules)\n" + code +
                      "\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    return set(json.loads(proc.stdout.splitlines()[-1]))


def engine(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "toriclg"}


def run_main(command: str) -> str:
    """Code that runs one subcommand on P^2 in process, its output discarded."""
    fan = str(FAN_DIR / "p2.json")
    return ("import contextlib, io\n"
            "from toriclg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{command!r}, {fan!r}, '--json']) == 0")


def test_import_loads_no_submodule():
    assert engine(loaded("import toriclg")) == {"toriclg"}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_exactly_its_modules(command):
    want = {"toriclg", "toriclg.cli"} | {f"toriclg.{m}" for m in SUBCOMMAND_MODULES[command]}
    assert engine(loaded(run_main(command))) == want


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_no_dataclasses_or_inspect(command):
    assert not {"dataclasses", "inspect"} & loaded(run_main(command))


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_no_argparse_gettext_or_locale(command):
    assert not {"argparse", "gettext", "locale"} & loaded(run_main(command))


def test_help_loads_no_argparse_gettext_or_locale():
    code = ("import contextlib, io\n"
            "from toriclg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['--help'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0")
    assert not {"argparse", "gettext", "locale"} & loaded(code)


def test_test_only_code_is_not_exported():
    # it lives in tests/cech_helpers.py and tests/helpers.py; that every
    # exported name resolves is the star-import test below
    moved = {"glue_sections", "split_cocycle", "split_cocycle_generic", "hilbert_series"}
    assert not moved & set(toriclg._EXPORTS)


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
    """Nor dataclasses: see the module docstring."""
    for path in sorted((SRC / "toriclg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] in ("typing", "dataclasses") for n in names), path.name
