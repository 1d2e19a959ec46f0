"""The Python example under README "## Library" runs as written.

It runs from the repository root, where its fan paths point, and each
value that a comment gives as a Python literal (``expr  # literal`` or
``expr  # literal: remark``) must be the value of the expression.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def library_example() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def documented_value(comment: str):
    """(True, the literal that the comment starts with), the whole comment
    or its text up to some colon; (False, None) when there is none."""
    for cut in [len(comment)] + [i for i, ch in enumerate(comment) if ch == ":"]:
        try:
            return True, ast.literal_eval(comment[:cut].strip())
        except (ValueError, SyntaxError):
            pass
    return False, None


def test_library_example_runs_and_gives_its_values(monkeypatch):
    code = library_example()
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("  # ")
        found, want = documented_value(comment) if comment else (False, None)
        if found and "=" not in expr.split("(")[0]:
            assert eval(expr.strip(), namespace) == want, expr.strip()
            checked += 1
    assert checked >= 5
