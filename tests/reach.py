"""Print each function under src/plaus whose body no command runs.

Runs the report digest matrix (``report_digests.run_matrix``), ``plaus
selfcheck --seed 0`` and every demo under the stdlib ``trace`` module, and
prints, one a line as ``module.qualname``, each function or method none of
whose own statements ran. Code that only tests reach shows up here: delete
it, or keep it and name its reader. Entries of the matrix that run in a
worker pool are not traced in the workers; their code also runs in-process.

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

It prints only, and exits 0. The name keeps pytest from collecting this
script.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import trace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "plaus"


def _functions(tree: ast.Module):
    """(qualname, lines of the function's own statements), for every
    function and method; a nested definition's body is its own."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, set(_own_lines(child))
                yield from walk(child, f"{name}.")

    yield from walk(tree, "")


def _own_lines(function):
    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring runs no line
    for statement in body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield statement.lineno
        else:
            yield from range(statement.lineno, statement.end_lineno + 1)


def _run_everything() -> None:
    sys.path[:0] = [str(HERE)]
    import report_digests

    import plaus.cli

    report_digests.run_matrix()
    plaus.cli.main(["selfcheck", "--seed", "0"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracer.runfunc(_run_everything)
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, lines in _functions(tree):
            if lines and not any((path.resolve(), line) in ran for line in lines):
                print(f"{path.stem}.{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
