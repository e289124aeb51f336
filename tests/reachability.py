"""The functions of ``src/cutcheck`` that no argv of the behaviour corpus reaches.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/reachability.py

Runs every argv of ``tests/corpus.py``, in text and in ``--json``, in this
one process and on one import of the package, under ``sys.setprofile``; then
prints each function defined in ``src/cutcheck`` that no run called, as
``file:line name``, and their count.  A function that only a child process
reaches, such as the closed-pipe handler of the smoke table, is listed too.
Stdlib only; it takes minutes.
"""

from __future__ import annotations

import ast
import importlib
import sys
import tempfile
from pathlib import Path

import corpus

SRC = corpus.ROOT / "src" / "cutcheck"


def defined() -> dict:
    """Every function defined in ``src/cutcheck``, methods and nested ones
    too: (file, first line) -> qualified name.  The first line is that of the
    first decorator, as in the function's code object."""
    found = {}

    def visit(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, line)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def reached(cases: list) -> set:
    """The (file, first line) of every function called while ``cases`` run."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        main = importlib.import_module("cutcheck.cli").main
        for case in cases:
            corpus.run_once(case.argv, main)
            corpus.run_once(case.argv + ("--json",), main)
    finally:
        sys.setprofile(None)
    return {(Path(file).resolve(), line) for file, line in calls}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cutcheck-reach-") as tmp:
        cases = corpus.all_cases(Path(tmp))
        calls = reached(cases)
    functions = defined()
    missed = sorted(key for key in functions if key not in calls)
    for path, line in missed:
        print(f"{path.relative_to(corpus.ROOT)}:{line} {functions[path, line]}")
    print(f"{len(missed)} of {len(functions)} functions in src/cutcheck reached by none of "
          f"the {len(cases)} corpus argvs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
