"""Fail when a statement of `src/chainbath` never runs under the test suite.

    PYTHONPATH=src python tests/src_coverage.py

Runs `pytest -q tests` in this process with a `sys.settrace` line tracer on
the package's code, then lists every statement of `src/chainbath` that no
test executed.  Exits 1 if there is one, other than the statements in
`SUBPROCESS_ONLY`, which run only in a command started as its own process;
exits with pytest's code if a test fails.  A statement counts as executable
when the compiler gave it code, and as run when the tracer saw a line of it.
It needs pytest and the standard library alone; pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chainbath"
# (file, source of the statement): the thread default set on a fresh import
# of the CLI, before numpy loads, and the entry point of `python -m`
SUBPROCESS_ONLY = {
    ("cli.py", 'os.environ["OPENBLAS_NUM_THREADS"] = "1"'),
    ("cli.py", "sys.exit(main())"),
}


def _code_lines(code) -> set[int]:
    """The lines that `code` and the code objects nested in it have code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path):
    """Each statement of the file with its first line, and a map from every
    line to the innermost statement that spans it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    stmts = []
    # outer statements first, so that an inner one overwrites their lines
    for node in sorted((n for n in ast.walk(tree) if isinstance(n, ast.stmt)),
                       key=lambda n: (n.lineno, -n.end_lineno)):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        stmts.append((first, node))
        for line in range(first, node.end_lineno + 1):
            owner[line] = first
    return stmts, owner


def _trace(seen):
    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    return global_


def main() -> int:
    seen = defaultdict(set)
    tracer = _trace(seen)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        stmts, owner = _statements(path)
        executable = {owner[line] for line in _code_lines(compile(source, str(path), "exec"))
                      if line in owner}
        ran = {owner[line] for line in seen[str(path)] if line in owner}
        for first, node in stmts:
            text = ast.get_source_segment(source, node).splitlines()[0]
            if (first in executable and first not in ran
                    and (path.name, text) not in SUBPROCESS_ONLY):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {text.strip()}")
    for line in missed:
        print(f"never executed: {line}")
    print(f"src_coverage: {len(missed)} statement(s) of src/chainbath never executed")
    return int(code) or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
