"""README's library layout names what each module holds, and nothing else."""

import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "chainbath").glob("*.py")
                 if p.stem != "__init__")
# the command line is no library: its row names its entry point alone
LIBRARY = [m for m in MODULES if m != "cli"]


def layout_rows() -> dict:
    """{module: contents} of the rows of README's library layout table."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {m[1]: m[2] for m in re.finditer(r"^\| `chainbath\.(\w+)` \| (.*) \|$", section, re.M)}


def code_spans(row: str, top_level: bool = False) -> list:
    """The backticked spans of a row; with `top_level`, only those outside
    parentheses (a parenthesis inside backticks opens nothing)."""
    spans, depth = [], 0
    for i, part in enumerate(row.split("`")):
        if i % 2 == 0:
            depth += part.count("(") - part.count(")")
        elif depth == 0 or not top_level:
            spans.append(part)
    return spans


def public_names(module) -> set:
    """The functions and classes a module defines and does not mark private."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


def test_every_module_has_a_row():
    assert sorted(layout_rows()) == MODULES


@pytest.mark.parametrize("module", LIBRARY)
def test_row_names_every_public_function_and_class(module):
    missing = public_names(importlib.import_module(f"chainbath.{module}"))
    missing -= set(code_spans(layout_rows()[module]))
    assert not missing, f"README's chainbath.{module} row misses {sorted(missing)}"


@pytest.mark.parametrize("module", MODULES)
def test_row_names_only_what_exists(module):
    # a name outside parentheses is an attribute of the module or a builtin
    mod = importlib.import_module(f"chainbath.{module}")
    stale = [name for name in code_spans(layout_rows()[module], top_level=True)
             if not (name.isidentifier() and (hasattr(mod, name) or hasattr(builtins, name)))]
    assert not stale, f"README's chainbath.{module} row names {stale}"


def test_code_spans_skip_parentheses():
    row = "`a` (`b`, `(c, d)` and `e`), `f` (`g`)"
    assert code_spans(row) == ["a", "b", "(c, d)", "e", "f", "g"]
    assert code_spans(row, top_level=True) == ["a", "f"]
