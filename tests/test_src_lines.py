import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,

two paragraphs."""
import os  # a trailing comment: code

# a comment line


def f(x):
    """One line."""
    text = """a string

with a blank line"""
    return x  # code


class C:
    """Class docstring."""
    # comment inside

    def g(self):
        "not triple-quoted, still the docstring"
        "a second string: code"
'''


def test_each_line_gets_one_kind():
    assert src_lines.line_kinds(SOURCE) == [
        "docstring", "docstring", "docstring", "code", "blank", "comment", "blank", "blank",
        "code", "docstring", "code", "code", "code", "code", "blank", "blank",
        "code", "docstring", "comment", "blank", "code", "docstring", "code",
    ]


def test_counts_add_up_to_each_module_of_the_package():
    modules = sorted(src_lines.PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        counts = src_lines.count(path)
        assert sum(counts.values()) == path.read_text().count("\n")
        assert min(counts.values()) >= 0 and counts["code"] > 0
