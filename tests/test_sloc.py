import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
two lines."""

# a comment-only line
import os  # a trailing comment


def f():
    """One-line docstring."""
        # an indented comment
    return "# not a comment"
s = """
# inside a string, so code
"""
'''


def test_code_lines_count_docstrings_and_strings_not_comments(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # counted: the two docstring lines, import, def, the docstring, return and
    # the three lines of s; not the blank lines or the two comment-only lines
    assert sloc.code_lines(path) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = "#"\n')
    assert sloc.main([str(tmp_path)]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out == [["a.py", "1"], ["b.py", "2"], ["total", "3"]]
