"""scripts/code_lines.py counts the lines that hold code: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import numpy as np  # a comment after code


# a comment line
def f(x):
    """One-line docstring."""
    s = """a string that is
    not a docstring"""
    return np.sum(
        x)
'''


def test_counts_code_lines_and_prints_each_file_and_the_total(tmp_path, capsys):
    # the import, def, the two lines of s, and the two of the return
    assert code_lines.code_lines(SOURCE) == 6
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     6  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "     7  total"]
