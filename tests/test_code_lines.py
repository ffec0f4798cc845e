"""scripts/code_lines.py on a small synthetic module of known count."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment does not hide its line

# a comment line


def f(x):
    """One docstring line."""
    y = (x +
         1)
    s = """a string that is
    not a docstring"""
    return y, s


class C:
    """A class docstring.

    More of it.
    """

    z = 1
'''


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    # import; def; the two lines of y; the two lines of s; return; class; z.
    cl = _script()
    assert cl.code_lines(MODULE) == 9
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    assert cl.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     0  {tmp_path / 'empty.py'}",
        f"     9  {path}",
        "     9  total",
    ]
