"""tools/code_lines.py: which lines count as code, and its report."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

PYTHON = '''"""Module docstring,
over two lines."""
import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        return "a string that is not a docstring"


async def g():
    """Async function docstring."""
'''

C = '''/* a block comment
 * over two lines */
#include <stdint.h>

// a line comment
int f(void) /* a comment after code */
{
    /* one */ return 1; // two
}
'''


def test_python_counts_no_docstring_comment_or_blank_line():
    # import, class, x = 1, def f, return, async def
    assert code_lines.python_lines(PYTHON) == 6


def test_c_counts_no_comment_or_blank_line():
    # include, int f, {, return, }
    assert code_lines.c_lines(C) == 5


def test_main_reports_each_file_and_both_totals(capsys):
    src = ROOT / "src" / "spamm"
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = sorted(p.name for p in src.glob("*.py")) + sorted(p.name for p in src.glob("*.c"))
    counts = {name: int(count) for count, name in (line.split() for line in lines[:-2])}
    assert list(counts) == files
    python = sum(counts[f] for f in files if f.endswith(".py"))
    assert lines[-2:] == [f"{python:6d}  python total", f"{counts['_kernel.c']:6d}  c total"]
    assert counts["_kernel.c"] == code_lines.c_lines((src / "_kernel.c").read_text())
