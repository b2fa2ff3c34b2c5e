"""Count the code lines of src/spamm, per file and in total.

A Python line counts when it holds a token that is neither a comment nor
part of a docstring (the leading string of a module, class or function);
blank lines do not count.  A C line counts when anything but whitespace is
left once its comments are taken out.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to src/spamm beside this tools directory.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def python_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def c_lines(text: str) -> int:
    # replace each comment by the newlines it spans, so line numbers stay
    text = re.sub(r"/\*.*?\*/|//[^\n]*",
                  lambda m: "\n" * m.group().count("\n"), text, flags=re.S)
    return sum(1 for line in text.splitlines() if line.strip())


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "spamm"
    totals = {"python": 0, "c": 0}
    for path in sorted(src.glob("*.py")) + sorted(src.glob("*.c")):
        lang = "python" if path.suffix == ".py" else "c"
        count = (python_lines if lang == "python" else c_lines)(path.read_text())
        totals[lang] += count
        print(f"{count:6d}  {path.name}")
    print(f"{totals['python']:6d}  python total")
    print(f"{totals['c']:6d}  c total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
