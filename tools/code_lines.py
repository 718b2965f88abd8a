"""Count the lines of the package source, in total and as code.

Prints two lines for the given Python files, by default ``src/irsbeam/*.py``
of this checkout:

    lines <what wc -l counts>
    code <lines that are neither blank, nor a comment, nor part of a bare string statement>

A bare string statement is a docstring of a module, class or function, or any
other string standing alone as a statement, such as an attribute docstring;
a string that is part of an expression counts as code. Run it as

    python tools/code_lines.py [FILE ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "irsbeam"


def counts(text: str) -> tuple[int, int]:
    """The line count of ``text`` as ``wc -l`` gives it, and its code lines."""
    strings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    code = sum(
        1 for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in strings
    )
    return text.count("\n"), code


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    totals = [0, 0]
    for path in paths or sorted(SOURCES.glob("*.py")):
        for i, n in enumerate(counts(path.read_text())):
            totals[i] += n
    print(f"lines {totals[0]}\ncode {totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
