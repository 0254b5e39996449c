"""Count the code lines of each module of the pdwg package.

A code line is a source line that holds at least one token of code:
blank lines, comment lines and docstrings do not count. Docstrings are
found with ast (the leading string statement of a module, class or
function body); every line a token of code touches is counted once, so
a multi-line string or call counts all of its lines.

Run from the root of the repository:

    python tools/code_lines.py [package directory, default src/pdwg]

It prints one line per module and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers that docstrings take up."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/pdwg")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20s} {count:6d}")
    print(f"{'total':20s} {total:6d}")


if __name__ == "__main__":
    main(sys.argv)
