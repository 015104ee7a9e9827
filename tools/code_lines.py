"""Print the code lines of each module of ``src/kvtower`` and their total.

A code line is a non-blank line that holds a token outside comments and
docstrings; a token that spans several lines counts each of them.  The
docstrings are found by an ``ast`` walk (the leading string of a module,
class or function), the tokens by ``tokenize``.  Standard library only::

    python tools/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kvtower"


def docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:<12} {n:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main()
