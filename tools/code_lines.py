"""Print the code lines of each module of ``src/kvtower`` and their total,
then the characters and lines of all its docstrings.

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


def docstrings(tree):
    """The docstring nodes in ``tree``: the leading string of its module,
    classes and functions."""
    return [node.body[0] for node in ast.walk(tree)
            if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None]


def code_lines(source, docs):
    """The number of code lines in the Python ``source`` text, whose
    docstring nodes are ``docs``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for doc in docs:
        lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main():
    total = chars = lines = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        docs = docstrings(ast.parse(source))
        n = code_lines(source, docs)
        total += n
        chars += sum(len(doc.value.value) for doc in docs)
        lines += sum(doc.end_lineno - doc.lineno + 1 for doc in docs)
        print(f"{path.stem:<12} {n:>5}")
    print(f"{'total':<12} {total:>5}")
    print(f"docstrings: {chars} characters, {lines} lines")


if __name__ == "__main__":
    main()
