"""Code lines of the package and of the suite, counted one way.

A code line is a line that holds part of a token, other than a comment, that
is not part of a module, class or function docstring: comment-only lines,
blank lines and docstrings do not count, and each line of a statement
continued over several lines counts once.

Run as a script, ``python3 tests/code_lines.py`` prints the code lines of each
module of ``src/jtvsampling`` and of ``tests/``, largest first, and the total
of each directory. It needs the standard library alone.
"""

import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, docstrings aside."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    for name, path in (("src", root / "src" / "jtvsampling"), ("tests", root / "tests")):
        counts = {p.stem: code_lines(p.read_text()) for p in path.glob("*.py")}
        print(f"{name} {sum(counts.values()):,}")
        for module, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"  {module} {n:,}")
