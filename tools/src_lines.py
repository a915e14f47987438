"""Print the total lines and the code lines of the package's Python files.

Usage: python tools/src_lines.py [PATH ...]   (default: src)

A code line holds a token that is not a comment and is not part of a
module, class or function docstring; blank lines are not code.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> None:
    files = []
    for path in map(Path, paths or ["src"]):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    texts = [f.read_text(encoding="utf-8") for f in files]
    total = sum(len(text.splitlines()) for text in texts)
    code = sum(map(code_lines, texts))
    print(f"{len(files)} files, {total} lines, {code} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
