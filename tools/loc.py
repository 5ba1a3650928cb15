"""Count the lines of a Python tree: total lines, and code-only lines (no
blank, comment or docstring lines). Usage, from the repo root:
    python tools/loc.py [dir ...]        # default: etl_ray
Prints one line per directory: ``<dir> files=<n> total=<n> code=<n>``.
"""

import ast
import io
import os
import sys
import tokenize

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(src: str) -> tuple:
    """(total lines, code-only lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(src.splitlines()), len(code - _docstring_lines(ast.parse(src)))


def count_tree(root: str) -> tuple:
    """(files, total lines, code-only lines) over every ``*.py`` under
    ``root``."""
    files = total = code = 0
    for d, _, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    t, c = count_source(fh.read())
                files, total, code = files + 1, total + t, code + c
    return files, total, code


def main(argv) -> None:
    for root in argv or ["etl_ray"]:
        files, total, code = count_tree(root)
        print(f"{root} files={files} total={total} code={code}")


if __name__ == "__main__":
    main(sys.argv[1:])
