#!/usr/bin/env python3
"""Count the code lines of the library: the lines of each
src/freeconvex/*.py module that are not blank and whose text does not start
with '#', then their total.  Docstrings count as code; beside each count,
the lines of it that are docstrings (the first string-literal statement of
the module and of each class and function), so that prose can be told
apart from code.

Usage: python scripts/loc.py
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "freeconvex")


def counted(line):
    return bool(line.strip()) and not line.lstrip().startswith("#")


def code_lines(path):
    """(counted lines, counted lines inside docstrings) of one module."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno - 1, first.end_lineno))
    return (sum(map(counted, lines)),
            sum(counted(lines[i]) for i in doc))


def main():
    total = docs = 0
    print(f"{'lines':>6}  {'doc':>5}  module")
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        n, d = code_lines(path)
        total, docs = total + n, docs + d
        print(f"{n:6d}  {d:5d}  {os.path.basename(path)}")
    print(f"{total:6d}  {docs:5d}  total ({total - docs} outside docstrings)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
