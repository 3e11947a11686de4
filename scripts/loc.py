#!/usr/bin/env python3
"""Count the code lines of the library: the lines of each
src/freeconvex/*.py module that are not blank and whose text does not start
with '#', then their total.  Docstrings count as code.

Usage: python scripts/loc.py
"""

import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "freeconvex")


def code_lines(path):
    with open(path) as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.lstrip().startswith("#"))


def main():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
