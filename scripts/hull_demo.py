#!/usr/bin/env python3
"""Matrix convex hull of a union, end to end: dualize the monicized TV drop
and the free square of radius 1/2, intersect, dualize back, and probe the
hull membership oracle on a small grid of plane points.

Exits 1 unless every grid point in the TV screen or the square (by
drop_membership on the inputs) reads inside the hull and every point with
max(|x1|, |x2|) > 1 reads outside it (both inputs lie in [-1, 1]^2).

Usage: python scripts/hull_demo.py
"""

import sys
import time

import numpy as np

from freeconvex.algebra import HermitianTuple, pencil_from_tuple
from freeconvex.corpus import scalar_tuple, tv_monic_lift
from freeconvex.spectra import Spectrahedrop, drop_membership, hull_of_union


def demo_hull():
    """(TV drop, square, their hull): the monicized TV drop, the free square
    of radius 1/2 and the hull of their union."""
    tv = Spectrahedrop(tv_monic_lift())
    square = Spectrahedrop(pencil_from_tuple(HermitianTuple(
        [np.diag([2.0, -2.0, 0.0, 0.0]), np.diag([0.0, 0.0, 2.0, -2.0])])))
    return tv, square, hull_of_union([tv, square])


def main():
    t0 = time.time()
    tv, square, hull = demo_hull()
    print(f"hull lift: size {hull.lift.d}, {hull.g} x vars, "
          f"{hull.h} auxiliary vars ({time.time() - t0:.1f} s)")
    print()
    grid = np.linspace(-1.2, 1.2, 9)
    print("   x2: " + "".join(f"{v:+.1f} " for v in grid))
    wrong = []
    for a in grid:
        row = []
        for b in grid:
            x = scalar_tuple(a, b)
            inside = bool(drop_membership(hull, x))
            row.append("#" if inside else ".")
            if inside and max(abs(a), abs(b)) > 1.0 or not inside and (
                    bool(drop_membership(tv, x))
                    or bool(drop_membership(square, x))):
                wrong.append((a, b))
        print(f"x1 {a:+.1f}  " + "    ".join(row))
    print()
    print("('#' = inside the hull of TV-screen and square)")
    for a, b in wrong:
        print(f"wrong hull answer at ({a:+.1f}, {b:+.1f})", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
