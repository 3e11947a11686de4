#!/usr/bin/env python3
"""Bent TV screen experiment: decide membership on a 41x41 grid of the plane
and polar-dual membership on a 41x41 grid, and compare both against their
closed-form references (the sign of 1 - x1^2 - x2^4, and the sign of the
dual boundary octic).  Writes one CSV per grid with the decided statuses,
prints each grid's decisions per second and mean interior-point iterations
per decision (``info["iterations_total"]``), and exits 1 on any mismatch.

Usage: python scripts/tv_grids.py [--out DIR] [--n 41]
"""

import argparse
import csv
import os
import time

import numpy as np

from freeconvex.corpus import (DUAL_GRID, MEMBER_GRID, dual_curve_distance,
                               scalar_tuple, screen_curve_distance,
                               tv_dual_boundary, tv_lift, tv_monic_lift,
                               tv_screen_value)
from freeconvex.spectra import (Spectrahedrop, drop_membership,
                                drop_polar_membership)


def run_grid(name, spec, n, decide, reference, distance, writer):
    pts = np.linspace(spec["lo"], spec["hi"], n)
    agree = mismatch = excluded = iterations = 0
    t0 = time.perf_counter()
    for a in pts:
        for b in pts:
            ref = reference(a, b)
            if distance(a, b) <= spec["band"]:
                writer.writerow([f"{a:.17g}", f"{b:.17g}", "excluded",
                                 f"{ref:.17g}"])
                excluded += 1
                continue
            res = decide(a, b)
            iterations += res.info.get("iterations_total", 0)
            status = "member" if bool(res) else "nonmember"
            writer.writerow([f"{a:.17g}", f"{b:.17g}", status, f"{ref:.17g}"])
            if bool(res) == (ref > 0):
                agree += 1
            else:
                mismatch += 1
                print(f"  MISMATCH at ({a:.3f}, {b:.3f}): ref {ref:.3e}, "
                      f"decided {status}")
    dt = time.perf_counter() - t0
    decided = agree + mismatch
    print(f"{name}: {agree} agree, {mismatch} mismatch, {excluded} excluded "
          f"({dt:.1f} s, {decided / dt:.0f} decisions/s, "
          f"{iterations / max(decided, 1):.2f} IPM iterations/decision)")
    return mismatch


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="tv_grid_results")
    ap.add_argument("--n", type=int, default=41)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    tv = Spectrahedrop(tv_lift())
    tvm = Spectrahedrop(tv_monic_lift())

    bad = 0
    with open(os.path.join(args.out, "membership_grid.csv"), "w",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "status", "screen_value"])
        bad += run_grid(
            "membership grid", MEMBER_GRID, args.n,
            lambda a, b: drop_membership(tv, scalar_tuple(a, b)),
            tv_screen_value, screen_curve_distance, w)
    with open(os.path.join(args.out, "dual_grid.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["c1", "c2", "status", "q_sign"])
        bad += run_grid(
            "dual grid", DUAL_GRID, args.n,
            lambda a, b: drop_polar_membership(tvm, scalar_tuple(a, b),
                                               bounded=True),
            tv_dual_boundary, dual_curve_distance, w)
    print(f"wrote CSVs to {args.out}/")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
