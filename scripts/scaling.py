#!/usr/bin/env python3
"""Time the scaling workloads: channel interpolation at n=m=6 and 8, a
certificate search at degree r=2 and 3, a sweep of certificate searches
at r=2, and drop membership above level 1: the hull lift of
scripts/hull_demo.py (d=9, h=44) at levels 2 and 4, and ``tv_lift()`` at
level 6.

Each is made from a fixed seed by ``channel_instance`` and
``certificate_point`` of perfbench/workloads.py (a feasible channel pair,
points inside the TV screen's polar dual), timed as the median of 3 runs in
one process.  A certificate search runs cold, on a fresh
``tv_monic_lift()`` per run, made before the clock starts: a pencil keeps
its certificate problem, so a second search on it pays only for the
polynomial's coefficients.  ``certificate_r2_sweep`` is that second kind of
cost: the seconds per search of 10 searches on one fresh lift.

Each drop entry answers two points of its level: a direct sum of grid
points inside the set (FEASIBLE), and the same with its first point moved
to (1.2, 0), outside [-1, 1]^2 (INFEASIBLE).  ``_cold`` answers each on a
fresh drop, so it pays for the problem the drop keeps; ``_warm`` answers
both again on a drop that has answered them once.

The last line of output is one JSON object with the seconds, the statuses,
the Schur route of the blocks (``info["schur"]``) of each channel problem
and of the certificate problems at r=2 and 3 (S, then G), the row count m
and the rank of each certificate problem's equality rows, nproc and the
OpenBLAS thread count in effect (one unless OPENBLAS_NUM_THREADS says
otherwise).  The exit code is 1 unless every status is the expected one
(FEASIBLE, and FEASIBLE then INFEASIBLE on a drop entry), every rank equals
its m, and both channel problems' Choi block and both certificate
problems' G block took the factored route.

Usage: python scripts/scaling.py
"""

import json
import os
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SEED = 0
RUNS = 3
SWEEP = 10
# grid points of scripts/hull_demo.py inside the TV screen
INSIDE = [(0.0, 0.0), (0.3, -0.3), (0.6, 0.3), (-0.3, 0.9), (0.9, 0.0),
          (-0.6, -0.6)]


def timed(run, setup=lambda: None):
    """(median seconds per call, results of the last run) over RUNS runs of
    run(setup()), which returns a list of results; setup is not timed."""
    times = []
    for _ in range(RUNS):
        arg = setup()
        start = time.perf_counter()
        results = run(arg)
        times.append((time.perf_counter() - start) / len(results))
    return statistics.median(times), results


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "scripts")]
    import numpy as np
    from freeconvex import corpus, cp, possatz, sdp
    from freeconvex.algebra import HermitianTuple
    from freeconvex.spectra import Spectrahedrop, drop_membership
    from hull_demo import demo_hull
    from run import blas_threads
    from workloads import (certificate_point, channel_instance,
                           dual_boundary_polyline)

    results, rows = {}, {}
    for n in (6, 8):
        a, b = channel_instance(np.random.default_rng(SEED), n, True)
        results[f"channel_n{n}"] = timed(
            lambda _: [cp.interpolate(a, b, "channel")])
    gen, boundary = np.random.default_rng(SEED), dual_boundary_polyline()
    polys = [corpus.linear_form_poly(*certificate_point(gen, True, boundary))
             for _ in range(SWEEP)]
    p = polys[0]
    for r in (2, 3):
        results[f"certificate_r{r}"] = timed(
            lambda lift: [possatz.search_certificate(p, lift, r)],
            corpus.tv_monic_lift)
        problem = possatz.certificate_problem(p, corpus.tv_monic_lift(),
                                              r).build()
        rows[f"certificate_r{r}"] = {
            "m": problem.m, "rank": int(sdp._Rows(problem).keep.size)}
    results["certificate_r2_sweep"] = timed(
        lambda lift: [possatz.search_certificate(q, lift, 2) for q in polys],
        corpus.tv_monic_lift)

    def point(pts):
        return HermitianTuple([np.diag([q[j] for q in pts]) for j in (0, 1)])

    def answered(lift, points):
        drop = Spectrahedrop(lift)
        for x in points:
            drop_membership(drop, x)
        return drop

    expect, hull = {}, demo_hull()[2].lift
    for name, lift, n in (("hull", hull, 2), ("hull", hull, 4),
                          ("tv", corpus.tv_lift(), 6)):
        points = [point(INSIDE[:n]), point([(1.2, 0.0)] + INSIDE[1:n])]
        results[f"{name}_n{n}_cold"] = timed(
            lambda drops: [drop_membership(d, x) for d, x in zip(drops, points)],
            lambda: [Spectrahedrop(lift) for _ in points])
        results[f"{name}_n{n}_warm"] = timed(
            lambda drop: [drop_membership(drop, x) for x in points],
            lambda: answered(lift, points))
        for k in ("cold", "warm"):
            expect[f"{name}_n{n}_{k}"] = ["FEASIBLE", "INFEASIBLE"]
    got = {k: [r.status.value for r in res] for k, (_, res) in results.items()}
    schur = {k: list(res[0].info["schur"]) for k, (_, res) in results.items()
             if k.startswith("channel") or k in ("certificate_r2", "certificate_r3")}
    print(json.dumps({
        "median_s": {k: round(s, 4) for k, (s, _) in results.items()},
        "status": {k: "/".join(sorted(set(s))) for k, s in got.items()},
        "schur": schur,
        "rows": rows,
        "runs": RUNS, "nproc": os.cpu_count(),
        "blas_threads": blas_threads()}))
    bad = [f"{k}: statuses {s}" for k, s in got.items()
           if s != expect.get(k, ["FEASIBLE"] * len(s))] \
        + [f"{k}: rank {v['rank']} of m = {v['m']}" for k, v in rows.items()
           if v["rank"] != v["m"]] \
        + [f"{k}: Schur route {r}" for k, r in schur.items()
           if r[-1] != "factored"]
    for line in bad:
        print(f"scaling: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
