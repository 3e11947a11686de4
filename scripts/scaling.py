#!/usr/bin/env python3
"""Time the scaling workloads: channel interpolation at n=m=6 and 8, a
certificate search at degree r=2 and 3, and a sweep of certificate searches
at r=2.

Each is made from a fixed seed by ``channel_instance`` and
``certificate_point`` of perfbench/workloads.py (a feasible channel pair,
points inside the TV screen's polar dual), timed as the median of 3 runs in
one process.  A certificate search runs cold, on a fresh
``tv_monic_lift()`` per run, made before the clock starts: a pencil keeps
its certificate problem, so a second search on it pays only for the
polynomial's coefficients.  ``certificate_r2_sweep`` is that second kind of
cost: the seconds per search of 10 searches on one fresh lift.

The last line of output is one JSON object with the seconds, the statuses,
the Schur route of the blocks (``info["schur"]``) of each channel problem
and of the certificate problems at r=2 and 3 (S, then G), the row count m
and the rank of each certificate problem's equality rows, nproc and the
OpenBLAS thread count in effect (one unless OPENBLAS_NUM_THREADS says
otherwise).  The exit code is 1 unless every status is FEASIBLE, every rank
equals its m, and both channel problems' Choi block and both certificate
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
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import numpy as np
    from freeconvex import corpus, cp, possatz, sdp
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
        problem, _ = possatz.certificate_problem(p, corpus.tv_monic_lift(),
                                                 r).build()
        rows[f"certificate_r{r}"] = {
            "m": problem.m, "rank": int(sdp._Rows(problem).keep.size)}
    results["certificate_r2_sweep"] = timed(
        lambda lift: [possatz.search_certificate(q, lift, 2) for q in polys],
        corpus.tv_monic_lift)
    status = {k: "/".join(sorted({r.status.value for r in res}))
              for k, (_, res) in results.items()}
    schur = {k: list(res[0].info["schur"]) for k, (_, res) in results.items()
             if k.startswith("channel") or k in ("certificate_r2", "certificate_r3")}
    print(json.dumps({
        "median_s": {k: round(s, 4) for k, (s, _) in results.items()},
        "status": status,
        "schur": schur,
        "rows": rows,
        "runs": RUNS, "nproc": os.cpu_count(),
        "blas_threads": blas_threads()}))
    bad = [f"{k}: status {s}" for k, s in status.items() if s != "FEASIBLE"] \
        + [f"{k}: rank {v['rank']} of m = {v['m']}" for k, v in rows.items()
           if v["rank"] != v["m"]] \
        + [f"{k}: Schur route {r}" for k, r in schur.items()
           if r[-1] != "factored"]
    for line in bad:
        print(f"scaling: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
