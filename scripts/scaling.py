#!/usr/bin/env python3
"""Time the scaling workloads: channel interpolation at n=m=6 and 8 and a
certificate search at degree r=2 and 3.

Each is one instance made from a fixed seed by ``channel_instance`` and
``certificate_point`` of perfbench/workloads.py (a feasible channel pair, a
point inside the TV screen's polar dual), timed as the median of 3 runs in
one process.  The last line of output is one JSON object with the seconds,
the statuses, the row count m and the rank of each certificate problem's
equality rows, nproc and the OpenBLAS thread count in effect (one unless
OPENBLAS_NUM_THREADS says otherwise).

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


def timed(call):
    """(median seconds of RUNS calls, status of the last call)."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result.status.value


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import numpy as np
    from freeconvex import corpus, cp, possatz, sdp, spectra
    from run import blas_threads
    from workloads import (certificate_point, channel_instance,
                           dual_boundary_polyline)

    results, rows = {}, {}
    for n in (6, 8):
        a, b = channel_instance(np.random.default_rng(SEED), n, True)
        results[f"channel_n{n}"] = timed(lambda: cp.interpolate(a, b, "channel"))
    lift = spectra.Spectrahedrop(corpus.tv_monic_lift()).lift
    c = certificate_point(np.random.default_rng(SEED), True,
                          dual_boundary_polyline())
    p = corpus.linear_form_poly(*c)
    for r in (2, 3):
        results[f"certificate_r{r}"] = timed(
            lambda: possatz.search_certificate(p, lift, r))
        problem, _ = possatz.certificate_problem(p, lift, r).build()
        rows[f"certificate_r{r}"] = {
            "m": problem.m, "rank": int(sdp._Rows(problem).keep.size)}
    print(json.dumps({
        "median_s": {k: round(s, 4) for k, (s, _) in results.items()},
        "status": {k: status for k, (_, status) in results.items()},
        "rows": rows,
        "runs": RUNS, "nproc": os.cpu_count(),
        "blas_threads": blas_threads()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
