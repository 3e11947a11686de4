#!/usr/bin/env python3
"""freeconvex benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload tv-grids --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
decision is issued after the previous one returns and is checked against
its known answer and an independent check of its witness.  Passes (see
``workloads.py``) repeat until ``--seconds`` have gone by; the pass in
flight is finished.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the same passes twice, untraced and then with every public entry
point of the library wrapped in a span, asserts that both give the same
statuses, and prints the per-layer metrics of BENCHMARK.json.  Either way
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; machine facts, failures
and sample counts are printed before it and saved with the spans under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# One BLAS thread unless the caller says otherwise: on a 2-core box the
# second OpenBLAS thread makes these small dense problems slower and the
# timings noisier.  The count in effect is recorded with every result.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_library():
    """Import freeconvex from this checkout's ``src/``; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "freeconvex", "__init__.py")):
        raise SystemExit(f"perfbench: no freeconvex sources under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import freeconvex
    if os.path.dirname(os.path.dirname(os.path.abspath(freeconvex.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported freeconvex from {freeconvex.__file__}")
    import workloads  # noqa: F401  (imports numpy, scipy and the library)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def blas_threads():
    """Thread count in effect for each OpenBLAS this process has loaded."""
    import ctypes
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref)).strip()
    if not sha:
        for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or "unknown"


def src_digest():
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_facts(workload, seed):
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), 0)
    blas = {}
    for mod in (numpy, scipy):
        try:
            cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{cfg.get('name')} {cfg.get('version')}"
        except Exception as exc:      # config layout differs between releases
            blas[mod.__name__] = f"unknown ({exc!r})"
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "ram_gib": round(mem / 2 ** 20, 2), "blas": blas,
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit(), "src_sha256": src_digest()}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Ledger:
    """Latency, CPU time, status and failure of every decision made."""

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.statuses = []
        self.labels = []
        self.failures = []

    def records(self):
        return [{"decision": label, "status": status, "s": t, "cpu_s": c}
                for label, status, t, c in zip(self.labels, self.statuses,
                                               self.latency, self.cpu)]

    def execute(self, decision, tracer=None, decision_id=None):
        if tracer is not None:
            tracer.decision = decision_id
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = decision.call()
        except Exception:           # a raising decision is a failed decision
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.decision = None
        if error is None:
            try:
                status = decision.status_of(result)
                error = decision.judge(result)
            except Exception:       # a witness the check cannot read is wrong
                status, error = "UNCHECKABLE", traceback.format_exc(limit=3)
        else:
            status = "RAISED"
        self.latency.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.statuses.append(status)
        self.labels.append(decision.label)
        if error is not None:
            self.failures.append({"decision": decision.label, "status": status,
                                  "reason": error})

    def run_passes(self, passes, seconds, tracer=None):
        """Run whole passes until ``seconds`` have gone by; returns them."""
        done = []
        start = time.perf_counter()
        for batch in passes:
            for decision in batch:
                self.execute(decision, tracer, len(self.latency))
            done.append(batch)
            if time.perf_counter() - start >= seconds:
                break
        return done

    def throughput(self):
        """Decisions per second of time spent inside the library calls."""
        return len(self.latency) / sum(self.latency)


def set_up(workloads, name, seed, workdir, warm):
    """Build the workload's inputs and run its warm-up decision; timed."""
    start = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, workdir)
    warm.execute(wl.warmup)
    return wl, time.perf_counter() - start


def traced_replay(tracing, timed, done, spans_path):
    """Replay the passes ``timed`` made with every entry point wrapped;
    returns the traced ledger, the tracer and the trace.* figures."""
    tracer = tracing.Tracer()
    traced = Ledger()
    origin = time.perf_counter()
    wrapped = tracer.install()
    try:
        traced.run_passes(iter(done), float("inf"), tracer)
    finally:
        restored, left = tracer.restore()
    tracer.write_spans(spans_path, origin)
    mismatches = abs(len(timed.statuses) - len(traced.statuses)) + sum(
        a != b for a, b in zip(timed.statuses, traced.statuses))
    figures = {"trace.wrapped": wrapped, "trace.restored": restored,
               "trace.wrappers_left": left,
               "trace.status_mismatches": mismatches,
               "trace.decisions": len(traced.latency),
               "trace.untraced_decisions_per_s": timed.throughput(),
               "trace.traced_decisions_per_s": traced.throughput(),
               "trace.overhead_decisions_per_s":
                   traced.throughput() - timed.throughput()}
    figures["trace.ok"] = mismatches == 0 and restored == wrapped and left == 0
    return traced, tracer, figures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    import_s = import_library()
    import numpy as np
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    facts = machine_facts(args.workload, args.seed)
    print("machine " + json.dumps(facts), flush=True)

    warm = Ledger()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            wl, took = set_up(workloads, args.workload, args.seed, workdir, warm)
            setups.append(took)
        setup_s = import_s + statistics.median(setups)

        timed = Ledger()
        if args.trace == 0:
            timed.run_passes(wl.passes, args.seconds)
        else:
            done = timed.run_passes(wl.passes, args.seconds / 2)
            traced, tracer, figures = traced_replay(
                tracing, timed, done, os.path.join(OUT, f"spans-{tag}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledgers = [warm, timed] + ([traced] if args.trace else [])
    attempted = sum(len(led.latency) for led in ledgers)
    failures = [f for led in ledgers for f in led.failures]
    for f in failures:
        print("FAILED " + json.dumps(f), flush=True)
    correct = not failures
    if args.trace:
        full = {**tracer.summary(), **figures}
        correct = correct and figures["trace.ok"]
        metrics = {m["name"]: {"value": full.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    p50, p90 = (float(v) for v in np.percentile(timed.latency, [50, 90]))
    if not args.trace:
        full = {"setup_s": setup_s,
                "decisions_per_s": timed.throughput(),
                "decision_ms.p50": 1e3 * p50,
                "decision_ms.p90": 1e3 * p90,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "cpu_s_per_decision": sum(timed.cpu) / len(timed.cpu)}
        metrics = {m["name"]: {"value": full[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    summary = {"decisions": len(timed.latency),
               "samples_beyond_p90": sum(t > p90 for t in timed.latency),
               "failed_frac": len(failures) / attempted,
               "setup_runs_s": setups, "import_s": import_s,
               "warmup_decisions": len(warm.latency)}
    print("summary " + json.dumps(summary), flush=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"machine": facts, "summary": summary, "all_metrics": full,
                   "failures": failures, "correct": correct,
                   "decisions": timed.records()}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
