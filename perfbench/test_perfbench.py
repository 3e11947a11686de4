"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from freeconvex import corpus  # noqa: E402

SPEC = run.load_spec()


def _bench(tmp_cwd, *args):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=tmp_cwd, capture_output=True, text=True, timeout=170)
    return proc


def _minimal(name, workdir):
    if name == "big-sdp":
        return workloads.big_sdp(3, workdir, channel_sizes=(2,), degrees=(0,),
                                 per_kind=1)
    return workloads.WORKLOADS[name](3, workdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_pass_at_minimal_size(name, tmp_path):
    wl = _minimal(name, str(tmp_path))
    ledger = run.Ledger()
    ledger.execute(wl.warmup)
    ledger.run_passes(wl.passes, 0.0)
    assert len(ledger.latency) >= 2
    assert ledger.failures == []
    assert {"FEASIBLE", "INFEASIBLE"} <= set(ledger.statuses) or name == "corpus-cli"


def test_wrong_known_answer_is_counted(tmp_path):
    wl = workloads.tv_grids(5, str(tmp_path))
    batch = next(wl.passes)
    flip = {"FEASIBLE": "INFEASIBLE", "INFEASIBLE": "FEASIBLE"}
    batch[0].expect = flip[batch[0].expect]
    ledger = run.Ledger()
    ledger.run_passes(iter([batch]), 0.0)
    assert len(ledger.failures) == 1
    assert ledger.failures[0]["decision"] == batch[0].label
    assert "expected" in ledger.failures[0]["reason"]


def test_witness_checks_reject_wrong_witnesses():
    tv = corpus.tv_lift()
    x = corpus.scalar_tuple(0.5, 0.5)
    assert workloads.check_drop_witness(tv, x, corpus.scalar_tuple(-5.0)) is not None
    gen = np.random.default_rng(0)
    a, b = workloads.channel_instance(gen, 2, True)
    from freeconvex.cp import interpolate
    res = interpolate(a, b, "channel")
    assert workloads.check_choi(res.choi, list(a), list(b), "channel") is None
    assert workloads.check_choi(res.choi, list(a), [2 * m for m in b], "channel")


def test_tracer_restores_every_wrapper(tmp_path):
    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if k == "freeconvex" or k.startswith("freeconvex.")}
    tr = tracing.Tracer()
    wl = workloads.corpus_cli(1, str(tmp_path))
    ledger = run.Ledger()
    wrapped = tr.install()
    try:
        ledger.run_passes(wl.passes, 0.0, tr)
    finally:
        restored, left = tr.restore()
    assert wrapped > 50 and restored == wrapped and left == 0
    for k, before in mods.items():
        after = vars(sys.modules[k])
        assert all(after[key] is val for key, val in before.items()), k
    summary = tr.summary()
    assert summary["io.run.calls"] == len(ledger.latency)
    assert summary["tracial.calls"] > 0 and summary["sdp.top_level_solves"] > 0
    assert ledger.failures == []


def test_metric_names_and_units():
    root = run.ROOT
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(root, "--workload", "corpus-cli", "--seed", "2",
                      "--seconds", "0.1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in last["metrics"].items()}
        assert got == want
        with open(os.path.join(run.OUT, f"result-corpus-cli-seed2-trace{trace}.json")) as fh:
            produced = json.load(fh)["all_metrics"]
        assert set(want) <= set(produced)     # no metric reads 0 by a typo


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "tv-grids", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
