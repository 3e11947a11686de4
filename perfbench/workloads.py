"""The benchmark's workloads: inputs made from a seed, each decision paired
with its known answer and an independent check of the witness it ships.

A workload is a stream of passes; a pass is a list of decisions and the unit
a run repeats until its time is up, so every run sees the same mix of
decision kinds.  Library calls go through module attributes at call time
(``spectra.drop_membership``, not a name bound at import), so the tracer's
wrappers see them.  The checks use names bound at import, which are never
wrapped.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

import numpy as np

from freeconvex import corpus, cp, io, possatz, rand, spectra
from freeconvex.algebra import HermitianTuple, evaluate_pencil, monic_tuple
from freeconvex.cp import ChoiMatrix, apply_choi
from freeconvex.io import decode_matrix, decode_pencil, decode_polynomial, decode_tuple
from freeconvex.possatz import Certificate, verify_certificate

EIG_TOL = 1e-8    # PSD floor for drop Y witnesses and Choi witnesses
MAP_TOL = 1e-6    # Choi witnesses reproduce targets and trace conditions

# big-sdp: channel interpolation at n = m in CHANNEL_SIZES and certificate
# search at degree r in CERT_DEGREES, both statuses at every size, with
# INSTANCES_PER_KIND instances of each made once from INSTANCE_SEED
CHANNEL_SIZES = (4, 5)
CERT_DEGREES = (1, 2)
INSTANCES_PER_KIND = 5
KRAUS_COUNT = 3
CHANNEL_G = 3
INSTANCE_SEED = 0
WARMUP_CHANNEL_SIZE = 3


def _status(result) -> str:
    return result.status.value


@dataclass
class Decision:
    """One library call, its known answer, and an optional check of the
    witness a FEASIBLE answer ships; ``judge`` returns why the decision
    failed, or None."""

    label: str
    call: Callable[[], object]
    expect: str
    check: Optional[Callable[[object], Optional[str]]] = None
    status_of: Callable[[object], str] = _status

    def judge(self, result) -> Optional[str]:
        status = self.status_of(result)
        if status != self.expect:
            return f"status {status}, expected {self.expect}"
        if status == "FEASIBLE" and self.check is not None:
            return self.check(result)
        return None


@dataclass
class Workload:
    passes: Iterator[List[Decision]]
    warmup: Decision


# ---------------------------------------------------------------------------
# independent witness checks
# ---------------------------------------------------------------------------


def _lambda_min(mat) -> float:
    return float(np.linalg.eigvalsh(mat)[0])


def check_drop_witness(lift, x, ys) -> Optional[str]:
    """L(X, Y) must be PSD to -EIG_TOL."""
    if ys is None:
        return "FEASIBLE without a Y witness"
    lam = _lambda_min(evaluate_pencil(lift, x, ys if lift.h else None))
    return None if lam >= -EIG_TOL else f"lambda_min L(X, Y) = {lam:.3e}"


def check_choi(choi, sources, targets, condition=None) -> Optional[str]:
    """Phi(sources_j) = targets_j to MAP_TOL, Phi completely positive, and
    the mode's trace or unit condition: 'channel' tr-preserving, 'unital'
    Phi(I) = I, 'operation' tr-non-increasing."""
    if choi is None:
        return "FEASIBLE without a Choi witness"
    for j, (src, tgt) in enumerate(zip(sources, targets)):
        err = float(np.abs(apply_choi(choi, src) - tgt).max())
        if err > MAP_TOL * max(1.0, float(np.abs(tgt).max())):
            return f"Phi(A_{j + 1}) misses B_{j + 1} by {err:.3e}"
    lam = choi.lambda_min()
    if lam < -EIG_TOL:
        return f"Choi lambda_min {lam:.3e}"
    eye_n, eye_m = np.eye(choi.n), np.eye(choi.m)
    if condition == "channel":
        err = float(np.abs(choi.trace_matrix() - eye_n).max())
    elif condition == "unital":
        err = float(np.abs(choi.block_sum_diag() - eye_m).max())
    elif condition == "operation":
        err = max(0.0, -_lambda_min(eye_n - choi.trace_matrix()))
    else:
        err = 0.0
    return None if err <= MAP_TOL else f"{condition} condition off by {err:.3e}"


def check_certificate(p, cert, pencil) -> Optional[str]:
    if cert is None:
        return "FEASIBLE without a certificate"
    ok, resid = verify_certificate(p, cert, pencil)
    return None if ok else f"certificate fails verification (residual {resid:.3e})"


# ---------------------------------------------------------------------------
# tv-grids
# ---------------------------------------------------------------------------


def spread_order(n: int, start: int) -> List[int]:
    """0..n-1 in bit-reversed (van der Corput) order, rotated to begin at
    ``start``: every run of consecutive entries is spread evenly over the
    list, so a run that stops early still samples the whole grid."""
    bits = max(1, (n - 1).bit_length())
    order = [r for r in (int(format(i, f"0{bits}b")[::-1], 2)
                         for i in range(1 << bits)) if r < n]
    return order[start:] + order[:start]


def _grid(spec, distance):
    pts = corpus.grid_points(spec)
    return [(float(a), float(b)) for a in pts for b in pts
            if distance(a, b) > spec["band"]]


def _drop_decision(tv, a, b) -> Decision:
    x = corpus.scalar_tuple(a, b)
    expect = "FEASIBLE" if corpus.tv_screen_value(a, b) > 0 else "INFEASIBLE"
    return Decision(f"drop_membership(tv_lift, ({a!r}, {b!r}))",
                    lambda: spectra.drop_membership(tv, x), expect,
                    lambda r: check_drop_witness(tv.lift, x, r.y_witness))


def _polar_decision(tvm, omega, gamma, c1, c2) -> Decision:
    a = corpus.scalar_tuple(c1, c2)
    expect = "FEASIBLE" if corpus.tv_dual_boundary(c1, c2) > 0 else "INFEASIBLE"
    zeros = [np.zeros((1, 1))] * gamma.g
    return Decision(
        f"drop_polar_membership(tv_monic_lift, ({c1!r}, {c2!r}), bounded=True)",
        lambda: spectra.drop_polar_membership(tvm, a, bounded=True), expect,
        lambda r: check_choi(r.choi, list(omega) + list(gamma),
                             list(a) + zeros, "unital"))


def tv_grids(seed: int, workdir: str) -> Workload:
    """Points of both 41x41 grids off the criterion's band, in a spread
    order starting at a seed-drawn point; each pass is one membership and
    one polar decision."""
    tv = spectra.Spectrahedrop(corpus.tv_lift())
    tvm = spectra.Spectrahedrop(corpus.tv_monic_lift())
    omega, gamma = monic_tuple(tvm.lift)
    member = _grid(corpus.MEMBER_GRID, corpus.screen_curve_distance)
    dual = _grid(corpus.DUAL_GRID, corpus.dual_curve_distance)
    gen = np.random.default_rng(seed)
    member = [member[i] for i in spread_order(len(member), int(gen.integers(len(member))))]
    dual = [dual[i] for i in spread_order(len(dual), int(gen.integers(len(dual))))]

    def passes():
        for k in itertools.count():
            yield [_drop_decision(tv, *member[k % len(member)]),
                   _polar_decision(tvm, omega, gamma, *dual[k % len(dual)])]

    return Workload(passes(), _drop_decision(tv, 0.0, 0.0))


# ---------------------------------------------------------------------------
# big-sdp
# ---------------------------------------------------------------------------


def channel_instance(gen, n: int, feasible: bool):
    """(A, B) with g = CHANNEL_G, both n x n.  Feasible: B_j = Phi(A_j) for
    a random Kraus channel.  Infeasible: A_1 is PSD and B_1 = Phi(A_1) plus
    a traceless rank-2 term that makes it indefinite, so no positive map
    sends A_1 to B_1 while the traces still agree."""
    ops = rand.rand_kraus(gen, n, n, KRAUS_COUNT, normalize="channel")
    a = list(rand.rand_tuple(gen, CHANNEL_G, n))
    if not feasible:
        a[0] = rand.rand_psd(gen, n)
    b = [sum(v.conj().T @ aj @ v for v in ops) for aj in a]
    if not feasible:
        w, vecs = np.linalg.eigh(b[0])
        t = w[0] + 0.5 * (w[-1] - w[0])   # lambda_min(B_1) becomes -(w_max - w_min)/2
        hi, lo = vecs[:, -1:], vecs[:, :1]
        b[0] = b[0] + t * (hi @ hi.conj().T - lo @ lo.conj().T)
    return HermitianTuple(a), HermitianTuple(b)


def _channel_decision(gen, n, feasible, tag="") -> Decision:
    a, b = channel_instance(gen, n, feasible)
    return Decision(
        f"interpolate(channel, n=m={n}, {'feasible' if feasible else 'indefinite B_1'}"
        f"{tag})",
        lambda: cp.interpolate(a, b, "channel"),
        "FEASIBLE" if feasible else "INFEASIBLE",
        lambda r: check_choi(r.choi, list(a), list(b), "channel"))


def dual_boundary_polyline(samples: int = 1536) -> np.ndarray:
    """Points on the boundary of the TV screen's polar dual (SDP-free)."""
    pts = []
    for th in np.linspace(0.0, 2 * np.pi, samples, endpoint=False):
        w = (math.cos(th), math.sin(th))
        r = 1.0 / corpus.tv_dual_support(*w)
        pts.append((r * w[0], r * w[1]))
    return np.asarray(pts)


def certificate_point(gen, inside: bool, boundary: np.ndarray):
    """A point c of the plane sampled as in acceptance criterion 5: radius
    factor in [0.15, 0.85] inside the dual, [1.15, 1.45] outside, and at
    least 1e-2 from its boundary."""
    while True:
        th = float(gen.uniform(0, 2 * np.pi))
        w = (math.cos(th), math.sin(th))
        r = 1.0 / corpus.tv_dual_support(*w)
        u = float(gen.uniform(0.15, 0.85) if inside else gen.uniform(1.15, 1.45))
        c = (u * r * w[0], u * r * w[1])
        if float(np.hypot(*(boundary - np.asarray(c)).T).min()) >= 1e-2:
            if (corpus.tv_dual_boundary(*c) > 0) != inside:
                raise RuntimeError(f"closed form disagrees with the sampler at {c}")
            return c


def _cert_decision(gen, tvm, r, inside, boundary) -> Decision:
    c = certificate_point(gen, inside, boundary)
    p = corpus.linear_form_poly(*c)
    return Decision(
        f"search_certificate(1 - {c[0]!r} x1 - {c[1]!r} x2, tv_monic_lift, r={r})",
        lambda: possatz.search_certificate(p, tvm.lift, r),
        "FEASIBLE" if inside else "INFEASIBLE",
        lambda res: check_certificate(p, res.certificate, tvm.lift))


def big_sdp(seed: int, workdir: str,
            channel_sizes=CHANNEL_SIZES, degrees=CERT_DEGREES,
            per_kind=INSTANCES_PER_KIND) -> Workload:
    """Channel interpolation and certificate search, both statuses at every
    size.  The instances are pinned (made from INSTANCE_SEED); the workload
    seed shuffles their order in each pass.  See NOTES.md for why."""
    tvm = spectra.Spectrahedrop(corpus.tv_monic_lift())
    boundary = dual_boundary_polyline()
    pool = np.random.default_rng(INSTANCE_SEED)
    batch = []
    for k in range(per_kind):
        tag = f", instance {k} of seed {INSTANCE_SEED}"
        for n in channel_sizes:
            batch += [_channel_decision(pool, n, True, tag),
                      _channel_decision(pool, n, False, tag)]
        for r in degrees:
            batch += [_cert_decision(pool, tvm, r, True, boundary),
                      _cert_decision(pool, tvm, r, False, boundary)]
    order = np.random.default_rng(seed)

    def passes():
        while True:
            yield [batch[i] for i in order.permutation(len(batch))]

    warmup = _channel_decision(np.random.default_rng([INSTANCE_SEED, 1]),
                               WARMUP_CHANNEL_SIZE, True)
    return Workload(passes(), warmup)


# ---------------------------------------------------------------------------
# corpus-cli
# ---------------------------------------------------------------------------


def _corpus_witness(text: str) -> Optional[str]:
    """Check the witnesses a FEASIBLE report ships, decoded from its JSON."""
    rep = json.loads(text)
    if rep["status"] != "FEASIBLE":
        return None
    kind, wit = rep["kind"], rep["witnesses"]
    pay, opts = rep["provenance"]["payload"], rep["provenance"]["options"]
    if kind == "drop":
        lift = decode_pencil(pay["lift"])
        ys = HermitianTuple([decode_matrix(wit[f"Y{k + 1}"]) for k in range(lift.h)],
                            dim=decode_tuple(pay["X"]).dim)
        return check_drop_witness(lift, decode_tuple(pay["X"]), ys)
    if kind == "interpolate":
        a, b = decode_tuple(pay["A"]), decode_tuple(pay["B"])
        choi = ChoiMatrix(a.dim, b.dim, decode_matrix(wit["choi"]))
        return check_choi(choi, list(a), list(b), str(opts.get("mode", "cp")).lower())
    if kind == "possatz-search":
        p, pencil = decode_polynomial(pay["p"]), decode_pencil(pay["pencil"])
        cert = Certificate(p.g, pencil.d, p.rows, int(pay["r"]),
                           decode_matrix(wit["S"]), decode_matrix(wit["G"]))
        return check_certificate(p, cert, pencil)
    return None


def _corpus_decision(directory, name, expect) -> Decision:
    path = os.path.join(directory, name)

    def call():
        with open(path, "rb") as fh:
            data = fh.read()
        rep = io.run(io.parse_problem(data))
        return rep, rep.to_json()

    return Decision(f"corpus {name}", call, expect,
                    lambda r: _corpus_witness(r[1]),
                    status_of=lambda r: r[0].status)


def corpus_cli(seed: int, workdir: str) -> Workload:
    """The worked-example corpus written once; each pass runs every problem
    file in a seed-shuffled order against manifest.json."""
    directory = os.path.join(workdir, "corpus")
    io.emit_corpus(directory)
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    names = sorted(n for n in manifest
                   if n.endswith(".json") and n != "manifest.json")
    gen = np.random.default_rng(seed)

    def passes():
        while True:
            yield [_corpus_decision(directory, names[i], manifest[names[i]]["expect"])
                   for i in gen.permutation(len(names))]

    return Workload(passes(), _corpus_decision(directory, names[0],
                                               manifest[names[0]]["expect"]))


WORKLOADS = {"tv-grids": tv_grids, "big-sdp": big_sdp, "corpus-cli": corpus_cli}
