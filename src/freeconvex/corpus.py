"""Worked-example corpus: the pencils, tuples, and reference data behind the
test and acceptance suites, plus the files written by ``emit-corpus``.

The bent TV screen is the plane region 1 - x1^2 - x2^4 >= 0; its standard
lift uses one auxiliary variable y with blocks enforcing y >= x2^2 and
x1^2 + y^2 <= 1.  The boundary of its classical polar dual is the octic
curve q(c1, c2) = 0 obtained by eliminating the KKT system of the support
problem; membership in the dual region is sign(q) away from that curve.
"""

from __future__ import annotations

import csv
import functools
import io as _stdio
import os
from dataclasses import dataclass
from typing import List

import numpy as np

from .algebra import HermitianTuple, LinearPencil, NCPolynomial, pencil_from_tuple

__all__ = [
    "sigma_x", "sigma_y", "sigma_z",
    "tv_lift", "tv_monic_lift", "tv_screen_value", "tv_dual_boundary",
    "tv_dual_support", "interval_tuple", "interval_pencil",
    "ex_fails", "ex_no_tracial_extension", "ex_nocon_single", "ex_nocon_pair",
    "linear_form_poly", "CorpusProblem", "corpus_problems", "write_corpus",
    "DUAL_GRID", "MEMBER_GRID",
]

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
sigma_z = np.diag([1.0, -1.0])

MEMBER_GRID = dict(lo=-1.1, hi=1.1, n=41, band=1e-3)
DUAL_GRID = dict(lo=-1.5, hi=1.5, n=41, band=1e-3)


def scalar_tuple(*values) -> HermitianTuple:
    return HermitianTuple([np.array([[float(v)]]) for v in values])


# ---------------------------------------------------------------------------
# bent TV screen
# ---------------------------------------------------------------------------


def tv_lift() -> LinearPencil:
    """Lift of the TV screen: [[1,0,x1],[0,1,y],[x1,y,1]] (+) [[1,x2],[x2,y]]."""
    d = 5
    a0 = np.zeros((d, d))
    a0[0, 0] = a0[1, 1] = a0[2, 2] = 1.0
    a0[3, 3] = 1.0
    x1 = np.zeros((d, d))
    x1[0, 2] = x1[2, 0] = 1.0
    x2 = np.zeros((d, d))
    x2[3, 4] = x2[4, 3] = 1.0
    y = np.zeros((d, d))
    y[1, 2] = y[2, 1] = 1.0
    y[4, 4] = 1.0
    return LinearPencil(a0, [x1, x2], [y])


def tv_monic_lift() -> LinearPencil:
    """Monic lift with the same x projection (the shift touches only y)."""
    from .spectra import monicize
    return monicize(tv_lift(), [0.0, 0.0, 0.5]).pencil


def tv_screen_value(x1: float, x2: float) -> float:
    return 1.0 - x1 * x1 - x2 ** 4


def tv_dual_boundary(c1: float, c2: float) -> float:
    """Octic whose zero set is the boundary of the classical dual region;
    positive inside, negative outside."""
    return (-16 * c1 ** 8 + 48 * c1 ** 6 - 48 * c1 ** 4 - 8 * c1 ** 4 * c2 ** 4
            + 16 * c1 ** 2 - 20 * c1 ** 2 * c2 ** 4 - c2 ** 8 + c2 ** 4)


@functools.lru_cache(maxsize=None)
def _tv_arc(samples: int):
    """Read-only abscissae t in [-1, 1] and the upper boundary arc
    sqrt(1 - t^4) of the TV screen, at ``samples`` points."""
    t = np.linspace(-1.0, 1.0, samples)
    arc = np.sqrt(np.clip(1.0 - t ** 4, 0.0, None))
    t.flags.writeable = arc.flags.writeable = False
    return t, arc


def tv_dual_support(c1: float, c2: float, samples: int = 4001) -> float:
    """Support function of the TV screen: max of c.x over the region,
    computed by scanning the boundary arcs (an SDP-free oracle).  The arc
    is sampled once per ``samples`` and kept; a call only scans it."""
    t, arc = _tv_arc(samples)
    return float((abs(c1) * arc + c2 * t).max())


def grid_points(spec) -> np.ndarray:
    return np.linspace(spec["lo"], spec["hi"], spec["n"])


def dual_curve_distance(c1: float, c2: float, eps: float = 1e-6) -> float:
    """First-order distance estimate to the q = 0 curve."""
    q = tv_dual_boundary(c1, c2)
    gx = (tv_dual_boundary(c1 + eps, c2) - tv_dual_boundary(c1 - eps, c2)) / (2 * eps)
    gy = (tv_dual_boundary(c1, c2 + eps) - tv_dual_boundary(c1, c2 - eps)) / (2 * eps)
    return abs(q) / max(np.hypot(gx, gy), 1e-9)


def screen_curve_distance(x1: float, x2: float) -> float:
    p = tv_screen_value(x1, x2)
    return abs(p) / max(np.hypot(2 * x1, 4 * x2 ** 3), 1e-9)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def interval_tuple(lo: float, hi: float) -> HermitianTuple:
    """Pencil tuple W with I - W x cutting out the interval [lo, hi]."""
    if not lo < 0 < hi:
        raise ValueError("interval must contain 0 in its interior")
    return HermitianTuple([np.diag([1.0 / hi, 1.0 / lo])])


def interval_pencil(lo: float, hi: float) -> LinearPencil:
    return pencil_from_tuple(interval_tuple(lo, hi))


def ex_fails():
    """The half-line pair: 1+x contains 1+2x, contraction but no isometry."""
    la = LinearPencil(np.eye(1), [np.eye(1)])
    lb = LinearPencil(np.eye(1), [2.0 * np.eye(1)])
    return la, lb


def ex_no_tracial_extension():
    """Hermitianized operator-system data: cp-interpolable, but by no trace
    non-increasing map."""
    s32 = np.sqrt(3.0) / 2.0
    a = HermitianTuple([np.eye(2), sigma_x, sigma_y])
    b = HermitianTuple([np.diag([0.5, 1.5]), s32 * sigma_x, s32 * sigma_y])
    return a, b


def ex_nocon_single():
    """diag(1,0) cannot reach diag(1/2,-1/2) by any quantum channel."""
    return (HermitianTuple([np.diag([1.0, 0.0])]),
            HermitianTuple([np.diag([0.5, -0.5])]))


def ex_nocon_pair():
    """Two-variable generators whose midpoint escapes both contractive
    tracial hulls."""
    a = HermitianTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    b = HermitianTuple([-np.diag([0.0, 1.0]), -np.diag([1.0, 0.0])])
    d = HermitianTuple([0.5 * (x + y) for x, y in zip(a, b)])
    return a, b, d


def linear_form_poly(c1: float, c2: float) -> NCPolynomial:
    """1 - c1 x1 - c2 x2."""
    return NCPolynomial(2, 1, 1, {(): np.array([[1.0]]),
                                  (1,): np.array([[-float(c1)]]),
                                  (2,): np.array([[-float(c2)]])})


# ---------------------------------------------------------------------------
# problem corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusProblem:
    name: str
    expect: str           # FEASIBLE | INFEASIBLE | TRUE | FALSE | OK
    problem: dict
    note: str = ""


def corpus_problems() -> List[CorpusProblem]:
    from .io import (encode_certificate, encode_matrix, encode_pencil,
                     encode_polynomial, encode_tuple)
    from .possatz import Certificate

    la, lb = ex_fails()
    ntex_a, ntex_b = ex_no_tracial_extension()
    nocon_a1, nocon_b1 = ex_nocon_single()
    nocon_a2, nocon_b2, nocon_d = ex_nocon_pair()
    tv = tv_lift()
    tvm = tv_monic_lift()
    interval = interval_tuple(-1.0, 1.0)

    def prob(kind, payload, options=None):
        return {"version": "1", "kind": kind, "payload": payload,
                "options": options or {}}

    ex_fails_cert = Certificate(1, 1, 1, 0, np.array([[0.5]]),
                                np.array([[0.5]]))

    items = [
        CorpusProblem(
            "halfline-dominate", "FEASIBLE",
            prob("dominate", {"LA": encode_pencil(la), "LB": encode_pencil(lb),
                              "isometry": None}),
            "half-line inclusion; contraction witness with V*V = 1/2"),
        CorpusProblem(
            "halfline-dominate-isometry", "INFEASIBLE",
            prob("dominate", {"LA": encode_pencil(la), "LB": encode_pencil(lb),
                              "isometry": True}),
            "no isometry realizes the unbounded inclusion"),
        CorpusProblem(
            "halfline-membership-boundary", "TRUE",
            prob("membership", {"pencil": encode_pencil(la),
                                "X": encode_tuple(scalar_tuple(-1.0))}),
            "boundary point of {X >= -1}"),
        CorpusProblem(
            "halfline-membership-outside", "FALSE",
            prob("membership", {"pencil": encode_pencil(lb),
                                "X": encode_tuple(scalar_tuple(-1.0))}),
            "outside {X >= -1/2}"),
        CorpusProblem(
            "halfline-bounded", "UNBOUNDED",
            prob("bounded", {"pencil": encode_pencil(lb)}),
            "half-lines are unbounded"),
        CorpusProblem(
            "interval-bounded", "BOUNDED",
            prob("bounded", {"pencil": encode_pencil(
                pencil_from_tuple(interval))})),
        CorpusProblem(
            "operator-system-interpolate-cp", "FEASIBLE",
            prob("interpolate", {"A": encode_tuple(ntex_a),
                                 "B": encode_tuple(ntex_b)},
                 {"mode": "cp"}),
            "conjugation by diag(sqrt(1/2), sqrt(3/2))"),
        CorpusProblem(
            "operator-system-interpolate-operation", "INFEASIBLE",
            prob("interpolate", {"A": encode_tuple(ntex_a),
                                 "B": encode_tuple(ntex_b)},
                 {"mode": "operation"}),
            "no trace non-increasing extension exists"),
        CorpusProblem(
            "trace-mismatch-thull", "INFEASIBLE",
            prob("thull", {"generators": [encode_tuple(nocon_a1)],
                           "B": encode_tuple(nocon_b1)}),
            "channels preserve trace"),
        CorpusProblem(
            "midpoint-cthull", "INFEASIBLE",
            prob("cthull", {"generators": [encode_tuple(nocon_a2),
                                           encode_tuple(nocon_b2)],
                            "B": encode_tuple(nocon_d)}),
            "midpoint escapes both generators"),
        CorpusProblem(
            "tvscreen-drop-origin", "FEASIBLE",
            prob("drop", {"lift": encode_pencil(tv),
                          "X": encode_tuple(scalar_tuple(0.0, 0.0))})),
        CorpusProblem(
            "tvscreen-drop-outside", "INFEASIBLE",
            prob("drop", {"lift": encode_pencil(tv),
                          "X": encode_tuple(scalar_tuple(1.0, 1.0))})),
        CorpusProblem(
            "tvscreen-drop-inside", "FEASIBLE",
            prob("drop", {"lift": encode_pencil(tv),
                          "X": encode_tuple(scalar_tuple(0.9, 0.5))})),
        CorpusProblem(
            "tvscreen-dual-inside", "FEASIBLE",
            prob("drop-polar", {"lift": encode_pencil(tvm),
                                "A": encode_tuple(scalar_tuple(0.5, 0.5)),
                                "bounded": True})),
        CorpusProblem(
            "tvscreen-dual-outside", "INFEASIBLE",
            prob("drop-polar", {"lift": encode_pencil(tvm),
                                "A": encode_tuple(scalar_tuple(1.2, 0.0)),
                                "bounded": True})),
        CorpusProblem(
            "interval-polar-inside", "FEASIBLE",
            prob("polar", {"Omega": encode_tuple(interval),
                           "X": encode_tuple(scalar_tuple(0.5)),
                           "bounded": True})),
        CorpusProblem(
            "interval-polar-outside", "INFEASIBLE",
            prob("polar", {"Omega": encode_tuple(interval),
                           "X": encode_tuple(scalar_tuple(1.5)),
                           "bounded": True})),
        CorpusProblem(
            "halfline-polar-member", "FEASIBLE",
            prob("polar", {"Omega": encode_tuple(scalar_tuple(-2.0)),
                           "X": encode_tuple(scalar_tuple(-1.0)),
                           "bounded": None}),
            "monic forms of the half-line pair"),
        CorpusProblem(
            "tracial-scalar-inside", "FEASIBLE",
            prob("tracial", {"B": encode_tuple(scalar_tuple(1.0)),
                             "Y": {"g": 1, "dim": 2, "matrices":
                                   [encode_matrix(np.diag([0.6, -5.0]))]},
                             "opp": False}),
            "positive part trace 0.6 <= 1"),
        CorpusProblem(
            "tracial-scalar-outside", "INFEASIBLE",
            prob("tracial", {"B": encode_tuple(scalar_tuple(1.0)),
                             "Y": {"g": 1, "dim": 2, "matrices":
                                   [encode_matrix(np.diag([0.6, 0.6]))]},
                             "opp": False}),
            "positive part trace 1.2 > 1"),
        CorpusProblem(
            "opp-tracial-inside", "FEASIBLE",
            prob("tracial", {"Y": encode_tuple(scalar_tuple(1.0)),
                             "B": {"g": 1, "dim": 2, "matrices":
                                   [encode_matrix(np.diag([0.6, 0.6]))]},
                             "opp": True}),
            "largest eigenvalue 0.6 <= 1 (the witness lives on the fixed leg)"),
        CorpusProblem(
            "opp-tracial-outside", "INFEASIBLE",
            prob("tracial", {"Y": encode_tuple(scalar_tuple(1.0)),
                             "B": {"g": 1, "dim": 2, "matrices":
                                   [encode_matrix(np.diag([1.5, 0.0]))]},
                             "opp": True})),
        CorpusProblem(
            "exsitu-inside", "FEASIBLE",
            prob("exsitu", {"Omega": encode_tuple(interval),
                            "Y": encode_tuple(scalar_tuple(0.5))})),
        CorpusProblem(
            "exsitu-outside", "INFEASIBLE",
            prob("exsitu", {"Omega": encode_tuple(interval),
                            "Y": encode_tuple(scalar_tuple(1.5))})),
        CorpusProblem(
            "possatz-search-inside", "FEASIBLE",
            prob("possatz-search", {"p": encode_polynomial(
                linear_form_poly(0.5, 0.5)), "pencil": encode_pencil(tvm),
                "r": 0})),
        CorpusProblem(
            "possatz-search-outside", "INFEASIBLE",
            prob("possatz-search", {"p": encode_polynomial(
                linear_form_poly(1.2, 0.0)), "pencil": encode_pencil(tvm),
                "r": 0})),
        CorpusProblem(
            "possatz-verify-halfline", "TRUE",
            prob("possatz-verify", {
                "p": encode_polynomial(NCPolynomial(
                    1, 1, 1, {(): np.array([[1.0]]),
                              (1,): np.array([[1.0]])})),
                "certificate": encode_certificate(ex_fails_cert),
                "pencil": encode_pencil(lb)}),
            "1 + x = 1/2 + (1/sqrt2)*(1+2x)*(1/sqrt2)"),
        CorpusProblem(
            "monicize-tv", "OK",
            prob("monicize", {"pencil": encode_pencil(tv),
                              "xhat": [0.0, 0.0, 0.5]})),
        CorpusProblem(
            "hull-union-intervals", "FEASIBLE",
            prob("hull-union", {"lifts": [
                encode_pencil(interval_pencil(-1.0, 0.5)),
                encode_pencil(interval_pencil(-0.5, 1.0))],
                "X": encode_tuple(scalar_tuple(0.9))}),
            "level-1 hull is [-1, 1]"),
    ]
    return items


def write_corpus(directory) -> List[str]:
    from .io import dumps
    os.makedirs(directory, exist_ok=True)
    written = []
    manifest = {}
    for item in corpus_problems():
        fname = f"{item.name}.json"
        with open(os.path.join(directory, fname), "w") as fh:
            fh.write(dumps(item.problem))
            fh.write("\n")
        manifest[fname] = {"kind": item.problem["kind"], "expect": item.expect,
                           "note": item.note}
        written.append(fname)
    # dual-grid reference values
    grid_name = "tvscreen-dual-grid.csv"
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["c1", "c2", "expected_status", "q_sign"])
    pts = grid_points(DUAL_GRID)
    for c1 in pts:
        for c2 in pts:
            q = tv_dual_boundary(c1, c2)
            if dual_curve_distance(c1, c2) <= DUAL_GRID["band"]:
                status = "excluded"
            else:
                status = "member" if q > 0 else "nonmember"
            writer.writerow([format(c1, ".17g"), format(c2, ".17g"), status,
                             format(q, ".17g")])
    with open(os.path.join(directory, grid_name), "w") as fh:
        fh.write(buf.getvalue())
    manifest[grid_name] = {
        "kind": "drop-polar grid",
        "expect": "statuses match expected_status off the excluded band",
        "note": "sign of the dual boundary octic over the 41x41 grid"}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        fh.write(dumps(manifest))
        fh.write("\n")
    written.extend([grid_name, "manifest.json"])
    return written
