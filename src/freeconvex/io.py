"""Problem-file schema, dispatch, and report emission.

Problems are JSON documents {version, kind, payload, options}.  Matrices
serialize as {rows, cols, re, im} with row-major real and imaginary arrays,
so files are locale-proof and trivially parseable from any language.  All
floating numbers are printed with 17 significant digits; infinities use the
strings "inf" / "-inf" so the files stay strict JSON.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from . import corpus
from .algebra import (HermitianTuple, LinearPencil, NCPolynomial,
                      require_hermitian)
from .cp import InterpolationMode, interpolate
from .possatz import Certificate, search_certificate, verify_certificate
from .sdp import FEAS_TOL, SolveStatus
from .spectra import (Spectrahedrop, dominates, drop_level1_bounded,
                      drop_membership, drop_polar_membership, hull_of_union,
                      is_bounded, monicize, polar_membership,
                      spectrahedron_membership)
from .tracial import (cthull_membership, exsitu_dual_membership,
                      opp_tracial_membership, thull_membership,
                      tracial_membership)

__all__ = [
    "ProblemFile",
    "Report",
    "ParseError",
    "parse_problem",
    "run",
    "emit_corpus",
    "KINDS",
]

FORMAT_VERSION = "1"

KINDS = ("membership", "interpolate", "dominate", "polar", "drop",
         "drop-polar", "tracial", "thull", "cthull", "exsitu",
         "possatz-verify", "possatz-search", "bounded", "monicize",
         "hull-union")


class ParseError(ValueError):
    """Schema violation, non-Hermitian matrix, or dimension mismatch."""

    def __init__(self, message: str, locus: str = ""):
        self.locus = locus
        super().__init__(f"{locus}: {message}" if locus else message)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _atom(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if math.isnan(v):
            return '"nan"'
        return format(v, ".17g")
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _render(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}{json.dumps(str(k))}: {_render(v, inner)}'
                 for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_render(v, inner)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _atom(obj)


def dumps(obj) -> str:
    """JSON text with 17-significant-digit floats and string infinities."""
    return _render(obj, "")


def _float_in(v, locus: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ParseError(f"expected a number, got {v!r}", locus)
    if isinstance(v, (int, float)):
        return float(v)
    raise ParseError(f"expected a number, got {type(v).__name__}", locus)


def encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": [float(x) for x in m.real.ravel()],
            "im": [float(x) for x in m.imag.ravel()]}


def decode_matrix(obj, locus: str = "matrix") -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = [_float_in(v, locus) for v in obj["re"]]
        im = [_float_in(v, locus) for v in obj["im"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed matrix object ({exc})", locus)
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ParseError("entry count does not match rows*cols", locus)
    return (np.asarray(re) + 1j * np.asarray(im)).reshape(rows, cols)


def encode_tuple(t: HermitianTuple) -> dict:
    return {"g": t.g, "dim": t.dim,
            "matrices": [encode_matrix(m) for m in t]}


def decode_tuple(obj, locus: str = "tuple") -> HermitianTuple:
    try:
        mats = obj["matrices"]
    except (KeyError, TypeError):
        raise ParseError("missing 'matrices'", locus)
    if not isinstance(mats, list):
        raise ParseError("'matrices' must be a list", locus)
    if len(mats) == 0:
        if "dim" not in obj:
            raise ParseError("empty tuple", locus)
        return HermitianTuple([], dim=int(obj["dim"]))
    decoded = []
    for i, m in enumerate(mats):
        raw = decode_matrix(m, f"{locus}.matrices[{i}]")
        try:
            decoded.append(require_hermitian(raw))
        except ValueError as exc:
            raise ParseError(f"not Hermitian ({exc})", f"{locus}.matrices[{i}]")
    try:
        return HermitianTuple(decoded)
    except ValueError as exc:
        raise ParseError(str(exc), locus)


def encode_pencil(p: LinearPencil) -> dict:
    return {"d": p.d, "g": p.g, "h": p.h, "monic": p.monic,
            "A0": encode_matrix(p.A0),
            "x_coeffs": [encode_matrix(m) for m in p.x_coeffs],
            "y_coeffs": [encode_matrix(m) for m in p.y_coeffs]}


def decode_pencil(obj, locus: str = "pencil") -> LinearPencil:
    try:
        a0 = decode_matrix(obj["A0"], f"{locus}.A0")
        xs = [decode_matrix(m, f"{locus}.x_coeffs[{i}]")
              for i, m in enumerate(obj.get("x_coeffs", []))]
        ys = [decode_matrix(m, f"{locus}.y_coeffs[{i}]")
              for i, m in enumerate(obj.get("y_coeffs", []))]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed pencil ({exc})", locus)
    try:
        pencil = LinearPencil(a0, xs, ys)
    except ValueError as exc:
        raise ParseError(str(exc), locus)
    if "monic" in obj and bool(obj["monic"]) != pencil.monic:
        raise ParseError("monic flag does not match A0", locus)
    return pencil


def encode_polynomial(p: NCPolynomial) -> dict:
    return {"g": p.g, "rows": p.rows, "cols": p.cols,
            "terms": [{"word": list(w), "coeff": encode_matrix(c)}
                      for w, c in sorted(p.terms.items(),
                                         key=lambda kv: (len(kv[0]), kv[0]))]}


def decode_polynomial(obj, locus: str = "polynomial") -> NCPolynomial:
    try:
        g = int(obj["g"])
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        terms = {tuple(int(l) for l in t["word"]):
                 decode_matrix(t["coeff"], f"{locus}.terms")
                 for t in obj.get("terms", [])}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed polynomial ({exc})", locus)
    try:
        return NCPolynomial(g, rows, cols, terms)
    except ValueError as exc:
        raise ParseError(str(exc), locus)


def encode_certificate(c: Certificate) -> dict:
    return {"g": c.g, "d": c.d, "mu": c.mu, "r": c.r,
            "S": encode_matrix(c.S), "G": encode_matrix(c.G)}


def decode_certificate(obj, locus: str = "certificate") -> Certificate:
    try:
        return Certificate(int(obj["g"]), int(obj["d"]), int(obj["mu"]),
                           int(obj["r"]), decode_matrix(obj["S"], locus),
                           decode_matrix(obj["G"], locus))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate ({exc})", locus)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    payload: dict
    options: dict = field(default_factory=dict)
    version: str = FORMAT_VERSION

    def to_dict(self) -> dict:
        return {"version": self.version, "kind": self.kind,
                "payload": self.payload, "options": self.options}

    def dumps(self) -> str:
        return dumps(self.to_dict())


def parse_problem(data) -> ProblemFile:
    """Validate a problem document (bytes, str, or dict)."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {KINDS}")
    version = str(data.get("version", FORMAT_VERSION))
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r}")
    payload = data.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("missing payload object")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    pf = ProblemFile(kind, payload, options, version)
    _decode_payload(pf)      # validation pass; errors carry a field locus
    return pf


def _decode_payload(pf: ProblemFile) -> dict:
    p = pf.payload
    k = pf.kind
    out: Dict[str, Any] = {}
    try:
        if k == "membership":
            out["pencil"] = decode_pencil(p["pencil"], "payload.pencil")
            out["X"] = decode_tuple(p["X"], "payload.X")
        elif k == "interpolate":
            out["A"] = decode_tuple(p["A"], "payload.A")
            out["B"] = decode_tuple(p["B"], "payload.B")
        elif k == "dominate":
            out["LA"] = decode_pencil(p["LA"], "payload.LA")
            out["LB"] = decode_pencil(p["LB"], "payload.LB")
            out["isometry"] = p.get("isometry")
        elif k == "polar":
            out["Omega"] = decode_tuple(p["Omega"], "payload.Omega")
            out["X"] = decode_tuple(p["X"], "payload.X")
            out["bounded"] = p.get("bounded")
        elif k == "drop":
            out["lift"] = decode_pencil(p["lift"], "payload.lift")
            out["X"] = decode_tuple(p["X"], "payload.X")
        elif k == "drop-polar":
            out["lift"] = decode_pencil(p["lift"], "payload.lift")
            out["A"] = decode_tuple(p["A"], "payload.A")
            out["bounded"] = p.get("bounded")
        elif k == "tracial":
            out["B"] = decode_tuple(p["B"], "payload.B")
            out["Y"] = decode_tuple(p["Y"], "payload.Y")
            out["opp"] = bool(p.get("opp", False))
        elif k in ("thull", "cthull"):
            gens = p.get("generators")
            if not isinstance(gens, list) or not gens:
                raise ParseError("need a nonempty generator list",
                                 "payload.generators")
            out["generators"] = [decode_tuple(t, f"payload.generators[{i}]")
                                 for i, t in enumerate(gens)]
            out["B"] = decode_tuple(p["B"], "payload.B")
        elif k == "exsitu":
            out["Omega"] = decode_tuple(p["Omega"], "payload.Omega")
            out["Y"] = decode_tuple(p["Y"], "payload.Y")
        elif k == "possatz-verify":
            out["p"] = decode_polynomial(p["p"], "payload.p")
            out["certificate"] = decode_certificate(p["certificate"],
                                                    "payload.certificate")
            out["pencil"] = decode_pencil(p["pencil"], "payload.pencil")
        elif k == "possatz-search":
            out["p"] = decode_polynomial(p["p"], "payload.p")
            out["pencil"] = decode_pencil(p["pencil"], "payload.pencil")
            out["r"] = int(p["r"])
        elif k == "bounded":
            out["pencil"] = decode_pencil(p["pencil"], "payload.pencil")
        elif k == "monicize":
            out["pencil"] = decode_pencil(p["pencil"], "payload.pencil")
            out["xhat"] = [_float_in(v, "payload.xhat") for v in p["xhat"]]
        elif k == "hull-union":
            lifts = p.get("lifts")
            if not isinstance(lifts, list) or not lifts:
                raise ParseError("need a nonempty lift list", "payload.lifts")
            out["lifts"] = [decode_pencil(q, f"payload.lifts[{i}]")
                            for i, q in enumerate(lifts)]
            if "X" in p:
                out["X"] = decode_tuple(p["X"], "payload.X")
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", f"payload ({k})")
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    kind: str
    status: str
    decision: Optional[bool]
    margin: Optional[float] = None
    detail: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.status in ("FEASIBLE", "INFEASIBLE", "TRUE", "FALSE", "OK",
                           "BOUNDED", "UNBOUNDED"):
            return 0
        if self.status == "MARGINAL":
            return 2
        return 3

    def to_dict(self) -> dict:
        return {"kind": self.kind, "status": self.status,
                "decision": self.decision, "margin": self.margin,
                "detail": self.detail, "witnesses": self.witnesses,
                "timings": self.timings, "tolerances": self.tolerances,
                "provenance": self.provenance}

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def to_text(self) -> str:
        lines = [f"kind:     {self.kind}",
                 f"status:   {self.status}",
                 f"decision: {self.decision}"]
        if self.margin is not None:
            lines.append(f"margin:   {self.margin:.17g}")
        for key, val in self.detail.items():
            if isinstance(val, float):
                lines.append(f"{key}: {val:.17g}")
            else:
                lines.append(f"{key}: {val}")
        for key in self.witnesses:
            lines.append(f"witness:  {key}")
        lines.append("tolerances: " + ", ".join(
            f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.tolerances.items()))
        lines.append(f"elapsed:  {self.timings.get('seconds', 0.0):.3f} s")
        return "\n".join(lines)


def _status_str(status: SolveStatus) -> str:
    return status.value


def _wit(m) -> dict:
    return encode_matrix(np.asarray(m))


def run(pf: ProblemFile) -> Report:
    """Dispatch a parsed problem to its decision procedure."""
    opts = pf.options
    tol = _float_in(opts.get("tol", 1e-8), "options.tol")
    max_iter = int(opts.get("max_iter", 200))
    kw = {"tol": tol, "max_iter": max_iter}
    dec = _decode_payload(pf)
    t0 = time.perf_counter()
    k = pf.kind
    status = "OK"
    decision: Optional[bool] = None
    margin: Optional[float] = None
    detail: Dict[str, Any] = {}
    witnesses: Dict[str, Any] = {}

    if k == "membership":
        res = spectrahedron_membership(dec["pencil"], dec["X"])
        decision = res.inside
        status = "TRUE" if res.inside else "FALSE"
        detail["lambda_min"] = res.lam_min
    elif k == "interpolate":
        mode = InterpolationMode(str(opts.get("mode", "cp")).lower())
        res = interpolate(dec["A"], dec["B"], mode, **kw)
        status = _status_str(res.status)
        decision = res.feasible if res.status in (SolveStatus.FEASIBLE,
                                                  SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.choi is not None:
            witnesses["choi"] = _wit(res.choi.C)
    elif k == "dominate":
        res = dominates(dec["LA"], dec["LB"], isometry=dec["isometry"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        detail["isometry"] = res.isometry
        if res.certificate is not None:
            witnesses["V"] = _wit(res.certificate.V)
            witnesses["S_square"] = _wit(res.certificate.S_square)
    elif k == "polar":
        res = polar_membership(dec["Omega"], dec["X"], bounded=dec["bounded"],
                               **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.certificate is not None:
            witnesses["V"] = _wit(res.certificate.V)
    elif k == "drop":
        res = drop_membership(Spectrahedrop(dec["lift"]), dec["X"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.y_witness is not None:
            for i, y in enumerate(res.y_witness):
                witnesses[f"Y{i + 1}"] = _wit(y)
    elif k == "drop-polar":
        res = drop_polar_membership(Spectrahedrop(dec["lift"]), dec["A"],
                                    bounded=dec["bounded"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.certificate is not None:
            witnesses["V"] = _wit(res.certificate.V)
    elif k == "tracial":
        if dec["opp"]:
            res = opp_tracial_membership(dec["Y"], dec["B"], **kw)
        else:
            res = tracial_membership(dec["B"], dec["Y"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.witness is not None:
            witnesses["T"] = _wit(res.witness.T)
    elif k in ("thull", "cthull"):
        fn = thull_membership if k == "thull" else cthull_membership
        res = fn(dec["generators"], dec["B"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        detail["per_generator"] = [r.status.value for r in res.per_generator]
        detail["margins"] = [r.margin for r in res.per_generator]
        if res.choi is not None:
            witnesses["choi"] = _wit(res.choi.C)
    elif k == "exsitu":
        res = exsitu_dual_membership(dec["Omega"], dec["Y"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.choi is not None:
            witnesses["choi"] = _wit(res.choi.C)
    elif k == "possatz-verify":
        ok, resid = verify_certificate(dec["p"], dec["certificate"],
                                       dec["pencil"])
        decision = bool(ok)
        status = "TRUE" if ok else "FALSE"
        detail["coefficient_residual"] = float(resid)
    elif k == "possatz-search":
        res = search_certificate(dec["p"], dec["pencil"], dec["r"], **kw)
        status = _status_str(res.status)
        decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                               SolveStatus.INFEASIBLE) else None
        margin = res.margin
        if res.certificate is not None:
            witnesses["S"] = _wit(res.certificate.S)
            witnesses["G"] = _wit(res.certificate.G)
            detail["residual"] = res.residual
    elif k == "bounded":
        pencil = dec["pencil"]
        if pencil.h:
            bounded = drop_level1_bounded(Spectrahedrop(pencil), tol=tol,
                                          max_iter=max_iter)
        else:
            bounded = is_bounded(pencil, tol=tol, max_iter=max_iter)
        decision = bool(bounded)
        status = "BOUNDED" if bounded else "UNBOUNDED"
        detail["bounded"] = bool(bounded)
    elif k == "monicize":
        res = monicize(dec["pencil"], dec["xhat"])
        status = "OK"
        witnesses["pencil"] = encode_pencil(res.pencil)
        detail["shift"] = list(res.shift)
    elif k == "hull-union":
        hull = hull_of_union([Spectrahedrop(q) for q in dec["lifts"]],
                             tol=tol, max_iter=max_iter)
        witnesses["lift"] = encode_pencil(hull.lift)
        if "X" in dec:
            res = drop_membership(hull, dec["X"], **kw)
            status = _status_str(res.status)
            decision = bool(res) if res.status in (SolveStatus.FEASIBLE,
                                                   SolveStatus.INFEASIBLE) \
                else None
            margin = res.margin
        else:
            status = "OK"
    else:                                        # pragma: no cover
        raise ParseError(f"unhandled kind {k!r}")

    elapsed = time.perf_counter() - t0
    return Report(kind=k, status=status, decision=decision, margin=margin,
                  detail=detail, witnesses=witnesses,
                  timings={"seconds": elapsed},
                  tolerances={"tol": tol, "max_iter": max_iter,
                              "feas_tol": FEAS_TOL},
                  provenance=pf.to_dict())


def emit_corpus(directory) -> List[str]:
    """Write every worked-example problem file, the dual-grid reference CSV,
    and the expected-status manifest.  Returns the written file names."""
    return corpus.write_corpus(directory)
