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
from typing import Callable, Dict, List, Optional

import numpy as np

from . import corpus
from .algebra import (HermitianTuple, LinearPencil, NCPolynomial,
                      require_hermitian)
from .cp import InterpolationMode, interpolate
from .possatz import Certificate, search_certificate, verify_certificate
from .sdp import FEAS_TOL, Decision, SolveStatus
from .spectra import (Spectrahedrop, dominates, drop_level1_bounded,
                      drop_membership, drop_polar_membership, hull_of_union,
                      monicize, polar_membership, spectrahedron_membership)
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
    """A finite JSON number: NaN, Infinity, strings and integers beyond
    the float range are rejected."""
    try:
        if isinstance(v, (int, float)) and math.isfinite(v):
            return float(v)
    except OverflowError:
        pass
    raise ParseError(f"expected a finite number, got {v!r}", locus)


def encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": [float(x) for x in m.real.ravel()],
            "im": [float(x) for x in m.imag.ravel()]}


def decode_matrix(obj, locus: str = "matrix") -> np.ndarray:
    try:
        rows, cols = (_degree(obj[k], f"{locus}.{k}") for k in ("rows", "cols"))
        re, im = ([_float_in(v, f"{locus}.{k}[{i}]") for i, v in enumerate(obj[k])]
                  for k in ("re", "im"))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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
        return HermitianTuple([], dim=_degree(obj["dim"], f"{locus}.dim"))
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
    # the redundant fields encode_pencil writes must agree with the data
    for key, decode in (("monic", _flag(nullable=False)), ("d", _degree),
                        ("g", _degree), ("h", _degree)):
        want = getattr(pencil, key)
        if key in obj and decode(obj[key], f"{locus}.{key}") != want:
            raise ParseError(f"the pencil has {key} = {want!r}", f"{locus}.{key}")
    return pencil


def encode_polynomial(p: NCPolynomial) -> dict:
    return {"g": p.g, "rows": p.rows, "cols": p.cols,
            "terms": [{"word": list(w), "coeff": encode_matrix(c)}
                      for w, c in sorted(p.terms.items(),
                                         key=lambda kv: (len(kv[0]), kv[0]))]}


def decode_polynomial(obj, locus: str = "polynomial") -> NCPolynomial:
    try:
        g, rows, cols = (_degree(obj[k], f"{locus}.{k}")
                         for k in ("g", "rows", "cols"))
        terms = {tuple(_degree(l, f"{locus}.terms[{n}].word")
                       for l in t["word"]):
                 decode_matrix(t["coeff"], f"{locus}.terms")
                 for n, t in enumerate(obj.get("terms", []))}
    except ParseError:
        raise
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
        return Certificate(*(_degree(obj[k], f"{locus}.{k}")
                             for k in ("g", "d", "mu", "r")),
                           decode_matrix(obj["S"], f"{locus}.S"),
                           decode_matrix(obj["G"], f"{locus}.G"))
    except ParseError:
        raise
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
    # parse_problem's decoded payload, taken by the first run; a later run
    # decodes afresh, so no two runs share decoded objects (and their SDPs)
    _decoded: list = field(default_factory=list, init=False, repr=False,
                           compare=False)

    def to_dict(self) -> dict:
        return {"version": self.version, "kind": self.kind,
                "payload": self.payload, "options": self.options}

    def dumps(self) -> str:
        return dumps(self.to_dict())


def parse_problem(data) -> ProblemFile:
    """Validate a problem document (bytes, str, or dict)."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
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
    # validation pass, kept for the first run; errors carry a field locus
    pf._decoded.append(_decode_payload(pf))
    return pf


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


# ---------------------------------------------------------------------------
# dispatch: one table row per kind
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """How a kind is decoded, decided and reported.

    required: payload fields, passed to call positionally in this order.
    optional: payload field -> default, passed to call by keyword.
    call(*required, **optional, tol=, max_iter=, **options) runs the
    procedure; options are the problem options the kind reads, with their
    defaults.
    report(result) returns the kind's own Report fields; for a Decision
    result, run adds its status, decision and margin.
    """

    required: tuple
    optional: dict
    call: Callable
    report: Callable
    options: dict = field(default_factory=dict)


def _nonempty(decode, what: str):
    def decode_list(v, locus):
        if not isinstance(v, list) or not v:
            raise ParseError(f"need a nonempty {what} list", locus)
        return [decode(x, f"{locus}[{i}]") for i, x in enumerate(v)]
    return decode_list


def _flag(nullable: bool):
    """Decoder of a JSON true or false, and of null when nullable."""
    def decode(v, locus):
        if isinstance(v, bool) or (nullable and v is None):
            return v
        allowed = "true, false or null" if nullable else "true or false"
        raise ParseError(f"expected {allowed}, got {v!r}", locus)
    return decode


def _degree(v, locus, floor: int = 0) -> int:
    """A JSON integer >= floor (not a bool, not a float)."""
    if isinstance(v, bool) or not isinstance(v, int) or v < floor:
        raise ParseError(f"expected an integer >= {floor}, got {v!r}", locus)
    return v


def _positive(v, locus) -> float:
    """A finite JSON number > 0 (not a bool)."""
    if isinstance(v, bool) or not _float_in(v, locus) > 0:
        raise ParseError(f"expected a finite number > 0, got {v!r}", locus)
    return float(v)


# the decoder of every payload field, by name
_FIELDS = {
    **dict.fromkeys(("A", "B", "X", "Y", "Omega"), decode_tuple),
    **dict.fromkeys(("pencil", "LA", "LB"), decode_pencil),
    "lift": lambda v, locus: Spectrahedrop(decode_pencil(v, locus)),
    "generators": _nonempty(decode_tuple, "generator"),
    "lifts": _nonempty(decode_pencil, "lift"),
    "p": decode_polynomial,
    "certificate": decode_certificate,
    "r": _degree,
    "xhat": lambda v, locus: [_float_in(x, f"{locus}[{i}]")
                              for i, x in enumerate(v)],
    "opp": _flag(nullable=False),
    **dict.fromkeys(("isometry", "bounded"), _flag(nullable=True)),
}


def _mode(v, locus) -> InterpolationMode:
    """A JSON string naming an interpolation mode, in any case."""
    names = [m.value for m in InterpolationMode]
    if isinstance(v, str) and v.lower() in names:
        return InterpolationMode(v.lower())
    raise ParseError(f"expected one of {', '.join(names)}, got {v!r}", locus)


# the decoder of every problem option a kind reads, by name
_OPTIONS = {"mode": _mode}


def _decided(res) -> dict:
    """Status, yes/no decision (None unless FEASIBLE or INFEASIBLE) and
    margin of a Decision."""
    yes_no = res.status in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
    return {"status": res.status.value,
            "decision": bool(res) if yes_no else None,
            "margin": getattr(res, "margin", None)}


def _wits(obj, **attrs) -> dict:
    """Witness matrices obj.<attr> under their report keys; none if obj is
    None."""
    if obj is None:
        return {}
    return {key: encode_matrix(np.asarray(getattr(obj, attr)))
            for key, attr in attrs.items()}


def _choi_report(res) -> dict:
    return {"witnesses": _wits(res.choi, choi="C")}


def _v_report(res) -> dict:
    return {"witnesses": _wits(res.certificate, V="V")}


def _hull_report(res) -> dict:
    return {"detail": {"per_generator": [r.status.value
                                         for r in res.per_generator],
                       "margins": [r.margin for r in res.per_generator]},
            "witnesses": _wits(res.choi, choi="C")}


def _hull_union(lifts, X=None, **kw) -> dict:
    """Report fields of the hull's lift and, given X, of X's membership."""
    hull = hull_of_union([Spectrahedrop(q) for q in lifts], **kw)
    out = {"witnesses": {"lift": encode_pencil(hull.lift)}}
    if X is not None:
        out.update(_decided(drop_membership(hull, X, **kw)))
    return out


# Calls go through module-level names, so a patched or wrapped procedure
# is the one that runs.
_TABLE: Dict[str, _Kind] = {
    "membership": _Kind(
        ("pencil", "X"), {},
        lambda pencil, x, **kw: spectrahedron_membership(pencil, x),
        lambda r: {"status": "TRUE" if r.inside else "FALSE",
                   "decision": r.inside, "detail": {"lambda_min": r.lam_min}}),
    "interpolate": _Kind(
        ("A", "B"), {}, lambda *a, **kw: interpolate(*a, **kw), _choi_report,
        options={"mode": "cp"}),
    "dominate": _Kind(
        ("LA", "LB"), {"isometry": None},
        lambda *a, **kw: dominates(*a, **kw),
        lambda r: {"detail": {"isometry": r.isometry},
                   "witnesses": _wits(r.certificate, V="V",
                                      S_square="S_square")}),
    "polar": _Kind(
        ("Omega", "X"), {"bounded": None},
        lambda *a, **kw: polar_membership(*a, **kw), _v_report),
    "drop": _Kind(
        ("lift", "X"), {}, lambda *a, **kw: drop_membership(*a, **kw),
        lambda r: {"witnesses": {f"Y{i + 1}": encode_matrix(y) for i, y
                                 in enumerate(r.y_witness or ())}}),
    "drop-polar": _Kind(
        ("lift", "A"), {"bounded": None},
        lambda *a, **kw: drop_polar_membership(*a, **kw), _v_report),
    "tracial": _Kind(
        ("B", "Y"), {"opp": False},
        lambda b, y, opp, **kw: opp_tracial_membership(y, b, **kw) if opp
        else tracial_membership(b, y, **kw),
        lambda r: {"witnesses": _wits(r.witness, T="T")}),
    "thull": _Kind(
        ("generators", "B"), {},
        lambda *a, **kw: thull_membership(*a, **kw), _hull_report),
    "cthull": _Kind(
        ("generators", "B"), {},
        lambda *a, **kw: cthull_membership(*a, **kw), _hull_report),
    "exsitu": _Kind(
        ("Omega", "Y"), {},
        lambda *a, **kw: exsitu_dual_membership(*a, **kw), _choi_report),
    "possatz-verify": _Kind(                 # result: (ok, residual)
        ("p", "certificate", "pencil"), {},
        lambda *a, **kw: verify_certificate(*a),
        lambda r: {"status": "TRUE" if r[0] else "FALSE",
                   "decision": bool(r[0]),
                   "detail": {"coefficient_residual": float(r[1])}}),
    "possatz-search": _Kind(
        ("p", "pencil", "r"), {},
        lambda *a, **kw: search_certificate(*a, **kw),
        lambda r: {"detail": {} if r.certificate is None
                   else {"residual": r.residual},
                   "witnesses": _wits(r.certificate, S="S", G="G")}),
    "bounded": _Kind(
        ("pencil",), {},
        lambda pencil, **kw: drop_level1_bounded(Spectrahedrop(pencil), **kw),
        lambda b: {"status": "BOUNDED" if b else "UNBOUNDED",
                   "decision": bool(b), "detail": {"bounded": bool(b)}}),
    "monicize": _Kind(
        ("pencil", "xhat"), {}, lambda *a, **kw: monicize(*a),
        lambda r: {"detail": {"shift": list(r.shift)},
                   "witnesses": {"pencil": encode_pencil(r.pencil)}}),
    "hull-union": _Kind(
        ("lifts",), {"X": None}, _hull_union, lambda fields: fields),
}

KINDS = tuple(_TABLE)


def _decode_field(name: str, value):
    locus = f"payload.{name}"
    try:
        return _FIELDS[name](value, locus)
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed field ({exc})", locus)


def _decode_payload(pf: ProblemFile):
    """Decoded (required values, optional values) of the problem's payload;
    errors carry the field's locus."""
    spec = _TABLE[pf.kind]
    p = pf.payload
    for name in spec.required:
        if name not in p:
            raise ParseError(f"missing field {name!r}", f"payload ({pf.kind})")
    return ([_decode_field(name, p[name]) for name in spec.required],
            {name: _decode_field(name, p[name]) if name in p else default
             for name, default in spec.optional.items()})


def run(pf: ProblemFile) -> Report:
    """Dispatch a parsed problem to its decision procedure."""
    opts = pf.options
    tol = _positive(opts.get("tol", 1e-8), "options.tol")
    max_iter = _degree(opts.get("max_iter", 200), "options.max_iter", floor=1)
    spec = _TABLE[pf.kind]
    args, kwargs = pf._decoded.pop() if pf._decoded else _decode_payload(pf)
    t0 = time.perf_counter()
    res = spec.call(*args, **kwargs, tol=tol, max_iter=max_iter,
                    **{k: _OPTIONS[k](opts[k], f"options.{k}") if k in opts
                       else v for k, v in spec.options.items()})
    fields = _decided(res) if isinstance(res, Decision) else \
        {"status": "OK", "decision": None}
    fields.update(spec.report(res))
    elapsed = time.perf_counter() - t0
    return Report(kind=pf.kind, **fields, timings={"seconds": elapsed},
                  tolerances={"tol": tol, "max_iter": max_iter,
                              "feas_tol": FEAS_TOL},
                  provenance=pf.to_dict())


def emit_corpus(directory) -> List[str]:
    """Write every worked-example problem file, the dual-grid reference CSV,
    and the expected-status manifest.  Returns the written file names."""
    return corpus.write_corpus(directory)
