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
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from . import corpus
from .algebra import (HermitianTuple, LinearPencil, NCPolynomial,
                      require_hermitian)
from .cp import ChoiMatrix, InterpolationMode, interpolate
from .possatz import Certificate, search_certificate, verify_certificate
from .sdp import FEAS_TOL, Decision, SolveStatus
from .spectra import (DominationCertificate, Spectrahedrop, dominates,
                      drop_level1_bounded, drop_membership,
                      drop_polar_membership, hull_of_union, monicize,
                      polar_membership, spectrahedron_membership)
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


# the matrices a certificate is reported as, by its type
_CERTIFICATE_MATRICES = {Certificate: ("S", "G"),
                         DominationCertificate: ("V", "S_square")}


def encode_witnesses(witness: dict) -> dict:
    """The report entries of a Decision's witness map, by each value's
    type: a tuple named N as N1, N2, ...; a certificate as its matrices,
    under their own names; a pencil whole; a Choi matrix or a matrix as
    one matrix."""
    out = {}
    for name, w in witness.items():
        if isinstance(w, HermitianTuple):
            out.update((f"{name}{i + 1}", encode_matrix(m))
                       for i, m in enumerate(w))
        elif type(w) in _CERTIFICATE_MATRICES:
            out.update((k, encode_matrix(getattr(w, k)))
                       for k in _CERTIFICATE_MATRICES[type(w)])
        elif isinstance(w, LinearPencil):
            out[name] = encode_pencil(w)
        else:
            out[name] = encode_matrix(w.C if isinstance(w, ChoiMatrix) else w)
    return out


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
        return {"MARGINAL": 2, "ERROR": 3}.get(self.status, 0)

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
    """How a kind is decoded and decided.

    required: payload fields, passed to call positionally in this order.
    optional: payload field -> default, passed to call by keyword.
    call(*required, **optional, tol=, max_iter=, **options) returns the
    kind's Decision, which run reports; options are the problem options
    the kind reads, with their defaults.
    labels: the (yes, no) statuses a kind reports for FEASIBLE and
    INFEASIBLE, when its answers are named otherwise.
    """

    required: tuple
    optional: dict
    call: Callable
    options: dict = field(default_factory=dict)
    labels: Optional[tuple] = None


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


def _yes_no(yes, **detail) -> Decision:
    """The Decision of a procedure that answers with a bool."""
    return Decision(SolveStatus.FEASIBLE if yes else SolveStatus.INFEASIBLE,
                    detail=detail)


def _verify(p, cert, pencil, **kw) -> Decision:
    ok, resid = verify_certificate(p, cert, pencil)
    return _yes_no(ok, coefficient_residual=float(resid))


def _bounded(pencil, **kw) -> Decision:
    bounded = bool(drop_level1_bounded(Spectrahedrop(pencil), **kw))
    return _yes_no(bounded, bounded=bounded)


def _monicize(pencil, xhat, **kw) -> Decision:
    res = monicize(pencil, xhat)
    return Decision(SolveStatus.OK, witness={"pencil": res.pencil},
                    detail={"shift": list(res.shift)})


def _hull_union(lifts, X=None, **kw) -> Decision:
    """The hull's lift and, given X, X's membership in the hull."""
    hull = hull_of_union([Spectrahedrop(q) for q in lifts], **kw)
    res = Decision(SolveStatus.OK) if X is None else \
        drop_membership(hull, X, **kw)
    return replace(res, witness={"lift": hull.lift, **res.witness})


# Calls go through module-level names, so a patched or wrapped procedure
# is the one that runs.
_TABLE: Dict[str, _Kind] = {
    "membership": _Kind(
        ("pencil", "X"), {},
        lambda pencil, x, **kw: spectrahedron_membership(pencil, x),
        labels=("TRUE", "FALSE")),
    "interpolate": _Kind(
        ("A", "B"), {}, lambda *a, **kw: interpolate(*a, **kw),
        options={"mode": "cp"}),
    "dominate": _Kind(
        ("LA", "LB"), {"isometry": None},
        lambda *a, **kw: dominates(*a, **kw)),
    "polar": _Kind(
        ("Omega", "X"), {"bounded": None},
        lambda *a, **kw: polar_membership(*a, **kw)),
    "drop": _Kind(
        ("lift", "X"), {}, lambda *a, **kw: drop_membership(*a, **kw)),
    "drop-polar": _Kind(
        ("lift", "A"), {"bounded": None},
        lambda *a, **kw: drop_polar_membership(*a, **kw)),
    "tracial": _Kind(
        ("B", "Y"), {"opp": False},
        lambda b, y, opp, **kw: opp_tracial_membership(y, b, **kw) if opp
        else tracial_membership(b, y, **kw)),
    "thull": _Kind(
        ("generators", "B"), {},
        lambda *a, **kw: thull_membership(*a, **kw)),
    "cthull": _Kind(
        ("generators", "B"), {},
        lambda *a, **kw: cthull_membership(*a, **kw)),
    "exsitu": _Kind(
        ("Omega", "Y"), {},
        lambda *a, **kw: exsitu_dual_membership(*a, **kw)),
    "possatz-verify": _Kind(
        ("p", "certificate", "pencil"), {}, _verify, labels=("TRUE", "FALSE")),
    "possatz-search": _Kind(
        ("p", "pencil", "r"), {},
        lambda *a, **kw: search_certificate(*a, **kw)),
    "bounded": _Kind(("pencil",), {}, _bounded,
                     labels=("BOUNDED", "UNBOUNDED")),
    "monicize": _Kind(("pencil", "xhat"), {}, _monicize),
    "hull-union": _Kind(("lifts",), {"X": None}, _hull_union),
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
    decided = res.status in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
    status = res.status.value
    if decided and spec.labels:
        status = spec.labels[not res]
    witnesses = encode_witnesses(res.witness)
    elapsed = time.perf_counter() - t0
    return Report(pf.kind, status, bool(res) if decided else None, res.margin,
                  res.detail, witnesses, timings={"seconds": elapsed},
                  tolerances={"tol": tol, "max_iter": max_iter,
                              "feas_tol": FEAS_TOL},
                  provenance=pf.to_dict())


def emit_corpus(directory) -> List[str]:
    """Write every worked-example problem file, the dual-grid reference CSV,
    and the expected-status manifest.  Returns the written file names."""
    return corpus.write_corpus(directory)
