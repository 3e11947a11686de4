"""Spans around the public entry points of the freeconvex modules.

The tracer replaces each public function (and a few public methods) with a
wrapper in every ``freeconvex`` module namespace that holds it, so calls that
resolve a module global, such as the re-solve inside ``solve_feasibility`` or
the ``realify`` that ``sdp`` imported from ``algebra``, go through the
wrapper too.  Nothing in ``src/`` changes, and ``restore`` puts every
original back.

Spans are recorded only while a decision is running (``decision`` is set),
so the benchmark's own input generation and witness checks, which call some
of the same functions, are not attributed to the layers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("algebra", "sdp", "cp", "spectra", "tracial", "possatz", "io")

FUNCTIONS = {
    "algebra": ("realify", "derealify", "evaluate_pencil",
                "evaluate_polynomial", "lambda_min", "kron", "monic_tuple",
                "pencil_from_tuple", "direct_sum", "involution",
                "ball_pencil"),
    "sdp": ("solve", "solve_feasibility", "symkron", "build_from_complex"),
    "cp": ("interpolate", "interpolation_problem", "choi_of_kraus",
           "kraus_of_choi", "apply_choi"),
    "spectra": ("spectrahedron_membership", "is_bounded",
                "drop_level1_bounded", "dominates", "polar_membership",
                "drop_membership", "drop_polar_membership", "monicize",
                "polar_dual_lift", "hull_of_union"),
    "tracial": ("tracial_membership", "opp_tracial_membership",
                "thull_membership", "cthull_membership",
                "exsitu_dual_membership"),
    "possatz": ("search_certificate", "verify_certificate",
                "expand_certificate"),
    "io": ("parse_problem", "run"),
}

METHODS = {
    "sdp": (("HermitianProblem", ("build", "solve", "add_matrix_eq",
                                  "add_complex_row", "add_scalar_row")),
            ("ProblemBuilder", ("build",))),
    "io": (("Report", ("to_json",)),),
}

_SOLVES = ("sdp.solve", "sdp.solve_feasibility")
_FAILED_STATUSES = ("ERROR", "MARGINAL")


def _failed(result) -> bool:
    status = getattr(result, "status", None)
    return getattr(status, "value", status) in _FAILED_STATUSES


class Tracer:
    """Wraps the public entry points and aggregates spans per name."""

    def __init__(self):
        self.decision = None          # id of the running decision, or None
        self.spans = []               # (name, start, end, parent, decision)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, s, self_s, failed
        self.sdp = defaultdict(float)  # counts read from built problems and solutions
        self._stack = []              # open spans: [index, child seconds, name]
        self._patched = []            # (owner, attribute, original)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.decision is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [len(self.spans), 0.0, name]
            self.spans.append(None)
            self._stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = _failed(result)
                if name in _SOLVES:
                    self._count_solve(name, parent, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = end - start
                if parent is not None:
                    parent[1] += span
                self.spans[frame[0]] = (name, start, end,
                                        parent[0] if parent else None,
                                        self.decision)
                st = self.stats[name]
                st[0] += 1
                st[1] += span
                st[2] += span - frame[1]
                st[3] += failed

        wrapper.__wrapped__ = fn
        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self):
        """Wrap every listed name that exists; returns how many were wrapped."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "freeconvex" or key.startswith("freeconvex.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"freeconvex.{layer}")
            for attr in FUNCTIONS.get(layer, ()):
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, key, orig))
                            setattr(m, key, wrapper)
            for cls_name, attrs in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                for attr in attrs:
                    orig = vars(cls).get(attr) if cls is not None else None
                    if orig is None:
                        continue
                    self._patched.append((cls, attr, orig))
                    setattr(cls, attr,
                            self._wrap(f"{layer}.{cls_name}.{attr}", orig))
        return len(self._patched)

    def restore(self):
        """Put every original back; returns (slots restored, wrappers left)."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        restored = sum(vars(owner).get(attr) is orig
                       for owner, attr, orig in self._patched)
        left = 0
        for key, m in list(sys.modules.items()):
            if key == "freeconvex" or key.startswith("freeconvex."):
                for val in vars(m).values():
                    left += hasattr(val, "__perfbench_span__")
                    if isinstance(val, type):
                        left += sum(hasattr(v, "__perfbench_span__")
                                    for v in vars(val).values())
        self._patched = []
        return restored, left

    # -- counts read from the solver's inputs and outputs ----------------------

    def _count_solve(self, name, parent, args, kwargs, result):
        parent_name = parent[2] if parent else None
        if name == "sdp.solve_feasibility":
            if parent_name == "sdp.solve_feasibility":
                self.sdp["resolves"] += 1
            else:
                self.sdp["chains"] += 1
        if parent_name in _SOLVES:
            return
        problem = args[0] if args else kwargs["problem"]
        info = getattr(result, "info", {}) or {}
        self.sdp["top_level_solves"] += 1
        self.sdp["rows_total"] += problem.m
        self.sdp["block_max"] = max(self.sdp["block_max"],
                                    max((s for _, s in problem.blocks), default=0))
        self.sdp["loose"] += bool(info.get("loose"))
        self.sdp["rescued"] += bool(info.get("rescued"))
        self.sdp["iterations_total"] += getattr(result, "iterations", 0)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict:
        """Every per-name and per-layer figure, keyed by metric name.

        Names that were never called (or no longer exist) read 0.
        """
        out = {}
        layer_tot = {layer: [0, 0.0, 0] for layer in LAYERS}
        names = [f"{layer}.{a}" for layer in LAYERS for a in FUNCTIONS.get(layer, ())]
        names += [f"{layer}.{c}.{a}" for layer in LAYERS
                  for c, attrs in METHODS.get(layer, ()) for a in attrs]
        for name in names:
            calls, span, self_s, failed = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = span
            out[f"{name}.self_s"] = self_s
            out[f"{name}.failed"] = failed
            tot = layer_tot[name.split(".")[0]]
            tot[0] += calls
            tot[1] += self_s
            tot[2] += failed
        for layer, (calls, self_s, failed) in layer_tot.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.failed"] = failed
        c = self.sdp
        top = c["top_level_solves"]
        chains, resolves = c["chains"], c["resolves"]
        out["sdp.top_level_solves"] = int(top)
        out["sdp.solve_feasibility.resolves"] = int(resolves)
        out["sdp.first_solve_ratio"] = chains / (chains + resolves) \
            if chains + resolves else 0.0
        out["sdp.rows"] = c["rows_total"] / top if top else 0.0
        out["sdp.block_max"] = int(c["block_max"])
        out["sdp.loose"] = int(c["loose"])
        out["sdp.rescued"] = int(c["rescued"])
        out["sdp.iterations_last_attempt"] = c["iterations_total"] / top if top else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path, origin):
        """One JSON object per line; times are seconds after ``origin``."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, decision) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "decision": decision}))
                fh.write("\n")
