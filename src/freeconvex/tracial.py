"""Tracial spectrahedra, tracial and contractively tracial hulls, and the
ex situ tracial dual of a free spectrahedron.

A tracial spectrahedron is the set of tuples Y admitting a PSD witness T
with tr(T) <= 1 and I (x) T - sum B_j (x) Y_j >= 0; fixing Y and querying B
gives the opp variant.  Hull membership questions reduce to the trace
preserving / trace non-increasing interpolation solvers; for finite
generator sets they are decided one generator at a time, because those
hulls are unions, not convex sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import HermitianTuple, hermitian_part, psd_part
from .cp import (ChoiMatrix, InterpolationMode, InterpolationResult,
                 interpolate)
from .sdp import Decision, HermitianProblem, SolveStatus

__all__ = [
    "TracialWitness",
    "TracialMembership",
    "HullMembership",
    "tracial_membership",
    "opp_tracial_membership",
    "thull_membership",
    "cthull_membership",
    "exsitu_dual_membership",
    "insitu_dual_check",
]


@dataclass(frozen=True)
class TracialWitness:
    """PSD matrix T with tr(T) <= 1 certifying tracial membership."""

    T: np.ndarray

    def __post_init__(self):
        t = hermitian_part(self.T)
        lam = float(np.linalg.eigvalsh(t)[0]) if t.size else 0.0
        if lam < -1e-8:
            raise ValueError(f"witness is not PSD (lambda_min {lam:.2e})")
        if float(np.trace(t).real) > 1 + 1e-8:
            raise ValueError("witness trace exceeds 1")
        t.setflags(write=False)
        object.__setattr__(self, "T", t)


@dataclass
class TracialMembership(Decision):
    """A FEASIBLE answer ships the checked T of a :class:`TracialWitness`
    as ``witness["T"]``."""


def tracial_membership(b: HermitianTuple, y: HermitianTuple, tol: float = 1e-8,
                       max_iter: int = 200) -> TracialMembership:
    """Is Y in the tracial spectrahedron determined by the fixed tuple B,
    i.e. is {T >= 0, tr T <= 1, I (x) T - sum B_j (x) Y_j >= 0} feasible?

    T lives on the second tensor factor, so its size is dim(Y).  The trace
    bound is used in inequality form; the definition with equality carves
    out the same set and the slack is numerically kinder.
    """
    if b.g != y.g:
        raise ValueError("tuples must share the variable count")
    k = b.dim or 1
    m = y.dim or 1
    hp = HermitianProblem()
    hp.add_block("T", m)
    hp.add_block("P", k * m)
    hp.add_block("s", 1)
    const = np.zeros((k * m, k * m), dtype=complex)
    for bj, yj in zip(b, y):
        const -= np.kron(np.asarray(bj), yj)
    hp.add_matrix_eq([("entry", "P", 1.0), ("kron_block", -np.eye(k), "T")],
                     hermitian_part(const))
    hp.add_scalar_row({"T": np.eye(m), "s": np.eye(1)}, 1.0)
    sol = hp.solve(tol=tol, max_iter=max_iter)
    witness = {}
    if sol.feasible:
        t = psd_part(sol.witness["T"])
        tr = float(np.trace(t).real)
        if tr > 1.0:
            t = t / tr
        witness["T"] = TracialWitness(t).T
    return TracialMembership(sol.status, sol.margin, witness, info=sol.info)


def opp_tracial_membership(y: HermitianTuple, b: HermitianTuple,
                           tol: float = 1e-8,
                           max_iter: int = 200) -> TracialMembership:
    """Is B in the opp tracial spectrahedron of the fixed tuple Y?

    Same matrix inequality with the roles of the fixed and queried tuples
    swapped; the witness still lives on Y's tensor factor.
    """
    return tracial_membership(b, y, tol, max_iter)


# ---------------------------------------------------------------------------
# hulls through interpolation
# ---------------------------------------------------------------------------


Generators = Union[HermitianTuple, Sequence[HermitianTuple]]


@dataclass
class HullMembership(Decision):
    """Disjunction over generators: B is in the hull iff some generator
    maps onto it by a cp map of the requested kind.  ``detail`` lists each
    generator's status and margin, the margin is the largest of these, and
    a FEASIBLE answer ships the first feasible generator's Choi matrix."""

    @property
    def choi(self) -> Optional[ChoiMatrix]:
        return self.witness.get("choi")


def _hull(a: Generators, b: HermitianTuple, mode: InterpolationMode,
          tol: float, max_iter: int) -> HullMembership:
    """Status by precedence: a FEASIBLE generator, then an ERROR, then a
    MARGINAL one, else INFEASIBLE."""
    results = [interpolate(gen, b, mode, tol=tol, max_iter=max_iter)
               for gen in ([a] if isinstance(a, HermitianTuple) else a)]
    statuses = [r.status for r in results]
    status = next((s for s in (SolveStatus.FEASIBLE, SolveStatus.ERROR,
                               SolveStatus.MARGINAL) if s in statuses),
                  SolveStatus.INFEASIBLE)
    margins = [r.margin for r in results]
    return HullMembership(
        status, max((m for m in margins if m is not None), default=None),
        next((r.witness for r in results if r.feasible), {}),
        {"per_generator": [s.value for s in statuses], "margins": margins},
        {"per_generator": [r.info for r in results]})


def thull_membership(a: Generators, b: HermitianTuple, tol: float = 1e-8,
                     max_iter: int = 200) -> HullMembership:
    """B in the tracial hull of the generator(s): some trace preserving cp
    map sends a generator onto B.  Finite-set hulls are unions, hence the
    per-generator disjunction."""
    return _hull(a, b, InterpolationMode.CHANNEL, tol, max_iter)


def cthull_membership(a: Generators, b: HermitianTuple, tol: float = 1e-8,
                      max_iter: int = 200) -> HullMembership:
    """B in the contractive tracial hull: same with trace non-increasing."""
    return _hull(a, b, InterpolationMode.OPERATION, tol, max_iter)


# ---------------------------------------------------------------------------
# tracial duals
# ---------------------------------------------------------------------------


def exsitu_dual_membership(omega: HermitianTuple, y: HermitianTuple,
                           tol: float = 1e-8,
                           max_iter: int = 200) -> InterpolationResult:
    """Y in the ex situ tracial dual of the spectrahedron of I - sum W_j x_j.

    Membership means Y = sum C_l* W C_l with tr(sum C_l* C_l) <= 1, i.e. a
    cp map sending the pencil tuple to Y whose Choi matrix has trace at most
    one (the Choi trace equals the Kraus trace sum).
    """
    return interpolate(omega, y, InterpolationMode.CP, tol=tol,
                       max_iter=max_iter, extra_psd_choi_trace=1.0)


def insitu_dual_check(sample: Sequence[HermitianTuple], b: HermitianTuple,
                      tol: float = 1e-8, max_iter: int = 200) -> bool:
    """Necessary condition for B to lie in the in situ tracial dual of a set
    K, tested against a finite sample of K only: every sampled Y must admit
    a tracial witness against B.  A True answer is not conclusive for
    infinite K; a False answer is."""
    return all(tracial_membership(b, y, tol=tol, max_iter=max_iter)
               for y in sample)
