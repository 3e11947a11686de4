"""Choi matrices, Kraus decompositions, and completely positive
interpolation between Hermitian tuples.

A linear map Phi: M_n -> M_m is stored through its Choi matrix, the mn x mn
Hermitian block matrix C with m x m blocks C_pq = Phi(E_pq).  Phi is
completely positive exactly when C >= 0, and then C = sum_l w_l w_l* yields
Kraus operators V_l (n x m) with Phi(X) = sum_l V_l* X V_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .algebra import HermitianTuple, psd_part, require_hermitian
from .sdp import Decision, HermitianProblem

__all__ = [
    "ChoiMatrix",
    "KrausDecomposition",
    "InterpolationMode",
    "InterpolationResult",
    "choi_of_kraus",
    "kraus_of_choi",
    "apply_choi",
    "interpolate",
    "NotCompletelyPositive",
]


class NotCompletelyPositive(ValueError):
    """Raised when a Choi matrix is not positive semidefinite."""


class InterpolationMode(Enum):
    """The kind of cp map sought.

    UNITAL and SUBUNITAL constrain Phi(I) in M_m (Phi(I) = I, Phi(I) <= I);
    CHANNEL and OPERATION constrain the trace, i.e. the dual map (trace
    preserving, trace non-increasing).  SUBUNITAL is the contractive form
    behind domination and polar duals of unbounded sets; OPERATION is the
    one behind contractive tracial hulls.
    """

    CP = "cp"                 # any completely positive map
    UNITAL = "unital"         # Phi(I) = I
    SUBUNITAL = "subunital"   # Phi(I) <= I
    CHANNEL = "channel"       # trace preserving
    OPERATION = "operation"   # trace non-increasing on PSD inputs


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a map M_n -> M_m, blocks C_pq = Phi(E_pq)."""

    n: int
    m: int
    C: np.ndarray

    def __post_init__(self):
        c = require_hermitian(self.C, what="Choi matrix")
        if c.shape[0] != self.n * self.m:
            raise ValueError(f"Choi matrix must have size n*m = {self.n * self.m}")
        c.setflags(write=False)
        object.__setattr__(self, "C", c)

    def block(self, p: int, q: int) -> np.ndarray:
        m = self.m
        return self.C[p * m:(p + 1) * m, q * m:(q + 1) * m]

    def as_tensor(self) -> np.ndarray:
        """Shape (n, m, n, m): indices (p, i, q, j)."""
        return self.C.reshape(self.n, self.m, self.n, self.m)

    def lambda_min(self) -> float:
        return float(np.linalg.eigvalsh(self.C)[0])

    def trace_matrix(self) -> np.ndarray:
        """(tr C_pq)_pq, the n x n matrix deciding the trace conditions."""
        return np.trace(self.as_tensor(), axis1=1, axis2=3)

    def block_sum_diag(self) -> np.ndarray:
        """sum_p C_pp = Phi(I_n)."""
        return sum(self.block(p, p) for p in range(self.n))


@dataclass(frozen=True)
class KrausDecomposition:
    """Operators V_l (n x m) realizing Phi(X) = sum_l V_l* X V_l."""

    n: int
    m: int
    ops: tuple

    def __init__(self, ops: Sequence[np.ndarray], n: Optional[int] = None,
                 m: Optional[int] = None):
        mats = tuple(np.array(v, dtype=complex) for v in ops)
        if mats:
            n, m = mats[0].shape
            if any(v.shape != (n, m) for v in mats):
                raise ValueError("all Kraus operators must share one shape")
        elif n is None or m is None:
            raise ValueError("empty decomposition needs explicit n, m")
        for v in mats:
            v.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ops", mats)

    def __len__(self):
        return len(self.ops)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.m, self.m), dtype=complex)
        for v in self.ops:
            out += v.conj().T @ x @ v
        return out

    def stacked(self) -> np.ndarray:
        """Column-stacked V = col(V_1, ..., V_mu), so V*V = Phi(I)."""
        if not self.ops:
            return np.zeros((0, self.m), dtype=complex)
        return np.vstack(self.ops)


def choi_of_kraus(k: KrausDecomposition) -> ChoiMatrix:
    """C_pq = sum_l V_l* E_pq V_l; one rank-one slab per Kraus operator."""
    n, m = k.n, k.m
    c = np.zeros((n * m, n * m), dtype=complex)
    for v in k.ops:
        w = v.conj().reshape(n * m)
        c += np.outer(w, w.conj())
    return ChoiMatrix(n, m, c)


def kraus_of_choi(c: ChoiMatrix, rank_tol: float = 1e-10) -> KrausDecomposition:
    """Eigendecomposition-derived Kraus operators; count = numerical rank."""
    w, vecs = np.linalg.eigh(c.C)
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -max(rank_tol, rank_tol * lam_max):
        raise NotCompletelyPositive(
            f"not completely positive: Choi eigenvalue {w[0]:.3e}")
    ops = []
    for lam, vec in zip(w, vecs.T):
        if lam > rank_tol * max(lam_max, 1e-300):
            ops.append(np.sqrt(lam) * vec.conj().reshape(c.n, c.m))
    return KrausDecomposition(ops, n=c.n, m=c.m)


def apply_choi(c: ChoiMatrix, x: np.ndarray) -> np.ndarray:
    """Phi(X) = sum_pq X_pq C_pq."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (c.n, c.n):
        raise ValueError(f"input must be {c.n} x {c.n}")
    return np.einsum("pq,piqj->ij", x, c.as_tensor())


@dataclass
class InterpolationResult(Decision):
    """Outcome of a cp interpolation query; a FEASIBLE answer ships its
    Choi matrix as ``witness["choi"]``."""

    mode: Optional[InterpolationMode] = None

    @property
    def choi(self) -> Optional[ChoiMatrix]:
        return self.witness.get("choi")


def _coerce_mode(mode) -> InterpolationMode:
    if isinstance(mode, InterpolationMode):
        return mode
    return InterpolationMode(str(mode).lower())


def interpolation_problem(a: HermitianTuple, b: HermitianTuple,
                          mode: InterpolationMode,
                          extra_psd_choi_trace: Optional[float] = None,
                          annihilate: Optional[HermitianTuple] = None):
    """Assemble the Choi-variable feasibility problem Phi(A_j) = B_j.

    Row group j (as ``add_matrix_eq`` numbers it) is Phi(A_j) = B_j, so the
    problem can be solved again for other targets of the same size.
    `annihilate` adds Phi(G_k) = 0 for each of its matrices.  The optional
    trace bound tr(C) <= value supports the ex situ tracial dual; it is
    encoded with a scalar slack block, and its row in the Choi block's
    factor form.
    """
    if a.g != b.g:
        raise ValueError(f"tuples have different lengths {a.g} vs {b.g}")
    n, m = a.dim, b.dim
    if annihilate is not None and annihilate.g and annihilate.dim != n:
        raise ValueError(f"annihilated matrices must be {n} x {n}")
    hp = HermitianProblem()
    hp.add_block("C", n * m)
    for aj, bj in zip(a, b):
        hp.add_matrix_eq([("apply", "C", aj, m)], bj)
    for gk in annihilate or ():
        hp.add_matrix_eq([("apply", "C", gk, m)], np.zeros((m, m)))
    if mode is InterpolationMode.UNITAL:
        hp.add_matrix_eq([("apply", "C", np.eye(n), m)], np.eye(m))
    elif mode is InterpolationMode.SUBUNITAL:
        hp.add_block("D", m)
        hp.add_matrix_eq([("apply", "C", np.eye(n), m), ("entry", "D", 1.0)],
                         np.eye(m))
    elif mode is InterpolationMode.CHANNEL:
        hp.add_matrix_eq([("blocktrace", "C", m, 1.0)], np.eye(n))
    elif mode is InterpolationMode.OPERATION:
        hp.add_block("D", n)
        hp.add_matrix_eq([("blocktrace", "C", m, 1.0), ("entry", "D", 1.0)],
                         np.eye(n))
    if extra_psd_choi_trace is not None:
        # tr C = sum_r tr(I_n (x) E_rr C): one row of m units of the factor
        # form, so the Choi block keeps it
        hp.add_block("s", 1)
        hp.add_complex_row({"s": np.ones((1, 1, 1))},
                           [float(extra_psd_choi_trace)],
                           kron={"C": (np.eye(n)[None], np.arange(n * m),
                                       np.zeros(m), np.arange(m) * (m + 1))})
    return hp


def interpolate(a: HermitianTuple, b: HermitianTuple, mode=InterpolationMode.CP,
                tol: float = 1e-8, max_iter: int = 200,
                extra_psd_choi_trace: Optional[float] = None,
                annihilate: Optional[HermitianTuple] = None
                ) -> InterpolationResult:
    """Decide existence of a cp map of the requested kind with Phi(A_j) = B_j
    and, when `annihilate` is given, Phi(G_k) = 0.

    The mode is one of cp, unital (Phi(I) = I), subunital (Phi(I) <= I),
    channel (trace preserving) or operation (trace non-increasing).
    FEASIBLE answers carry a positive semidefinite Choi witness satisfying
    the interpolation constraints to working precision; INFEASIBLE answers
    carry the signed phase-I margin, so decisive rejections are
    distinguishable from near-boundary ones.
    """
    mode = _coerce_mode(mode)
    hp = interpolation_problem(a, b, mode,
                               extra_psd_choi_trace=extra_psd_choi_trace,
                               annihilate=annihilate)
    return _solve_interpolation(hp, mode, a.dim, b.dim, tol, max_iter)


def _solve_interpolation(hp: HermitianProblem, mode: InterpolationMode,
                         n: int, m: int, tol: float, max_iter: int,
                         rhs=None) -> InterpolationResult:
    """Solve an :func:`interpolation_problem` for maps M_n -> M_m, with the
    row groups in ``rhs`` given new targets (see HermitianProblem.solve),
    and wrap the answer with its Choi witness."""
    sol = hp.solve(tol=tol, max_iter=max_iter, rhs=rhs)
    witness = {}
    if sol.feasible:
        witness["choi"] = ChoiMatrix(n, m, psd_part(sol.witness["C"]))
    return InterpolationResult(sol.status, sol.margin, witness, info=sol.info,
                               mode=mode)
