"""Self-contained dense semidefinite feasibility engine.

Real symmetric and complex Hermitian PSD blocks and affine equality
constraints.  The core is a homogeneous self-dual interior-point method
with Nesterov-Todd scaling and a Mehrotra predictor-corrector, so an
unbounded margin is detected through a certificate (a ray) instead of a
big-M construction.

Feasibility questions are decided through a phase-I problem

    maximize t  subject to  Z_b - t I >= 0 for every block, equalities,

whose optimal value t* is the reported margin: FEASIBLE above +FEAS_TOL,
INFEASIBLE below -FEAS_TOL, and inside the band only a verified boundary
witness may promote the answer to FEASIBLE (otherwise MARGINAL).  Every
FEASIBLE answer is re-verified by an independent eigenvalue and residual
check against the original rows before it is returned.

A problem keeps the presolve of its last solve in its private memo, which
every problem :func:`dataclasses.replace` makes from it shares, so a solve
with only a new rhs pays for that rhs alone; nothing is cached at module
level.  How the engine works (native Hermitian blocks, the elimination of
the phase-I slack, the two Schur complement routes, the NT step, normalized
units and the 1e-11 re-solve, the kept operator half and the row
factorization) is explained in the Notes of README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lapack

from .algebra import psd_part, require_hermitian

__all__ = [
    "SolveStatus",
    "SolverError",
    "Decision",
    "SDPProblem",
    "SDPSolution",
    "solve",
    "solve_feasibility",
    "HermitianProblem",
    "build_from_complex",
    "FEAS_TOL",
]

FEAS_TOL = 1e-7          # width of the MARGINAL band around t* = 0
_WITNESS_EQ_TOL = 1e-7   # FEASIBLE witnesses must satisfy equalities to this
_WITNESS_EIG_TOL = 1e-8  # ... and have lambda_min >= -this
# The IPM stops on its residual tests at max(tol, _RESID_TOL_FLOOR) and on
# its relative gap at max(tol, _GAP_TOL_FLOOR): a tol below 1e-7 tightens
# only the gap test, and no further than 1e-9.
_RESID_TOL_FLOOR = 1e-7
_GAP_TOL_FLOOR = 1e-9


class SolverError(RuntimeError):
    """A solve that an answer depends on ended in ERROR; the CLI exits 3."""


class SolveStatus(Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    MARGINAL = "MARGINAL"
    ERROR = "ERROR"
    OK = "OK"            # a construction, which asks no yes/no question


@dataclass
class Decision:
    """The one result of every answer: ``bool()`` is True on FEASIBLE,
    False on INFEASIBLE, and raises on MARGINAL, ERROR and OK, which answer
    neither.

    ``witness`` maps each report name to what the answer ships: a matrix,
    a ``ChoiMatrix``, a ``HermitianTuple``, a ``LinearPencil`` or a
    certificate.  ``detail`` holds the facts a report prints beside the
    margin, and ``info`` how the solves went.
    """

    status: SolveStatus
    margin: Optional[float] = None
    witness: Dict[str, object] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE

    def __bool__(self) -> bool:
        if self.status is SolveStatus.FEASIBLE:
            return True
        if self.status is SolveStatus.INFEASIBLE:
            return False
        raise ValueError(f"status {self.status.value} is not a yes/no answer")


# ---------------------------------------------------------------------------
# svec / hvec utilities (sqrt-2 scaled upper triangle, so that
# <S,T> = svec(S).svec(T), and Re tr(H K) = hvec(H).hvec(K))
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_svec_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _svec_idx(n: int):
    if n not in _svec_cache:
        iu, ju = np.triu_indices(n)
        w = np.where(iu == ju, 1.0, _SQRT2)
        _svec_cache[n] = (iu, ju, w)
    return _svec_cache[n]


def svec(s: np.ndarray) -> np.ndarray:
    """sqrt-2 scaled upper triangle of a symmetric matrix (or of a stack
    (..., n, n) of them); only the upper triangle is read."""
    s = np.asarray(s, dtype=float)
    iu, ju, w = _svec_idx(s.shape[-1])
    return s[..., iu, ju] * w


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec; a stack of svecs (..., svec_dim(n)) gives (..., n, n)."""
    iu, ju, w = _svec_idx(n)
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (n, n))
    half = v / w
    out[..., iu, ju] = half
    out[..., ju, iu] = half
    return out


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def hvec(h: np.ndarray) -> np.ndarray:
    """Self-dual coordinates of a Hermitian matrix (or a stack of them):
    svec(Re H) followed by sqrt(2) Im H_ij for i < j, n^2 reals with
    Re tr(H K) = hvec(H).hvec(K).  Only the upper triangle is read."""
    h = np.asarray(h)
    iu, ju, w = _svec_idx(h.shape[-1])
    off = w != 1.0
    return np.concatenate([h.real[..., iu, ju] * w,
                           _SQRT2 * h.imag[..., iu[off], ju[off]]], axis=-1)


def hmat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of hvec; a stack (..., n^2) gives (..., n, n) complex."""
    iu, ju, w = _svec_idx(n)
    off = w != 1.0
    v = np.asarray(v, dtype=float)
    out = smat(v[..., :iu.size], n).astype(complex)
    im = v[..., iu.size:] / _SQRT2
    out[..., iu[off], ju[off]] += 1j * im
    out[..., ju[off], iu[off]] -= 1j * im
    return out


def _vec(x: np.ndarray, herm: bool) -> np.ndarray:
    return hvec(x) if herm else svec(x)


def _mat(v: np.ndarray, n: int, herm: bool) -> np.ndarray:
    return hmat(v, n) if herm else smat(v, n)


def _vec_dim(n: int, herm: bool) -> int:
    return n * n if herm else svec_dim(n)


# ---------------------------------------------------------------------------
# problem containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SDPProblem:
    """Dense SDP in primal form, with real data.

    blocks: (name, size) PSD variable blocks Z_b.
    hermitian: per-block flags aligned with blocks; empty means all real.
      A real block Z_b is real symmetric, in svec coordinates (svec_dim(n)
      reals); a Hermitian one is complex Hermitian, in the self-dual
      coordinates hvec(Z) = [svec(Re Z), sqrt(2) Im Z_ij (i < j)] (n^2
      reals), so that <F, Z> = Re tr(F Z) = hvec(F).hvec(Z).
    A_blocks[b]: (m x dim_b) equality coefficients for block b in those
      coordinates; rhs: (m,).
    kron: per block, the Kronecker factor form of its rows (a
      :class:`_KronRows`) or None; the core may assemble that block's part
      of the Schur complement from it.

    Phase I adds one scalar, the slack t; it never reaches the
    interior-point core: presolve eliminates it (see :class:`_Presolve`)
    and recovers it from the solved blocks.
    """

    blocks: tuple                      # tuple[(name, size)]
    A_blocks: tuple                    # tuple[np.ndarray], aligned with blocks
    rhs: np.ndarray
    hermitian: tuple = ()              # tuple[bool], aligned with blocks
    kron: tuple = ()                   # empty: None for every block
    # the presolve of the last solve (see _presolve); dataclasses.replace
    # shares it, so a problem with only a new rhs reuses it
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.rhs.shape[0]

    @property
    def herm(self) -> tuple:
        """The Hermitian flag of every block."""
        return self.hermitian or (False,) * len(self.blocks)

    def vec(self, Z: Dict[str, np.ndarray]) -> np.ndarray:
        """The named blocks stacked in their svec / hvec coordinates."""
        return np.concatenate([_vec(Z[name], h) for (name, _), h
                               in zip(self.blocks, self.herm)] + [np.zeros(0)])

    def unpack(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a stacked variable vector into its named blocks."""
        out = {}
        ofs = 0
        for (name, n), h in zip(self.blocks, self.herm):
            d = _vec_dim(n, h)
            out[name] = _mat(x[ofs:ofs + d], n, h)
            ofs += d
        return out


@dataclass
class SDPSolution(Decision):
    """A solve; ``witness`` holds the block matrices by block name."""

    iterations: int = 0


# ---------------------------------------------------------------------------
# the equality rows, factored once per solve
# ---------------------------------------------------------------------------


def _numerical_rank(r: np.ndarray) -> int:
    """Rank read off the diagonal of a pivoted QR factor R: the entries above
    max(1e-11 |R_00|, 1e-13)."""
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > max(1e-11 * diag[0], 1e-13)))


class _Rows:
    """The equality rows A x = b of a problem, with A the blocks' A_blocks
    side by side and x = (svec or hvec(Z_b)...), factored once per solve
    (see the README Notes)."""

    def __init__(self, problem: SDPProblem):
        self.problem = problem
        self.A = np.hstack([*problem.A_blocks, np.zeros((problem.m, 0))])
        self.scale = s = np.maximum(np.abs(self.A).max(axis=1, initial=0.0),
                                    np.abs(problem.rhs))
        s[s == 0] = 1.0
        if self.A.shape[1]:
            # lwork leaves room for the blocked code at LAPACK's block size 32
            self.qr, jpvt, self.tau, _, _ = lapack.dgeqp3(
                self.A.T / s, lwork=2 * problem.m + 32 * (problem.m + 1))
            self.piv = jpvt - 1
        else:   # no variables (dgeqp3 rejects lda = 0): rank 0, and the
            # consistency test below reads the rhs alone
            self.qr, self.tau = np.zeros((0, problem.m)), np.zeros(0)
            self.piv = np.arange(problem.m)
        self.keep = np.sort(self.piv[:_numerical_rank(self.qr)])
        # dtrtrs takes R11 contiguous; copied once, not once per correction
        self.r11 = np.asfortranarray(self.qr[:self.keep.size, :self.keep.size])
        resid = (self.A @ self.correction(problem.rhs) - problem.rhs) / s
        self.consistent = float(np.abs(resid).max(initial=0.0)) <= 1e-8

    def correction(self, res: np.ndarray) -> np.ndarray:
        """The least-norm dx with A dx = res on the kept rows:
        Q1 R11^-T (res / scale)[P[:r]], Q applied from its reflectors."""
        r = self.keep.size
        dx = np.zeros((self.A.shape[1], 1))
        if r:                     # dtrtrs rejects an empty system
            dx[:r, 0] = lapack.dtrtrs(self.r11, (res / self.scale)[self.piv[:r]],
                                      trans=1)[0]
            dx = lapack.dormqr("L", "N", self.qr[:, :r], self.tau[:r], dx, 1)[0]
        return dx[:, 0]


# ---------------------------------------------------------------------------
# homogeneous self-dual interior-point core
# ---------------------------------------------------------------------------


class _IPMFailure(Exception):
    """The core gave up; the solve ends in ERROR with this reason."""


# Cholesky and symmetric/Hermitian eigensolver by the dtype of a block
_NT_LAPACK = {np.dtype(float): (lapack.dpotrf, lapack.dsyevd),
              np.dtype(complex): (lapack.zpotrf, lapack.zheevd)}


def _max_steps(dx: np.ndarray, h: np.ndarray, pair: bool = False):
    """sup { a <= 1 : diag(v) + a dX >= 0 } for a direction dX in scaled
    coordinates, from one values-only ?syevd / ?heevd of diag(h) dX diag(h),
    h = v^-1/2; with ``pair``, (that step, the step of -diag(v) - dX)."""
    # the predictor's dZ~ = -V - dS~ scales to -I - diag(h) dS~ diag(h):
    # its least eigenvalue is -1 - the greatest of dS~'s
    lam, _, info = _NT_LAPACK[dx.dtype][1](h[:, None] * dx * h, compute_v=0, lower=1)
    if info:
        raise _IPMFailure("step length eigenproblem failed")
    a = 1.0 / max(-float(lam[0]), 1.0)
    return (a, 1.0 / max(1.0 + float(lam[-1]), 1.0)) if pair else a


def _nt_scaling(z: np.ndarray, s: np.ndarray):
    """NT scaling factor R and scaled iterate v, for a real symmetric or a
    complex Hermitian block.

    With Z = Lz Lz* and Lz* S Lz = E D E*, R = Lz E D^-1/4 gives the NT point
    W = R R* (W S W = Z) and R* S R = R^-1 Z R^-* = diag(v), v = D^1/2.
    """
    potrf, eigh = _NT_LAPACK[z.dtype]
    lz, info = potrf(z, lower=1)
    if info:
        raise _IPMFailure("iterate left the cone")
    m = lz.conj().T @ s @ lz
    evals, evecs, info = eigh(0.5 * (m + m.conj().T), lower=1)
    if info or evals[0] <= 0:
        raise _IPMFailure("scaling matrix not positive definite")
    return (lz @ evecs) * evals ** -0.25, np.sqrt(evals)


def _schur(A_mats: Sequence[np.ndarray], R: Sequence[np.ndarray],
           kron: Sequence) -> np.ndarray:
    """Schur complement M_ij = sum_b <A_bi, W_b A_bj W_b> with W_b = R_b R_b*.

    A_mats[b] stacks the m equality rows of block b as full (m, n, n)
    matrices, real symmetric or complex Hermitian.  On the dense route
    (``kron[b]`` None), with G_bi = R_b* A_bi R_b the sum is
    <G_bi, G_bj> = Re tr(G_bi G_bj), the dot product of the float views of
    G_bi and G_bj, so G_b is one batched product per block and M is G G' of
    the float views, one symmetric rank-k product.  On the factored route
    ``kron[b]`` is the block's :class:`_KronSchur`, which forms its part of
    M from the Kronecker factors of the rows.
    """
    M = None                      # the sum starts from the first block's part
    for F, r, kr in zip(A_mats, R, kron):
        if kr is not None:
            part = kr(r)
        else:
            g = (r.conj().T @ F @ r).reshape(len(F), r.size).view(float)
            part = g @ g.T
        M = part if M is None else M + part
    return M


# the fixed charge of the factored route, in flops: it makes about 30 array
# calls per iteration where the dense route makes three; at this charge a
# complex channel map of three matrices stays dense up to n = m = 3 and is
# factored from 4 up, where the factored route measures faster
_KRON_CALL_FLOPS = 1.5e6


@dataclass(frozen=True)
class _KronRows:
    """The rows of one n m x n m block in Kronecker factor form.

    The units are F_(k,r,s) = A_k (x) E_rs for k < g and r, s < m (``A``
    holds the g Hermitian matrices of the groups' factor forms), numbered
    k m^2 + r m + s, then, when ``trace`` is not 0, F_(r,s) = trace
    E_rs (x) I_m for r, s < n, numbered g m^2 + r n + s.  Every r, s
    appears, so that F_c* is the unit ``swapped(c)``.  The units are written
    in the factor order of the block's basis, whose index q is index
    ``perm[q]`` of the block (its own order when ``perm`` is None).  Stored
    complex row p reads tr(F_p* C) on the block, F_p the sum of the units
    ``unit[row == p]`` (``row`` is sorted); its split rows 2p and 2p + 1 are
    the real and the imaginary part, and built row i is split row
    ``split[i]``.  On the real path A is real and every built row is a real
    part.
    """

    n: int
    m: int
    A: np.ndarray
    trace: float
    perm: Optional[np.ndarray]
    row: np.ndarray
    unit: np.ndarray
    split: np.ndarray

    @property
    def units(self) -> int:
        """The number of units."""
        return len(self.A) * self.m ** 2 + bool(self.trace) * self.n ** 2

    def swapped(self, c: np.ndarray) -> np.ndarray:
        n, m, ga = self.n, self.m, len(self.A) * self.m ** 2
        k, rs = np.divmod(c, m * m)
        r, s = np.divmod(c - ga, n)
        return np.where(c < ga, k * m * m + rs % m * m + rs // m, ga + s * n + r)

    def beats_dense(self, kept: int, reduced: int, herm: bool) -> bool:
        """The route rule: True when the shape-only flop count of the
        factored route, from ``kept`` rows mapped to the core's ``reduced``
        rows, is below that of the dense route on the reduced rows."""
        n, m, g = self.n, self.m, len(self.A)
        N, mac = n * m, 8 if herm else 2       # flops per multiply-add
        gemms = N ** 3 + g * n ** 3 * m * m + (g * m * m * n) ** 2 + \
            bool(self.trace) * (n ** 4 * m * m + g * m ** 3 * n ** 3)
        # the sums of P over each row's units, at most every stored unit
        sums = (1 + herm) * self.unit.size * (self.units + 2 * kept)
        factored = mac * gemms + sums + 16 * kept * kept + _KRON_CALL_FLOPS
        dense = mac * 2 * reduced * N ** 3 + 2 * reduced ** 2 * N * N * (1 + herm)
        return factored < dense

    def products(self, W: np.ndarray) -> np.ndarray:
        """P_cd = tr(F_c W F_d W) over the unit rows.

        With Wt[q, s, p, r] = W[(q, s), (p, r)] and X = A Wt (one product),
        tr((A_k (x) E_rs) W (A_k' (x) E_r's') W) is the sum over p, p' of
        X[k, p, s, p', r'] X[k', p', s', p, r], one product of shape
        (g m^2 x n^2)(n^2 x g m^2), its columns ordered (k', r, s') so that
        P reads them in order; the trace rows and their cross terms with the
        apply rows are two more products of the same kind."""
        n, m, g, t = self.n, self.m, len(self.A), self.trace
        ga, nt = g * m * m, bool(t) * n * n
        P = np.zeros((self.units, self.units), dtype=W.dtype)
        Wt = W.reshape(n, m, n, m)
        if g:
            X = (self.A.reshape(g * n, n) @ W.reshape(n, -1)).reshape(g, n, m, n, m)
            Y = X.transpose(0, 2, 4, 1, 3).reshape(ga, n * n)
            Yt = X.transpose(0, 4, 2, 3, 1).reshape(ga, n * n)
            P[:ga, :ga].reshape(g, m, m, g, m, m)[...] = \
                (Y @ Yt.T).reshape(g, m, m, g, m, m).transpose(0, 4, 1, 3, 2, 5)
        if nt:
            V = Wt.transpose(0, 2, 1, 3).reshape(nt, m * m)
            Vt = Wt.transpose(0, 2, 3, 1).reshape(nt, m * m)
            P[ga:, ga:].reshape(n, n, n, n)[...] = \
                (t * t * V @ Vt.T).reshape(n, n, n, n).transpose(3, 0, 1, 2)
        if g and nt:
            L = X.transpose(0, 2, 3, 1, 4).reshape(g * m * n, n * m)
            Rt = Wt.transpose(0, 3, 2, 1).reshape(n * m, n * m)
            P[:ga, ga:].reshape(g, m, m, n, n)[...] = \
                (L @ (t * Rt).T).reshape(g, m, n, n, m).transpose(0, 4, 1, 2, 3)
            P[ga:, :ga] = P[:ga, ga:].T
        return P


class _KronSchur:
    """One block's part of the Schur complement on the core's rows, from the
    Kronecker factors of its kept rows (the factored route).

    P from :meth:`_KronRows.products` on W in the factor order holds
    tr(F_c W F_d W) for units c, d, and P*_cd = tr(F_c W F_d* W) =
    P_(c, swapped(d)).  Summed over the units of each kept stored row, they
    give that row pair's A1 = tr(F_p W F_q W) and A2 = tr(F_p W F_q* W);
    a row of one unit sums one term.  The split rows' part is, with these,
    (Re(A1 + A2), -Im(A1 - A2)) / 2 from a real part and
    (-Im(A1 + A2), -Re(A1 - A2)) / 2 from an imaginary part: the float
    views of conj(A1) + A2 and i (A2 - conj(A1)), halved.  The core's rows
    are T A_keep with T = diag(1/scale) (Q')[1:], Q the phase-I slack's
    reflector (``qr``, ``tau``; see :class:`_Presolve`), so the block's part
    is T M T', with Q applied from its reflector."""

    def __init__(self, kr: _KronRows, keep: np.ndarray, qr: np.ndarray,
                 tau: np.ndarray, scale: np.ndarray, herm: bool):
        split = kr.split[keep]
        rows, inv = np.unique(split // 2, return_inverse=True)
        self.kr, self.herm = kr, herm
        self.kept = 2 * inv + split % 2 if herm else inv
        # each kept stored row's first unit, and its other units (the rows
        # are sorted) grouped by their count c: the rows with c others and
        # those others as (rows, c), then the same on the swapped side
        take = np.isin(kr.row, rows)
        unit, k = kr.unit[take], rows.size
        ptr = np.concatenate([[0], np.searchsorted(kr.row[take], rows[:-1],
                                                   "right"), [unit.size]])
        first = unit[ptr[:-1]]
        self.first, self.pairs = first, np.concatenate([first, kr.swapped(first)])
        rest, count = np.delete(unit, ptr[:-1]), np.diff(ptr) - 1
        self.groups = []
        for c in np.unique(count[count > 0]):
            at = np.flatnonzero(count == c)
            others = rest[(ptr[at] - at)[:, None] + np.arange(c)]
            self.groups.append((at, others, np.concatenate([at, at + k]),
                                np.concatenate([others, kr.swapped(others)])))
        self.qr, self.tau = qr, tau
        self.inv = 0.5 / np.outer(scale, scale)
        self.lwork = 64 * (len(keep) + 65)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self.kr.perm is not None:
            r = r.take(self.kr.perm, 0)
        P = self.kr.products(r @ r.conj().T)
        # the sums over each row's units, first on the rows, then on the
        # columns as rows of a contiguous S' (P is symmetric): P = [A1 A2]
        S = P.take(self.first, 0)
        for at, others, _, _ in self.groups:
            S[at] += P.take(others.ravel(), 0).reshape(*others.shape, -1).sum(1)
        S = np.ascontiguousarray(S.T)
        P = S.take(self.pairs, 0)
        for _, _, at, others in self.groups:
            P[at] += S.take(others.ravel(), 0).reshape(*others.shape, -1).sum(1)
        P = P.T
        k = P.shape[0]
        A1, A2 = P[:, :k], P[:, k:]
        if self.herm:
            A1 = A1.conj()
            M = np.empty((k, 2, k), dtype=complex)
            np.add(A1, A2, out=M[:, 0])
            np.subtract(A2, A1, out=M[:, 1])
            M[:, 1] *= 1j
            M = M.view(float).reshape(2 * k, 2 * k)
        else:
            M = A1 + A2
        M = M.take(self.kept, 0).take(self.kept, 1)
        M = lapack.dormqr("L", "T", self.qr, self.tau, M, self.lwork)[0]
        M = lapack.dormqr("R", "N", self.qr, self.tau, M, self.lwork,
                          overwrite_c=1)[0]
        return M[1:, 1:] * self.inv


@dataclass
class _HSDResult:
    kind: str                     # "optimal" | "unbounded"
    Z: Optional[list] = None
    iterations: int = 0
    info: dict = field(default_factory=dict)
    ray: Optional[list] = None
    t: float = math.inf           # the slack t* of Z, once mapped back


def _hsd_minimize(pre: "_Presolve", b: np.ndarray, tol: float,
                  max_iter: int) -> _HSDResult:
    """minimize sum <C_b,Z_b>  s.t. equalities, Z_b >= 0 (m = 0 allowed),

    via the homogeneous self-dual embedding with NT scaling, started from
    Z = S = I; the caller normalizes the data so that this start is central.
    A block is real symmetric, or complex Hermitian where ``pre.herm`` says
    so; one loop serves both, with conjugate transposes (a real array's is
    its transpose) and real parts of inner products.  The rows and the
    objective come unpacked from ``pre``: the loop works on full n x n
    matrices, with A_flat[b] the float view of the rows of block b as
    (m, n^2) matrices, so <A_i, Z> = A_flat[b][i] . vec(Z) viewed as floats.
    Only the rhs b is read here.

    There is no infeasibility (Farkas) exit.  The rows annihilate the
    identity (see :class:`_Presolve`), so Z_0 + s I is strictly feasible
    for any Z_0 that meets them and any large s, and rows with no
    solution at all are INFEASIBLE before the core runs (``_Rows``):
    sum y_i A_i >= 0 has trace y.A(I) = 0, so it is 0, and b.y > 0 would
    make the rows inconsistent."""
    # the loop is call-bound on small blocks: each sum over blocks starts
    # from its first term
    sizes, dtype = pre.sizes, pre.dtype
    A_flat, C, c_blocks, vec_wt = pre.A_flat, pre.C, pre.c_blocks, pre.vec_wt
    blocks, m = range(len(sizes)), b.shape[0]

    eye = [np.eye(n) for n in sizes]
    Z = [np.eye(n, dtype=dt) for n, dt in zip(sizes, dtype)]
    S = [np.eye(n, dtype=dt) for n, dt in zip(sizes, dtype)]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    ordn = sum(sizes) + 1

    bnorm = 1.0 + float(np.abs(b).max(initial=0.0))
    best_score, stall = math.inf, 0
    refine, rp_last, alpha = False, math.inf, 0.0
    ptol = max(tol, _RESID_TOL_FLOOR)
    gtol = max(tol, _GAP_TOL_FLOOR)

    def A_op(X):                  # sum_b <A_bi, X_b> for every row i
        out = A_flat[0] @ X[0].reshape(-1).view(float)
        for k in blocks[1:]:
            out += A_flat[k] @ X[k].reshape(-1).view(float)
        return out

    def At_op(v, k):              # sum_i v_i A_bi for block k
        return (v @ A_flat[k]).view(dtype[k]).reshape(sizes[k], sizes[k])

    def vec_sup(X):               # max_b sup-norm of svec / hvec(X_b)
        return max([float(np.abs(X[k].view(float) * vec_wt[k]).max())
                    for k in blocks])

    def max_alpha(steps, dtau, dkappa):   # the least step, tau, kappa >= 0
        return min(steps + [-tau / dtau if dtau < 0 else 1.0,
                            -kappa / dkappa if dkappa < 0 else 1.0])

    for it in range(1, max_iter + 1):
        # <Z, S> is not finite exactly when an entry of Z or S is not (or
        # when it overflows, as only a diverged iterate's can)
        gap = float(np.vdot(Z[0], S[0]).real)
        for k in blocks[1:]:
            gap += float(np.vdot(Z[k], S[k]).real)
        gap += tau * kappa
        if not math.isfinite(gap):
            raise _IPMFailure("iterate diverged")
        Ax = A_op(Z)
        rP = Ax - b * tau
        AtyS = [At_op(y, k) + S[k] for k in blocks]
        rD = [AtyS[k] - C[k] * tau for k in blocks]
        cx = 0.0
        for k in c_blocks:
            cx += float(np.vdot(C[k], Z[k]).real)
        by = float(b @ y)
        rG = cx - by + kappa
        mu = gap / ordn

        # convergence / certificate tests on the normalized iterate
        rp = float(np.abs(rP).max(initial=0.0))
        pres = rp / (tau * bnorm)
        dres = vec_sup(rD) / (tau * pre.cnorm)
        pobj, dobj = cx / tau, by / tau
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if pres <= ptol and dres <= ptol and relgap <= gtol:
            return _HSDResult("optimal", [zb / tau for zb in Z], it,
                              {"pres": pres, "dres": dres, "relgap": relgap})
        score = max(pres / ptol, dres / ptol, relgap / gtol)
        stall = 0 if score < 0.98 * best_score else stall + 1
        best_score = min(best_score, score)
        stalled = stall > 25 or mu <= 1e-25
        # a step of at least 0.9 scales rP by 1 - alpha; one that left it
        # above half its size met the Schur solve's error (nearly dependent
        # rows), so from here on every Schur solve is refined once
        refine = refine or (pres > ptol and alpha > 0.9 and rp > 0.5 * rp_last)
        rp_last = rp
        # an unbounded objective (the ray is re-verified by the callers)
        if cx < 0:
            # a stalled iterate whose tau has fallen against kappa is taken
            # as the ray even when its residual settled just above the test
            uray = float(np.abs(Ax).max(initial=0.0))
            if uray <= 1e-6 * (-cx) or (stalled and tau <= 1e-12 * kappa):
                return _HSDResult("unbounded", iterations=it,
                                  ray=[zb / (-cx) for zb in Z],
                                  info={"ray_resid": uray / (-cx)})
        if tau <= 1e-12 and kappa <= 1e-12:
            raise _IPMFailure("tau and kappa both collapsed")
        if stalled:
            raise _IPMFailure(
                f"stalled at iteration {it} (mu={mu:.2e}, pres={pres:.2e}, "
                f"dres={dres:.2e}, relgap={relgap:.2e})")

        # NT scaling W = R R* and the diagonal scaled iterate
        # R* S R = R^-1 Z R^-* = diag(v), h = v^-1/2; the NT operator
        # X -> W X W is applied through R and never formed as a matrix
        R, V = zip(*[_nt_scaling(Z[k], S[k]) for k in blocks])
        RH = [R[k].conj().T for k in blocks]
        H = [v ** -0.5 for v in V]
        M = _schur(pre.A_mats, R, pre.kron)
        M.flat[::m + 1] += 1e-13 * (1.0 + M.trace() / max(m, 1))

        cho, info = lapack.dpotrf(M, lower=1, overwrite_a=1)
        if info:
            raise _IPMFailure("Schur complement not positive definite")
        def solveM(v):
            # dpotrs rejects an empty system (m = 0 when the slack absorbs
            # the one kept row); a refinement step reads the residual on the
            # rows themselves, A(W (A'x) W) for M x
            if not m:
                return v
            x = lapack.dpotrs(cho, v, lower=1)[0]
            if refine:
                x += lapack.dpotrs(cho, v - A_op([R[k] @ (RH[k] @ At_op(x, k) @ R[k])
                                                  @ RH[k] for k in blocks]), lower=1)[0]
            return x

        # the parts of the elimination that stay fixed within an iteration:
        # q = A(W C W), <C, W C W>, dy1, q - b and the bordered denominator
        q, cWCW = 0.0, 0.0
        for k in c_blocks:
            w = R[k] @ RH[k]
            wcw = w @ C[k] @ w
            q = q + A_flat[k] @ wcw.reshape(-1).view(float)
            cWCW += float(np.vdot(C[k], wcw).real)
        dy1 = solveM(q + b)
        qb = q - b
        den = float(qb @ dy1) - (cWCW + kappa / tau)
        if abs(den) < 1e-300:
            raise _IPMFailure("singular bordered system")
        rDs = [RH[k] @ rD[k] @ R[k] for k in blocks]

        def direction(rcs, rc_tk):
            # dZ~ + dS~ = rc~ in scaled coordinates, with dS~ = R* dS R,
            # dZ = R dZ~ R* and dS = c dtau - rD - A'dy, eliminated into
            # the Schur system over (dy, dtau); g = R (rc~ + R* rD R) R*
            g = [R[k] @ (rcs[k] + rDs[k]) @ RH[k] for k in blocks]
            dy0 = solveM(-rP - A_op(g))
            cg = 0.0
            for k in c_blocks:
                cg += float(np.vdot(C[k], g[k]).real)
            dtau = (-rG - rc_tk / tau - float(qb @ dy0) - cg) / den
            dy = dy0 + dtau * dy1
            dS_ = [C[k] * dtau - rD[k] - At_op(dy, k) for k in blocks]
            dSs = [RH[k] @ dS_[k] @ R[k] for k in blocks]
            return ([rcs[k] - dSs[k] for k in blocks], dSs, dS_, dy, dtau,
                    (rc_tk - kappa * dtau) / tau)

        # predictor: rc~ = -V, so both steps of a block come from dS~
        dZa, dSa, _, _, dta, dka = direction(
            [-(eye[k] * V[k]) for k in blocks], -tau * kappa)
        a_aff = max_alpha([a for k in blocks
                           for a in _max_steps(dSa[k], H[k], pair=True)], dta, dka)
        sigma = min(1.0, max((1.0 - a_aff) ** 3, 1e-4))

        # corrector: rc~ = L_V^-1(sigma mu I - V^2 - herm(dZa~ dSa~)), with
        # L_V(X) = (V X + X V) / 2 for the diagonal V
        rcs = []
        for k in blocks:
            v, corr = V[k], dZa[k] @ dSa[k]
            corr = corr + corr.conj().T
            rcs.append(eye[k] * (sigma * mu / v - v) - corr / (v[:, None] + v))
        rc_tk = sigma * mu - tau * kappa - dta * dka
        dZs, dSs, dS, dy, dt, dk = direction(rcs, rc_tk)
        alpha = 0.98 * max_alpha([_max_steps(d[k], H[k]) for d in (dZs, dSs)
                                  for k in blocks], dt, dk)
        if alpha < 1e-9:
            raise _IPMFailure(f"step length collapsed at iteration {it}")
        for k in blocks:
            zk = Z[k] + alpha * (R[k] @ dZs[k] @ RH[k])
            sk = S[k] + alpha * dS[k]
            Z[k] = 0.5 * (zk + zk.conj().T)
            S[k] = 0.5 * (sk + sk.conj().T)
        y = y + alpha * dy
        tau += alpha * dt
        kappa += alpha * dk

    raise _IPMFailure(f"no convergence within {max_iter} iterations")


def _accuracy(info) -> float:
    """The worst of the final primal, dual and gap residuals."""
    return max(info.get("pres", 0.0), info.get("dres", 0.0),
               info.get("relgap", 0.0))


# ---------------------------------------------------------------------------
# public solve entry points
# ---------------------------------------------------------------------------


def _verify_witness(problem: SDPProblem, Z: Dict[str, np.ndarray]):
    """Independent residual/eigenvalue check, separate from solver internals."""
    z_sv = [_vec(Z[name], h) for (name, _), h in zip(problem.blocks, problem.herm)]
    lhs = sum(Ab @ zv for Ab, zv in zip(problem.A_blocks, z_sv)) \
        if problem.m else np.zeros(0)
    eq_resid = float(np.abs(lhs - problem.rhs).max()) if problem.m else 0.0
    eig_min = min([float(np.linalg.eigvalsh(Z[name])[0])
                   for name, _ in problem.blocks] + [math.inf])
    return eq_resid, eig_min


def _polish(rows: _Rows, Z: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Least-norm correction moving a witness exactly onto the equalities."""
    problem = rows.problem
    x = problem.vec(Z)
    return problem.unpack(x + rows.correction(problem.rhs - rows.A @ x))


def solve(problem: SDPProblem, tol: float = 1e-8,
          max_iter: int = 200) -> SDPSolution:
    """Decide an SDP through the phase-I construction, with the MARGINAL
    band FEAS_TOL: :func:`solve_feasibility`, under the name every caller
    uses (a function of its own, so that a tracer wraps each once)."""
    return solve_feasibility(problem, tol=tol, max_iter=max_iter)


class _Presolve:
    """Everything a solve derives from its kept rows alone, made once per
    set of kept rows ``keep`` and reused by every rhs that keeps them.

    Phase I substitutes Z_b = Z'_b + t I with Z'_b >= 0 and maximizes t, so
    the kept rows read A z + t t_col = b with t_col = A vec(I).  One
    Householder reflector Q with Q' t_col = r00 e_0 (``qr`` and ``tau`` as
    LAPACK's dgeqrf gives them, applied by dormqr) eliminates t: row 0 of
    Q' A z + r00 t e_0 = Q' b gives t = (Q'(b - A z))_0 / r00, the core
    keeps rows 1 on, and maximizing t is minimizing c.z, c = (Q' A)_0 / r00,
    the objective row of the same reflected stack.  The core rows
    annihilate the identity, (Q' A)[1:] vec(I) = (Q' t_col)[1:] = 0.  When
    |r00| is at most 1e-13 (every kept row annihilates I, the floor of
    :func:`_numerical_rank`) ``traceless`` is set and no core is made: t
    is free of the rows and the margin unbounded along e_t.

    It also holds the sup-norm scale of the core rows, the rows and the
    objective unpacked into full n x n matrices for the core, and each
    block's Schur route (``kron``: its :class:`_KronSchur`, or None for
    the dense route).  :meth:`run` reads only the rhs."""

    def __init__(self, rows: _Rows):
        problem = rows.problem
        self.keep, self.reused = rows.keep, False
        # what it was made from besides the kept rows: every field of the
        # problem but the rhs, compared by identity (see _presolve)
        self.made_from = {f.name: getattr(problem, f.name) for f in fields(problem)
                          if f.name not in ("rhs", "_memo")}
        self.sizes = sizes = [s for _, s in problem.blocks]
        self.herm = herm = problem.herm
        nb = len(sizes)
        A = rows.A[self.keep]
        t_col = A @ problem.vec({name: np.eye(n) for name, n in problem.blocks})
        self.qr, self.tau, _, _ = lapack.dgeqrf(t_col[:, None])
        self.traceless = not _numerical_rank(self.qr)
        if self.traceless:
            return
        self.r00 = float(self.qr[0, 0])
        QA = self.reflect(A)
        m = len(QA) - 1
        self.scale = np.abs(QA[1:]).max(axis=1, initial=0.0)
        self.scale[self.scale == 0] = 1.0
        ofs = np.cumsum([0] + [_vec_dim(n, h) for n, h in zip(sizes, herm)])[1:-1]
        A_red = np.split(QA[1:] / self.scale[:, None], ofs, axis=1)
        c_parts = np.split(QA[0] / self.r00, ofs)
        # the core's rows and objective unpacked into full matrices, the
        # blocks whose objective is nonzero, and the weights that turn the
        # sup-norm of a block's float view into that of its svec / hvec
        self.dtype = [np.dtype(complex if h else float) for h in herm]
        self.A_mats = [_mat(A_red[k], sizes[k], herm[k]) for k in range(nb)]
        self.A_flat = [F.reshape(m, n * n).view(float)
                       for F, n in zip(self.A_mats, sizes)]
        self.C = [_mat(c, n, h) for c, n, h in zip(c_parts, sizes, herm)]
        self.c_blocks = [k for k in range(nb) if c_parts[k].any()]
        self.cnorm = 1.0 + max([0.0] + [float(np.abs(c).max())
                                        for c in c_parts])
        vec_wt = [np.where(np.eye(n, dtype=bool), 1.0, _SQRT2) for n in sizes]
        self.vec_wt = [np.repeat(w, 2, axis=1) if h else w
                       for w, h in zip(vec_wt, herm)]
        # each block's Schur route: its _KronSchur where the route rule
        # takes the factored route, else None (dense)
        self.forms = problem.kron or (None,) * nb
        self.kron = [self.factored(k) if kr is not None and m
                     and kr.beats_dense(self.keep.size, m, herm[k]) else None
                     for k, kr in enumerate(self.forms)]
        self.routes = tuple("dense" if kr is None else "factored"
                            for kr in self.kron)

    def reflect(self, x: np.ndarray) -> np.ndarray:
        """Q' x, for a vector or for the columns of a matrix."""
        c = x.reshape(len(x), -1)
        return lapack.dormqr("L", "T", self.qr, self.tau, c,
                             max(1, c.shape[1]))[0].reshape(x.shape)

    def factored(self, k: int) -> "_KronSchur":
        """The factored route of block k, which has a factor form."""
        return _KronSchur(self.forms[k], self.keep, self.qr, self.tau,
                          self.scale, self.herm[k])

    def slack(self, Z, b: np.ndarray) -> float:
        """t = (Q'(b - A z))_0 / r00 = (Q' b)_0 / r00 - c.z for the blocks Z
        (b = 0 for a ray)."""
        t = float(self.reflect(b)[0]) / self.r00
        for k in self.c_blocks:
            t -= float(np.vdot(self.C[k], Z[k]).real)
        return t

    def run(self, b: np.ndarray, tol: float, max_iter: int) -> _HSDResult:
        """Run the core once on the blocks alone for the kept rhs b, in units
        where the rows and the rhs have unit sup-norm, and map its answer
        back to the blocks Z = Z' + t I.

        The core solves for Z' / beta with beta = max |b_red|; its Z' is
        multiplied back by beta, and ``t`` is the slack t* of the result.
        A ray of Z' (a direction, so it stays) becomes one of Z; on
        traceless rows the ray is I and no core runs.  ``info`` gets
        ``attempts`` (1: one IPM run, 0: none), ``iterations_total``,
        ``schur``, the route of each block, and ``presolve_reused``, True
        when this presolve was kept from an earlier solve (see
        :func:`_presolve`).
        """
        if self.traceless:
            return _HSDResult("unbounded", ray=[np.eye(n) for n in self.sizes],
                              info={"attempts": 0, "iterations_total": 0,
                                    "presolve_reused": self.reused})
        b_red = self.reflect(b)[1:] / self.scale
        beta = float(np.abs(b_red).max(initial=0.0)) or 1.0
        res = _hsd_minimize(self, b_red / beta, tol, max_iter)
        if res.kind == "optimal":
            res.Z = [beta * z for z in res.Z]
            res.t = self.slack(res.Z, b)
            res.Z = [z + res.t * np.eye(n) for z, n in zip(res.Z, self.sizes)]
        else:
            t = self.slack(res.ray, 0.0 * b)
            res.ray = [z + t * np.eye(n) for z, n in zip(res.ray, self.sizes)]
        res.info.update(attempts=1, iterations_total=res.iterations,
                        schur=self.routes, presolve_reused=self.reused)
        return res


def _presolve(rows: _Rows) -> _Presolve:
    """The presolve of the kept rows of ``rows``, kept in their problem's
    memo: the one there is reused when it was made for the same kept rows
    from the same fields but the rhs (the same objects); otherwise a new
    one is made and takes its place."""
    problem, pre = rows.problem, rows.problem._memo.get("presolve")
    if pre is not None and np.array_equal(pre.keep, rows.keep) and all(
            getattr(problem, k) is v for k, v in pre.made_from.items()):
        pre.reused = True
    else:
        pre = problem._memo["presolve"] = _Presolve(rows)
    return pre


def solve_feasibility(problem: SDPProblem, tol: float = 1e-8,
                      max_iter: int = 200) -> SDPSolution:
    """Phase-I feasibility with a signed margin.

    FEASIBLE when the best uniform eigenvalue slack t* exceeds +FEAS_TOL,
    INFEASIBLE below -FEAS_TOL.  Inside the band, a witness rescue clips the
    terminal iterate to the cone and re-checks the equalities; only a
    verified witness may promote the answer to FEASIBLE, otherwise the
    honest answer is MARGINAL.  Before the rescue, a band answer is solved
    once more at tol 1e-11, which at the default tol tightens only the
    core's gap test (to its floor 1e-9; the residual tests stay at their
    floor 1e-7).  That result's ``info`` sums ``attempts`` and
    ``iterations_total`` over both solves and sets ``resolves``, the number
    of these tighter-gap re-solves, which reuse the factored rows and their
    presolve.
    """
    rows = _Rows(problem)
    if not rows.consistent:
        return SDPSolution(SolveStatus.INFEASIBLE, margin=-math.inf,
                           info={"reason": "inconsistent equalities"})
    if not rows.keep.size:
        witness = {name: np.eye(s) for name, s in problem.blocks}
        return SDPSolution(SolveStatus.FEASIBLE, witness=witness,
                           margin=math.inf,
                           info={"reason": "no equality constraints"})
    return _phase_one(rows, _presolve(rows), tol, max_iter)


def _phase_one(rows: _Rows, pre: _Presolve, tol, max_iter) -> SDPSolution:
    """:func:`solve_feasibility` on consistent, factored rows, at least one
    of them kept, with their presolve."""
    problem = rows.problem
    try:
        res = pre.run(problem.rhs[rows.keep], tol, max_iter)
    except _IPMFailure as exc:
        return SDPSolution(SolveStatus.ERROR, info={
            "reason": str(exc), "presolve_reused": pre.reused})
    eq_tol = max(_WITNESS_EQ_TOL,
                 _WITNESS_EQ_TOL * (np.abs(problem.rhs).max() if problem.m else 1.0))
    if res.kind == "unbounded":
        # t can grow without bound along the certified ray; convert it into
        # an explicit verified witness before claiming FEASIBLE
        base = problem.unpack(rows.correction(problem.rhs))
        for s in (1.0, 1e2, 1e4, 1e6, 1e8):
            cand = _polish(rows, {name: base[name] + s * ray for (name, _), ray
                                  in zip(problem.blocks, res.ray)})
            eq_resid, eig_min = _verify_witness(problem, cand)
            if eq_resid <= eq_tol and eig_min > FEAS_TOL:
                return SDPSolution(SolveStatus.FEASIBLE, witness=cand,
                                   margin=math.inf,
                                   iterations=res.iterations,
                                   info={**res.info, "unbounded_margin": True,
                                         "eq_resid": eq_resid,
                                         "eig_min": eig_min})
        return SDPSolution(SolveStatus.ERROR, iterations=res.iterations,
                           info={**res.info,
                                 "reason": "unbounded-margin certificate did "
                                           "not yield a verified witness"})
    t_star = res.t
    witness = {name: 0.5 * (z + z.conj().T)
               for (name, _), z in zip(problem.blocks, res.Z)}
    base_info = {**res.info, "t_star": t_star}
    it = res.iterations
    # widen the marginal band to the achieved solver accuracy
    band = max(FEAS_TOL, 10.0 * _accuracy(res.info) * (1.0 + abs(t_star)))

    if t_star > band:
        witness = _polish(rows, witness)
        eq_resid, eig_min = _verify_witness(problem, witness)
        if eq_resid <= eq_tol and eig_min >= -_WITNESS_EIG_TOL:
            return SDPSolution(SolveStatus.FEASIBLE, witness=witness,
                               margin=t_star, iterations=it,
                               info={**base_info, "eq_resid": eq_resid,
                                     "eig_min": eig_min})
        return SDPSolution(SolveStatus.ERROR, margin=t_star, iterations=it,
                           info={**base_info,
                                 "reason": "witness failed verification",
                                 "eq_resid": eq_resid, "eig_min": eig_min})
    if t_star < -band:
        return SDPSolution(SolveStatus.INFEASIBLE, margin=t_star, iterations=it,
                           info=base_info)
    # marginal band: first re-solve with the tighter gap test (the rescue
    # below needs tiny equality residuals, or the projection ruins the
    # eigenvalue floor);
    # its info adds both solves' counts and counts the re-solve
    if tol > 1.1e-11:
        sol = _phase_one(rows, pre, 1e-11, max(max_iter, 300))
        sol.info.update(
            attempts=res.info["attempts"] + sol.info.get("attempts", 0),
            iterations_total=(res.info["iterations_total"]
                              + sol.info.get("iterations_total", 0)),
            resolves=sol.info.get("resolves", 0) + 1)
        return sol
    # alternate equality projection and eigenvalue clipping to rescue a
    # boundary witness; only a verified witness promotes to FEASIBLE
    cand = witness
    eq_resid, eig_min = math.inf, -math.inf
    for _ in range(400):
        cand = _polish(rows, cand)
        eq_resid, eig_min = _verify_witness(problem, cand)
        if eig_min >= -0.5 * _WITNESS_EIG_TOL:
            break
        cand = {name: psd_part(mat) for name, mat in cand.items()}
    if eq_resid <= eq_tol and eig_min >= -_WITNESS_EIG_TOL:
        return SDPSolution(SolveStatus.FEASIBLE, witness=cand,
                           margin=t_star, iterations=it,
                           info={**base_info, "eq_resid": eq_resid,
                                 "eig_min": eig_min, "rescued": True})
    return SDPSolution(SolveStatus.MARGINAL, witness=witness,
                       margin=t_star, iterations=it, info=base_info)


# ---------------------------------------------------------------------------
# complex Hermitian layer
# ---------------------------------------------------------------------------


def _split(f: np.ndarray) -> np.ndarray:
    """The split rows of a stack F: row 2p is the upper triangle, in svec
    order, of H = (F_p + F_p*)/2 and row 2p + 1 that of K = i (F_p - F_p*)/2.
    Each entry is the complex product 0.5 s or 0.5i t of an entry of F + F*
    or F - F*, as it is in the full matrices, down to the sign of a zero,
    which the pivoted QR of the rows reads."""
    n = f.shape[-1]
    iu, ju, _ = _svec_idx(n)
    f = f.reshape(len(f), n * n).astype(complex, copy=False)
    up, lo = f.take(iu * n + ju, axis=1), f.take(ju * n + iu, axis=1).conj()
    return np.stack([0.5 * (up + lo), 0.5j * (up - lo)],
                    axis=1).reshape(2 * len(f), iu.size)


class _Operator:
    """The operator half of a :class:`HermitianProblem` build, kept between
    its solves: flags and the built rows, not the split rows.

    Split row 2p is the real part H of row p, 2p + 1 its imaginary part K
    (see :func:`_split`), and each has a realness class: ``even`` when it is
    invariant under conjugating every block (real data), ``odd`` when its
    coefficients flip sign (imaginary data), so that the row flips entirely
    when its rhs is 0.
    ``coef[real_path]`` marks the rows with a nonzero coefficient on each
    path; on the real path a row that is odd and not even reads 0 = 0, its
    real part below the class threshold taken as round-off.  The classes
    are read from the largest real and imaginary entry of each split row.
    ``rows`` is (real_path, keep, problem) of the last build; the problem's
    memo keeps the presolve of its last solve.  An rhs that changes the
    path or the kept rows splits the problem's groups again into new
    ``rows``, with a new memo.
    """

    def __init__(self, split):
        self.rows = None
        # per split row: the largest real and imaginary data entry
        re_max, im_max = [np.zeros(0)], [np.zeros(0)]
        for data, k in split:
            re = im = np.zeros(k)
            for h in data.values():
                im = np.maximum(im, np.abs(h.imag).max(axis=1))
                re = np.maximum(re, np.abs(h.real).max(axis=1))
            re_max.append(re)
            im_max.append(im)
        re, im = np.concatenate(re_max), np.concatenate(im_max)
        self.even = im <= 1e-13
        self.odd = re <= 1e-13
        self.coef = {True: (re > 0) & self.even, False: (re > 0) | (im > 0)}


class HermitianProblem:
    """Complex Hermitian PSD blocks and complex equality rows.

    Rows are stored unsplit, one group per ``add_*`` call, which returns the
    group's index: a (k, n, n) stack F per block (complex, or float64 for
    real data) and a (k,) rhs, for sum_b tr(F_b,p* C_b) = rhs_p, and the
    Kronecker factor form of the group's rows on each block where it has
    one (from ``add_matrix_eq`` terms, or given to ``add_complex_row``).
    ``build`` reads every row as its real and imaginary part (native
    Hermitian blocks, or real ones of the same size when every split row is
    conjugation-invariant), and ``solve`` returns the engine's
    :class:`SDPSolution`, for the stored rhs or for new rhs of some groups.
    The operator half of the last build (:class:`_Operator`) is kept until
    the next ``add_*`` call, so that a solve with only a
    new rhs reuses it and the presolve its built problem keeps.
    :func:`build_from_complex` realifies the build, as a reference.
    """

    def __init__(self):
        self._blocks: List[Tuple[str, int]] = []
        # (data, rhs, form, kron); form = (shape, index) takes an rhs
        # given to solve() in the shape the add_* call took to the group's
        # (k,) rhs, its flattened entries ``index`` (None for a scalar
        # row), and kron maps a block to the Kronecker factor form of
        # the group's rows on it, ("sum", m, (A, perm, row, unit)) as
        # add_complex_row describes it or ("blocktrace", m, scale) (see
        # add_matrix_eq), None where they have none
        self._groups: List[tuple] = []
        self._op: Optional[_Operator] = None

    # -- variables ---------------------------------------------------------

    def add_block(self, name: str, size: int) -> str:
        if any(n == name for n, _ in self._blocks):
            raise ValueError(f"duplicate block {name!r}")
        if size < 1:
            raise ValueError("block size must be >= 1")
        self._blocks.append((name, size))
        self._op = None
        return name

    # -- rows ----------------------------------------------------------------

    def _block_data(self, block_data, lead=()) -> Dict[str, np.ndarray]:
        """The data matrices of a row (or of a stack of rows, when `lead` is
        (k,)), checked against the block names and sizes; real data stay
        real (float64), to be read as complex by :func:`_split`."""
        sizes = dict(self._blocks)
        out = {}
        for name, f in block_data.items():
            if name not in sizes:
                raise ValueError(f"unknown block {name!r}")
            f = np.asarray(f)
            f = f.astype(complex if np.iscomplexobj(f) else float, copy=False)
            if f.shape != lead + (sizes[name],) * 2:
                raise ValueError(f"data for block {name!r} has wrong shape")
            out[name] = f
        return out

    def _add_group(self, data, rhs, form, kron=None) -> int:
        self._groups.append((data, rhs, form,
                             {**dict.fromkeys(data), **(kron or {})}))
        self._op = None
        return len(self._groups) - 1

    def add_scalar_row(self, block_terms: Dict[str, np.ndarray],
                       rhs: float) -> int:
        """sum_b tr(H_b C_b) = rhs with Hermitian H, real rhs."""
        data = self._block_data(
            {name: require_hermitian(h, what=f"data for block {name!r}")[None]
             for name, h in self._block_data(block_terms).items()}, (1,))
        return self._add_group(data, np.array([float(rhs)], dtype=complex),
                               ((), None))

    def add_complex_row(self, block_data: Dict[str, np.ndarray], rhs,
                        kron=None) -> int:
        """A stack of k complex equalities sum_b tr(F_b,p* C_b) = rhs_p:
        block_data maps a block name to a (k, n, n) array (F need not be
        Hermitian) and rhs is (k,).

        ``kron`` maps further blocks to their data in Kronecker factor form,
        (A, perm, row, unit): F_p is the sum, over the e with row[e] = p, of
        A_k (x) E_rs for unit[e] = k m^2 + r m + s, with A a (g, n, n)
        stack, m = size / n, written in the block's basis reordered so that
        its index q is the block's index perm[q].  ``row`` is sorted and
        names every row.  The stack is made from the form, and the form is
        kept for the factored Schur route when every A_k is Hermitian."""
        rhs = np.asarray(rhs, dtype=complex)
        k = rhs.shape[0]
        data, forms = self._block_data(block_data, (k,)), {}
        for name, form in (kron or {}).items():
            if name in data:
                raise ValueError(f"block {name!r} given as data and as factors")
            data[name], forms[name] = self._factor_data(name, k, *form)
        return self._add_group(data, rhs, (rhs.shape, np.arange(k)), forms)

    def _factor_data(self, name: str, k: int, A, perm, row, unit):
        """The (k, size, size) stack of block ``name`` from its factor form
        (see add_complex_row), and the form to keep: ("sum", m, (A, perm,
        row, unit)), perm None for the block's own order, or None when an
        A_k is not Hermitian."""
        size = dict(self._blocks).get(name)
        if size is None:
            raise ValueError(f"unknown block {name!r}")
        A = np.asarray(A)
        A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
        perm, row, unit = (np.asarray(x, dtype=int) for x in (perm, row, unit))
        n = A.shape[-1] if A.ndim == 3 else 0
        m = size // n if n else 0
        if A.shape[1:] != (n, n) or n * m != size or \
                not np.array_equal(np.sort(perm), np.arange(size)) or \
                row.shape != unit.shape or np.any(np.diff(row) < 0) or \
                not np.array_equal(np.unique(row), np.arange(k)) or \
                np.any(unit < 0) or np.any(unit >= len(A) * m * m):
            raise ValueError(f"malformed factor form for block {name!r}")
        c, rs = np.divmod(unit, m * m)
        F = np.zeros((k, n, m, n, m), dtype=A.dtype)
        # each (row, r, s) is assigned its first unit, so that a signed zero
        # stays as given, and the others are added to it
        first = np.zeros(unit.size, dtype=bool)
        first[np.unique(row * m * m + rs, return_index=True)[1]] = True
        def at(e):
            return row[e], slice(None), rs[e] // m, slice(None), rs[e] % m
        F[at(first)] = A[c[first]]
        np.add.at(F, at(~first), A[c[~first]])
        data = np.empty((k, size, size), dtype=A.dtype)
        data[:, perm[:, None], perm] = F.reshape(k, size, size)
        if not np.array_equal(A, A.conj().swapaxes(1, 2)):
            return data, None
        return data, ("sum", m, (A, None if np.array_equal(perm, np.arange(size))
                                 else perm, row, unit))

    def add_matrix_eq(self, terms, rhs) -> int:
        """Matrix equality sum(term values) = rhs, one complex row per entry
        (r, s), r <= s; each term is one array operation over all entries.
        Terms (complex-linear values):
          ("apply", block, A, m)      sum_pq A_pq C_pq with m x m blocks C_pq
          ("entry", block, scale)     scale * C
          ("blocktrace", block, m, scale) scale * (tr C_pq)_pq, m x m blocks
          ("kron_block", coeff, block) coeff (x) C for a PSD block C
        The row of entry (r, s) is conj(A) (x) E_rs on the block of an
        "apply" term with Hermitian A, one unit per row of the factor form
        add_complex_row takes, and scale E_rs (x) I_m for a "blocktrace"
        term with a real scale; a block whose terms are all of one of these
        kinds keeps that factor form beside its rows."""
        rhs = np.asarray(rhs, dtype=complex)
        r, s, _ = _svec_idx(rhs.shape[0])
        p, sizes, F, kron = np.arange(r.size), dict(self._blocks), {}, {}
        def block(name, *shape):      # the data of every entry, as (p, *shape)
            if name not in F:
                F[name] = np.zeros((p.size, sizes[name], sizes[name]), dtype=complex)
            return F[name].reshape(p.size, *shape) if shape else F[name]
        def factor(name, kind=None, mdim=None, coeff=0.0):
            old = kron.get(name, (kind, mdim, 0.0))  # terms of one kind add
            kron[name] = (kind, mdim, old[2] + coeff) \
                if kind and old and old[:2] == (kind, mdim) else None
        for kind, *args in terms:
            if kind == "apply":
                name, A, mdim = args
                A = np.asarray(A, dtype=complex)
                block(name, len(A), mdim, len(A), mdim)[p, :, r, :, s] += A.conj()
                if np.array_equal(A, A.conj().T):
                    factor(name, "sum", mdim, A.conj())
                else:
                    factor(name)
            elif kind == "entry":
                name, scale = args
                block(name)[p, r, s] += scale
                factor(name)
            elif kind == "blocktrace":
                name, mdim, scale = args
                nd = sizes[name] // mdim
                block(name, nd, mdim, nd, mdim)[p, r, :, s, :] += scale * np.eye(mdim)
                if np.imag(scale) == 0:
                    factor(name, kind, mdim, float(np.real(scale)))
                else:
                    factor(name)
            elif kind == "kron_block":
                coeff, name = args
                k = sizes[name]
                block(name)[p, r % k, s % k] += np.conj(coeff)[r // k, s // k]
                factor(name)
            else:
                raise ValueError(f"unknown term kind {kind!r}")
        for name, f in kron.items():    # the summed apply matrix, one unit a row
            if f is not None and f[0] == "sum":
                kron[name] = ("sum", f[1], (f[2][None], None, p, r * f[1] + s))
        return self._add_group(F, rhs[r, s], (rhs.shape, r * len(rhs) + s), kron)

    # -- building ------------------------------------------------------------

    def _split_rhs(self, rhs) -> np.ndarray:
        """The rhs of every split row, Re then Im of each row, with the
        groups in ``rhs`` (index: values as their add_* call took them)
        replaced; a scalar row's rhs must be real, as in add_scalar_row."""
        rhs = rhs or {}
        unknown = [g for g in rhs if g not in range(len(self._groups))]
        if unknown:
            raise ValueError(f"rhs for unknown row groups {unknown}; the "
                             f"problem has {len(self._groups)}")
        parts = [np.zeros(0, dtype=complex)]
        for g, (_, values, (shape, index), _) in enumerate(self._groups):
            if g in rhs:
                new = np.asarray(rhs[g])
                if new.shape != shape:
                    raise ValueError(f"rhs for row group {g} has shape "
                                     f"{new.shape}, not {shape}")
                if index is None:           # a scalar row: float(rhs)
                    try:
                        values = np.array([float(new)])
                    except TypeError:
                        raise ValueError(f"rhs for row group {g} is not "
                                         f"real: {new!r}") from None
                else:       # read as complex by the concatenation
                    values = new.reshape(-1).take(index)
            parts.append(values)
        return np.concatenate(parts).view(float)

    def _split_groups(self) -> list:
        """Every group's split rows, as (data, count): the :func:`_split` of
        each block's stack and the number of split rows."""
        return [({name: _split(f) for name, f in data.items()}, 2 * len(rhs))
                for data, rhs, _, _ in self._groups]

    def _assemble(self, split, real_path: bool, keep: np.ndarray) -> SDPProblem:
        """The problem of the split rows ``keep`` on the given path, with a
        zero rhs and read-only rows."""
        herm = not real_path
        m = int(keep.sum())
        sizes = dict(self._blocks)
        A_blocks = {name: np.zeros((m, _vec_dim(sz, herm))) for name, sz in self._blocks}
        i = j = 0
        for data, count in split:
            rows = keep[j:j + count]
            j += count
            k = int(rows.sum())
            for name, h in data.items():
                h, w = h[rows], _svec_idx(sizes[name])[2]     # svec / hvec(h)
                A_blocks[name][i:i + k] = h.real * w if real_path else \
                    np.hstack([h.real * w, _SQRT2 * h.imag[:, w != 1.0]])
            i += k
        for a in A_blocks.values():
            a.flags.writeable = False
        return SDPProblem(tuple(self._blocks),
                          tuple(A_blocks[name] for name, _ in self._blocks),
                          np.zeros(m),
                          (True,) * len(self._blocks) if herm else (),
                          tuple(self._kron_rows(name, sz, real_path, keep)
                                for name, sz in self._blocks))

    def _kron_rows(self, name: str, size: int, real_path: bool,
                   keep: np.ndarray) -> Optional["_KronRows"]:
        """The factor form of block ``name``'s kept split rows, or None when
        a group does not touch the block or has no form on it, the groups
        disagree on its factors n x m or its basis order, or an imaginary
        half is kept on the real path.  The groups' matrices A are numbered
        in group order."""
        forms = [kron.get(name) for *_, kron in self._groups]
        if not forms or None in forms:
            return None
        nm = {(c[0].shape[-1] if kind == "sum" else size // mdim, mdim)
              for kind, mdim, c in forms}
        perms = {None if kind != "sum" or c[1] is None else c[1].tobytes()
                 for kind, _, c in forms}
        if len(nm) != 1 or len(perms) != 1:
            return None
        (n, m), = nm
        split = np.flatnonzero(keep)
        if n * m != size or (real_path and (split % 2).any()):
            return None
        A = np.concatenate([c[0] for kind, _, c in forms if kind == "sum"]
                           + [np.zeros((0, n, n))])
        scales = {c for kind, _, c in forms if kind == "blocktrace"}
        if len(scales) > 1 or 0.0 in scales:
            return None
        trace, ga = scales.pop() if scales else 0.0, len(A) * m * m
        row, unit, k, p = [], [], 0, 0
        for _, rhs, (_, index), kron in self._groups:
            kind, _, c = kron[name]
            if kind == "sum":                 # the group's units, renumbered
                row.append(p + c[2])
                unit.append(k * m * m + c[3])
                k += len(c[0])
            else:                             # the trace unit of entry (r, s)
                row.append(np.arange(p, p + len(rhs)))
                unit.append(ga + index)
            p += len(rhs)
        perm = next((c[1] for kind, _, c in forms if kind == "sum"), None)
        return _KronRows(n, m, A.real if real_path else A, trace, perm,
                         np.concatenate(row), np.concatenate(unit), split)

    def build(self, rhs=None):
        """Return the SDPProblem; ``rhs`` replaces the rhs of some row groups,
        as in :meth:`solve`.

        Each row tr(F* C) = rhs becomes its real part, then its imaginary
        part: tr(H C) = Re rhs and tr(K C) = Im rhs, with Hermitian
        H = (F + F*)/2 and K = i (F - F*)/2.  When every such row is
        conjugation-invariant the blocks are real of the same size (the
        real path); otherwise they are native Hermitian blocks in hvec
        coordinates.  A row is kept
        when a data coefficient is nonzero or |rhs| > 1e-12, so that
        0 = 0 and 0 = round-off go, and 0 = 1 stays, to be found inconsistent.

        The rows are made again only when the real path or the kept rows
        change; until then every build shares them, read-only, with the
        kept operator half.
        """
        b = self._split_rhs(rhs)
        split = None
        if self._op is None:
            split = self._split_groups()
            self._op = _Operator(split)
        op = self._op
        # the real path loses nothing when every split row is even, or odd
        # with rhs 0
        real_path = bool(np.all(op.even | (op.odd & (np.abs(b) <= 1e-12))))
        keep = op.coef[real_path] | (np.abs(b) > 1e-12)
        rows = op.rows
        if rows is None or rows[0] != real_path \
                or not np.array_equal(rows[1], keep):
            if split is None:
                split = self._split_groups()
            rows = op.rows = (real_path, keep,
                              self._assemble(split, real_path, keep))
        return replace(rows[2], rhs=b[keep])

    # -- solving -------------------------------------------------------------

    def solve(self, tol: float = 1e-8, max_iter: int = 200,
              rhs=None) -> SDPSolution:
        """The engine's solution of the built problem.

        ``rhs`` maps group indices, as the ``add_*`` calls returned them, to
        a new rhs for this solve only, in the form that call took: a matrix
        for ``add_matrix_eq``, a (k,) vector for ``add_complex_row``, a
        number for ``add_scalar_row``.  ``info["presolve_reused"]`` is True
        when the solve reused the presolve of the one before it.  The kept
        operator half is not locked: solves of one problem must not run
        concurrently."""
        sol = solve(self.build(rhs), tol=tol, max_iter=max_iter)
        sol.info.setdefault("presolve_reused", False)   # no presolve reached
        return sol


def build_from_complex(problem: HermitianProblem) -> SDPProblem:
    """The realification of ``problem.build()``: every n x n block becomes
    the real 2n x 2n block [[Re, -Im], [Im, Re]] / 2 of its rows, with the
    same rhs.  It decides the same question at about twice the cost, and serves as the reference the native
    Hermitian blocks are tested against; a real-path build is embedded as
    it stands.  It starts a memo of its own, so its solves leave the
    presolve kept in the build's alone."""
    built = problem.build()
    # per block, the matrix taking svec / hvec(H) to svec of its embedding;
    # its entries are +-1 up to the rounding of sqrt(2), so rounded and
    # halved they are exactly 0 or +-1/2, and the products below are exact
    maps = []
    for (_, n), h in zip(built.blocks, built.herm):
        e = _mat(np.eye(_vec_dim(n, h)), n, h)
        maps.append(np.round(svec(np.block([[e.real, -e.imag],
                                            [e.imag, e.real]]))) / 2)
    return replace(built, blocks=tuple((name, 2 * n) for name, n in built.blocks),
                   A_blocks=tuple(Ab @ M for Ab, M in zip(built.A_blocks, maps)),
                   hermitian=(), kron=(), _memo={})
