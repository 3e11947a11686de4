"""Self-contained dense semidefinite feasibility/optimization engine.

Real symmetric and complex Hermitian PSD blocks plus free scalar variables,
affine equality constraints, and a linear objective.  The core is a
homogeneous self-dual interior-point method with Nesterov-Todd scaling and a
Mehrotra predictor-corrector, so primal/dual infeasibility and unbounded
objectives are detected through certificates instead of big-M constructions.
Every FEASIBLE answer is re-verified by an independent eigenvalue/residual
check before it is returned.

The core sees PSD blocks only.  Presolve eliminates the free columns once:
with A_free P = Q R (pivoted QR), the rows are projected onto the orthogonal
complement of range(A_free), the free part c_free.u of the objective is
folded into the block objective plus a constant, and after the solve the
free values are recovered as u = A_free^+ (b - A z) (rays likewise, with
b -> 0).  When c_free has a component in null(A_free), the objective is
unbounded on every feasible point.

Presolve factors the equality rows [A_blocks | A_free] once per solve
(:class:`_Rows`): each row and its rhs are divided by the row's sup-norm,
and one LAPACK dgeqp3 of their transpose, As' P = Q R, gives the rank r, the
kept rows P[:r], consistency (the least-norm point meets every scaled row to
1e-8) and the least-norm correction Q1 R11^-T (res / scale)[P[:r]], with Q
applied from its reflectors.  Polish, the base point of an unbounded margin,
each rescue round and the 1e-11 re-solve use these factors; witnesses are
verified against the original rows.

Feasibility questions are decided through a phase-I problem

    maximize t  subject to  Z_b - t I >= 0 for every block, equalities,

whose optimal value t* is the reported margin: FEASIBLE above +feas_tol,
INFEASIBLE below -feas_tol, and inside the band only a verified boundary
witness may promote the answer to FEASIBLE (otherwise MARGINAL).  The
slack t is one more free column, eliminated with the others.

Each iteration solves the Nesterov-Todd system through the Schur complement
M_ij = sum_b <A_bi, W_b A_bj W_b> over the m equality rows, the assembly of
Fujisawa, Kojima and Nakata (Math. Prog. 79, 1997) and SDPT3.  The rows of
each n x n block are unpacked once per solve into full matrices.  With the
NT point W = R R*, M = G G' for G_i = R* A_i R, one batched product per block
and iteration into buffers kept for the solve, and one symmetric rank-k
product; the NT operator v -> W v W is applied through R, never stored.  A
block costs O(m n^2) memory and O(m n^3 + m^2 n^2) time per iteration.

The Newton step is taken in NT-scaled coordinates (Todd, Toh and Tutuncu,
SIAM J. Optim. 8, 1998; SDPT3): with R from :func:`_nt_scaling`, the scaled
directions dZ~ = R^-1 dZ R^-* and dS~ = R* dS R satisfy dZ~ + dS~ = rc~ around
the diagonal scaled iterate V = diag(v).  The Mehrotra corrector is
rc~ = diag(sigma mu / v - v) - (C + C*) / (v_i + v_j) with C = dZa~ dSa~, and
the step to the boundary of a block is one eigvalsh of V^-1/2 dX~ V^-1/2.

The core runs once per solve, from Z = S = I, in normalized units: after the
free columns are eliminated, every row is divided by the sup-norm of its
coefficients, and the rhs by beta = max |b|.  The core then solves for Z/beta,
and Z and the objective are multiplied back by beta; rays and infeasibility
certificates are directions and need no scaling.  Scaling a pencil or a
whole rhs by c > 0 therefore scales the margin by c and changes no status.
A failed run (a stall, a Schur complement that is not positive definite, a
collapsed step) is an ERROR; only a margin inside the band is solved again,
at tol 1e-11.  The core floors its residual tests at 1e-7 and its gap test
at 1e-9 (``_RESID_TOL_FLOOR``, ``_GAP_TOL_FLOOR``), so from the default
tol 1e-8 that re-solve tightens only the gap test, to 1e-9.

Small problems pay for calls, not arithmetic, so both layers a decision
passes through are built from whole arrays.  :class:`HermitianProblem`
holds its rows as stacked arrays, one group per call, and builds the
SDPProblem directly from them.  The core unpacks its rows and objective
once and then runs in full-matrix coordinates: residuals are A_flat vec(Z)
and A_flat' y reshaped, with no svec or smat in the loop; the Schur
complement is factored by LAPACK's potrf/potrs directly, and both step
lengths of a block come from one batched eigvalsh.

Complex Hermitian blocks are solved natively (as SDPT3 and SeDuMi do): an
SDPProblem block flagged ``hermitian`` has n^2 real coordinates
hvec(Z) = [svec(Re Z), sqrt(2) Im Z_ij (i < j)], with <F, Z> = Re tr(F Z)
= hvec(F).hvec(Z), so presolve, polish, verification and the rescue work on
real vectors whatever the block.  The one core loop unpacks such a block to
complex (m, n, n) rows, uses conjugate transposes, zpotrf/zheevd for the NT
scaling and the real parts of inner products, and forms the Schur
complement as one real product of float views; a Hermitian block of size n
adds n to the barrier degree.  This costs about half of the realified
2n x 2n block [[Re, -Im], [Im, Re]], which :class:`HermitianProblem` builds
only under ``force_realify`` as a reference.  When every row of a
HermitianProblem is conjugation-invariant it is solved as a real problem of
the same size instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .algebra import derealify, psd_part, realify, require_hermitian

__all__ = [
    "SolveStatus",
    "SolverError",
    "Decision",
    "SDPProblem",
    "SDPSolution",
    "ProblemBuilder",
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


class Decision:
    """Base of the yes/no results: ``bool()`` is True on FEASIBLE, False on
    INFEASIBLE, and raises on MARGINAL and ERROR, which answer neither."""

    status: SolveStatus

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
    n = s.shape[0]
    iu, ju, w = _svec_idx(n)
    return np.asarray(s, dtype=float)[iu, ju] * w


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
    n_free: number of unconstrained scalar variables t.
    A_blocks[b]: (m x dim_b) equality coefficients for block b in those
      coordinates.
    A_free: (m x n_free); rhs: (m,).
    Objective (maximized): sum_b <C_b, Z_b> + d.t, C_b in the same
    coordinates.

    The free variables never reach the interior-point core: presolve
    eliminates them (see :class:`_FreeElimination`) and recovers t from the
    solved blocks.
    """

    blocks: tuple                      # tuple[(name, size)]
    n_free: int
    A_blocks: tuple                    # tuple[np.ndarray], aligned with blocks
    A_free: np.ndarray
    rhs: np.ndarray
    obj_blocks: Optional[tuple] = None
    obj_free: Optional[np.ndarray] = None
    hermitian: tuple = ()              # tuple[bool], aligned with blocks

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

    def unpack(self, x: np.ndarray):
        """Split a stacked variable vector into its named blocks and the
        free part."""
        out = {}
        ofs = 0
        for (name, n), h in zip(self.blocks, self.herm):
            d = _vec_dim(n, h)
            out[name] = _mat(x[ofs:ofs + d], n, h)
            ofs += d
        return out, x[ofs:]

    @property
    def has_objective(self) -> bool:
        return self.obj_blocks is not None or self.obj_free is not None


@dataclass
class SDPSolution:
    status: SolveStatus
    witness: Dict[str, np.ndarray] = field(default_factory=dict)
    free_values: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    margin: Optional[float] = None
    iterations: int = 0
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


class ProblemBuilder:
    """Incremental assembly of an :class:`SDPProblem`."""

    def __init__(self):
        self._blocks: List[Tuple[str, int]] = []
        self._rows: List[Tuple[Dict[str, np.ndarray], Dict[int, float], float]] = []
        self._n_free = 0
        self._obj: Optional[Tuple[Dict[str, np.ndarray], Dict[int, float]]] = None

    def add_block(self, name: str, size: int) -> str:
        if any(n == name for n, _ in self._blocks):
            raise ValueError(f"duplicate block {name!r}")
        if size < 1:
            raise ValueError("block size must be >= 1")
        self._blocks.append((name, size))
        return name

    def add_free(self, count: int = 1) -> range:
        start = self._n_free
        self._n_free += count
        return range(start, start + count)

    def add_row(self, block_terms: Dict[str, np.ndarray],
                free_terms: Optional[Dict[int, float]], rhs: float):
        """<F_b, Z_b> summed over block_terms plus sum a_i t_i = rhs."""
        self._rows.append((dict(block_terms), dict(free_terms or {}), float(rhs)))

    def set_objective(self, block_terms: Dict[str, np.ndarray],
                      free_terms: Optional[Dict[int, float]] = None):
        self._obj = (dict(block_terms), dict(free_terms or {}))

    def build(self) -> SDPProblem:
        sizes = dict(self._blocks)
        m = len(self._rows)
        A_blocks = [np.zeros((m, svec_dim(sz))) for _, sz in self._blocks]
        A_free = np.zeros((m, self._n_free))
        rhs = np.zeros(m)
        order = {name: k for k, (name, _) in enumerate(self._blocks)}
        for i, (bt, ft, c) in enumerate(self._rows):
            for name, f in bt.items():
                f = np.asarray(f, dtype=float)
                if f.shape != (sizes[name],) * 2:
                    raise ValueError(f"row {i}: data for block {name!r} has wrong shape")
                if np.abs(f - f.T).max() > 1e-12 * max(1.0, np.abs(f).max()):
                    raise ValueError(f"row {i}: data for block {name!r} not symmetric")
                A_blocks[order[name]][i] = svec(0.5 * (f + f.T))
            for j, a in ft.items():
                A_free[i, j] = a
            rhs[i] = c
        obj_blocks = obj_free = None
        if self._obj is not None:
            bt, ft = self._obj
            obj_blocks = tuple(
                svec(np.asarray(bt[name], dtype=float)) if name in bt
                else np.zeros(svec_dim(sz))
                for name, sz in self._blocks)
            obj_free = np.zeros(self._n_free)
            for j, a in ft.items():
                obj_free[j] = a
        return SDPProblem(tuple(self._blocks), self._n_free, tuple(A_blocks),
                          A_free, rhs, obj_blocks, obj_free)


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
    """The equality rows A x = b of a problem, with A = [A_blocks | A_free]
    and x = (svec or hvec(Z_b)..., u), factored once per solve (see the
    module docstring)."""

    def __init__(self, problem: SDPProblem):
        self.problem = problem
        self.A = np.hstack([*problem.A_blocks, problem.A_free])
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

    def kept(self):
        """(A_blocks, A_free, rhs) of the kept rows."""
        return ([Ab[self.keep] for Ab in self.problem.A_blocks],
                self.problem.A_free[self.keep], self.problem.rhs[self.keep])

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


def _scale_rows(A_parts, b):
    """Divide every equality row and its rhs by the sup-norm of the row's
    coefficients, so that a large rhs leaves them at unit scale."""
    s = np.zeros(b.shape[0])
    for Ab in A_parts:
        s = np.maximum(s, np.abs(Ab).max(axis=1, initial=0.0))
    s[s == 0] = 1.0
    return [Ab / s[:, None] for Ab in A_parts], b / s


class _FreeElimination:
    """The free columns F u of the rows A z + F u = b, eliminated once.

    With F P = Q R (pivoted QR) and Q = [Q1 Q2] split at rank(F), the blocks
    alone must satisfy Q2' A z = Q2' b, and u = F^+ (b - A z) recovers the
    free part of any solution.  When c_free = F' lam lies in range(F'), the
    objective term c_free.u = lam.(b - A z) folds into the block objective
    c_b - A_b' lam plus the constant ``offset`` = lam.b.  Otherwise ``ray``
    is a direction of null(F) with c_free.ray = -1: the objective falls
    without bound from every feasible point.
    """

    def __init__(self, herm, A_parts, F, b, c_parts, c_free):
        q, r, piv = sla.qr(F, pivoting=True, check_finite=False)
        rank = _numerical_rank(r)
        r1 = np.zeros((rank, F.shape[1]))
        r1[:, piv] = r[:rank]
        self.F_pinv = np.linalg.pinv(r1) @ q[:, :rank].T
        lam = self.F_pinv.T @ c_free
        null = c_free - F.T @ lam
        nn = float(null @ null)
        self.ray = -null / nn if math.sqrt(nn) > 1e-9 * (
            1.0 + float(np.abs(c_free).max(initial=0.0))) else None
        self.herm, self.rows, self.rhs = herm, A_parts, b
        q2 = q[:, rank:]
        self.A_parts = [q2.T @ Ab for Ab in A_parts]
        self.b = q2.T @ b
        self.c_parts = [c - Ab.T @ lam for c, Ab in zip(c_parts, A_parts)]
        self.offset = float(lam @ b)

    def free_part(self, Z, weight: float = 1.0) -> np.ndarray:
        """u = F^+ (weight b - A z) for the blocks Z; weight 0 maps a ray."""
        Az = sum((Ab @ _vec(z, h) for Ab, z, h in zip(self.rows, Z, self.herm)),
                 np.zeros(self.rhs.shape[0]))
        return self.F_pinv @ (weight * self.rhs - Az)

    def unbounded_ray(self, res: "_HSDResult", sizes):
        """(block ray, free ray) of an unbounded objective, or None."""
        if self.ray is not None:
            return [np.zeros((n, n)) for n in sizes], self.ray
        if res.kind == "unbounded":
            return res.ray, self.free_part(res.ray, 0.0)
        return None


# ---------------------------------------------------------------------------
# homogeneous self-dual interior-point core
# ---------------------------------------------------------------------------


class _IPMFailure(Exception):
    """The core gave up; the solve ends in ERROR with this reason."""


def _max_steps(dx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sup { a <= 1 : diag(v) + a dX >= 0 } for each direction dX of a
    (k, n, n) stack in scaled coordinates, via one batched eigvalsh of
    diag(v)^-1/2 dX diag(v)^-1/2."""
    h = v ** -0.5
    lam = np.linalg.eigvalsh(h[:, None] * dx * h)[:, 0]
    return 1.0 / np.maximum(-lam, 1.0)


# Cholesky and symmetric/Hermitian eigensolver by the dtype of a block
_NT_LAPACK = {np.dtype(float): (lapack.dpotrf, lapack.dsyevd),
              np.dtype(complex): (lapack.zpotrf, lapack.zheevd)}


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
           work: Sequence[Tuple[np.ndarray, np.ndarray]], m: int) -> np.ndarray:
    """Schur complement M_ij = sum_b <A_bi, W_b A_bj W_b> with W_b = R_b R_b*.

    A_mats[b] stacks the m equality rows of block b as full (m, n, n)
    matrices, real symmetric or complex Hermitian.  With G_bi = R_b* A_bi R_b
    the same sum is <G_bi, G_bj> = Re tr(G_bi G_bj), the dot product of the
    float views of G_bi and G_bj.  G_b is one batched product per block,
    written into the block's two (m, n, n) ``work`` buffers (fresh
    temporaries of a MiB or more cost about as much in page faults as the
    products), and M is G G' of the float views, one symmetric rank-k
    product.
    """
    M = np.zeros((m, m))
    for F, r, (tmp, g) in zip(A_mats, R, work):
        np.matmul(r.conj().T, F, out=tmp)
        np.matmul(tmp, r, out=g)
        g = g.reshape(m, r.size).view(float)
        M += g @ g.T
    return M


@dataclass
class _HSDResult:
    kind: str                     # "optimal" | "pinfeas" | "unbounded"
    Z: Optional[list] = None
    pobj: float = math.nan
    iterations: int = 0
    info: dict = field(default_factory=dict)
    ray: Optional[list] = None


def _hsd_minimize(sizes: Sequence[int], herm: Sequence[bool],
                  A_parts: Sequence[np.ndarray], b: np.ndarray,
                  c_parts: Sequence[np.ndarray],
                  tol: float, max_iter: int) -> _HSDResult:
    """minimize sum <C_b,Z_b>  s.t. equalities, Z_b >= 0 (m = 0 allowed),

    via the homogeneous self-dual embedding with NT scaling, started from
    Z = S = I; the caller normalizes the data so that this start is central.
    A block is real symmetric, or complex Hermitian where ``herm`` says so;
    one loop serves both, with conjugate transposes and real parts of inner
    products.  The rows and the objective arrive in svec / hvec coordinates
    and are unpacked once: the loop works on full n x n matrices, with
    A_flat[b] the float view of the rows of block b as (m, n^2) matrices,
    so <A_i, Z> = A_flat[b][i] . vec(Z) viewed as floats."""
    nb = len(sizes)
    m = b.shape[0]

    dtype = [np.dtype(complex if h else float) for h in herm]
    Z = [np.eye(n, dtype=dt) for n, dt in zip(sizes, dtype)]
    S = [np.eye(n, dtype=dt) for n, dt in zip(sizes, dtype)]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    ordn = sum(sizes) + 1

    bnorm = 1.0 + float(np.abs(b).max(initial=0.0))
    cnorm = 1.0 + max([0.0] + [float(np.abs(c).max()) for c in c_parts])

    best_score = math.inf
    stall = 0
    ptol = max(tol, _RESID_TOL_FLOOR)
    gtol = max(tol, _GAP_TOL_FLOOR)

    # equality rows and objective unpacked once into full matrices, the
    # blocks whose objective is nonzero, and the weights that turn the
    # sup-norm of a block's float view into that of its svec / hvec
    A_mats = [_mat(A_parts[k], sizes[k], herm[k]) for k in range(nb)]
    A_flat = [F.reshape(m, n * n).view(float) for F, n in zip(A_mats, sizes)]
    C = [_mat(c, n, h) for c, n, h in zip(c_parts, sizes, herm)]
    c_blocks = [k for k in range(nb) if c_parts[k].any()]
    vec_wt = [np.where(np.eye(n, dtype=bool), 1.0, _SQRT2) for n in sizes]
    vec_wt = [np.repeat(w, 2, axis=1) if h else w for w, h in zip(vec_wt, herm)]
    work = [(np.empty_like(F), np.empty_like(F)) for F in A_mats]

    def A_op(X):                  # sum_b <A_bi, X_b> for every row i
        return sum((A_flat[k] @ X[k].reshape(-1).view(float) for k in range(nb)),
                   np.zeros(m))

    def At_op(v, k):              # sum_i v_i A_bi for block k
        return (v @ A_flat[k]).view(dtype[k]).reshape(sizes[k], sizes[k])

    def inner(X, Y):              # <X, Y> = Re tr(X Y) for Hermitian X, Y
        return float(np.vdot(X, Y).real)

    def vec_sup(X):               # max_b sup-norm of svec / hvec(X_b)
        return max([float(np.abs(X[k].view(float) * vec_wt[k]).max())
                    for k in range(nb)] + [0.0])

    for it in range(1, max_iter + 1):
        if not (math.isfinite(tau + kappa)
                and all(np.isfinite(x).all() for x in Z + S)):
            raise _IPMFailure("iterate diverged")
        Ax = A_op(Z)
        rP = Ax - b * tau
        Aty = [At_op(y, k) for k in range(nb)]
        rD = [Aty[k] + S[k] - C[k] * tau for k in range(nb)]
        cx = sum(inner(C[k], Z[k]) for k in c_blocks)
        by = float(b @ y)
        rG = cx - by + kappa
        gap = sum(inner(Z[k], S[k]) for k in range(nb)) + tau * kappa
        mu = gap / ordn

        # convergence / certificate tests on the normalized iterate
        pres = float(np.abs(rP).max(initial=0.0)) / (tau * bnorm)
        dres = vec_sup(rD) / (tau * cnorm)
        pobj, dobj = cx / tau, by / tau
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if pres <= ptol and dres <= ptol and relgap <= gtol:
            return _HSDResult("optimal", [zb / tau for zb in Z], pobj, it,
                              {"pres": pres, "dres": dres, "relgap": relgap})
        # infeasibility certificates (rays are re-verified by the callers)
        if by > 0:
            hres = vec_sup([Aty[k] + S[k] for k in range(nb)])
            if hres <= 1e-6 * by:
                return _HSDResult("pinfeas", iterations=it,
                                  info={"farkas_resid": hres / by, "by": by})
        if cx < 0:
            uray = float(np.abs(Ax).max(initial=0.0))
            if uray <= 1e-6 * (-cx):
                return _HSDResult("unbounded", iterations=it,
                                  ray=[zb / (-cx) for zb in Z],
                                  info={"ray_resid": uray / (-cx)})
        if tau <= 1e-12 and kappa <= 1e-12:
            raise _IPMFailure("tau and kappa both collapsed")
        score = max(pres / ptol, dres / ptol, relgap / gtol)
        stall = 0 if score < 0.98 * best_score else stall + 1
        best_score = min(best_score, score)
        if stall > 25 or mu <= 1e-25:
            raise _IPMFailure(
                f"stalled at iteration {it} (mu={mu:.2e}, pres={pres:.2e}, "
                f"dres={dres:.2e}, relgap={relgap:.2e})")

        # NT scaling W = R R* and the diagonal scaled iterate
        # R* S R = R^-1 Z R^-* = diag(v); the NT operator X -> W X W is
        # applied through R and never formed as a matrix
        R, V = zip(*[_nt_scaling(Z[k], S[k]) for k in range(nb)])
        RH = [r.conj().T for r in R]
        M = _schur(A_mats, R, work, m)
        M.flat[::m + 1] += 1e-13 * (1.0 + np.trace(M) / max(m, 1))

        cho, info = lapack.dpotrf(M, lower=1, overwrite_a=1)
        if info:
            raise _IPMFailure("Schur complement not positive definite")
        # dpotrs rejects an empty system (m = 0 when the free columns absorb
        # every row)
        solveM = (lambda v: lapack.dpotrs(cho, v, lower=1)[0]) if m else (lambda v: v)

        # the parts of the elimination that stay fixed within an iteration
        W = {k: R[k] @ RH[k] for k in c_blocks}
        WCW = {k: W[k] @ C[k] @ W[k] for k in c_blocks}
        q = sum((A_flat[k] @ WCW[k].reshape(-1).view(float) for k in c_blocks),
                np.zeros(m))
        cWCW = sum(inner(C[k], WCW[k]) for k in c_blocks)
        dy1 = solveM(q + b)
        rDs = [RH[k] @ rD[k] @ R[k] for k in range(nb)]

        def direction(rcs, rc_tk):
            # dZ~ + dS~ = rc~ in scaled coordinates, with dS~ = R* dS R,
            # dZ = R dZ~ R* and dS = c dtau - rD - A'dy, eliminated into
            # the Schur system over (dy, dtau); g = R (rc~ + R* rD R) R*
            g = [R[k] @ (rcs[k] + rDs[k]) @ RH[k] for k in range(nb)]
            dy0 = solveM(-rP - A_op(g))
            qb = q - b
            num = (-rG - rc_tk / tau - float(qb @ dy0)
                   - sum(inner(C[k], g[k]) for k in c_blocks))
            den = float(qb @ dy1) - (cWCW + kappa / tau)
            if abs(den) < 1e-300:
                raise _IPMFailure("singular bordered system")
            dtau = num / den
            dy = dy0 + dtau * dy1
            dS_ = [C[k] * dtau - rD[k] - At_op(dy, k) for k in range(nb)]
            dSs = [RH[k] @ dS_[k] @ R[k] for k in range(nb)]
            dZs = [rcs[k] - dSs[k] for k in range(nb)]
            dkappa = (rc_tk - kappa * dtau) / tau
            return dZs, dSs, dS_, dy, dtau, dkappa

        def max_alpha(dZs, dSs, dtau, dkappa):
            a = min([1.0] + [float(_max_steps(np.array((dZs[k], dSs[k])),
                                              V[k]).min()) for k in range(nb)])
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor: rc~ = -V
        dZa, dSa, _, _, dta, dka = direction(
            [-np.diag(v) for v in V], -tau * kappa)
        a_aff = max_alpha(dZa, dSa, dta, dka)
        sigma = min(1.0, max((1.0 - a_aff) ** 3, 1e-4))

        # corrector: rc~ = L_V^-1(sigma mu I - V^2 - herm(dZa~ dSa~)), with
        # L_V(X) = (V X + X V) / 2 for the diagonal V
        rcs = []
        for k in range(nb):
            v = V[k]
            corr = dZa[k] @ dSa[k]
            rcs.append(np.diag(sigma * mu / v - v)
                       - (corr + corr.conj().T) / (v[:, None] + v))
        rc_tk = sigma * mu - tau * kappa - dta * dka
        dZs, dSs, dS, dy, dt, dk = direction(rcs, rc_tk)
        alpha = 0.98 * max_alpha(dZs, dSs, dt, dk)
        if alpha < 1e-9:
            raise _IPMFailure(f"step length collapsed at iteration {it}")
        for k in range(nb):
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


def _verify_witness(problem: SDPProblem, Z: Dict[str, np.ndarray],
                    u: Optional[np.ndarray]):
    """Independent residual/eigenvalue check, separate from solver internals."""
    z_sv = [_vec(Z[name], h) for (name, _), h in zip(problem.blocks, problem.herm)]
    lhs = sum(Ab @ zv for Ab, zv in zip(problem.A_blocks, z_sv)) \
        if problem.m else np.zeros(0)
    if problem.n_free:
        lhs = lhs + problem.A_free @ (u if u is not None else np.zeros(problem.n_free))
    eq_resid = float(np.abs(lhs - problem.rhs).max()) if problem.m else 0.0
    eig_min = min([float(np.linalg.eigvalsh(Z[name])[0])
                   for name, _ in problem.blocks] + [math.inf])
    return eq_resid, eig_min


def _polish(rows: _Rows, Z: Dict[str, np.ndarray], u: Optional[np.ndarray]):
    """Least-norm correction moving a witness exactly onto the equalities."""
    problem = rows.problem
    x = np.concatenate([problem.vec(Z),
                        u if u is not None else np.zeros(problem.n_free)])
    out, rest = problem.unpack(x + rows.correction(problem.rhs - rows.A @ x))
    return out, (rest if problem.n_free else u)


def solve(problem: SDPProblem, tol: float = 1e-8, max_iter: int = 200,
          feas_tol: float = FEAS_TOL) -> SDPSolution:
    """Solve an SDP.  Problems with an objective are maximized; problems
    without one are decided through the phase-I construction."""
    if not problem.has_objective:
        return solve_feasibility(problem, tol=tol, max_iter=max_iter,
                                 feas_tol=feas_tol)
    return _solve_optimize(problem, tol, max_iter)


def _solve_blocks(sizes, herm, A_parts, A_free, b, c_parts, c_free, tol,
                  max_iter):
    """Eliminate the free columns, then run the core once on the blocks alone,
    in units where the rows and the rhs have unit sup-norm.

    The core solves for Z / beta with beta = max |b_red|; its Z and pobj are
    mapped back, while rays and Farkas certificates are directions and stay.
    ``info`` gets ``attempts`` (1: one IPM run) and ``iterations_total``.
    """
    el = _FreeElimination(herm, A_parts, A_free, b, c_parts, c_free)
    A_red, b_red = _scale_rows(el.A_parts, el.b)
    beta = float(np.abs(b_red).max(initial=0.0)) or 1.0
    res = _hsd_minimize(sizes, herm, A_red, b_red / beta, el.c_parts, tol,
                        max_iter)
    if res.kind == "optimal":
        res.Z = [beta * z for z in res.Z]
        res.pobj *= beta
    res.info.update(attempts=1, iterations_total=res.iterations)
    return el, res


def _solve_optimize(problem: SDPProblem, tol, max_iter) -> SDPSolution:
    rows = _Rows(problem)
    if not rows.consistent:
        return SDPSolution(SolveStatus.INFEASIBLE, margin=-math.inf,
                           info={"reason": "inconsistent equalities"})
    A_parts, A_free, b = rows.kept()
    sizes, herm = [s for _, s in problem.blocks], problem.herm
    if problem.obj_blocks is not None:
        c_parts = [-np.asarray(c, dtype=float) for c in problem.obj_blocks]
    else:
        c_parts = [np.zeros(_vec_dim(s, h)) for s, h in zip(sizes, herm)]
    c_free = -(problem.obj_free if problem.obj_free is not None
               else np.zeros(problem.n_free))
    if b.shape[0] == 0:
        return SDPSolution(SolveStatus.ERROR,
                           info={"reason": "optimization without constraints"})
    try:
        el, res = _solve_blocks(sizes, herm, A_parts, A_free, b, c_parts,
                                c_free, tol, max_iter)
    except _IPMFailure as exc:
        return SDPSolution(SolveStatus.ERROR, info={"reason": str(exc)})
    if res.kind == "pinfeas":
        return SDPSolution(SolveStatus.INFEASIBLE, margin=-math.inf,
                           iterations=res.iterations,
                           info={**res.info, "reason": "primal infeasible"})
    nf = problem.n_free
    ray = el.unbounded_ray(res, sizes)
    if ray is not None:
        Z_ray, u_ray = ray
        return SDPSolution(SolveStatus.FEASIBLE,
                           witness={name: Z_ray[k] for k, (name, _)
                                    in enumerate(problem.blocks)},
                           free_values=u_ray if nf else None,
                           objective_value=math.inf, iterations=res.iterations,
                           info={**res.info, "unbounded_objective": True})
    witness = {name: res.Z[k] for k, (name, _) in enumerate(problem.blocks)}
    ures = el.free_part(res.Z) if nf else None
    witness, ures = _polish(rows, witness, ures)
    eq_resid, eig_min = _verify_witness(problem, witness, ures)
    return SDPSolution(SolveStatus.FEASIBLE, witness=witness,
                       free_values=ures,
                       objective_value=-(res.pobj + el.offset),
                       iterations=res.iterations,
                       info={**res.info, "eq_resid": eq_resid,
                             "eig_min": eig_min})


def solve_feasibility(problem: SDPProblem, tol: float = 1e-8,
                      max_iter: int = 200,
                      feas_tol: float = FEAS_TOL) -> SDPSolution:
    """Phase-I feasibility with a signed margin.

    FEASIBLE when the best uniform eigenvalue slack t* exceeds +feas_tol,
    INFEASIBLE below -feas_tol.  Inside the band, a witness rescue clips the
    terminal iterate to the cone and re-checks the equalities; only a
    verified witness may promote the answer to FEASIBLE, otherwise the
    honest answer is MARGINAL.  Before the rescue, a band answer is solved
    once more at tol 1e-11, which at the default tol tightens only the
    core's gap test (to its floor 1e-9; the residual tests stay at their
    floor 1e-7).  That result's ``info`` sums ``attempts`` and
    ``iterations_total`` over both solves and sets ``resolves``, the number
    of these tighter-gap re-solves, which reuse the factored rows.
    """
    if problem.has_objective:
        raise ValueError("solve_feasibility expects a problem without objective")
    rows = _Rows(problem)
    if not rows.consistent:
        return SDPSolution(SolveStatus.INFEASIBLE, margin=-math.inf,
                           info={"reason": "inconsistent equalities"})
    return _phase_one(rows, tol, max_iter, feas_tol)


def _phase_one(rows: _Rows, tol, max_iter, feas_tol) -> SDPSolution:
    """:func:`solve_feasibility` on consistent, factored rows."""
    problem = rows.problem
    A_parts, A_free, b = rows.kept()
    sizes, herm = [s for _, s in problem.blocks], problem.herm
    nb = len(sizes)
    nf = problem.n_free
    if b.shape[0] == 0:
        witness = {name: np.eye(s) for name, s in problem.blocks}
        return SDPSolution(SolveStatus.FEASIBLE, witness=witness,
                           free_values=np.zeros(nf), margin=math.inf,
                           info={"reason": "no equality constraints"})
    # substitute Z_b = Z'_b + t I with Z'_b >= 0 and free t; maximize t
    t_col = sum(A_parts[k] @ _vec(np.eye(sizes[k]), herm[k]) for k in range(nb))
    c_free = np.zeros(nf + 1)
    c_free[-1] = -1.0          # minimize -t
    try:
        el, res = _solve_blocks(sizes, herm, A_parts,
                                np.column_stack([A_free, t_col]), b,
                                [np.zeros(_vec_dim(s, h)) for s, h in zip(sizes, herm)],
                                c_free, tol, max_iter)
    except _IPMFailure as exc:
        return SDPSolution(SolveStatus.ERROR, info={"reason": str(exc)})
    eq_tol = max(_WITNESS_EQ_TOL,
                 _WITNESS_EQ_TOL * (np.abs(problem.rhs).max() if problem.m else 1.0))
    if res.kind == "pinfeas":
        # cannot happen for consistent equalities; stay honest
        return SDPSolution(SolveStatus.ERROR, iterations=res.iterations,
                           info={**res.info,
                                 "reason": "phase-I reported infeasible"})
    ray = el.unbounded_ray(res, sizes)
    if ray is not None:
        # t can grow without bound along the certified ray; convert it into
        # an explicit verified witness before claiming FEASIBLE
        Z_ray, u_ray = ray
        t_ray = float(u_ray[nf])
        ray = {name: Z_ray[k] + t_ray * np.eye(sizes[k])
               for k, (name, _) in enumerate(problem.blocks)}
        u_ray = u_ray[:nf]
        base, ubase = problem.unpack(rows.correction(problem.rhs))
        for s in (1.0, 1e2, 1e4, 1e6, 1e8):
            cand = {name: base[name] + s * ray[name] for name, _ in problem.blocks}
            ucand = ubase + s * u_ray
            cand, ucand = _polish(rows, cand, ucand)
            eq_resid, eig_min = _verify_witness(problem, cand, ucand)
            if eq_resid <= eq_tol and eig_min > feas_tol:
                return SDPSolution(SolveStatus.FEASIBLE, witness=cand,
                                   free_values=ucand, margin=math.inf,
                                   iterations=res.iterations,
                                   info={**res.info, "unbounded_margin": True,
                                         "eq_resid": eq_resid,
                                         "eig_min": eig_min})
        return SDPSolution(SolveStatus.ERROR, iterations=res.iterations,
                           info={**res.info,
                                 "reason": "unbounded-margin certificate did "
                                           "not yield a verified witness"})
    u = el.free_part(res.Z)
    t_star, u = float(u[nf]), u[:nf]
    witness = {}
    for (name, n), z in zip(problem.blocks, res.Z):
        z = z + t_star * np.eye(n)
        witness[name] = 0.5 * (z + z.conj().T)
    base_info = {**res.info, "t_star": t_star}
    it = res.iterations
    # widen the marginal band to the achieved solver accuracy
    band = max(feas_tol, 10.0 * _accuracy(res.info) * (1.0 + abs(t_star)))

    if t_star > band:
        witness, u = _polish(rows, witness, u)
        eq_resid, eig_min = _verify_witness(problem, witness, u)
        if eq_resid <= eq_tol and eig_min >= -_WITNESS_EIG_TOL:
            return SDPSolution(SolveStatus.FEASIBLE, witness=witness,
                               free_values=u, margin=t_star, iterations=it,
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
        sol = _phase_one(rows, 1e-11, max(max_iter, 300), feas_tol)
        sol.info.update(
            attempts=res.info["attempts"] + sol.info.get("attempts", 0),
            iterations_total=(res.info["iterations_total"]
                              + sol.info.get("iterations_total", 0)),
            resolves=sol.info.get("resolves", 0) + 1)
        return sol
    # alternate equality projection and eigenvalue clipping to rescue a
    # boundary witness; only a verified witness promotes to FEASIBLE
    cand, uc = witness, u
    eq_resid, eig_min = math.inf, -math.inf
    for _ in range(400):
        cand, uc = _polish(rows, cand, uc)
        eq_resid, eig_min = _verify_witness(problem, cand, uc)
        if eig_min >= -0.5 * _WITNESS_EIG_TOL:
            break
        cand = {name: psd_part(mat) for name, mat in cand.items()}
    if eq_resid <= eq_tol and eig_min >= -_WITNESS_EIG_TOL:
        return SDPSolution(SolveStatus.FEASIBLE, witness=cand, free_values=uc,
                           margin=t_star, iterations=it,
                           info={**base_info, "eq_resid": eq_resid,
                                 "eig_min": eig_min, "rescued": True})
    return SDPSolution(SolveStatus.MARGINAL, witness=witness, free_values=u,
                       margin=t_star, iterations=it, info=base_info)


# ---------------------------------------------------------------------------
# complex Hermitian layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeHermitian:
    """Handle for a Hermitian matrix unknown, parametrized by real scalars.

    Variable layout: n diagonal entries, then (Re, Im) pairs for i < j in
    row-major upper-triangle order.
    """

    name: str
    size: int
    start: int

    @property
    def n_vars(self) -> int:
        return self.size * self.size

    def _basis(self) -> np.ndarray:
        """(size^2, n_vars) complex matrix E with vec(Y) = E @ values."""
        n = self.size
        iu, ju = np.triu_indices(n, 1)
        re = n + 2 * np.arange(iu.size)
        e = np.zeros((n, n, n * n), dtype=complex)
        e[np.arange(n), np.arange(n), np.arange(n)] = 1.0
        e[iu, ju, re] = e[ju, iu, re] = 1.0
        e[iu, ju, re + 1] = 1j
        e[ju, iu, re + 1] = -1j
        return e.reshape(n * n, n * n)

    def assemble(self, values: np.ndarray) -> np.ndarray:
        return (self._basis() @ values).reshape(self.size, self.size)


def _herm_split(f: np.ndarray):
    """Hermitian data pair (Hre, Him) with tr(Hre C) = Re tr(F* C) and
    tr(Him C) = Im tr(F* C) for Hermitian C; F may be a stack."""
    fh = f.conj().swapaxes(-1, -2)
    return 0.5 * (f + fh), 0.5j * (f - fh)


class HermitianProblem:
    """Complex Hermitian PSD blocks, real free scalars (including Hermitian
    matrix unknowns), scalar equality rows with Hermitian data matrices, and
    an optional linear objective.

    Rows are held in groups, one per ``add_*`` call: a (k, n, n) stack of
    exactly Hermitian data per block, a (k, n_free) real array of free
    coefficients and a (k,) rhs.  ``solve`` hands the engine native
    Hermitian blocks; when every row is conjugation-invariant the equivalent
    real-restricted problem is solved instead, with real blocks of the same
    size.  ``force_realify`` builds the realified 2n x 2n blocks
    [[Re, -Im], [Im, Re]] instead, as a reference.
    """

    def __init__(self):
        self._blocks: List[Tuple[str, int]] = []
        self._n_free = 0
        self._free_herms: List[FreeHermitian] = []
        self._groups: List[Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]] = []
        self._obj: Optional[Tuple[Dict[str, np.ndarray], Dict[int, float]]] = None

    # -- variables ---------------------------------------------------------

    def add_block(self, name: str, size: int) -> str:
        if any(n == name for n, _ in self._blocks):
            raise ValueError(f"duplicate block {name!r}")
        if size < 1:
            raise ValueError("block size must be >= 1")
        self._blocks.append((name, size))
        return name

    def add_free(self, count: int = 1) -> range:
        start = self._n_free
        self._n_free += count
        return range(start, start + count)

    def add_free_hermitian(self, name: str, size: int) -> FreeHermitian:
        fh = FreeHermitian(name, size, self._n_free)
        self._n_free += fh.n_vars
        self._free_herms.append(fh)
        return fh

    # -- rows ----------------------------------------------------------------

    def _block_data(self, block_data) -> Dict[str, np.ndarray]:
        """The data matrices of one row, checked against the block sizes."""
        sizes = dict(self._blocks)
        out = {}
        for name, f in block_data.items():
            f = np.asarray(f, dtype=complex)
            if f.shape != (sizes[name],) * 2:
                raise ValueError(f"data for block {name!r} has wrong shape")
            out[name] = f
        return out

    def _free_row(self, free_terms) -> np.ndarray:
        """One row's free coefficients {index: value} as a (1, n_free) array."""
        row = np.zeros((1, self._n_free), dtype=complex)
        for k, v in (free_terms or {}).items():
            row[0, int(k)] = v
        return row

    def add_scalar_row(self, block_terms: Dict[str, np.ndarray],
                       free_terms: Optional[Dict[int, float]], rhs: float):
        """sum_b tr(H_b C_b) + sum a_i u_i = rhs with Hermitian H, real rhs."""
        data = {name: require_hermitian(h, what=f"data for block {name!r}")[None]
                for name, h in self._block_data(block_terms).items()}
        self._groups.append((data, self._free_row(free_terms).real,
                             np.array([float(rhs)])))

    def add_complex_row(self, block_data: Dict[str, np.ndarray],
                        free_terms: Optional[Dict[int, complex]], rhs: complex):
        """Complex equality sum_b tr(F_b* C_b) + sum c_i u_i = rhs, split
        into its real and imaginary parts (F need not be Hermitian)."""
        data = {name: f[None] for name, f in self._block_data(block_data).items()}
        self._add_split(data, self._free_row(free_terms), np.array([complex(rhs)]))

    def _add_split(self, data, free, rhs):
        """Append the rows tr(F_p* C) + free_p.u = rhs_p, each as its real
        part then its imaginary part; a part that reads 0 = 0 is dropped."""
        k = rhs.shape[0]
        parts = {name: np.stack(_herm_split(f), axis=1).reshape(2 * k, *f.shape[1:])
                 for name, f in data.items()}
        free = np.stack([free.real, free.imag], axis=1).reshape(2 * k, -1)
        rhs = np.stack([rhs.real, rhs.imag], axis=1).ravel()
        keep = (free != 0).any(axis=1) | (rhs != 0)
        for h in parts.values():
            keep |= (h != 0).any(axis=(1, 2))
        self._groups.append(({name: h[keep] for name, h in parts.items()},
                             free[keep], rhs[keep]))

    def add_matrix_eq(self, terms, rhs):
        """Matrix equality sum(term values) = rhs, expanded into the real and
        then the imaginary part of each entry (r, s), r <= s; each term is one
        array operation over all entries.  Terms (complex-linear values):
          ("apply", block, A, m)      sum_pq A_pq C_pq with m x m blocks C_pq
          ("entry", block, scale)     scale * C
          ("blocktrace", block, m, scale) scale * (tr C_pq)_pq, m x m blocks
          ("kron", coeff, fh)         coeff (x) Y
          ("kron_block", coeff, block) coeff (x) C for a PSD block C
          ("kron_scalar", coeff, j)   coeff * u_j"""
        rhs = np.asarray(rhs, dtype=complex)
        r, s, _ = _svec_idx(rhs.shape[0])
        p, sizes, F = np.arange(r.size), dict(self._blocks), {}
        free = np.zeros((p.size, self._n_free), dtype=complex)
        def block(name, *shape):      # the data of every entry, as (p, *shape)
            if name not in F:
                F[name] = np.zeros((p.size, sizes[name], sizes[name]), dtype=complex)
            return F[name].reshape(p.size, *shape) if shape else F[name]
        for kind, *args in terms:
            if kind == "apply":
                name, A, mdim = args
                A = np.asarray(A, dtype=complex)
                block(name, len(A), mdim, len(A), mdim)[p, :, r, :, s] += A.conj()
            elif kind == "entry":
                name, scale = args
                block(name)[p, r, s] += scale
            elif kind == "blocktrace":
                name, mdim, scale = args
                nd = sizes[name] // mdim
                block(name, nd, mdim, nd, mdim)[p, r, :, s, :] += scale * np.eye(mdim)
            elif kind == "kron":
                coeff, fh = args
                k = fh.size
                c = np.asarray(coeff, dtype=complex)[r // k, s // k, None]
                free[:, fh.start:fh.start + k * k] += c * fh._basis()[r % k * k + s % k]
            elif kind == "kron_block":
                coeff, name = args
                k = sizes[name]
                block(name)[p, r % k, s % k] += np.conj(coeff)[r // k, s // k]
            elif kind == "kron_scalar":
                coeff, j = args
                free[:, j] += np.asarray(coeff, dtype=complex)[r, s]
            else:
                raise ValueError(f"unknown term kind {kind!r}")
        self._add_split(F, free, rhs[r, s])

    def set_objective(self, block_terms: Dict[str, np.ndarray],
                      free_terms: Optional[Dict[int, float]] = None):
        """Maximize sum tr(H_b C_b) + sum a.u (H Hermitian)."""
        self._obj = ({n: np.asarray(h, dtype=complex) for n, h in block_terms.items()},
                     dict(free_terms or {}))

    # -- building ------------------------------------------------------------

    def _imag_vars(self) -> np.ndarray:
        """Mask of the free variables that are imaginary parts."""
        imag = np.zeros(self._n_free, dtype=bool)
        for fh in self._free_herms:
            imag[fh.start:fh.start + fh.n_vars] = (fh._basis().imag != 0).any(axis=0)
        return imag

    def _is_real(self, imag: np.ndarray) -> bool:
        """True when restricting all unknowns to real entries is lossless.

        That holds when each row is either invariant under conjugating every
        unknown (real data, no imaginary-component variables) or flips sign
        entirely (imaginary data, rhs 0, only imaginary-component variables).
        """
        for bt, ft, rhs in self._groups:
            im_max = re_max = np.zeros(rhs.shape[0])
            for h in bt.values():
                im_max = np.maximum(im_max, np.abs(h.imag).max(axis=(1, 2)))
                re_max = np.maximum(re_max, np.abs(h.real).max(axis=(1, 2)))
            uses = ft != 0
            im = imag[:ft.shape[1]]
            even = (im_max <= 1e-13) & ~uses[:, im].any(axis=1)
            odd = (re_max <= 1e-13) & (np.abs(rhs) <= 1e-12) & \
                ~uses[:, ~im].any(axis=1)
            if not (even | odd).all():
                return False
        if self._obj is not None:
            bt, ft = self._obj
            if max([float(np.abs(h.imag).max()) for h in bt.values()] + [0.0]) > 1e-13:
                return False
            if any(imag[i] for i in ft):
                return False
        return True

    def build(self, force_realify: bool = False):
        """Return (SDPProblem, decoder).

        When every row is conjugation-invariant the blocks are real of the
        same size (the real path); otherwise they are native Hermitian blocks
        in hvec coordinates.  ``force_realify`` instead embeds every block as
        the real 2n x 2n block [[Re, -Im], [Im, Re]] / 2, the reference the
        native blocks are tested against.
        """
        imag = self._imag_vars()
        real_path = (not force_realify) and self._is_real(imag)
        herm = not (real_path or force_realify)
        kept_vars = np.flatnonzero(~imag) if real_path else np.arange(self._n_free)
        blocks = tuple((name, 2 * sz if force_realify else sz)
                       for name, sz in self._blocks)
        groups = []
        for bt, ft, rhs in self._groups:
            ft = ft[:, kept_vars[:np.searchsorted(kept_vars, ft.shape[1])]]
            if real_path:
                data = {name: h.real for name, h in bt.items()}
                # a conjugation-odd row reads 0 = 0 on real unknowns; a
                # zero row with a nonzero rhs stays, to be found inconsistent
                keep = (ft != 0).any(axis=1) | (np.abs(rhs) > 1e-12)
                for d in data.values():
                    keep |= (d != 0).any(axis=(1, 2))
                data = {name: d[keep] for name, d in data.items()}
                ft, rhs = ft[keep], rhs[keep]
            elif force_realify:
                data = {name: 0.5 * np.block([[h.real, -h.imag], [h.imag, h.real]])
                        for name, h in bt.items()}
            else:
                data = bt
            groups.append((data, ft, rhs))
        m = sum(rhs.shape[0] for _, _, rhs in groups)
        A_blocks = {name: np.zeros((m, _vec_dim(sz, herm))) for name, sz in blocks}
        A_free, b = np.zeros((m, kept_vars.size)), np.zeros(m)
        i = 0
        for data, ft, rhs in groups:
            k = rhs.shape[0]
            for name, d in data.items():
                if herm:
                    A_blocks[name][i:i + k] = hvec(d)
                    continue
                # the data is symmetric; averaging the two triangles only
                # gives each zero the sign ProblemBuilder gives it
                iu, ju, w = _svec_idx(d.shape[1])
                A_blocks[name][i:i + k] = 0.5 * (d[:, iu, ju] + d[:, ju, iu]) * w
            A_free[i:i + k, :ft.shape[1]] = ft
            b[i:i + k] = rhs
            i += k
        obj_blocks = obj_free = None
        if self._obj is not None:
            bt, ft = self._obj
            obj_blocks = tuple(
                (hvec(bt[name]) if herm else
                 svec(0.5 * realify(bt[name]) if force_realify else bt[name].real))
                if name in bt else np.zeros(_vec_dim(sz, herm)) for name, sz in blocks)
            var_map = {v: k for k, v in enumerate(kept_vars)}
            obj_free = np.zeros(kept_vars.size)
            for i, a in ft.items():
                obj_free[var_map[i]] = float(a)
        problem = SDPProblem(blocks, int(kept_vars.size),
                             tuple(A_blocks[name] for name, _ in blocks),
                             A_free, b, obj_blocks, obj_free,
                             (True,) * len(blocks) if herm else ())
        decoder = _HermitianDecoder(self._blocks, self._free_herms,
                                    self._n_free, kept_vars, real_path,
                                    force_realify)
        return problem, decoder

    # -- solving -------------------------------------------------------------

    def solve(self, tol: float = 1e-8, max_iter: int = 200,
              feas_tol: float = FEAS_TOL, force_realify: bool = False):
        problem, decoder = self.build(force_realify=force_realify)
        sol = solve(problem, tol=tol, max_iter=max_iter, feas_tol=feas_tol)
        return HermitianSolution(sol, decoder)


class _HermitianDecoder:
    def __init__(self, blocks, free_herms, n_free, kept_vars, real_path,
                 realified):
        self.blocks = blocks
        self.free_herms = {fh.name: fh for fh in free_herms}
        self.n_free = n_free
        self.kept_vars = kept_vars
        self.real_path = real_path
        self.realified = realified

    def full_free(self, free_values):
        out = np.zeros(self.n_free)
        if free_values is not None:
            out[self.kept_vars] = free_values
        return out

    def block(self, name, witness):
        raw = witness.get(name)
        if raw is None:
            return None
        if self.realified:
            return derealify(raw)
        return np.asarray(raw, dtype=complex)


@dataclass
class HermitianSolution:
    """Complex-space view of an engine solution."""

    raw: SDPSolution
    decoder: _HermitianDecoder

    @property
    def status(self) -> SolveStatus:
        return self.raw.status

    @property
    def feasible(self) -> bool:
        return self.raw.status is SolveStatus.FEASIBLE

    @property
    def margin(self):
        return self.raw.margin

    @property
    def objective_value(self):
        return self.raw.objective_value

    @property
    def info(self):
        return self.raw.info

    def block(self, name: str):
        return self.decoder.block(name, self.raw.witness)

    def free_hermitian(self, fh: FreeHermitian):
        return fh.assemble(self.decoder.full_free(self.raw.free_values)[
            fh.start:fh.start + fh.n_vars])

    def free_value(self, idx: int) -> float:
        return float(self.decoder.full_free(self.raw.free_values)[idx])


def build_from_complex(problem: HermitianProblem) -> SDPProblem:
    """Realified real-symmetric problem equivalent to the Hermitian one.

    Always doubles block sizes via [[Re, -Im], [Im, Re]], even for purely
    real data; the witness back-map is available through
    ``problem.build(force_realify=True)``.
    """
    built, _ = problem.build(force_realify=True)
    return built
