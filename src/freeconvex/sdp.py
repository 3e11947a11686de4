"""Self-contained dense semidefinite feasibility/optimization engine.

Real symmetric PSD blocks plus free scalar variables, affine equality
constraints, and a linear objective.  The core is a homogeneous self-dual
interior-point method with Nesterov-Todd scaling and a Mehrotra
predictor-corrector, so primal/dual infeasibility and unbounded objectives
are detected through certificates instead of big-M constructions.  Every
FEASIBLE answer is re-verified by an independent eigenvalue/residual check
before it is returned.

The core sees PSD blocks only.  Presolve eliminates the free columns once:
with A_free P = Q R (pivoted QR), the rows are projected onto the orthogonal
complement of range(A_free), the free part c_free.u of the objective is
folded into the block objective plus a constant, and after the solve the
free values are recovered as u = A_free^+ (b - A z) (rays likewise, with
b -> 0).  When c_free has a component in null(A_free), the objective is
unbounded on every feasible point.  Witnesses are polished and verified
against the original, unreduced rows.

Feasibility questions are decided through a phase-I problem

    maximize t  subject to  Z_b - t I >= 0 for every block, equalities,

whose optimal value t* is the reported margin: FEASIBLE above +feas_tol,
INFEASIBLE below -feas_tol, and inside the band only a verified boundary
witness may promote the answer to FEASIBLE (otherwise MARGINAL).  The
slack t is one more free column, eliminated with the others.

Each iteration solves the Nesterov-Todd system through the Schur complement
M_ij = sum_b <A_bi, W_b A_bj W_b> over the m equality rows, the assembly of
Fujisawa, Kojima and Nakata (Math. Prog. 79, 1997) and SDPT3.  The rows of
each n x n block are unpacked once per solve into full matrices, W A_j W is
one batched product per block and iteration, and the NT operator v -> W v W
is applied through W, never stored.  A block costs O(m n^2) memory and
O(m n^3 + m^2 n^2) time per iteration.

The Newton step is taken in NT-scaled coordinates (Todd, Toh and Tutuncu,
SIAM J. Optim. 8, 1998; SDPT3): with R from :func:`_nt_scaling`, the scaled
directions dZ~ = R^-1 dZ R^-T and dS~ = R' dS R satisfy dZ~ + dS~ = rc~ around
the diagonal scaled iterate V = diag(v).  The Mehrotra corrector is
rc~ = diag(sigma mu / v - v) - (C + C') / (v_i + v_j) with C = dZa~ dSa~, and
the step to the boundary of a block is one eigvalsh of V^-1/2 dX~ V^-1/2.

Complex Hermitian problems enter through :class:`HermitianProblem`, which
realifies blocks via [[Re, -Im], [Im, Re]] and maps witnesses back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla

from .algebra import derealify, hermitian_part, psd_part, realify

__all__ = [
    "SolveStatus",
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
# svec utilities (sqrt-2 scaled upper triangle, so <S,T> = svec(S).svec(T))
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


# ---------------------------------------------------------------------------
# problem containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SDPProblem:
    """Dense real SDP in primal form.

    blocks: (name, size) PSD variable blocks Z_b.
    n_free: number of unconstrained scalar variables t.
    A_blocks[b]: (m x svec_dim(size_b)) equality coefficients for block b.
    A_free: (m x n_free); rhs: (m,).
    Objective (maximized): sum_b <C_b, Z_b> + d.t, given in svec coordinates.

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

    @property
    def m(self) -> int:
        return self.rhs.shape[0]

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
# presolve: row scaling, rank reduction, consistency
# ---------------------------------------------------------------------------


def _presolve(A: np.ndarray, b: np.ndarray, tol: float = 1e-11):
    """Return (keep_rows, consistent).  Rows are scaled to unit sup-norm
    before rank detection; an inconsistent affine system reports
    consistent=False (no conic point can exist)."""
    m = A.shape[0]
    if m == 0:
        return np.arange(0), True
    scale = np.maximum(np.abs(A).max(axis=1), np.abs(b))
    scale[scale == 0] = 1.0
    As = A / scale[:, None]
    bs = b / scale
    x0, *_ = np.linalg.lstsq(As, bs, rcond=None)
    resid = float(np.abs(As @ x0 - bs).max()) if m else 0.0
    if resid > 1e-8:
        return np.arange(m), False
    q, r, piv = sla.qr(As.T, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > max(tol * diag[0], 1e-13)))
    keep = np.sort(piv[:rank])
    return keep, True


def _scale_rows(A_parts, b):
    """Divide every equality row (and its rhs) by its sup-norm."""
    s = np.abs(b)
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

    def __init__(self, A_parts, F, b, c_parts, c_free):
        m, nf = F.shape
        q, r1 = np.eye(m), np.zeros((0, nf))
        if nf:
            q, r, piv = sla.qr(F, pivoting=True, check_finite=False)
            diag = np.abs(np.diag(r))
            # numerical rank by the rule of _presolve
            rank = int(np.sum(diag > max(1e-11 * diag[0], 1e-13)))
            r1 = np.zeros((rank, nf))
            r1[:, piv] = r[:rank]
        rank = r1.shape[0]
        self.F_pinv = np.linalg.pinv(r1) @ q[:, :rank].T
        lam = self.F_pinv.T @ c_free
        null = c_free - F.T @ lam
        nn = float(null @ null)
        self.ray = -null / nn if math.sqrt(nn) > 1e-9 * (
            1.0 + float(np.abs(c_free).max(initial=0.0))) else None
        self.rows, self.rhs = A_parts, b
        q2 = q[:, rank:]
        self.A_parts = [q2.T @ Ab for Ab in A_parts]
        self.b = q2.T @ b
        self.c_parts = [c - Ab.T @ lam for c, Ab in zip(c_parts, A_parts)]
        self.offset = float(lam @ b)

    def free_part(self, Z, weight: float = 1.0) -> np.ndarray:
        """u = F^+ (weight b - A z) for the blocks Z; weight 0 maps a ray."""
        Az = sum((Ab @ svec(z) for Ab, z in zip(self.rows, Z)),
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
    iterations = 0     # iterations the failed attempt ran before it gave up


def _max_step(dx: np.ndarray, v: np.ndarray) -> float:
    """sup { a <= 1 : diag(v) + a dX >= 0 } for a direction dX in scaled
    coordinates, via eig of diag(v)^-1/2 dX diag(v)^-1/2."""
    h = v ** -0.5
    lam = float(np.linalg.eigvalsh(h[:, None] * dx * h)[0])
    if lam >= -1e-13:
        return 1.0
    return min(1.0, -1.0 / lam)


def _nt_scaling(z: np.ndarray, s: np.ndarray):
    """NT scaling factor R and scaled iterate v.

    With Z = Lz Lz' and Lz' S Lz = E D E', R = Lz E D^-1/4 gives the NT point
    W = R R' (W S W = Z) and R' S R = R^-1 Z R^-T = diag(v), v = D^1/2.
    """
    try:
        lz = np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        raise _IPMFailure("iterate left the cone")
    m = lz.T @ s @ lz
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    if evals[0] <= 0:
        raise _IPMFailure("scaling matrix not positive definite")
    return (lz @ evecs) * evals ** -0.25, np.sqrt(evals)


def _schur(A_mats: Sequence[np.ndarray], W: Sequence[np.ndarray],
           m: int) -> np.ndarray:
    """Schur complement M_ij = sum_b <A_bi, W_b A_bj W_b>.

    A_mats[b] stacks the m equality rows of block b as full (m, n, n)
    matrices; W_b A_bj W_b is formed for all rows in one batched product.
    """
    M = np.zeros((m, m))
    for F, w in zip(A_mats, W):
        M += F.reshape(m, w.size) @ (w @ F @ w).reshape(m, w.size).T
    return M


@dataclass
class _HSDResult:
    kind: str                     # "optimal" | "pinfeas" | "unbounded"
    Z: Optional[list] = None
    pobj: float = math.nan
    iterations: int = 0
    info: dict = field(default_factory=dict)
    ray: Optional[list] = None


def _hsd_minimize(sizes: Sequence[int], A_parts: Sequence[np.ndarray],
                  b: np.ndarray, c_parts: Sequence[np.ndarray],
                  tol: float, max_iter: int,
                  init_scale: float = 1.0) -> _HSDResult:
    """minimize sum <C_b,Z_b>  s.t. equalities, Z_b >= 0 (m = 0 allowed),

    via the homogeneous self-dual embedding with NT scaling."""
    nb = len(sizes)
    m = b.shape[0]

    Z = [init_scale * np.eye(n) for n in sizes]
    S = [init_scale * np.eye(n) for n in sizes]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    ordn = sum(sizes) + 1

    bnorm = 1.0 + float(np.abs(b).max(initial=0.0))
    cnorm = 1.0 + max([0.0] + [float(np.abs(c).max()) for c in c_parts])

    best_score = math.inf
    best_snapshot = None
    stall = 0
    ptol = max(tol, 1e-7)
    gtol = max(tol, 1e-9)

    def finish(snapshot, it, loose):
        Zs, pobj_, metrics = snapshot
        info = dict(metrics)
        if loose:
            info["loose"] = True
        return _HSDResult("optimal", Zs, pobj_, it, info)

    # equality rows unpacked once into full matrices for the Schur complement,
    # and the blocks whose objective is nonzero
    A_mats = [smat(A_parts[k], sizes[k]) for k in range(nb)]
    c_blocks = [k for k in range(nb) if c_parts[k].any()]

    it = 0
    try:
        for it in range(1, max_iter + 1):
            # the HSD solution set is a ray: renormalize if the iterate grows
            big = max([float(np.abs(zb).max()) for zb in Z]
                      + [float(np.abs(sb).max()) for sb in S] + [tau, kappa])
            if not math.isfinite(big):
                raise _IPMFailure("iterate diverged")
            if big > 1e8:
                lam = 1.0 / big
                Z = [zb * lam for zb in Z]
                S = [sb * lam for sb in S]
                y = y * lam
                tau, kappa = tau * lam, kappa * lam
            z_sv = [svec(Z[k]) for k in range(nb)]
            s_sv = [svec(S[k]) for k in range(nb)]
            Ax = sum(A_parts[k] @ z_sv[k] for k in range(nb))
            rP = Ax - b * tau
            rD = [A_parts[k].T @ y + s_sv[k] - c_parts[k] * tau for k in range(nb)]
            cx = sum(float(c_parts[k] @ z_sv[k]) for k in c_blocks)
            by = float(b @ y)
            rG = cx - by + kappa
            gap = sum(float(z_sv[k] @ s_sv[k]) for k in range(nb)) + tau * kappa
            mu = gap / ordn

            # convergence / certificate tests on the normalized iterate
            pres = float(np.abs(rP).max(initial=0.0)) / (tau * bnorm)
            dres = max([float(np.abs(r).max()) for r in rD] + [0.0]) / (tau * cnorm)
            pobj, dobj = cx / tau, by / tau
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            score = max(pres / ptol, dres / ptol, relgap / gtol)
            improved = score < 0.98 * best_score
            if score < best_score:
                best_score = score
                best_snapshot = ([zb / tau for zb in Z], pobj,
                                 {"pres": pres, "dres": dres, "relgap": relgap})
            if pres <= ptol and dres <= ptol and relgap <= gtol:
                return finish(best_snapshot, it, loose=False)
            # infeasibility certificates (rays are re-verified by the callers)
            def certificates():
                if by > 0:
                    hres = max([float(np.abs(A_parts[k].T @ y + s_sv[k]).max())
                                for k in range(nb)] + [0.0])
                    if hres <= 1e-6 * by:
                        return _HSDResult("pinfeas", iterations=it,
                                          info={"farkas_resid": hres / by, "by": by})
                if cx < 0:
                    uray = float(np.abs(Ax).max(initial=0.0))
                    if uray <= 1e-6 * (-cx):
                        return _HSDResult("unbounded", iterations=it,
                                          ray=[zb / (-cx) for zb in Z],
                                          info={"ray_resid": uray / (-cx)})
                return None

            cert = certificates()
            if cert is not None:
                return cert
            if tau <= 1e-12 and kappa <= 1e-12:
                raise _IPMFailure("tau and kappa both collapsed")
            stall = 0 if improved else stall + 1
            window = 8 if best_score <= 100.0 else 25
            if stall > window or mu <= 1e-25:
                if best_score <= 100.0:
                    # numerically converged as far as it will go
                    return finish(best_snapshot, it, loose=True)
                raise _IPMFailure(
                    f"stalled at iteration {it} (mu={mu:.2e}, pres={pres:.2e}, "
                    f"dres={dres:.2e}, relgap={relgap:.2e})")

            # NT scaling W = R R' and the diagonal scaled iterate
            # R' S R = R^-1 Z R^-T = diag(v); the NT operator X -> W X W is
            # applied through W and never formed as a matrix
            R, V = zip(*[_nt_scaling(Z[k], S[k]) for k in range(nb)])
            W = [r @ r.T for r in R]
            M = _schur(A_mats, W, m)
            M.flat[::m + 1] += 1e-13 * (1.0 + np.trace(M) / max(m, 1))

            cho = None
            try:
                cho = np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                pass
            if cho is None:
                lu = sla.lu_factor(M + 1e-10 * np.eye(m), check_finite=False)
                solveM = lambda v: sla.lu_solve(lu, v, check_finite=False)
            else:
                solveM = lambda v: sla.cho_solve((cho, True), v, check_finite=False)

            # the parts of the elimination that stay fixed within an iteration
            WCW = {k: svec(W[k] @ smat(c_parts[k], sizes[k]) @ W[k])
                   for k in c_blocks}
            q = sum((A_parts[k] @ WCW[k] for k in c_blocks), np.zeros(m))
            cWCW = sum(float(c_parts[k] @ WCW[k]) for k in c_blocks)
            dy1 = solveM(q + b)
            rDs = [R[k].T @ smat(rD[k], sizes[k]) @ R[k] for k in range(nb)]

            def direction(rcs, rc_tk):
                # dZ~ + dS~ = rc~ in scaled coordinates, with dS~ = R' dS R,
                # dZ = R dZ~ R' and dS = c dtau - rD - A'dy, eliminated into
                # the Schur system over (dy, dtau); g = R (rc~ + R' rD R) R'
                g = [svec(R[k] @ (rcs[k] + rDs[k]) @ R[k].T) for k in range(nb)]
                dy0 = solveM(-rP - sum(A_parts[k] @ g[k] for k in range(nb)))
                qb = q - b
                num = (-rG - rc_tk / tau - float(qb @ dy0)
                       - sum(float(c_parts[k] @ g[k]) for k in c_blocks))
                den = float(qb @ dy1) - (cWCW + kappa / tau)
                if abs(den) < 1e-300:
                    raise _IPMFailure("singular bordered system")
                dtau = num / den
                dy = dy0 + dtau * dy1
                dS_ = [smat(-rD[k] - A_parts[k].T @ dy + c_parts[k] * dtau,
                            sizes[k]) for k in range(nb)]
                dSs = [R[k].T @ dS_[k] @ R[k] for k in range(nb)]
                dZs = [rcs[k] - dSs[k] for k in range(nb)]
                dkappa = (rc_tk - kappa * dtau) / tau
                return dZs, dSs, dS_, dy, dtau, dkappa

            def max_alpha(dZs, dSs, dtau, dkappa):
                a = 1.0
                for k in range(nb):
                    a = min(a, _max_step(dZs[k], V[k]), _max_step(dSs[k], V[k]))
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

            # corrector: rc~ = L_V^-1(sigma mu I - V^2 - sym(dZa~ dSa~)), with
            # L_V(X) = (V X + X V) / 2 for the diagonal V
            rcs = []
            for k in range(nb):
                v = V[k]
                corr = dZa[k] @ dSa[k]
                rcs.append(np.diag(sigma * mu / v - v)
                           - (corr + corr.T) / (v[:, None] + v))
            rc_tk = sigma * mu - tau * kappa - dta * dka
            dZs, dSs, dS, dy, dt, dk = direction(rcs, rc_tk)
            alpha = 0.98 * max_alpha(dZs, dSs, dt, dk)

            def mu_at(a):
                g = sum(float(np.tensordot(np.diag(V[k]) + a * dZs[k],
                                           np.diag(V[k]) + a * dSs[k]))
                        for k in range(nb))
                return (g + (tau + a * dt) * (kappa + a * dk)) / ordn

            # keep tau*kappa >= gamma*mu: without this the iterate can drift down
            # the degenerate ray tau, kappa -> 0 which certifies nothing
            gamma = 1e-3
            for _ in range(25):
                if (tau + alpha * dt) * (kappa + alpha * dk) >= gamma * mu_at(alpha):
                    break
                alpha *= 0.7
            if alpha < 1e-9:
                raise _IPMFailure(f"step length collapsed at iteration {it}")
            for k in range(nb):
                zk = Z[k] + alpha * (R[k] @ dZs[k] @ R[k].T)
                sk = S[k] + alpha * dS[k]
                Z[k] = 0.5 * (zk + zk.T)
                S[k] = 0.5 * (sk + sk.T)
            y = y + alpha * dy
            tau += alpha * dt
            kappa += alpha * dk

        raise _IPMFailure(f"no convergence within {max_iter} iterations")
    except _IPMFailure as exc:
        exc.iterations = it
        raise


def _accuracy(info) -> float:
    """The worst of the final primal, dual and gap residuals."""
    return max(info.get("pres", 0.0), info.get("dres", 0.0),
               info.get("relgap", 0.0))


def _hsd_attempts(sizes, A_parts, b, c_parts, tol, max_iter):
    """Run the core with fallback initializations; loose outcomes only stand
    when no initialization does better.

    The returned result's info counts every attempt: ``attempts`` (init
    scales tried) and ``iterations_total`` (summed over them, failed ones
    included); its ``iterations`` stay those of the returned attempt.
    """
    last: Optional[_IPMFailure] = None
    best = None
    best_acc = math.inf
    attempts = total = 0

    def counted(res):
        res.info.update(attempts=attempts, iterations_total=total)
        return res

    for init_scale in (1.0, 30.0, 0.03):
        attempts += 1
        try:
            res = _hsd_minimize(sizes, A_parts, b, c_parts, tol, max_iter,
                                init_scale=init_scale)
        except _IPMFailure as exc:
            total += exc.iterations
            last = exc
            continue
        total += res.iterations
        if res.kind != "optimal" or not res.info.get("loose"):
            return counted(res)
        acc = _accuracy(res.info)
        if acc < best_acc:
            best, best_acc = res, acc
        if best_acc <= 1e-9:
            break
    if best is not None:
        return counted(best)
    raise last if last is not None else _IPMFailure("unreachable")


# ---------------------------------------------------------------------------
# public solve entry points
# ---------------------------------------------------------------------------


def _verify_witness(problem: SDPProblem, Z: Dict[str, np.ndarray],
                    u: Optional[np.ndarray]):
    """Independent residual/eigenvalue check, separate from solver internals."""
    z_sv = [svec(Z[name]) for name, _ in problem.blocks]
    lhs = sum(Ab @ zv for Ab, zv in zip(problem.A_blocks, z_sv)) \
        if problem.m else np.zeros(0)
    if problem.n_free:
        lhs = lhs + problem.A_free @ (u if u is not None else np.zeros(problem.n_free))
    eq_resid = float(np.abs(lhs - problem.rhs).max()) if problem.m else 0.0
    eig_min = min([float(np.linalg.eigvalsh(Z[name])[0])
                   for name, _ in problem.blocks] + [math.inf])
    return eq_resid, eig_min


def _polish(problem: SDPProblem, Z: Dict[str, np.ndarray],
            u: Optional[np.ndarray]):
    """Least-norm correction moving a witness exactly onto the equalities."""
    if problem.m == 0:
        return dict(Z), u
    parts = [svec(Z[name]) for name, _ in problem.blocks]
    x = np.concatenate(parts + ([u if u is not None
                                 else np.zeros(problem.n_free)]
                                if problem.n_free else []))
    A = np.hstack([*problem.A_blocks, problem.A_free])
    delta, *_ = np.linalg.lstsq(A, problem.rhs - A @ x, rcond=None)
    out, rest = _unpack(problem, x + delta)
    return out, (rest if problem.n_free else u)


def _unpack(problem: SDPProblem, x: np.ndarray):
    """Split a stacked variable vector into its named blocks and the free
    part."""
    out = {}
    ofs = 0
    for name, s in problem.blocks:
        d = svec_dim(s)
        out[name] = smat(x[ofs:ofs + d], s)
        ofs += d
    return out, x[ofs:]


def _ls_point(problem: SDPProblem):
    """Any solution of the affine equality system, ignoring the cone."""
    A = np.hstack([*problem.A_blocks, problem.A_free])
    x0, *_ = np.linalg.lstsq(A, problem.rhs, rcond=None)
    return _unpack(problem, x0)


def solve(problem: SDPProblem, tol: float = 1e-8, max_iter: int = 200,
          feas_tol: float = FEAS_TOL) -> SDPSolution:
    """Solve an SDP.  Problems with an objective are maximized; problems
    without one are decided through the phase-I construction."""
    if not problem.has_objective:
        return solve_feasibility(problem, tol=tol, max_iter=max_iter,
                                 feas_tol=feas_tol)
    return _solve_optimize(problem, tol, max_iter)


def _reduced(problem: SDPProblem):
    A = np.hstack([*problem.A_blocks, problem.A_free]) if problem.m else \
        np.zeros((0, sum(svec_dim(s) for _, s in problem.blocks) + problem.n_free))
    keep, consistent = _presolve(A, problem.rhs)
    A_parts = [Ab[keep] for Ab in problem.A_blocks]
    A_free = problem.A_free[keep]
    b = problem.rhs[keep]
    return A_parts, A_free, b, consistent


def _solve_blocks(sizes, A_parts, A_free, b, c_parts, c_free, tol, max_iter):
    """Eliminate the free columns, then run the core on the blocks alone."""
    el = _FreeElimination(A_parts, A_free, b, c_parts, c_free)
    A_red, b_red = _scale_rows(el.A_parts, el.b)
    return el, _hsd_attempts(sizes, A_red, b_red, el.c_parts, tol, max_iter)


def _solve_optimize(problem: SDPProblem, tol, max_iter) -> SDPSolution:
    A_parts, A_free, b, consistent = _reduced(problem)
    if not consistent:
        return SDPSolution(SolveStatus.INFEASIBLE, margin=-math.inf,
                           info={"reason": "inconsistent equalities"})
    sizes = [s for _, s in problem.blocks]
    if problem.obj_blocks is not None:
        c_parts = [-np.asarray(c, dtype=float) for c in problem.obj_blocks]
    else:
        c_parts = [np.zeros(svec_dim(s)) for s in sizes]
    c_free = -(problem.obj_free if problem.obj_free is not None
               else np.zeros(problem.n_free))
    if b.shape[0] == 0:
        return SDPSolution(SolveStatus.ERROR,
                           info={"reason": "optimization without constraints"})
    try:
        el, res = _solve_blocks(sizes, A_parts, A_free, b, c_parts, c_free,
                                tol, max_iter)
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
    witness, ures = _polish(problem, witness, ures)
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
    once more at tol 1e-11; that result's ``info`` sums ``attempts`` and
    ``iterations_total`` over both solves and sets ``resolves``.
    """
    if problem.has_objective:
        raise ValueError("solve_feasibility expects a problem without objective")
    A_parts, A_free, b, consistent = _reduced(problem)
    if not consistent:
        return SDPSolution(SolveStatus.INFEASIBLE, margin=-math.inf,
                           info={"reason": "inconsistent equalities"})
    sizes = [s for _, s in problem.blocks]
    nb = len(sizes)
    nf = problem.n_free
    if b.shape[0] == 0:
        witness = {name: np.eye(s) for name, s in problem.blocks}
        return SDPSolution(SolveStatus.FEASIBLE, witness=witness,
                           free_values=np.zeros(nf), margin=math.inf,
                           info={"reason": "no equality constraints"})
    # substitute Z_b = Z'_b + t I with Z'_b >= 0 and free t; maximize t
    t_col = sum(A_parts[k] @ svec(np.eye(sizes[k])) for k in range(nb))
    c_free = np.zeros(nf + 1)
    c_free[-1] = -1.0          # minimize -t
    try:
        el, res = _solve_blocks(sizes, A_parts, np.column_stack([A_free, t_col]),
                                b, [np.zeros(svec_dim(s)) for s in sizes],
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
        base, ubase = _ls_point(problem)
        for s in (1.0, 1e2, 1e4, 1e6, 1e8):
            cand = {name: base[name] + s * ray[name] for name, _ in problem.blocks}
            ucand = ubase + s * u_ray
            cand, ucand = _polish(problem, cand, ucand)
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
    witness = {name: hermitian_part(res.Z[k] + t_star * np.eye(sizes[k])).real
               for k, (name, _) in enumerate(problem.blocks)}
    base_info = {**res.info, "t_star": t_star}
    it = res.iterations
    # widen the marginal band to the achieved solver accuracy
    band = max(feas_tol, 10.0 * _accuracy(res.info) * (1.0 + abs(t_star)))

    if t_star > band:
        witness, u = _polish(problem, witness, u)
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
    # marginal band: first re-solve at high accuracy (the rescue below needs
    # tiny equality residuals, or the projection ruins the eigenvalue floor);
    # its info adds both solves' counts and counts the re-solve
    if tol > 1.1e-11:
        sol = solve_feasibility(problem, tol=1e-11,
                                max_iter=max(max_iter, 300),
                                feas_tol=feas_tol)
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
        cand, uc = _polish(problem, cand, uc)
        eq_resid, eig_min = _verify_witness(problem, cand, uc)
        if eig_min >= -0.5 * _WITNESS_EIG_TOL:
            break
        cand = {name: psd_part(mat) for name, mat in cand.items()}
    if eig_min < -_WITNESS_EIG_TOL:
        # projection plateau: a small identity shift can satisfy both
        # witness invariants at once (equalities are absolute-toleranced)
        shift = -eig_min * 1.05
        shifted = {name: mat + shift * np.eye(mat.shape[0])
                   for name, mat in cand.items()}
        resid_s, eig_s = _verify_witness(problem, shifted, uc)
        if resid_s <= eq_tol and eig_s >= -_WITNESS_EIG_TOL:
            cand, eq_resid, eig_min = shifted, resid_s, eig_s
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

    def var_index(self, i: int, j: int, imag: bool) -> int:
        n = self.size
        if i == j:
            if imag:
                raise ValueError("diagonal entries have no imaginary part")
            return self.start + i
        if i > j:
            i, j = j, i
        off = n + 2 * ((2 * n - i - 1) * i // 2 + (j - i - 1))
        return self.start + off + (1 if imag else 0)

    def imag_vars(self):
        n = self.size
        return {self.var_index(i, j, True) for i in range(n) for j in range(i + 1, n)}

    def entry_coeffs(self, i: int, j: int):
        """Complex coefficients of Y_ij over the real variables."""
        if i == j:
            return {self.var_index(i, i, False): 1.0 + 0j}
        conj = i > j
        re = self.var_index(i, j, False)
        im = self.var_index(i, j, True)
        return {re: 1.0 + 0j, im: (-1j if conj else 1j)}

    def assemble(self, values: np.ndarray) -> np.ndarray:
        n = self.size
        out = np.zeros((n, n), dtype=complex)
        for i in range(n):
            out[i, i] = values[self.var_index(i, i, False) - self.start]
            for j in range(i + 1, n):
                re = values[self.var_index(i, j, False) - self.start]
                im = values[self.var_index(i, j, True) - self.start]
                out[i, j] = re + 1j * im
                out[j, i] = re - 1j * im
        return out


def _herm_split(f: np.ndarray):
    """Hermitian data pair (Hre, Him) with tr(Hre C) = Re tr(F* C) and
    tr(Him C) = Im tr(F* C) for Hermitian C."""
    hre = 0.5 * (f + f.conj().T)
    him = 0.5j * (f - f.conj().T)
    return hre, him


class HermitianProblem:
    """Complex Hermitian PSD blocks, real free scalars (including Hermitian
    matrix unknowns), scalar equality rows with Hermitian data matrices, and
    an optional linear objective.

    ``solve`` realifies blocks through [[Re, -Im], [Im, Re]]; when every row
    is conjugation-invariant the equivalent real-restricted problem is solved
    directly at half the block size.
    """

    def __init__(self):
        self._blocks: List[Tuple[str, int]] = []
        self._n_free = 0
        self._free_herms: List[FreeHermitian] = []
        self._imag_vars: set = set()
        # row: (terms: {block: complex Hermitian}, free: {idx: complex!}, rhs complex)
        self._rows: List[Tuple[Dict[str, np.ndarray], Dict[int, complex], float]] = []
        self._obj: Optional[Tuple[Dict[str, np.ndarray], Dict[int, float]]] = None

    # -- variables ---------------------------------------------------------

    def add_block(self, name: str, size: int) -> str:
        if any(n == name for n, _ in self._blocks):
            raise ValueError(f"duplicate block {name!r}")
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
        self._imag_vars |= fh.imag_vars()
        return fh

    # -- rows ----------------------------------------------------------------

    def add_scalar_row(self, block_terms: Dict[str, np.ndarray],
                       free_terms: Optional[Dict[int, float]], rhs: float):
        """sum_b tr(H_b C_b) + sum a_i u_i = rhs with Hermitian H, real rhs."""
        terms = {}
        sizes = dict(self._blocks)
        for name, h in block_terms.items():
            h = np.asarray(h, dtype=complex)
            if h.shape != (sizes[name],) * 2:
                raise ValueError(f"data for block {name!r} has wrong shape")
            terms[name] = h
        self._rows.append((terms, {int(k): complex(v) for k, v in
                                   (free_terms or {}).items()}, float(rhs)))

    def add_complex_row(self, block_data: Dict[str, np.ndarray],
                        free_terms: Optional[Dict[int, complex]], rhs: complex):
        """Complex equality sum_b tr(F_b* C_b) + sum c_i u_i = rhs, split
        into its real and imaginary parts (F need not be Hermitian)."""
        sizes = dict(self._blocks)
        res, ims = {}, {}
        for name, f in block_data.items():
            f = np.asarray(f, dtype=complex)
            if f.shape != (sizes[name],) * 2:
                raise ValueError(f"data for block {name!r} has wrong shape")
            hre, him = _herm_split(f)
            res[name] = hre
            ims[name] = him
        free_terms = {int(k): complex(v) for k, v in (free_terms or {}).items()}
        rhs = complex(rhs)
        fre = {i: complex(c.real) for i, c in free_terms.items() if c.real != 0.0}
        if any(np.abs(h).max() > 0 for h in res.values()) or fre or rhs.real:
            self._rows.append((res, fre, rhs.real))
        fim = {i: complex(c.imag) for i, c in free_terms.items() if c.imag != 0.0}
        if any(np.abs(h).max() > 0 for h in ims.values()) or fim or rhs.imag:
            self._rows.append((ims, fim, rhs.imag))

    def add_matrix_eq(self, terms, rhs):
        """Matrix equality sum(term values) = rhs, expanded into scalar rows.

        Terms (all values complex-linear in the unknowns):
          ("apply", block, A, m)      sum_pq A_pq C_pq with m x m blocks C_pq
          ("entry", block, scale)     scale * C
          ("blocktrace", block, m, scale) scale * (tr C_pq)_pq, m x m blocks
          ("freeherm", fh, scale)     scale * Y
          ("kron", coeff, fh)         coeff (x) Y
          ("kron_block", coeff, block) coeff (x) C for a PSD block C
          ("kron_scalar", coeff, j)   coeff * u_j
        """
        rhs = np.asarray(rhs, dtype=complex)
        dim = rhs.shape[0]
        sizes = dict(self._blocks)
        for r in range(dim):
            for s in range(r, dim):
                block_data: Dict[str, np.ndarray] = {}
                free_data: Dict[int, complex] = {}

                def addF(name, f):
                    block_data[name] = block_data.get(name, 0) + f

                def addv(idx, c):
                    free_data[idx] = free_data.get(idx, 0.0) + c

                for term in terms:
                    kind = term[0]
                    if kind == "apply":
                        _, name, A, mdim = term
                        A = np.asarray(A, dtype=complex)
                        e = np.zeros((mdim, mdim))
                        e[r, s] = 1.0
                        addF(name, np.kron(A.conj(), e))
                    elif kind == "entry":
                        _, name, scale = term
                        f = np.zeros((sizes[name],) * 2, dtype=complex)
                        f[r, s] = scale
                        addF(name, f)
                    elif kind == "blocktrace":
                        _, name, mdim, scale = term
                        ndim = sizes[name] // mdim
                        e = np.zeros((ndim, ndim))
                        e[r, s] = 1.0
                        addF(name, scale * np.kron(e, np.eye(mdim)))
                    elif kind == "freeherm":
                        _, fh, scale = term
                        for idx, c in fh.entry_coeffs(r, s).items():
                            addv(idx, scale * c)
                    elif kind == "kron":
                        _, coeff, fh = term
                        coeff = np.asarray(coeff, dtype=complex)
                        k = fh.size
                        cr, ar = divmod(r, k)
                        cs, bs = divmod(s, k)
                        if coeff[cr, cs] != 0:
                            for idx, c in fh.entry_coeffs(ar, bs).items():
                                addv(idx, coeff[cr, cs] * c)
                    elif kind == "kron_block":
                        _, coeff, name = term
                        coeff = np.asarray(coeff, dtype=complex)
                        k = sizes[name]
                        cr, ar = divmod(r, k)
                        cs, bs = divmod(s, k)
                        if coeff[cr, cs] != 0:
                            f = np.zeros((k, k), dtype=complex)
                            f[ar, bs] = coeff[cr, cs].conjugate()
                            addF(name, f)
                    elif kind == "kron_scalar":
                        _, coeff, j = term
                        coeff = np.asarray(coeff, dtype=complex)
                        if coeff[r, s] != 0:
                            addv(j, coeff[r, s])
                    else:
                        raise ValueError(f"unknown term kind {kind!r}")

                val = complex(rhs[r, s])
                # real row
                bre = {n: _herm_split(f)[0] for n, f in block_data.items()}
                fre = {i: c.real for i, c in free_data.items() if c.real != 0.0}
                if any(np.abs(h).max() > 0 for h in bre.values()) or fre or \
                        abs(val.real) > 0:
                    self._rows.append((bre, {i: complex(v) for i, v in fre.items()},
                                       val.real))
                # imaginary row
                bim = {n: _herm_split(f)[1] for n, f in block_data.items()}
                fim = {i: c.imag for i, c in free_data.items() if c.imag != 0.0}
                if any(np.abs(h).max() > 0 for h in bim.values()) or fim or \
                        abs(val.imag) > 0:
                    self._rows.append((bim, {i: complex(v) for i, v in fim.items()},
                                       val.imag))

    def set_objective(self, block_terms: Dict[str, np.ndarray],
                      free_terms: Optional[Dict[int, float]] = None):
        """Maximize sum tr(H_b C_b) + sum a.u (H Hermitian)."""
        self._obj = ({n: np.asarray(h, dtype=complex) for n, h in block_terms.items()},
                     dict(free_terms or {}))

    # -- building ------------------------------------------------------------

    def _is_real(self) -> bool:
        """True when restricting all unknowns to real entries is lossless.

        That holds when each row is either invariant under conjugating every
        unknown (real data, no imaginary-component variables) or flips sign
        entirely (imaginary data, rhs 0, only imaginary-component variables).
        """
        for bt, ft, rhs in self._rows:
            im_max = max([float(np.abs(h.imag).max()) for h in bt.values()] + [0.0])
            re_max = max([float(np.abs(h.real).max()) for h in bt.values()] + [0.0])
            keys = set(ft)
            even = im_max <= 1e-13 and not (keys & self._imag_vars)
            odd = re_max <= 1e-13 and abs(rhs) <= 1e-12 and \
                keys <= self._imag_vars
            if not (even or odd):
                return False
        if self._obj is not None:
            bt, ft = self._obj
            if max([float(np.abs(h.imag).max()) for h in bt.values()] + [0.0]) > 1e-13:
                return False
            if set(ft) & self._imag_vars:
                return False
        return True

    def build(self, force_realify: bool = False):
        """Return (SDPProblem, decoder)."""
        real_path = (not force_realify) and self._is_real()
        pb = ProblemBuilder()
        if real_path:
            for name, sz in self._blocks:
                pb.add_block(name, sz)
            kept_vars = sorted(set(range(self._n_free)) - self._imag_vars)
        else:
            for name, sz in self._blocks:
                pb.add_block(name, 2 * sz)
            kept_vars = list(range(self._n_free))
        var_map = {v: k for k, v in enumerate(kept_vars)}
        pb.add_free(len(kept_vars))
        for bt, ft, rhs in self._rows:
            if real_path:
                data = {n: h.real for n, h in bt.items()
                        if np.abs(h.real).max() > 0}
                free = {var_map[i]: c.real for i, c in ft.items()
                        if i in var_map and c.real != 0.0}
                if not data and not free:
                    continue   # conjugation-odd row, satisfied identically
                pb.add_row(data, free, rhs)
            else:
                data = {n: 0.5 * realify(h) for n, h in bt.items()}
                free = {var_map[i]: c.real for i, c in ft.items()}
                pb.add_row(data, free, rhs)
        if self._obj is not None:
            bt, ft = self._obj
            if real_path:
                pb.set_objective({n: h.real for n, h in bt.items()},
                                 {var_map[i]: float(a) for i, a in ft.items()})
            else:
                pb.set_objective({n: 0.5 * realify(h) for n, h in bt.items()},
                                 {var_map[i]: float(a) for i, a in ft.items()})
        decoder = _HermitianDecoder(self._blocks, self._free_herms,
                                    self._n_free, kept_vars, real_path)
        return pb.build(), decoder

    # -- solving -------------------------------------------------------------

    def solve(self, tol: float = 1e-8, max_iter: int = 200,
              feas_tol: float = FEAS_TOL, force_realify: bool = False):
        problem, decoder = self.build(force_realify=force_realify)
        sol = solve(problem, tol=tol, max_iter=max_iter, feas_tol=feas_tol)
        return HermitianSolution(sol, decoder)


class _HermitianDecoder:
    def __init__(self, blocks, free_herms, n_free, kept_vars, real_path):
        self.blocks = blocks
        self.free_herms = {fh.name: fh for fh in free_herms}
        self.n_free = n_free
        self.kept_vars = kept_vars
        self.real_path = real_path

    def full_free(self, free_values):
        out = np.zeros(self.n_free)
        if free_values is not None:
            for k, v in enumerate(self.kept_vars):
                out[v] = free_values[k]
        return out

    def block(self, name, witness):
        raw = witness.get(name)
        if raw is None:
            return None
        if self.real_path:
            return np.asarray(raw, dtype=complex)
        return derealify(raw)


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
