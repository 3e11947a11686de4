"""Free spectrahedra and spectrahedrops: membership, boundedness, pencil
domination, polar duals, monicization, and matrix convex hulls of unions.

Conventions.  A free spectrahedron is the solution set of L(X) >= 0 for a
pencil L = A0 + sum A_j x_j; monic pencils are written through coefficient
tuples W with L = I - sum W_j x_j.  A spectrahedrop is the coordinate
projection of the solution set of a pencil in (x, y) onto the x variables.
The polar dual of a set K is {A : I - sum A_j (x) X_j >= 0 for all X in K}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .algebra import (HermitianTuple, LinearPencil, evaluate_pencil,
                      hermitian_part, lambda_min, monic_tuple,
                      pencil_from_tuple)
from .cp import ChoiMatrix, InterpolationMode, interpolate, kraus_of_choi
from .sdp import FEAS_TOL, Decision, HermitianProblem, SolverError, SolveStatus

__all__ = [
    "Spectrahedrop",
    "SpectraMembership",
    "DropMembership",
    "DominationCertificate",
    "DominationResult",
    "spectrahedron_membership",
    "is_bounded",
    "drop_level1_bounded",
    "dominates",
    "polar_membership",
    "drop_membership",
    "drop_polar_membership",
    "monicize",
    "MonicizeResult",
    "polar_dual_lift",
    "hull_of_union",
    "has_zero_interior",
]

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Spectrahedrop:
    """Projection onto the x variables of the solution set of `lift`."""

    lift: LinearPencil

    @property
    def g(self) -> int:
        return self.lift.g

    @property
    def h(self) -> int:
        return self.lift.h


@dataclass
class SpectraMembership:
    inside: bool
    lam_min: float

    def __bool__(self):
        return self.inside


def spectrahedron_membership(pencil: LinearPencil, x: HermitianTuple,
                             tol: float = MEMBERSHIP_TOL) -> SpectraMembership:
    """X in the solution set of L iff lambda_min(L(X)) >= -tol."""
    if pencil.h:
        raise ValueError("pencil has y variables; use drop_membership")
    lam = lambda_min(evaluate_pencil(pencil, x))
    return SpectraMembership(lam >= -tol, lam)


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------


def is_bounded(pencil: LinearPencil, tol: float = 1e-8,
               max_iter: int = 200) -> bool:
    """Uniform boundedness of the free spectrahedron of an x-only pencil.

    Matrix convexity plus closure under isometry conjugation reduce the
    question to level 1, where it becomes a recession-cone test: the set is
    bounded iff no direction v != 0 has sum A_j v_j >= 0.  Each of the 2g
    feasibility problems pins v_j = +-1 and boxes the other coordinates.
    A MARGINAL recession answer is treated as unbounded (the conservative
    reading: a boundary recession direction exists up to tolerance).
    """
    if pencil.h:
        raise ValueError("pencil has y variables; flatten or use "
                         "drop_level1_bounded for the projection")
    g, d = pencil.g, pencil.d
    if g == 0:
        return True
    for j in range(g):
        for sigma in (1.0, -1.0):
            hp = HermitianProblem()
            vs = hp.add_free(g - 1)
            others = [k for k in range(g) if k != j]
            vmap = dict(zip(others, vs))
            hp.add_block("P", d)
            terms = [("entry", "P", 1.0)]
            const = sigma * np.asarray(pencil.x_coeffs[j])
            for k in others:
                terms.append(("kron_scalar", -np.asarray(pencil.x_coeffs[k]),
                              vmap[k]))
            hp.add_matrix_eq(terms, const)
            for k in others:
                lo = hp.add_block(f"lo{k}", 1)
                hi = hp.add_block(f"hi{k}", 1)
                hp.add_scalar_row({lo: np.eye(1)}, {vmap[k]: 1.0}, 1.0)
                hp.add_scalar_row({hi: np.eye(1)}, {vmap[k]: -1.0}, 1.0)
            sol = hp.solve(tol=tol, max_iter=max_iter)
            if sol.status is SolveStatus.ERROR:
                raise SolverError(f"recession solve failed: {sol.info}")
            if sol.status is not SolveStatus.INFEASIBLE:
                return False
    return True


def drop_level1_bounded(drop: Spectrahedrop, tol: float = 1e-8,
                        max_iter: int = 200, reach: float = 1e3) -> bool:
    """Boundedness of the level-1 projection (hence of the whole drop).

    First tries the exact joint recession test on the lift: a bounded lift
    spectrahedron forces a bounded projection.  Otherwise the 2g support
    values sup +-x_j over the level-1 lift are maximized; a certified
    unbounded objective or an optimum beyond `reach` counts as
    not-certified-bounded, which is the safe answer: the dual procedures
    then use the contractive form, valid in general.  A support solve that
    fails raises :class:`SolverError`, as a failed recession solve of
    :func:`is_bounded` does.
    """
    lift = drop.lift
    if lift.h == 0:
        return is_bounded(lift, tol=tol, max_iter=max_iter)
    if is_bounded(lift.as_x_pencil(), tol=tol, max_iter=max_iter):
        return True
    g, h, d = lift.g, lift.h, lift.d
    for j in range(g):
        for sigma in (1.0, -1.0):
            hp = HermitianProblem()
            xs = hp.add_free(g)
            ys = hp.add_free(h)
            hp.add_block("P", d)
            terms = [("entry", "P", 1.0)]
            for k in range(g):
                terms.append(("kron_scalar", -np.asarray(lift.x_coeffs[k]), xs[k]))
            for k in range(h):
                terms.append(("kron_scalar", -np.asarray(lift.y_coeffs[k]), ys[k]))
            hp.add_matrix_eq(terms, np.asarray(lift.A0))
            hp.set_objective({}, {xs[j]: sigma})
            sol = hp.solve(tol=tol, max_iter=max_iter)
            if sol.status is SolveStatus.ERROR:
                raise SolverError(f"support solve failed: {sol.info}")
            if sol.status is SolveStatus.INFEASIBLE:
                return True      # empty level-1 set is bounded
            if sol.info.get("unbounded_objective") or \
                    (sol.objective_value is not None
                     and sol.objective_value > reach):
                return False
    return True


# ---------------------------------------------------------------------------
# pencil domination and polar membership
# ---------------------------------------------------------------------------


@dataclass
class DominationCertificate:
    """Contraction V with A_j = V*(I_mu (x) B_j)V and S_square = I - V*V."""

    V: np.ndarray
    mu: int
    S_square: np.ndarray

    def reconstruction_residual(self, a: HermitianTuple, b: HermitianTuple) -> float:
        worst = 0.0
        blocks = [self.V[k * b.dim:(k + 1) * b.dim] for k in range(self.mu)]
        for aj, bj in zip(a, b):
            rec = sum(v.conj().T @ bj @ v for v in blocks) if blocks else \
                np.zeros_like(aj)
            worst = max(worst, float(np.abs(rec - aj).max()))
        return worst

    def contraction_defect(self) -> float:
        return -min(0.0, float(np.linalg.eigvalsh(self.S_square)[0]))


@dataclass
class DominationResult(Decision):
    status: SolveStatus
    isometry: bool
    certificate: Optional[DominationCertificate] = None
    choi: Optional[ChoiMatrix] = None
    margin: Optional[float] = None
    info: dict = field(default_factory=dict)


def _cp_domination(source: HermitianTuple, target: HermitianTuple,
                   unital: bool, tol: float, max_iter: int,
                   annihilate: Optional[HermitianTuple] = None
                   ) -> DominationResult:
    """A cp map with Phi(source_j) = target_j and Phi(annihilate_k) = 0,
    unital or subunital, with its Kraus form re-verified as the (co)isometry
    certificate target_j = V*(I (x) source_j)V."""
    mode = InterpolationMode.UNITAL if unital else InterpolationMode.SUBUNITAL
    res = interpolate(source, target, mode, tol=tol, max_iter=max_iter,
                      annihilate=annihilate)
    cert = None
    if res.feasible:
        k = kraus_of_choi(res.choi, rank_tol=1e-9)
        v = k.stacked()
        cert = DominationCertificate(
            V=v, mu=len(k), S_square=hermitian_part(np.eye(target.dim)
                                                    - v.conj().T @ v))
        resid = cert.reconstruction_residual(target, source)
        if resid > 1e-6 or cert.contraction_defect() > 1e-8:
            return DominationResult(SolveStatus.ERROR, unital,
                                    margin=res.margin,
                                    info={**res.info, "reason": "certificate "
                                          "failed re-verification",
                                          "resid": resid})
    return DominationResult(res.status, unital, certificate=cert,
                            choi=res.choi, margin=res.margin, info=res.info)


def dominates(la: LinearPencil, lb: LinearPencil,
              isometry: Optional[bool] = None, tol: float = 1e-8,
              max_iter: int = 200) -> DominationResult:
    """Decide the inclusion of solution sets D_LB <= D_LA for monic pencils.

    Equivalent to a cp map Phi with Phi(B_j) = A_j and Phi(I) <= I; when the
    B-spectrahedron is bounded the map can be tightened to Phi(I) = I, which
    turns the contraction witness into an isometry.  `isometry=None` picks
    the tightening automatically from is_bounded(lb).
    """
    if not (la.monic and lb.monic):
        raise ValueError("domination is defined for monic pencils")
    if la.g != lb.g:
        raise ValueError("pencils must share the variable count")
    a, _ = monic_tuple(la)
    b, _ = monic_tuple(lb)
    if isometry is None:
        isometry = is_bounded(lb, tol=tol, max_iter=max_iter)
    return _cp_domination(b, a, isometry, tol, max_iter)


def polar_membership(omega: HermitianTuple, x: HermitianTuple,
                     bounded: Optional[bool] = None, tol: float = 1e-8,
                     max_iter: int = 200) -> DominationResult:
    """X in the polar dual of the spectrahedron of I - sum W_j x_j.

    Membership is the existence of a cp map sending the pencil tuple to X,
    contractive in general and unital when the spectrahedron is bounded;
    the certificate carries the (co)isometry representation X_j = V*(I (x)
    W_j)V.
    """
    if omega.g != x.g:
        raise ValueError("tuples must share the variable count")
    if bounded is None:
        bounded = is_bounded(pencil_from_tuple(omega), tol=tol,
                             max_iter=max_iter)
    return _cp_domination(omega, x, bounded, tol, max_iter)


# ---------------------------------------------------------------------------
# spectrahedrops
# ---------------------------------------------------------------------------


@dataclass
class DropMembership(Decision):
    status: SolveStatus
    y_witness: Optional[HermitianTuple] = None
    margin: Optional[float] = None
    info: dict = field(default_factory=dict)


def drop_membership(drop: Spectrahedrop, x: HermitianTuple, tol: float = 1e-8,
                    max_iter: int = 200,
                    feas_tol: float = FEAS_TOL) -> DropMembership:
    """X in proj_x of the lift: feasibility of L(X, Y) >= 0 over Hermitian Y."""
    lift = drop.lift
    if x.g != lift.g:
        raise ValueError(f"lift takes {lift.g} x variables, point has {x.g}")
    n = x.dim or 1
    d = lift.d
    const = np.kron(np.asarray(lift.A0), np.eye(n)).astype(complex)
    for coeff, xj in zip(lift.x_coeffs, x):
        const += np.kron(np.asarray(coeff), xj)
    hp = HermitianProblem()
    hp.add_block("P", d * n)
    ys = [hp.add_free_hermitian(f"Y{k}", n) for k in range(lift.h)]
    terms = [("entry", "P", 1.0)]
    for coeff, fh in zip(lift.y_coeffs, ys):
        terms.append(("kron", -np.asarray(coeff), fh))
    hp.add_matrix_eq(terms, hermitian_part(const))
    sol = hp.solve(tol=tol, max_iter=max_iter, feas_tol=feas_tol)
    witness = None
    if sol.feasible and lift.h:
        witness = HermitianTuple([sol.free_hermitian(fh) for fh in ys])
    elif sol.feasible:
        witness = HermitianTuple([], dim=n)
    return DropMembership(sol.status, y_witness=witness, margin=sol.margin,
                          info=sol.info)


def drop_polar_membership(drop: Spectrahedrop, a: HermitianTuple,
                          bounded: Optional[bool] = None, tol: float = 1e-8,
                          max_iter: int = 200) -> DominationResult:
    """A in the polar dual of the drop, via cp interpolation on the lift.

    Needs a monic lift (polar duals are origin-dependent); membership is a
    cp map with Phi(W_j) = A_j and Phi(G_k) = 0, unital when the drop is
    bounded and contractive otherwise.
    """
    lift = drop.lift
    if not lift.monic:
        raise ValueError("lift is not monic; monicize the drop first "
                         "(polar duals depend on the choice of origin)")
    if a.g != lift.g:
        raise ValueError("tuple length must match the drop's x variables")
    omega, gamma = monic_tuple(lift)
    if bounded is None:
        bounded = drop_level1_bounded(drop, tol=tol, max_iter=max_iter)
    return _cp_domination(omega, a, bounded, tol, max_iter, annihilate=gamma)


# ---------------------------------------------------------------------------
# monicization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonicizeResult:
    """Monic pencil R L(x + shift) R with R = L(shift)^{-1/2}.

    The solution set is the original one translated by -shift; for lifts
    whose shift touches only y coordinates the x projection is unchanged.
    """

    pencil: LinearPencil
    shift: tuple
    scale: np.ndarray


def monicize(pencil: LinearPencil, xhat: Sequence[float],
             tol: float = 1e-8) -> MonicizeResult:
    xhat = tuple(float(v) for v in xhat)
    if len(xhat) != pencil.g + pencil.h:
        raise ValueError(f"interior point needs {pencil.g + pencil.h} "
                         "coordinates")
    l0 = np.asarray(pencil.A0, dtype=complex).copy()
    for coeff, v in zip(pencil.x_coeffs + pencil.y_coeffs, xhat):
        l0 += v * np.asarray(coeff)
    l0 = hermitian_part(l0)
    w, v = np.linalg.eigh(l0)
    if w[0] < tol:
        raise ValueError(f"pencil value at the given point is not positive "
                         f"definite (lambda_min = {w[0]:.3e})")
    r = v @ np.diag(w ** -0.5) @ v.conj().T
    xs = [hermitian_part(r @ c @ r) for c in pencil.x_coeffs]
    ys = [hermitian_part(r @ c @ r) for c in pencil.y_coeffs]
    out = LinearPencil(np.eye(pencil.d), xs, ys)
    return MonicizeResult(out, xhat, r)


# ---------------------------------------------------------------------------
# the polar dual of a drop, as an explicit drop
# ---------------------------------------------------------------------------


def _hermitian_unknown_layout(d: int):
    """Coefficient matrices of the unknown block sum E_pq (x) C_pq over the
    Hermitian components of C, plus index helpers.

    Components: ('re', p, q) for p <= q and ('im', p, q) for p < q, with
    C_pq = re + i im, C_qp its conjugate.
    """
    comps = []
    coeffs = []
    for p in range(d):
        for q in range(p, d):
            e = np.zeros((d, d), dtype=complex)
            if p == q:
                e[p, p] = 1.0
            else:
                e[p, q] = 1.0
                e[q, p] = 1.0
            comps.append(("re", p, q))
            coeffs.append(e)
            if p != q:
                e = np.zeros((d, d), dtype=complex)
                e[p, q] = 1.0j
                e[q, p] = -1.0j
                comps.append(("im", p, q))
                coeffs.append(e)
    return comps, coeffs


def _entry_weights(mat: np.ndarray, comps) -> np.ndarray:
    """Real weights w with sum_pq M_pq C_pq = sum_t w_t * component_t for a
    Hermitian coefficient matrix M."""
    out = np.zeros(len(comps))
    for t, (kind, p, q) in enumerate(comps):
        if kind == "re":
            out[t] = float(mat[p, q].real) if p == q else 2.0 * float(mat[p, q].real)
        else:
            out[t] = -2.0 * float(mat[p, q].imag)
    return out


def polar_dual_lift(omega: HermitianTuple, gamma: Optional[HermitianTuple] = None,
                    rank_tol: float = 1e-10) -> Spectrahedrop:
    """Explicit drop whose members A admit a unital cp map with
    Phi(W_j) = A_j and Phi(G_k) = 0 (the polar dual of a bounded drop with
    monic lift tuples (W, G); pad with zero blocks first for the general
    case).

    The Choi-variable system (PSD coupling block, unitality, interpolation,
    annihilation) is reduced at the coefficient level: the affine equations
    eliminate one Hermitian component per constraint, leaving a plain pencil
    in the x variables and the surviving components as y variables.
    """
    if gamma is None:
        gamma = HermitianTuple([], dim=omega.dim)
    if omega.g and gamma.g and omega.dim != gamma.dim:
        raise ValueError("tuples must share the coefficient size")
    d = omega.dim or gamma.dim
    g, h = omega.g, gamma.g
    comps, coeffs = _hermitian_unknown_layout(d)
    nv = len(comps)

    # equality system  E_y . y + E_x . x + e0 = 0
    rows_y: List[np.ndarray] = []
    rows_x: List[np.ndarray] = []
    rows_c: List[float] = []
    rows_y.append(_entry_weights(np.eye(d), comps))      # unitality
    rows_x.append(np.zeros(g))
    rows_c.append(-1.0)
    for j, oj in enumerate(omega):
        ex = np.zeros(g)
        ex[j] = -1.0
        rows_y.append(_entry_weights(oj, comps))
        rows_x.append(ex)
        rows_c.append(0.0)
    for gk in gamma:
        rows_y.append(_entry_weights(gk, comps))
        rows_x.append(np.zeros(g))
        rows_c.append(0.0)
    Ey = np.vstack(rows_y)
    Ex = np.vstack(rows_x) if g else np.zeros((Ey.shape[0], 0))
    e0 = np.asarray(rows_c)

    # pick pivot unknowns via rank-revealing QR of E_y
    _, rr, piv = sla.qr(Ey, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rr))
    rank = int(np.sum(diag > max(rank_tol * (diag[0] if diag.size else 1.0),
                                 1e-13)))
    if rank < Ey.shape[0]:
        # a dependent equation is redundant only if the same combination
        # also vanishes on the x/constant side; otherwise it constrains x
        left_null = np.linalg.svd(Ey)[0][:, rank:]
        if np.abs(left_null.T @ np.column_stack([Ex, e0])).max() > 1e-8:
            raise ValueError("degenerate dual construction: the Choi "
                             "equations constrain the x variables alone")
        keep = np.sort(sla.qr(Ey.T, mode="r", pivoting=True)[1][:rank])
        Ey, Ex, e0 = Ey[keep], Ex[keep], e0[keep]
        piv = sla.qr(Ey, mode="r", pivoting=True)[1]
    pivots = list(piv[:rank])
    free = [t for t in range(nv) if t not in set(pivots)]
    Ep = Ey[:, pivots]
    Ef = Ey[:, free]
    sol_const = np.linalg.solve(Ep, -e0)
    sol_x = np.linalg.solve(Ep, -Ex) if g else np.zeros((rank, 0))
    sol_z = np.linalg.solve(Ep, -Ef)

    # substitute into the coupling block  sum_t coeff_t (x) y_t
    def combo(weights_on_pivots, direct=None):
        out = np.zeros((d, d), dtype=complex)
        for r_i, t in enumerate(pivots):
            out += weights_on_pivots[r_i] * coeffs[t]
        if direct is not None:
            out += coeffs[direct]
        return hermitian_part(out)

    a0 = combo(sol_const)
    x_coeffs = [combo(sol_x[:, j]) for j in range(g)]
    y_coeffs = [combo(sol_z[:, s], direct=free[s]) for s in range(len(free))]
    return Spectrahedrop(LinearPencil(a0, x_coeffs, y_coeffs))


def has_zero_interior(drop: Spectrahedrop, radii=(1e-1, 1e-2, 1e-3),
                      tol: float = 1e-8) -> bool:
    """Sufficient test that 0 lies in the interior of the level-1 projection:
    all 2g points +-r e_j must be members for a common radius r."""
    g = drop.g
    if g == 0:
        return bool(drop_membership(drop, HermitianTuple([], dim=1)))

    def member(j: int, v: float) -> bool:
        x = HermitianTuple([np.array([[v if k == j else 0.0]])
                            for k in range(g)])
        return drop_membership(drop, x, tol=tol).status is SolveStatus.FEASIBLE

    return any(all(member(j, sigma * r)
                   for j in range(g) for sigma in (1.0, -1.0))
               for r in radii)


def _stack_drops(drops: Sequence[Spectrahedrop]) -> LinearPencil:
    """Direct sum of the lift pencils, sharing x and stacking y variables."""
    g = drops[0].g
    d_total = sum(dr.lift.d for dr in drops)
    a0 = np.zeros((d_total, d_total), dtype=complex)
    xs = [np.zeros((d_total, d_total), dtype=complex) for _ in range(g)]
    ys = []
    ofs = 0
    for dr in drops:
        d = dr.lift.d
        sl = slice(ofs, ofs + d)
        a0[sl, sl] = dr.lift.A0
        for j in range(g):
            xs[j][sl, sl] = dr.lift.x_coeffs[j]
        for c in dr.lift.y_coeffs:
            yc = np.zeros((d_total, d_total), dtype=complex)
            yc[sl, sl] = c
            ys.append(yc)
        ofs += d
    return LinearPencil(a0, xs, ys)


def _interior_y_point(pencil: LinearPencil, tol: float = 1e-8,
                      max_iter: int = 200):
    """A point (0, y) with pencil value strictly positive definite, found by
    maximizing the uniform eigenvalue slack at level 1 over y alone.

    Raises SolverError when the solve fails and ValueError when no such
    point exists (infeasible, or a slack below 1e-6)."""
    hp = HermitianProblem()
    ys = hp.add_free(pencil.h)
    t = hp.add_free(1)[0]
    hp.add_block("P", pencil.d)
    terms = [("entry", "P", 1.0), ("kron_scalar", np.eye(pencil.d), t)]
    for k in range(pencil.h):
        terms.append(("kron_scalar", -np.asarray(pencil.y_coeffs[k]), ys[k]))
    hp.add_matrix_eq(terms, np.asarray(pencil.A0))
    hp.set_objective({}, {t: 1.0})
    sol = hp.solve(tol=tol, max_iter=max_iter)
    if sol.status is SolveStatus.ERROR:
        raise SolverError(f"lift point solve failed: {sol.info}")
    if sol.status is not SolveStatus.FEASIBLE or \
            (sol.objective_value is not None and sol.objective_value < 1e-6):
        raise ValueError("no strictly feasible lift point above x = 0; the "
                         "stacked dual lift cannot be monicized")
    return [sol.free_value(ys[k]) for k in range(pencil.h)]


def hull_of_union(drops: Sequence[Spectrahedrop], tol: float = 1e-8,
                  max_iter: int = 200) -> Spectrahedrop:
    """Closed matrix convex hull of a union of bounded drops with 0 interior.

    Dualize each input (intersection of polar duals = dual of the union),
    stack the dual lifts, monicize above x = 0, and dualize once more.
    Every input needs a monic lift, a bounded level-1 projection, and 0 in
    the interior of its level-1 set; each condition is checked.
    """
    drops = list(drops)
    if not drops:
        raise ValueError("need at least one drop")
    g = drops[0].g
    if any(dr.g != g for dr in drops):
        raise ValueError("drops must share the x variable count")
    for i, dr in enumerate(drops):
        if not dr.lift.monic:
            raise ValueError(f"drop {i}: lift is not monic; monicize first")
        if not drop_level1_bounded(dr, tol=tol, max_iter=max_iter):
            raise ValueError(f"drop {i}: level-1 projection is unbounded")
        if not has_zero_interior(dr, tol=tol):
            raise ValueError(f"drop {i}: 0 is not interior to the level-1 set")
    duals = []
    for dr in drops:
        om, ga = monic_tuple(dr.lift)
        duals.append(polar_dual_lift(om, ga if ga.g else None))
    stacked = _stack_drops(duals)
    yhat = _interior_y_point(stacked, tol=tol, max_iter=max_iter)
    mon = monicize(stacked, [0.0] * g + list(yhat))
    om, ga = monic_tuple(mon.pencil)
    return polar_dual_lift(om, ga if ga.g else None)
