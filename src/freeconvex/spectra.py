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
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .algebra import (HermitianTuple, LinearPencil, _memoized,
                      evaluate_pencil, hermitian_part, lambda_min, monic_tuple,
                      pencil_from_tuple)
from .cp import (ChoiMatrix, InterpolationMode, _solve_interpolation,
                 interpolation_problem, kraus_of_choi)
from .sdp import (_WITNESS_EIG_TOL, _WITNESS_EQ_TOL, FEAS_TOL, Decision,
                  HermitianProblem, SolverError, SolveStatus, _numerical_rank,
                  _svec_idx, hmat, hvec)

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
]

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Spectrahedrop:
    """Projection onto the x variables of the solution set of `lift`.

    ``_memo`` keeps what the drop's queries share, made on first use: the
    annihilators of the lift, the membership problem for each point size
    and the polar interpolation problem for each (bounded, size), which
    later queries solve for their own rhs, and the level-1 boundedness for
    each (tol, max_iter).  These problems are not locked, so a drop's
    queries must not run concurrently.
    """

    lift: LinearPencil
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def g(self) -> int:
        return self.lift.g

    @property
    def h(self) -> int:
        return self.lift.h


@dataclass
class SpectraMembership(Decision):
    """FEASIBLE iff X is in the solution set; the margin is
    lambda_min(L(X)), also reported as ``detail["lambda_min"]``."""


def spectrahedron_membership(pencil: LinearPencil,
                             x: HermitianTuple) -> SpectraMembership:
    """X in the solution set of L iff lambda_min(L(X)) >= -MEMBERSHIP_TOL."""
    if pencil.h:
        raise ValueError("pencil has y variables; use drop_membership")
    lam = lambda_min(evaluate_pencil(pencil, x))
    status = SolveStatus.FEASIBLE if lam >= -MEMBERSHIP_TOL else \
        SolveStatus.INFEASIBLE
    return SpectraMembership(status, lam, detail={"lambda_min": lam})


# ---------------------------------------------------------------------------
# boundedness
# ---------------------------------------------------------------------------


def is_bounded(pencil: LinearPencil, tol: float = 1e-8,
               max_iter: int = 200) -> bool:
    """Uniform boundedness of the free spectrahedron of an x-only pencil.

    Matrix convexity plus closure under isometry conjugation reduce the
    question to level 1: a nonempty set is bounded iff no v != 0 has
    sum A_j v_j >= 0.  By Gordan's alternative for the PSD cone, exactly
    when the A_j are linearly independent over the reals (the least singular
    value of [Re A_j | Im A_j] above FEAS_TOL times the largest) and one
    phase-I solve finds a Z > 0 with tr Z = 1 and every tr(A_j Z) = 0, its
    margin lambda_min(Z) above FEAS_TOL; a MARGINAL answer reads unbounded
    (a boundary recession direction exists up to tolerance).  A set with
    a recession direction reads bounded only when it is empty (see
    :func:`_level1_empty`).
    """
    if pencil.h:
        raise ValueError("pencil has y variables; flatten or use "
                         "drop_level1_bounded for the projection")
    g = pencil.g
    if g == 0:
        return True
    coeffs = np.asarray(pencil.x_coeffs)
    flat = coeffs.reshape(g, -1)
    # a Hermitian d x d matrix has d^2 real coordinates, so g > d^2 leaves
    # the least of the min(g, 2 d^2) singular values at rounding level
    s = np.linalg.svd(np.hstack([flat.real, flat.imag]), compute_uv=False)
    if s[-1] > FEAS_TOL * s[0]:
        hp = HermitianProblem()
        hp.add_block("Z", pencil.d)
        hp.add_scalar_row({"Z": np.eye(pencil.d)}, 1.0)
        hp.add_complex_row({"Z": coeffs}, np.zeros(g))
        sol = hp.solve(tol=tol, max_iter=max_iter)
        if sol.status is SolveStatus.ERROR:
            raise SolverError(f"recession solve failed: {sol.info}")
        if sol.feasible and sol.margin > FEAS_TOL:
            return True
    return _level1_empty(pencil, tol, max_iter)


def _level1_empty(pencil: LinearPencil, tol: float, max_iter: int) -> bool:
    """Whether the level-1 set of an x-only pencil is empty: not when
    lambda_min(A_0) >= 0 (x = 0 is in it), and otherwise when the drop
    membership of the pencil with every x taken as a y, at the level-1
    empty tuple, is INFEASIBLE; :class:`SolverError` when it is ERROR."""
    if lambda_min(pencil.A0) >= 0:
        return False
    empty = drop_membership(Spectrahedrop(LinearPencil(
        pencil.A0, [], pencil.x_coeffs)), HermitianTuple([], dim=1), tol=tol,
        max_iter=max_iter)
    if empty.status is SolveStatus.ERROR:
        raise SolverError(f"emptiness solve failed: {empty.info}")
    return empty.status is SolveStatus.INFEASIBLE


def drop_level1_bounded(drop: Spectrahedrop, tol: float = 1e-8,
                        max_iter: int = 200) -> bool:
    """Boundedness of the level-1 projection (hence of the whole drop).

    A lift with no y is :func:`is_bounded`'s question, a lift with no x or
    a bounded (or empty) joint pencil has a bounded projection, and B_k
    spanning Herm(d) put every x in the drop.  Otherwise the answer is
    certified by weak duality: a
    Z >= 0 with tr(B_k Z) = 0 and tr(A_i Z) = -c_i bounds c.x <= tr(A_0 Z)
    on the level-1 set, and one Z for each c = +-|A_j| e_j bounds it.  The
    Z are sought on one face (a partial facial-reduction step, Permenter
    and Parrilo, Math. Program. 171, 2018): a phase-I S >= 0 with tr S = 1
    in the real span of the B_k (tr(C_q S) = 0 on the drop's annihilators)
    reads unbounded when its margin exceeds FEAS_TOL (some sum w_k B_k > 0
    lets y absorb any x); a FEASIBLE S inside the band confines every Z to
    ker S, where the 2g certificates are one kept problem with rows
    V* B_k V = 0 (round-off rows dropped) and V* A_i V / |A_i| = -+delta_ij.
    All 2g FEASIBLE and not ``rescued`` read bounded.  Not certified
    reads unbounded, the safe answer (the dual procedures then use the
    contractive form, valid in general); :class:`SolverError` is raised
    when the joint pencil's solves failed, or when a face or certificate
    solve failed and no solve decided.
    """
    lift = drop.lift
    if lift.h == 0:
        return is_bounded(lift, tol=tol, max_iter=max_iter)
    if not lift.g or is_bounded(lift.as_x_pencil(), tol=tol,
                                max_iter=max_iter):
        return True
    C = _memoized(drop, "kernel", lambda: _drop_kernel(lift))[0]
    if not len(C):
        return False
    hp = HermitianProblem()
    hp.add_block("S", lift.d)
    hp.add_scalar_row({"S": np.eye(lift.d)}, 1.0)
    hp.add_complex_row({"S": C}, np.zeros(len(C)))
    face = hp.solve(tol=tol, max_iter=max_iter)
    failed = face.info if face.status is SolveStatus.ERROR else None
    basis = np.eye(lift.d)
    if face.feasible:
        if face.margin > FEAS_TOL:
            return False
        w, v = np.linalg.eigh(face.witness["S"])
        basis = v[:, w <= 1e-6 * w[-1]]
    sols = _bound_certificates(lift, basis, tol, max_iter)
    if sols is not None and all(s.feasible and not s.info.get("rescued")
                                for s in sols):
        return True
    failed = failed or next((s.info for s in sols or ()
                             if s.status is SolveStatus.ERROR), None)
    if failed is not None:
        raise SolverError(f"boundedness solve failed: {failed}")
    return False


def _bound_certificates(lift: LinearPencil, basis: np.ndarray, tol: float,
                        max_iter: int) -> Optional[list]:
    """The phase-I solutions for Z = V W V* (V = ``basis``) with W >= 0,
    V* B_k V . W = 0 and V* A_i V . W / |A_i| = -sigma delta_ij, for every j
    and sigma = +-1 (see :func:`drop_level1_bounded`), |.| the largest
    entry.  A compressed row whose entries are round-off (at most 1e-10
    times the largest coefficient) is dropped among the B_k; among the A_i
    it leaves x_i without a certificate: None, and no solve runs."""
    def compress(coeffs):
        coeffs = np.reshape(coeffs, (-1, lift.d, lift.d))
        m = basis.conj().T @ coeffs @ basis
        return 0.5 * (m + m.conj().swapaxes(1, 2)), np.abs(coeffs).max(
            axis=(1, 2), initial=0.0)
    ax, a_max = compress(lift.x_coeffs)
    by, b_max = compress(lift.y_coeffs)
    ax_max = np.abs(ax).max(axis=(1, 2), initial=0.0)
    if not basis.shape[1] or np.any(ax_max <= 1e-10 * a_max):
        return None
    by = by[np.abs(by).max(axis=(1, 2)) > 1e-10 * b_max.max()]
    hp = HermitianProblem()
    hp.add_block("Z", basis.shape[1])
    if len(by):
        hp.add_complex_row({"Z": by}, np.zeros(len(by)))
    g = lift.g
    rows = hp.add_complex_row({"Z": ax / a_max[:, None, None]}, np.zeros(g))
    return [hp.solve(tol=tol, max_iter=max_iter,
                     rhs={rows: -sigma * np.eye(g)[j]})
            for j in range(g) for sigma in (1.0, -1.0)]


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
    """A FEASIBLE answer ships ``witness["certificate"]`` and its
    ``witness["choi"]``; ``detail["isometry"]`` tells whether the map was
    sought unital."""

    @property
    def certificate(self) -> Optional[DominationCertificate]:
        return self.witness.get("certificate")

    @property
    def choi(self) -> Optional[ChoiMatrix]:
        return self.witness.get("choi")


def _cp_domination(source: HermitianTuple, target: HermitianTuple,
                   unital: bool, tol: float, max_iter: int,
                   annihilate: Optional[HermitianTuple] = None,
                   problem=None) -> DominationResult:
    """A cp map with Phi(source_j) = target_j and Phi(annihilate_k) = 0,
    unital or subunital, with its Kraus form re-verified as the (co)isometry
    certificate target_j = V*(I (x) source_j)V.  ``problem`` is the
    interpolation problem of an earlier call with targets of the same size,
    solved here for these targets; by default a new one is built."""
    mode = InterpolationMode.UNITAL if unital else InterpolationMode.SUBUNITAL
    if problem is None:
        problem = interpolation_problem(source, target, mode,
                                        annihilate=annihilate)
    res = _solve_interpolation(problem, mode, source.dim, target.dim, tol,
                               max_iter, rhs=dict(enumerate(target)))
    detail = {"isometry": bool(unital)}
    if not res.feasible:
        return DominationResult(res.status, res.margin, detail=detail,
                                info=res.info)
    k = kraus_of_choi(res.choi, rank_tol=1e-9)
    v = k.stacked()
    cert = DominationCertificate(
        V=v, mu=len(k), S_square=hermitian_part(np.eye(target.dim)
                                                - v.conj().T @ v))
    resid = cert.reconstruction_residual(target, source)
    if resid > 1e-6 or cert.contraction_defect() > 1e-8:
        return DominationResult(SolveStatus.ERROR, res.margin, detail=detail,
                                info={**res.info, "reason": "certificate "
                                      "failed re-verification",
                                      "resid": resid})
    return DominationResult(res.status, res.margin, {
        "certificate": cert, "choi": res.choi}, detail, res.info)


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
    W_j)V.  ``bounded=None`` reads :func:`is_bounded`, made once per tuple,
    tol and max_iter.
    """
    if omega.g != x.g:
        raise ValueError("tuples must share the variable count")
    if bounded is None:
        bounded = _memoized(omega, ("bounded", tol, max_iter),
                            lambda: is_bounded(pencil_from_tuple(omega),
                                               tol=tol, max_iter=max_iter))
    return _cp_domination(omega, x, bounded, tol, max_iter)


# ---------------------------------------------------------------------------
# spectrahedrops
# ---------------------------------------------------------------------------


@dataclass
class DropMembership(Decision):
    """A FEASIBLE answer ships its Y as ``witness["Y"]``."""

    @property
    def y_witness(self) -> Optional[HermitianTuple]:
        return self.witness.get("Y")


def _drop_kernel(lift: LinearPencil):
    """What a lift's membership queries share, from one SVD of the hvec
    coordinates of the B_k (rank by the row factorization's rule; the
    coordinates no B_k touches split off first, so that a real lift keeps
    the real path).  With S = (I, X_1, ..., X_g): the C_q, an orthonormal
    basis of the complement of the B_k's real span in Herm(d); K, with
    Phi(C_q^T) = sum_j K[q, j] S_j; D and J, with the least-squares Y_k =
    sum_pq (D_k)_pq P_pq - sum_j J[k, j] S_j; the stack of coefficients."""
    d, g = lift.d, lift.g
    coeffs = np.asarray([lift.A0, *lift.x_coeffs, *lift.y_coeffs]).reshape(
        1 + g + lift.h, d, d)
    hx, hb = hvec(coeffs[:g + 1]), hvec(coeffs[g + 1:])
    live = hb.any(axis=0)
    u, sv, vh = np.linalg.svd(hb[:, live])
    r = _numerical_rank(np.diag(sv))
    null = np.zeros((d * d - r, d * d))
    null[:len(vh) - r, live] = vh[r:]
    null[len(vh) - r:, ~live] = np.eye(d * d - len(vh))
    dual = np.zeros((lift.h, d * d))
    dual[:, live] = (u[:, :r] / sv[:r]) @ vh[:r]
    # Re tr(H M) = hvec(H).hvec(M), and the transpose of a Hermitian
    # matrix is its conjugate
    return (hmat(null, d), null @ hx.T, hmat(dual, d).conj(), dual @ hx.T,
            coeffs)


def _membership_problem(C: np.ndarray, n: int) -> HermitianProblem:
    """The cp interpolation Phi(C_q^T) = T_q over the Choi matrices of maps
    M_d -> M_n: the rows and the factor form (units C_q (x) E_rs) of
    ``interpolation_problem((C_q^T), T, CP)``, in one row group whose rhs
    is T_q[r, s] for each q and r <= s, so that a query passes one vector."""
    q, d = len(C), C.shape[-1]
    r, s, _ = _svec_idx(n)
    k = q * r.size
    hp = HermitianProblem()
    hp.add_block("C", d * n)
    hp.add_complex_row({}, np.zeros(k), kron={"C": (
        C, np.arange(d * n), np.arange(k),
        (np.arange(q)[:, None] * n * n + r * n + s).ravel())})
    return hp


def drop_membership(drop: Spectrahedrop, x: HermitianTuple, tol: float = 1e-8,
                    max_iter: int = 200) -> DropMembership:
    """X in proj_x of the lift: some P >= 0 with P - L(X, 0) in V (x) Herm(n),
    V the real span of the B_k, so that P = L(X, Y).

    With C_q an orthonormal basis of the complement of V, P is the Choi
    matrix of a cp map M_d -> M_n with Phi(C_q^T) = tr(C_q A_0) I +
    sum_j tr(C_q A_j) X_j (the image-to-kernel conversion of Lofberg,
    "Dualize it", Optim. Methods Softw. 24, 2009), kept per point size.
    Y is recovered from P - L(X, 0) by least squares; FEASIBLE needs
    lambda_min(L(X, Y)) >= -1e-8 and |L(X, Y) - P| within the equality
    tolerance, else ERROR."""
    lift = drop.lift
    if x.g != lift.g:
        raise ValueError(f"lift takes {lift.g} x variables, point has {x.g}")
    d, n = lift.d, x.dim or 1
    C, K, dual, J, coeffs = _memoized(drop, "kernel",
                                      lambda: _drop_kernel(lift))
    point = np.asarray([np.eye(n), *x]).reshape(lift.g + 1, n * n)
    targets = (K @ point).reshape(-1, n, n)
    r, s, _ = _svec_idx(n)
    problem = _memoized(drop, ("member", n), lambda: _membership_problem(C, n))
    res = _solve_interpolation(problem, InterpolationMode.CP, d, n, tol,
                               max_iter, rhs={0: targets[:, r, s].ravel()})
    if not res.feasible:
        return DropMembership(res.status, res.margin, info=res.info)
    P = res.choi.C
    y = HermitianTuple(np.tensordot(dual, P.reshape(d, n, d, n), ([1, 2], [0, 2]))
                       - (J @ point).reshape(-1, n, n), dim=n)
    # L(X, Y), each coefficient (x) its variable
    value = np.tensordot(coeffs, np.concatenate([
        point.reshape(-1, n, n), np.reshape(y.matrices, (-1, n, n))]),
        (0, 0)).transpose(0, 2, 1, 3).reshape(d * n, d * n)
    eig_min = float(np.linalg.eigvalsh(value)[0])
    resid = float(np.abs(value - P).max())
    if eig_min < -_WITNESS_EIG_TOL or resid > _WITNESS_EQ_TOL * max(
            1.0, float(np.abs(targets).max(initial=0.0))):
        return DropMembership(SolveStatus.ERROR, res.margin, info={
            **res.info, "reason": "Y witness failed verification",
            "eig_min": eig_min, "resid": resid})
    return DropMembership(res.status, res.margin, {"Y": y}, info=res.info)


def drop_polar_membership(drop: Spectrahedrop, a: HermitianTuple,
                          bounded: Optional[bool] = None, tol: float = 1e-8,
                          max_iter: int = 200) -> DominationResult:
    """A in the polar dual of the drop, via cp interpolation on the lift.

    Needs a monic lift (polar duals are origin-dependent); membership is a
    cp map with Phi(W_j) = A_j and Phi(G_k) = 0, unital when the drop is
    bounded and contractive otherwise.  ``bounded=None`` reads
    :func:`drop_level1_bounded`, made once per drop, tol and max_iter.
    """
    lift = drop.lift
    if not lift.monic:
        raise ValueError("lift is not monic; monicize the drop first "
                         "(polar duals depend on the choice of origin)")
    if a.g != lift.g:
        raise ValueError("tuple length must match the drop's x variables")
    omega, gamma = _memoized(drop, "monic", lambda: monic_tuple(lift))
    if bounded is None:
        bounded = _memoized(drop, ("bounded", tol, max_iter),
                            lambda: drop_level1_bounded(drop, tol=tol,
                                                        max_iter=max_iter))
    mode = InterpolationMode.UNITAL if bounded else InterpolationMode.SUBUNITAL
    problem = _memoized(drop, ("polar", bool(bounded), a.dim),
                        lambda: interpolation_problem(omega, a, mode,
                                                      annihilate=gamma))
    return _cp_domination(omega, a, bounded, tol, max_iter, annihilate=gamma,
                          problem=problem)


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


def monicize(pencil: LinearPencil, xhat: Sequence[float]) -> MonicizeResult:
    """R L(x + xhat) R, R = L(xhat)^-1/2, for an interior point xhat of the
    pencil's solution set (lambda_min(L(xhat)) >= 1e-8)."""
    xhat = tuple(float(v) for v in xhat)
    if len(xhat) != pencil.g + pencil.h:
        raise ValueError(f"interior point needs {pencil.g + pencil.h} "
                         "coordinates")
    l0 = np.asarray(pencil.A0, dtype=complex).copy()
    for coeff, v in zip(pencil.x_coeffs + pencil.y_coeffs, xhat):
        l0 += v * np.asarray(coeff)
    l0 = hermitian_part(l0)
    w, v = np.linalg.eigh(l0)
    if w[0] < 1e-8:
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


def polar_dual_lift(omega: HermitianTuple,
                    gamma: Optional[HermitianTuple] = None) -> Spectrahedrop:
    """Explicit drop whose members A admit a unital cp map with
    Phi(W_j) = A_j and Phi(G_k) = 0 (the polar dual of a bounded drop with
    monic lift tuples (W, G); pad with zero blocks first for the general
    case).

    The Choi equations (unitality, interpolation, annihilation) are linear in
    the hvec coordinates c of the coupling block C = hmat(c) >= 0:
    E_y c = E [x; 1].  One SVD E_y = U S V' eliminates them: the solutions
    are c = V1 S1^-1 U1' E [x; 1] + V2 y, which gives the x and constant
    coefficients of the pencil, and the y coefficients are hmat of the rows
    of V2'.  The solutions exist iff U2' E [x; 1] = 0: a row of U2' E with
    an entry above 1e-8 is an equation on x alone, f.x + f0 = 0, and adds
    the 1x1 entries +-(f.x + f0); the other rows are redundant.
    """
    if gamma is None:
        gamma = HermitianTuple([], dim=omega.dim)
    if omega.g and gamma.g and omega.dim != gamma.dim:
        raise ValueError("tuples must share the coefficient size")
    d, g = omega.dim or gamma.dim, omega.g
    # hvec(conj M).hvec(C) = sum_pq M_pq C_pq; the rows of E are [0, 1] for
    # tr C = 1, [e_j, 0] for Phi(W_j) = x_j and zero for Phi(G_k) = 0
    Ey = hvec(np.conj([np.eye(d), *omega, *gamma]))
    E = np.zeros((Ey.shape[0], g + 1))
    E[0, g] = 1.0
    E[1:g + 1, :g] = np.eye(g)
    u, sv, vh = np.linalg.svd(Ey)
    rank = int(np.sum(sv > max(1e-10 * sv[0], 1e-13)))
    part = hmat(((vh[:rank].T / sv[:rank]) @ (u[:, :rank].T @ E)).T, d)
    fixed = u[:, rank:].T @ E
    fixed = fixed[np.abs(fixed).max(axis=1) > 1e-8]

    def pad(mat, f):              # mat (+) diag(f, -f)
        return sla.block_diag(mat, np.diag(np.r_[f, -f]))

    return Spectrahedrop(LinearPencil(
        pad(part[g], fixed[:, g]),
        [pad(part[j], fixed[:, j]) for j in range(g)],
        [pad(c, np.zeros(len(fixed))) for c in hmat(vh[rank:], d)]))


def _stack_drops(drops: Sequence[Spectrahedrop]) -> LinearPencil:
    """Direct sum of the lift pencils, sharing x and stacking y variables."""
    lifts = [dr.lift for dr in drops]
    zeros = [np.zeros((lf.d, lf.d)) for lf in lifts]
    return LinearPencil(
        sla.block_diag(*[lf.A0 for lf in lifts]),
        [sla.block_diag(*cs) for cs in zip(*[lf.x_coeffs for lf in lifts])],
        [sla.block_diag(*zeros[:i], c, *zeros[i + 1:])
         for i, lf in enumerate(lifts) for c in lf.y_coeffs])


def _interior_y_point(pencil: LinearPencil, tol: float = 1e-8,
                      max_iter: int = 200):
    """A point (0, y) with pencil value strictly positive definite: the Y
    witness of :func:`drop_membership` at X = 0 of level 1, whose margin is
    the uniform eigenvalue slack of L(0, Y) (+inf along a verified ray).

    Raises SolverError when the solve fails and ValueError when no such
    point exists (infeasible, or a margin below 1e-6)."""
    res = drop_membership(Spectrahedrop(pencil), HermitianTuple(
        [np.zeros((1, 1))] * pencil.g, dim=1), tol=tol, max_iter=max_iter)
    if res.status is SolveStatus.ERROR:
        raise SolverError(f"lift point solve failed: {res.info}")
    if res.status is not SolveStatus.FEASIBLE or res.margin < 1e-6:
        raise ValueError("no strictly feasible lift point above x = 0; the "
                         "stacked dual lift cannot be monicized")
    return [float(y[0, 0].real) for y in res.y_witness]


def hull_of_union(drops: Sequence[Spectrahedrop], tol: float = 1e-8,
                  max_iter: int = 200) -> Spectrahedrop:
    """Closed matrix convex hull of a union of bounded drops with 0 interior.

    Dualize each input (intersection of polar duals = dual of the union),
    stack the dual lifts, monicize above x = 0, and dualize once more.
    Every input needs a monic lift and a bounded level-1 projection, both
    checked, and 0 interior to its level-1 set, which L(0, 0) = I > 0 gives.
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
    stacked = _stack_drops([polar_dual_lift(*monic_tuple(dr.lift))
                            for dr in drops])
    yhat = _interior_y_point(stacked, tol=tol, max_iter=max_iter)
    mon = monicize(stacked, [0.0] * g + list(yhat))
    return polar_dual_lift(*monic_tuple(mon.pencil))
