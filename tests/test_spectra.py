import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from freeconvex.algebra import (HermitianTuple, LinearPencil, ball_pencil,
                                direct_sum, evaluate_pencil, lambda_min,
                                monic_tuple, pencil_from_tuple)
from freeconvex.corpus import (ex_fails, interval_pencil, interval_tuple,
                               scalar_tuple, tv_lift, tv_monic_lift,
                               tv_dual_boundary, tv_screen_value)
from freeconvex.cp import ChoiMatrix
from freeconvex.rand import (rng, rand_hermitian, rand_psd, rand_tuple,
                             rand_unitary)
from freeconvex.sdp import HermitianProblem, SDPSolution, SolveStatus, \
    SolverError, hmat, hvec
from freeconvex import spectra
from freeconvex.spectra import (Spectrahedrop, dominates, drop_level1_bounded,
                                drop_membership, drop_polar_membership,
                                hull_of_union, is_bounded,
                                monicize, polar_dual_lift, polar_membership,
                                spectrahedron_membership)

LA, LB = ex_fails()
TV = Spectrahedrop(tv_lift())
TVM = Spectrahedrop(tv_monic_lift())
INTERVAL = interval_tuple(-1.0, 1.0)


def pt(*vals):
    return scalar_tuple(*vals)


# -- membership -------------------------------------------------------------


def test_membership_margin_is_lambda_min():
    for x in (0.0, -1.0, 3.0):
        res = spectrahedron_membership(LB, pt(x))
        assert res.margin == res.detail["lambda_min"]
        assert res.margin == lambda_min(evaluate_pencil(LB, pt(x)))
        assert res.feasible == (res.margin >= -spectra.MEMBERSHIP_TOL)


def test_membership_examples():
    assert bool(spectrahedron_membership(LB, pt(0.0)))
    res = spectrahedron_membership(LB, pt(-1.0))
    assert not res and abs(res.margin + 1.0) < 1e-12
    assert bool(spectrahedron_membership(LA, pt(-1.0)))   # boundary


def test_membership_rejects_lifted_pencil():
    with pytest.raises(ValueError):
        spectrahedron_membership(tv_lift(), pt(0.0, 0.0))


# -- boundedness ------------------------------------------------------------


def test_halfline_unbounded():
    assert not is_bounded(LB)


def test_interval_bounded():
    assert is_bounded(pencil_from_tuple(INTERVAL))


def _lp_bounded(D):
    """{x : D x <= 1} is bounded iff linprog bounds every +-x_j on it."""
    return all(linprog(sign * np.eye(D.shape[1])[j], A_ub=D,
                       b_ub=np.ones(len(D)), bounds=(None, None)).status == 0
               for j in range(D.shape[1]) for sign in (1.0, -1.0))


def _diagonal_pencil(D):
    """The monic pencil I - sum_j diag(D[:, j]) x_j, whose level-1 set is
    the polyhedron {x : D x <= 1}."""
    return pencil_from_tuple(HermitianTuple([np.diag(c) for c in D.T]))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000))
def test_is_bounded_matches_lp_oracle(g, d, seed):
    """Random monic diagonal pencils with small integer coefficients: the
    recession boxes of is_bounded agree with linprog's support values."""
    D = rng(seed).integers(-3, 4, size=(d, g)).astype(float)
    assert is_bounded(_diagonal_pencil(D)) == _lp_bounded(D)


@pytest.mark.parametrize("D, bounded", [
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], True),     # the square
    ([[1, 0], [-1, 0]], False),                      # a strip, free in x_2
    ([[1, 0], [-1, 0], [0, 1]], False),              # a half-strip, x_2 -> -oo
    ([[1, 1], [-1, -1]], False),                     # a repeated coefficient
    ([[1, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]], False),
])
def test_is_bounded_degenerate_pencils(D, bounded):
    D = np.array(D, dtype=float)
    assert _lp_bounded(D) is bounded
    assert is_bounded(_diagonal_pencil(D)) is bounded


PAULI = [np.array([[0.0, 1.0], [1.0, 0.0]]),
         np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.diag([1.0, -1.0])]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["ball", "planted", "dependent"]), st.booleans(),
       st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
def test_is_bounded_on_constructed_pencils(kind, real, g, d, seed):
    """Non-diagonal real and complex pencils I - sum U* W_j U x_j, whose
    construction is the oracle: the sigma-matrix ball (the real ball pencil
    when real) (+) a random d x d block is bounded; a planted v with
    sum v_j W_j <= 0, and W_{g+1} = c W_1, give recession directions."""
    gen = rng(seed)
    if kind == "ball":
        ball = ball_pencil(g, 1.0).x_coeffs if real else PAULI[:g]
        ws = [sla.block_diag(b, rand_hermitian(gen, d, real=real))
              for b in ball]
    elif kind == "planted":
        ws = list(rand_tuple(gen, g, d, real=real))
        v = gen.standard_normal(g)
        v[-1] = np.copysign(max(abs(v[-1]), 0.5), v[-1])
        p = rand_psd(gen, d, rank=int(gen.integers(0, d + 1)), real=real)
        ws[-1] = -(p + sum(vj * w for vj, w in zip(v[:-1], ws))) / v[-1]
    else:
        ws = list(rand_tuple(gen, g, d, real=real))
        ws.append(gen.uniform(-2.0, 2.0) * ws[0])
    u = rand_unitary(gen, len(ws[0]), real=real)
    pencil = pencil_from_tuple(HermitianTuple([u.conj().T @ w @ u
                                               for w in ws]))
    assert is_bounded(pencil) is (kind == "ball")


@pytest.mark.parametrize("c", [1e-9, 1e-8, 1e-6, 1.0, 1e6])
def test_is_bounded_is_scale_free(c):
    # the interval [-1/c, 1/c] and the box [-1/c, 1/c]^2
    assert is_bounded(pencil_from_tuple(HermitianTuple([np.diag([c, -c])])))
    assert is_bounded(pencil_from_tuple(HermitianTuple(
        [np.diag([c, -c, 0.0, 0.0]), np.diag([0.0, 0.0, c, -c])])))


def test_is_bounded_solves_once(monkeypatch):
    solve, statuses = HermitianProblem.solve, []

    def counted(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        statuses.append(sol.status)
        return sol
    monkeypatch.setattr(HermitianProblem, "solve", counted)
    for pencil, bounded in [(pencil_from_tuple(INTERVAL), True), (LB, False),
                            (tv_lift().as_x_pencil(), True)]:
        statuses.clear()
        assert is_bounded(pencil) is bounded
        assert len(statuses) == 1
    statuses.clear()    # dependent coefficients are decided without a solve
    assert not is_bounded(pencil_from_tuple(HermitianTuple(
        [np.diag([1.0, -1.0]), np.diag([2.0, -2.0])])))
    assert statuses == []


def test_is_bounded_raises_on_a_failed_solve(monkeypatch):
    monkeypatch.setattr(HermitianProblem, "solve", lambda self, **kw:
                        SDPSolution(SolveStatus.ERROR,
                                    info={"reason": "forced"}))
    with pytest.raises(SolverError, match="recession solve failed"):
        is_bounded(pencil_from_tuple(INTERVAL))


def _diagonal_lift(D, E):
    """The lift I - sum_j diag(D[:, j]) x_j - sum_k diag(E[:, k]) y_k, whose
    level-1 set is the polyhedron {(x, y) : D x + E y <= 1}."""
    return Spectrahedrop(LinearPencil(np.eye(len(D)),
                                      [-np.diag(c) for c in D.T],
                                      [-np.diag(c) for c in E.T]))


def _lp_diagonal_bounded(a0, xs, ys):
    """The LP oracle for the lift diag(a0) + sum_j diag(xs_j) x_j +
    sum_k diag(ys_k) y_k, whose level-1 set is the polyhedron
    {(x, y) : a0 + X x + Y y >= 0}: empty (hence bounded) iff its largest
    uniform slack is negative, and otherwise bounded iff linprog finds a
    finite maximum of every +-x_j.  Presolve is off: HiGHS presolve reads
    some unbounded LPs as infeasible."""
    A = -np.array([*xs, *ys], dtype=float).T
    b, (d, n) = np.asarray(a0, dtype=float), A.shape
    slack = linprog(-np.eye(n + 1)[n], A_ub=np.hstack([A, np.ones((d, 1))]),
                    b_ub=b, bounds=(None, None), options={"presolve": False})
    if slack.status == 0 and slack.fun > 1e-9:
        return True
    for j in range(len(xs)):
        for sign in (1.0, -1.0):
            res = linprog(-sign * np.eye(n)[j], A_ub=A, b_ub=b,
                          bounds=(None, None), options={"presolve": False})
            if res.status != 0:
                return False
    return True


def _random_diagonals(gh, d, seed):
    """The diagonals (a0, xs, ys) of a random lift with integer entries in
    [-3, 3], so that empty level-1 sets and ones with empty interior occur."""
    g, h = gh
    gen = np.random.default_rng([seed, g, h, d])
    return (gen.integers(-3, 4, d), [gen.integers(-3, 4, d) for _ in range(g)],
            [gen.integers(-3, 4, d) for _ in range(h)])


@settings(deadline=None, max_examples=40)
@given(st.builds(_random_diagonals, st.sampled_from([(1, 1), (1, 2), (2, 1)]),
                 st.integers(1, 5), st.integers(0, 10_000)))
@example(((3, -1, 0, -3), [(-1, 0, 0, 1)], [(1, 2, 0, -1), (2, 0, 0, -2)]))
@example(((0, 0, 3), [(3, -3, -1)], [(2, -2, -3)]))
@example(((0, 0, 0, 3), [(0, 2, -2, -2)], [(3, -2, 1, 0), (-3, 0, 1, 1)]))
@example(((0, -3, -1, 2), [(0, 3, 1, 1), (0, -2, -3, 0)], [(0, 1, 3, -3)]))
def test_drop_level1_bounded_matches_lp_oracle(diagonals):
    """Random non-monic diagonal lifts with small integer coefficients agree
    with the LP oracle, and none raises.  The examples have unbounded
    projections and level-1 sets with empty interior, on which a support
    solve can end in the core's Farkas exit."""
    a0, xs, ys = diagonals
    lift = LinearPencil(np.diag(np.asarray(a0, dtype=float)),
                        [np.diag(np.asarray(c, dtype=float)) for c in xs],
                        [np.diag(np.asarray(c, dtype=float)) for c in ys])
    assert drop_level1_bounded(Spectrahedrop(lift)) == \
        _lp_diagonal_bounded(a0, xs, ys)


@pytest.mark.parametrize("x, y", [((2, 3, 3), (0, 3, 3)),
                                  ((-1, 2, -1), (1, 0, 1))])
def test_support_with_an_unbounded_optimal_face(x, y):
    """Projections that are unbounded one way while the other way's support
    has an unbounded optimal face (y -> -oo): one sign has no certificate,
    and the set is not empty."""
    assert not _lp_diagonal_bounded(np.ones(3), [-np.array(x)], [-np.array(y)])
    D, E = np.array([x], dtype=float).T, np.array([y], dtype=float).T
    assert not drop_level1_bounded(_diagonal_lift(D, E))


def test_tv_joint_spectrahedron_bounded():
    assert is_bounded(tv_lift().as_x_pencil())
    assert drop_level1_bounded(TV)
    assert drop_level1_bounded(TVM)


def test_drop_with_unbounded_projection():
    # lift {(x, y): [[1, x],[x, y]] >= 0} projects onto all of R
    a0 = np.diag([1.0, 0.0])
    x = np.zeros((2, 2))
    x[0, 1] = x[1, 0] = 1.0
    y = np.diag([0.0, 1.0])
    drop = Spectrahedrop(LinearPencil(a0, [x], [y]))
    assert not drop_level1_bounded(drop)


def test_empty_level1_set_is_bounded():
    """A0 + diag(0, 1) x >= 0 with A0 = diag(-1, 1) has no point: the lift's
    x-pencil has a recession direction and x >= 0 has no upper bound
    certificate, but lambda_min(A0) < 0 and the joint lift's drop
    membership reads INFEASIBLE, so the joint pencil reads bounded."""
    lift = LinearPencil(np.diag([-1.0, 1.0]), [np.diag([0.0, 1.0])],
                        [np.zeros((2, 2))])
    assert is_bounded(lift.as_x_pencil())
    assert drop_level1_bounded(Spectrahedrop(lift))


EMPTY_X = [np.diag([0.0, 1.0])], [np.diag([0.0, 1.0]), -np.diag([0.0, 1.0])]


@pytest.mark.parametrize("xs", EMPTY_X, ids=["one", "pair"])
def test_empty_x_only_sets_are_bounded(xs):
    """diag(-1, 1) + sum A_j x_j >= 0 has no point for A_1 = diag(0, 1) (a
    recession direction, found by the recession solve) and for A_1, A_2 =
    +-diag(0, 1) (dependent coefficients, found by the rank test): the
    emptiness solve makes both read bounded, as x-only pencils and as
    lifts with no y."""
    pencil = LinearPencil(np.diag([-1.0, 1.0]), xs)
    assert is_bounded(pencil)
    assert drop_level1_bounded(Spectrahedrop(pencil))


def test_nonempty_x_only_halfline_with_negative_a0_is_unbounded():
    # diag(-1, 1) + diag(1, 0) x >= 0 is {x >= 1}: lambda_min(A0) < 0, and
    # the emptiness solve finds a point
    pencil = LinearPencil(np.diag([-1.0, 1.0]), [np.diag([1.0, 0.0])])
    assert not is_bounded(pencil)
    assert not drop_level1_bounded(Spectrahedrop(pencil))


def test_emptiness_solve_failure_raises(monkeypatch):
    monkeypatch.setattr(spectra, "drop_membership", lambda *a, **kw:
                        spectra.DropMembership(SolveStatus.ERROR,
                                               info={"reason": "forced"}))
    with pytest.raises(SolverError, match="emptiness solve failed"):
        is_bounded(LinearPencil(np.diag([-1.0, 1.0]), EMPTY_X[0]))


def test_polar_membership_reads_boundedness_once_per_drop(monkeypatch):
    """Queries with bounded=None on one drop share one boundedness answer
    per (tol, max_iter)."""
    calls = []
    bounded = spectra.drop_level1_bounded

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return bounded(*args, **kwargs)
    monkeypatch.setattr(spectra, "drop_level1_bounded", counted)
    drop = Spectrahedrop(tv_monic_lift())
    for a, c in [(0.1, 0.2), (0.3, -0.1), (2.0, 2.0)]:
        drop_polar_membership(drop, pt(a, c))
    assert len(calls) == 1
    drop_polar_membership(drop, pt(0.1, 0.2), tol=1e-9)
    assert len(calls) == 2


def test_polar_membership_reads_boundedness_once_per_tuple(monkeypatch):
    """Queries with bounded=None on one tuple share one is_bounded answer
    per (tol, max_iter)."""
    calls = []
    bounded = spectra.is_bounded

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return bounded(*args, **kwargs)
    monkeypatch.setattr(spectra, "is_bounded", counted)
    omega = interval_tuple(-1.0, 1.0)
    for c in (0.5, -0.9, 1.5):
        assert polar_membership(omega, pt(c)).feasible == (abs(c) <= 1)
    assert len(calls) == 1
    polar_membership(omega, pt(0.5), tol=1e-9)
    assert len(calls) == 2


def test_y_span_of_all_of_herm_d_reads_unbounded_unsolved(monkeypatch):
    # 1 + 0 x + y >= 0: the B_k span Herm(1), so every x is in the drop,
    # decided by the rank test and the kernel alone
    monkeypatch.setattr(HermitianProblem, "solve", None)
    lift = LinearPencil(np.eye(1), [np.zeros((1, 1))], [np.eye(1)])
    assert drop_level1_bounded(Spectrahedrop(lift)) is False


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_scaled_parabola_reads_unbounded(scale):
    # [[y, x], [x, 1]] >= 0 iff y >= x^2: every x is in the projection.  The
    # face S = diag(1, 0) leaves the certificates ker S, where A_1
    # compresses to 0, and A0 >= 0 keeps the set nonempty
    lift = LinearPencil(scale * np.diag([0.0, 1.0]),
                        [scale * np.array([[0.0, 1.0], [1.0, 0.0]])],
                        [scale * np.diag([1.0, 0.0])])
    assert drop_level1_bounded(Spectrahedrop(lift)) is False


def test_zero_projection_reads_bounded():
    """[[y2, y1, 0], [y1, 0, x], [0, x, 1]] >= 0 forces y1 = x = 0, so the
    projection is {0}: the certificates live on ker E_11, the face the
    recession direction y2 leaves them, with unbounded margins."""
    def sym(i, j):
        e = np.zeros((3, 3))
        e[i, j] = e[j, i] = 1.0
        return e
    lift = LinearPencil(sym(2, 2), [sym(1, 2)], [sym(0, 1), sym(0, 0)])
    assert not is_bounded(lift.as_x_pencil())
    assert drop_level1_bounded(Spectrahedrop(lift)) is True


def _planted_lift(i):
    """A0 = I + 0.3 H, Y1 = V V* of rank 1 + i mod (d - 1) and X1 = w w*
    (i = 0 mod 3) or random Hermitian, d = 2 + i mod 3, real for odd i;
    with the lift's oracle: as y -> oo the Y1 part absorbs range(V), so
    the projection is bounded iff X1 compressed to ker V* is indefinite."""
    gen = np.random.default_rng([i, 600])
    d, real = 2 + i % 3, i % 2 == 1
    a0 = np.eye(d) + 0.3 * rand_hermitian(gen, d, real=real)

    def draw(*shape):
        v = gen.standard_normal(shape)
        return v if real else v + 1j * gen.standard_normal(shape)
    r = 1 + i % (d - 1)
    v = draw(d, r)
    if i % 3 == 0:
        w = draw(d)
        x1 = np.outer(w, w.conj())
    else:
        x1 = rand_hermitian(gen, d, real=real)
    k = np.linalg.svd(v)[0][:, r:]
    e = np.linalg.eigvalsh(k.conj().T @ x1 @ k)
    return LinearPencil(a0, [x1], [v @ v.conj().T]), bool(e[0] < 0 < e[-1])


def test_planted_lifts_never_read_bounded_when_unbounded():
    """No planted lift whose oracle says unbounded reads bounded, and none
    raises; the bounded ones are d = 3 complex lifts with Y1 of rank 1."""
    for i in range(240):
        lift, bounded = _planted_lift(i)
        if drop_level1_bounded(Spectrahedrop(lift)):
            assert bounded, i


@pytest.mark.parametrize("a0, status", [(-5e-8, SolveStatus.MARGINAL),
                                        (-1e-8, SolveStatus.FEASIBLE)])
def test_drop_answer_inside_the_band(a0, status):
    """The 1x1 lift a0 + 0 x at X = 0: a margin a0 inside the band is solved
    again at tol 1e-11, and the witness rescue then fails (MARGINAL, which
    is no yes/no answer) or verifies a boundary witness (FEASIBLE)."""
    lift = LinearPencil(np.array([[a0]]), [np.zeros((1, 1))])
    res = drop_membership(Spectrahedrop(lift), scalar_tuple(0.0))
    assert res.status is status
    assert abs(res.margin - a0) <= 1e-9
    assert res.info["resolves"] == 1
    assert res.info.get("rescued", False) is (status is SolveStatus.FEASIBLE)
    if status is SolveStatus.MARGINAL:
        with pytest.raises(ValueError, match="not a yes/no answer"):
            bool(res)
    else:
        assert res


# -- domination -------------------------------------------------------------


def test_halfline_domination_contraction():
    res = dominates(LA, LB)
    assert bool(res) and not res.detail["isometry"]
    vv = res.certificate.V.conj().T @ res.certificate.V
    assert np.abs(vv - 0.5).max() <= 1e-6
    assert res.certificate.reconstruction_residual(*[monic_tuple(p)[0]
                                                     for p in (LA, LB)]) <= 1e-6


def test_halfline_domination_isometry_fails():
    assert not bool(dominates(LA, LB, isometry=True))


def test_domination_reflexive_and_transitive():
    lc = LinearPencil(np.eye(1), [4.0 * np.eye(1)])
    assert bool(dominates(LA, LA))
    assert bool(dominates(LB, LB))
    assert bool(dominates(LA, LB)) and bool(dominates(LB, lc))
    assert bool(dominates(LA, lc))
    # and the reverse inclusions fail
    assert not bool(dominates(LB, LA))


# -- polar duals ------------------------------------------------------------


def test_polar_interval_oracle():
    # dual of the operator interval is the operator ball
    gen = rng(3)
    assert bool(polar_membership(INTERVAL, pt(0.0)))
    assert bool(polar_membership(INTERVAL, pt(0.5)))
    assert not bool(polar_membership(INTERVAL, pt(1.5)))
    for _ in range(8):
        x = HermitianTuple([rand_hermitian(gen, 2, scale=0.8)])
        member = bool(polar_membership(INTERVAL, x))
        assert member == (np.linalg.norm(x[0], 2) <= 1 + 1e-9)


def test_polar_halfline_monic_forms():
    assert bool(polar_membership(HermitianTuple([np.array([[-2.0]])]),
                                 pt(-1.0)))


def test_polar_certificate_representation():
    res = polar_membership(INTERVAL, pt(0.5), bounded=True)
    v = res.certificate.V
    # X = V*(I (x) Omega)V with V an isometry in the bounded case
    assert np.abs(v.conj().T @ v - np.eye(1)).max() <= 1e-6


def test_norm_ball_polar_sandwich():
    g, eps = 2, 1.0
    ball, _ = monic_tuple(ball_pencil(g, eps))
    gen = rng(8)
    for _ in range(6):
        x = rand_tuple(gen, g, 2)
        x = x.scale((1.0 / (g * eps)) / max(x.norm(), 1e-9) * 0.98)
        assert bool(polar_membership(ball, x, bounded=True))
    for _ in range(6):
        x = rand_tuple(gen, g, 2)
        x = x.scale((np.sqrt(g) / eps + 1e-3) / max(x.norm(), 1e-9) * 1.05)
        assert not bool(polar_membership(ball, x, bounded=True))


def test_bipolar_consistency_samples():
    gen = rng(13)
    members, duals = [], []
    for _ in range(8):
        h = rand_hermitian(gen, 2)
        x = HermitianTuple([h / np.linalg.norm(h, 2) * gen.uniform(0.1, 0.99)])
        assert bool(spectrahedron_membership(pencil_from_tuple(INTERVAL), x))
        members.append(x)
        h = rand_hermitian(gen, 2)
        a = HermitianTuple([h / np.linalg.norm(h, 2) * gen.uniform(0.1, 0.99)])
        assert bool(polar_membership(INTERVAL, a))
        duals.append(a)
    for x in members:
        for a in duals:
            val = lambda_min(evaluate_pencil(pencil_from_tuple(a), x))
            assert val >= -1e-8


# -- drops ------------------------------------------------------------------


def test_tv_drop_membership_examples():
    assert bool(drop_membership(TV, pt(0.0, 0.0)))
    assert not bool(drop_membership(TV, pt(1.0, 1.0)))
    res = drop_membership(TV, pt(0.9, 0.5))
    assert bool(res)
    y = float(res.y_witness[0][0, 0].real)
    assert y >= 0.25 - 1e-6 and 0.81 + y * y <= 1 + 1e-6


def _free_y_reference(lift, x):
    """The free-Y formulation of drop membership, as a reference: P = L(X, Y)
    >= 0 with each Hermitian Y_k free, eliminated as free columns are: P -
    L(X, 0) must be orthogonal to the complement of span{B_k (x) E} in
    Herm(dn), E running over a basis of Herm(n), found by one SVD of their
    hvec coordinates.  (Split free variables Y_k = Y_k+ - Y_k-, two PSD
    blocks each, leave the common part of the pair unbounded, and that
    solve ends in ERROR on about 3 in 100 runs of this test.)"""
    n, size = x.dim, lift.d * x.dim
    cols = hvec(np.array([np.kron(b, e) for b in lift.y_coeffs
                          for e in hmat(np.eye(n * n), n)]).reshape(-1, size, size))
    null = np.eye(size * size)
    if len(cols):
        _, sv, vh = np.linalg.svd(cols)
        null = vh[int(np.sum(sv > 1e-10 * sv[0])):]
    rows = hmat(null, size)
    const = np.kron(lift.A0, np.eye(n)) + sum(
        np.kron(a, xj) for a, xj in zip(lift.x_coeffs, x))
    hp = HermitianProblem()
    hp.add_block("P", size)
    hp.add_complex_row({"P": rows}, np.einsum("kij,ji->k", rows, const).real)
    return hp.solve()


@settings(deadline=None, max_examples=40)
@given(st.booleans(), st.sampled_from([0, 1, 3]), st.booleans(),
       st.sampled_from([1, 2, 3]), st.floats(0.05, 2.0), st.integers(0, 10_000))
@example(True, 0, False, 1, 1.0, 0)
@example(True, 3, True, 2, 1.0, 1)
@example(False, 3, True, 3, 1.0, 2)
@example(False, 1, False, 2, 2.0, 3)
def test_drop_membership_matches_free_y_reference(real, h, repeat, n, scale,
                                                  seed):
    """The kernel form of drop membership (a cp interpolation on the lift's
    annihilators) decides as the free-Y formulation does: real and complex
    lifts, h = 0, 1 and 3 with and without a repeated B_k (a rank-deficient
    span), and points of size 1 to 3; every FEASIBLE Y is re-checked on
    L(X, Y)."""
    gen = rng(seed)
    d = 3
    ys = [rand_hermitian(gen, d, real=real) for _ in range(h)]
    if repeat and h > 1:
        ys[-1] = ys[0]
    lift = LinearPencil(np.eye(d), list(rand_tuple(gen, 2, d, real=real)), ys)
    x = rand_tuple(gen, 2, n, scale=scale, real=real)
    got, ref = drop_membership(Spectrahedrop(lift), x), _free_y_reference(lift, x)
    assert got.status is ref.status
    if math.isinf(ref.margin):
        assert got.margin == ref.margin
    else:
        # either solve may stop on its residual tests at their 1e-7 floor,
        # in units of the solution: t* then errs by up to about 1e-6 of
        # 1 + |t*| + max |P| (6.7e-7 at most over 2,000 random cases)
        scale = 1 + abs(ref.margin)
        if ref.feasible:
            scale += float(np.abs(ref.witness["P"]).max())
        assert abs(got.margin - ref.margin) <= 2e-6 * scale
    if got.feasible:
        lam = np.linalg.eigvalsh(evaluate_pencil(lift, x, got.y_witness))[0]
        assert lam >= -1e-8


def test_drop_membership_reverifies_its_y(monkeypatch):
    """A Choi witness that misses the rows (P - L(X, 0) has a part outside
    V (x) Herm(n), here 1e-3 I) gives a Y whose L(X, Y) misses P: ERROR."""
    solve = spectra._solve_interpolation

    def off_rows(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.witness["choi"] = ChoiMatrix(
            res.choi.n, res.choi.m, res.choi.C + 1e-3 * np.eye(len(res.choi.C)))
        return res

    monkeypatch.setattr(spectra, "_solve_interpolation", off_rows)
    res = drop_membership(Spectrahedrop(tv_lift()), pt(0.3, 0.2))
    assert res.status is SolveStatus.ERROR and res.y_witness is None
    assert res.info["reason"] == "Y witness failed verification"
    assert res.info["resid"] > 1e-4


def test_drop_membership_matrix_convexity_samples():
    gen = rng(21)
    pts = [pt(0.5, 0.5), pt(-0.7, 0.3)]
    assert all(bool(drop_membership(TV, p)) for p in pts)
    both = direct_sum(pts[0], pts[1])
    assert bool(drop_membership(TV, both))
    # isometry compression of a member stays a member
    v = rand_unitary(gen, 2)[:, :1]
    compressed = both.conjugate(v)
    assert bool(drop_membership(TV, compressed))


def test_projection_duality_on_tv():
    # A in (proj K) polar iff (A, 0) in K polar
    lift = TVM.lift
    joint, _ = monic_tuple(lift.as_x_pencil())
    gen = rng(5)
    for a_vals in [(0.5, 0.5), (1.2, 0.0), (0.0, 0.9), (-0.8, -0.8)]:
        a = pt(*a_vals)
        left = drop_polar_membership(TVM, a, bounded=True)
        padded = HermitianTuple(list(a) + [np.zeros((1, 1))])
        right = polar_membership(joint, padded, bounded=True)
        assert bool(left) == bool(right), a_vals


def test_drop_polar_requires_monic():
    with pytest.raises(ValueError):
        drop_polar_membership(TV, pt(0.0, 0.0))


def test_tv_dual_examples():
    assert bool(drop_polar_membership(TVM, pt(0.5, 0.5), bounded=True))
    assert not bool(drop_polar_membership(TVM, pt(1.2, 0.0), bounded=True))
    assert bool(drop_polar_membership(TVM, pt(0.0, 0.0), bounded=True))


def test_drop_polar_bounded_default_matches_bounded():
    """bounded=None decides boundedness of the TV drop itself (bounded), so
    it answers as bounded=True does, inside and outside the polar dual."""
    for c in [(0.0, -0.525), (0.9, 1.05)]:
        auto = drop_polar_membership(Spectrahedrop(tv_monic_lift()), pt(*c))
        fixed = drop_polar_membership(Spectrahedrop(tv_monic_lift()), pt(*c),
                                      bounded=True)
        assert auto.detail["isometry"] and auto.status is fixed.status
        assert auto.margin == fixed.margin
        assert auto.feasible == (tv_dual_boundary(*c) > 0)


def test_tv_dual_against_boundary_octic_spot():
    gen = rng(2)
    for _ in range(10):
        c = gen.uniform(-1.4, 1.4, size=2)
        q = tv_dual_boundary(*c)
        if abs(q) < 1e-2:
            continue
        got = bool(drop_polar_membership(TVM, pt(*c), bounded=True))
        assert got == (q > 0), (c, q)


# -- kept problems ------------------------------------------------------------

MEMO_TV = Spectrahedrop(tv_lift())
MEMO_TVM = Spectrahedrop(tv_monic_lift())


def _grid_point(kind, a, b, seed):
    """(a, b) as 1x1 matrices, or a I + S_1, b I + S_2 of size 2 with small
    real symmetric or complex Hermitian S_j."""
    if kind == "scalar":
        return pt(a, b)
    gen = rng(seed)
    return HermitianTuple([c * np.eye(2) + rand_hermitian(gen, 2, scale=0.3,
                                                          real=kind == "real2")
                           for c in (a, b)])


def _witness_arrays(res):
    if hasattr(res, "y_witness"):
        return [] if res.y_witness is None else list(res.y_witness)
    out = [] if res.choi is None else [res.choi.C]
    if res.certificate is not None:
        out += [res.certificate.V, res.certificate.S_square]
    return out


def _assert_same_answer(got, want):
    assert got.status is want.status
    assert repr(got.margin) == repr(want.margin)
    wg, ww = _witness_arrays(got), _witness_arrays(want)
    assert len(wg) == len(ww)
    assert all(np.array_equal(x, y) for x, y in zip(wg, ww))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["scalar", "real2", "complex2"]),
       st.floats(-1.3, 1.3), st.floats(-1.3, 1.3), st.integers(0, 10_000))
@example("scalar", 0.0, 0.0, 0)        # inside the drop and its polar
@example("scalar", 1.2, 1.2, 0)        # outside both
@example("real2", 0.1, -0.2, 1)
@example("complex2", 0.1, 0.2, 2)      # complex rhs: off the real path
@example("real2", 0.3, 0.1, 3)
def test_kept_drop_problems_match_fresh_drops(kind, a, b, seed):
    """Drops that keep their problems across queries answer exactly as a
    new drop per point does: status, margin and witness arrays."""
    x = _grid_point(kind, a, b, seed)
    _assert_same_answer(drop_membership(MEMO_TV, x),
                        drop_membership(Spectrahedrop(tv_lift()), x))
    _assert_same_answer(
        drop_polar_membership(MEMO_TVM, x, bounded=True),
        drop_polar_membership(Spectrahedrop(tv_monic_lift()), x, bounded=True))


def test_drop_queries_reuse_the_presolve():
    drop, monic = Spectrahedrop(tv_lift()), Spectrahedrop(tv_monic_lift())
    for query, points in ((lambda x: drop_membership(drop, x),
                           [pt(0.1, 0.2), pt(0.9, -0.4), pt(1.1, 0.3)]),
                          (lambda x: drop_polar_membership(monic, x, True),
                           [pt(0.1, 0.2), pt(1.2, 0.0), pt(0.0, 0.9)])):
        reused = [query(x).info["presolve_reused"] for x in points]
        assert reused == [False, True, True]


# -- monicize ----------------------------------------------------------------


def test_monicize_unchanged_when_monic():
    out = monicize(LA, [0.0])
    assert out.pencil.monic
    assert np.abs(out.pencil.x_coeffs[0] - LA.x_coeffs[0]).max() < 1e-12


def test_monicize_diag_scaling():
    pencil = LinearPencil(2.0 * np.eye(2), [np.diag([-1.0, 1.0])])
    out = monicize(pencil, [0.0])
    assert out.pencil.monic
    assert np.abs(out.pencil.x_coeffs[0] - np.diag([-0.5, 0.5])).max() < 1e-12


def test_monicize_rejects_boundary_point():
    with pytest.raises(ValueError):
        monicize(tv_lift(), [0.0, 0.0, 0.0])   # value I_3 (+) diag(1, 0)


def test_monicize_preserves_tv_projection():
    gen = rng(31)
    for _ in range(12):
        x = pt(*gen.uniform(-1.2, 1.2, size=2))
        a = drop_membership(TV, x).status
        b = drop_membership(TVM, x).status
        assert a == b


# -- explicit dual lifts ------------------------------------------------------


def test_polar_dual_lift_interval_cross_oracle():
    dual = polar_dual_lift(INTERVAL)
    gen = rng(7)
    for _ in range(10):
        x = pt(float(gen.uniform(-1.6, 1.6)))
        via = bool(drop_membership(dual, x))
        direct = bool(polar_membership(INTERVAL, x, bounded=True))
        assert via == direct
    for _ in range(6):
        x = HermitianTuple([rand_hermitian(gen, 2, scale=0.9)])
        assert bool(drop_membership(dual, x)) == \
            bool(polar_membership(INTERVAL, x, bounded=True))


def test_polar_dual_lift_padded_unbounded_case():
    # D = {X <= I} is unbounded; its dual is built from the padded tuple
    omega = HermitianTuple([np.array([[1.0]])])
    padded = HermitianTuple([np.diag([1.0, 0.0])])
    dual = polar_dual_lift(padded)
    gen = rng(9)
    for _ in range(10):
        x = pt(float(gen.uniform(-1.5, 1.5)))
        via = bool(drop_membership(dual, x))
        direct = bool(polar_membership(omega, x, bounded=False))
        assert via == direct
        # the dual of {X <= 1} is the interval [0, 1]
        assert via == (0.0 - 1e-9 <= float(x[0][0, 0].real) <= 1.0 + 1e-9)


def test_polar_dual_lift_contains_its_tuple():
    dual = polar_dual_lift(INTERVAL)
    assert bool(drop_membership(dual, INTERVAL))


def test_tv_dual_lift_cross_oracle():
    omega, gamma = monic_tuple(TVM.lift)
    dual = polar_dual_lift(omega, gamma)
    gen = rng(11)
    for _ in range(8):
        c = pt(*gen.uniform(-1.4, 1.4, size=2))
        via = bool(drop_membership(dual, c))
        direct = bool(drop_polar_membership(TVM, c, bounded=True))
        assert via == direct, c


# -- hulls --------------------------------------------------------------------


def test_hull_of_single_drop_matches_input():
    d1 = Spectrahedrop(interval_pencil(-1.0, 0.5))
    hull = hull_of_union([d1])
    gen = rng(15)
    for _ in range(8):
        x = pt(float(gen.uniform(-1.3, 1.3)))
        assert bool(drop_membership(hull, x)) == bool(drop_membership(d1, x))


def test_hull_of_interval_union():
    d1 = Spectrahedrop(interval_pencil(-1.0, 0.5))
    d2 = Spectrahedrop(interval_pencil(-0.5, 1.0))
    hull = hull_of_union([d1, d2])
    for v, expect in [(0.9, True), (-0.9, True), (1.1, False), (-1.1, False),
                      (0.0, True)]:
        assert bool(drop_membership(hull, pt(v))) == expect, v


def test_hull_contains_tv_and_square():
    square = Spectrahedrop(pencil_from_tuple(HermitianTuple(
        [np.diag([2.0, -2.0, 0.0, 0.0]), np.diag([0.0, 0.0, 2.0, -2.0])])))
    hull = hull_of_union([TVM, square])
    for p in [pt(0.45, 0.45), pt(0.0, 0.9), pt(0.9, 0.0), pt(-0.3, 0.2)]:
        assert bool(drop_membership(square, p)) or bool(drop_membership(TVM, p))
        assert bool(drop_membership(hull, p))
    assert not bool(drop_membership(hull, pt(1.3, 1.3)))


def test_hull_of_tiny_intervals():
    # 0 is interior to both, though neither holds a point of size 1e-3
    hull = hull_of_union([Spectrahedrop(interval_pencil(-1e-4, 1e-4)),
                          Spectrahedrop(interval_pencil(-2e-4, 5e-5))])
    for v, expect in [(-2.1e-4, False), (-1.9e-4, True), (0.0, True),
                      (0.9e-4, True), (1.1e-4, False)]:
        assert bool(drop_membership(hull, pt(v))) is expect, v


def test_interior_y_point_on_an_unbounded_slack():
    # L(0, y) = diag(y - 1, y + 1): the slack grows without bound along y,
    # and the lift point is a verified interior point, not the ray's
    # direction y = 1, where lambda_min is 0
    pencil = LinearPencil(np.diag([-1.0, 1.0]), [], [np.eye(2)])
    (y,) = spectra._interior_y_point(pencil)
    assert lambda_min(pencil.A0 + y * np.eye(2)) >= 1e-6


def test_interior_y_point_with_a_bounded_slack():
    # L(0, y) = I + diag(y_1, y_2, 0): the slack is at most 1, reached on
    # the unbounded face y_1, y_2 >= 0
    e = np.eye(3)
    pencil = LinearPencil(e, [], [np.diag(e[0]), np.diag(e[1])])
    y = spectra._interior_y_point(pencil)
    assert lambda_min(e + np.diag([*y, 0.0])) >= 1e-6


def test_polar_dual_lift_dependent_rows():
    omega, gamma = monic_tuple(TVM.lift)
    once = polar_dual_lift(omega, gamma)
    # a repeated annihilator repeats consistent rows: they are dropped
    twice = polar_dual_lift(omega, HermitianTuple(list(gamma) * 2))
    for c in [(0.0, 0.0), (0.5, 0.5), (1.2, 0.0), (-0.7, 0.9), (0.3, -1.1)]:
        a = drop_membership(once, pt(*c))
        b = drop_membership(twice, pt(*c))
        assert a.status is b.status, c
        assert abs(a.margin - b.margin) <= 1e-7, c
    # a repeated pencil tuple forces x_1 = x_3 and x_2 = x_4: two +- pairs
    doubled = polar_dual_lift(HermitianTuple(list(omega) * 2), gamma)
    assert doubled.lift.d == once.lift.d + 4
    assert bool(drop_membership(doubled, pt(0.5, 0.5, 0.5, 0.5)))
    assert not bool(drop_membership(doubled, pt(0.5, 0.5, 0.5, 0.2)))


def test_polar_dual_lift_repeated_omega_entry():
    """W_1 = W_2 forces A_1 = A_2, an equation on x alone, which the lift
    carries as two +-1x1 diagonal entries: points with A_1 = A_2 are members
    exactly when (A_1, A_3) is in the polar dual of the original tuple, and
    points with A_1 != A_2 are not."""
    omega, gamma = monic_tuple(TVM.lift)
    dual = polar_dual_lift(HermitianTuple([omega[0], *omega]), gamma)
    assert dual.lift.d == omega.dim + 2
    gen = rng(17)
    points = [pt(*c) for c in [(0.0, 0.0), (0.5, 0.5), (1.2, 0.0), (-0.7, 0.9),
                               (0.3, -1.1), (0.2, 0.3)]]
    points += [HermitianTuple([rand_hermitian(gen, 2, scale=0.4)
                               for _ in range(2)]) for _ in range(3)]
    for a in points:
        twin = HermitianTuple([a[0], *a])
        assert bool(drop_membership(dual, twin)) == \
            bool(drop_polar_membership(TVM, a, bounded=True))
        for shift in (0.2, -0.2):
            moved = HermitianTuple([a[0] + shift * np.eye(a.dim), *a])
            assert not bool(drop_membership(dual, moved))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(2, 3),
       st.sampled_from(["generic", "span", "repeat", "near"]), st.booleans(),
       st.booleans())
def test_polar_dual_lift_matches_cp_interpolation(seed, g, d, kind, annihilate,
                                                  real):
    """Membership in the lift is the unital cp interpolation Phi(W_j) = X_j,
    Phi(G_k) = 0 that polar_membership / drop_polar_membership decide
    directly, on systems of full and deficient rank: a G_k in the span of I
    and the W_j, a repeated W_1, and a near-copy G = W_1 + 1e-12 H, whose
    lift has the size of the exact copy's.  The state Phi = tr(rho .) with
    every tr(rho G_k) = 0 puts X_j = tr(rho W_j) I in the set; each point
    steps from there along a random direction, once along the equations the
    structure puts on x and once off them."""
    gen = rng(seed)
    rho = rand_psd(gen, d, real=real)
    rho /= np.trace(rho).real

    def centred(m):
        return m - np.trace(rho @ m).real * np.eye(d)

    omega = [rand_hermitian(gen, d, real=real) for _ in range(g)]
    gamma = [centred(rand_hermitian(gen, d, real=real))
             for _ in range(annihilate)]
    weights = gen.uniform(0.5, 1.5, size=g)
    if kind == "span":         # forces sum_j w_j X_j = sum_j w_j tr(rho W_j) I
        gamma.append(centred(sum(w * m for w, m in zip(weights, omega))))
    elif kind == "repeat":     # forces X_1 = X_2
        omega.insert(0, omega[0])
    elif kind == "near":       # forces X_1 = 0, up to rounding
        omega[0] = centred(omega[0])
        exact = polar_dual_lift(HermitianTuple(omega),
                                HermitianTuple(gamma + [omega[0]]))
        gamma.append(omega[0] + 1e-12 * rand_hermitian(gen, d, real=real))
    omega, gamma = HermitianTuple(omega), HermitianTuple(gamma, dim=d)
    dual = polar_dual_lift(omega, gamma)
    if kind == "near":
        assert (dual.lift.d, dual.lift.h) == (exact.lift.d, exact.lift.h)
    drop = Spectrahedrop(pencil_from_tuple(omega, gamma))
    for n in (1, 2):
        centre = [np.trace(rho @ w).real * np.eye(n) for w in omega]
        for t, on_equations in [(0.0, True), (0.3, True), (0.3, False),
                                (2.0, True), (2.0, False)]:
            step = [rand_hermitian(gen, n, real=real) for _ in omega]
            if on_equations and kind == "span":
                step[0] = step[0] - sum(
                    w * s for w, s in zip(weights, step)) / weights[0]
            elif on_equations and kind == "repeat":
                step[1] = step[0]
            elif on_equations and kind == "near":
                step[0] = np.zeros((n, n))
            x = HermitianTuple([c + t * s for c, s in zip(centre, step)])
            direct = drop_polar_membership(drop, x, bounded=True) \
                if gamma.g else polar_membership(omega, x, bounded=True)
            assert direct.status is not SolveStatus.ERROR
            if abs(direct.margin) > 1e-6:
                assert bool(drop_membership(dual, x)) == bool(direct), \
                    (n, t, on_equations, direct.margin)
