import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import freeconvex.sdp as S
from freeconvex.algebra import realify
from freeconvex.rand import rng, rand_hermitian, rand_unitary
from freeconvex.sdp import (HermitianProblem, ProblemBuilder, SolveStatus,
                            build_from_complex, solve, svec, smat,
                            svec_dim)


def entry_rows(builder, name, target, n, t=None):
    """Pin block `name` entrywise to target (- t*I when t is given)."""
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            if i == j:
                e[i, i] = 1.0
            else:
                e[i, j] = e[j, i] = 0.5
            free = {t: 1.0} if (t is not None and i == j) else {}
            builder.add_row({name: e}, free, target[i, j])


def rand_pd(gen, n):
    w = gen.standard_normal((n, n))
    return w @ w.T + np.eye(n)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 7), st.integers(0, 10_000))
def test_svec_smat_and_nt_operator(n, seed):
    gen = rng(seed)
    s = gen.standard_normal((n, n))
    s = s + s.T
    t = gen.standard_normal((n, n))
    t = t + t.T
    assert np.allclose(smat(svec(s), n), s)
    assert abs(svec(s) @ svec(t) - np.tensordot(s, t)) < 1e-9
    # the NT operator v -> svec(W smat(v) W), applied to a stack of svecs as
    # the Schur assembly does, against W (x) W on vec coordinates
    w = rand_pd(gen, n)
    mats = gen.standard_normal((4, n, n))
    mats = mats + mats.transpose(0, 2, 1)
    applied = w @ smat(np.array([svec(x) for x in mats]), n) @ w
    for x, out in zip(mats, applied):
        ref = (np.kron(w, w) @ x.ravel()).reshape(n, n)
        assert np.allclose(svec(out), svec(ref), atol=1e-8)


def _step_reference(x, dx):
    """sup { a <= 1 : X + a dX >= 0 } from the pencil eigenvalues of (dX, X)."""
    lam = sla.eigh(dx, x, eigvals_only=True)[0]
    return 1.0 if lam >= 0 else min(1.0, -1.0 / lam)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 7), st.integers(0, 10_000), st.floats(1e-3, 1e3))
def test_scaled_nt_step(n, seed, scale):
    gen = rng(seed)
    z, s = scale * rand_pd(gen, n), rand_pd(gen, n) / scale
    r, v = S._nt_scaling(z, s)
    w = r @ r.T
    rinv = np.linalg.inv(r)
    assert np.all(v > 0)
    assert np.allclose(w @ s @ w, z, rtol=1e-8, atol=1e-8 * np.abs(z).max())
    assert np.allclose(r.T @ s @ r, np.diag(v), atol=1e-8 * v.max())
    assert np.allclose(rinv @ z @ rinv.T, np.diag(v), atol=1e-8 * v.max())
    # step lengths in scaled coordinates against the generalized eigenproblem
    # in the original ones; a PSD direction has step 1
    for psd in (False, True):
        dz, ds = ((rand_pd(gen, n), rand_pd(gen, n)) if psd
                  else gen.standard_normal((2, n, n)))
        dz, ds = scale * (dz + dz.T), (ds + ds.T) / scale
        a_z = S._max_step(rinv @ dz @ rinv.T, v)
        a_s = S._max_step(r.T @ ds @ r, v)
        assert abs(a_z - _step_reference(z, dz)) < 1e-7
        assert abs(a_s - _step_reference(s, ds)) < 1e-7
        if psd:
            assert a_z == a_s == 1.0


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.integers(0, 8), st.integers(0, 10_000))
def test_schur_complement_matches_double_loop(sizes, m, seed):
    gen = rng(seed)
    A_parts = [gen.standard_normal((m, svec_dim(n))) for n in sizes]
    W = [rand_pd(gen, n) for n in sizes]
    M = S._schur([smat(Ab, n) for Ab, n in zip(A_parts, sizes)], W, m)
    ref = np.zeros((m, m))
    for Ab, w, n in zip(A_parts, W, sizes):
        for i in range(m):
            for j in range(m):
                ref[i, j] += np.tensordot(smat(Ab[i], n),
                                          w @ smat(Ab[j], n) @ w)
    assert M.shape == (m, m)
    assert np.allclose(M, ref, rtol=1e-10,
                       atol=1e-10 * np.abs(ref).max(initial=0.0))


def test_identity_slack():
    b = ProblemBuilder()
    b.add_block("Z", 2)
    t = b.add_free(1)[0]
    entry_rows(b, "Z", np.eye(2), 2, t)
    b.set_objective({}, {t: 1.0})
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    assert abs(sol.objective_value - 1.0) < 1e-6
    assert sol.info["attempts"] >= 1
    assert sol.info["iterations_total"] >= sol.iterations > 0


def _rank_deficient_free(objective):
    """Z 2x2 with u0 and u1 entering only as u0 + u1: A_free has rank 2 of 3
    and null space (1, -1, 0)."""
    b = ProblemBuilder()
    b.add_block("Z", 2)
    u = b.add_free(3)
    b.add_row({"Z": np.diag([1.0, 0.0])}, {u[0]: 1.0, u[1]: 1.0}, 1.0)
    b.add_row({"Z": np.diag([0.0, 1.0])}, {u[2]: 1.0}, 2.0)
    b.add_row({"Z": np.eye(2)}, {}, 1.0)
    b.set_objective({}, dict(zip(u, objective)))
    return b.build()


def test_free_objective_along_null_space_is_unbounded():
    problem = _rank_deficient_free((1.0, -1.0, 0.0))
    sol = solve(problem)
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.info["unbounded_objective"] and sol.objective_value == np.inf
    # the free ray moves no row and raises the objective
    assert np.abs(problem.A_free @ sol.free_values).max() < 1e-12
    assert problem.obj_free @ sol.free_values > 0


def test_free_objective_off_null_space_is_finite():
    # u0 + u1 = 1 - Z_11 is largest at Z_11 = 0
    problem = _rank_deficient_free((1.0, 1.0, 0.0))
    sol = solve(problem)
    assert sol.status is SolveStatus.FEASIBLE
    assert "unbounded_objective" not in sol.info
    assert abs(sol.objective_value - 1.0) < 1e-6
    assert sol.info["eq_resid"] <= 1e-7 and sol.info["eig_min"] >= -1e-8
    u = sol.free_values
    assert abs(u[0] + u[1] - 1.0) < 1e-6 and abs(u[2] - 1.0) < 1e-6


@pytest.mark.parametrize("n, rhs, margin", [(1, 1.0, 1.0), (1, -1.0, -1.0),
                                             (2, 2.0, 1.0), (2, -4.0, -2.0)])
def test_phase_one_rows_absorbed_by_slack(n, rhs, margin):
    # one row tr Z = rhs: the slack t takes the whole row, the blocks meet
    # zero rows, and t* = rhs / n
    b = ProblemBuilder()
    b.add_block("Z", n)
    b.add_row({"Z": np.eye(n)}, {}, rhs)
    sol = solve(b.build())
    assert sol.status is (SolveStatus.FEASIBLE if margin > 0
                          else SolveStatus.INFEASIBLE)
    assert abs(sol.margin - margin) < 1e-6
    if margin > 0:
        assert abs(np.trace(sol.witness["Z"]) - rhs) < 1e-7


def test_phase_one_rows_absorbed_by_free_columns():
    # every entry of Z is shifted by its own free variable: any PSD Z works
    # and the margin is unbounded
    b = ProblemBuilder()
    b.add_block("Z", 2)
    u = b.add_free(3)
    for k, (i, j) in enumerate([(0, 0), (1, 1), (0, 1)]):
        e = np.zeros((2, 2))
        e[i, j] = e[j, i] = 1.0 if i == j else 0.5
        b.add_row({"Z": e}, {u[k]: 1.0}, [5.0, -3.0, 7.0][k])
    problem = b.build()
    sol = solve(problem)
    assert sol.status is SolveStatus.FEASIBLE and sol.margin == np.inf
    z, uv = sol.witness["Z"], sol.free_values
    assert np.linalg.eigvalsh(z)[0] > 0
    assert abs(z[0, 0] + uv[0] - 5.0) < 1e-7
    assert abs(z[1, 1] + uv[1] + 3.0) < 1e-7
    assert abs(z[0, 1] + uv[2] - 7.0) < 1e-7


def test_tv_grid_attempts_per_solve():
    # about one init-scale attempt per solve on the TV-screen grids: every
    # 13th off-band point of the drop-membership and the drop-polar grid
    from freeconvex.corpus import (DUAL_GRID, MEMBER_GRID, dual_curve_distance,
                                   grid_points, scalar_tuple,
                                   screen_curve_distance, tv_dual_boundary,
                                   tv_lift, tv_monic_lift, tv_screen_value)
    from freeconvex.spectra import (Spectrahedrop, drop_membership,
                                    drop_polar_membership)

    tv = Spectrahedrop(tv_lift())
    tvm = Spectrahedrop(tv_monic_lift())
    grids = [
        (MEMBER_GRID, screen_curve_distance, tv_screen_value,
         lambda x: drop_membership(tv, x)),
        (DUAL_GRID, dual_curve_distance, tv_dual_boundary,
         lambda x: drop_polar_membership(tvm, x, bounded=True)),
    ]
    attempts, iterations = [], []
    for spec, distance, reference, decide in grids:
        xs = grid_points(spec)
        pts = [(a, c) for a in xs for c in xs
               if distance(a, c) > spec["band"]][::13]
        assert len(pts) >= 100
        attempts.append([])
        for a, c in pts:
            res = decide(scalar_tuple(a, c))
            assert bool(res) == (reference(a, c) > 0)
            attempts[-1].append(res.info["attempts"])
            iterations.append(res.info["iterations_total"])
    assert np.mean(attempts[0]) <= 1.05          # drop membership alone
    assert np.mean(attempts[0] + attempts[1]) <= 1.05
    assert np.mean(iterations) <= 12


def test_diagonal_slack_matches_min_eig():
    b = ProblemBuilder()
    b.add_block("Z", 2)
    t = b.add_free(1)[0]
    entry_rows(b, "Z", np.diag([1.0, 2.0]), 2, t)
    b.set_objective({}, {t: 1.0})
    sol = solve(b.build())
    assert abs(sol.objective_value - 1.0) < 1e-6


def test_trace_pair_infeasible():
    b = ProblemBuilder()
    b.add_block("Z", 2)
    b.add_row({"Z": np.eye(2)}, {}, 1.0)
    b.add_row({"Z": np.diag([1.0, -1.0])}, {}, 2.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.INFEASIBLE
    assert abs(sol.margin + 0.5) < 1e-6


def test_boundary_rescue():
    b = ProblemBuilder()
    b.add_block("Z", 2)
    b.add_row({"Z": np.eye(2)}, {}, 0.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    assert np.abs(sol.witness["Z"]).max() < 1e-7


def test_inconsistent_equalities():
    b = ProblemBuilder()
    b.add_block("Z", 1)
    b.add_row({"Z": np.eye(1)}, {}, 1.0)
    b.add_row({"Z": 2 * np.eye(1)}, {}, 1.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.margin == -np.inf


def test_unbounded_margin_yields_verified_witness():
    b = ProblemBuilder()
    b.add_block("Z", 2)
    b.add_row({"Z": np.diag([1.0, -1.0])}, {}, 0.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.margin == np.inf
    assert np.linalg.eigvalsh(sol.witness["Z"])[0] > 0


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_strictly_feasible_problems_solve(seed):
    gen = rng(seed)
    n = int(gen.integers(2, 6))
    m = int(gen.integers(1, n + 2))
    zstar = gen.standard_normal((n, n))
    zstar = zstar @ zstar.T + 0.5 * np.eye(n)
    b = ProblemBuilder()
    b.add_block("Z", n)
    for _ in range(m):
        f = gen.standard_normal((n, n))
        f = f + f.T
        b.add_row({"Z": f}, {}, float(np.tensordot(f, zstar)))
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    # independent witness verification at the documented tolerances
    assert sol.info["eq_resid"] <= 1e-6
    assert sol.info["eig_min"] >= -1e-6


def _status_of(rows, rhs, n):
    b = ProblemBuilder()
    b.add_block("Z", n)
    for f, c in zip(rows, rhs):
        b.add_row({"Z": f}, {}, c)
    return solve(b.build()).status


def test_row_scaling_invariance():
    gen = rng(42)
    n = 3
    zstar = rand_hermitian(gen, n, real=True).real
    zstar = zstar @ zstar + 0.3 * np.eye(n)
    rows = []
    for _ in range(3):
        f = gen.standard_normal((n, n))
        rows.append(f + f.T)
    rhs = [float(np.tensordot(f, zstar))for f in rows]
    base = _status_of(rows, rhs, n)
    for scales in ([0.1, 1.0, 10.0], [5.0, 0.2, 1.0]):
        scaled = [s * f for s, f in zip(scales, rows)]
        srhs = [s * c for s, c in zip(scales, rhs)]
        assert _status_of(scaled, srhs, n) is base
    # and for an infeasible system
    rows = [np.eye(2), np.diag([1.0, -1.0])]
    rhs = [1.0, 2.0]
    base = _status_of(rows, rhs, 2)
    assert base is SolveStatus.INFEASIBLE
    for scales in ([0.1, 10.0], [10.0, 0.1]):
        scaled = [s * f for s, f in zip(scales, rows)]
        srhs = [s * c for s, c in zip(scales, rhs)]
        assert _status_of(scaled, srhs, 2) is base


def test_orthogonal_conjugation_invariance():
    gen = rng(5)
    n = 3
    q = rand_unitary(gen, n, real=True).real
    for expect_feasible in (True, False):
        rows = []
        if expect_feasible:
            zstar = rand_hermitian(gen, n, real=True).real
            zstar = zstar @ zstar + 0.2 * np.eye(n)
            for _ in range(3):
                f = gen.standard_normal((n, n))
                f = f + f.T
                rows.append((f, float(np.tensordot(f, zstar))))
        else:
            rows = [(np.eye(n), -1.0)]
        base = _status_of([f for f, _ in rows], [c for _, c in rows], n)
        conj = _status_of([q.T @ f @ q for f, _ in rows],
                          [c for _, c in rows], n)
        assert conj is base


def test_build_from_complex_doubles_real_data():
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    hp.add_scalar_row({"Z": np.eye(2)}, {}, 1.0)
    p = build_from_complex(hp)
    assert p.blocks == (("Z", 4),)
    # the smart path keeps the real size
    p2, dec = hp.build()
    assert p2.blocks == (("Z", 2),) and dec.real_path
    # and both decide the same feasibility with the same margin
    a = S.solve(p)
    b = S.solve(p2)
    assert a.status is b.status
    assert abs(a.margin - b.margin) < 1e-6


def test_complex_cross_check_with_direct_formulation():
    # genuinely complex data: forced realification agrees with the smart path
    sy = np.array([[0, -1j], [1j, 0]])
    for val, expect in ((0.5, SolveStatus.FEASIBLE),
                        (1.5, SolveStatus.INFEASIBLE)):
        hp = HermitianProblem()
        hp.add_block("C", 2)
        hp.add_scalar_row({"C": np.eye(2)}, {}, 1.0)
        hp.add_scalar_row({"C": sy}, {}, val)
        problem, dec = hp.build()
        assert not dec.real_path
        forced = build_from_complex(hp)
        a = S.solve(problem)
        b = S.solve(forced)
        assert a.status is b.status is expect
        assert abs(a.margin - b.margin) < 1e-6


def test_complex_scalar_block():
    hp = HermitianProblem()
    hp.add_block("z", 1)
    hp.add_scalar_row({"z": np.eye(1)}, {}, 1.0)
    sol = hp.solve()
    assert sol.feasible
    assert abs(sol.block("z")[0, 0] - 1.0) < 1e-7


def test_feasible_witness_contract():
    # every FEASIBLE answer satisfies the documented witness invariants,
    # re-checked here outside the solver
    gen = rng(17)
    for _ in range(10):
        n = int(gen.integers(2, 5))
        zstar = gen.standard_normal((n, n))
        zstar = zstar @ zstar.T + 0.1 * np.eye(n)
        b = ProblemBuilder()
        b.add_block("Z", n)
        for _ in range(int(gen.integers(1, n))):
            f = gen.standard_normal((n, n))
            f = f + f.T
            b.add_row({"Z": f}, {}, float(np.tensordot(f, zstar)))
        problem = b.build()
        sol = solve(problem)
        assert sol.status is SolveStatus.FEASIBLE
        z = sol.witness["Z"]
        resid = np.abs(problem.A_blocks[0] @ svec(z) - problem.rhs).max()
        assert resid <= 1e-6
        assert np.linalg.eigvalsh(z)[0] >= -1e-6


def test_resolve_counts_both_solves():
    from freeconvex.corpus import interval_tuple, scalar_tuple
    from freeconvex.cp import InterpolationMode, interpolation_problem
    from freeconvex.spectra import polar_membership

    # 1 is on the boundary of the interval's polar dual: the first solve
    # lands in the marginal band and the answer comes from the 1e-11 re-solve
    omega, x = interval_tuple(-1.0, 1.0), scalar_tuple(1.0)
    res = polar_membership(omega, x, bounded=True)
    assert res.status is SolveStatus.FEASIBLE
    second = interpolation_problem(omega, x, InterpolationMode.UNITAL).solve(
        tol=1e-11, max_iter=300)
    assert "resolves" not in second.info
    assert res.info["resolves"] == 1
    assert res.info["attempts"] >= 1 + second.info["attempts"]
    assert res.info["iterations_total"] > second.info["iterations_total"]


def _decision_results(status):
    from freeconvex.cp import InterpolationMode, InterpolationResult
    from freeconvex.possatz import CertificateSearch
    from freeconvex.spectra import DominationResult, DropMembership
    from freeconvex.tracial import HullMembership, TracialMembership

    return [InterpolationResult(status, InterpolationMode.CP),
            DominationResult(status, True), DropMembership(status),
            TracialMembership(status), HullMembership(status, []),
            CertificateSearch(status)]


@pytest.mark.parametrize("status", list(SolveStatus), ids=lambda s: s.value)
def test_decision_truth_values(status):
    for res in _decision_results(status):
        assert isinstance(res, S.Decision)
        assert res.feasible is (status is SolveStatus.FEASIBLE)
        if status is SolveStatus.FEASIBLE:
            assert bool(res) is True
        elif status is SolveStatus.INFEASIBLE:
            assert bool(res) is False
        else:
            with pytest.raises(ValueError, match="not a yes/no answer"):
                bool(res)
