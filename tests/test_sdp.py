import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import freeconvex.sdp as S
from freeconvex.algebra import realify
from freeconvex.rand import rng, rand_complex, rand_hermitian, rand_unitary
from freeconvex.sdp import (FEAS_TOL, HermitianProblem, ProblemBuilder,
                            SolveStatus, build_from_complex, hmat, hvec,
                            solve, svec, smat, svec_dim)


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


def rand_pd(gen, n, herm=False):
    w = rand_complex(gen, n, n) if herm else gen.standard_normal((n, n))
    return w @ w.conj().T + np.eye(n)


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


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 7), st.integers(0, 10_000))
def test_hvec_hmat(n, seed):
    """hvec and hmat invert each other, on single matrices and on stacks,
    and hvec(H).hvec(K) = Re tr(H K) for Hermitian H, K."""
    gen = rng(seed)
    h, k = rand_hermitian(gen, n), rand_hermitian(gen, n)
    assert hvec(h).shape == (n * n,)
    assert np.allclose(hmat(hvec(h), n), h, rtol=0, atol=1e-12)
    assert abs(hvec(h) @ hvec(k) - np.trace(h @ k).real) < 1e-9
    v = gen.standard_normal((3, n * n))
    assert np.allclose(hvec(hmat(v, n)), v, rtol=0, atol=1e-12)
    # a real symmetric matrix has the svec of its real part, then zeros
    sym = h.real
    assert np.array_equal(hvec(sym), np.concatenate(
        [svec(sym), np.zeros(n * (n - 1) // 2)]))


def _step_reference(x, dx):
    """sup { a <= 1 : X + a dX >= 0 } from the pencil eigenvalues of (dX, X)."""
    lam = sla.eigh(dx, x, eigvals_only=True)[0]
    return 1.0 if lam >= 0 else min(1.0, -1.0 / lam)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 7), st.integers(0, 10_000), st.floats(1e-3, 1e3),
       st.booleans())
def test_scaled_nt_step(n, seed, scale, herm):
    gen = rng(seed)
    z, s = scale * rand_pd(gen, n, herm), rand_pd(gen, n, herm) / scale
    r, v = S._nt_scaling(z, s)
    rh = r.conj().T
    w = r @ rh
    rinv = np.linalg.inv(r)
    assert r.dtype == z.dtype and v.dtype == float
    assert np.all(v > 0)
    assert np.allclose(w @ s @ w, z, rtol=1e-8, atol=1e-8 * np.abs(z).max())
    assert np.allclose(rh @ s @ r, np.diag(v), atol=1e-8 * v.max())
    assert np.allclose(rinv @ z @ rinv.conj().T, np.diag(v), atol=1e-8 * v.max())
    # step lengths in scaled coordinates against the generalized eigenproblem
    # in the original ones; a PSD direction has step 1
    for psd in (False, True):
        dz, ds = ((rand_pd(gen, n, herm), rand_pd(gen, n, herm)) if psd
                  else gen.standard_normal((2, n, n))
                  + (1j * gen.standard_normal((2, n, n)) if herm else 0))
        dz = scale * (dz + dz.conj().T)
        ds = (ds + ds.conj().T) / scale
        a_z, a_s = S._max_steps(np.stack([rinv @ dz @ rinv.conj().T,
                                          rh @ ds @ r]), v)
        assert abs(a_z - _step_reference(z, dz)) < 1e-7
        assert abs(a_s - _step_reference(s, ds)) < 1e-7
        if psd:
            assert a_z == a_s == 1.0


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1,
                max_size=3),
       st.integers(0, 8), st.integers(0, 10_000))
def test_schur_complement_matches_double_loop(blocks, m, seed):
    """Real symmetric and complex Hermitian blocks, mixed: M_ij is the sum
    of Re tr(A_i W A_j W) over the blocks."""
    gen = rng(seed)
    A_mats = [hmat(gen.standard_normal((m, n * n)), n) if herm
              else smat(gen.standard_normal((m, svec_dim(n))), n)
              for n, herm in blocks]
    # any square factor R, not only a Hermitian one, gives W = R R*
    R = [rand_complex(gen, n, n) if herm else gen.standard_normal((n, n))
         for n, herm in blocks]
    work = [(np.empty_like(F), np.empty_like(F)) for F in A_mats]
    M = S._schur(A_mats, R, work, m)
    ref = np.zeros((m, m))
    for F, r in zip(A_mats, R):
        w = r @ r.conj().T
        for i in range(m):
            for j in range(m):
                ref[i, j] += np.trace(F[i] @ w @ F[j] @ w).real
    assert np.array_equal(M, M.T)
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
    # one IPM run per solve on the TV-screen grids (no off-band point needs
    # the 1e-11 re-solve): every 13th off-band point of the drop-membership
    # and the drop-polar grid
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
    assert np.mean(attempts[0]) == 1             # drop membership alone
    assert np.mean(attempts[0] + attempts[1]) == 1
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


@pytest.mark.parametrize("force", [False, True], ids=["real", "realified"])
def test_zero_row_with_nonzero_rhs_is_inconsistent(force):
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    hp.add_scalar_row({"Z": np.eye(2)}, {}, 1.0)
    hp.add_scalar_row({"Z": np.zeros((2, 2))}, {}, 1.0)
    sol = hp.solve(force_realify=force)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.info["reason"] == "inconsistent equalities"


def _qr_rule_keep(A, b):
    """The kept rows by the rule of an explicit pivoted QR of the scaled
    rows' transpose."""
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    scale[scale == 0] = 1.0
    _, r, piv = sla.qr((A / scale[:, None]).T, mode="economic", pivoting=True)
    return np.sort(piv[:S._numerical_rank(r)])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 6),
       st.lists(st.sampled_from(["zero", "dup", "comb", "big", "small"]),
                min_size=1, max_size=6),
       st.integers(0, 10_000))
def test_row_factorization_matches_lstsq(n, nf, k, extra, seed):
    """The factored rows keep the rows of the explicit-QR rule, give the
    least-norm correction of lstsq, and see a dependent row's rhs moved by
    1e-6 of its scale."""
    gen = rng(seed)
    d = n * (n + 1) // 2
    base = gen.standard_normal((min(k, d + nf), d + nf))
    rows = list(base)
    for kind in extra:
        i, j = gen.integers(len(base), size=2)
        rows.append({"zero": np.zeros(d + nf), "dup": base[i],
                     "comb": gen.standard_normal() * base[i]
                     + gen.standard_normal() * base[j],
                     "big": 1e6 * base[i], "small": 1e-6 * base[i]}[kind])
    rows = np.array(rows)[gen.permutation(len(rows))]
    x_star = gen.standard_normal(d + nf)
    rhs = rows @ x_star

    def problem(b):
        return S.SDPProblem((("Z", n),), nf, (rows[:, :d],), rows[:, d:], b)

    fact = S._Rows(problem(rhs))
    assert fact.consistent
    assert np.array_equal(fact.keep, _qr_rule_keep(rows, rhs))
    # lstsq on the rows divided by their sup-norms has the same least-norm
    # solution as on the raw rows, without their 1e12 spread of scales
    scale = np.abs(rows).max(axis=1)
    scale[scale == 0] = 1.0
    res = rhs - rows @ gen.standard_normal(d + nf)
    want = np.linalg.lstsq(rows / scale[:, None], res / scale, rcond=None)[0]
    got = fact.correction(res)
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    i = int(np.setdiff1d(np.arange(len(rows)), fact.keep)[0])
    moved = rhs.copy()
    moved[i] += 1e-6 * max(scale[i], abs(rhs[i]))
    assert not S._Rows(problem(moved)).consistent


@pytest.mark.parametrize("rhs, status", [(1.0, SolveStatus.INFEASIBLE),
                                         (0.0, SolveStatus.FEASIBLE)])
def test_rows_without_variables(rhs, status, capfd):
    # 0 = rhs on a problem with no variables at all: no factorization runs,
    # so LAPACK prints nothing, and the rhs alone decides
    b = ProblemBuilder()
    b.add_row({}, {}, rhs)
    assert solve(b.build()).status is status
    assert capfd.readouterr().err == ""


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 10_000))
def test_native_hermitian_matches_realified(n, feasible, seed):
    """Random complex feasibility problems: the native Hermitian blocks and
    the realified 2n x 2n blocks decide the same status, and a FEASIBLE
    witness meets the rows and is PSD.  The two runs take different central
    paths and stop at the residual floor 1e-7, where a margin is accurate to
    about 1e-6 (1 + |t*|) on either path, so the margins are compared at
    100 FEAS_TOL (1 + |t*|), not at the width of the MARGINAL band."""
    gen = rng(seed)
    z0 = rand_pd(gen, n, herm=True) - 0.7 * np.eye(n)
    rows = [rand_hermitian(gen, n) for _ in range(int(gen.integers(1, n * n)))]
    if not feasible:
        # v* Z v = -1/2 has no PSD solution
        v = rand_complex(gen, n, 1)
        v /= np.linalg.norm(v)
        z0 -= (float((v.conj().T @ z0 @ v).real[0, 0]) + 0.5) * (v @ v.conj().T)
        rows.append(v @ v.conj().T)
    hp = HermitianProblem()
    hp.add_block("Z", n)
    for h in rows:
        hp.add_scalar_row({"Z": h}, {}, float(np.trace(h @ z0).real))
    # one complex row tr(F* Z) = tr(F* Z0), split into two real ones
    f = rand_complex(gen, n, n)
    hp.add_complex_row({"Z": f}, {}, complex(np.trace(f.conj().T @ z0)))
    problem, dec = hp.build()
    assert problem.hermitian == (True,) and not dec.real_path
    native, realified = hp.solve(), hp.solve(force_realify=True)
    assert native.status is realified.status
    if not feasible:
        assert native.status is SolveStatus.INFEASIBLE
    if abs(native.margin) == np.inf or abs(realified.margin) == np.inf:
        assert native.margin == realified.margin
    else:
        assert abs(native.margin - realified.margin) <= \
            100 * FEAS_TOL * (1.0 + abs(realified.margin))
    if native.feasible:
        z = native.block("Z")
        assert np.abs(z - z.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(z)[0] >= -1e-8
        resid = [np.trace(h @ z).real - np.trace(h @ z0).real for h in rows]
        resid.append(np.trace(f.conj().T @ (z - z0)))
        assert np.abs(resid).max() <= 1e-6 * max(1.0, np.abs(z0).max())


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


def _solve_rows(rows, rhs, n):
    b = ProblemBuilder()
    b.add_block("Z", n)
    for f, c in zip(rows, rhs):
        b.add_row({"Z": f}, {}, c)
    return solve(b.build())


def _status_of(rows, rhs, n):
    return _solve_rows(rows, rhs, n).status


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
    feasible = (rows, rhs, n)
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
    # the whole rhs times beta scales the solution set, so t* scales by beta
    for rows, rhs, n in (feasible, (rows, rhs, 2)):
        ref = _solve_rows(rows, rhs, n)
        for beta in (1e-6, 1e-4, 1e4, 1e6):
            sol = _solve_rows(rows, [beta * c for c in rhs], n)
            assert sol.status is ref.status
            assert abs(sol.margin - beta * ref.margin) <= \
                1e-6 * beta * abs(ref.margin)


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


def _ref_entry_coeffs(fh, i, j):
    """Complex coefficients of Y_ij over fh's real variables, from the
    documented layout (diagonal, then (Re, Im) pairs row-major for i < j)."""
    if i == j:
        return {fh.start + i: 1.0 + 0j}
    lo, hi, n = min(i, j), max(i, j), fh.size
    re = fh.start + n + 2 * ((2 * n - lo - 1) * lo // 2 + (hi - lo - 1))
    return {re: 1.0 + 0j, re + 1: (-1j if i > j else 1j)}


def _ref_entry(sizes, terms, r, s):
    """Data of entry (r, s) of a matrix equality: one np.kron or one-entry
    matrix per term, free coefficients accumulated per variable."""
    bt, ft = {}, {}
    for term, *t in terms:
        if term == "apply":
            e = np.zeros((t[2], t[2]))
            e[r, s] = 1.0
            bt[t[0]] = bt.get(t[0], 0) + np.kron(np.conj(t[1]), e)
        elif term == "entry":
            f = np.zeros((sizes[t[0]],) * 2, complex)
            f[r, s] = t[1]
            bt[t[0]] = bt.get(t[0], 0) + f
        elif term == "blocktrace":
            e = np.zeros((sizes[t[0]] // t[1],) * 2)
            e[r, s] = 1.0
            bt[t[0]] = bt.get(t[0], 0) + t[2] * np.kron(e, np.eye(t[1]))
        elif term == "kron_block":
            k = sizes[t[1]]
            if t[0][r // k, s // k] != 0:
                f = np.zeros((k, k), complex)
                f[r % k, s % k] = np.conj(t[0][r // k, s // k])
                bt[t[1]] = bt.get(t[1], 0) + f
        elif term == "kron":
            k = t[1].size
            c = t[0][r // k, s // k]
            for idx, v in _ref_entry_coeffs(t[1], r % k, s % k).items():
                if c != 0:
                    ft[idx] = ft.get(idx, 0.0) + c * v
        elif term == "kron_scalar" and t[0][r, s] != 0:
            ft[t[1]] = ft.get(t[1], 0.0) + t[0][r, s]
    return bt, ft


def _ref_rows(sizes, calls):
    """Reference expansion: a dict row per entry (r, s), each split into a
    real and an imaginary row."""
    rows = []

    def split(bt, ft, val):
        for part, take in ((0, np.real), (1, np.imag)):
            data = {n: (0.5 * (f + f.conj().T), 0.5j * (f - f.conj().T))[part]
                    for n, f in bt.items()}
            free = {i: complex(take(c)) for i, c in ft.items() if take(c) != 0}
            if any(np.abs(h).max() > 0 for h in data.values()) or free or take(val):
                rows.append((data, free, float(take(val))))
    for kind, *a in calls:
        if kind == "scalar":
            rows.append(({n: np.asarray(h, complex) for n, h in a[0].items()},
                         {i: complex(c) for i, c in a[1].items()}, float(a[2])))
        elif kind == "complex":
            split({n: np.asarray(f, complex) for n, f in a[0].items()},
                  {i: complex(c) for i, c in a[1].items()}, complex(a[2]))
        else:
            terms, rhs = a
            for r in range(len(rhs)):
                for s in range(r, len(rhs)):
                    split(*_ref_entry(sizes, terms, r, s), complex(rhs[r, s]))
    return rows


def _ref_build(blocks, n_free, imag, rows, force_realify):
    """Reference build through ProblemBuilder, one dict per row."""
    def is_real():
        for bt, ft, rhs in rows:
            im = max([np.abs(h.imag).max() for h in bt.values()] + [0.0])
            re = max([np.abs(h.real).max() for h in bt.values()] + [0.0])
            if not ((im <= 1e-13 and not set(ft) & imag) or
                    (re <= 1e-13 and abs(rhs) <= 1e-12 and set(ft) <= imag)):
                return False
        return True
    real = not force_realify and is_real()
    kept = sorted(set(range(n_free)) - imag) if real else list(range(n_free))
    vmap = {v: k for k, v in enumerate(kept)}
    pb = ProblemBuilder()
    for name, sz in blocks:
        pb.add_block(name, sz if real else 2 * sz)
    pb.add_free(len(kept))
    for bt, ft, rhs in rows:
        if real:
            data = {n: h.real for n, h in bt.items() if np.abs(h.real).max() > 0}
            free = {vmap[i]: c.real for i, c in ft.items()
                    if i in vmap and c.real != 0}
            if data or free or abs(rhs) > 1e-12:
                pb.add_row(data, free, rhs)
        else:
            pb.add_row({n: 0.5 * realify(h) for n, h in bt.items()},
                       {vmap[i]: c.real for i, c in ft.items()}, rhs)
    return pb.build(), kept, real


_TERM_KINDS = ("apply", "entry", "blocktrace", "kron", "kron_block",
               "kron_scalar")


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 4]), st.booleans(),
       st.lists(st.one_of(st.sets(st.sampled_from(_TERM_KINDS), min_size=1),
                          st.sampled_from(["complex", "scalar"])),
                min_size=1, max_size=4),
       st.integers(0, 10_000))
def test_hermitian_rows_match_entrywise_reference(d, real, calls, seed):
    """The array-built rows of HermitianProblem equal, entry for entry, the
    per-(r, s) expansion on the real and the realified build; on the native
    Hermitian build, row i read off hvec(C) is Re tr(H_i C) of the
    expansion's H_i."""
    gen = rng(seed)

    def mat(*shape, mask=True):
        x = gen.standard_normal(shape)
        if not real:
            x = x + 1j * gen.standard_normal(shape)
        return x * (gen.random(shape) < 0.7) if mask else x

    hp = HermitianProblem()
    sizes = {"P": d, "C": 2 * d, "K": d // 2}
    for name, n in sizes.items():
        hp.add_block(name, n)
    frees = list(hp.add_free(2))
    fh = hp.add_free_hermitian("Y", d // 2)
    made = []
    for call in calls:
        if call == "scalar":
            h = mat(d, d, mask=False)
            made.append(("scalar", {"P": 0.5 * (h + h.conj().T)},
                         {frees[-1]: float(gen.standard_normal())},
                         float(gen.standard_normal())))
        elif call == "complex":
            made.append(("complex", {"P": mat(d, d), "C": mat(2 * d, 2 * d)},
                         {frees[0]: complex(mat(1)[0])}, complex(mat(1)[0])))
        else:
            term = {"apply": ("apply", "C", mat(2, 2), d),
                    "entry": ("entry", "P", complex(mat(1)[0])),
                    "blocktrace": ("blocktrace", "C", 2, complex(mat(1)[0])),
                    "kron": ("kron", mat(2, 2), fh),
                    "kron_block": ("kron_block", mat(2, 2), "K"),
                    "kron_scalar": ("kron_scalar", mat(d, d), frees[-1])}
            made.append(("eq", [term[k] for k in sorted(call)], mat(d, d)))
        {"scalar": hp.add_scalar_row, "complex": hp.add_complex_row,
         "eq": hp.add_matrix_eq}[made[-1][0]](*made[-1][1:])
        if len(frees) == 2:          # a free added after the first rows
            frees += list(hp.add_free(1))
    rows = _ref_rows(sizes, made)
    k = d // 2
    imag = {fh.start + k + 2 * i + 1 for i in range(k * (k - 1) // 2)}
    for force in (False, True):
        problem, dec = hp.build(force_realify=force)
        ref, kept, real_path = _ref_build(list(sizes.items()), hp._n_free,
                                          imag, rows, force)
        assert problem.n_free == ref.n_free
        assert dec.real_path == real_path and list(dec.kept_vars) == kept
        assert np.array_equal(problem.A_free, ref.A_free)
        assert np.array_equal(problem.rhs, ref.rhs)
        if real and not force:
            assert real_path
        if force or real_path:
            assert problem.blocks == ref.blocks and problem.hermitian == ()
            for got, want in zip(problem.A_blocks, ref.A_blocks):
                assert np.array_equal(got, want)
            continue
        assert problem.blocks == tuple(sizes.items())
        assert problem.hermitian == (True,) * len(sizes)
        cs = {name: rand_hermitian(gen, n) for name, n in sizes.items()}
        got = sum(Ab @ hvec(cs[name])
                  for (name, _), Ab in zip(problem.blocks, problem.A_blocks))
        want = np.array([sum(np.trace(h @ cs[name]).real for name, h in bt.items())
                         for bt, _, _ in rows])
        assert np.allclose(got, want, rtol=0,
                           atol=1e-12 * max(1.0, np.abs(want).max(initial=0.0)))


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
    # the re-solve lands in the band too; the witness rescue decides
    assert res.info["rescued"] is True
    assert res.info["eq_resid"] <= 1e-7 and res.info["eig_min"] >= -1e-8
    second = interpolation_problem(omega, x, InterpolationMode.UNITAL).solve(
        tol=1e-11, max_iter=300)
    assert "resolves" not in second.info
    assert res.info["resolves"] == 1
    assert res.info["attempts"] >= 1 + second.info["attempts"]
    assert res.info["iterations_total"] > second.info["iterations_total"]


def test_rows_factored_once_per_solve(monkeypatch):
    from freeconvex.corpus import interval_tuple, scalar_tuple
    from freeconvex.spectra import polar_membership

    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq called")

    calls = {"dgeqp3": 0, "solve_feasibility": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(S.lapack, "dgeqp3", counted("dgeqp3", S.lapack.dgeqp3))
    monkeypatch.setattr(S, "solve_feasibility",
                        counted("solve_feasibility", S.solve_feasibility))
    # the instance of test_resolve_counts_both_solves: re-solve and rescue
    res = polar_membership(interval_tuple(-1.0, 1.0), scalar_tuple(1.0),
                           bounded=True)
    assert res.status is SolveStatus.FEASIBLE
    assert res.info["resolves"] == 1 and res.info["rescued"] is True
    assert calls == {"dgeqp3": 1, "solve_feasibility": 1}


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
