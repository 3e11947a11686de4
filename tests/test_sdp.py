import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

import freeconvex.sdp as S
from freeconvex.algebra import realify
from freeconvex.rand import rng, rand_complex, rand_hermitian, rand_unitary
from freeconvex.sdp import (FEAS_TOL, HermitianProblem, SolveStatus,
                            build_from_complex, hmat, hvec, solve, svec, smat,
                            svec_dim)


def entry_rows(builder, name, target, n):
    """Pin block `name` entrywise to target."""
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            if i == j:
                e[i, i] = 1.0
            else:
                e[i, j] = e[j, i] = 0.5
            builder.add_scalar_row({name: e}, target[i, j])


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
        a_z = S._max_steps(rinv @ dz @ rinv.conj().T, v ** -0.5)
        a_s = S._max_steps(rh @ ds @ r, v ** -0.5)
        assert abs(a_z - _step_reference(z, dz)) < 1e-7
        assert abs(a_s - _step_reference(s, ds)) < 1e-7
        if psd:
            assert a_z == a_s == 1.0


def _hermitian(gen, n, herm):
    x = gen.standard_normal((n, n)) + (1j * gen.standard_normal((n, n)) if herm
                                       else 0)
    return x + x.conj().T


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.booleans(), st.integers(0, 10_000))
def test_step_length_kernel(n, herm, seed):
    """_max_steps in NT-scaled coordinates against the generalized
    eigenproblem in the original ones, on real and complex blocks: the
    predictor's pair of steps from the eigenvalues of dS~ alone equals the
    two steps of two eigenproblems, and a PSD direction steps exactly 1."""
    gen = rng(seed)
    z, s = rand_pd(gen, n, herm), rand_pd(gen, n, herm)
    r, v = S._nt_scaling(z, s)
    rh, h = r.conj().T, v ** -0.5
    ds = _hermitian(gen, n, herm)
    dss = rh @ ds @ r                          # dS~ = R* dS R
    dzs = -np.diag(v) - dss                    # the predictor's dZ~ = -V - dS~
    a_s, a_z = S._max_steps(dss, h, pair=True)
    assert a_s == S._max_steps(dss, h)
    assert abs(a_z - S._max_steps(dzs, h)) <= 1e-12
    tol = 1e-9 * np.linalg.cond(z) * np.linalg.cond(s)
    assert abs(a_s - _step_reference(s, ds)) <= tol
    assert abs(a_z - _step_reference(z, r @ dzs @ rh)) <= tol
    psd = rand_pd(gen, n, herm)
    assert S._max_steps(rh @ psd @ r, h) == 1.0
    # dS~ = -V - R* P R makes the predictor's dZ~ the PSD direction R* P R
    assert S._max_steps(-np.diag(v) - rh @ psd @ r, h, pair=True)[1] == 1.0


@pytest.mark.parametrize("herm", [False, True])
def test_step_length_lapack_failure_is_an_error(herm, monkeypatch):
    """A nonzero info from the values-only eigensolver of the step length
    ends the solve in ERROR, not in an exception."""
    dtype = np.dtype(complex if herm else float)
    potrf, eig = S._NT_LAPACK[dtype]

    def failing(a, compute_v=1, lower=0):
        w, vecs, info = eig(a, compute_v=compute_v, lower=lower)
        return w, vecs, info if compute_v else 3

    monkeypatch.setitem(S._NT_LAPACK, dtype, (potrf, failing))
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    hp.add_scalar_row({"Z": np.eye(2)}, 1.0)
    if herm:
        hp.add_complex_row({"Z": np.array([[[0.0, 1.0j], [0.0, 0.0]]])},
                           [0.1])
    assert hp.build().herm == (herm,)
    sol = hp.solve()
    assert sol.status is SolveStatus.ERROR
    assert sol.info["reason"] == "step length eigenproblem failed"


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
    M = S._schur(A_mats, R, [None] * len(A_mats))
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
    # Z pinned to I: the phase-I margin is lambda_min(I) = 1
    b = HermitianProblem()
    b.add_block("Z", 2)
    entry_rows(b, "Z", np.eye(2), 2)
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    assert abs(sol.margin - 1.0) < 1e-6
    assert sol.info["attempts"] >= 1
    assert sol.info["iterations_total"] >= sol.iterations > 0


def _equal_diagonal():
    """Z 2x2 with tr Z = 1 and Z_00 = Z_11: Z = I/2 is the best, so the
    margin is 1/2."""
    b = HermitianProblem()
    b.add_block("Z", 2)
    b.add_scalar_row({"Z": np.eye(2)}, 1.0)
    b.add_scalar_row({"Z": np.diag([1.0, -1.0])}, 0.0)
    return b.build()


def test_replace_shares_the_presolve_only_for_the_same_operator():
    """A problem made by dataclasses.replace shares the memo: a new rhs
    reuses the presolve, new rows get a new one."""
    from dataclasses import replace

    problem = _equal_diagonal()
    first = solve(problem)
    assert first.info["presolve_reused"] is False
    assert abs(first.margin - 0.5) < 1e-6
    moved = solve(replace(problem, rhs=problem.rhs * 2))
    assert moved.info["presolve_reused"] is True
    assert abs(moved.margin - 1.0) < 1e-6
    doubled = solve(replace(problem, A_blocks=tuple(2 * Ab for Ab
                                                    in problem.A_blocks)))
    assert doubled.info["presolve_reused"] is False
    assert abs(doubled.margin - 0.25) < 1e-6


@pytest.mark.parametrize("n, rhs, margin", [(1, 1.0, 1.0), (1, -1.0, -1.0),
                                             (2, 2.0, 1.0), (2, -4.0, -2.0)])
def test_phase_one_rows_absorbed_by_slack(n, rhs, margin):
    # one row tr Z = rhs: the slack t takes the whole row, the blocks meet
    # zero rows, and t* = rhs / n
    b = HermitianProblem()
    b.add_block("Z", n)
    b.add_scalar_row({"Z": np.eye(n)}, rhs)
    sol = solve(b.build())
    assert sol.status is (SolveStatus.FEASIBLE if margin > 0
                          else SolveStatus.INFEASIBLE)
    assert abs(sol.margin - margin) < 1e-6
    if margin > 0:
        assert abs(np.trace(sol.witness["Z"]) - rhs) < 1e-7


def test_phase_one_traceless_rows():
    # Z_00 - Z_11 = 5 and Z_01 = 7 both annihilate I: Z + s I meets them for
    # every s, so any solution shifts into the cone and the margin is
    # unbounded
    b = HermitianProblem()
    b.add_block("Z", 2)
    b.add_scalar_row({"Z": np.diag([1.0, -1.0])}, 5.0)
    b.add_scalar_row({"Z": np.array([[0.0, 0.5], [0.5, 0.0]])}, 7.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE and sol.margin == np.inf
    z = sol.witness["Z"]
    assert np.linalg.eigvalsh(z)[0] > 0
    assert abs(z[0, 0] - z[1, 1] - 5.0) < 1e-7
    assert abs(z[0, 1] - 7.0) < 1e-7


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
    b = HermitianProblem()
    b.add_block("Z", 2)
    entry_rows(b, "Z", np.diag([1.0, 2.0]), 2)
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    assert abs(sol.margin - 1.0) < 1e-6


def test_trace_pair_infeasible():
    b = HermitianProblem()
    b.add_block("Z", 2)
    b.add_scalar_row({"Z": np.eye(2)}, 1.0)
    b.add_scalar_row({"Z": np.diag([1.0, -1.0])}, 2.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.INFEASIBLE
    assert abs(sol.margin + 0.5) < 1e-6


def test_boundary_rescue():
    b = HermitianProblem()
    b.add_block("Z", 2)
    b.add_scalar_row({"Z": np.eye(2)}, 0.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    assert np.abs(sol.witness["Z"]).max() < 1e-7


def test_inconsistent_equalities():
    b = HermitianProblem()
    b.add_block("Z", 1)
    b.add_scalar_row({"Z": np.eye(1)}, 1.0)
    b.add_scalar_row({"Z": 2 * np.eye(1)}, 1.0)
    sol = solve(b.build())
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.margin == -np.inf


@pytest.mark.parametrize("force", [False, True], ids=["real", "realified"])
def test_zero_row_with_nonzero_rhs_is_inconsistent(force):
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    hp.add_scalar_row({"Z": np.eye(2)}, 1.0)
    hp.add_scalar_row({"Z": np.zeros((2, 2))}, 1.0)
    sol = solve(build_from_complex(hp)) if force else hp.solve()
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.info["reason"] == "inconsistent equalities"


@pytest.mark.parametrize("native", [False, True], ids=["real", "native"])
@pytest.mark.parametrize("rhs", [1e-16, 1e-6])
def test_zero_row_drop_rule(native, rhs):
    """A row with zero data is dropped when |rhs| <= 1e-12, on both paths;
    kept, 0 = 1e-16 would be scaled to 0 = 1.  A larger rhs stays and makes
    the equalities inconsistent."""
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    hp.add_scalar_row({"Z": np.eye(2)}, 1.0)
    if native:                        # complex data: 2 Im Z_01 = 1/2
        hp.add_scalar_row({"Z": np.array([[0, 1j], [-1j, 0]])}, 0.5)
    hp.add_complex_row({"Z": np.zeros((1, 2, 2))}, [rhs])
    problem = hp.build()
    assert problem.hermitian == ((True,) if native else ())
    assert problem.m == 1 + native + (rhs > 1e-12)
    sol = hp.solve()
    if rhs > 1e-12:
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.info["reason"] == "inconsistent equalities"
    else:
        assert sol.status is SolveStatus.FEASIBLE


def _override_problem(off, zero=0.0, trace=1.0):
    """tr Z = trace, Z_10 = off and 0 = zero for a 2x2 block Z; returns the
    problem and its three group indices."""
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    groups = (hp.add_scalar_row({"Z": np.eye(2)}, trace),
              hp.add_complex_row({"Z": np.array([[[0, 0], [1, 0]]])},
                                 [off]),
              hp.add_complex_row({"Z": np.zeros((1, 2, 2))}, [zero]))
    return hp, groups


def _assert_same_solution(got, want):
    assert got.status is want.status
    assert repr(got.margin) == repr(want.margin)
    assert got.info.get("reason") == want.info.get("reason")
    assert got.witness.keys() == want.witness.keys()
    for name, z in want.witness.items():
        assert got.witness[name].dtype == z.dtype
        assert np.array_equal(got.witness[name], z)


def test_rhs_override_matches_fresh_problem():
    """Solving one problem for a sequence of rhs gives exactly the solutions
    of fresh problems built with them, across a change of the real path (an
    imaginary Z_10 leaves it: the witness turns complex) and of the kept
    rows; the presolve is reused only when neither changed."""
    hp, (trace, off, zero) = _override_problem(0.25)
    steps = [((0.25, 0.0, 1.0), False), ((0.3, 0.0, 1.0), True),
             ((0.25j, 0.0, 1.0), False), ((0.2j, 0.0, 2.0), True),
             ((0.2, 0.0, 1.0), False), ((0.2, 1.0, 1.0), False),
             ((0.2, 1.0, 1.0), False)]
    for (o, z, t), reused in steps:
        got = hp.solve(rhs={off: [o], zero: [z], trace: t})
        want = _override_problem(o, z, t)[0].solve()
        _assert_same_solution(got, want)
        assert got.info["presolve_reused"] is reused, (o, z, t)
        if got.feasible:
            assert got.witness["Z"].dtype == (complex if isinstance(o, complex)
                                              else float)
    # the stored rhs is untouched by the overrides
    _assert_same_solution(hp.solve(), _override_problem(0.25)[0].solve())


def test_zero_row_override():
    """The zero-row rule reads each solve's rhs: 0 = rhs overridden
    0 -> 1 -> 0 is dropped, kept and found inconsistent, then dropped."""
    hp, (_, _, zero) = _override_problem(0.25)
    assert hp.solve(rhs={zero: [0.0]}).status is SolveStatus.FEASIBLE
    sol = hp.solve(rhs={zero: [1.0]})
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.info["reason"] == "inconsistent equalities"
    assert hp.solve(rhs={zero: [0.0]}).status is SolveStatus.FEASIBLE


def test_realified_solve_keeps_the_native_presolve():
    """Solving ``build_from_complex(hp)`` after ``hp.solve()`` matches a fresh
    realified solve and leaves hp's kept presolve in place."""
    hp, (trace, off, _) = _override_problem(0.25j)
    assert hp.solve().info["presolve_reused"] is False
    assert hp.build().herm == (True,)              # a native Hermitian block
    realified = build_from_complex(hp)
    got = solve(realified)
    assert got.info["presolve_reused"] is False
    _assert_same_solution(got, solve(build_from_complex(
        _override_problem(0.25j)[0])))
    assert solve(realified).info["presolve_reused"] is True
    again = hp.solve(rhs={trace: 2.0, off: [0.5j]})
    assert again.info["presolve_reused"] is True
    _assert_same_solution(again, _override_problem(0.5j, trace=2.0)[0].solve())


def test_add_call_drops_the_kept_presolve():
    hp, (trace, _, _) = _override_problem(0.25)
    assert hp.solve().info["presolve_reused"] is False
    assert hp.solve(rhs={trace: 2.0}).info["presolve_reused"] is True
    hp.add_scalar_row({"Z": np.diag([1.0, -1.0])}, 0.0)
    sol = hp.solve()
    assert sol.info["presolve_reused"] is False
    assert abs(sol.witness["Z"][0, 0] - sol.witness["Z"][1, 1]) <= 1e-9
    assert hp.solve().info["presolve_reused"] is True


@pytest.mark.parametrize("n", [1, 2, 5])
def test_split_rows_are_the_full_matrix_products(n):
    """The split rows build reads, for a stack with signed zeros, are
    bitwise the upper triangles of 0.5 (F + F*) and 0.5i (F - F*) formed as
    full matrices, as the rows' pivoted QR reads the sign of a zero."""
    gen = rng(n)
    vals = np.array([-1.5, -0.0, 0.0, 2.0])
    f = gen.choice(vals, (6, n, n)) + 1j * gen.choice(vals, (6, n, n))
    f = f + gen.standard_normal(f.shape) * (gen.random(f.shape) < 0.3)
    iu, ju, _ = S._svec_idx(n)
    fh = f.conj().swapaxes(1, 2)
    full = np.stack([0.5 * (f + fh), 0.5j * (f - fh)], axis=1)
    assert S._split(f).tobytes() == full[:, :, iu, ju].tobytes()


def test_build_shares_read_only_rows():
    """Builds that keep the rows share them, read-only; each has its rhs."""
    hp, (trace, _, _) = _override_problem(0.25)
    first = hp.build()
    second = hp.build(rhs={trace: 2.0})
    assert second.A_blocks[0] is first.A_blocks[0]
    assert not first.A_blocks[0].flags.writeable
    assert (first.rhs[0], second.rhs[0]) == (1.0, 2.0)


def test_rhs_override_is_checked():
    hp, (trace, off, _) = _override_problem(0.25)
    eq = hp.add_matrix_eq([("entry", "Z", 1.0)], np.eye(2) / 2)
    assert eq == 3
    for group, values in [(trace, [1.0]), (off, [1.0, 2.0]), (off, 1.0),
                          (eq, np.eye(3)), (eq, np.ones(2))]:
        with pytest.raises(ValueError, match=f"row group {group} has shape"):
            hp.solve(rhs={group: values})
    with pytest.raises(ValueError, match=r"unknown row groups \[4\]"):
        hp.solve(rhs={4: 1.0})
    # a scalar row's rhs is real, as add_scalar_row takes it
    with pytest.raises(TypeError):
        hp.add_scalar_row({"Z": np.eye(2)}, 1j)
    for values in (1j, np.complex128(1.0)):
        with pytest.raises(ValueError, match=f"row group {trace} is not real"):
            hp.solve(rhs={trace: values})
    target = np.array([[0.25, 0.25], [0.25, 0.75]])
    sol = hp.solve(rhs={eq: target})
    assert sol.feasible
    assert np.abs(sol.witness["Z"] - target).max() <= 1e-7


def test_objective_data_is_checked():
    """Row data names known blocks: an unknown one is rejected."""
    hp = HermitianProblem()
    hp.add_block("Z", 2)
    hp.add_scalar_row({"Z": np.eye(2)}, 1.0)
    with pytest.raises(ValueError, match="unknown block 'W'"):
        hp.add_scalar_row({"W": np.eye(2)}, 1.0)


def _qr_rule_keep(A, b):
    """The kept rows by the rule of an explicit pivoted QR of the scaled
    rows' transpose."""
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    scale[scale == 0] = 1.0
    _, r, piv = sla.qr((A / scale[:, None]).T, mode="economic", pivoting=True)
    return np.sort(piv[:S._numerical_rank(r)])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 6),
       st.lists(st.sampled_from(["zero", "dup", "comb", "big", "small"]),
                min_size=1, max_size=6),
       st.integers(0, 10_000))
def test_row_factorization_matches_lstsq(n, n2, k, extra, seed):
    """The factored rows of one block, or of two (the second of size n2),
    keep the rows of the explicit-QR rule, give the least-norm correction
    (lstsq on the base rows), and see a dependent row's rhs moved by 1e-6
    of its scale."""
    gen = rng(seed)
    d, d2 = n * (n + 1) // 2, n2 * (n2 + 1) // 2
    base = gen.standard_normal((min(k, d + d2), d + d2))
    rows = list(base)
    for kind in extra:
        i, j = gen.integers(len(base), size=2)
        rows.append({"zero": np.zeros(d + d2), "dup": base[i],
                     "comb": gen.standard_normal() * base[i]
                     + gen.standard_normal() * base[j],
                     "big": 1e6 * base[i], "small": 1e-6 * base[i]}[kind])
    rows = np.array(rows)[gen.permutation(len(rows))]
    x_star = gen.standard_normal(d + d2)
    rhs = rows @ x_star

    def problem(b):
        if not n2:
            return S.SDPProblem((("Z", n),), (rows,), b)
        return S.SDPProblem((("Z", n), ("W", n2)), (rows[:, :d], rows[:, d:]), b)

    fact = S._Rows(problem(rhs))
    assert fact.consistent
    assert np.array_equal(fact.keep, _qr_rule_keep(rows, rhs))
    # res = rows @ v, so the least-norm solution is v projected onto the row
    # space of rows, which is that of the well-conditioned base. lstsq on
    # rows themselves is no reference: a "comb" row whose two coefficients
    # nearly cancel carries rounding noise far above eps times its norm,
    # and lstsq (rcond=None) keeps that noise as an extra rank.
    scale = np.abs(rows).max(axis=1)
    scale[scale == 0] = 1.0
    v = x_star - gen.standard_normal(d + d2)
    res = rows @ v
    want = np.linalg.lstsq(base, base @ v, rcond=None)[0]
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
    problem = S.SDPProblem((), (), np.array([rhs]))
    assert solve(problem).status is status
    assert capfd.readouterr().err == ""


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 10_000))
@example(4, True, 4011)        # the realified run stalls on the ray's residual
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
        hp.add_scalar_row({"Z": h}, float(np.trace(h @ z0).real))
    # one complex row tr(F* Z) = tr(F* Z0), split into two real ones
    f = rand_complex(gen, n, n)
    hp.add_complex_row({"Z": f[None]}, [np.trace(f.conj().T @ z0)])
    problem = hp.build()
    assert problem.hermitian == (True,)
    native, realified = hp.solve(), solve(build_from_complex(hp))
    assert native.status is realified.status
    if not feasible:
        assert native.status is SolveStatus.INFEASIBLE
    if abs(native.margin) == np.inf or abs(realified.margin) == np.inf:
        assert native.margin == realified.margin
    else:
        assert abs(native.margin - realified.margin) <= \
            100 * FEAS_TOL * (1.0 + abs(realified.margin))
    if native.feasible:
        z = native.witness["Z"]
        assert np.abs(z - z.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(z)[0] >= -1e-8
        resid = [np.trace(h @ z).real - np.trace(h @ z0).real for h in rows]
        resid.append(np.trace(f.conj().T @ (z - z0)))
        assert np.abs(resid).max() <= 1e-6 * max(1.0, np.abs(z0).max())


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.booleans(), st.booleans(), st.integers(0, 10_000))
def test_core_rows_annihilate_the_identity(n, herm, traceless, seed):
    """The rows the core solves, applied to the identity of every block,
    are 0 to 1e-12 of the scaled rows' size n, so phase I's core always has
    a strictly feasible point and needs no infeasibility exit: random
    consistent real and Hermitian rows, drawn as in
    test_native_hermitian_matches_realified.  Made traceless (each minus
    its trace times I / n), the rows leave the core no rows at all."""
    gen = rng(seed)
    z0 = rand_pd(gen, n, herm=herm) - 0.7 * np.eye(n)
    rows = [rand_hermitian(gen, n, real=not herm)
            for _ in range(int(gen.integers(1, n * n)))]
    f = rand_complex(gen, n, n) if herm else gen.standard_normal((n, n))
    if traceless:
        rows = [h - np.trace(h).real / n * np.eye(n) for h in rows]
        f = f - np.trace(f) / n * np.eye(n)
    hp = HermitianProblem()
    hp.add_block("Z", n)
    for h in rows:
        hp.add_scalar_row({"Z": h}, float(np.trace(h @ z0).real))
    hp.add_complex_row({"Z": f[None]}, [np.trace(f.conj().T @ z0)])
    problem = hp.build()
    assert any(problem.herm) is herm
    pre = S._Presolve(S._Rows(problem))
    assert pre.traceless is traceless
    if not traceless:
        eye = np.eye(n, dtype=pre.dtype[0]).reshape(-1).view(float)
        assert np.abs(pre.A_flat[0] @ eye).max(initial=0.0) <= 1e-12 * n


def test_unbounded_margin_yields_verified_witness():
    """Z_00 - Z_11 = rhs leaves the margin unbounded.  At rhs 0 the ray at
    scale 1 is a witness; at -10 the base point diag(-5, 5) plus the ray
    fails at scale 1, and the scale 1e2 passes."""
    for rhs in (0.0, -10.0):
        b = HermitianProblem()
        b.add_block("Z", 2)
        b.add_scalar_row({"Z": np.diag([1.0, -1.0])}, rhs)
        sol = solve(b.build())
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.margin == np.inf and sol.info["unbounded_margin"]
        assert np.linalg.eigvalsh(sol.witness["Z"])[0] > 0
    assert np.allclose(np.linalg.eigvalsh(sol.witness["Z"]), [95.0, 105.0],
                       rtol=1e-9)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_strictly_feasible_problems_solve(seed):
    gen = rng(seed)
    n = int(gen.integers(2, 6))
    m = int(gen.integers(1, n + 2))
    zstar = gen.standard_normal((n, n))
    zstar = zstar @ zstar.T + 0.5 * np.eye(n)
    b = HermitianProblem()
    b.add_block("Z", n)
    for _ in range(m):
        f = gen.standard_normal((n, n))
        f = f + f.T
        b.add_scalar_row({"Z": f}, float(np.tensordot(f, zstar)))
    sol = solve(b.build())
    assert sol.status is SolveStatus.FEASIBLE
    # independent witness verification at the documented tolerances
    assert sol.info["eq_resid"] <= 1e-6
    assert sol.info["eig_min"] >= -1e-6


def _solve_rows(rows, rhs, n):
    b = HermitianProblem()
    b.add_block("Z", n)
    for f, c in zip(rows, rhs):
        b.add_scalar_row({"Z": f}, c)
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
    hp.add_scalar_row({"Z": np.eye(2)}, 1.0)
    p = build_from_complex(hp)
    assert p.blocks == (("Z", 4),)
    # the smart path keeps the real size
    p2 = hp.build()
    assert p2.blocks == (("Z", 2),) and p2.hermitian == ()
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
        hp.add_scalar_row({"C": np.eye(2)}, 1.0)
        hp.add_scalar_row({"C": sy}, val)
        problem = hp.build()
        assert problem.hermitian == (True,)
        forced = build_from_complex(hp)
        a = S.solve(problem)
        b = S.solve(forced)
        assert a.status is b.status is expect
        assert abs(a.margin - b.margin) < 1e-6


def test_complex_scalar_block():
    hp = HermitianProblem()
    hp.add_block("z", 1)
    hp.add_scalar_row({"z": np.eye(1)}, 1.0)
    sol = hp.solve()
    assert sol.feasible
    assert abs(sol.witness["z"][0, 0] - 1.0) < 1e-7


def _ref_entry(sizes, terms, r, s):
    """Data of entry (r, s) of a matrix equality: one np.kron or one-entry
    matrix per term."""
    bt = {}
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
    return bt


def _ref_rows(sizes, calls):
    """Reference expansion: a dict row per entry (r, s), each split into a
    real and an imaginary row."""
    rows = []

    def split(bt, val):
        for part, take in ((0, np.real), (1, np.imag)):
            data = {n: (0.5 * (f + f.conj().T), 0.5j * (f - f.conj().T))[part]
                    for n, f in bt.items()}
            if any(np.abs(h).max() > 0 for h in data.values()) or take(val):
                rows.append((data, float(take(val))))
    for kind, *a in calls:
        if kind == "scalar":
            rows.append(({n: np.asarray(h, complex) for n, h in a[0].items()},
                         float(a[1])))
        elif kind == "complex":           # a stack, split row by row
            for p, val in enumerate(a[1]):
                split({n: np.asarray(f[p], complex) for n, f in a[0].items()},
                      complex(val))
        else:
            terms, rhs = a
            for r in range(len(rhs)):
                for s in range(r, len(rhs)):
                    split(_ref_entry(sizes, terms, r, s), complex(rhs[r, s]))
    return rows


def _ref_build(blocks, rows, realified):
    """Reference build, one dict per row: the real-restricted rows when
    every row is conjugation-invariant, else every row; with
    ``realified``, each block's data H becomes [[Re H, -Im H], [Im H, Re H]]
    / 2 on a block of twice the size."""
    def is_real():
        for bt, rhs in rows:
            im = max([np.abs(h.imag).max() for h in bt.values()] + [0.0])
            re = max([np.abs(h.real).max() for h in bt.values()] + [0.0])
            if not (im <= 1e-13 or (re <= 1e-13 and abs(rhs) <= 1e-12)):
                return False
        return True
    real = is_real()
    ref = []
    for bt, rhs in rows:
        if real:
            bt = {n: h.real for n, h in bt.items() if np.abs(h.real).max() > 0}
            if not (bt or abs(rhs) > 1e-12):
                continue
        ref.append(({n: 0.5 * realify(h) if realified else h
                     for n, h in bt.items()}, rhs))
    # stack each row's svec (hvec for native Hermitian data)
    k = 2 if realified else 1
    vec = svec if real or realified else hvec
    A_blocks = [np.zeros((len(ref), vec(np.eye(k * sz)).size)) for _, sz in blocks]
    for i, (bt, _) in enumerate(ref):
        for b, (name, _) in enumerate(blocks):
            if name in bt:
                A_blocks[b][i] = vec(bt[name])
    return S.SDPProblem(tuple((name, k * sz) for name, sz in blocks),
                        tuple(A_blocks),
                        np.array([rhs for _, rhs in ref])), real


_TERM_KINDS = ("apply", "entry", "blocktrace", "kron_block")


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 4]), st.booleans(),
       st.lists(st.one_of(st.sets(st.sampled_from(_TERM_KINDS), min_size=1),
                          st.sampled_from(["complex", "scalar"])),
                min_size=1, max_size=4),
       st.integers(0, 10_000))
def test_hermitian_rows_match_entrywise_reference(d, real, calls, seed):
    """The array-built rows of HermitianProblem equal, entry for entry, the
    per-(r, s) expansion, on the build (real or native Hermitian) and on its
    realification by build_from_complex; on the native Hermitian build, row
    i read off hvec(C) is Re tr(H_i C) of the expansion's H_i."""
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
    made = []
    for call in calls:
        if call == "scalar":
            h = mat(d, d, mask=False)
            made.append(("scalar", {"P": 0.5 * (h + h.conj().T)},
                         float(gen.standard_normal())))
        elif call == "complex":       # a stack of k rows
            k = int(gen.integers(1, 4))
            made.append(("complex", {"P": mat(k, d, d), "C": mat(k, 2 * d, 2 * d)},
                         mat(k)))
        else:
            term = {"apply": ("apply", "C", mat(2, 2), d),
                    "entry": ("entry", "P", complex(mat(1)[0])),
                    "blocktrace": ("blocktrace", "C", 2, complex(mat(1)[0])),
                    "kron_block": ("kron_block", mat(2, 2), "K")}
            made.append(("eq", [term[k] for k in sorted(call)], mat(d, d)))
        {"scalar": hp.add_scalar_row, "complex": hp.add_complex_row,
         "eq": hp.add_matrix_eq}[made[-1][0]](*made[-1][1:])
    rows = _ref_rows(sizes, made)
    blocks = list(sizes.items())
    problem = hp.build()
    ref, real_path = _ref_build(blocks, rows, False)
    assert (problem.hermitian == ()) == real_path
    if real:
        assert real_path
    realified = _ref_build(blocks, rows, True)[0]
    forced = build_from_complex(hp)
    for got, want in ((problem, ref), (forced, realified)):
        assert np.array_equal(got.rhs, want.rhs)
        assert got.blocks == want.blocks
        for g, w in zip(got.A_blocks, want.A_blocks):
            assert np.array_equal(g, w)
    assert forced.hermitian == ()
    assert problem.hermitian == (() if real_path else (True,) * len(sizes))
    if not real_path:
        cs = {name: rand_hermitian(gen, n) for name, n in sizes.items()}
        got = sum(Ab @ hvec(cs[name])
                  for (name, _), Ab in zip(problem.blocks, problem.A_blocks))
        want = np.array([sum(np.trace(h @ cs[name]).real for name, h in bt.items())
                         for bt, _ in rows])
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
        b = HermitianProblem()
        b.add_block("Z", n)
        for _ in range(int(gen.integers(1, n))):
            f = gen.standard_normal((n, n))
            f = f + f.T
            b.add_scalar_row({"Z": f}, float(np.tensordot(f, zstar)))
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
    from freeconvex.spectra import (DominationResult, DropMembership,
                                    SpectraMembership)
    from freeconvex.tracial import HullMembership, TracialMembership

    return [InterpolationResult(status, mode=InterpolationMode.CP),
            DominationResult(status, detail={"isometry": True}),
            DropMembership(status), TracialMembership(status),
            HullMembership(status), CertificateSearch(status),
            SpectraMembership(status), S.SDPSolution(status)]


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
